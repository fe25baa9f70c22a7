package tile

import (
	"math"

	"repro/internal/bloom"
	"repro/internal/column"
	"repro/internal/dates"
	"repro/internal/fpgrowth"
	"repro/internal/hist"
	"repro/internal/hll"
	"repro/internal/jsonvalue"
	"repro/internal/keypath"
)

// The tree-based tile build: the reference oracle for BuildTape. It
// collects key paths from boxed jsonvalue documents, walking each
// document twice (transactions, then leaves), and encodes raw storage
// with jsonb.Encode. Production code builds tiles only from tapes
// (DESIGN.md §6.8); these tests hold the tape build to this simpler
// implementation byte for byte.

// CollectTransactions turns documents into itemset transactions over a
// shared dictionary — one sorted item-id list per document. The same
// routine serves tile building and partition reordering.
func CollectTransactions(docs []jsonvalue.Value, maxSlots int, dict *keypath.Dict) [][]int32 {
	txs := make([][]int32, len(docs))
	for i, d := range docs {
		var tx []int32
		keypath.Collect(d, maxSlots, func(p keypath.Path, t keypath.ValueType, v jsonvalue.Value) {
			tx = append(tx, dict.Add(p.Encode(), t))
		})
		tx = sortDedup(tx)
		txs[i] = tx
	}
	return txs
}

// Build materializes one tile from docs: collect key paths, mine
// frequent itemsets at the extraction threshold, extract the union of
// the maximal itemsets as typed columns (§3.1), and encode every
// document into binary JSON for the fallback path.
// The oracle records no metrics and bumps no process-wide counters.
func (b *Builder) Build(docs []jsonvalue.Value) *Tile {
	dict := keypath.NewDict()
	txs := CollectTransactions(docs, b.Config.MaxArraySlots, dict)
	miner := fpgrowth.Miner{MinSupport: b.Config.MinSupport(len(docs)), Budget: b.Config.Budget}
	maximal := fpgrowth.Maximal(miner.Mine(txs))
	return b.materialize(docs, dict, maximal)
}

func (b *Builder) materialize(docs []jsonvalue.Value, dict *keypath.Dict, maximal []fpgrowth.Itemset) *Tile {
	// Union of the maximal itemsets = the extracted items (§3.1 step 3).
	extractedIDs := map[int32]bool{}
	for _, s := range maximal {
		for _, id := range s.Items {
			extractedIDs[id] = true
		}
	}

	t := &Tile{
		numRows:    len(docs),
		byItem:     map[keypath.Item]int{},
		byPath:     map[string][]int{},
		pathFreq:   map[string]int{},
		sketches:   map[string]*hll.Sketch{},
		histograms: map[string]*hist.Histogram{},
	}

	// Deterministic column order: dictionary id order.
	var orderedIDs []int32
	for id := int32(0); id < int32(dict.Len()); id++ {
		if extractedIDs[id] && isExtractableType(dict.Item(id).Type) {
			orderedIDs = append(orderedIDs, id)
		}
	}

	// Per-document path values, gathered in a single walk per doc.
	type docLeaf struct {
		t keypath.ValueType
		v jsonvalue.Value
	}
	leaves := make([]map[string]docLeaf, len(docs))
	seenPaths := map[string]bool{}
	for i, d := range docs {
		m := map[string]docLeaf{}
		keypath.Collect(d, b.Config.MaxArraySlots, func(p keypath.Path, vt keypath.ValueType, v jsonvalue.Value) {
			enc := p.Encode()
			m[enc] = docLeaf{t: vt, v: v}
			if !seenPaths[enc] {
				seenPaths[enc] = true
				// Every prefix is a reachable path too: an access to
				// ->'user' on a tile holding user.id must neither skip
				// nor return NULL-for-all.
				for n := len(p.Segs) - 1; n >= 1; n-- {
					prefix := keypath.Path{Segs: p.Segs[:n]}.Encode()
					if seenPaths[prefix] {
						break
					}
					seenPaths[prefix] = true
				}
			}
			if vt != keypath.TypeNull {
				t.pathFreq[enc]++
			}
		})
		leaves[i] = m
	}

	for _, id := range orderedIDs {
		item := dict.Item(id)
		info := ColumnInfo{Path: item.Path, MinedType: item.Type, StorageType: item.Type}

		// Date detection (§4.9): sample the string values first.
		if item.Type == keypath.TypeString && b.Config.DetectDates {
			var sample []string
			for i := range docs {
				if lf, ok := leaves[i][item.Path]; ok && lf.t == keypath.TypeString {
					sample = append(sample, lf.v.StringVal())
					if len(sample) >= 64 {
						break
					}
				}
			}
			if dates.DetectColumn(sample, 64) {
				info.StorageType = keypath.TypeTimestamp
			}
		}

		col := column.New(info.StorageType)
		sketch := hll.New()
		var numeric []float64
		for i := range docs {
			lf, present := leaves[i][item.Path]
			if !present {
				col.AppendNull()
				continue
			}
			if lf.t != item.Type {
				col.AppendNull()
				if lf.t != keypath.TypeNull {
					info.HasTypeOutliers = true
				}
				continue
			}
			switch info.StorageType {
			case keypath.TypeBigInt:
				col.AppendInt(lf.v.IntVal())
				sketch.AddInt64(lf.v.IntVal())
				numeric = append(numeric, float64(lf.v.IntVal()))
			case keypath.TypeDouble:
				col.AppendFloat(lf.v.FloatVal())
				sketch.AddHash(hll.HashUint64(math.Float64bits(lf.v.FloatVal())))
				numeric = append(numeric, lf.v.FloatVal())
			case keypath.TypeBool:
				col.AppendBool(lf.v.BoolVal())
				if lf.v.BoolVal() {
					sketch.AddInt64(1)
				} else {
					sketch.AddInt64(0)
				}
			case keypath.TypeString:
				col.AppendString(lf.v.StringVal())
				sketch.AddString(lf.v.StringVal())
			case keypath.TypeTimestamp:
				if ts, ok := dates.Parse(lf.v.StringVal()); ok {
					col.AppendInt(ts)
					sketch.AddInt64(ts)
					numeric = append(numeric, float64(ts))
				} else {
					col.AppendNull()
					info.HasTypeOutliers = true
				}
			}
		}
		// Low-cardinality text columns switch to the dictionary layout:
		// the per-path HLL sketch (§4.6) estimates NDV for free, and
		// DictEncode re-checks the exact count so an HLL undershoot
		// falls back losslessly to the arena.
		if info.StorageType == keypath.TypeString && b.Config.DictThreshold > 0 {
			nonNull := col.Len() - col.NullCount()
			ndvCap := int(math.Ceil(b.Config.DictThreshold * float64(nonNull)))
			if ndvCap < 1 {
				ndvCap = 1
			}
			if sketch.Estimate() <= float64(ndvCap) {
				col.DictEncode(ndvCap)
			}
		}
		idx := len(t.columns)
		info.Col = col
		t.columns = append(t.columns, info)
		t.byItem[keypath.Item{Path: item.Path, Type: item.Type}] = idx
		t.byPath[item.Path] = append(t.byPath[item.Path], idx)
		t.sketches[item.Path] = sketch
		if len(numeric) > 0 {
			t.histograms[item.Path] = hist.FromValues(numeric)
		}
	}

	// Header bloom filter over the paths seen but not extracted (§4.4).
	t.notExtracted = bloom.New(len(seenPaths)+8, 0.01)
	for p := range seenPaths {
		if _, ok := t.byPath[p]; !ok {
			t.notExtracted.Add(p)
		}
	}

	// Binary JSON for every tuple (the fallback and outlier storage).
	t.raw = make([][]byte, len(docs))
	for i, d := range docs {
		t.raw[i] = b.enc.Encode(d)
	}
	return t
}
