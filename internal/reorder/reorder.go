// Package reorder implements the tile-partition tuple reordering of
// paper §3.2. Workloads without spatial locality (Figure 3's news
// items, shuffled inserts, parallel loading) spread each document
// structure thinly over all tiles, so no structure reaches the
// extraction threshold anywhere. Reordering clusters tuples with the
// same frequent itemset into the same tiles of a partition so the
// original threshold is met again.
//
// The six steps of the paper:
//
//  1. mine each tile with the threshold reduced to threshold/partitionSize
//  2. exchange itemsets across the partition; keep those whose exact
//     partition-wide frequency reaches threshold × tileSize
//  3. match every tuple to the itemset that describes it best (most
//     items in common, then largest, ties by minimal item-id sum so
//     every equal tuple matches the same itemset)
//  4. aggregate per-itemset counts and greedily map itemset groups to
//     tiles so the original threshold is reached where possible
//  5. move tuples to their assigned tiles (we apply the computed
//     permutation directly — the in-place swap schedule of the paper
//     is an artifact of paged storage and yields the same layout)
//  6. the caller re-mines each reordered tile with the original
//     threshold to find the final extraction columns (tile.Builder.BuildTape)
package reorder

import (
	"math"
	"sort"
	"time"

	"repro/internal/fpgrowth"
	"repro/internal/jsontape"
	"repro/internal/keypath"
	"repro/internal/tile"
)

// Result reports what reordering did, for tests and diagnostics.
type Result struct {
	// SurvivingItemsets is the number of partition-wide frequent
	// itemsets used as cluster targets.
	SurvivingItemsets int
	// Matched is the number of tuples matched to some itemset.
	Matched int
	// Moved is the number of tuples whose position changed.
	Moved int
}

// PartitionTapes reorders one partition's parsed documents in place.
// tapes holds up to PartitionSize × TileSize documents in insertion
// order; after the call they are permuted so that tiles (consecutive
// TileSize runs) cluster tuples of equal frequent structure.
func PartitionTapes(tapes []*jsontape.Doc, cfg tile.Config, m *tile.Metrics) Result {
	start := time.Now()
	defer func() {
		if m != nil {
			m.ReorderNanos.Add(time.Since(start).Nanoseconds())
		}
	}()
	if len(tapes) == 0 || cfg.PartitionSize <= 1 {
		return Result{}
	}
	tileSize := effectiveTileSize(cfg)
	if len(tapes) <= tileSize {
		return Result{} // a single tile: nothing to redistribute
	}

	dict := keypath.NewDict()
	txs := tile.CollectTapeTransactions(tapes, cfg.MaxArraySlots, dict)
	order, res := computeOrder(txs, cfg, tileSize)
	if order == nil {
		return res
	}

	newTapes := make([]*jsontape.Doc, len(tapes))
	for newPos, oldPos := range order {
		newTapes[newPos] = tapes[oldPos]
		if newPos != oldPos {
			res.Moved++
		}
	}
	copy(tapes, newTapes)
	return res
}

func effectiveTileSize(cfg tile.Config) int {
	if cfg.TileSize > 0 {
		return cfg.TileSize
	}
	return tile.DefaultConfig().TileSize
}

// computeOrder runs steps 1-5 over the collected transactions and
// returns the tuple permutation (nil when nothing survives filtering)
// plus the partial Result (Moved is filled in by the caller).
//
// Steps 2 and 3 work per distinct key-path shape, not per tuple: a
// partition of rigid records has a handful of shapes, so counting and
// matching cost shapes × itemsets instead of tuples × itemsets. Every
// tuple of a shape matches the same itemset, so fanning the shape's
// match out through the shape index gives the per-tuple result.
func computeOrder(txs [][]int32, cfg tile.Config, tileSize int) ([]int, Result) {
	// Step 1: per-tile mining with the reduced threshold.
	reduced := cfg.Threshold / float64(cfg.PartitionSize)
	var candidates [][]int32
	for lo := 0; lo < len(txs); lo += tileSize {
		hi := lo + tileSize
		if hi > len(txs) {
			hi = len(txs)
		}
		support := int(math.Ceil(reduced * float64(hi-lo)))
		if support < 1 {
			support = 1
		}
		miner := fpgrowth.Miner{MinSupport: support, Budget: cfg.Budget}
		for _, s := range fpgrowth.Maximal(miner.Mine(txs[lo:hi])) {
			candidates = append(candidates, s.Items)
		}
	}

	// Step 2: exchange and filter. Deduplicate the candidates, then
	// count each one's exact partition-wide frequency as the summed
	// multiplicity of the shapes containing it; survivors need
	// threshold × tileSize matches.
	shapes := fpgrowth.GroupShapes(txs)
	need := int(math.Ceil(cfg.Threshold * float64(tileSize)))
	var survivors []survivor
	for _, items := range fpgrowth.GroupShapes(candidates).Items {
		count := 0
		for si, shape := range shapes.Items {
			if containsAll(shape, items) {
				count += shapes.Mult[si]
			}
		}
		if count >= need {
			survivors = append(survivors, survivor{items: items, count: count,
				key: itemsKey(items), sum: itemSum(items)})
		}
	}
	if len(survivors) == 0 {
		return nil, Result{}
	}
	// Deterministic survivor order: size desc, count desc, items asc.
	sort.Slice(survivors, func(i, j int) bool {
		a, b := survivors[i], survivors[j]
		if len(a.items) != len(b.items) {
			return len(a.items) > len(b.items)
		}
		if a.count != b.count {
			return a.count > b.count
		}
		return a.key < b.key
	})

	// Step 3: match each shape to its best itemset (most items in
	// common, then largest, then minimal item-id sum), then every tuple
	// to its shape's match.
	shapeMatch := make([]int, len(shapes.Items)) // survivor index, -1 = unmatched
	for shi, shape := range shapes.Items {
		shapeMatch[shi] = -1
		bestOverlap, bestSize := 0, 0
		bestSum := int64(math.MaxInt64)
		for si, s := range survivors {
			ov := fpgrowth.Overlap(s.items, shape)
			if ov == 0 {
				continue
			}
			better := false
			switch {
			case ov > bestOverlap:
				better = true
			case ov == bestOverlap && len(s.items) > bestSize:
				better = true
			case ov == bestOverlap && len(s.items) == bestSize && s.sum < bestSum:
				better = true
			}
			if better {
				bestOverlap, bestSize, bestSum = ov, len(s.items), s.sum
				shapeMatch[shi] = si
			}
		}
	}
	matchOf := make([]int, len(txs))
	matched := 0
	for i, shi := range shapes.Of {
		matchOf[i] = shapeMatch[shi]
		if matchOf[i] >= 0 {
			matched++
		}
	}

	order := packTiles(matchOf, len(survivors), tileSize)
	return order, Result{SurvivingItemsets: len(survivors), Matched: matched}
}

// packTiles runs steps 4 and 5 and returns the tuple permutation.
// matchOf[i] is tuple i's itemset index, -1 for none.
func packTiles(matchOf []int, numItemsets, tileSize int) []int {
	// Group tuples by matched itemset and map groups to tiles greedily
	// so each tile reaches the original threshold where possible.
	// Every tile is anchored by the largest remaining group; leftover
	// space is filled from unmatched tuples and the smallest groups
	// (which could not have filled a tile anyway), so large groups are
	// never diluted across tile boundaries — plain contiguous packing
	// would create boundary tiles where two groups both miss the
	// threshold. Within a group the original order is kept (stable
	// clustering preserves existing locality).
	groups := make([][]int, numItemsets)
	var unmatched []int
	for i, si := range matchOf {
		if si < 0 {
			unmatched = append(unmatched, i)
		} else {
			groups[si] = append(groups[si], i)
		}
	}
	groupIdx := make([]int, 0, len(groups))
	for gi := range groups {
		if len(groups[gi]) > 0 {
			groupIdx = append(groupIdx, gi)
		}
	}
	// Largest groups first; unmatched tuples act as the very smallest
	// "group" and are consumed as filler from the end of the list.
	sort.SliceStable(groupIdx, func(a, b int) bool {
		return len(groups[groupIdx[a]]) > len(groups[groupIdx[b]])
	})
	pools := make([][]int, 0, len(groupIdx)+1)
	for _, gi := range groupIdx {
		pools = append(pools, groups[gi])
	}
	pools = append(pools, unmatched)

	order := make([]int, 0, len(matchOf))
	head, tail := 0, len(pools)-1
	for len(order) < len(matchOf) {
		space := tileSize
		if remaining := len(matchOf) - len(order); remaining < space {
			space = remaining
		}
		// Anchor: the largest remaining group.
		for head <= tail && len(pools[head]) == 0 {
			head++
		}
		if head > tail {
			break
		}
		take := space
		if take > len(pools[head]) {
			take = len(pools[head])
		}
		order = append(order, pools[head][:take]...)
		pools[head] = pools[head][take:]
		space -= take
		// Fill remaining space from the smallest pools backwards.
		for space > 0 {
			for tail >= head && len(pools[tail]) == 0 {
				tail--
			}
			if tail < head {
				break
			}
			t := space
			pool := pools[tail]
			if t > len(pool) {
				t = len(pool)
			}
			// Take from the pool's end: its head stays contiguous for
			// its own anchor tile later.
			order = append(order, pool[len(pool)-t:]...)
			pools[tail] = pool[:len(pool)-t]
			space -= t
		}
	}

	return order
}

// survivor is a partition-wide frequent itemset (step 2) with its
// exact partition count, sort key and item-id sum precomputed for
// steps 2 and 3.
type survivor struct {
	items []int32
	count int
	key   string
	sum   int64
}

// itemsKey orders survivors with equal size and count (step 2's
// deterministic tie-break).
func itemsKey(items []int32) string {
	return string(fpgrowth.AppendKey(nil, items))
}

func itemSum(items []int32) int64 {
	total := int64(0)
	for _, it := range items {
		total += int64(it)
	}
	return total
}

// containsAll reports whether the sorted transaction contains every
// item of the sorted itemset.
func containsAll(tx, items []int32) bool {
	i := 0
	for _, x := range items {
		for i < len(tx) && tx[i] < x {
			i++
		}
		if i >= len(tx) || tx[i] != x {
			return false
		}
		i++
	}
	return true
}
