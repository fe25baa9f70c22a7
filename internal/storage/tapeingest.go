package storage

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jsonb"
	"repro/internal/jsontape"
	"repro/internal/obs"
	"repro/internal/reorder"
	"repro/internal/stats"
	"repro/internal/tile"
)

// On-demand ingest (DESIGN.md §6.8): every loader parses documents
// into structural tapes and feeds them straight to its extraction or
// encoding pass, materializing no jsonvalue trees beyond the Tiles-*
// side documents it synthesizes. A document the tape cannot represent
// (LimitError: ≥4 GiB documents or ≥2^28-element spans) fails the load
// like a syntax error, with its index.

// ingestScratch pools one worker's tape document and JSONB encoder so
// repeated loads reuse the tape and encoder buffers (like
// scanScratchPool on the read side).
type ingestScratch struct {
	doc jsontape.Doc
	enc jsonb.Encoder
}

var ingestScratchPool = sync.Pool{New: func() any { return new(ingestScratch) }}

// tapeBatch pools a partition's worth of tape documents: grow keeps
// previously-allocated tape buffers so a worker re-parses partition
// after partition without reallocating.
type tapeBatch struct {
	docs []jsontape.Doc
	ptrs []*jsontape.Doc
}

var tapeBatchPool = sync.Pool{New: func() any { return new(tapeBatch) }}

// prep returns n tape-document pointers backed by the batch's reusable
// storage. The ptrs slice is rebuilt each call (reordering permutes
// it) but the docs — and their tape buffers — persist.
func (b *tapeBatch) prep(n int) []*jsontape.Doc {
	for len(b.docs) < n {
		b.docs = append(b.docs, jsontape.Doc{})
	}
	b.ptrs = b.ptrs[:0]
	for i := 0; i < n; i++ {
		b.ptrs = append(b.ptrs, &b.docs[i])
	}
	return b.ptrs
}

// parseErrs collects parse failures from parallel workers and always
// reports the lowest failing document index, so the error a caller
// sees does not depend on worker count or morsel scheduling. The
// wrapped *jsontext.SyntaxError carries the byte offset within the
// document.
type parseErrs struct {
	min atomic.Int64 // lowest failing index seen so far
	mu  sync.Mutex
	idx int
	err error
}

func newParseErrs() *parseErrs {
	p := &parseErrs{}
	p.min.Store(math.MaxInt64)
	return p
}

func (p *parseErrs) record(i int, err error) {
	p.mu.Lock()
	if p.err == nil || i < p.idx {
		p.idx, p.err = i, err
	}
	p.mu.Unlock()
	for {
		cur := p.min.Load()
		if int64(i) >= cur || p.min.CompareAndSwap(cur, int64(i)) {
			return
		}
	}
}

// failedBefore reports whether some document before index lo already
// failed — work at lo and beyond cannot change the reported error, so
// morsels may skip it.
func (p *parseErrs) failedBefore(lo int) bool {
	return p.min.Load() < int64(lo)
}

func (p *parseErrs) get() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil {
		return nil
	}
	return fmt.Errorf("document %d: %w", p.idx, p.err)
}

// parseAllTapes parses every line into a resident tape in parallel.
// Errors — syntax or tape limit — report the lowest failing index.
func parseAllTapes(lines [][]byte, workers int) ([]*jsontape.Doc, error) {
	tapes := make([]*jsontape.Doc, len(lines))
	pe := newParseErrs()
	morselRange(len(lines), workers, func(w, lo, hi int) {
		if pe.failedBefore(lo) {
			return
		}
		var tapeBytes int64
		defer func() { obs.IngestTapeBytes.Add(tapeBytes) }()
		for i := lo; i < hi; i++ {
			d := new(jsontape.Doc)
			if err := jsontape.Parse(lines[i], d); err != nil {
				pe.record(i, err)
				return
			}
			tapeBytes += int64(8 * len(d.Tape))
			tapes[i] = d
		}
	})
	if err := pe.get(); err != nil {
		return nil, err
	}
	return tapes, nil
}

// parseEach parses every line, morsel-parallel, into the worker's
// pooled tape and hands it to fn (nil only validates) while the tape is
// live. Errors report the lowest failing index.
func parseEach(lines [][]byte, workers int, fn func(i int, s *ingestScratch)) error {
	pe := newParseErrs()
	morselRange(len(lines), workers, func(w, lo, hi int) {
		if pe.failedBefore(lo) {
			return
		}
		s := ingestScratchPool.Get().(*ingestScratch)
		defer ingestScratchPool.Put(s)
		var tapeDocs, tapeBytes int64
		defer func() {
			obs.IngestDocsTape.Add(tapeDocs)
			obs.IngestTapeBytes.Add(tapeBytes)
		}()
		for i := lo; i < hi; i++ {
			if err := jsontape.Parse(lines[i], &s.doc); err != nil {
				pe.record(i, err)
				return
			}
			tapeDocs++
			tapeBytes += int64(8 * len(s.doc.Tape))
			if fn != nil {
				fn(i, s)
			}
		}
	})
	return pe.get()
}

// ValidateDoc checks that line is one well-formed JSON document the
// tape can represent — the insert-time validation of the public API.
func ValidateDoc(line []byte) error {
	s := ingestScratchPool.Get().(*ingestScratch)
	err := jsontape.Parse(line, &s.doc)
	ingestScratchPool.Put(s)
	return err
}

// BuildTilesFromLines parses and ingests raw JSON lines into a Tiles
// relation, morsel-parallel with partition granularity: each worker
// parses a partition's lines into pooled tapes, reorders them (§3.2),
// and builds its tiles directly from the tapes.
func BuildTilesFromLines(name string, lines [][]byte, cfg LoaderConfig, workers int, metrics *tile.Metrics) (Relation, error) {
	if metrics == nil {
		metrics = cfg.Metrics
	}
	pe := newParseErrs()
	r := buildTiles(name, len(lines), cfg, workers, metrics, func(batch *tapeBatch, lo, hi int) []*jsontape.Doc {
		if pe.failedBefore(lo) {
			return nil
		}
		start := time.Now()
		tapes := batch.prep(hi - lo)
		var tapeBytes int64
		defer func() {
			if metrics != nil {
				metrics.ParseNanos.Add(time.Since(start).Nanoseconds())
			}
			obs.IngestTapeBytes.Add(tapeBytes)
		}()
		for i, line := range lines[lo:hi] {
			if err := jsontape.Parse(line, tapes[i]); err != nil {
				pe.record(lo+i, err)
				return nil
			}
			tapeBytes += int64(8 * len(tapes[i].Tape))
		}
		return tapes
	})
	if err := pe.get(); err != nil {
		return nil, err
	}
	obs.DocsLoaded.Add(int64(len(lines)))
	return r, nil
}

// buildTiles is the partition loop of every Tiles load. Partitions of
// TileSize × PartitionSize documents are fully independent (§3.2:
// "Each thread is dedicated to a disjoint subset of the data"), so
// each is one morsel: a partition is already thousands of documents,
// and unit granularity gives the queue its work stealing without
// splitting the reorder/extraction scope. partTapes supplies the tapes
// of documents [lo, hi) — from the worker's pooled batch if it parses
// them — or nil to skip a partition that failed.
func buildTiles(name string, n int, cfg LoaderConfig, workers int, metrics *tile.Metrics,
	partTapes func(batch *tapeBatch, lo, hi int) []*jsontape.Doc) *tilesRelation {
	tcfg := cfg.Tile
	if tcfg.TileSize <= 0 {
		tcfg = tile.DefaultConfig()
	}
	partDocs := tcfg.TileSize * tcfg.PartitionSize
	if partDocs <= 0 {
		partDocs = tcfg.TileSize
	}
	numParts := (n + partDocs - 1) / partDocs

	r := &tilesRelation{name: name, cfg: cfg, numRows: n,
		stats: stats.New(0, 0), metrics: metrics}
	partTiles := make([][]*tile.Tile, numParts)
	morselRangeSized(numParts, workers, 1, func(w, lo, hi int) {
		builder := tile.NewBuilder(tcfg, metrics)
		batch := tapeBatchPool.Get().(*tapeBatch)
		defer tapeBatchPool.Put(batch)
		for p := lo; p < hi; p++ {
			part := partTapes(batch, p*partDocs, min((p+1)*partDocs, n))
			if part == nil {
				continue
			}
			if cfg.Reorder && tcfg.PartitionSize > 1 {
				reorder.PartitionTapes(part, tcfg, metrics)
			}
			for tlo := 0; tlo < len(part); tlo += tcfg.TileSize {
				thi := min(tlo+tcfg.TileSize, len(part))
				partTiles[p] = append(partTiles[p], builder.BuildTape(part[tlo:thi]))
			}
		}
	})
	for _, pt := range partTiles {
		for _, t := range pt {
			r.tiles = append(r.tiles, t)
			r.stats.AddTile(t)
		}
	}
	return r
}
