package main

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	jsontiles "repro"
	"repro/internal/obs"
)

// phase is what one measured phase of a workload produced: the
// end-to-end samples, the failure count, and the per-layer windows
// (registry deltas, store traffic, load-phase split, query stats)
// taken over the phase only, never over set-up. The reader and the
// writer of the mixed workload run in separate goroutines; each owns
// its samples, and mu guards the counts both update.
//
// A workload that loads first and queries afterwards keeps the load in
// its own window, loadWindow; the phase's own windows then cover the
// queries only. When loadWindow is nil the phase's windows cover both.
type phase struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string // the first few, for the report

	queryLat     []float64            // ms, client-observed
	perEnvelope  map[string][]float64 // the same samples by envelope
	overheadMS   []float64            // ms, client latency minus the trailer's wall_ms
	queryWall    time.Duration
	rowsReturned int64
	rejected429  int

	appendLat []float64     // ms per batch (Insert×batch + Flush)
	flushLat  []float64     // ms per flush span (last Insert + Flush)
	loadDocs  int64         // documents appended by timed loads
	loadWall  time.Duration // their wall, first Insert until Close (or Compact) returns
	writerLag time.Duration

	storedBytes int64 // Table.SizeBytes() after the run
	segments    int   // live segments after the run
	inputBytes  int64 // JSONL bytes the table holds
	appended    int64 // JSONL bytes appended during the phase

	regBase   obs.Snapshot
	reg       obs.Snapshot
	store     storeCounts
	loadStats jsontiles.LoadStats
	qstats    []jsontiles.QueryStats

	loadWindow *phase
}

// ingest is the window that holds the phase's appends.
func (p *phase) ingest() *phase {
	if p.loadWindow != nil {
		return p.loadWindow
	}
	return p
}

func beginPhase() *phase {
	return &phase{regBase: obs.Default.Snapshot()}
}

// end closes the registry window.
func (p *phase) end() {
	p.reg = obs.Default.Snapshot().Diff(p.regBase)
}

func (p *phase) ok() {
	p.mu.Lock()
	p.attempted++
	p.mu.Unlock()
}

func (p *phase) fail(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	p.failed++
	if len(p.failures) < 5 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// queryLoop is one closed-loop client: it sends the envelope mix
// round robin, each query only once the previous answer is read, until
// stop(n) is true for the n-th query to be sent. check(i) is called
// just before envelope i is sent and returns the function that judges
// its answer. Only answered, correct queries contribute latency
// samples; every other outcome is a failure.
func (p *phase) queryLoop(cl *client, mix []envelope, traced bool,
	stop func(n int) bool, check func(i int) func([][]any) error) {
	bodies := make([][]byte, len(mix))
	for i, e := range mix {
		bodies[i] = e.encode(traced)
	}
	if p.perEnvelope == nil {
		p.perEnvelope = map[string][]float64{}
	}
	start := time.Now()
	for n := 0; !stop(n); n++ {
		i := n % len(mix)
		verify := check(i)
		r, err := cl.query(bodies[i])
		if err != nil {
			if r.status == http.StatusTooManyRequests {
				p.rejected429++
			}
			p.fail("%s: %v", mix[i].name, err)
			continue
		}
		if err := verify(r.rows); err != nil {
			p.fail("%s: wrong answer: %v", mix[i].name, err)
			continue
		}
		p.ok()
		lat := ms(r.latency)
		p.queryLat = append(p.queryLat, lat)
		p.perEnvelope[mix[i].name] = append(p.perEnvelope[mix[i].name], lat)
		p.overheadMS = append(p.overheadMS, lat-r.wallMS)
		p.rowsReturned += int64(len(r.rows))
	}
	p.queryWall += time.Since(start)
}

// appendBatch inserts docs and flushes them as one segment. The flush
// span covers the last Insert and the Flush, so it also catches an
// auto-flush the last Insert triggers.
func appendBatch(t *jsontiles.Table, docs [][]byte) (flush time.Duration, err error) {
	last := len(docs) - 1
	for _, d := range docs[:last] {
		if err := t.Insert(d); err != nil {
			return 0, fmt.Errorf("insert: %w", err)
		}
	}
	start := time.Now()
	if err := t.Insert(docs[last]); err != nil {
		return 0, fmt.Errorf("insert: %w", err)
	}
	if err := t.Flush(); err != nil {
		return 0, fmt.Errorf("flush: %w", err)
	}
	return time.Since(start), nil
}

// load appends lines to t in batches, closed loop, recording each
// batch's latency and flush span. It returns the first error.
func (p *phase) load(t *jsontiles.Table, lines [][]byte, batch int) error {
	for off := 0; off < len(lines); off += batch {
		docs := lines[off:min(off+batch, len(lines))]
		start := time.Now()
		flush, err := appendBatch(t, docs)
		if err != nil {
			p.fail("append batch at doc %d: %v", off, err)
			return err
		}
		p.ok()
		p.appendLat = append(p.appendLat, ms(time.Since(start)))
		p.flushLat = append(p.flushLat, ms(flush))
	}
	return nil
}

// statsSink collects the QueryStats a traced table reports through
// Options.OnQueryDone.
type statsSink struct {
	mu    sync.Mutex
	stats []jsontiles.QueryStats
}

func (s *statsSink) add(q jsontiles.QueryStats) {
	s.mu.Lock()
	s.stats = append(s.stats, q)
	s.mu.Unlock()
}

// take returns the collected stats and starts a new collection.
func (s *statsSink) take() []jsontiles.QueryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	s.stats = nil
	return out
}

func jsonlBytes(lines [][]byte) int64 {
	var n int64
	for _, l := range lines {
		n += int64(len(l)) + 1
	}
	return n
}

func addLoadStats(a, b jsontiles.LoadStats) jsontiles.LoadStats {
	a.Parse += b.Parse
	a.Mine += b.Mine
	a.Extract += b.Extract
	a.WriteJSONB += b.WriteJSONB
	a.Reorder += b.Reorder
	a.TilesBuilt += b.TilesBuilt
	a.DocsTape += b.DocsTape
	a.DocsTree += b.DocsTree
	a.SubtreesSkipped += b.SubtreesSkipped
	return a
}

func subLoadStats(a, b jsontiles.LoadStats) jsontiles.LoadStats {
	a.Parse -= b.Parse
	a.Mine -= b.Mine
	a.Extract -= b.Extract
	a.WriteJSONB -= b.WriteJSONB
	a.Reorder -= b.Reorder
	a.TilesBuilt -= b.TilesBuilt
	a.DocsTape -= b.DocsTape
	a.DocsTree -= b.DocsTree
	a.SubtreesSkipped -= b.SubtreesSkipped
	return a
}
