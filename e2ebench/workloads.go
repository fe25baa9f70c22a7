package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	jsontiles "repro"
	"repro/internal/service"
	"repro/internal/workload/tpch"
	"repro/internal/workload/twitter"
)

// Workload sizes. The rationale for each number is in README.md.
const (
	tpchScale = 0.01
	// flushBatch is the auto-flush size of a table at the default
	// layout (TileSize × PartitionSize).
	flushBatch = 8192
	// tpchLoads is how many times tpch-ingest-query loads the
	// collection per run; the ingest figures cover all loads.
	tpchLoads = 2
	// warmupQueries is the tpch-ingest-query warm-up pass, run between
	// the loads and the timed query window.
	warmupQueries = 250

	twitterPreload = 40000
	twitterAppend  = 40000
	twitterBatch   = 1024
	mixedCache     = 256 << 10
	s3Latency      = 500 * time.Microsecond
	// writerShare is the part of the run over which the open-loop
	// writer's batches fall due.
	writerShare = 0.8
)

// workload is one traffic mix: set-up builds everything before timing
// starts, run measures for the given duration. setups is how many
// times an untraced run sets up (setup_s is their median).
type workload struct {
	name   string
	setups int
	setup  func(seed int64, traced bool) (*env, error)
	run    func(e *env, d time.Duration) *phase
}

var workloads = []workload{
	{"tpch-ingest-query", 3, setupTPCH, runTPCH},
	{"mixed-twitter-remote", 3, setupMixed, runMixed},
}

// env is one set-up's state: inputs, reference answers, and the table
// and server the measured phase works on.
type env struct {
	traced  bool
	sink    *statsSink
	closers []func()

	lines     [][]byte // documents the measured phase appends
	preload   int64    // JSONL bytes loaded in set-up
	mix       []envelope
	tpchRefs  [][][]any
	tweetRefs [][][][]any
	table     *jsontiles.Table
	store     *timedStore
	cl        *client
}

func (e *env) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
}

// options returns table options; a traced table reports every query's
// analyzed plan to the sink.
func (e *env) options(cacheBytes int64) jsontiles.Options {
	o := jsontiles.Options{CacheBytes: cacheBytes}
	if e.traced {
		o.OnQueryDone = e.sink.add
	}
	return o
}

// serve exposes t as name on a loopback query server and returns a
// client for it.
func (e *env) serve(name string, t *jsontiles.Table) (*client, error) {
	srv := service.New(service.Config{Addr: "127.0.0.1:0"})
	srv.Register(name, t)
	addr, err := srv.Start()
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	cl := newClient(addr)
	e.closers = append(e.closers, func() {
		cl.close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return cl, nil
}

// refCheck judges envelope i's answer against fixed reference rows.
func refCheck(refs [][][]any) func(i int) func([][]any) error {
	return func(i int) func([][]any) error {
		return func(rows [][]any) error { return sameRows(rows, refs[i]) }
	}
}

// tpch-ingest-query: set-up generates the collection and its
// reference answers. The measured phase loads the collection tpchLoads
// times, each into a fresh table; then, untimed, it reopens every
// table to check its row count, compacts the last one to a fixed
// layout, serves it and warms it up. Last comes the query window: the
// mix, closed loop, until d has passed since the first load began, and
// for at least d/3. The loads and the query window are separate
// measurement windows.
func setupTPCH(seed int64, traced bool) (*env, error) {
	lines, _ := tpch.Generate(tpch.Config{ScaleFactor: tpchScale, Seed: seed})
	refs, err := tpchReference(lines)
	if err != nil {
		return nil, err
	}
	return &env{traced: traced, sink: &statsSink{}, lines: lines, mix: tpchMix("tpch"), tpchRefs: refs}, nil
}

func runTPCH(e *env, d time.Duration) *phase {
	load := beginPhase()
	loadStart := time.Now()
	var stores []*timedStore
	for i := 0; i < tpchLoads; i++ {
		st, err := e.loadTPCH(load)
		if err != nil {
			load.end()
			return load
		}
		stores = append(stores, st)
	}
	load.end()
	for i, st := range stores {
		t, err := e.reopen(load, "tpch", st, 0, len(e.lines))
		if err != nil {
			return load
		}
		if i < len(stores)-1 {
			t.Close()
			continue
		}
		e.closers = append(e.closers, func() { t.Close() })
		e.table, e.store = t, st
	}
	if _, err := e.table.Compact(); err != nil {
		load.fail("compact: %v", err)
		return load
	}
	var err error
	if e.cl, err = e.serve("tpch", e.table); err != nil {
		load.fail("%v", err)
		return load
	}
	if err := e.warmUp(warmupQueries, e.tpchRefs); err != nil {
		load.fail("%v", err)
		return load
	}
	// Collect the loads' garbage before the latency sample starts.
	runtime.GC()

	p := beginPhase()
	p.loadWindow = load
	p.attempted, p.failed, p.failures = load.attempted, load.failed, load.failures
	e.sink.take()
	base := e.store.snapshot()
	deadline := loadStart.Add(d)
	if minEnd := time.Now().Add(d / 3); deadline.Before(minEnd) {
		deadline = minEnd
	}
	p.queryLoop(e.cl, e.mix, e.traced,
		func(int) bool { return !time.Now().Before(deadline) }, refCheck(e.tpchRefs))
	p.qstats = e.sink.take()
	p.store = e.store.snapshot().sub(base)
	p.end()
	p.storedBytes = e.table.SizeBytes()
	p.segments = e.table.NumSegments()
	p.inputBytes = jsonlBytes(e.lines)
	return p
}

// loadTPCH appends the collection to a new table on a fresh store and
// closes it, adding the load to p. Timing runs from the first Insert
// until Close returns, so background compaction the load caused is
// counted.
func (e *env) loadTPCH(p *phase) (*timedStore, error) {
	st := newTimedStore(jsontiles.NewMemStore())
	t, err := jsontiles.OpenStore("tpch", st, e.options(0))
	if err != nil {
		p.fail("open: %v", err)
		return nil, err
	}
	start := time.Now()
	if err := p.load(t, e.lines, flushBatch); err != nil {
		t.Close()
		return nil, err
	}
	if err := t.Close(); err != nil {
		p.fail("close: %v", err)
		return nil, err
	}
	p.loadDocs += int64(len(e.lines))
	p.loadWall += time.Since(start)
	p.loadStats = addLoadStats(p.loadStats, t.LoadStats())
	p.store = p.store.add(st.snapshot())
	p.appended += jsonlBytes(e.lines)
	return st, nil
}

// reopen opens a closed table again, without background compaction,
// checks that it holds wantRows documents, and records its stored size.
func (e *env) reopen(p *phase, name string, st jsontiles.BlockStore, cacheBytes int64, wantRows int) (*jsontiles.Table, error) {
	o := e.options(cacheBytes)
	o.CompactFanIn = -1
	r, err := jsontiles.OpenStore(name, st, o)
	if err != nil {
		p.fail("reopen: %v", err)
		return nil, err
	}
	if r.NumRows() != wantRows {
		r.Close()
		p.fail("reopened table has %d rows, appended %d", r.NumRows(), wantRows)
		return nil, fmt.Errorf("reopened table has %d rows, appended %d", r.NumRows(), wantRows)
	}
	p.ok()
	p.storedBytes = r.SizeBytes()
	p.segments = r.NumSegments()
	return r, nil
}

// preloadAndServe is the mixed workload's set-up load: it opens name
// on st (wrapped in the timing store), appends lines in auto-flush
// batches, compacts, and serves the table.
func (e *env) preloadAndServe(name string, st jsontiles.BlockStore, cacheBytes int64, lines [][]byte) error {
	e.store = newTimedStore(st)
	t, err := jsontiles.OpenStore(name, e.store, e.options(cacheBytes))
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	e.table = t
	e.closers = append(e.closers, func() { t.Close() })
	if err := beginPhase().load(t, lines, flushBatch); err != nil {
		return err
	}
	if _, err := t.Compact(); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	e.preload = jsonlBytes(lines)
	e.cl, err = e.serve(name, t)
	return err
}

// warmUp sends n queries of the mix, every answer checked against refs.
func (e *env) warmUp(n int, refs [][][]any) error {
	warm := beginPhase()
	warm.queryLoop(e.cl, e.mix, e.traced, func(i int) bool { return i >= n }, refCheck(refs))
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d queries failed: %v", warm.failed, warm.attempted, warm.failures)
	}
	return nil
}

// mixed-twitter-remote: set-up preloads the first half of a schema-
// evolving tweet stream onto a latency-injecting object store behind a
// small pool; the measured phase runs one closed-loop reader beside an
// open-loop writer that appends the second half.
func setupMixed(seed int64, traced bool) (*env, error) {
	all := twitter.Generate(twitter.Config{Tweets: twitterPreload + twitterAppend, Changing: true, Seed: seed})
	refs, err := twitterReference(all, twitterPreload, twitterBatch)
	if err != nil {
		return nil, err
	}
	e := &env{traced: traced, sink: &statsSink{}, lines: all[twitterPreload:],
		mix: twitterMix("tweets"), tweetRefs: refs}
	s3 := jsontiles.NewFakeS3Store(jsontiles.NewMemStore(), jsontiles.FakeS3Options{Latency: s3Latency})
	if err := e.preloadAndServe("tweets", s3, mixedCache, all[:twitterPreload]); err != nil {
		e.close()
		return nil, err
	}
	if err := e.warmUp(len(e.mix), refs[0]); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func runMixed(e *env, d time.Duration) *phase {
	p := beginPhase()
	e.sink.take()
	base := e.store.snapshot()
	loadBase := e.table.LoadStats()

	nBatches := (len(e.lines) + twitterBatch - 1) / twitterBatch
	interval := time.Duration(float64(d) * writerShare / float64(nBatches))
	// committed counts batches whose Flush returned; started counts
	// batches whose commit may have begun. An answer read between the
	// two must match the reference of some prefix in that range.
	var committed, started atomic.Int64
	writerDone := make(chan struct{})
	start := time.Now()
	var firstInsert, lastCommit time.Time
	go func() {
		defer close(writerDone)
		firstInsert = time.Now()
		for b := 0; b < nBatches; b++ {
			due := start.Add(time.Duration(b) * interval)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			} else if -wait > p.writerLag {
				p.writerLag = -wait
			}
			docs := e.lines[b*twitterBatch : min((b+1)*twitterBatch, len(e.lines))]
			started.Add(1)
			flush, err := appendBatch(e.table, docs)
			if err != nil {
				p.fail("append batch %d: %v", b, err)
				return
			}
			committed.Add(1)
			p.ok()
			p.appendLat = append(p.appendLat, ms(time.Since(due)))
			p.flushLat = append(p.flushLat, ms(flush))
		}
		lastCommit = time.Now()
	}()

	refs := e.tweetRefs
	prefixCheck := func(i int) func([][]any) error {
		lo := int(committed.Load())
		return func(rows [][]any) error {
			hi := int(started.Load())
			var err error
			for k := lo; k <= hi; k++ {
				if err = sameRows(rows, refs[k][i]); err == nil {
					return nil
				}
			}
			return fmt.Errorf("matches no committed prefix %d..%d: %v", lo, hi, err)
		}
	}
	p.queryLoop(e.cl, e.mix, e.traced, func(int) bool {
		if time.Since(start) < d {
			return false
		}
		select {
		case <-writerDone:
			return true
		default:
			return false
		}
	}, prefixCheck)
	<-writerDone

	// A final round after the last append must see all documents.
	final := beginPhase()
	final.queryLoop(e.cl, e.mix, e.traced,
		func(n int) bool { return n >= len(e.mix) }, refCheck(refs[len(refs)-1]))
	p.attempted += final.attempted
	p.failed += final.failed
	p.failures = append(p.failures, final.failures...)
	p.qstats = e.sink.take()

	p.loadStats = subLoadStats(e.table.LoadStats(), loadBase)
	closeStart := time.Now()
	err := e.table.Close()
	closeDur := time.Since(closeStart)
	p.store = e.store.snapshot().sub(base)
	p.end() // the window closes before the reopen below
	if err != nil {
		p.fail("close: %v", err)
		return p
	}
	if !lastCommit.IsZero() {
		p.loadDocs += int64(len(e.lines))
		p.loadWall += lastCommit.Sub(firstInsert) + closeDur
	}
	p.appended = jsonlBytes(e.lines)
	p.inputBytes = e.preload + p.appended
	if r, err := e.reopen(p, "tweets", e.store, mixedCache, twitterPreload+len(e.lines)); err == nil {
		r.Close()
	}
	return p
}
