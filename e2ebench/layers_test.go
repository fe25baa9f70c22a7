package main

import (
	"testing"
	"time"

	jsontiles "repro"
	"repro/internal/obs"
)

func node(op string, wall time.Duration, children ...*jsontiles.PlanNode) *jsontiles.PlanNode {
	return &jsontiles.PlanNode{Op: op, Analyzed: true, Wall: wall, Children: children}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	// A join of two scans under a group-by, plus a node whose child
	// reports more time than it does (clamped to zero) and a child
	// without measurements (not subtracted).
	tree := node("OrderBy", 20*ms,
		node("GroupBy", 19*ms,
			node("Project", 16*ms,
				node("HashJoin", 15*ms,
					node("Scan", 4*ms),
					node("Select", 6*ms, node("Scan", 5*ms))))))
	got := map[string]time.Duration{}
	selfTimes(tree, got)
	want := map[string]time.Duration{
		"OrderBy": 1 * ms, "GroupBy": 3 * ms, "Project": 1 * ms,
		"HashJoin": 5 * ms, "Select": 1 * ms, "Scan": 9 * ms,
	}
	for op, w := range want {
		if got[op] != w {
			t.Errorf("%s self = %v, want %v", op, got[op], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d operator kinds, want %d: %v", len(got), len(want), got)
	}

	skew := node("Limit", 2*ms, node("OrderBy", 3*ms, &jsontiles.PlanNode{Op: "Scan", Wall: 9 * ms}))
	got = map[string]time.Duration{}
	selfTimes(skew, got)
	if got["Limit"] != 0 || got["OrderBy"] != 3*ms || got["Scan"] != 0 {
		t.Errorf("clamped/unanalyzed self times = %v, want Limit 0, OrderBy 3ms, Scan 0", got)
	}
}

func TestLayerMetricsRatiosKeepBases(t *testing.T) {
	p := &phase{
		queryLat:     []float64{2, 4, 6, 8},
		rowsReturned: 10,
		appended:     1000,
		reg: obs.Snapshot{Counters: map[string]int64{
			"tiles_skipped": 30, "tiles_scanned": 90,
			"rows_scanned": 500, "column_hits": 95, "jsonb_fallbacks": 5,
			"bufpool_hits": 3, "bufpool_misses": 1, "segment_blocks_read": 12,
		}},
		store: storeCounts{Reads: 4, SegPutBytes: 1500},
		qstats: []jsontiles.QueryStats{{
			Wall: 5 * time.Millisecond, ExecTime: 4 * time.Millisecond,
			Plan: node("GroupBy", 4*time.Millisecond, node("Scan", 3*time.Millisecond)),
		}},
	}
	r := layerMetrics(p, 4)
	for name, want := range map[string]struct{ v, num, den float64 }{
		"storage.tile_skip_ratio":               {0.25, 30, 120},
		"storage.rows_scanned_per_row_returned": {50, 500, 10},
		"storage.jsonb_fallback_ratio":          {0.05, 5, 100},
		"bufpool.hit_ratio":                     {0.75, 3, 4},
		"bufpool.misses_per_query":              {0.25, 1, 4},
		"blockstore.blocks_per_read":            {3, 12, 4},
		"blockstore.write_amp":                  {1.5, 1500, 1000},
		"trace.overhead_ratio":                  {1, 4, 4},
	} {
		if got := r.metrics[name].Value; got != want.v {
			t.Errorf("%s = %v, want %v", name, got, want.v)
		}
		if b := r.bases[name]; b.Num != want.num || b.Den != want.den {
			t.Errorf("%s bases = %v/%v, want %v/%v", name, b.Num, b.Den, want.num, want.den)
		}
	}
	if got := r.metrics["engine.scan_self_ms"].Value; got != 3 {
		t.Errorf("engine.scan_self_ms = %v, want 3", got)
	}
	if got := r.metrics["engine.groupby_self_ms"].Value; got != 1 {
		t.Errorf("engine.groupby_self_ms = %v, want 1", got)
	}
	if got := r.metrics["query.api_ms"].Value; got != 1 {
		t.Errorf("query.api_ms = %v, want 1", got)
	}
}

func TestLayerMetricsTakeIngestFromLoadWindow(t *testing.T) {
	load := &phase{
		appended:  1000,
		loadDocs:  50,
		loadWall:  2 * time.Second,
		appendLat: []float64{10, 30, 20},
		reg: obs.Snapshot{Counters: map[string]int64{
			"compactions_run": 2, "rows_scanned": 7,
		}},
		store:     storeCounts{Reads: 9, SegPuts: 3, SegPutBytes: 400, ManPuts: 4},
		loadStats: jsontiles.LoadStats{Reorder: 3 * time.Second},
	}
	p := &phase{
		loadWindow: load,
		queryLat:   []float64{1, 2, 3},
		queryWall:  time.Second,
		reg:        obs.Snapshot{Counters: map[string]int64{"rows_scanned": 300, "rows_vectorized": 150}},
		store:      storeCounts{Reads: 6},
	}
	lm := layerMetrics(p, 2)
	for name, want := range map[string]float64{
		"blockstore.read_calls": 6,   // query window
		"vec.vectorized_ratio":  0.5, // query window
		"blockstore.put_calls":  3,   // load window
		"blockstore.write_amp":  0.4,
		"manifest.commits":      4,
		"compaction.runs":       2,
		"reorder.reorder_s":     3,
	} {
		if got := lm.metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	e := endToEnd(p, []float64{1, 3, 2})
	for name, want := range map[string]float64{
		"setup_s": 2, "ingest_docs_per_s": 25, "append_p50_ms": 20, "query_p50_ms": 2, "query_qps": 3,
	} {
		if got := e.metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestStealShare(t *testing.T) {
	m := stealMeter{sum: [8]int64{60, 0, 10, 20, 0, 0, 0, 10}}
	if got := m.share(); got != 0.1 {
		t.Errorf("share = %v, want 0.1", got)
	}
	m.failed = true
	if got := m.share(); got != -1 {
		t.Errorf("share after a failed reading = %v, want -1", got)
	}
	var live stealMeter
	live.begin()
	live.end()
	if got := live.share(); got != -1 && (got < 0 || got > 1) {
		t.Errorf("share over a live interval = %v, want -1 or within [0, 1]", got)
	}
}
