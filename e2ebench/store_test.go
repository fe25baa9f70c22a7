package main

import (
	"testing"

	jsontiles "repro"
	"repro/internal/obs"
	"repro/internal/workload/twitter"
)

// The wrapper's read count and bytes must equal the registry's
// store_range_reads / store_bytes_read deltas exactly: every range
// read the table issues passes through the wrapper once, and the
// in-memory store below counts each one once.
func TestTimedStoreReadsMatchRegistry(t *testing.T) {
	lines := twitter.Generate(twitter.Config{Tweets: 6000, Changing: true, Seed: 7})
	ts := newTimedStore(jsontiles.NewMemStore())
	opts := jsontiles.Options{CompactFanIn: -1, Workers: 1, CacheBytes: 64 << 10}

	regBase := obs.Default.Snapshot()
	w, err := jsontiles.OpenStore("t", ts, opts)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(lines); off += 2048 {
		if _, err := appendBatch(w, lines[off:min(off+2048, len(lines))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tbl, err := jsontiles.OpenStore("t", ts, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()

	scanBase, scanReg := ts.snapshot(), obs.Default.Snapshot()
	res, err := tbl.Query("data->'user'->>'screen_name'", "data->>'favorite_count'::BigInt").
		WhereNotNull(1).GroupBy(0).Aggregate(jsontiles.Sum(1, "f")).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() == 0 {
		t.Fatal("scan returned no groups")
	}

	check := func(what string, got storeCounts, reg obs.Snapshot) {
		t.Helper()
		if got.Reads == 0 {
			t.Fatalf("%s: no reads went through the wrapper", what)
		}
		if want := reg.Get("store_range_reads"); got.Reads != want {
			t.Errorf("%s: wrapper read calls = %d, store_range_reads delta = %d", what, got.Reads, want)
		}
		if want := reg.Get("store_bytes_read"); got.ReadBytes != want {
			t.Errorf("%s: wrapper read bytes = %d, store_bytes_read delta = %d", what, got.ReadBytes, want)
		}
	}
	check("scan", ts.snapshot().sub(scanBase), obs.Default.Snapshot().Diff(scanReg))
	all := ts.snapshot()
	check("load+reopen+scan", all, obs.Default.Snapshot().Diff(regBase))

	// One segment per flushed batch, each followed by a manifest commit.
	batches := int64((len(lines) + 2047) / 2048)
	if all.SegPuts != batches {
		t.Errorf("segment puts = %d, want %d (one per batch)", all.SegPuts, batches)
	}
	if all.ManPuts < batches {
		t.Errorf("manifest commits = %d, want at least %d", all.ManPuts, batches)
	}
	if all.SegPutBytes != tbl.SizeBytes() {
		t.Errorf("segment put bytes = %d, table size = %d", all.SegPutBytes, tbl.SizeBytes())
	}
}
