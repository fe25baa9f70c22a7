package reorder_test

import (
	"testing"

	"repro/internal/jsontape"
	"repro/internal/reorder"
	"repro/internal/tile"
	"repro/internal/workload/tpch"
)

// benchResult keeps benchmark results alive.
var benchResult reorder.Result

// BenchmarkPartitionTapes reorders one default-sized partition (8 tiles
// of 1,024 documents) of TPC-H, once in the generator's table-grouped
// order (a run of lineitem records: one shape) and once shuffled (every
// table interleaved).
func BenchmarkPartitionTapes(b *testing.B) {
	cfg := tile.DefaultConfig()
	n := cfg.TileSize * cfg.PartitionSize
	lines, spans := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 42})
	lineitem := spans["lineitem"][0]
	for _, bc := range []struct {
		name  string
		lines [][]byte
	}{
		{"grouped", lines[lineitem : lineitem+n]},
		{"shuffled", tpch.Shuffle(lines, 77)[:n]},
	} {
		tapes := make([]*jsontape.Doc, n)
		for i, line := range bc.lines {
			tapes[i] = &jsontape.Doc{}
			if err := jsontape.Parse(line, tapes[i]); err != nil {
				b.Fatal(err)
			}
		}
		work := make([]*jsontape.Doc, n)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(work, tapes)
				benchResult = reorder.PartitionTapes(work, cfg, nil)
			}
		})
	}
}
