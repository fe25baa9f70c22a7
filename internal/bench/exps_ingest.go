package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/storage"
	"repro/internal/tile"
)

// ingestBenchFile records the structural-tape ingest throughput per
// format (committed next to EXPERIMENTS.md as the loading baseline).
const ingestBenchFile = "BENCH_ingest.json"

// ingestPoint is one format's load measurement.
type ingestPoint struct {
	Format     string  `json:"format"`
	Secs       float64 `json:"secs"`
	DocsPerSec float64 `json:"docs_per_sec"`
	// Spread across the repeats: the slowest and fastest load.
	MinDocsPerSec float64 `json:"min_docs_per_sec"`
	MaxDocsPerSec float64 `json:"max_docs_per_sec"`
	// Phase breakdown in seconds (Tiles only; zero elsewhere): the
	// paper's Figure-16 phases.
	Parse   float64 `json:"parse_secs,omitempty"`
	Mine    float64 `json:"mine_secs,omitempty"`
	Extract float64 `json:"extract_secs,omitempty"`
	JSONB   float64 `json:"jsonb_secs,omitempty"`
	Reorder float64 `json:"reorder_secs,omitempty"`
	// Ingest-path accounting for this load (Tiles only).
	DocsTape        int64 `json:"docs_tape"`
	SubtreesSkipped int64 `json:"subtrees_skipped"`
}

type ingestReport struct {
	Workload string        `json:"workload"`
	Docs     int           `json:"docs"`
	NumCPU   int           `json:"numcpu"`
	Workers  int           `json:"workers"`
	Repeats  int           `json:"repeats"`
	Points   []ingestPoint `json:"points"`
}

// ingestLoad loads lines Repeats times and returns the sorted wall
// times plus the per-phase metrics of the last repetition. It fails
// when the relation's row count differs from the documents loaded.
func (c *Context) ingestLoad(kind storage.FormatKind, lines [][]byte) ([]time.Duration, tile.MetricsSnapshot, error) {
	var snap tile.MetricsSnapshot
	times := make([]time.Duration, 0, c.Opts.Repeats)
	for i := 0; i < c.Opts.Repeats; i++ {
		m := &tile.Metrics{}
		cfg := storage.DefaultLoaderConfig()
		cfg.Metrics = m
		l, err := storage.NewLoader(kind, cfg)
		if err != nil {
			return nil, snap, err
		}
		start := time.Now()
		rel, err := l.Load("ingest", lines, c.Opts.workers())
		if err != nil {
			return nil, snap, err
		}
		times = append(times, time.Since(start))
		if rel.NumRows() != len(lines) {
			return nil, snap, fmt.Errorf("%s load holds %d rows, want %d", kind, rel.NumRows(), len(lines))
		}
		snap = m.Snapshot()
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times, snap, nil
}

// ingestExp — structural-tape ingest (DESIGN.md §6.8) across every
// storage format, recording BENCH_ingest.json: each document is parsed
// once into a tape that feeds extraction and JSONB encoding directly.
func ingestExp(w io.Writer, c *Context) error {
	lines := c.tpchShuffled()
	report := ingestReport{
		Workload: "tpch-shuffled", Docs: len(lines),
		NumCPU: runtime.NumCPU(), Workers: c.Opts.workers(), Repeats: c.Opts.Repeats,
	}
	docsPerSec := func(d time.Duration) float64 { return float64(len(lines)) / maxf(d.Seconds(), 1e-9) }

	t := &table{header: []string{"format", "s", "docs/s", "min docs/s", "max docs/s"}}
	for _, kind := range allFormats {
		times, s, err := c.ingestLoad(kind, lines)
		if err != nil {
			return err
		}
		med := times[len(times)/2]
		p := ingestPoint{
			Format:          string(kind),
			Secs:            med.Seconds(),
			DocsPerSec:      docsPerSec(med),
			MinDocsPerSec:   docsPerSec(times[len(times)-1]),
			MaxDocsPerSec:   docsPerSec(times[0]),
			Parse:           time.Duration(s.ParseNanos).Seconds(),
			Mine:            time.Duration(s.MineNanos).Seconds(),
			Extract:         time.Duration(s.ExtractNanos).Seconds(),
			JSONB:           time.Duration(s.WriteJSONBNanos).Seconds(),
			Reorder:         time.Duration(s.ReorderNanos).Seconds(),
			DocsTape:        s.DocsTape,
			SubtreesSkipped: s.SubtreesSkipped,
		}
		report.Points = append(report.Points, p)
		t.row(string(kind), secs(med), fmt.Sprintf("%.0f", p.DocsPerSec),
			fmt.Sprintf("%.0f", p.MinDocsPerSec), fmt.Sprintf("%.0f", p.MaxDocsPerSec))
	}
	t.write(w)

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	path := filepath.Join(c.Opts.OutDir, ingestBenchFile)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "ingest throughput written to %s\n", path)
	return nil
}
