// Command e2ebench is the repository's end-to-end benchmark. It drives
// the system from outside through its public entry points: it
// generates JSONL from a seed, appends it to OpenStore tables, serves
// them with service.Server over loopback, and queries them with NDJSON
// envelopes, checking every answer against references computed
// independently in set-up.
//
//	e2ebench --workload tpch-ingest-query --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the measured phase untraced and then, on a fresh set-up,
// traced, and reports the per-layer metrics. The last line of standard
// output is one JSON object {correct, attempted, failed, metrics}; the
// line before it is the full record (environment, base counts of every
// ratio, sample counts). A human-readable table goes to standard
// error. README.md explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run (tpch-ingest-query, mixed-twitter-remote)")
	seed := flag.Int64("seed", 1, "generator seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (one of %v), --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	setups := w.setups
	if *trace == 1 {
		setups = 1 // one set-up per traced or untraced phase
	}
	d := time.Duration(*seconds) * time.Second
	traced := *trace == 1

	var rep *report
	var phases []*phase
	var steal stealMeter
	if !traced {
		var setupSecs []float64
		var e *env
		for i := 0; i < setups; i++ {
			if e != nil {
				e.close()
			}
			// Collect the previous set-up's garbage outside any timed window.
			runtime.GC()
			start := time.Now()
			var err error
			if e, err = w.setup(*seed, false); err != nil {
				fmt.Fprintf(os.Stderr, "e2ebench: %s set-up: %v\n", w.name, err)
				return 1
			}
			setupSecs = append(setupSecs, time.Since(start).Seconds())
		}
		runtime.GC()
		steal.begin()
		p := w.run(e, d)
		steal.end()
		e.close()
		phases = []*phase{p}
		rep = endToEnd(p, setupSecs)
	} else {
		for _, tr := range []bool{false, true} {
			runtime.GC()
			e, err := w.setup(*seed, tr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "e2ebench: %s set-up: %v\n", w.name, err)
				return 1
			}
			runtime.GC()
			steal.begin()
			phases = append(phases, w.run(e, d))
			steal.end()
			e.close()
		}
		rep = layerMetrics(phases[1], quantile(phases[0].queryLat, 0.5))
	}

	attempted, failed := 0, 0
	var failures []string
	for _, p := range phases {
		attempted += p.attempted
		failed += p.failed
		failures = append(failures, p.failures...)
		if n := len(p.queryLat); tailSamples(n, 0.95) < 10 {
			failures = append(failures, fmt.Sprintf("only %d query samples: fewer than 10 above p95", n))
		}
	}
	correct := failed == 0 && len(failures) == 0 && attempted > 0

	record := map[string]any{
		"env":          newEnvironment(w.name, *seed, *seconds, traced, setups),
		"config":       configOf(w.name),
		"metrics":      rep.metrics,
		"ratio_bases":  rep.bases,
		"samples":      rep.samples,
		"failed_ratio": ratio{float64(failed), float64(attempted)}.value(),
		"failures":     failures,
		"envelopes":    envelopeLatencies(phases[len(phases)-1]),
		"segments":     phases[len(phases)-1].segments,
		// How late the open-loop writer started its latest batch.
		"writer_max_lag_ms": ms(phases[len(phases)-1].writerLag),
		// The share of the machine's CPU time in the measured phases that
		// the hypervisor gave to other guests; -1 where unknown.
		"cpu_steal_share": steal.share(),
	}
	printTable(w.name, traced, rep, attempted, failed, failures)
	enc := json.NewEncoder(os.Stdout)
	enc.Encode(map[string]any{"record": record})
	enc.Encode(map[string]any{
		"correct":   correct,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   rep.metrics,
	})
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// configOf records the dataset sizes, cache size and store latency a
// workload runs with.
func configOf(name string) map[string]any {
	switch name {
	case "mixed-twitter-remote":
		return map[string]any{
			"dataset": "twitter (changing schema)", "preload_docs": twitterPreload,
			"append_docs": twitterAppend, "append_batch": twitterBatch,
			"writer": "open loop", "readers": 1, "cache_bytes": mixedCache,
			"fakes3_latency_us": s3Latency.Microseconds(),
		}
	default:
		return map[string]any{
			"dataset": "tpch (table-grouped order)", "scale_factor": tpchScale,
			"append_batch": flushBatch, "cache_bytes": 64 << 20, "store": "mem",
			"loads": tpchLoads, "clients": 1, "warmup_queries": warmupQueries,
		}
	}
}

func printTable(name string, traced bool, rep *report, attempted, failed int, failures []string) {
	fmt.Fprintf(os.Stderr, "%s (traced=%v): %d operations, %d failed\n", name, traced, attempted, failed)
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "  failure: %s\n", f)
	}
	for _, n := range rep.names {
		m := rep.metrics[n]
		line := fmt.Sprintf("  %-40s %14.6g %s", n, m.Value, m.Unit)
		if b, ok := rep.bases[n]; ok {
			line += fmt.Sprintf("  (%.6g / %.6g)", b.Num, b.Den)
		}
		if s, ok := rep.samples[n]; ok {
			line += fmt.Sprintf("  [n=%d]", s)
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

// envelopeLatencies gives each envelope's p50 and p95 latency (ms)
// and sample count.
func envelopeLatencies(p *phase) map[string][3]float64 {
	out := map[string][3]float64{}
	for name, xs := range p.perEnvelope {
		out[name] = [3]float64{quantile(xs, 0.5), quantile(xs, 0.95), float64(len(xs))}
	}
	return out
}
