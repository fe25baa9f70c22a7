package main

import (
	"time"

	jsontiles "repro"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates metrics in order, with the base counts of every
// ratio and the sample count behind every percentile.
type report struct {
	names   []string
	metrics map[string]metric
	bases   map[string]ratio
	samples map[string]int
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, bases: map[string]ratio{}, samples: map[string]int{}}
}

func (r *report) set(name, unit string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) setRatio(name, unit string, q ratio) {
	r.set(name, unit, q.value())
	r.bases[name] = q
}

// setPct reports the q-quantile of xs with its sample count.
func (r *report) setPct(name, unit string, xs []float64, q float64) {
	r.set(name, unit, quantile(xs, q))
	r.samples[name] = len(xs)
}

// opMetric maps an analyzed plan operator to its engine self-time
// metric. The envelopes are single-table queries, which push their
// filters into the scan, so no Select operator runs.
var opMetric = map[string]string{
	"Scan":    "engine.scan_self_ms",
	"Project": "engine.project_self_ms",
	"GroupBy": "engine.groupby_self_ms",
	"OrderBy": "engine.orderby_self_ms",
}

// selfTimes adds each operator's self time in an analyzed plan to out,
// keyed by operator kind. Execution is push-based, so a child's run
// nests inside its parent's: self time is the node's inclusive wall
// minus its children's inclusive walls, clamped at zero.
func selfTimes(n *jsontiles.PlanNode, out map[string]time.Duration) {
	if n == nil || !n.Analyzed {
		return
	}
	self := n.Wall
	for _, c := range n.Children {
		if c.Analyzed {
			self -= c.Wall
		}
		selfTimes(c, out)
	}
	out[n.Op] += max(self, 0)
}

// layerMetrics derives the per-layer metrics of a traced phase. Counts
// and ratios come from registry and store deltas over the phase only:
// the query-side layers from the phase's own window, the ingest-side
// layers (segment puts, manifest commits, compaction, the load-phase
// split) from its ingest window.
func layerMetrics(p *phase, untracedP50 float64) *report {
	r := newReport()
	reg, ing := p.reg, p.ingest()
	get := func(name string) float64 { return float64(reg.Get(name)) }
	getIng := func(name string) float64 { return float64(ing.reg.Get(name)) }
	queries := float64(len(p.queryLat))

	r.setPct("service.overhead_ms", "ms", p.overheadMS, 0.5)
	r.set("service.admission_queued", "count", get("admission_queued"))
	r.set("service.rejected_429", "count", float64(p.rejected429))

	var api, exec []float64
	perOp := map[string][]float64{}
	for _, qs := range p.qstats {
		api = append(api, ms(qs.Wall-qs.ExecTime))
		exec = append(exec, ms(qs.ExecTime))
		self := map[string]time.Duration{}
		selfTimes(qs.Plan, self)
		for op, d := range self {
			perOp[op] = append(perOp[op], ms(d))
		}
	}
	r.setPct("query.api_ms", "ms", api, 0.5)
	r.setPct("query.exec_ms", "ms", exec, 0.5)
	for _, op := range []string{"Scan", "Project", "GroupBy", "OrderBy"} {
		r.setPct(opMetric[op], "ms", perOp[op], 0.5)
	}
	r.set("engine.agg_partitioned_merges", "count", get("agg_partitioned_merges"))

	skipped, scanned := get("tiles_skipped"), get("tiles_scanned")
	r.setRatio("storage.tile_skip_ratio", "ratio", ratio{skipped, skipped + scanned})
	r.setRatio("storage.rows_scanned_per_row_returned", "ratio", ratio{get("rows_scanned"), float64(p.rowsReturned)})
	hits, fallbacks := get("column_hits"), get("jsonb_fallbacks")
	r.setRatio("storage.jsonb_fallback_ratio", "ratio", ratio{fallbacks, hits + fallbacks})
	r.setRatio("storage.morsels_per_query", "count/query", ratio{get("morsels_dispatched"), queries})
	r.set("storage.morsel_queue_waits", "count", get("morsel_queue_waits"))

	r.setRatio("vec.vectorized_ratio", "ratio", ratio{get("rows_vectorized"), get("rows_scanned")})
	r.set("vec.kernel_dispatches", "count", get("kernel_dispatches"))

	r.set("column.dict_kernel_shortcuts", "count", get("dict_kernel_shortcuts"))
	r.set("column.dict_groupby_fastpath", "count", get("dict_groupby_fastpath"))

	poolHits, poolMisses := get("bufpool_hits"), get("bufpool_misses")
	r.setRatio("bufpool.hit_ratio", "ratio", ratio{poolHits, poolHits + poolMisses})
	r.setRatio("bufpool.misses_per_query", "count/query", ratio{poolMisses, queries})
	r.set("bufpool.evictions", "count", get("bufpool_evictions"))

	r.set("segment.blocks_read", "count", get("segment_blocks_read"))
	r.setRatio("segment.bytes_decompressed_per_query", "bytes/query", ratio{get("bytes_decompressed"), queries})

	st := p.store
	lat := make([]float64, len(st.ReadLat))
	for i, d := range st.ReadLat {
		lat[i] = float64(d) / float64(time.Microsecond)
	}
	r.set("blockstore.read_calls", "count", float64(st.Reads))
	r.set("blockstore.read_bytes", "bytes", float64(st.ReadBytes))
	r.set("blockstore.read_busy_ms", "ms", ms(time.Duration(st.ReadNanos)))
	r.setPct("blockstore.read_p50_us", "us", lat, 0.5)
	r.setRatio("blockstore.reads_per_query", "count/query", ratio{float64(st.Reads), queries})
	r.setRatio("blockstore.blocks_per_read", "ratio", ratio{get("segment_blocks_read"), float64(st.Reads)})
	r.set("blockstore.prefetch_hits", "count", get("store_prefetch_hits"))
	r.set("blockstore.retries", "count", get("store_retries"))
	puts := ing.store
	r.set("blockstore.put_calls", "count", float64(puts.SegPuts))
	r.set("blockstore.put_bytes", "bytes", float64(puts.SegPutBytes))
	r.set("blockstore.put_busy_ms", "ms", ms(time.Duration(puts.SegPutNanos)))
	r.setRatio("blockstore.write_amp", "ratio", ratio{float64(puts.SegPutBytes), float64(ing.appended)})

	r.set("manifest.commits", "count", float64(puts.ManPuts))
	r.set("manifest.commit_busy_ms", "ms", ms(time.Duration(puts.ManPutNanos)))

	r.set("compaction.runs", "count", getIng("compactions_run"))
	r.set("compaction.bytes_rewritten", "bytes", getIng("compaction_bytes_rewritten"))
	r.set("compaction.busy_s", "s", ing.reg.Hist("compaction_seconds").Sum)

	r.setPct("ingest.flush_ms", "ms", ing.flushLat, 0.5)
	r.set("jsontape.parse_s", "s", ing.loadStats.Parse.Seconds())
	r.set("fpgrowth.mine_s", "s", ing.loadStats.Mine.Seconds())
	r.set("reorder.reorder_s", "s", ing.loadStats.Reorder.Seconds())
	r.set("tile.extract_s", "s", ing.loadStats.Extract.Seconds())
	r.set("jsonb.encode_s", "s", ing.loadStats.WriteJSONB.Seconds())
	r.set("ingest.docs_tree_fallback", "count", getIng("ingest_docs_tree_fallback"))
	r.set("ingest.subtrees_skipped", "count", getIng("ingest_subtrees_skipped"))

	r.setRatio("trace.overhead_ratio", "ratio", ratio{quantile(p.queryLat, 0.5), untracedP50})
	return r
}

// endToEnd derives the end-to-end metrics of an untraced phase; the
// ingest figures come from its ingest window.
func endToEnd(p *phase, setupSeconds []float64) *report {
	r := newReport()
	r.set("setup_s", "s", median(setupSeconds))
	r.samples["setup_s"] = len(setupSeconds)

	ing := p.ingest()
	r.setRatio("ingest_docs_per_s", "docs/s", ratio{float64(ing.loadDocs), ing.loadWall.Seconds()})
	r.setPct("append_p50_ms", "ms", ing.appendLat, 0.5)
	r.setPct("query_p50_ms", "ms", p.queryLat, 0.5)
	r.setPct("query_p95_ms", "ms", p.queryLat, 0.95)
	r.set("query_qps", "q/s", float64(len(p.queryLat))/p.queryWall.Seconds())
	r.setRatio("stored_bytes_per_input_byte", "ratio", ratio{float64(p.storedBytes), float64(p.inputBytes)})
	r.set("peak_rss_mb", "MiB", peakRSSMiB())
	return r
}
