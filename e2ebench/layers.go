package main

import (
	"time"

	"sparker/internal/metrics"
	"sparker/internal/rdd"
)

// layerHists are the engine histograms the per-layer metrics read.
var layerHists = []string{
	metrics.HistComputeMapNS,
	metrics.HistSchedWaitNS,
	metrics.HistSchedTaskNS,
	metrics.HistRingStepNS,
	metrics.HistRingStepBytes,
	metrics.HistRingChunkNS,
}

// layerSnap is a point-in-time copy of the engine's always-on
// instruments (ctx.Metrics() phases and counters, ctx.MergedMetrics()
// histograms) plus the counting transport's totals. Layer metrics are
// differences of two snapshots taken around a timed window.
type layerSnap struct {
	phases              map[string]time.Duration
	counters            map[string]int64
	hists               map[string]metrics.HistSnapshot
	msgs, bytes, sendNS int64
}

func snapshot(ctx *rdd.Context, net *countingNetwork) layerSnap {
	reg := ctx.MergedMetrics()
	s := layerSnap{
		phases:   ctx.Metrics().Snapshot(),
		counters: ctx.Metrics().Counters(),
		hists:    map[string]metrics.HistSnapshot{},
	}
	for _, name := range layerHists {
		s.hists[name] = reg.Histogram(name).Snapshot()
	}
	if net != nil {
		s.msgs, s.bytes, s.sendNS = net.msgs.Load(), net.bytes.Load(), net.sendNS.Load()
	}
	return s
}

// histDelta is the histogram of the samples observed between two
// snapshots. Buckets, count and sum subtract exactly; min and max are
// the later snapshot's, which only widens the clamp on quantiles.
func histDelta(before, after metrics.HistSnapshot) metrics.HistSnapshot {
	d := after
	d.Count -= before.Count
	d.Sum -= before.Sum
	for i := range d.Buckets {
		d.Buckets[i] -= before.Buckets[i]
	}
	return d
}

// layerMetrics derives the per-layer metrics of one timed window. iters
// is the number of iterations the window ran, wall their summed wall
// time, rows the rows folded per iteration and update the updater's
// self time.
func layerMetrics(before, after layerSnap, iters int, wall, update time.Duration, rows int) []metric {
	n := float64(iters)
	h := func(name string) metrics.HistSnapshot { return histDelta(before.hists[name], after.hists[name]) }
	phase := func(name string) time.Duration { return after.phases[name] - before.phases[name] }
	counter := func(name string) float64 { return float64(after.counters[name] - before.counters[name]) }
	perIterMS := func(ns int64) float64 { return float64(ns) / 1e6 / n }

	mapped := h(metrics.HistComputeMapNS)
	task := h(metrics.HistSchedTaskNS)
	step := h(metrics.HistRingStepNS)
	aggCompute, aggReduce := phase(metrics.PhaseAggCompute), phase(metrics.PhaseAggReduce)
	pointsPerS := 0.0
	if mapped.Sum > 0 {
		pointsPerS = float64(rows) * n / (float64(mapped.Sum) / 1e9)
	}
	return []metric{
		{"mllib.map_ms_per_iter", "ms", perIterMS(mapped.Sum)},
		{"mllib.points_per_s", "1/s", pointsPerS},
		{"mllib.update_ms_per_iter", "ms", perIterMS(int64(update))},
		{"sched.wait_ms_per_iter", "ms", perIterMS(h(metrics.HistSchedWaitNS).Sum)},
		{"sched.task_p50_ms", "ms", float64(task.Quantile(0.5)) / 1e6},
		{"sched.tasks_per_iter", "count", float64(task.Count) / n},
		{"sched.spec_launched", "count", counter(metrics.CounterSpecLaunched)},
		{"core.agg_compute_ms_per_iter", "ms", perIterMS(int64(aggCompute))},
		{"core.agg_reduce_ms_per_iter", "ms", perIterMS(int64(aggReduce))},
		{"core.agg_share", "share", float64(aggCompute+aggReduce) / float64(wall)},
		{"core.unattributed_share", "share", 1 - float64(aggCompute+aggReduce+update)/float64(wall)},
		{"core.ring_fallbacks", "count", counter(metrics.CounterRingFallback)},
		{"core.elastic_retries", "count", counter(metrics.CounterElasticRetry)},
		{"collective.ring_steps_per_iter", "count", float64(step.Count) / n},
		{"collective.ring_step_p50_us", "us", float64(step.Quantile(0.5)) / 1e3},
		{"collective.ring_step_p99_us", "us", float64(step.Quantile(0.99)) / 1e3},
		{"collective.chunk_reduce_ms_per_iter", "ms", perIterMS(h(metrics.HistRingChunkNS).Sum)},
		{"collective.ring_bytes_per_iter", "B", float64(h(metrics.HistRingStepBytes).Sum) / n},
		{"transport.bytes_per_iter", "B", float64(after.bytes-before.bytes) / n},
		{"transport.msgs_per_iter", "count", float64(after.msgs-before.msgs) / n},
		{"transport.send_ms_per_iter", "ms", perIterMS(after.sendNS - before.sendNS)},
	}
}
