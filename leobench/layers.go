package main

import (
	"strings"
	"time"
)

// layerMetric is one per-layer metric and what it should move: the
// end-to-end metric, on the workload where the move shows.
type layerMetric struct {
	Name, Unit, Moves string
}

// perLayerTable is every per-layer metric the traced run reports, in
// BENCHMARK.json order. README.md carries the same table.
var perLayerTable = []layerMetric{
	{"serve.http.gaits_us", "us", "query_p50_ms on query-hot"},
	{"serve.api.gaits_us", "us", "query_p50_ms on query-hot"},
	{"serve.handler.gaits_us", "us", "query_p50_ms on query-hot"},
	{"serve.api.submit_us.repertoire", "us", "run_done_ms.repertoire on evolve-mix"},
	{"serve.api.submit_us.gap", "us", "run_done_ms.gap on evolve-mix"},
	{"serve.api.submit_us.lanepack", "us", "run_done_ms.lanepack on evolve-mix"},
	{"serve.api.submit_us.circuit", "us", "run_done_ms.circuit on evolve-mix"},
	{"serve.manager.archive_ns", "ns", "query_p50_ms on query-hot"},
	{"serve.manager.queue_wait_ms", "ms", "run_done_ms.repertoire, runs_per_s on evolve-mix"},
	{"serve.manager.run_ms.repertoire", "ms", "run_done_ms.repertoire on evolve-mix"},
	{"serve.manager.run_ms.gap", "ms", "run_done_ms.gap on evolve-mix"},
	{"serve.manager.run_ms.lanepack", "ms", "run_done_ms.lanepack on evolve-mix"},
	{"serve.manager.run_ms.circuit", "ms", "run_done_ms.circuit on evolve-mix"},
	{"serve.checkpoint_ms", "ms", "run_done_ms.*, runs_per_s on evolve-mix"},
	{"gaitserve.cache.hit_ns", "ns", "query_p50_ms on query-hot"},
	{"gaitserve.encode.lookup_ns", "ns", "query_p50_ms on query-hot"},
	{"gaitserve.cache.miss_us", "us", "query_p99_ms on evolve-mix (each finished run's first read misses)"},
	{"gaitserve.cache.hit_ratio", "ratio", "query_p99_ms on evolve-mix (1 on query-hot)"},
	{"gaitserve.cache.decodes", "count", "query_p99_ms on evolve-mix"},
	{"gaitserve.hub.publish_ns", "ns", "run_done_ms.* on evolve-mix"},
	{"repertoire.lookup_ns", "ns", "query_p50_ms on query-hot"},
	{"repertoire.decode_us", "us", "query_p99_ms on evolve-mix"},
	{"repertoire.step_ms", "ms", "run_done_ms.repertoire on evolve-mix and query-hot"},
	{"repertoire.descriptors_us", "us", "run_done_ms.repertoire on evolve-mix and query-hot"},
	{"repertoire.coverage", "ratio", "quality guard: a faster run must not fill fewer cells"},
	{"robot.walk_us", "us", "repertoire.step_ms, then run_done_ms.repertoire"},
	{"fitness.score_ns", "ns", "repertoire.step_ms, then run_done_ms.repertoire"},
	{"gap.generation_us", "us", "run_done_ms.gap on evolve-mix"},
	{"gapcirc.build_ms", "ms", "run_done_ms.circuit on evolve-mix"},
	{"gapcirc.circuit_step_ms", "ms", "run_done_ms.circuit on evolve-mix"},
	{"island.epoch_ms", "ms", "run_done_ms.lanepack on evolve-mix"},
	{"engine.snapshot_us.repertoire", "us", "run_done_ms.repertoire on evolve-mix"},
	{"engine.snapshot_us.gap", "us", "run_done_ms.gap on evolve-mix"},
	{"engine.snapshot_us.lanepack", "us", "run_done_ms.lanepack on evolve-mix"},
	{"engine.snapshot_us.circuit", "us", "run_done_ms.circuit on evolve-mix"},
	{"engine.snapshot_bytes.repertoire", "bytes", "store.put_us, then run_done_ms.repertoire on evolve-mix"},
	{"engine.snapshot_bytes.gap", "bytes", "store.put_us, then run_done_ms.gap on evolve-mix"},
	{"engine.snapshot_bytes.lanepack", "bytes", "store.put_us, then run_done_ms.lanepack on evolve-mix"},
	{"engine.snapshot_bytes.circuit", "bytes", "store.put_us, then run_done_ms.circuit on evolve-mix"},
	{"engine.resume_us.repertoire", "us", "setup_s on query-hot"},
	{"engine.resume_us.gap", "us", "setup_s on query-hot"},
	{"engine.resume_us.lanepack", "us", "setup_s on query-hot"},
	{"engine.resume_us.circuit", "us", "setup_s on query-hot"},
	{"store.put_us", "us", "run_done_ms.* on evolve-mix"},
	{"store.link_us", "us", "run_done_ms.* on evolve-mix"},
	{"store.get_us", "us", "setup_s on query-hot"},
	{"loadgen.late_p99_ms", "ms", "nothing: a validity check on the open-loop generator"},
	{"loadgen.cpu_ms", "ms", "query_capacity_qps on query-hot (client cost)"},
	{"leonardod.cpu_us_per_query", "us", "query_capacity_qps on query-hot (server cost)"},
	{"trace.query_p50_ms", "ms", "nothing: the traced run's own query_p50_ms"},
	{"trace.run_done_ms.repertoire", "ms", "nothing: the traced run's own run_done_ms.repertoire"},
	{"trace.query_p50_ratio", "ratio", "nothing: traced in-process over untraced daemon query_p50_ms"},
	{"trace.run_done_ratio", "ratio", "nothing: traced in-process over untraced daemon run_done_ms.repertoire"},
}

var perLayerNames = func() []string {
	out := make([]string, len(perLayerTable))
	for i, m := range perLayerTable {
		out[i] = m.Name
	}
	return out
}()

// perLayer assembles the per-layer metrics: span medians from the
// tracer, counters scraped from the untraced run's /metrics, CPU and
// lateness of the untraced run, and the traced run's own end-to-end
// numbers against the untraced ones.
func perLayer(res, traced *e2eResult, t *tracer, probes map[string]float64, e2e map[string]metric) map[string]metric {
	vals := map[string]float64{}
	counts := map[string]int{}
	for _, name := range t.names() {
		d, n := t.perCall(name)
		vals[name] = inUnit(d, name)
		counts[name] = n
	}
	for k, v := range probes {
		vals[k] = v
	}

	delta := func(key string) float64 { return res.After[key] - res.Before[key] }
	hits, misses := delta("leonardod_gait_cache_hits_total"), delta("leonardod_gait_cache_misses_total")
	if hits+misses > 0 {
		vals["gaitserve.cache.hit_ratio"] = hits / (hits + misses)
	}
	vals["gaitserve.cache.decodes"] = delta("leonardod_gait_cache_decodes_total")
	// Checkpoints written during the measured phase; query-hot serves
	// finished runs and writes none, so its figure comes from the
	// probe runs' in-process manager.
	if n := delta("leonardod_snapshot_latency_seconds_count"); n > 0 {
		vals["serve.checkpoint_ms"] = 1000 * delta("leonardod_snapshot_latency_seconds_sum") / n
	}

	vals["loadgen.late_p99_ms"] = 0 // a closed loop (evolve-mix) has no schedule to fall behind
	if len(res.QueryLate) > 0 {
		vals["loadgen.late_p99_ms"] = summarize(res.QueryLate).P99
	}
	vals["loadgen.cpu_ms"] = ms(res.LoadCPU)
	if res.Queries > 0 {
		vals["leonardod.cpu_us_per_query"] = float64(res.ServerCPU) / float64(time.Microsecond) / float64(res.Queries)
	}

	te := endToEnd(traced)
	vals["trace.query_p50_ms"] = te["query_p50_ms"].Value
	vals["trace.query_p50_ratio"] = te["query_p50_ms"].Value / e2e["query_p50_ms"].Value
	vals["trace.run_done_ms.repertoire"] = te["run_done_ms.repertoire"].Value
	vals["trace.run_done_ratio"] = te["run_done_ms.repertoire"].Value / e2e["run_done_ms.repertoire"].Value

	out := map[string]metric{}
	for _, m := range perLayerTable {
		v, ok := vals[m.Name]
		if !ok {
			continue
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit, N: counts[m.Name], Moves: m.Moves}
	}
	return out
}

// inUnit converts a span duration to the unit its name ends in.
func inUnit(d time.Duration, name string) float64 {
	switch {
	case strings.HasSuffix(name, "_ns"):
		return float64(d)
	case strings.HasSuffix(name, "_us"), strings.Contains(name, "_us."):
		return float64(d) / float64(time.Microsecond)
	default:
		return float64(d) / float64(time.Millisecond)
	}
}
