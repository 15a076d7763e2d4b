package main

import "fmt"

// cpuModules are the autoindex modules whose share of the traced run's
// CPU samples is reported as <module>.cpu_pct. "bench" is the
// benchmark's own code (load generation, hooks).
var cpuModules = []string{
	"executor", "engine", "btree", "storage", "value",
	"sqlparser", "querystore", "dmv", "workload",
	"optimizer", "stats", "costcache", "dta",
	"mi", "validate", "dropper", "controlplane",
	"wire", "serve", "snap", "fleet",
	"metrics", "telemetry", "trace",
	"core", "schema", "sim", "mathx", "binstance", "faults",
	"bench",
}

// perLayer lists BENCHMARK.json's per-layer metrics in output order.
// Counts are per unit of work: a tenant-hour for ops and scale, a DTA
// pass for tune, a request for serve.
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	for _, m := range cpuModules {
		add("%", m+".cpu_pct")
	}
	add("%", "runtime.gc_cpu_pct", "runtime.other_cpu_pct",
		"workload.replay_cum_pct", "engine.exec_cum_pct", "optimizer.plan_cum_pct",
		"controlplane.step_cum_pct", "engine.whatif_cum_pct", "fleet.hibernate_cum_pct")
	add("B/unit", "runtime.alloc_bytes_per_unit")
	add("count/unit", "runtime.allocs_per_unit",
		"engine.statements_executed", "optimizer.plans", "optimizer.whatif_calls")
	add("%", "costcache.hit_pct")
	add("count/unit", "costcache.evictions", "costcache.invalidated_entries",
		"dta.enumeration_pruned", "dta.candidates_generated",
		"controlplane.transitions", "controlplane.validations", "engine.index_builds")
	add("ms/unit", "engine.lock_wait_ms")
	add("count/unit", "serve.capture_batches", "serve.admission_rejected",
		"fleet.hibernations", "fleet.rehydrations")
	add("B", "fleet.snapshot_bytes_per_hibernation")
	add("ms", "fleet.hour_ms_p50", "controlplane.tick_ms_p50", "controlplane.tick_ms_max",
		"serve.send_lag_ms_p99", "serve.read_ms_p99", "serve.write_ms_p99")
	add("1/s", "serve.goodput_rps", "serve.closed_loop_rps")
	add("%", "ops.revert_pct")
	add("count", "ops.queries_2x_faster", "runtime.cpu_samples")
	add("ms", "e2e.latency_tail_ms")
	add("1/s", "bench.trace_overhead_throughput_per_s")
	add("ms", "bench.trace_overhead_latency_ms")
	return out
}()

// perUnitCounters maps per-layer count metrics to registry counters.
var perUnitCounters = map[string]string{
	"engine.statements_executed":    "engine.statements_executed",
	"optimizer.plans":               "optimizer.plans",
	"optimizer.whatif_calls":        "optimizer.whatif_calls",
	"costcache.evictions":           "costcache.evictions",
	"costcache.invalidated_entries": "costcache.invalidated_entries",
	"dta.enumeration_pruned":        "dta.enumeration_pruned",
	"dta.candidates_generated":      "dta.candidates_generated",
	"controlplane.transitions":      "controlplane.transitions",
	"controlplane.validations":      "controlplane.validations",
	"engine.index_builds":           "engine.index_builds",
	"engine.lock_wait_ms":           "engine.lock_wait_ms.sum",
	"serve.capture_batches":         "serve.capture_batches",
	"serve.admission_rejected":      "serve.admission_rejected",
	"fleet.hibernations":            "fleet.hibernations",
	"fleet.rehydrations":            "fleet.rehydrations",
}

// layerMetrics assembles the per-layer metrics of a traced run: the CPU
// split from its profile, runtime/metrics figures from its meter,
// registry counter deltas per unit, the workload's own span figures, and
// the tracing overhead against the untraced run.
func layerMetrics(plain, tr *result, m *meter, prof []byte) (map[string]float64, error) {
	p, err := parseProfile(prof)
	if err != nil {
		return nil, err
	}
	// The profile holds the mutator's samples; background GC comes from
	// runtime/metrics. Scaling the mutator shares by the rest makes the
	// modules, GC and unattributed runtime sum to 100%.
	mods, cum, other, total := attribute(p)
	gc := m.gcPercent()
	mutator := (100 - gc) / 100
	out := map[string]float64{}
	for _, l := range perLayer {
		out[l.name] = 0
	}
	attributed := 0.0
	for mod, pct := range mods {
		key := mod + ".cpu_pct"
		if _, ok := out[key]; !ok {
			key = "runtime.other_cpu_pct"
		} else {
			attributed += pct * mutator
		}
		out[key] += pct * mutator
	}
	out["runtime.other_cpu_pct"] += other * mutator
	for k, v := range cum {
		out[k] = v * mutator
	}
	out["runtime.gc_cpu_pct"] = gc
	out["runtime.cpu_samples"] = float64(total)
	fmt.Printf("cpu split of %d samples: modules %.1f%% + background GC %.1f%% = %.1f%% (unattributed runtime %.1f%%)\n",
		total, attributed, gc, attributed+gc, out["runtime.other_cpu_pct"])

	if tr.units > 0 {
		out["runtime.alloc_bytes_per_unit"] = float64(m.allocBytes) / tr.units
		out["runtime.allocs_per_unit"] = float64(m.allocObjects) / tr.units
	}
	if tr.countUnits > 0 {
		for metric, counter := range perUnitCounters {
			out[metric] = float64(tr.counts[counter]) / tr.countUnits
		}
	}
	if hits, misses := tr.counts["costcache.hits"], tr.counts["costcache.misses"]; hits+misses > 0 {
		out["costcache.hit_pct"] = 100 * float64(hits) / float64(hits+misses)
	}
	if h := tr.counts["fleet.hibernations"]; h > 0 {
		out["fleet.snapshot_bytes_per_hibernation"] = float64(tr.counts["fleet.snapshot_bytes"]) / float64(h)
	}
	for k, v := range tr.layer {
		out[k] = v
	}
	out["e2e.latency_tail_ms"] = plain.e2e["latency_tail_ms"]
	out["bench.trace_overhead_throughput_per_s"] = tr.e2e["throughput_per_s"] - plain.e2e["throughput_per_s"]
	out["bench.trace_overhead_latency_ms"] = tr.e2e["latency_ms"] - plain.e2e["latency_ms"]
	return out, nil
}
