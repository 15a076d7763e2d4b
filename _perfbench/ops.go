package main

import (
	"fmt"
	"runtime"
	"time"

	"autoindex/internal/fleet"
)

// The ops workload: the §8.1 closed loop. A fleet of mixed-tier tenants
// replays two virtual days while the control plane tunes it, with every
// tenant resident, so this is the workload that fits the program's
// caches. Each episode builds a fresh fleet from the same seed (set-up)
// and runs it (measured); episodes repeat until the time budget is spent,
// and their deterministic metrics snapshots must match byte for byte.
const (
	opsTenants = 96
	opsDays    = 2
	opsStmts   = 10
	opsScale   = 0.125
)

func runOps(o options, m *meter) (*result, error) {
	workers := runtime.NumCPU()
	spec := fleet.Spec{Databases: opsTenants, MixedTiers: true, Seed: o.seed, UserIndexes: true,
		Workers: workers, Scale: opsScale}
	res := &result{workers: workers, layer: map[string]float64{}}
	heap := watchHeap()
	var setups []float64
	var built float64
	var tenantHours float64
	var revertPct float64
	var twice int
	for ep := 0; !o.done(ep, 2, m.wall); ep++ {
		t0 := time.Now()
		f, err := fleet.Build(spec)
		if err != nil {
			return nil, fmt.Errorf("ops: build: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if ep == 0 {
			built = retainedHeap()
		}

		cfg := fleet.DefaultOpsConfig()
		cfg.Days = opsDays
		cfg.StatementsPerHour = opsStmts
		var episode *openSpan
		var hourStart time.Time
		cfg.Hooks.BeforeHour = func(*fleet.OpsHookContext) { hourStart = time.Now() }
		cfg.Hooks.AfterHour = func(*fleet.OpsHookContext) { m.rec.add("fleet.hour", episode.id, hourStart, time.Now()) }
		var out *fleet.OpsResult
		m.timed(func() {
			episode = m.rec.open("ops.episode", 0)
			out, err = f.RunOps(fleet.Spec{Seed: o.seed, UserIndexes: true, Scale: opsScale}, cfg)
			episode.close()
		})
		if err != nil {
			return nil, fmt.Errorf("ops: run: %w", err)
		}
		hours := float64(len(f.Tenants) * opsDays * 24)
		tenantHours += hours
		res.attempted += int64(hours)

		snap, err := f.Metrics.MarshalDeterministic()
		if err != nil {
			return nil, err
		}
		d := digestOf(snap)
		if ep == 0 {
			res.digest = d
			revertPct, twice = 100*out.Stats.RevertRate, out.QueriesTwiceFaster
			res.counts = counters(f.Metrics)
			res.countUnits = hours
		} else if d != res.digest {
			res.fail("ops: episode %d metrics snapshot digest %s differs from episode 0's %s", ep, d, res.digest)
		}
	}
	peak := heap.finish()
	hoursMS := m.rec.samples("fleet.hour")
	throughput := tenantHours / m.wall.Seconds()
	res.units = tenantHours
	// The bounded heap figure is what the built fleet retains, for the
	// reason warmTuneFleet gives (the sampled peak over the episodes,
	// still reported as ops.peak_heap_mb, swung by up to a quarter between
	// seeds). The typical fleet hour is the mean, not the median: most
	// hours are short and a GC cycle overlapping one doubles it, which
	// made the median swing by a fifth between runs of one seed on a
	// 2-CPU host.
	res.e2e = map[string]float64{
		"setup_s":          quantile(setups, 0.5),
		"throughput_per_s": throughput,
		"latency_ms":       1000 * m.wall.Seconds() / float64(len(hoursMS)),
		"latency_tail_ms":  quantile(hoursMS, 0.9),
		"peak_heap_mb":     built,
	}
	res.named = []named{
		{"setup_s", "s", res.e2e["setup_s"]},
		{"ops.tenant_hours_per_s", "1/s", throughput},
		{"ops.peak_heap_mb", "MB", peak},
		{"ops.built_heap_mb", "MB", built},
		{"ops.revert_pct", "%", revertPct},
		{"ops.queries_2x_faster", "count", float64(twice)},
		{"ops.fleet_hour_ms_mean", "ms", res.e2e["latency_ms"]},
		{"ops.fleet_hour_ms_p50", "ms", quantile(hoursMS, 0.5)},
		{"ops.fleet_hour_ms_p90", "ms", res.e2e["latency_tail_ms"]},
	}
	res.layer["fleet.hour_ms_p50"] = quantile(hoursMS, 0.5)
	res.layer["ops.revert_pct"] = revertPct
	res.layer["ops.queries_2x_faster"] = float64(twice)
	return res, nil
}
