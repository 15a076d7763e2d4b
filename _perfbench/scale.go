package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"autoindex/internal/fleet"
)

// The scale workload: scale mode with far more tenants than may stay
// resident, so hibernation, the snap codec, copy-on-write archetype
// stamping and StepFor carry the run. It is the workload larger than the
// program's own cache of materialized tenants. Each repeat runs the same
// seeded fleet from scratch; their reports must match byte for byte.
// Many small archetypes rather than a few large ones keep one seed's
// draw of templates from setting the run's cost.
const (
	scaleTenants  = 40_000
	scaleHours    = 3
	scaleResident = 4
)

func scaleSpec(seed int64, workers int) fleet.ScaleSpec {
	spec := fleet.DefaultScaleSpec(scaleTenants, scaleHours)
	spec.Seed = seed
	spec.Archetypes = 96
	spec.Scale = 0.02
	spec.ActiveFraction = 0.01
	spec.StatementsPerHour = 6
	spec.ResidentTenants = scaleResident
	spec.Workers = workers
	spec.Stream = io.Discard
	return spec
}

func runScale(o options, m *meter) (*result, error) {
	workers := runtime.NumCPU()
	res := &result{workers: workers, layer: map[string]float64{}}

	// Set-up is what a scale run pays before any tenant works: the
	// archetype templates and the nominal tenant table. A run with no
	// activity does exactly that.
	var setups []float64
	for i := 0; i < 3; i++ {
		idle := scaleSpec(o.seed, workers)
		idle.ActiveFraction = 0
		idle.Hours = 1
		t0 := time.Now()
		if _, err := fleet.RunScale(idle); err != nil {
			return nil, fmt.Errorf("scale: set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var heaps []float64
	for rep := 0; !o.done(rep, 2, m.wall); rep++ {
		var out *fleet.ScaleResult
		var err error
		m.timed(func() {
			t0 := time.Now()
			out, err = fleet.RunScale(scaleSpec(o.seed, workers))
			m.rec.add("fleet.scale_run", 0, t0, time.Now())
		})
		if err != nil {
			return nil, fmt.Errorf("scale: run: %w", err)
		}
		res.attempted += out.TenantHours
		heaps = append(heaps, float64(out.PeakHeapBytes)/(1<<20))
		d := digestOf([]byte(out.Report()))
		if rep == 0 {
			res.digest = d
			res.counts = counters(out.Metrics)
			res.countUnits = float64(out.TenantHours)
		} else if d != res.digest {
			res.fail("scale: repeat %d report digest %s differs from repeat 0's %s", rep, d, res.digest)
		}
		res.units += float64(out.TenantHours)
	}
	runMS := m.rec.samples("fleet.scale_run")
	res.e2e = map[string]float64{
		"setup_s":          quantile(setups, 0.5),
		"throughput_per_s": float64(scaleTenants) / (quantile(runMS, 0.5) / 1000),
		"latency_ms":       quantile(runMS, 0.5),
		"latency_tail_ms":  quantile(runMS, 0.9),
		"peak_heap_mb":     quantile(heaps, 0.5),
	}
	res.named = []named{
		{"setup_s", "s", res.e2e["setup_s"]},
		{"scale.tenants_per_s", "1/s", res.e2e["throughput_per_s"]},
		{"scale.peak_heap_mb", "MB", res.e2e["peak_heap_mb"]},
		{"scale.run_ms_p50", "ms", res.e2e["latency_ms"]},
		{"scale.run_ms_p90", "ms", res.e2e["latency_tail_ms"]},
	}
	return res, nil
}
