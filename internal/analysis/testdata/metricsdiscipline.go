// Metricsdiscipline fixtures: runtime descriptor registration and a
// tracer built on the wall clock. This file deliberately never imports
// "time" so the wallclock analyzer stays silent and every diagnostic
// line carries exactly one want.
package fixture

import (
	"autoindex/internal/metrics"
	"autoindex/internal/sim"
	"autoindex/internal/trace"
)

// Package-level registration is the sanctioned form: the catalog is
// complete before any simulation starts.
var descGood = metrics.NewCounterDesc("fixture.good", "registered at package level")

var descFromInit *metrics.Desc

// init-time registration is equally fine — it still runs before main.
func init() {
	descFromInit = metrics.NewCounterDesc("fixture.from_init", "registered from init")
}

func runtimeCounter() *metrics.Desc {
	return metrics.NewCounterDesc("fixture.runtime", "materialized mid-run") // want "metricsdiscipline: metrics.NewCounterDesc called at runtime"
}

func runtimeHistogram(reg *metrics.Registry) {
	d := metrics.NewHistogramDesc("fixture.runtime_ms", "materialized mid-run", 1, 10) // want "metricsdiscipline: metrics.NewHistogramDesc called at runtime"
	reg.Histogram(d).Observe(1)
}

// goodObserve exercises the sanctioned observation path: a
// package-level descriptor and a value that never touched the wall
// clock.
func goodObserve(reg *metrics.Registry, virtualMillis int64) {
	reg.Counter(descGood).Inc()
	reg.Counter(descFromInit).Add(virtualMillis)
}

// Per-reason descriptor families, the plan-cost cache's idiom
// (internal/costcache: hits / misses / one invalidation counter per
// reason): every descriptor is registered up front, and a helper only
// SELECTS among them at runtime. The catalog is complete before any
// simulation starts, so the analyzer stays silent.
var (
	descCacheHits            = metrics.NewCounterDesc("fixture.cache_hits", "plan-cost cache hits")
	descCacheInvalidateStats = metrics.NewCounterDesc("fixture.cache_inval_stats", "invalidations: stats refresh")
	descCacheInvalidateData  = metrics.NewCounterDesc("fixture.cache_inval_data", "invalidations: data change")
)

// selectInvalidationDesc picks a pre-registered descriptor at runtime —
// sanctioned, unlike constructing one.
func selectInvalidationDesc(statsRefresh bool) *metrics.Desc {
	if statsRefresh {
		return descCacheInvalidateStats
	}
	return descCacheInvalidateData
}

func countInvalidation(reg *metrics.Registry, statsRefresh bool) {
	reg.Counter(descCacheHits).Inc()
	reg.Counter(selectInvalidationDesc(statsRefresh)).Inc()
}

// A reason-keyed family must still not materialize its descriptors
// lazily: the first invalidation of each kind would mutate the catalog
// mid-run.
func lazyInvalidationDesc(reason string) *metrics.Desc {
	return metrics.NewCounterDesc("fixture.cache_inval_"+reason, "materialized on first use") // want "metricsdiscipline: metrics.NewCounterDesc called at runtime"
}

func wallClockTracer(reg *metrics.Registry) *trace.Tracer {
	return trace.New(sim.WallClock{}, reg) // want "metricsdiscipline: trace.New given sim.WallClock"
}

// virtualTracer is the sanctioned form: spans timed on the seeded
// virtual clock.
func virtualTracer(reg *metrics.Registry) *trace.Tracer {
	return trace.New(sim.NewClock(), reg)
}
