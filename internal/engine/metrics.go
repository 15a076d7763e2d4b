package engine

import "autoindex/internal/metrics"

// Engine-side instrumentation: statement throughput, index DDL cost
// (build durations, lock waits), statistics rebuilds, and chaos
// fault-point trips. All
// values are int64 and updated with commutative atomic adds, so fleet
// totals are identical at any worker count.
var (
	descStatements = metrics.NewCounterDesc("engine.statements_executed",
		"DML/query statements executed (DDL excluded)")
	descIndexBuilds = metrics.NewCounterDesc("engine.index_builds",
		"index builds that completed successfully")
	descIndexBuildMillis = metrics.NewHistogramDesc("engine.index_build_ms",
		"successful index-build durations in virtual milliseconds",
		100, 500, 1_000, 5_000, 30_000, 120_000, 600_000)
	descIndexDrops = metrics.NewCounterDesc("engine.index_drops",
		"index drops that completed successfully")
	descLockWaitMillis = metrics.NewHistogramDesc("engine.lock_wait_ms",
		"exclusive schema-lock wait preceding an index drop, virtual milliseconds",
		1, 10, 100, 1_000, 5_000, 30_000)
	descLockTimeouts = metrics.NewCounterDesc("engine.lock_timeouts",
		"DDL lock acquisitions that timed out (injected or real)")
	descFaultTrips = metrics.NewCounterDesc("engine.fault_trips",
		"chaos fault points tripped inside engine DDL paths")
	descStatsRebuilds = metrics.NewCounterDesc("engine.stats_rebuilds",
		"column statistics rebuilt over changed data (each flushes the plan-cost cache)")
)
