package controlplane

import (
	"time"

	"autoindex/internal/metrics"
)

// Control-plane instrumentation (§4, §6): state-machine churn,
// validation verdicts, revert pressure, crash-recovery cycles, and the
// latency of a full micro-service step. Everything here is updated
// from the serial Step path, so counts are identical at any fleet
// worker count.
var (
	descTransitions = metrics.NewCounterDesc("controlplane.transitions",
		"record state-machine transitions applied by the control plane")
	descValidations = metrics.NewCounterDesc("controlplane.validations",
		"validation verdicts rendered after the post-implementation window")
	descValidationsImproved = metrics.NewCounterDesc("controlplane.validations_improved",
		"validations concluding the change improved the workload")
	descValidationsRegressed = metrics.NewCounterDesc("controlplane.validations_regressed",
		"validations concluding the change regressed the workload")
	descValidationsInconclusive = metrics.NewCounterDesc("controlplane.validations_inconclusive",
		"validations with no statistically robust verdict")
	descReverts = metrics.NewCounterDesc("controlplane.reverts",
		"reverts triggered by validation")
	descCrashRecoveries = metrics.NewCounterDesc("controlplane.crash_recoveries",
		"injected crash-restart cycles recovered by rebuilding over the surviving store")

	// Recommendation lifecycle, one counter per micro-service outcome.
	descMISnapshots = metrics.NewCounterDesc("controlplane.mi_snapshots",
		"missing-index DMV snapshots taken by the snapshot service")
	descMIAnalyses = metrics.NewCounterDesc("controlplane.mi_analyses",
		"analysis passes served by the missing-index recommender")
	descDTASessions = metrics.NewCounterDesc("controlplane.dta_sessions",
		"DTA tuning sessions that returned a result")
	descDTAWhatIfCalls = metrics.NewCounterDesc("controlplane.dta_whatif_calls",
		"what-if optimizer calls made by control-plane DTA sessions")
	descDTAAborted = metrics.NewCounterDesc("controlplane.dta_aborted",
		"DTA sessions aborted for interfering with the user workload")
	DescAnalysisLiveWorkload = metrics.NewCounterDesc("controlplane.analysis_live_workload",
		"analysis passes over a Query Store holding live wire-protocol executions")
	DescRecsLiveDriven = metrics.NewCounterDesc("controlplane.recommendations_live_driven",
		"create recommendations filed for queries executed through the serving path")
	descRecsCreate = metrics.NewCounterDesc("controlplane.recommendations_create",
		"create-index recommendations filed")
	descRecsDrop = metrics.NewCounterDesc("controlplane.recommendations_drop",
		"drop-index recommendations filed")
	descImplementedCreate = metrics.NewCounterDesc("controlplane.implemented_create",
		"create-index recommendations implemented and moved to validation")
	descImplementedDrop = metrics.NewCounterDesc("controlplane.implemented_drop",
		"drop-index recommendations implemented and moved to validation")
	descErrorsTerminal = metrics.NewCounterDesc("controlplane.errors_terminal",
		"implementation errors of a well-known terminal kind (no incident)")
	descErrorsTransient = metrics.NewCounterDesc("controlplane.errors_transient",
		"transient implementation errors scheduled for retry")
	descErrorsIncident = metrics.NewCounterDesc("controlplane.errors_incident",
		"implementation errors that exhausted retries or were unrecognized")
	descValidationsSuccess = metrics.NewCounterDesc("controlplane.validations_success",
		"validations that kept the change")
	descValidationsKeptImproved = metrics.NewCounterDesc("controlplane.validations_kept_improved",
		"validations that kept the change with an improved verdict")
	descRevertsWriteRegression = metrics.NewCounterDesc("controlplane.reverts_write_regression",
		"reverts caused by a regressed write statement")
	descRevertsWriteRegressionMI = metrics.NewCounterDesc("controlplane.reverts_write_regression_mi",
		"write-regression reverts of missing-index-sourced recommendations")
	descRevertsSelectRegression = metrics.NewCounterDesc("controlplane.reverts_select_regression",
		"reverts caused by regressed read statements only")
	descRevertsCompleted = metrics.NewCounterDesc("controlplane.reverts_completed",
		"reverts executed to completion")
	descExpired = metrics.NewCounterDesc("controlplane.expired",
		"active recommendations expired by age or by a newer same-key one")
	descIncidents = metrics.NewCounterDesc("controlplane.incidents",
		"incidents raised for on-call review")
	descStepMillis = metrics.NewHistogramDesc("controlplane.step_ms",
		"full control-plane step latency in virtual milliseconds",
		1, 10, 100, 1_000, 10_000, 60_000, 600_000)
)

// transition applies a record state-machine transition and counts it.
// Control-plane call sites route through here (not r.Transition
// directly) so controlplane.transitions reflects every applied edge.
func (cp *ControlPlane) transition(r *Record, to RecState, now time.Time) error {
	err := r.Transition(to, now)
	if err == nil {
		cp.reg.Counter(descTransitions).Inc()
	}
	return err
}
