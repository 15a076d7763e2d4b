package fleet

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// metricsSnapshot runs a chaos-seeded ops simulation at the given worker
// count and returns the deterministic metrics JSON — the same bytes
// cmd/fleetsim writes for -metrics-out.
func metricsSnapshot(t *testing.T, workers int) []byte {
	t.Helper()
	spec := Spec{Databases: 4, MixedTiers: true, Seed: 424242, UserIndexes: true, Workers: workers}
	f, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultOpsConfig()
	cfg.Days = 3
	cfg.StatementsPerHour = 12
	cfg.AutoImplementFraction = 1.0
	cfg.NewTenantEvery = 48 * time.Hour
	cfg.Chaos = ChaosConfig{Enabled: true, FaultRate: 0.08, CrashRate: 0.05}
	if _, err := f.RunOps(Spec{Seed: spec.Seed, UserIndexes: true}, cfg); err != nil {
		t.Fatal(err)
	}
	b, err := f.Metrics.MarshalDeterministic()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricsDeterministicAcrossWorkers extends the harness's
// bit-identical guarantee to observability data: the non-volatile
// metrics snapshot must be byte-identical at -workers 1, 4, and 8 under
// a chaos seed. Counters and histograms are int64 with commutative
// atomic adds, spans are emitted only from serial control-plane
// sections, and scheduling-dependent metrics are excluded as volatile —
// this test is what keeps all three of those properties honest.
func TestMetricsDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation is slow")
	}
	b1 := metricsSnapshot(t, 1)
	b4 := metricsSnapshot(t, 4)
	b8 := metricsSnapshot(t, 8)
	if !bytes.Equal(b1, b4) {
		t.Errorf("metrics JSON differs between -workers 1 and -workers 4:\n--- workers=1 ---\n%s--- workers=4 ---\n%s", b1, b4)
	}
	if !bytes.Equal(b1, b8) {
		t.Errorf("metrics JSON differs between -workers 1 and -workers 8:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", b1, b8)
	}

	// The snapshot must actually contain signal, not zeroes: a fleet run
	// with auto-implementation exercises the optimizer, recommenders,
	// engine DDL, control plane, and tracer.
	var doc struct {
		Metrics []struct {
			Name  string `json:"name"`
			Value *int64 `json:"value"`
			Count *int64 `json:"count"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(b1, &doc); err != nil {
		t.Fatal(err)
	}
	nonZero := map[string]bool{}
	for _, m := range doc.Metrics {
		if m.Name == "fleet.worker_shard_items" {
			t.Error("volatile metric leaked into the deterministic snapshot")
		}
		if (m.Value != nil && *m.Value > 0) || (m.Count != nil && *m.Count > 0) {
			nonZero[m.Name] = true
		}
	}
	for _, want := range []string{
		"optimizer.plans",
		"optimizer.whatif_calls",
		"engine.statements_executed",
		"engine.index_builds",
		"engine.index_build_ms",
		"engine.fault_trips",
		"controlplane.transitions",
		"controlplane.validations",
		"controlplane.step_ms",
		"controlplane.crash_recoveries",
		"controlplane.recommendations_create",
		"controlplane.implemented_create",
		"fleet.tenant_hours",
		"trace.spans",
	} {
		if !nonZero[want] {
			t.Errorf("expected metric %s to be non-zero after a chaos ops run", want)
		}
	}
}
