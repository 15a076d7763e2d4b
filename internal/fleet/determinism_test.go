package fleet

import (
	"strings"
	"testing"
	"time"

	"autoindex/internal/experiment"
)

// defaultSmallFig6 shrinks the Fig. 6 config to test scale.
func defaultSmallFig6() experiment.Fig6Config {
	cfg := experiment.DefaultFig6Config()
	cfg.PhaseStatements = 200
	cfg.PhaseDuration = 8 * time.Hour
	return cfg
}

// opsReport builds a fleet and runs a small §8.1 simulation at the given
// worker count, returning the full formatted report (the same bytes
// cmd/fleetsim prints for -experiment opstats / reverts).
func opsReport(t *testing.T, workers int) (string, string) {
	t.Helper()
	spec := Spec{Databases: 4, MixedTiers: true, Seed: 20170301, UserIndexes: true, Workers: workers}
	f, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultOpsConfig()
	cfg.Days = 3
	cfg.StatementsPerHour = 12
	cfg.AutoImplementFraction = 1.0
	cfg.NewTenantEvery = 48 * time.Hour
	res, err := f.RunOps(Spec{Seed: spec.Seed, UserIndexes: true}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Report(), res.RevertReport()
}

// TestOpsDeterministicAcrossWorkers is the harness's central guarantee:
// the same seed produces byte-identical opstats output whether tenants
// run on one worker or are sharded across eight. Per-tenant clocks and
// per-tenant RNG streams are what make this hold — any accidental
// cross-tenant sharing shows up here as a diff.
func TestOpsDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation is slow")
	}
	rep1, rev1 := opsReport(t, 1)
	rep8, rev8 := opsReport(t, 8)
	if rep1 != rep8 {
		t.Errorf("opstats report differs between -workers 1 and -workers 8:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", rep1, rep8)
	}
	if rev1 != rev8 {
		t.Errorf("revert report differs between -workers 1 and -workers 8:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", rev1, rev8)
	}
	if rep1 == "" || rev1 == "" {
		t.Fatal("empty report")
	}
}

// chaosOpsReport runs a chaos-mode ops simulation at the given worker
// count, returning all deterministic output (reports plus the chaos
// summary) concatenated.
func chaosOpsReport(t *testing.T, workers int) string {
	t.Helper()
	spec := Spec{Databases: 4, MixedTiers: true, Seed: 99, UserIndexes: true, Workers: workers}
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
	res, err := f.RunOps(Spec{Seed: spec.Seed, UserIndexes: true}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chaos == nil {
		t.Fatal("chaos enabled but no chaos report")
	}
	if len(res.Chaos.Violations) != 0 {
		t.Errorf("invariant violations under chaos:\n%s", res.Chaos.Format())
	}
	// Every revert is classified exactly once, crash-restarts included:
	// the revert counter and its cause counter are bumped with no record
	// save (and so no crash point) between them.
	if s := res.Stats; s.Reverts == 0 || s.WriteRegressionReverts+s.SelectRegressionReverts != s.Reverts {
		t.Errorf("revert causes %d write + %d SELECT, want %d (> 0) reverts in total",
			s.WriteRegressionReverts, s.SelectRegressionReverts, s.Reverts)
	}
	return res.Report() + res.RevertReport() + res.Chaos.Format()
}

// TestChaosOpsDeterministicAcrossWorkers extends the determinism
// guarantee to chaos mode: the injected fault schedule — and therefore
// every downstream effect — is a function of the seed alone, not of how
// tenants were sharded across workers.
func TestChaosOpsDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation is slow")
	}
	rep1 := chaosOpsReport(t, 1)
	rep8 := chaosOpsReport(t, 8)
	if rep1 != rep8 {
		t.Errorf("chaos report differs between -workers 1 and -workers 8:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", rep1, rep8)
	}
	if !strings.Contains(rep1, "invariants: OK") {
		t.Errorf("expected clean invariants in:\n%s", rep1)
	}
}

// TestFig6DeterministicAcrossWorkers checks the Fig. 6 harness the same
// way: per-tenant B-instance experiments must not leak state across
// worker goroutines.
func TestFig6DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("fig6 is slow")
	}
	run := func(workers int) string {
		f, err := Build(Spec{Databases: 3, MixedTiers: true, Seed: 777, UserIndexes: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		cfg := defaultSmallFig6()
		return f.RunFig6("mixed", cfg).String()
	}
	if a, b := run(1), run(8); a != b {
		t.Errorf("fig6 summary differs between -workers 1 and -workers 8:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", a, b)
	}
}
