package autoindex

// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §3 and EXPERIMENTS.md):
//
//	BenchmarkFig6Premium / BenchmarkFig6Standard — Fig. 6(a)/(b)
//	BenchmarkOpsStats                            — §8.1 operational statistics
//	BenchmarkRevertRate                          — §8.1 revert analysis (~11%)
//	BenchmarkMIAblation                          — §5.2 pipeline-stage ablation
//	BenchmarkDTAOverheads                        — §5.3.1 sampled-stats reduction
//	BenchmarkRevertPolicies                      — §6 conservative vs aggregate
//
// The experiments report their headline numbers as custom benchmark
// metrics (shares in %, rates, counts); absolute values are simulator-
// scale, the *shape* is the reproduction target.

import (
	"fmt"
	"testing"
	"time"

	"autoindex/internal/engine"
	"autoindex/internal/experiment"
	"autoindex/internal/fleet"
	"autoindex/internal/recommend/dta"
	"autoindex/internal/recommend/mi"
	"autoindex/internal/sim"
	"autoindex/internal/validate"
	"autoindex/internal/workload"
)

// fig6Bench runs the Fig. 6 experiment on a small fleet of the given tier.
func fig6Bench(b *testing.B, tier engine.Tier, label string) {
	b.Helper()
	cfg := experiment.DefaultFig6Config()
	cfg.PhaseStatements = 400
	cfg.PhaseDuration = 12 * time.Hour
	for i := 0; i < b.N; i++ {
		f, err := fleet.Build(fleet.Spec{Databases: 4, Tier: tier, Seed: 777 + int64(i), UserIndexes: true})
		if err != nil {
			b.Fatal(err)
		}
		sum := f.RunFig6(label, cfg)
		b.ReportMetric(sum.Share[experiment.WinnerDTA], "dta_win_%")
		b.ReportMetric(sum.Share[experiment.WinnerMI], "mi_win_%")
		b.ReportMetric(sum.Share[experiment.WinnerUser], "user_win_%")
		b.ReportMetric(sum.Share[experiment.WinnerComparable], "comparable_%")
		b.ReportMetric(sum.AvgImprove[experiment.WinnerDTA], "dta_improve_%")
		b.ReportMetric(sum.AvgImprove[experiment.WinnerMI], "mi_improve_%")
		b.ReportMetric(sum.AvgImprove[experiment.WinnerUser], "user_improve_%")
	}
}

// BenchmarkFig6Premium regenerates Fig. 6(a): premium-tier comparison of
// DTA / MI / User on B-instances (paper: DTA 42%, MI 13%, User 15%).
func BenchmarkFig6Premium(b *testing.B) { fig6Bench(b, engine.TierPremium, "premium") }

// BenchmarkFig6Standard regenerates Fig. 6(b): standard-tier comparison
// (paper: DTA 27%, MI 6%, User 10%).
func BenchmarkFig6Standard(b *testing.B) { fig6Bench(b, engine.TierStandard, "standard") }

// BenchmarkOpsStats regenerates the §8.1 operational statistics: create
// vs drop recommendation volumes, implementations, queries >2x faster and
// databases with >50% CPU reduction.
func BenchmarkOpsStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := fleet.Spec{Databases: 5, MixedTiers: true, Seed: 20181001 + int64(i), UserIndexes: true}
		f, err := fleet.Build(spec)
		if err != nil {
			b.Fatal(err)
		}
		cfg := fleet.DefaultOpsConfig()
		cfg.Days = 6
		cfg.StatementsPerHour = 20
		cfg.NewTenantEvery = 72 * time.Hour
		res, err := f.RunOps(spec, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.CreateRecommended), "create_recs")
		b.ReportMetric(float64(res.Stats.DropRecommended), "drop_recs")
		b.ReportMetric(float64(res.Stats.CreatesImplemented), "creates")
		b.ReportMetric(float64(res.Stats.DropsImplemented), "drops")
		b.ReportMetric(float64(res.QueriesTwiceFaster), "queries_2x_faster")
		b.ReportMetric(float64(res.DatabasesHalvedCPU), "dbs_cpu_halved")
		b.ReportMetric(float64(res.SteadyStateDatabases), "steady_state_dbs")
	}
}

// BenchmarkRevertRate regenerates the §8.1 revert analysis: ~11% of
// automated actions reverted, skewed to write regressions for MI.
func BenchmarkRevertRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := fleet.Spec{Databases: 6, MixedTiers: true, Seed: 555 + int64(i), UserIndexes: true}
		f, err := fleet.Build(spec)
		if err != nil {
			b.Fatal(err)
		}
		cfg := fleet.DefaultOpsConfig()
		cfg.Days = 7
		cfg.StatementsPerHour = 25
		cfg.AutoImplementFraction = 1.0
		res, err := f.RunOps(spec, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Stats.RevertRate*100, "revert_rate_%")
		b.ReportMetric(float64(res.Stats.WriteRegressionReverts), "write_regr_reverts")
		b.ReportMetric(float64(res.Stats.SelectRegressionReverts), "select_regr_reverts")
		b.ReportMetric(float64(res.Stats.WriteRegressionRevertsMI), "mi_write_reverts")
	}
}

// miBenchDB builds the database used by the MI ablation.
func miBenchDB(b *testing.B, seed int64) (*engine.Database, *sim.VirtualClock) {
	b.Helper()
	clock := sim.NewClock()
	db := engine.New(engine.DefaultConfig("miab", engine.TierBasic, seed), clock)
	if _, err := db.Exec(`CREATE TABLE hits (id BIGINT NOT NULL, site BIGINT, code BIGINT, bytes FLOAT, PRIMARY KEY (id))`); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := db.Exec(fmt.Sprintf(
			`INSERT INTO hits (id, site, code, bytes) VALUES (%d, %d, %d, %d.5)`, i, i%200, i%10, i)); err != nil {
			b.Fatal(err)
		}
	}
	db.RebuildAllStats()
	return db, clock
}

// BenchmarkMIAblation measures the §5.2 pipeline stages: how many
// candidates survive with the full pipeline versus with the slope test,
// merging and classifier disabled.
func BenchmarkMIAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db, clock := miBenchDB(b, int64(i))
		full := mi.New(db, mi.DefaultConfig())
		ablCfg := mi.DefaultConfig()
		ablCfg.DisableSlopeTest = true
		ablCfg.DisableMerging = true
		ablCfg.ClassifierThreshold = 0
		ablCfg.MinSeeks = 1
		abl := mi.New(db, ablCfg)
		for s := 0; s < 4; s++ {
			for q := 0; q < 40; q++ {
				db.Exec(fmt.Sprintf(`SELECT id, bytes FROM hits WHERE site = %d`, (s*40+q)%200))       //nolint:errcheck
				db.Exec(fmt.Sprintf(`SELECT id FROM hits WHERE site = %d AND code = %d`, q%200, q%10)) //nolint:errcheck
			}
			clock.Advance(time.Hour)
			full.TakeSnapshot()
			abl.TakeSnapshot()
		}
		b.ReportMetric(float64(len(full.Recommend())), "full_pipeline_recs")
		b.ReportMetric(float64(len(abl.Recommend())), "ablated_recs")
	}
}

// BenchmarkDTAOverheads measures the §5.3.1 sampled-statistics reduction:
// the reduced mode creates 2-3x fewer statistics with comparable
// recommendation counts, within the same what-if budget.
func BenchmarkDTAOverheads(b *testing.B) {
	run := func(seed int64, reduce bool) *dta.Result {
		clock := sim.NewClock()
		tn, err := workload.NewTenant(workload.Profile{
			Name: "dtab", Tier: engine.TierStandard, Seed: seed,
		}, clock)
		if err != nil {
			b.Fatal(err)
		}
		tn.Run(12*time.Hour, 400)
		opts := dta.OptionsForTier(engine.TierStandard)
		opts.ReduceSampledStats = reduce
		res, err := dta.Run(tn.DB, opts)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	for i := 0; i < b.N; i++ {
		seed := 31337 + int64(i)
		reduced := run(seed, true)
		fullStats := run(seed, false)
		b.ReportMetric(float64(reduced.StatsCreated), "stats_reduced")
		b.ReportMetric(float64(fullStats.StatsCreated), "stats_full")
		b.ReportMetric(float64(len(reduced.Recommendations)), "recs_reduced")
		b.ReportMetric(float64(len(fullStats.Recommendations)), "recs_full")
		b.ReportMetric(float64(reduced.WhatIfCalls), "whatif_calls")
	}
}

// BenchmarkRevertPolicies compares the §6 revert triggers on a workload
// where one statement regresses while a heavier one improves: the
// conservative per-statement policy reverts, the aggregate policy keeps
// the index.
func BenchmarkRevertPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		clock := sim.NewClock()
		db := engine.New(engine.DefaultConfig("polbench", engine.TierStandard, 7), clock)
		if _, err := db.Exec(`CREATE TABLE t (id BIGINT NOT NULL, a BIGINT, f FLOAT, PRIMARY KEY (id))`); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 2000; j++ {
			db.Exec(fmt.Sprintf(`INSERT INTO t (id, a, f) VALUES (%d, %d, %d.5)`, j, j%100, j)) //nolint:errcheck
		}
		db.RebuildAllStats()
		clock.Advance(2 * time.Hour)
		phase := func(n int) {
			for k := 0; k < n; k++ {
				db.Exec(fmt.Sprintf(`SELECT id, f FROM t WHERE a = %d`, k%100))         //nolint:errcheck
				db.Exec(fmt.Sprintf(`UPDATE t SET f = %d.25 WHERE id = %d`, k, k%2000)) //nolint:errcheck
				if k%10 == 0 {
					clock.Advance(30 * time.Minute)
				}
			}
		}
		phase(120)
		implAt := clock.Now()
		// The index speeds the big SELECT but taxes every UPDATE.
		db.Exec(`CREATE INDEX ix_a ON t (a) INCLUDE (f) WITH (ONLINE = ON)`) //nolint:errcheck
		phase(120)

		window := 5 * time.Hour
		per := validate.DefaultConfig()
		per.Policy = validate.PolicyPerStatement
		agg := validate.DefaultConfig()
		agg.Policy = validate.PolicyAggregate
		perOut := validate.Validate(db.QueryStore(), "ix_a", true, implAt, window, per)
		aggOut := validate.Validate(db.QueryStore(), "ix_a", true, implAt, window, agg)
		b.ReportMetric(boolMetric(perOut.Revert), "per_stmt_reverts")
		b.ReportMetric(boolMetric(aggOut.Revert), "aggregate_reverts")
		b.ReportMetric(float64(perOut.Analyzed), "queries_analyzed")
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// BenchmarkEngineExec is a microbenchmark of the engine's hot path: a
// point query through the full optimize-compile-execute-record pipeline.
func BenchmarkEngineExec(b *testing.B) {
	r := NewRegion(9)
	db := seedDatabase(b, r, "micro")
	db.Exec(`CREATE INDEX ix_cat ON items (cat) WITH (ONLINE = ON)`) //nolint:errcheck
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(fmt.Sprintf(`SELECT id, price FROM items WHERE cat = %d`, i%150)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWhatIfCost is a microbenchmark of the what-if API — DTA's
// dominant cost (§5.3.1).
func BenchmarkWhatIfCost(b *testing.B) {
	r := NewRegion(10)
	db := seedDatabase(b, r, "whatif")
	s := db.NewWhatIfSession()
	s.Catalog().AddHypothetical(mustIndexDef())
	stmt := mustParse(`SELECT id, price FROM items WHERE cat = 7`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Cost(stmt); err != nil {
			b.Fatal(err)
		}
	}
}
