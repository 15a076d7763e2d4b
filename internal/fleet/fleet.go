// Package fleet builds and drives multi-tenant database fleets: the
// substrate for reproducing Fig. 6 (recommender comparison at scale on
// B-instances) and the §8.1 operational statistics (long-horizon
// auto-indexing with validation and drops across many databases).
//
// The harness shards tenants across a configurable worker pool
// (Spec.Workers; default one worker per CPU). Every tenant owns an
// isolated sim.VirtualClock and draws randomness only from per-tenant
// streams derived as seed ^ hash(tenantID) (sim.TenantRNG), so a fleet
// run is bit-identical at any worker count: tenant-hours execute in
// parallel between barriers, and everything cross-tenant — control-plane
// micro-services, result merging, fleet-growth decisions — runs serially
// at the barrier in tenant order. See the sim package's concurrency and
// determinism contract.
package fleet

import (
	"fmt"
	"time"

	"autoindex/internal/controlplane"
	"autoindex/internal/engine"
	"autoindex/internal/experiment"
	"autoindex/internal/metrics"
	"autoindex/internal/querystore"
	"autoindex/internal/sim"
	"autoindex/internal/workload"
)

// Spec configures a fleet.
type Spec struct {
	Databases int
	Tier      engine.Tier
	// MixedTiers overrides Tier with a Basic/Standard/Premium mix.
	MixedTiers bool
	Seed       int64
	// Scale multiplies tenant data sizes.
	Scale float64
	// UserIndexes gives tenants pre-existing human tuning.
	UserIndexes bool
	// Workers is the size of the tenant worker pool; <= 0 means one worker
	// per available CPU. Results do not depend on the value (only
	// wall-clock time does).
	Workers int
}

// Fleet is a set of tenants. The control plane observes the fleet through
// the region Clock; each tenant's database runs on its own isolated
// virtual clock, advanced in lockstep with the region clock at hour
// barriers so cross-tenant timestamps stay comparable.
type Fleet struct {
	// Clock is the region clock: the control plane's time source. Tenant
	// databases each own a separate clock (see tenant isolation in the
	// package comment).
	Clock *sim.VirtualClock
	// RNG is the fleet-level stream for serial, cross-tenant decisions
	// (auto-implement assignment, fleet growth). Per-tenant draws never
	// come from it.
	RNG     *sim.RNG
	Tenants []*workload.Tenant
	// Metrics is the run's registry: every tenant engine, the control
	// plane, and the fleet harness itself feed it. Its non-volatile
	// snapshot is byte-identical at any Workers count.
	Metrics *metrics.Registry

	spec   Spec
	clocks []*sim.VirtualClock // clocks[i] belongs to Tenants[i]
}

// Build creates the fleet, constructing tenants in parallel across the
// worker pool. Tenant i's schema, data and templates derive only from its
// own seed, so parallel construction is deterministic.
func Build(spec Spec) (*Fleet, error) {
	f := &Fleet{Clock: sim.NewClock(), RNG: sim.NewRNG(spec.Seed), Metrics: metrics.NewRegistry(), spec: spec}
	profiles := make([]workload.Profile, spec.Databases)
	for i := range profiles {
		tier := spec.Tier
		if spec.MixedTiers {
			switch i % 4 {
			case 0, 1:
				tier = engine.TierStandard
			case 2:
				tier = engine.TierBasic
			default:
				tier = engine.TierPremium
			}
		}
		profiles[i] = workload.Profile{
			Name:        fmt.Sprintf("db%03d", i),
			Tier:        tier,
			Seed:        spec.Seed + int64(i)*7919,
			Scale:       spec.Scale,
			UserIndexes: spec.UserIndexes,
		}
	}
	f.Tenants = make([]*workload.Tenant, len(profiles))
	f.clocks = make([]*sim.VirtualClock, len(profiles))
	errs := make([]error, len(profiles))
	forEach(spec.Workers, len(profiles), func(i int) {
		clock := sim.NewClock()
		tn, err := workload.NewTenant(profiles[i], clock)
		if err != nil {
			errs[i] = err
			return
		}
		f.Tenants[i] = tn
		f.clocks[i] = clock
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fleet: tenant %d: %w", i, err)
		}
	}
	// Attach metrics after construction so initial population replay is
	// uncounted for every tenant alike (growth tenants get the same
	// treatment in addTenant).
	for _, tn := range f.Tenants {
		tn.DB.SetMetrics(f.Metrics)
	}
	f.Metrics.Gauge(descTenants).Set(int64(len(f.Tenants)))
	return f, nil
}

// addTenant registers a tenant built outside Build (fleet growth).
func (f *Fleet) addTenant(tn *workload.Tenant, clock *sim.VirtualClock) {
	tn.DB.SetMetrics(f.Metrics)
	f.Tenants = append(f.Tenants, tn)
	f.clocks = append(f.clocks, clock)
	f.Metrics.Counter(descTenantsGrown).Inc()
	f.Metrics.Gauge(descTenants).Set(int64(len(f.Tenants)))
}

// alignClocks advances the region clock and every tenant clock to the
// fleet-wide maximum. Called at barriers only (no tenant worker running):
// online index builds and B-instance replays advance only the affected
// tenant's clock, and the maximum over all clocks is independent of the
// order tenants executed in, so re-alignment preserves determinism.
func (f *Fleet) alignClocks() {
	max := f.Clock.Now()
	for _, c := range f.clocks {
		if t := c.Now(); t.After(max) {
			max = t
		}
	}
	f.Clock.AdvanceTo(max)
	for _, c := range f.clocks {
		c.AdvanceTo(max)
	}
}

// AdvanceLive moves the whole fleet's virtual time forward by d and
// re-aligns every tenant clock. The serving path uses it as the live
// loop's tick: client statements execute against tenant databases in
// real time, and each tick advances the virtual clocks the tuning
// pipeline (analysis cadence, validation windows) runs on. Call it only
// from the single live-loop goroutine — it is a barrier, like the
// ops-loop call sites of alignClocks.
func (f *Fleet) AdvanceLive(d time.Duration) {
	f.Clock.Advance(d)
	f.alignClocks()
}

// tenantStream derives tenant tn's named RNG stream from the fleet seed:
// sim.TenantRNG gives the per-tenant root (seed ^ hash(tenantID)), Child
// isolates the purpose so new consumers don't perturb existing ones.
func (f *Fleet) tenantStream(tn *workload.Tenant, purpose string) *sim.RNG {
	return sim.TenantRNG(f.spec.Seed, tn.DB.Name()).Child(purpose)
}

// RunFig6 executes the §7.3 experiment across the fleet, one tenant per
// worker slot. Each tenant's experiment runs on its own B-instances,
// clock and RNG stream; the summary merges per-tenant results in tenant
// order.
func (f *Fleet) RunFig6(tierLabel string, cfg experiment.Fig6Config) experiment.Fig6Summary {
	results := make([]experiment.DatabaseResult, len(f.Tenants))
	forEachObserved(f.Metrics, f.spec.Workers, len(f.Tenants), func(i int) {
		tn := f.Tenants[i]
		results[i] = experiment.RunFig6ForTenant(tn, cfg, f.tenantStream(tn, "fig6"))
	})
	f.alignClocks()
	return experiment.Summarize(tierLabel, results)
}

// OpsConfig drives the §8.1 operational simulation.
type OpsConfig struct {
	Days int
	// StatementsPerHour per tenant.
	StatementsPerHour int
	// AutoImplementFraction of databases have auto-implementation on
	// (about a quarter in the paper).
	AutoImplementFraction float64
	// NewTenantEvery adds a fresh database on this cadence (the paper's
	// "increasing stream of new databases"); 0 disables.
	NewTenantEvery time.Duration
	// FailoverProb is a per-database per-day failover probability,
	// exercising the MI snapshot reset tolerance.
	FailoverProb float64
	Plane        controlplane.Config
	// Chaos, when enabled, injects seeded faults into every layer and
	// audits invariants after a post-run drain.
	Chaos ChaosConfig
	// Hooks are the scenario-generator intervention points; see OpsHooks.
	Hooks OpsHooks
	// AuditInvariants runs the chaos-style post-run invariant audit
	// (baseline capture, drain, CheckInvariants) even without chaos;
	// results land in OpsResult.Violations. Chaos mode always audits.
	AuditInvariants bool
}

// DefaultOpsConfig returns a simulation-scale configuration.
func DefaultOpsConfig() OpsConfig {
	return OpsConfig{
		Days:                  10,
		StatementsPerHour:     25,
		AutoImplementFraction: 0.25,
		FailoverProb:          0.02,
		Plane:                 controlplane.DefaultConfig(),
	}
}

// OpsResult is the §8.1-style outcome.
type OpsResult struct {
	Stats controlplane.OperationalStats
	// QueriesTwiceFaster counts queries whose CPU or logical reads
	// improved by more than 2x end-to-start.
	QueriesTwiceFaster int
	// DatabasesHalvedCPU counts databases whose aggregate workload CPU
	// fell by more than 50%.
	DatabasesHalvedCPU int
	// SteadyStateDatabases counts databases with no Active recommendations
	// at the end.
	SteadyStateDatabases int
	Plane                *controlplane.ControlPlane
	// Chaos is the fault-injection report; nil unless chaos was enabled.
	Chaos *ChaosReport
	// Audited reports whether a post-run invariant audit ran (chaos mode
	// or OpsConfig.AuditInvariants); Violations and DrainHours mirror the
	// chaos report when chaos was on, so scenario verdicts read one place.
	Audited    bool
	Violations []controlplane.Violation
	DrainHours int
}

// RunOps runs the long-horizon operational simulation. Each virtual hour,
// tenant workloads replay in parallel across the worker pool; the
// control-plane micro-services then step serially at the hour barrier, as
// do fleet-growth and measurement bookkeeping, so the outcome is
// bit-identical at any worker count.
func (f *Fleet) RunOps(spec Spec, cfg OpsConfig) (*OpsResult, error) {
	return f.runOps(spec, cfg, controlplane.NewMemStore())
}

// runOps is RunOps over an explicit backing store (tests inject a
// persisting or crash-prone store through here).
func (f *Fleet) runOps(spec Spec, cfg OpsConfig, mem controlplane.Store) (*OpsResult, error) {
	store := mem
	var ch *chaosHarness
	if cfg.Chaos.Enabled {
		ch = newChaosHarness(cfg.Chaos, spec.Seed, mem)
		store = ch.wrapped
	}
	if cfg.Plane.Metrics == nil {
		cfg.Plane.Metrics = f.Metrics
	}
	cp := controlplane.New(cfg.Plane, f.Clock, store)
	// manage enrolls a tenant with the current plane incarnation; plane
	// and step indirect through the crash runner when chaos is on, so a
	// recovered restart swaps in the rebuilt control plane transparently.
	// Fault-free audits capture the same enrollment-time index baselines
	// the chaos harness does (chaos keeps its own copy inside the harness).
	var auditBaselines map[string]controlplane.InvariantTarget
	if cfg.AuditInvariants && ch == nil {
		auditBaselines = make(map[string]controlplane.InvariantTarget)
	}
	manage := func(tn *workload.Tenant, s controlplane.Settings) {
		if auditBaselines != nil {
			auditBaselines[tn.DB.Name()] = controlplane.InvariantTarget{DB: tn.DB, Baseline: tn.DB.IndexDefs()}
		}
		if ch != nil {
			ch.enroll(tn, s)
			ch.runner.Plane.Manage(tn.DB, "server-0", s)
			return
		}
		cp.Manage(tn.DB, "server-0", s)
	}
	plane := func() *controlplane.ControlPlane {
		if ch != nil {
			return ch.runner.Plane
		}
		return cp
	}
	step := cp.Step
	if ch != nil {
		ch.attach(cp, cfg.Plane, f.Clock)
		step = ch.runner.Step
	}
	autoRNG := f.RNG.Child("ops/auto")
	for _, tn := range f.Tenants {
		auto := autoRNG.Float64() < cfg.AutoImplementFraction
		manage(tn, controlplane.Settings{AutoCreate: auto, AutoDrop: auto})
	}
	// First/last-window per-query costs for the >2x and >50% statistics.
	startCosts := make(map[string]map[uint64]float64)
	startTotal := make(map[string]float64)

	// Per-tenant failover streams (keyed by database name) keep draw
	// sequences independent of worker scheduling; the shared stream the
	// serial harness used would interleave draws in completion order.
	failRNG := make(map[string]*sim.RNG)
	failStream := func(tn *workload.Tenant) *sim.RNG {
		name := tn.DB.Name()
		r, ok := failRNG[name]
		if !ok {
			r = f.tenantStream(tn, "ops/failover")
			failRNG[name] = r
		}
		return r
	}
	for _, tn := range f.Tenants {
		failStream(tn)
	}

	newTenantRNG := f.RNG.Child("ops/new")
	nextNew := time.Duration(0)
	if cfg.NewTenantEvery > 0 {
		nextNew = cfg.NewTenantEvery
	}
	hookCtx := func(hour int) *OpsHookContext {
		return &OpsHookContext{Fleet: f, Hour: hour, Plane: plane(), Store: mem}
	}
	if cfg.Hooks.AfterBuild != nil {
		cfg.Hooks.AfterBuild(hookCtx(-1))
	}
	start := f.Clock.Now()
	hours := cfg.Days * 24
	warmupHours := 24
	for h := 0; h < hours; h++ {
		if cfg.Hooks.BeforeHour != nil {
			cfg.Hooks.BeforeHour(hookCtx(h))
		}
		forEachObserved(f.Metrics, f.spec.Workers, len(f.Tenants), func(i int) {
			tn := f.Tenants[i]
			n := cfg.StatementsPerHour
			if cfg.Hooks.StatementsFor != nil {
				if v := cfg.Hooks.StatementsFor(h, tn.DB.Name()); v >= 0 {
					n = v
				}
			}
			tn.Run(0, n)
			if failRNG[tn.DB.Name()].Float64() < cfg.FailoverProb/24 {
				tn.DB.Failover()
				f.Metrics.Counter(descFailovers).Inc()
			}
		})
		f.Metrics.Counter(descTenantHours).Add(int64(len(f.Tenants)))
		f.Clock.Advance(time.Hour)
		f.alignClocks() // tenants catch up to the region hour tick
		step()
		f.alignClocks() // region catches up to index-build time on tenants
		if h == warmupHours {
			for _, tn := range f.Tenants {
				per, total := windowCosts(tn, start, f.Clock.Now())
				startCosts[tn.DB.Name()] = per
				startTotal[tn.DB.Name()] = total
			}
		}
		if cfg.NewTenantEvery > 0 && f.Clock.Now().Sub(start) >= nextNew {
			nextNew += cfg.NewTenantEvery
			idx := len(f.Tenants)
			clock := sim.NewVirtualClock(f.Clock.Now())
			tn, err := workload.NewTenant(workload.Profile{
				Name:        fmt.Sprintf("db%03d", idx),
				Tier:        engine.TierStandard,
				Seed:        spec.Seed + int64(idx)*7919 + newTenantRNG.Int63n(1<<30),
				Scale:       spec.Scale,
				UserIndexes: spec.UserIndexes,
			}, clock)
			if err == nil {
				auto := autoRNG.Float64() < cfg.AutoImplementFraction
				manage(tn, controlplane.Settings{AutoCreate: auto, AutoDrop: auto})
				f.addTenant(tn, clock)
				failStream(tn)
			}
		}
		if cfg.Hooks.AfterHour != nil {
			cfg.Hooks.AfterHour(hookCtx(h))
		}
	}

	if ch != nil {
		drained := ch.drain(f)
		res := &OpsResult{Stats: plane().OpStats(), Plane: plane()}
		res.Chaos = ch.report(f.Clock.Now(), cfg.Plane, drained)
		res.Audited = true
		res.Violations = res.Chaos.Violations
		res.DrainHours = res.Chaos.DrainHours
		finishOps(f, plane(), res, startCosts, startTotal)
		return res, nil
	}
	res := &OpsResult{Stats: cp.OpStats(), Plane: cp}
	if auditBaselines != nil {
		res.DrainHours = drainInFlight(f, mem, step, 21*24)
		res.Violations = controlplane.CheckInvariants(mem, auditBaselines, cfg.Plane, f.Clock.Now())
		res.Audited = true
		res.Stats = cp.OpStats() // drain steps settle counters
	}
	finishOps(f, cp, res, startCosts, startTotal)
	return res, nil
}

// finishOps computes the end-of-run §8.1 statistics from the last day's
// query-store windows.
func finishOps(f *Fleet, cp *controlplane.ControlPlane, res *OpsResult,
	startCosts map[string]map[uint64]float64, startTotal map[string]float64) {
	lastFrom := f.Clock.Now().Add(-24 * time.Hour)
	for _, tn := range f.Tenants {
		basePer, baseTotal := startCosts[tn.DB.Name()], startTotal[tn.DB.Name()]
		if basePer == nil {
			continue
		}
		endPer, endTotal := windowCosts(tn, lastFrom, f.Clock.Now())
		for q, b := range basePer {
			if e, ok := endPer[q]; ok && e > 0 && b/e > 2 {
				res.QueriesTwiceFaster++
			}
		}
		if baseTotal > 0 && endTotal > 0 && endTotal < baseTotal*0.5 {
			res.DatabasesHalvedCPU++
		}
		if len(cp.ListRecommendations(tn.DB.Name())) == 0 {
			res.SteadyStateDatabases++
		}
	}
}

// windowCosts returns per-query mean CPU and the workload mean CPU per
// statement over a window.
func windowCosts(tn *workload.Tenant, from, to time.Time) (map[uint64]float64, float64) {
	per := make(map[uint64]float64)
	var total, n float64
	qs := tn.DB.QueryStore()
	for _, h := range qs.QueryHashes() {
		if s, ok := qs.QueryWindowSample(h, querystore.MetricCPU, from, to); ok && s.N >= 2 {
			per[h] = s.Mean
			total += s.Mean * float64(s.N)
			n += float64(s.N)
		}
	}
	if n == 0 {
		return per, 0
	}
	return per, total / n
}
