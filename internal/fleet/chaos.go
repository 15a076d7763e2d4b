package fleet

import (
	"fmt"
	"strings"
	"time"

	"autoindex/internal/controlplane"
	"autoindex/internal/faults"
	"autoindex/internal/sim"
	"autoindex/internal/workload"
)

// ChaosConfig turns the operational simulation into a fault-injection
// run: engine DDL failures, control-plane crash/restart cycles and
// thinned query-store windows, all drawn from seeded
// per-scope streams so a chaos run is bit-identical for a given fleet
// seed at any worker count.
type ChaosConfig struct {
	Enabled bool
	// FaultRate is the per-opportunity probability for the engine and
	// query-store fault points.
	FaultRate float64
	// CrashRate is the per-save probability for each control-plane crash
	// point (before- and after-save).
	CrashRate float64
	// MaxDrainHours bounds the post-run drain that lets in-flight records
	// settle before invariants are checked; 0 means a generous default
	// covering the longest validation window plus exhausted retries.
	MaxDrainHours int
}

// DefaultChaosConfig returns moderately hostile rates: most records
// succeed, but every fault point fires many times over a fleet-run.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{Enabled: true, FaultRate: 0.05, CrashRate: 0.02}
}

// ChaosReport summarises what a chaos run injected and what state the
// fleet settled into. All fields are deterministic for a given seed.
type ChaosReport struct {
	// Faults counts fired injections by point (crash points included).
	Faults map[faults.Point]int64
	// Crashes counts control-plane crashes recovered, by point.
	Crashes map[faults.Point]int64
	// Restarts is the total number of control-plane rebuilds.
	Restarts int64
	// DroppedExecutions sums query-store executions lost across tenants.
	DroppedExecutions int64
	// DrainHours is how many post-run hours the drain consumed.
	DrainHours int
	// Violations is the invariant-checker output; empty means the fleet
	// degraded gracefully under the schedule.
	Violations []controlplane.Violation
}

// Format renders the report deterministically, fault points in registry
// order.
func (r *ChaosReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: %d restarts, %d executions dropped, drained %dh\n",
		r.Restarts, r.DroppedExecutions, r.DrainHours)
	for _, line := range faults.FormatFired(r.Faults) {
		fmt.Fprintf(&b, "  fired %s\n", line)
	}
	if len(r.Violations) == 0 {
		b.WriteString("invariants: OK (0 violations)\n")
	} else {
		fmt.Fprintf(&b, "invariants: %d VIOLATIONS\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	return b.String()
}

// chaosHarness wires fault injectors into every layer of a fleet run and
// owns the crash-recovery loop. All of its mutation happens in serial
// sections (tenant enrollment, control-plane steps, drain), so it needs
// no locking; the injectors it hands to parallel tenant code (query-store
// droppers) are internally synchronized and per-tenant.
type chaosHarness struct {
	cfg  ChaosConfig
	seed int64

	mem     controlplane.Store
	wrapped controlplane.Store
	crashIn *faults.Injector

	managed   []*workload.Tenant
	settings  map[string]controlplane.Settings
	baselines map[string]controlplane.InvariantTarget
	engineIns map[string]*faults.Injector
	qsIns     map[string]*faults.Injector

	runner *controlplane.CrashRunner
}

// newChaosHarness builds the harness around the control plane's backing
// store. The fleet seed keys every injector, with one scope per layer and
// per tenant, so adding a tenant or a fault point never perturbs the
// schedules of the others.
func newChaosHarness(cfg ChaosConfig, seed int64, mem controlplane.Store) *chaosHarness {
	ch := &chaosHarness{
		cfg:       cfg,
		seed:      seed,
		mem:       mem,
		settings:  make(map[string]controlplane.Settings),
		baselines: make(map[string]controlplane.InvariantTarget),
		engineIns: make(map[string]*faults.Injector),
		qsIns:     make(map[string]*faults.Injector),
	}
	ch.crashIn = faults.New(seed, "plane", map[faults.Point]float64{
		faults.PlaneCrashBeforeSave: cfg.CrashRate,
		faults.PlaneCrashAfterSave:  cfg.CrashRate,
	})
	ch.wrapped = controlplane.NewCrashStore(mem, ch.crashIn)
	return ch
}

// enroll captures a tenant's index baseline and attaches its engine and
// query-store injectors. Called serially (initial managed set and
// fleet-growth barriers), before the tenant sees any chaos.
func (ch *chaosHarness) enroll(tn *workload.Tenant, s controlplane.Settings) {
	name := tn.DB.Name()
	ch.managed = append(ch.managed, tn)
	ch.settings[name] = s
	ch.baselines[name] = controlplane.InvariantTarget{DB: tn.DB, Baseline: tn.DB.IndexDefs()}

	eng := faults.New(ch.seed, "engine/"+name, map[faults.Point]float64{
		faults.IndexBuildLogFull:     ch.cfg.FaultRate,
		faults.IndexBuildLockTimeout: ch.cfg.FaultRate,
		faults.IndexBuildAbort:       ch.cfg.FaultRate,
		faults.DropLockTimeout:       ch.cfg.FaultRate,
	})
	ch.engineIns[name] = eng
	tn.DB.SetFaultInjector(eng)

	qs := faults.New(ch.seed, "querystore/"+name, map[faults.Point]float64{
		faults.QueryStoreDropExecution: ch.cfg.FaultRate,
	})
	ch.qsIns[name] = qs
	tn.DB.QueryStore().SetDropper(func() bool { return qs.Should(faults.QueryStoreDropExecution) })
}

// attach builds the crash-recovery runner around the initial plane. The
// rebuild closure reconstructs a fresh control plane over the same
// (crash-wrapped) store and the same metrics registry (planeCfg.Metrics),
// and re-Manages every enrolled tenant — exactly the restart-time
// recovery path through the persistence layer.
func (ch *chaosHarness) attach(cp *controlplane.ControlPlane, planeCfg controlplane.Config, clock sim.Clock) {
	ch.runner = controlplane.NewCrashRunner(cp, func() *controlplane.ControlPlane {
		np := controlplane.New(planeCfg, clock, ch.wrapped)
		for _, tn := range ch.managed {
			np.Manage(tn.DB, "server-0", ch.settings[tn.DB.Name()])
		}
		return np
	})
}

// disable turns every injector off (they keep consuming draws, so a drain
// does not shift schedules relative to a hypothetical longer run).
func (ch *chaosHarness) disable() {
	ch.crashIn.Disable()
	for _, in := range ch.engineIns {
		in.Disable()
	}
	for _, in := range ch.qsIns {
		in.Disable()
	}
}

// inFlight reports whether any record is mid-flight (neither terminal nor
// waiting in Active).
func (ch *chaosHarness) inFlight() bool {
	return len(ch.mem.Records(func(r *controlplane.Record) bool {
		return !r.State.Terminal() && r.State != controlplane.StateActive
	})) > 0
}

// freezeAnalysis pushes every database's analysis and drop-scan
// timestamps to now so the drain settles existing records without
// generating new recommendations.
func (ch *chaosHarness) freezeAnalysis(now time.Time) {
	for _, ds := range ch.mem.Databases() {
		ds.LastAnalysis = now
		ds.LastDropScan = now
		ch.mem.SaveDatabase(ds)
	}
}

// drain disables injection and steps the fleet hour by hour until no
// record is mid-flight (or the drain budget runs out — the invariant
// checker then reports the survivors as violations). Returns the hours
// consumed.
func (ch *chaosHarness) drain(f *Fleet) int {
	ch.disable()
	max := ch.cfg.MaxDrainHours
	if max <= 0 {
		// ValidationWindow (hours) + exhausted exponential retries + stuck
		// sweeps comfortably fit in three weeks of virtual time.
		max = 21 * 24
	}
	return drainInFlight(f, ch.mem, ch.runner.Step, max)
}

// report collects injector counters and runs the invariant checker.
// Callers must have every enrolled tenant materialized (rehydrated) at
// call time: the invariant checker audits live engine catalogs and the
// drop counters read live query stores.
func (ch *chaosHarness) report(now time.Time, planeCfg controlplane.Config, drained int) *ChaosReport {
	rep := &ChaosReport{
		Faults:     make(map[faults.Point]int64),
		Crashes:    ch.runner.Crashes,
		DrainHours: drained,
	}
	faults.MergeFired(rep.Faults, ch.crashIn.Fired())
	for _, in := range ch.engineIns {
		faults.MergeFired(rep.Faults, in.Fired())
	}
	for _, in := range ch.qsIns {
		faults.MergeFired(rep.Faults, in.Fired())
	}
	for _, c := range rep.Crashes {
		rep.Restarts += c
	}
	for _, tn := range ch.managed {
		rep.DroppedExecutions += tn.DB.QueryStore().DroppedExecutions()
	}
	rep.Violations = controlplane.CheckInvariants(ch.mem, ch.baselines, planeCfg, now)
	return rep
}
