package scenario

import (
	"fmt"
	"hash/fnv"
	"strings"

	"autoindex/internal/controlplane"
	"autoindex/internal/fleet"
)

// Options selects the knobs a scenario run exposes to callers. Seed and
// Chaos are part of the determinism contract; Workers is explicitly not
// (results are byte-identical at any value).
type Options struct {
	// Seed is the base seed; each scenario derives its own fleet seed
	// from it (see deriveSeed) so scenarios never share RNG schedules.
	Seed int64
	// Workers sizes the fleet worker pool; <= 0 means one per CPU.
	Workers int
	// Chaos additionally runs the scenario under the default
	// fault-injection schedule (engine DDL failures, control-plane
	// crashes, lossy Query Store).
	Chaos bool
}

// Result is one scenario run's outcome: the machine-checkable verdict
// and a human-readable report (which embeds the verdict rendering).
type Result struct {
	Verdict Verdict
	Report  string
}

// Scenario is one pluggable adversarial generator.
type Scenario interface {
	// Name is the stable registry key (also the CI matrix entry).
	Name() string
	// Describe says what the scenario attacks in one line.
	Describe() string
	// Run executes the scenario and renders its verdict.
	Run(opts Options) (*Result, error)
}

// All returns the registry in fixed order — the order verdicts appear
// in reports, JSON files and the CI matrix.
func All() []Scenario {
	return []Scenario{driftScenario{}, migrationScenario{}, burstScenario{}, neighborScenario{}}
}

// Names lists the registry keys in registry order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.Name()
	}
	return out
}

// Get finds a scenario by name (case-insensitive).
func Get(name string) (Scenario, bool) {
	for _, s := range All() {
		if strings.EqualFold(s.Name(), name) {
			return s, true
		}
	}
	return nil, false
}

// deriveSeed keys a scenario's fleet off the base seed and the scenario
// name, so every scenario sees an independent fleet and adding a
// scenario never perturbs the others' schedules.
func deriveSeed(base int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	s := base ^ int64(h.Sum64()&0x7fffffffffffffff)
	if s == 0 {
		s = 1
	}
	return s
}

// runConfig shapes one scenario fleet run. Scenarios keep fleets small
// (three mixed-tier tenants, sub-scale data) so the whole pack fits the
// PR-path CI budget; the adversarial pressure comes from the hooks, not
// from scale.
type runConfig struct {
	databases         int
	days              int
	statementsPerHour int
	hooks             fleet.OpsHooks
	// tunePlane adjusts the control-plane config (dropper staleness
	// window, forced recommender policy, ...) before the run.
	tunePlane func(*controlplane.Config)
}

// runFleet builds and drives one audited fleet run for a scenario. Every
// run captures enrollment-time index baselines, drains in-flight records
// after the last hour, and checks the state-machine invariants — the
// chaos harness's discipline, applied to fault-free runs too.
func runFleet(opts Options, seed int64, rc runConfig) (*fleet.Fleet, *fleet.OpsResult, error) {
	spec := fleet.Spec{
		Databases:   rc.databases,
		MixedTiers:  true,
		Seed:        seed,
		Scale:       0.75,
		UserIndexes: true,
		Workers:     opts.Workers,
	}
	f, err := fleet.Build(spec)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: building fleet: %w", err)
	}
	cfg := fleet.DefaultOpsConfig()
	cfg.Days = rc.days
	cfg.StatementsPerHour = rc.statementsPerHour
	// Every database auto-implements: scenarios measure the pipeline,
	// not the opt-in rate, and failovers stay out of the way so the only
	// adversity is the scenario's own.
	cfg.AutoImplementFraction = 1
	cfg.FailoverProb = 0
	cfg.AuditInvariants = true
	cfg.Hooks = rc.hooks
	if opts.Chaos {
		cfg.Chaos = fleet.DefaultChaosConfig()
	}
	if rc.tunePlane != nil {
		rc.tunePlane(&cfg.Plane)
	}
	res, err := f.RunOps(spec, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: ops run: %w", err)
	}
	return f, res, nil
}

// auditChecks appends the two checks every scenario shares: the
// state-machine invariants held after the drain, and the drain itself
// converged within budget (in-flight records settled instead of
// wedging).
func auditChecks(v *Verdict, res *fleet.OpsResult) {
	v.check("invariants-clean", len(res.Violations) == 0,
		"%d violations after drain", len(res.Violations))
	v.check("drained", res.DrainHours < 21*24,
		"in-flight records settled in %dh", res.DrainHours)
}

// newVerdict starts a verdict for one scenario run.
func newVerdict(name string, opts Options) Verdict {
	return Verdict{Scenario: name, Seed: opts.Seed, Chaos: opts.Chaos}
}

// storeRecords filters the run's record store.
func storeRecords(res *fleet.OpsResult, pred func(*controlplane.Record) bool) []*controlplane.Record {
	return res.Plane.StateStore().Records(pred)
}
