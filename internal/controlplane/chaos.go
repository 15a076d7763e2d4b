package controlplane

import (
	"autoindex/internal/faults"
)

// CrashStore wraps a Store and, driven by a fault injector, panics with a
// faults.Crash at the two interesting instants around a record save:
//
//   - before-save: the control plane decided on a transition but the
//     decision never reached durable storage — on restart the transition
//     is lost and must be re-derived.
//   - after-save: the transition is durable but everything the control
//     plane did afterwards in that step (in-memory bookkeeping, counters,
//     follow-on work) is lost.
//
// Record saves are the only crash points because they are the state
// machine's commit points (§4): every transition funnels through
// SaveRecord, so crashing around it exercises a crash between any two
// state-machine transitions. The panic is caught by CrashRunner, which
// rebuilds a fresh control plane over the same underlying Store —
// simulating a service restart that recovers via the persistence layer.
type CrashStore struct {
	Store
	injector *faults.Injector
}

// NewCrashStore wraps inner so saves may crash per the injector's
// schedule. A nil injector yields a transparent wrapper.
func NewCrashStore(inner Store, in *faults.Injector) *CrashStore {
	return &CrashStore{Store: inner, injector: in}
}

// SaveRecord persists the record, possibly crashing before or after the
// write. The two points draw from independent streams, so a fired
// before-save (which skips the write and the after-save draw) never
// shifts the after-save schedule of later saves.
func (s *CrashStore) SaveRecord(r *Record) error {
	if s.injector.Should(faults.PlaneCrashBeforeSave) {
		panic(faults.Crash{Point: faults.PlaneCrashBeforeSave})
	}
	err := s.Store.SaveRecord(r)
	if err == nil && s.injector.Should(faults.PlaneCrashAfterSave) {
		panic(faults.Crash{Point: faults.PlaneCrashAfterSave})
	}
	return err
}

// CrashRunner drives a control plane whose Store may panic with
// faults.Crash, recovering each crash by rebuilding the plane from the
// surviving Store — the moral equivalent of the service process dying and
// the fleet infrastructure restarting it (§3's "fault-tolerant by
// design": state lives in persisted storage, compute is disposable).
type CrashRunner struct {
	// Plane is the current incarnation of the control plane.
	Plane *ControlPlane
	// Rebuild constructs the next incarnation after a crash. It must
	// attach the same underlying Store (typically via another CrashStore)
	// and re-Manage the same databases, mirroring restart-time recovery
	// through persist.go.
	Rebuild func() *ControlPlane
	// Crashes counts recovered crashes by point.
	Crashes map[faults.Point]int64
	// MaxRestarts bounds successive crash-recover cycles within a single
	// Step call (a safety valve against a pathological schedule that
	// crashes every attempt; 0 means a generous default).
	MaxRestarts int
}

// NewCrashRunner returns a runner over plane, rebuilding with rebuild.
func NewCrashRunner(plane *ControlPlane, rebuild func() *ControlPlane) *CrashRunner {
	return &CrashRunner{Plane: plane, Rebuild: rebuild, Crashes: make(map[faults.Point]int64)}
}

// Step runs one control-plane step, recovering any crashes by rebuilding
// the plane and retrying until a step completes without crashing.
func (r *CrashRunner) Step() { r.StepFor(nil) }

// StepFor is Step over a filtered control-plane step (see
// ControlPlane.StepFor), with the same crash-recovery loop. The scale
// harness drives chaos runs through it so only resident tenants are
// stepped even across crash/rebuild cycles.
func (r *CrashRunner) StepFor(include func(string) bool) {
	max := r.MaxRestarts
	if max <= 0 {
		max = 1000
	}
	for i := 0; i <= max; i++ {
		if r.tryStep(include) {
			return
		}
		r.Plane = r.Rebuild()
		// The rebuilt incarnation shares the previous one's registry
		// (via Config.Metrics), so recoveries accumulate across restarts.
		r.Plane.reg.Counter(descCrashRecoveries).Inc()
	}
	panic("controlplane: CrashRunner exceeded restart budget in one step")
}

// tryStep runs one step, converting a faults.Crash panic into a false
// return. Any other panic propagates: chaos mode must not paper over a
// genuine bug.
func (r *CrashRunner) tryStep(include func(string) bool) (completed bool) {
	defer func() {
		if rec := recover(); rec != nil {
			c, ok := rec.(faults.Crash)
			if !ok {
				panic(rec)
			}
			r.Crashes[c.Point]++
			completed = false
		}
	}()
	r.Plane.stepFiltered(include)
	return true
}
