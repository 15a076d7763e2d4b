// Package faults is the deterministic fault-injection layer behind the
// chaos fleet mode. The paper's service is judged on how it degrades, not
// just how it performs: index builds run out of log space, schema locks
// time out, the control plane dies between state-machine transitions, and
// Query Store loses data (§4, §6, §8.3). This package names
// those failure sites as fault points and decides, from seeded streams,
// when each one fires.
//
// The design contract matches the parallel fleet harness: a fault
// schedule is a pure function of (seed, scope, point), independent of
// worker count or goroutine scheduling. Every point draws from its own
// child RNG stream, so changing one point's rate — or adding a new point —
// never perturbs the draws any other point sees. Injectors are nil-safe:
// a nil *Injector never fires, so production paths carry no chaos cost
// beyond one pointer check.
package faults

import (
	"fmt"
	"sort"
	"sync"

	"autoindex/internal/sim"
)

// Point names one fault-injection site. The string doubles as the child
// RNG stream key, so renaming a point changes its schedule.
type Point string

// The fault-point registry. Engine points fail index DDL with the same
// error classes real builds produce; control-plane points kill the
// process at persistence boundaries; the query-store point loses the
// execution data the validator depends on.
const (
	// IndexBuildLogFull fails an index build with engine.ErrLogFull, as a
	// log-growth race would even for builds that checked space up front.
	IndexBuildLogFull Point = "engine/index-build/log-full"
	// IndexBuildLockTimeout fails an index build with
	// engine.ErrLockTimeout before the build starts.
	IndexBuildLockTimeout Point = "engine/index-build/lock-timeout"
	// IndexBuildAbort aborts an online index build mid-flight with
	// engine.ErrBuildAborted (§8.3's interrupted online builds).
	IndexBuildAbort Point = "engine/index-build/abort"
	// DropLockTimeout fails a low-priority index drop with
	// engine.ErrLockTimeout after burning its lock-wait budget.
	DropLockTimeout Point = "engine/drop-index/lock-timeout"
	// PlaneCrashBeforeSave kills the control plane just before a record
	// write is persisted: the state-machine transition is lost and the
	// restarted plane must rediscover and redo the step.
	PlaneCrashBeforeSave Point = "controlplane/crash-before-save"
	// PlaneCrashAfterSave kills the control plane just after a record
	// write is persisted: the transition survives but all in-memory state
	// (recommender snapshots, classifier) is lost.
	PlaneCrashAfterSave Point = "controlplane/crash-after-save"
	// QueryStoreDropExecution loses one statement execution before Query
	// Store aggregates it, thinning or emptying validation windows.
	QueryStoreDropExecution Point = "querystore/drop-execution"
)

// PointInfo documents one registered fault point.
type PointInfo struct {
	Point       Point
	Description string
}

// Points returns the full fault-point registry in stable order. Docs and
// the chaos report iterate it so every point is accounted for.
func Points() []PointInfo {
	return []PointInfo{
		{IndexBuildLogFull, "index build fails with ErrLogFull (transient, retried with backoff)"},
		{IndexBuildLockTimeout, "index build fails with ErrLockTimeout (transient, retried with backoff)"},
		{IndexBuildAbort, "online index build aborted mid-flight with ErrBuildAborted (transient)"},
		{DropLockTimeout, "low-priority index drop times out with ErrLockTimeout (transient)"},
		{PlaneCrashBeforeSave, "control plane dies before persisting a record transition (transition lost)"},
		{PlaneCrashAfterSave, "control plane dies after persisting a record transition (memory lost)"},
		{QueryStoreDropExecution, "statement execution lost before Query Store aggregation"},
	}
}

// Crash is the panic value thrown at control-plane crash points. Chaos
// harnesses recover it, discard the dead control plane, and rebuild one
// from the persisted store — any other panic value keeps propagating.
type Crash struct {
	Point Point
}

// String describes the crash.
func (c Crash) String() string { return fmt.Sprintf("injected crash at %s", c.Point) }

// Injector decides when each fault point fires. One injector covers one
// scope — a tenant database, or the control plane — and derives one RNG
// stream per point from (seed, scope, point), so schedules are
// bit-identical for a given seed regardless of what other scopes or
// points do. All methods are safe for concurrent use and nil-safe.
type Injector struct {
	seed  int64
	scope string

	mu       sync.Mutex
	rates    map[Point]float64
	streams  map[Point]*sim.RNG
	fired    map[Point]int64
	disabled bool
}

// New returns an injector for a scope. rates maps each point to its
// per-draw firing probability; points absent from the map never fire and
// never consume randomness.
func New(seed int64, scope string, rates map[Point]float64) *Injector {
	in := &Injector{
		seed:    seed,
		scope:   scope,
		rates:   make(map[Point]float64, len(rates)),
		streams: make(map[Point]*sim.RNG, len(rates)),
		fired:   make(map[Point]int64),
	}
	for p, r := range rates {
		in.rates[p] = r
	}
	return in
}

// Scope returns the injector's scope label.
func (in *Injector) Scope() string {
	if in == nil {
		return ""
	}
	return in.scope
}

// Should reports whether point p fires on this draw. Each call with a
// configured rate consumes exactly one draw from p's private stream, so
// the k-th decision at a point is a pure function of (seed, scope, p, k).
func (in *Injector) Should(p Point) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	rate, ok := in.rates[p]
	if !ok || rate <= 0 || in.disabled {
		// Disabled injectors still consume draws for configured points so
		// that a drain phase does not shift the schedule of a later
		// re-enable; unconfigured points never consume.
		if ok && rate > 0 {
			in.stream(p).Float64()
		}
		return false
	}
	if in.stream(p).Float64() >= rate {
		return false
	}
	in.fired[p]++
	return true
}

// stream returns (creating on demand) the point's private stream. Caller
// holds in.mu.
func (in *Injector) stream(p Point) *sim.RNG {
	s, ok := in.streams[p]
	if !ok {
		s = sim.NewRNG(sim.DeriveSeed(sim.DeriveSeed(in.seed, "faults/"+in.scope), string(p)))
		in.streams[p] = s
	}
	return s
}

// Disable stops all points from firing (draws still advance; see Should).
// Chaos harnesses disable injection for the drain phase that lets
// in-flight records converge before invariants are checked.
func (in *Injector) Disable() {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.disabled = true
	in.mu.Unlock()
}

// Enable re-allows firing after Disable.
func (in *Injector) Enable() {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.disabled = false
	in.mu.Unlock()
}

// Fired returns a copy of the per-point fired counters.
func (in *Injector) Fired() map[Point]int64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Point]int64, len(in.fired))
	for p, n := range in.fired {
		out[p] = n
	}
	return out
}

// TotalFired sums the fired counters.
func (in *Injector) TotalFired() int64 {
	var total int64
	for _, n := range in.Fired() {
		total += n
	}
	return total
}

// MergeFired accumulates src's per-point counts into dst (allocating dst
// if nil) and returns it. Chaos reports merge per-tenant injectors in
// tenant order, keeping the aggregate deterministic.
func MergeFired(dst map[Point]int64, src map[Point]int64) map[Point]int64 {
	if dst == nil {
		dst = make(map[Point]int64, len(src))
	}
	for p, n := range src {
		dst[p] += n
	}
	return dst
}

// FormatFired renders fired counts as "point=n" lines in registry order,
// listing only points that fired at least once.
func FormatFired(fired map[Point]int64) []string {
	known := make(map[Point]bool)
	var out []string
	for _, pi := range Points() {
		known[pi.Point] = true
		if n := fired[pi.Point]; n > 0 {
			out = append(out, fmt.Sprintf("%s=%d", pi.Point, n))
		}
	}
	// Unregistered points (future additions) still render, sorted.
	var extra []string
	for p, n := range fired {
		if !known[p] && n > 0 {
			extra = append(extra, fmt.Sprintf("%s=%d", p, n))
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}
