package fleet

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"autoindex/internal/controlplane"
	"autoindex/internal/engine"
	"autoindex/internal/metrics"
	"autoindex/internal/sim"
	"autoindex/internal/workload"
)

// Scale mode: run 100k–1M tenants on one machine.
//
// Three mechanisms make a fleet that large fit, none of which may disturb
// the determinism contract (byte-identical output at any -workers, with or
// without -chaos, under any hibernation pressure):
//
//   - Archetypes. Tenants are stamped from a handful of templates; schema
//     definitions, base rows and histograms are physically shared
//     copy-on-write (engine.SharedCatalog), so per-tenant cost is the
//     tenant's own tree nodes and deltas, not its data.
//
//   - Hibernation. An LRU cap (-resident-tenants) bounds how many tenants
//     stay fully materialized between barriers; the rest serialize to a
//     compact snapshot (hibernate.go) and rebuild in place on their next
//     active hour. Because which tenants get *stepped* each hour is a pure
//     function of the activity model and the persisted recommendation
//     records — never of residency — a run under heavy hibernation churn
//     produces the same bytes as one that never hibernates.
//
//   - Streaming reports. A tenant that has passed its last active hour and
//     holds no live recommendation emits its result line immediately and
//     is freed, so a long run's memory tracks the resident set, not the
//     completed population.

// ScaleSpec configures a scale-mode run.
type ScaleSpec struct {
	// Tenants is the nominal fleet size. Tenants the activity model never
	// wakes are never constructed and cost ~100 bytes each.
	Tenants int
	// Hours is the virtual run length.
	Hours int
	// Archetypes is the number of distinct tenant templates.
	Archetypes int
	Seed       int64
	// Scale multiplies archetype data sizes (1.0 = test-friendly default).
	Scale float64
	// ActiveFraction is the per-tenant per-hour probability of replaying
	// workload, decided by a pure hash of (seed, tenant, hour).
	ActiveFraction float64
	// StatementsPerHour per active tenant.
	StatementsPerHour int
	// ResidentTenants caps how many tenants stay materialized across a
	// barrier; <= 0 means unlimited (hibernation never triggers).
	ResidentTenants int
	// AutoImplementFraction of tenants have auto-implementation on.
	AutoImplementFraction float64
	// UserIndexes stamps the archetypes' "user tuned" indexes onto tenants.
	UserIndexes bool
	// Workers sizes the tenant worker pool; <= 0 means one per CPU.
	// Results do not depend on the value.
	Workers int
	Plane   controlplane.Config
	Chaos   ChaosConfig
	// Stream receives one line per completed tenant, emitted at the hour
	// barrier where the tenant finishes; nil discards them.
	Stream io.Writer
}

// DefaultScaleSpec returns a scale-mode configuration.
func DefaultScaleSpec(tenants, hours int) ScaleSpec {
	return ScaleSpec{
		Tenants:               tenants,
		Hours:                 hours,
		Archetypes:            4,
		Seed:                  20170301,
		Scale:                 1.0,
		ActiveFraction:        0.05,
		StatementsPerHour:     10,
		AutoImplementFraction: 0.5,
		UserIndexes:           true,
		Plane:                 controlplane.DefaultConfig(),
	}
}

// ScaleResult summarizes a scale run. Report() renders only the
// residency-independent portion — the bytes that must match across
// -workers and -resident-tenants settings; the residency counters
// (Hibernations, Rehydrations, PeakResident, PeakHeapBytes) measure the
// memory machinery itself and legitimately vary with the cap.
type ScaleResult struct {
	Tenants     int
	EverActive  int
	TenantHours int64
	Statements  int64
	Completed   int
	DrainHours  int

	Hibernations  int64
	Rehydrations  int64
	SnapshotBytes int64
	PeakResident  int
	PeakHeapBytes uint64

	Stats   controlplane.OperationalStats
	Chaos   *ChaosReport
	Metrics *metrics.Registry
}

// Report renders the deterministic summary block: identical bytes at any
// -workers count and any -resident-tenants cap for the same seed/flags.
func (r *ScaleResult) Report() string {
	s := r.Stats
	var b strings.Builder
	b.WriteString("fleet scale run:\n")
	fmt.Fprintf(&b, "  tenants (nominal / ever active):   %d / %d\n", r.Tenants, r.EverActive)
	fmt.Fprintf(&b, "  tenant-hours replayed:             %d\n", r.TenantHours)
	fmt.Fprintf(&b, "  statements replayed:               %d\n", r.Statements)
	fmt.Fprintf(&b, "  tenants completed (streamed):      %d\n", r.Completed)
	fmt.Fprintf(&b, "  create / drop recommendations:     %d / %d\n", s.CreateRecommended, s.DropRecommended)
	fmt.Fprintf(&b, "  indexes auto-created / dropped:    %d / %d\n", s.CreatesImplemented, s.DropsImplemented)
	fmt.Fprintf(&b, "  validations / reverts:             %d / %d\n", s.Validations, s.Reverts)
	fmt.Fprintf(&b, "  incidents:                         %d\n", s.Incidents)
	return b.String()
}

// ResidencyReport renders the residency counters. These depend on
// -resident-tenants (and PeakHeapBytes on the host), so the fleetsim
// binary prints them to stderr, next to the phase timers.
func (r *ScaleResult) ResidencyReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "residency: peak %d resident, %d hibernations, %d rehydrations, %d snapshot bytes, peak heap %d bytes\n",
		r.PeakResident, r.Hibernations, r.Rehydrations, r.SnapshotBytes, r.PeakHeapBytes)
	return b.String()
}

// tenantPhase is a scale tenant's residency state.
type tenantPhase uint8

const (
	// phaseCold tenants were never constructed (no activity yet).
	phaseCold tenantPhase = iota
	// phaseResident tenants are fully materialized.
	phaseResident
	// phaseHibernated tenants live as one snapshot blob plus shells.
	phaseHibernated
	// phaseDone tenants finished (streamed their line) and were freed.
	phaseDone
)

// scaleTenant is the harness's per-tenant bookkeeping: ~100 bytes while
// cold or done, a snapshot blob while hibernated, a full tenant while
// resident.
type scaleTenant struct {
	name string
	seed int64
	arch *workload.Archetype
	auto bool

	phase    tenantPhase
	tn       *workload.Tenant
	clock    *sim.VirtualClock
	snapshot []byte

	// lastActive is the most recent hour the tenant replayed workload
	// (the LRU eviction key); finalHour is the last hour the activity
	// model will ever wake it (-1: never).
	lastActive int
	finalHour  int

	activeHours int
}

// activeAt decides whether a tenant replays workload in a given hour. It
// is a pure function of (fleet seed, tenant name, hour) — no RNG object,
// no consumed state — so 100k tenants times hundreds of hours cost one
// short hash chain each, any tenant's schedule can be (re)computed at any
// time (the streaming reporter precomputes each tenant's final hour), and
// the answer can never depend on residency or worker scheduling. The mix
// is FNV-64a over the name folded with splitmix64 finalizers.
func activeAt(seed int64, name string, hour int, fraction float64) bool {
	if fraction >= 1 {
		return true
	}
	if fraction <= 0 {
		return false
	}
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	h ^= uint64(hour) * 0xff51afd7ed558ccd
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11)/(1<<53) < fraction
}

// scaleRun is the in-flight state of RunScale.
type scaleRun struct {
	spec    ScaleSpec
	region  *sim.VirtualClock
	reg     *metrics.Registry
	tenants []*scaleTenant
	stream  io.Writer

	cp *controlplane.ControlPlane
	ch *chaosHarness

	res *ScaleResult
}

func (s *scaleRun) plane() *controlplane.ControlPlane {
	if s.ch != nil {
		return s.ch.runner.Plane
	}
	return s.cp
}

func (s *scaleRun) stepFor(include func(string) bool) {
	if s.ch != nil {
		s.ch.runner.StepFor(include)
		return
	}
	s.cp.StepFor(include)
}

func (s *scaleRun) manage(tn *workload.Tenant, set controlplane.Settings) {
	if s.ch != nil {
		s.ch.enroll(tn, set)
		s.ch.runner.Plane.Manage(tn.DB, "server-0", set)
		return
	}
	s.cp.Manage(tn.DB, "server-0", set)
}

// align advances the region clock and every resident tenant clock to the
// fleet-wide maximum. Hibernated and cold tenants need no alignment: a
// hibernated clock was aligned at its last barrier and the region clock
// only moves forward, so AdvanceTo(region.Now()) at rehydration lands it
// exactly where continuous alignment would have.
func (s *scaleRun) align() {
	max := s.region.Now()
	for _, st := range s.tenants {
		if st.phase == phaseResident {
			if t := st.clock.Now(); t.After(max) {
				max = t
			}
		}
	}
	s.region.AdvanceTo(max)
	for _, st := range s.tenants {
		if st.phase == phaseResident {
			st.clock.AdvanceTo(max)
		}
	}
}

// parkResidents parks every resident tenant's engine. Running at every
// barrier — pressured or not — is what lets a rehydrated tenant match its
// never-hibernated twin: both cross each barrier with an empty plan-cost
// cache and expired lock leases, so neither carries state a snapshot
// would have to capture.
func (s *scaleRun) parkResidents() {
	for _, st := range s.tenants {
		if st.phase == phaseResident {
			st.tn.DB.Park()
		}
	}
}

// materialize brings every tenant in need (indices into s.tenants, cold or
// hibernated) to resident, in parallel, then registers newly constructed
// tenants with the control plane serially in tenant order.
func (s *scaleRun) materialize(need []int) error {
	type slot struct {
		built bool
		err   error
	}
	slots := make([]slot, len(need))
	regionNow := s.region.Now()
	rehydrated := int64(0)
	for _, i := range need {
		if s.tenants[i].phase == phaseHibernated {
			rehydrated++
		}
	}
	forEach(s.spec.Workers, len(need), func(k int) {
		st := s.tenants[need[k]]
		switch st.phase {
		case phaseCold:
			clock := sim.NewVirtualClock(regionNow)
			tn, err := workload.NewTenantFromArchetype(st.arch, st.name, st.seed, clock)
			if err != nil {
				slots[k].err = fmt.Errorf("fleet: stamping tenant %s: %w", st.name, err)
				return
			}
			tn.DB.SetMetrics(s.reg)
			st.tn, st.clock = tn, clock
			st.phase = phaseResident
			slots[k].built = true
		case phaseHibernated:
			if err := rehydrateTenant(st.tn, st.snapshot); err != nil {
				slots[k].err = fmt.Errorf("fleet: rehydrating tenant %s: %w", st.name, err)
				return
			}
			st.snapshot = nil
			st.clock.AdvanceTo(regionNow)
			st.phase = phaseResident
		}
	})
	for k, sl := range slots {
		if sl.err != nil {
			return sl.err
		}
		if sl.built {
			st := s.tenants[need[k]]
			s.manage(st.tn, controlplane.Settings{AutoCreate: st.auto, AutoDrop: st.auto})
			s.res.EverActive++
		}
	}
	s.res.Rehydrations += rehydrated
	s.reg.Counter(descRehydrations).Add(rehydrated)
	return nil
}

// sweepDone emits the streaming line for every resident tenant that has
// passed its final active hour and holds no live recommendation, then
// frees it. In chaos mode the freed state is kept as a snapshot so the
// end-of-run invariant checker can audit the tenant's catalog.
func (s *scaleRun) sweepDone(hour int, openAfter map[string]bool) {
	for _, st := range s.tenants {
		if st.phase != phaseResident || st.finalHour > hour || openAfter[st.name] {
			continue
		}
		recs := len(s.plane().ListRecommendations(st.tn.DB.Name()))
		fmt.Fprintf(s.stream, "tenant %s done hour=%d archetype=%s active_hours=%d recommendations=%d indexes=%d\n",
			st.name, hour, st.arch.Name, st.activeHours, recs, len(st.tn.DB.IndexDefs()))
		if s.ch != nil {
			// The invariant checker will need the catalog back.
			st.snapshot = hibernateTenant(st.tn)
		}
		st.tn.Release()
		st.phase = phaseDone
		s.res.Completed++
	}
}

// evict hibernates least-recently-active resident tenants until the
// resident count fits the cap. Tenants with live recommendation records
// are skipped — they would be rehydrated next hour anyway — so the cap is
// soft by the number of in-flight state machines. Victim selection is
// serial and keyed by (lastActive, tenant index); the snapshot work fans
// out across the worker pool.
func (s *scaleRun) evict(openAfter map[string]bool) {
	cap := s.spec.ResidentTenants
	if cap <= 0 {
		return
	}
	var resident []int
	for i, st := range s.tenants {
		if st.phase == phaseResident {
			resident = append(resident, i)
		}
	}
	if len(resident) <= cap {
		return
	}
	sort.Slice(resident, func(a, b int) bool {
		ta, tb := s.tenants[resident[a]], s.tenants[resident[b]]
		if ta.lastActive != tb.lastActive {
			return ta.lastActive < tb.lastActive
		}
		return resident[a] < resident[b]
	})
	var victims []int
	excess := len(resident) - cap
	for _, i := range resident {
		if len(victims) == excess {
			break
		}
		if openAfter[s.tenants[i].name] {
			continue
		}
		victims = append(victims, i)
	}
	forEach(s.spec.Workers, len(victims), func(k int) {
		st := s.tenants[victims[k]]
		st.snapshot = hibernateTenant(st.tn)
		st.tn.Release()
		st.phase = phaseHibernated
	})
	bytes := int64(0)
	for _, i := range victims {
		bytes += int64(len(s.tenants[i].snapshot))
	}
	s.res.Hibernations += int64(len(victims))
	s.res.SnapshotBytes += bytes
	s.reg.Counter(descHibernations).Add(int64(len(victims)))
	s.reg.Counter(descSnapshotBytes).Add(bytes)
}

// observeResidency updates the resident gauge and the peak trackers.
func (s *scaleRun) observeResidency() {
	n := 0
	for _, st := range s.tenants {
		if st.phase == phaseResident {
			n++
		}
	}
	s.reg.Gauge(descResidentTenants).Set(int64(n))
	if n > s.res.PeakResident {
		s.res.PeakResident = n
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > s.res.PeakHeapBytes {
		s.res.PeakHeapBytes = ms.HeapAlloc
	}
}

// RunScale executes a scale-mode fleet run. Tenants are stamped lazily
// from shared archetypes on first activity, replay in parallel across the
// worker pool during active hours, hibernate under resident-set pressure,
// and stream their result line the barrier they complete.
func RunScale(spec ScaleSpec) (*ScaleResult, error) {
	if spec.Tenants <= 0 || spec.Hours <= 0 {
		return nil, fmt.Errorf("fleet: scale run needs tenants and hours")
	}
	if spec.Archetypes <= 0 {
		spec.Archetypes = 1
	}
	if spec.Stream == nil {
		spec.Stream = io.Discard
	}
	reg := spec.Plane.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
		spec.Plane.Metrics = reg
	}

	// Archetype templates: built once each on throwaway clocks, then only
	// their harvested shared state survives.
	archs := make([]*workload.Archetype, spec.Archetypes)
	for a := range archs {
		tier := engine.TierStandard
		switch a % 4 {
		case 2:
			tier = engine.TierBasic
		case 3:
			tier = engine.TierPremium
		}
		p := workload.Profile{
			Name:        fmt.Sprintf("arch%02d", a),
			Tier:        tier,
			Seed:        spec.Seed + int64(a)*104729,
			Scale:       spec.Scale,
			UserIndexes: spec.UserIndexes,
		}
		arch, err := workload.NewArchetype(p, sim.NewClock())
		if err != nil {
			return nil, fmt.Errorf("fleet: archetype %d: %w", a, err)
		}
		archs[a] = arch
	}

	s := &scaleRun{
		spec:   spec,
		region: sim.NewClock(),
		reg:    reg,
		stream: spec.Stream,
		res:    &ScaleResult{Tenants: spec.Tenants, Metrics: reg},
	}
	autoRNG := sim.NewRNG(spec.Seed).Child("scale/auto")
	s.tenants = make([]*scaleTenant, spec.Tenants)
	for i := range s.tenants {
		name := fmt.Sprintf("t%07d", i)
		st := &scaleTenant{
			name:       name,
			seed:       spec.Seed + int64(i)*7919,
			arch:       archs[i%len(archs)],
			auto:       autoRNG.Float64() < spec.AutoImplementFraction,
			lastActive: -1,
			finalHour:  -1,
		}
		for h := spec.Hours - 1; h >= 0; h-- {
			if activeAt(spec.Seed, name, h, spec.ActiveFraction) {
				st.finalHour = h
				break
			}
		}
		s.tenants[i] = st
	}

	mem := controlplane.NewMemStore()
	var store controlplane.Store = mem
	if spec.Chaos.Enabled {
		s.ch = newChaosHarness(spec.Chaos, spec.Seed, mem)
		store = s.ch.wrapped
	}
	s.cp = controlplane.New(spec.Plane, s.region, store)
	if s.ch != nil {
		s.ch.attach(s.cp, spec.Plane, s.region)
	}

	for h := 0; h < spec.Hours; h++ {
		// The stepped set for this hour: active tenants plus tenants whose
		// recommendation records are still live. Both inputs are
		// residency-independent, so so is everything downstream.
		openBefore := s.plane().DatabasesWithOpenRecords()
		var active, need []int
		for i, st := range s.tenants {
			isActive := st.finalHour >= h && activeAt(spec.Seed, st.name, h, spec.ActiveFraction)
			if isActive {
				active = append(active, i)
			}
			if (isActive || (openBefore[st.name] && st.phase != phaseCold && st.phase != phaseDone)) &&
				st.phase != phaseResident {
				need = append(need, i)
			}
		}
		if err := s.materialize(need); err != nil {
			return nil, err
		}
		include := make(map[string]bool, len(active))
		for _, st := range s.tenants {
			if openBefore[st.name] && st.phase == phaseResident {
				include[st.name] = true
			}
		}
		forEachObserved(reg, spec.Workers, len(active), func(k int) {
			st := s.tenants[active[k]]
			st.tn.Run(0, spec.StatementsPerHour)
			st.lastActive = h
			st.activeHours++
		})
		for _, i := range active {
			include[s.tenants[i].name] = true
		}
		s.res.TenantHours += int64(len(active))
		s.res.Statements += int64(len(active)) * int64(spec.StatementsPerHour)
		reg.Counter(descTenantHours).Add(int64(len(active)))

		s.region.Advance(time.Hour)
		s.align()
		s.stepFor(func(name string) bool { return include[name] })
		s.align()
		s.parkResidents()

		openAfter := s.plane().DatabasesWithOpenRecords()
		s.sweepDone(h, openAfter)
		s.evict(openAfter)
		s.observeResidency()
	}

	if s.ch != nil {
		s.res.DrainHours = s.drainChaos()
	}
	s.res.Stats = s.plane().OpStats()
	if s.ch != nil {
		// The invariant checker audits live catalogs: bring every tenant
		// the chaos harness enrolled back to resident first.
		var need []int
		for i, st := range s.tenants {
			if st.phase == phaseHibernated || (st.phase == phaseDone && st.snapshot != nil) {
				st.phase = phaseHibernated
				need = append(need, i)
			}
		}
		errs := make([]error, len(need))
		forEach(spec.Workers, len(need), func(k int) {
			st := s.tenants[need[k]]
			if err := rehydrateTenant(st.tn, st.snapshot); err != nil {
				errs[k] = err
				return
			}
			st.snapshot = nil
			st.phase = phaseResident
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		s.res.Chaos = s.ch.report(s.region.Now(), spec.Plane, s.res.DrainHours)
	}
	return s.res, nil
}

// drainChaos is the scale-mode analogue of chaosHarness.drain: injection
// off, analysis frozen, then filtered hourly steps until no record is
// mid-flight (or the budget runs out). Only tenants with live records are
// rehydrated and stepped; completed tenants keep streaming their lines as
// their records settle.
func (s *scaleRun) drainChaos() int {
	ch := s.ch
	ch.disable()
	max := ch.cfg.MaxDrainHours
	if max <= 0 {
		max = 21 * 24
	}
	hour := s.spec.Hours
	hours := 0
	for ; hours < max && ch.inFlight(); hours++ {
		ch.freezeAnalysis(s.region.Now())
		open := s.plane().DatabasesWithOpenRecords()
		var need []int
		for i, st := range s.tenants {
			if open[st.name] && st.phase == phaseHibernated {
				need = append(need, i)
			}
		}
		if err := s.materialize(need); err != nil {
			// Rehydration failures are impossible for snapshots we wrote
			// ourselves; treat one as the bug it would be.
			panic(err)
		}
		s.region.Advance(time.Hour)
		s.align()
		s.stepFor(func(name string) bool { return open[name] })
		s.align()
		s.parkResidents()
		openAfter := s.plane().DatabasesWithOpenRecords()
		s.sweepDone(hour+hours, openAfter)
		s.evict(openAfter)
		s.observeResidency()
	}
	return hours
}
