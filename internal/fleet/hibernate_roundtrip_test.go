package fleet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"autoindex/internal/controlplane"
	"autoindex/internal/engine"
	"autoindex/internal/faults"
	"autoindex/internal/metrics"
	"autoindex/internal/sim"
	"autoindex/internal/workload"
)

// roundTripCase is one randomized tenant state for the hibernation
// property test: which archetype it stamps from, how long it runs before
// hibernating, how chatty it is, and whether a control plane and fault
// injectors are in the loop.
type roundTripCase struct {
	index      int
	arch       *workload.Archetype
	name       string
	seed       int64
	prefix     int    // hours of history before hibernation
	stmts      int    // statements per active hour
	active     []bool // activity schedule for the 24 post-hibernation hours
	withPlane  bool   // drive a control plane (in-flight recommendations)
	withFaults bool   // arm engine + query-store fault injectors
}

// twin is one of the two identically-seeded tenants a case compares: the
// hibernated one and its continuously-resident control.
type twin struct {
	tn    *workload.Tenant
	clock *sim.VirtualClock
	cp    *controlplane.ControlPlane
}

func newTwin(c *roundTripCase) (*twin, error) {
	clock := sim.NewClock()
	tn, err := workload.NewTenantFromArchetype(c.arch, c.name, c.seed, clock)
	if err != nil {
		return nil, err
	}
	if c.withFaults {
		// Same scope and seed on both twins: identical fault schedules.
		tn.DB.SetFaultInjector(faults.New(c.seed, "engine/"+c.name, map[faults.Point]float64{
			faults.IndexBuildLogFull:     0.1,
			faults.IndexBuildLockTimeout: 0.1,
			faults.IndexBuildAbort:       0.1,
			faults.DropLockTimeout:       0.1,
		}))
		qs := faults.New(c.seed, "querystore/"+c.name, map[faults.Point]float64{
			faults.QueryStoreDropExecution: 0.1,
		})
		tn.DB.QueryStore().SetDropper(func() bool { return qs.Should(faults.QueryStoreDropExecution) })
	}
	tw := &twin{tn: tn, clock: clock}
	if c.withPlane {
		cfg := controlplane.DefaultConfig()
		cfg.AnalyzeEvery = 2 * time.Hour // recommendations in-flight by hibernation time
		cfg.Metrics = metrics.NewRegistry()
		tw.cp = controlplane.New(cfg, clock, controlplane.NewMemStore())
		tw.cp.Manage(tn.DB, "server-0", controlplane.Settings{AutoCreate: true, AutoDrop: true})
	}
	return tw, nil
}

// hour advances the twin through one barrier exactly the way the scale
// loop does: replay if active, advance the clock, step the control
// plane, park the engine.
func (tw *twin) hour(active bool, stmts int) workload.RunStats {
	var st workload.RunStats
	if active {
		st = tw.tn.Run(0, stmts)
	}
	tw.clock.Advance(time.Hour)
	if tw.cp != nil {
		tw.cp.Step()
	}
	tw.tn.DB.Park()
	return st
}

// recLines renders a twin's recommendation records deterministically.
func (tw *twin) recLines() []string {
	if tw.cp == nil {
		return nil
	}
	var out []string
	for _, r := range tw.cp.ListRecommendations(tw.tn.DB.Name()) {
		out = append(out, fmt.Sprintf("%s %s %s", r.ID, r.Action, r.State))
	}
	for _, r := range tw.cp.History(tw.tn.DB.Name()) {
		out = append(out, fmt.Sprintf("%s %s %s", r.ID, r.Action, r.State))
	}
	return out
}

// TestHibernateRoundTripProperty is the hibernation fidelity property
// test: 500 randomized tenant states — random archetype, mid-run query
// store, optionally in-flight recommendations and armed chaos fault
// injectors — are each serialized at an hour barrier, rehydrated, and
// run for 24 more virtual hours next to a never-hibernated twin. The
// full serialized state (engine catalog, query store, DMVs, telemetry
// counters, workload RNG position) and the recommendation records must
// be byte-identical at the end; any divergence means a snapshot missed
// state the simulation depends on.
func TestHibernateRoundTripProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("500-case property test is slow")
	}
	cases := 500
	if raceEnabled {
		// Full breadth belongs to the plain run; under the race detector a
		// reduced sweep still exercises every concurrency path (parallel
		// cases, plane-driven cases, fault-armed cases).
		cases = 40
	}

	tiers := []engine.Tier{engine.TierStandard, engine.TierBasic, engine.TierPremium}
	var archs []*workload.Archetype
	for a := 0; a < 3; a++ {
		p := workload.Profile{
			Name:        fmt.Sprintf("rtarch%d", a),
			Tier:        tiers[a],
			Seed:        31000 + int64(a)*104729,
			Scale:       0.25,
			UserIndexes: true,
		}
		arch, err := workload.NewArchetype(p, sim.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		archs = append(archs, arch)
	}

	var mu sync.Mutex
	failures := 0
	planeCases, planeCasesWithRecords := 0, 0
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		failures++
		if failures <= 10 {
			t.Errorf(format, args...)
		}
	}

	forEach(0, cases, func(i int) {
		// Child derivation is stateless, so per-case streams are identical
		// regardless of which worker runs the case.
		rng := sim.NewRNG(20260807).Child(fmt.Sprintf("roundtrip/%04d", i))
		c := &roundTripCase{
			index:      i,
			arch:       archs[rng.Intn(len(archs))],
			name:       fmt.Sprintf("rt%04d", i),
			seed:       5000 + int64(i)*7919,
			prefix:     1 + rng.Intn(8),
			stmts:      2 + rng.Intn(8),
			active:     make([]bool, 24),
			withPlane:  i%5 == 0,
			withFaults: i%4 == 0,
		}
		for h := range c.active {
			c.active[h] = rng.Float64() < 0.6
		}

		hib, err := newTwin(c)
		if err != nil {
			fail("case %d: stamping twin: %v", i, err)
			return
		}
		ctl, err := newTwin(c)
		if err != nil {
			fail("case %d: stamping twin: %v", i, err)
			return
		}

		// Shared history: both twins replay the same prefix.
		for h := 0; h < c.prefix; h++ {
			sa := hib.hour(true, c.stmts)
			sb := ctl.hour(true, c.stmts)
			if sa.Statements != sb.Statements || sa.Errors != sb.Errors || sa.Writes != sb.Writes {
				fail("case %d: twins diverged during shared prefix hour %d: %+v vs %+v", i, h, sa, sb)
				return
			}
		}

		// Hibernate one twin at the barrier, release its heavy state, and
		// bring it back. The other twin never leaves memory.
		blob := hibernateTenant(hib.tn)
		hib.tn.Release()
		if err := rehydrateTenant(hib.tn, blob); err != nil {
			fail("case %d: rehydrate: %v", i, err)
			return
		}

		// 24 more virtual hours on both.
		for h := 0; h < 24; h++ {
			sa := hib.hour(c.active[h], c.stmts)
			sb := ctl.hour(c.active[h], c.stmts)
			if sa.Statements != sb.Statements || sa.Errors != sb.Errors || sa.Writes != sb.Writes {
				fail("case %d: twins diverged at post-rehydration hour %d: %+v vs %+v", i, h, sa, sb)
				return
			}
		}

		// Full-state comparison: the hibernated twin's serialized form must
		// be byte-identical to the control's.
		got, want := hibernateTenant(hib.tn), hibernateTenant(ctl.tn)
		if string(got) != string(want) {
			fail("case %d (plane=%v faults=%v prefix=%dh): rehydrated tenant state diverged from never-hibernated twin: snapshot %d vs %d bytes",
				i, c.withPlane, c.withFaults, c.prefix, len(got), len(want))
			return
		}
		recsA, recsB := hib.recLines(), ctl.recLines()
		if fmt.Sprint(recsA) != fmt.Sprint(recsB) {
			fail("case %d: recommendation records diverged:\n%v\nvs\n%v", i, recsA, recsB)
		}
		if c.withPlane {
			mu.Lock()
			planeCases++
			if len(recsA) > 0 {
				planeCasesWithRecords++
			}
			mu.Unlock()
		}
	})
	mu.Lock()
	defer mu.Unlock()
	if failures > 10 {
		t.Errorf("... and %d more failing cases", failures-10)
	}
	// Some workload mixes legitimately yield nothing to recommend, but if
	// most plane cases came up empty the "in-flight recommendations"
	// dimension of the property would be silently unexercised.
	if planeCasesWithRecords*2 < planeCases {
		t.Errorf("only %d of %d control-plane cases produced recommendation records; property under-exercised",
			planeCasesWithRecords, planeCases)
	}
}
