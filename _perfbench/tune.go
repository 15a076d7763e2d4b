package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"autoindex/internal/core"
	"autoindex/internal/engine"
	"autoindex/internal/fleet"
	"autoindex/internal/recommend/dta"
)

// The tune workload: repeated DTA passes over a warm fleet. Warm-up
// replays a virtual day with analysis frozen, so every Query Store
// holds a workload and nothing has been tuned yet. Each round then runs
// one dta.Run per tenant (measured) followed by an unmeasured replay
// hour, whose writes invalidate plan-cost cache entries the way
// production traffic does. The measured part executes almost no user
// statements: it is the bypass workload for executor, B+ tree and wire
// changes, and the one that stresses what-if costing and enumeration.
const (
	tuneTenants = 128
	tuneDays    = 1
	tuneStmts   = 10
	tuneScale   = 0.025
	// tuneCountRounds is the count window: registry deltas are taken
	// over the first measured rounds only, so they repeat exactly
	// whatever the host's speed. The window's last round is also the
	// measured round the second output check compares.
	tuneCountRounds = 3
	tuneMinPasses   = 100
)

// warmTuneFleet builds the tune fleet and replays its warm-up. It also
// returns the heap the built fleet retains before warm-up (live heap
// after a forced GC, in MB), which is the workload's heap figure. The
// heap after warm-up is not: a few tenants whose mix is heavy in bulk
// loads grow far more than the rest, so it swung by a quarter between
// seeds on 1-day warm-ups, while the built fleet's varied by a few
// percent. A sampled peak also swung with GC timing.
func warmTuneFleet(seed int64, workers int) (*fleet.Fleet, float64, error) {
	spec := fleet.Spec{Databases: tuneTenants, MixedTiers: true, Seed: seed, UserIndexes: true,
		Workers: workers, Scale: tuneScale}
	f, err := fleet.Build(spec)
	if err != nil {
		return nil, 0, fmt.Errorf("tune: build: %w", err)
	}
	heap := retainedHeap()
	cfg := fleet.DefaultOpsConfig()
	cfg.Days = tuneDays
	cfg.StatementsPerHour = tuneStmts
	cfg.AutoImplementFraction = 0
	cfg.Plane.AnalyzeEvery = 1_000_000 * time.Hour
	if _, err := f.RunOps(fleet.Spec{Seed: seed, UserIndexes: true, Scale: tuneScale}, cfg); err != nil {
		return nil, 0, fmt.Errorf("tune: warm-up: %w", err)
	}
	return f, heap, nil
}

// tuneOptions are the tier's production options with the what-if budget
// lifted, as in the DTA differential test: when the budget binds, the
// uncached reference arm runs out of calls first by design.
func tuneOptions(db *engine.Database, reference bool) dta.Options {
	opts := dta.OptionsForTier(db.Tier())
	opts.MaxWhatIfCalls = 0
	if reference {
		opts.DisableCostCache = true
		opts.DisablePruning = true
	}
	return opts
}

// tieTolerance is the relative difference under which two greedy gains
// are a floating-point tie. The arms sum the same costs in different
// orders, so a true tie can differ in its last bits; any real difference
// between two indexes' gains is many orders of magnitude larger.
const tieTolerance = 1e-9

// sameUpToTie reports whether got equals want, or whether the two agree
// up to a round where each picked a different index of the same gain,
// within tieTolerance. Upper-bound pruning compares floating-point sums
// formed in another order than the gains themselves, so on an exact tie
// between two candidates it can pick the other one (a known defect of
// the enumeration, which claims to pick the same winner). Both picks are
// then optimal for that round; the rounds after it start from different
// configurations and cannot be compared. tie is true in that case.
func sameUpToTie(got, want []core.Candidate) (same, tie bool) {
	for k := 0; k < len(got) && k < len(want); k++ {
		if reflect.DeepEqual(got[k], want[k]) {
			continue
		}
		a, b := got[k].EstImprovement, want[k].EstImprovement
		if math.Abs(a-b) <= tieTolerance*math.Max(math.Abs(a), math.Abs(b)) {
			return true, true
		}
		return false, false
	}
	return len(got) == len(want), false
}

// checkAgainstReference runs the cache-off, pruning-off arm on every
// tenant of ref and fails res for each tenant whose recommendations in
// got differ from it other than by a tie (sameUpToTie). It returns how
// many tenants diverged at a tie; each is printed.
func checkAgainstReference(res *result, ref *fleet.Fleet, got []*dta.Result, what string) (int, error) {
	ties := 0
	for i, tn := range ref.Tenants {
		want, err := dta.Run(tn.DB, tuneOptions(tn.DB, true))
		if err != nil {
			return 0, fmt.Errorf("tune: reference pass: %w", err)
		}
		if got[i] == nil {
			res.fail("tune: %s: no %s recommendations", tn.DB.Name(), what)
			continue
		}
		same, tie := sameUpToTie(got[i].Recommendations, want.Recommendations)
		switch {
		case !same:
			res.fail("tune: %s: %s recommendations differ from the uncached reference pass", tn.DB.Name(), what)
		case tie:
			ties++
			fmt.Printf("tie: tune: %s: %s recommendations picked a different index of equal gain from the reference pass\n",
				tn.DB.Name(), what)
		}
	}
	return ties, nil
}

func runTune(o options, m *meter) (*result, error) {
	workers := runtime.NumCPU()
	res := &result{workers: workers, layer: map[string]float64{}}
	t0 := time.Now()
	f, heap, err := warmTuneFleet(o.seed, workers)
	if err != nil {
		return nil, err
	}
	setups := []float64{time.Since(t0).Seconds()}

	// Round zero is the warm-up round: cold plan-cost caches, and the
	// recommendations the first output check compares. The measured
	// rounds after it all run in the steady state the replay hours
	// maintain, so a host that fits more of them in the budget does not
	// shift the mix. The second check compares round tuneCountRounds, a
	// measured round every host runs, so its verdict does not depend on
	// the host's speed.
	first := make([]*dta.Result, len(f.Tenants))
	checked := make([]*dta.Result, len(f.Tenants))
	minRounds := 1 + (tuneMinPasses+tuneTenants-1)/tuneTenants
	if minRounds < 1+tuneCountRounds {
		minRounds = 1 + tuneCountRounds
	}
	var before map[string]int64
	var passes float64
	loopStart := time.Now()
	// The GC share covers the whole round loop, replay hours included:
	// a pass is too short to span a GC cycle.
	m.cpuWindow(func() {
		for round := 0; !o.done(round, minRounds, time.Since(loopStart)); round++ {
			if round == 1 {
				before = counters(f.Metrics)
				loopStart = time.Now()
			}
			roundSpan := m.rec.open("tune.round", 0)
			for i, tn := range f.Tenants {
				var r *dta.Result
				var err error
				pass := func() {
					t0 := time.Now()
					r, err = dta.Run(tn.DB, tuneOptions(tn.DB, false))
					if round > 0 {
						m.rec.add("dta.pass", roundSpan.id, t0, time.Now())
					}
				}
				if round == 0 {
					pass()
				} else {
					m.timed(pass)
					passes++
				}
				res.attempted++
				if err != nil {
					res.failed++
					res.fail("tune: %s round %d: %v", tn.DB.Name(), round, err)
					continue
				}
				switch round {
				case 0:
					first[i] = r
				case tuneCountRounds:
					checked[i] = r
				}
			}
			replay := m.rec.open("tune.replay_hour", roundSpan.id)
			for _, tn := range f.Tenants {
				tn.Run(time.Hour, tuneStmts)
			}
			replay.close()
			roundSpan.close()
			if round == tuneCountRounds {
				res.counts = map[string]int64{}
				addDelta(res.counts, before, counters(f.Metrics))
				res.countUnits = passes
			}
		}
	})

	// Output checks run on fresh fleets built from the same seed, which
	// never see the measured fleet's sampled statistics or cache state.
	// They are built after the measured rounds so the GC cycles of those
	// rounds do not scan them, and their builds are further set-up
	// samples.
	//
	// First: round zero's recommendations equal the reference arm on a
	// fresh warm fleet.
	t0 = time.Now()
	ref, _, err := warmTuneFleet(o.seed, workers)
	if err != nil {
		return nil, err
	}
	setups = append(setups, time.Since(t0).Seconds())
	ties, err := checkAgainstReference(res, ref, first, "first-round")
	if err != nil {
		return nil, err
	}

	// Second, the timed path: round tuneCountRounds ran on warm plan-cost
	// caches after replay hours had invalidated entries. A twin replays
	// the same history, the same cached passes and replay hours for every
	// round before it, then runs the reference arm on the state that
	// round saw.
	t0 = time.Now()
	twin, _, err := warmTuneFleet(o.seed, workers)
	if err != nil {
		return nil, err
	}
	setups = append(setups, time.Since(t0).Seconds())
	for round := 0; round < tuneCountRounds; round++ {
		for _, tn := range twin.Tenants {
			if _, err := dta.Run(tn.DB, tuneOptions(tn.DB, false)); err != nil {
				return nil, fmt.Errorf("tune: twin round %d: %w", round, err)
			}
		}
		for _, tn := range twin.Tenants {
			tn.Run(time.Hour, tuneStmts)
		}
	}
	later, err := checkAgainstReference(res, twin, checked, fmt.Sprintf("round %d", tuneCountRounds))
	if err != nil {
		return nil, err
	}
	ties += later

	var witness []any
	for _, r := range append(first, checked...) {
		if r != nil {
			witness = append(witness, r.Recommendations)
		}
	}
	res.digest = digestOf([]byte(fmt.Sprintf("%+v", witness)))

	passMS := m.rec.samples("dta.pass")
	res.units = passes
	res.e2e = map[string]float64{
		"setup_s":          quantile(setups, 0.5),
		"throughput_per_s": passes / m.wall.Seconds(),
		"latency_ms":       quantile(passMS, 0.5),
		"latency_tail_ms":  quantile(passMS, 0.9),
		"peak_heap_mb":     heap,
	}
	res.named = []named{
		{"setup_s", "s", res.e2e["setup_s"]},
		{"tune.pass_ms_p50", "ms", res.e2e["latency_ms"]},
		{"tune.pass_ms_p90", "ms", res.e2e["latency_tail_ms"]},
		{"tune.passes", "count", passes},
		{"tune.passes_per_s", "1/s", res.e2e["throughput_per_s"]},
		{"tune.tie_divergences", "count", float64(ties)},
	}
	return res, nil
}
