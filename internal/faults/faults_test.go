package faults

import (
	"testing"
)

// schedule draws n decisions for each of the given points and returns
// them flattened in point order.
func schedule(in *Injector, points []Point, n int) []bool {
	var out []bool
	for _, p := range points {
		for i := 0; i < n; i++ {
			out = append(out, in.Should(p))
		}
	}
	return out
}

func TestScheduleDeterministicForSeed(t *testing.T) {
	rates := map[Point]float64{
		IndexBuildLogFull:     0.3,
		IndexBuildLockTimeout: 0.3,
		PlaneCrashBeforeSave:  0.2,
	}
	points := []Point{IndexBuildLogFull, IndexBuildLockTimeout, PlaneCrashBeforeSave}
	a := schedule(New(42, "db001", rates), points, 200)
	b := schedule(New(42, "db001", rates), points, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical injectors", i)
		}
	}
	fired := 0
	for _, f := range a {
		if f {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("no fault fired at 20-30% rates over 600 draws")
	}
}

func TestScopesAreIndependentStreams(t *testing.T) {
	rates := map[Point]float64{IndexBuildLogFull: 0.5}
	a := schedule(New(42, "db001", rates), []Point{IndexBuildLogFull}, 100)
	b := schedule(New(42, "db002", rates), []Point{IndexBuildLogFull}, 100)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different scopes produced identical schedules")
	}
}

// Adding a new point, or drawing from one point, must not perturb another
// point's schedule — each point owns a private child stream.
func TestPointStreamsAreIndependent(t *testing.T) {
	only := New(7, "s", map[Point]float64{IndexBuildLogFull: 0.4})
	var want []bool
	for i := 0; i < 100; i++ {
		want = append(want, only.Should(IndexBuildLogFull))
	}
	both := New(7, "s", map[Point]float64{IndexBuildLogFull: 0.4, DropLockTimeout: 0.9})
	for i := 0; i < 100; i++ {
		both.Should(DropLockTimeout) // interleave draws at another point
		if got := both.Should(IndexBuildLogFull); got != want[i] {
			t.Fatalf("draw %d at log-full changed because drop-lock-timeout was drawn", i)
		}
	}
}

func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	if in.Should(IndexBuildLogFull) {
		t.Fatal("nil injector fired")
	}
	in.Disable()
	in.Enable()
	if in.Fired() != nil || in.TotalFired() != 0 || in.Scope() != "" {
		t.Fatal("nil injector accessors must be zero-valued")
	}
}

func TestDisableStopsFiringButKeepsSchedule(t *testing.T) {
	rates := map[Point]float64{IndexBuildLogFull: 0.5}
	ref := New(11, "s", rates)
	var want []bool
	for i := 0; i < 60; i++ {
		want = append(want, ref.Should(IndexBuildLogFull))
	}

	in := New(11, "s", rates)
	for i := 0; i < 20; i++ {
		if got := in.Should(IndexBuildLogFull); got != want[i] {
			t.Fatalf("pre-disable draw %d mismatch", i)
		}
	}
	in.Disable()
	for i := 20; i < 40; i++ {
		if in.Should(IndexBuildLogFull) {
			t.Fatal("disabled injector fired")
		}
	}
	in.Enable()
	// Draws advanced while disabled, so the re-enabled schedule continues
	// exactly where the reference stream is.
	for i := 40; i < 60; i++ {
		if got := in.Should(IndexBuildLogFull); got != want[i] {
			t.Fatalf("post-enable draw %d diverged from reference", i)
		}
	}
}

func TestUnconfiguredPointConsumesNothing(t *testing.T) {
	in := New(3, "s", map[Point]float64{IndexBuildLogFull: 0.5})
	ref := New(3, "s", map[Point]float64{IndexBuildLogFull: 0.5})
	for i := 0; i < 50; i++ {
		in.Should(QueryStoreDropExecution) // not configured: no draw, never fires
		if in.Should(IndexBuildLogFull) != ref.Should(IndexBuildLogFull) {
			t.Fatalf("unconfigured point perturbed configured stream at draw %d", i)
		}
	}
	if in.Fired()[QueryStoreDropExecution] != 0 {
		t.Fatal("unconfigured point fired")
	}
}

func TestFiredCountersAndFormatting(t *testing.T) {
	in := New(5, "s", map[Point]float64{IndexBuildLogFull: 1.0, DropLockTimeout: 1.0})
	for i := 0; i < 3; i++ {
		in.Should(IndexBuildLogFull)
	}
	in.Should(DropLockTimeout)
	if in.TotalFired() != 4 {
		t.Fatalf("total fired = %d, want 4", in.TotalFired())
	}
	merged := MergeFired(nil, in.Fired())
	merged = MergeFired(merged, map[Point]int64{IndexBuildLogFull: 2})
	if merged[IndexBuildLogFull] != 5 {
		t.Fatalf("merge: %v", merged)
	}
	lines := FormatFired(merged)
	if len(lines) != 2 {
		t.Fatalf("lines: %v", lines)
	}
	// Registry order: log-full is registered before drop-lock-timeout.
	if lines[0] != "engine/index-build/log-full=5" {
		t.Fatalf("ordering: %v", lines)
	}
}

func TestRegistryCoversEveryDeclaredPoint(t *testing.T) {
	declared := []Point{
		IndexBuildLogFull, IndexBuildLockTimeout, IndexBuildAbort, DropLockTimeout,
		PlaneCrashBeforeSave, PlaneCrashAfterSave, QueryStoreDropExecution,
	}
	reg := make(map[Point]bool)
	for _, pi := range Points() {
		if pi.Description == "" {
			t.Errorf("point %s has no description", pi.Point)
		}
		reg[pi.Point] = true
	}
	for _, p := range declared {
		if !reg[p] {
			t.Errorf("point %s missing from registry", p)
		}
	}
	if len(reg) != len(declared) {
		t.Errorf("registry has %d points, %d declared", len(reg), len(declared))
	}
}

func TestCrashString(t *testing.T) {
	c := Crash{Point: PlaneCrashBeforeSave}
	if c.String() == "" {
		t.Fatal("empty crash description")
	}
}
