package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
)

// TestCountsRepeatExactly is the precondition for any count-based claim
// (what-if calls per pass, statements per tenant-hour, ...): at one seed,
// two untraced runs and a traced run of ops and tune must report the
// same registry counts over their count windows, and the same output
// digest.
func TestCountsRepeatExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole fleets")
	}
	for _, name := range []string{"ops", "tune"} {
		// A budget this small stops every loop at its minimum iteration
		// count; the count windows do not depend on it.
		o := options{seed: 7, seconds: 0.001}
		first, err := workloads[name](o, newMeter(false))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		second, err := workloads[name](o, newMeter(false))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			t.Fatal(err)
		}
		traced, err := workloads[name](o, newMeter(true))
		pprof.StopCPUProfile()
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		for _, r := range []*result{first, second, traced} {
			if len(r.problems) > 0 {
				t.Errorf("%s: output checks failed: %v", name, r.problems)
			}
		}
		for _, k := range exactCounts {
			if first.counts[k] != second.counts[k] || first.counts[k] != traced.counts[k] {
				t.Errorf("%s: %s = %d, %d, traced %d; want all equal",
					name, k, first.counts[k], second.counts[k], traced.counts[k])
			}
		}
		if first.counts["engine.statements_executed"] == 0 {
			t.Errorf("%s: no statements counted", name)
		}
		if first.digest != second.digest || first.digest != traced.digest {
			t.Errorf("%s: digests %s, %s, traced %s; want all equal", name, first.digest, second.digest, traced.digest)
		}
		p, err := parseProfile(prof.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if mods, _, _, total := attribute(p); total == 0 || mods["engine"] == 0 {
			t.Errorf("%s: traced profile attributed %d samples, engine share %.1f%%", name, total, mods["engine"])
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"autoindex/internal/engine.(*Database).ExecWith":     "engine",
		"autoindex/internal/recommend/dta.Run":               "dta",
		"autoindex/internal/btree.(*Tree[go.shape.int]).Get": "btree",
		"autoindex/internal/fleet.(*Fleet).RunOps.func1":     "fleet",
		"main.runOps":           "bench",
		"runtime.mallocgc":      "",
		"encoding/json.Marshal": "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
