package serve

import (
	"testing"
	"time"

	"autoindex/internal/controlplane"
	"autoindex/internal/metrics"
	"autoindex/internal/sim"
	"autoindex/internal/wire"
	"autoindex/internal/workload"
)

// TestLiveWorkloadDrivesTuning is the end-to-end acceptance path: a
// client executes statements over the wire protocol, the engine records
// them as live Query Store executions, and a subsequent control-plane
// tuning pass files a recommendation whose evidence came from that live
// traffic. Virtual time is advanced by the test (the way autoindexd's
// live loop does) so analysis cadences elapse between statement waves.
func TestLiveWorkloadDrivesTuning(t *testing.T) {
	clock := sim.NewClock()
	tn, err := workload.NewTenant(workload.Profile{
		Name: "db000",
		Seed: 4242,
		// No user indexes: the generated point lookups and range scans
		// leave obvious indexing opportunities for the tuner to find.
		UserIndexes: false,
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	plane := controlplane.New(controlplane.Config{Metrics: reg}, clock, controlplane.NewMemStore())
	plane.Manage(tn.DB, "server-0", controlplane.Settings{})

	_, addr, _ := startServer(t, Config{Lookup: lookupOne(tn.DB)})
	cl, err := wire.Dial(addr, "app", testPassword, "db000")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Waves of live statements, one virtual hour apart. The default
	// analysis cadence is 6 virtual hours, so a recommendation should
	// appear within a few waves; 48 waves is two virtual days of slack.
	executed := 0
	for wave := 0; wave < 48; wave++ {
		for _, sql := range tn.Stream(40) {
			if _, err := cl.Query(sql); err != nil {
				t.Fatalf("wave %d: %q: %v", wave, sql, err)
			}
			executed++
		}
		clock.Advance(time.Hour)
		plane.Step()
		if len(plane.ListRecommendations("db000")) > 0 {
			break
		}
	}

	recs := plane.ListRecommendations("db000")
	if len(recs) == 0 {
		t.Fatalf("no recommendation after %d live statements", executed)
	}
	// Every wire statement was recorded as live; the handful of extra
	// executions are the generator's own setup statements.
	total, live := tn.DB.QueryStore().ExecutionTotals()
	if live != int64(executed) {
		t.Fatalf("live executions = %d, want %d (total %d)", live, executed, total)
	}
	if got := reg.Counter(controlplane.DescAnalysisLiveWorkload).Value(); got < 1 {
		t.Fatalf("controlplane.analysis_live_workload = %d, want >= 1", got)
	}
	if got := reg.Counter(controlplane.DescRecsLiveDriven).Value(); got < 1 {
		t.Fatalf("controlplane.recommendations_live_driven = %d, want >= 1", got)
	}
	// The recommendation's impacted queries must include statements the
	// client actually executed over the wire.
	qs := tn.DB.QueryStore()
	found := false
	for _, r := range recs {
		for _, qh := range r.ImpactedQueries {
			if qs.QueryLiveExecutions(qh) > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no filed recommendation references a live-executed query")
	}
}
