package controlplane

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"autoindex/internal/core"
	"autoindex/internal/schema"
	"autoindex/internal/sim"
	"autoindex/internal/workload"
)

// TestConcurrentInjection drives every micro-service loop (via Step) while
// two goroutines concurrently inject recommendations through the public
// surfaces — the store's SaveRecord and the portal-style Apply — plus a
// third re-registering databases with Manage and polling OpStats, History
// and ListRecommendations. The fleet harness serializes Step at hour
// barriers, but the control plane's own locking must not depend on that:
// run this under `go test -race` (the Makefile `race` target does).
func TestConcurrentInjection(t *testing.T) {
	clock := sim.NewClock()
	tn, err := workload.NewTenant(workload.Profile{Name: "racedb", Tier: 1, Seed: 99, UserIndexes: true}, clock)
	if err != nil {
		t.Fatal(err)
	}
	tn2, err := workload.NewTenant(workload.Profile{Name: "racedb2", Tier: 0, Seed: 100}, sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemStore()
	cp := New(DefaultConfig(), clock, store)
	cp.Manage(tn.DB, "server-0", Settings{AutoCreate: true, AutoDrop: true})
	tn.Run(0, 200) // give the analysis service a workload to chew on

	// Tenant schemas are generated, so pick a real table and column for the
	// injected recommendations.
	names := tn.DB.TableNames()
	if len(names) == 0 {
		t.Fatal("tenant has no tables")
	}
	ti, ok := tn.DB.Table(names[0])
	if !ok || len(ti.Def.Columns) == 0 {
		t.Fatalf("table %s missing", names[0])
	}
	injectTable, injectCol := names[0], ti.Def.Columns[len(ti.Def.Columns)-1].Name

	const injected = 60
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer 1: file Active records straight into the store, the way a
	// regional peer or a recovery replay would.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < injected; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rec := &Record{
				Recommendation: core.Recommendation{
					ID:       fmt.Sprintf("inject-a-%04d", i),
					Database: "racedb",
					Action:   core.ActionCreateIndex,
					Index: schema.IndexDef{
						Name:        fmt.Sprintf("auto_ix_inject_a_%04d", i),
						Table:       injectTable,
						KeyColumns:  []string{injectCol},
						AutoCreated: true,
					},
					Source:    core.SourceMI,
					CreatedAt: clock.Now(),
				},
				State:     StateActive,
				UpdatedAt: clock.Now(),
			}
			if err := store.SaveRecord(rec); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Writer 2: user-style Apply on whatever recommendations are visible,
	// racing the implementation service for the same records.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, r := range cp.ListRecommendations("racedb") {
				_ = cp.Apply(r.ID) // losing the race to Step is fine; data races are not
			}
			_ = cp.OpStats()
			time.Sleep(500 * time.Microsecond)
		}
	}()

	// Writer 3: churn fleet membership and settings while services iterate.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cp.Manage(tn2.DB, "server-1", Settings{AutoCreate: i%2 == 0})
			_ = cp.SetSettings("racedb2", Settings{AutoCreate: i%2 == 1})
			_ = cp.History("racedb2")
			time.Sleep(time.Millisecond)
		}
	}()

	for i := 0; i < 20; i++ {
		clock.Advance(30 * time.Minute)
		cp.Step()
	}
	close(stop)
	wg.Wait()

	// Sanity: the state machine stayed legal despite the contention.
	for _, r := range store.Records(func(*Record) bool { return true }) {
		switch r.State {
		case StateActive, StateExpired, StateImplementing, StateValidating,
			StateSuccess, StateReverting, StateReverted, StateRetry, StateError:
		default:
			t.Errorf("record %s in unknown state %q", r.ID, r.State)
		}
	}
}
