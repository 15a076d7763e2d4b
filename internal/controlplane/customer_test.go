package controlplane

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"autoindex/internal/core"
	"autoindex/internal/engine"
	"autoindex/internal/schema"
	"autoindex/internal/sim"
)

func TestMaintenanceWindowAllows(t *testing.T) {
	at := func(h int) time.Time { return time.Date(2017, 3, 1, h, 30, 0, 0, time.UTC) }
	cases := []struct {
		w    MaintenanceWindow
		hour int
		want bool
	}{
		{MaintenanceWindow{}, 12, true}, // zero value: always
		{MaintenanceWindow{StartHour: 2, EndHour: 6}, 3, true},
		{MaintenanceWindow{StartHour: 2, EndHour: 6}, 6, false},
		{MaintenanceWindow{StartHour: 2, EndHour: 6}, 1, false},
		{MaintenanceWindow{StartHour: 22, EndHour: 4}, 23, true}, // wraps midnight
		{MaintenanceWindow{StartHour: 22, EndHour: 4}, 2, true},
		{MaintenanceWindow{StartHour: 22, EndHour: 4}, 12, false},
	}
	for _, c := range cases {
		if got := c.w.Allows(at(c.hour)); got != c.want {
			t.Errorf("window %+v at hour %d = %v, want %v", c.w, c.hour, got, c.want)
		}
	}
}

func TestImplementationWaitsForMaintenanceWindow(t *testing.T) {
	clock := sim.NewClock() // starts at midnight
	cfg := DefaultConfig()
	cfg.AnalyzeEvery = time.Hour
	cfg.Maintenance = MaintenanceWindow{StartHour: 2, EndHour: 4}
	db := engine.New(engine.DefaultConfig("mw", engine.TierBasic, 5), clock)
	if _, err := db.Exec(`CREATE TABLE t (id BIGINT NOT NULL, a BIGINT, PRIMARY KEY (id))`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 800; i++ {
		db.Exec(fmt.Sprintf(`INSERT INTO t (id, a) VALUES (%d, %d)`, i, i%80)) //nolint:errcheck
	}
	db.RebuildAllStats()
	cp := New(cfg, clock, NewMemStore())
	cp.Manage(db, "srv", Settings{AutoCreate: true})
	// File a ready recommendation directly at 00:xx — outside the window.
	clock.Advance(10 * time.Minute)
	rec := &Record{
		Recommendation: core.Recommendation{
			ID: "mw-1", Database: "mw", Action: core.ActionCreateIndex,
			Index:     schema.IndexDef{Name: "ix_mw", Table: "t", KeyColumns: []string{"a"}},
			CreatedAt: clock.Now(),
		},
		State: StateActive,
	}
	cp.StateStore().SaveRecord(rec)
	cp.Step()
	if r, _ := cp.StateStore().GetRecord("mw-1"); r.State != StateActive {
		t.Fatalf("implemented outside the window: %s", r.State)
	}
	// Enter the window: hour 2.
	clock.Advance(2 * time.Hour)
	cp.Step()
	if r, _ := cp.StateStore().GetRecord("mw-1"); r.State != StateValidating {
		t.Fatalf("not implemented inside the window: %s (%s)", r.State, r.LastError)
	}
}

func TestIndexNamePrefixApplied(t *testing.T) {
	h := newPlaneHarness(t, Settings{AutoCreate: true})
	h.cp.cfg.IndexNamePrefix = "contoso_"
	h.tick(t, 20, 20)
	found := false
	for _, def := range h.db.IndexDefs() {
		if def.AutoCreated {
			found = true
			if !strings.HasPrefix(def.Name, "contoso_") {
				t.Fatalf("naming scheme not applied: %s", def.Name)
			}
		}
	}
	if !found {
		t.Fatal("nothing implemented")
	}
	// The record carries the final name so validation/revert target it.
	for _, r := range h.cp.History("cpdb") {
		if r.State == StateSuccess || r.State == StateValidating {
			if !strings.HasPrefix(r.Index.Name, "contoso_") {
				t.Fatalf("record name not rewritten: %s", r.Index.Name)
			}
		}
	}
}

// TestCrossDatabaseCandidates exercises the SaaS-vendor consensus view:
// structurally identical tenants produce the same recommendation shape,
// which surfaces as a cross-database candidate and can be bulk-applied.
func TestCrossDatabaseCandidates(t *testing.T) {
	clock := sim.NewClock()
	cfg := DefaultConfig()
	cfg.AnalyzeEvery = time.Hour
	cp := New(cfg, clock, NewMemStore())
	var dbs []*engine.Database
	for i := 0; i < 4; i++ {
		db := engine.New(engine.DefaultConfig(fmt.Sprintf("tenant%d", i), engine.TierBasic, int64(100+i)), clock)
		if _, err := db.Exec(`CREATE TABLE items (id BIGINT NOT NULL, cat BIGINT, price FLOAT, PRIMARY KEY (id))`); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 1200; j++ {
			db.Exec(fmt.Sprintf(`INSERT INTO items (id, cat, price) VALUES (%d, %d, %d.5)`, j, (j*7+i)%120, j)) //nolint:errcheck
		}
		db.RebuildAllStats()
		cp.Manage(db, "saas", Settings{}) // no auto-implement: vendor decides
		dbs = append(dbs, db)
	}
	for h := 0; h < 12; h++ {
		for _, db := range dbs {
			for q := 0; q < 12; q++ {
				db.Exec(fmt.Sprintf(`SELECT id, price FROM items WHERE cat = %d`, (h*11+q)%120)) //nolint:errcheck
			}
		}
		clock.Advance(time.Hour)
		cp.Step()
	}
	cands := cp.CrossDatabaseCandidates("saas", 0.75)
	if len(cands) == 0 {
		t.Fatal("no cross-database consensus candidate")
	}
	top := cands[0]
	if top.Fraction < 0.75 || len(top.Databases) < 3 {
		t.Fatalf("consensus too weak: %+v", top)
	}
	// Bulk apply: every listed database's recommendation becomes
	// user-requested and is implemented on the next steps.
	if err := cp.ApplyAcross(top); err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 4; h++ {
		clock.Advance(time.Hour)
		cp.Step()
	}
	implemented := 0
	for _, db := range dbs {
		for _, def := range db.IndexDefs() {
			if def.AutoCreated {
				implemented++
			}
		}
	}
	if implemented < len(top.Databases) {
		t.Fatalf("bulk apply implemented %d of %d", implemented, len(top.Databases))
	}
	// A server with no databases yields nothing.
	if cp.CrossDatabaseCandidates("ghost", 0.5) != nil {
		t.Fatal("unknown server must yield nil")
	}
}
