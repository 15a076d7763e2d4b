package controlplane

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"autoindex/internal/core"
	"autoindex/internal/engine"
	"autoindex/internal/metrics"
	"autoindex/internal/schema"
	"autoindex/internal/sim"
)

// ---- state machine ----

func TestStateMachineLegalPaths(t *testing.T) {
	legal := [][]RecState{
		{StateActive, StateImplementing, StateValidating, StateSuccess},
		{StateActive, StateImplementing, StateValidating, StateReverting, StateReverted},
		{StateActive, StateImplementing, StateRetry, StateImplementing, StateValidating, StateSuccess},
		{StateActive, StateExpired},
		{StateActive, StateImplementing, StateError},
		{StateActive, StateImplementing, StateValidating, StateReverting, StateRetry, StateReverting, StateReverted},
	}
	for _, path := range legal {
		r := &Record{State: path[0]}
		for _, next := range path[1:] {
			if err := r.Transition(next, time.Time{}); err != nil {
				t.Fatalf("path %v: %v", path, err)
			}
		}
	}
}

func TestStateMachineIllegalTransitionsRejected(t *testing.T) {
	illegal := [][2]RecState{
		{StateActive, StateValidating},
		{StateActive, StateSuccess},
		{StateSuccess, StateActive},
		{StateReverted, StateImplementing},
		{StateExpired, StateImplementing},
		{StateError, StateRetry},
		{StateValidating, StateImplementing},
	}
	for _, tr := range illegal {
		r := &Record{State: tr[0]}
		if err := r.Transition(tr[1], time.Time{}); err == nil {
			t.Errorf("transition %s -> %s must be illegal", tr[0], tr[1])
		}
	}
}

// Property: terminal states have no outgoing transitions.
func TestQuickTerminalStatesAreTerminal(t *testing.T) {
	all := []RecState{
		StateActive, StateExpired, StateImplementing, StateValidating,
		StateSuccess, StateReverting, StateReverted, StateRetry, StateError,
	}
	f := func(i, j uint8) bool {
		from := all[int(i)%len(all)]
		to := all[int(j)%len(all)]
		if from.Terminal() && CanTransition(from, to) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// ---- store ----

func TestMemStoreCopySemantics(t *testing.T) {
	s := NewMemStore()
	r := &Record{Recommendation: core.Recommendation{ID: "r1", Database: "db"}, State: StateActive}
	s.SaveRecord(r)
	got, ok := s.GetRecord("r1")
	if !ok {
		t.Fatal("missing record")
	}
	got.State = StateError // mutating the copy must not leak
	got2, _ := s.GetRecord("r1")
	if got2.State != StateActive {
		t.Fatal("store leaked internal state")
	}
	recs := s.Records(func(r *Record) bool { return r.State == StateActive })
	if len(recs) != 1 {
		t.Fatalf("filter: %d", len(recs))
	}
	s.SaveDatabase(&DatabaseState{Name: "DB"})
	if _, ok := s.GetDatabase("db"); !ok {
		t.Fatal("database lookup must be case-insensitive")
	}
}

// ---- end-to-end lifecycle ----

type planeHarness struct {
	clock *sim.VirtualClock
	cp    *ControlPlane
	db    *engine.Database
}

func newPlaneHarness(t *testing.T, settings Settings) *planeHarness {
	t.Helper()
	clock := sim.NewClock()
	cfg := DefaultConfig()
	cfg.AnalyzeEvery = time.Hour
	cfg.SnapshotEvery = 30 * time.Minute
	cfg.ValidationWindow = 4 * time.Hour
	db := engine.New(engine.DefaultConfig("cpdb", engine.TierBasic, 77), clock)
	mustExec(t, db, `CREATE TABLE items (id BIGINT NOT NULL, cat BIGINT, price FLOAT, PRIMARY KEY (id))`)
	for i := 0; i < 2000; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO items (id, cat, price) VALUES (%d, %d, %d.5)`, i, i%200, i))
	}
	db.RebuildAllStats()
	cp := New(cfg, clock, NewMemStore())
	cp.Manage(db, "srv", settings)
	return &planeHarness{clock: clock, cp: cp, db: db}
}

func mustExec(t *testing.T, db *engine.Database, sql string) {
	t.Helper()
	if _, err := db.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

func (h *planeHarness) tick(t *testing.T, hours int, queriesPerHour int) {
	t.Helper()
	for i := 0; i < hours; i++ {
		for q := 0; q < queriesPerHour; q++ {
			mustExec(t, h.db, fmt.Sprintf(`SELECT id, price FROM items WHERE cat = %d`, (i*31+q)%200))
		}
		h.clock.Advance(time.Hour)
		h.cp.Step()
	}
}

func TestLifecycleAutoImplementToSuccess(t *testing.T) {
	h := newPlaneHarness(t, Settings{AutoCreate: true, AutoDrop: true})
	h.tick(t, 30, 20)
	hist := h.cp.History("cpdb")
	success := 0
	for _, r := range hist {
		if r.State == StateSuccess {
			success++
			if r.Validation == nil {
				t.Fatalf("success without validation: %+v", r)
			}
		}
	}
	if success == 0 {
		t.Fatalf("no recommendation reached Success; history: %d records", len(hist))
	}
	// The index exists on the database.
	found := false
	for _, def := range h.db.IndexDefs() {
		if def.AutoCreated {
			found = true
		}
	}
	if !found {
		t.Fatal("auto-created index missing from database")
	}
}

func TestAutoImplementOffLeavesActive(t *testing.T) {
	h := newPlaneHarness(t, Settings{})
	h.tick(t, 10, 20)
	active := h.cp.ListRecommendations("cpdb")
	if len(active) == 0 {
		t.Fatal("expected active recommendations")
	}
	for _, def := range h.db.IndexDefs() {
		if def.AutoCreated {
			t.Fatal("index implemented despite auto-implement off")
		}
	}
	// The user applies one manually (§2): the system implements and
	// validates it.
	if err := h.cp.Apply(active[0].ID); err != nil {
		t.Fatal(err)
	}
	h.tick(t, 8, 20)
	r, _ := h.cp.StateStore().GetRecord(active[0].ID)
	if r.State != StateSuccess && r.State != StateValidating && r.State != StateReverted {
		t.Fatalf("user-applied recommendation stuck in %s", r.State)
	}
}

func TestServerSettingsInheritance(t *testing.T) {
	h := newPlaneHarness(t, Settings{InheritFromServer: true})
	h.cp.SetServerSettings("srv", ServerSettings{AutoCreate: true})
	h.tick(t, 20, 20)
	implemented := false
	for _, def := range h.db.IndexDefs() {
		if def.AutoCreated {
			implemented = true
		}
	}
	if !implemented {
		t.Fatal("server-inherited auto-create did not implement")
	}
}

func TestExpiryOfStaleRecommendations(t *testing.T) {
	h := newPlaneHarness(t, Settings{}) // never implemented
	h.tick(t, 10, 20)
	if len(h.cp.ListRecommendations("cpdb")) == 0 {
		t.Fatal("precondition: active recommendations")
	}
	// Idle past the TTL (no workload → recommendation creation dries up as
	// the MI impact slope flattens, and existing records age out).
	for i := 0; i < 10*24; i++ {
		h.clock.Advance(time.Hour)
		h.cp.Step()
	}
	if n := len(h.cp.ListRecommendations("cpdb")); n != 0 {
		t.Fatalf("%d recommendations survived the TTL", n)
	}
	expired := 0
	for _, r := range h.cp.History("cpdb") {
		if r.State == StateExpired {
			expired++
		}
	}
	if expired == 0 {
		t.Fatal("no record expired")
	}
}

func TestWellKnownErrorTerminalWithoutIncident(t *testing.T) {
	h := newPlaneHarness(t, Settings{AutoCreate: true})
	// File a recommendation whose index name already exists.
	def := schema.IndexDef{Name: "ix_conflict", Table: "items", KeyColumns: []string{"cat"}}
	if err := h.db.CreateIndex(def, engine.IndexBuildOptions{Online: true}); err != nil {
		t.Fatal(err)
	}
	rec := &Record{
		Recommendation: core.Recommendation{
			ID: "rec-x", Database: "cpdb", Action: core.ActionCreateIndex,
			Index: schema.IndexDef{Name: "ix_conflict", Table: "items", KeyColumns: []string{"price"}},
		},
		State: StateActive,
	}
	h.cp.StateStore().SaveRecord(rec)
	h.cp.Step()
	r, _ := h.cp.StateStore().GetRecord("rec-x")
	if r.State != StateError || r.SubState != "well-known-error" {
		t.Fatalf("record: %+v", r)
	}
	if len(h.cp.StateStore().Incidents()) != 0 {
		t.Fatal("well-known error must not raise an incident")
	}
}

func TestTransientErrorRetriesWithBackoff(t *testing.T) {
	h := newPlaneHarness(t, Settings{AutoDrop: true})
	def := schema.IndexDef{Name: "ix_victim", Table: "items", KeyColumns: []string{"cat"}}
	if err := h.db.CreateIndex(def, engine.IndexBuildOptions{Online: true}); err != nil {
		t.Fatal(err)
	}
	// A long-running query blocks the drop's low-priority lock for 2h.
	h.db.Locks().HoldShared("items", h.clock.Now().Add(2*time.Hour))
	rec := &Record{
		Recommendation: core.Recommendation{
			ID: "rec-drop", Database: "cpdb", Action: core.ActionDropIndex, Index: def,
		},
		State: StateActive,
	}
	h.cp.StateStore().SaveRecord(rec)
	h.cp.Step()
	r, _ := h.cp.StateStore().GetRecord("rec-drop")
	if r.State != StateRetry {
		t.Fatalf("lock timeout should retry, got %s (%s)", r.State, r.LastError)
	}
	// After backoff + lock release, the retry succeeds.
	for i := 0; i < 8; i++ {
		h.clock.Advance(time.Hour)
		h.cp.Step()
	}
	r, _ = h.cp.StateStore().GetRecord("rec-drop")
	if r.State != StateValidating && r.State != StateSuccess {
		t.Fatalf("retry did not recover: %s (%s)", r.State, r.LastError)
	}
	if _, exists := h.db.IndexDef("ix_victim"); exists {
		t.Fatal("index not dropped after retry")
	}
}

func TestControlPlaneRestartResumes(t *testing.T) {
	h := newPlaneHarness(t, Settings{AutoCreate: true})
	h.tick(t, 8, 20)
	store := h.cp.StateStore()
	nonTerminal := store.Records(func(r *Record) bool { return !r.State.Terminal() })
	hadWork := len(nonTerminal) > 0 || len(store.Records(nil)) > 0
	if !hadWork {
		t.Fatal("precondition: some records exist")
	}
	// "Restart": a new control plane over the same persistent store.
	cfg := DefaultConfig()
	cfg.AnalyzeEvery = time.Hour
	cfg.ValidationWindow = 4 * time.Hour
	cp2 := New(cfg, h.clock, store)
	cp2.Manage(h.db, "srv", Settings{AutoCreate: true})
	h.cp = cp2
	h.tick(t, 30, 20)
	done := 0
	for _, r := range store.Records(nil) {
		if r.State == StateSuccess || r.State == StateReverted {
			done++
		}
	}
	if done == 0 {
		t.Fatal("restarted control plane made no progress on persisted records")
	}
}

func TestOpStatsCounters(t *testing.T) {
	h := newPlaneHarness(t, Settings{AutoCreate: true, AutoDrop: true})
	h.tick(t, 30, 20)
	s := h.cp.OpStats()
	if s.Databases != 1 || s.CreateRecommended == 0 || s.CreatesImplemented == 0 {
		t.Fatalf("stats: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("string")
	}
}

// TestOpStatsAcrossRestart pins the counter contract behind OpStats:
// counts live in the metrics registry, not in the store, so a plane
// rebuilt over the same store and the same registry carries on counting
// where its predecessor stopped.
func TestOpStatsAcrossRestart(t *testing.T) {
	h := newPlaneHarness(t, Settings{AutoCreate: true, AutoDrop: true})
	store := h.cp.StateStore()
	cfg := DefaultConfig()
	cfg.AnalyzeEvery = time.Hour
	cfg.ValidationWindow = 4 * time.Hour
	cfg.Metrics = metrics.NewRegistry()
	restart := func() *ControlPlane {
		cp := New(cfg, h.clock, store)
		cp.Manage(h.db, "srv", Settings{AutoCreate: true, AutoDrop: true})
		return cp
	}
	h.cp = restart()
	// Restart between implementation and validation, so the validation
	// is counted by the second incarnation.
	for i := 0; i < 24 && h.cp.OpStats().CreatesImplemented == 0; i++ {
		h.tick(t, 1, 20)
	}
	before := h.cp.OpStats()
	if before.CreatesImplemented == 0 {
		t.Fatalf("precondition: nothing implemented before the restart: %+v", before)
	}

	h.cp = restart()
	if got := h.cp.OpStats(); got != before {
		t.Fatalf("restart changed OpStats:\n got %+v\nwant %+v", got, before)
	}
	h.tick(t, 30, 20)
	after := h.cp.OpStats()
	if after.Validations <= before.Validations || after.CreatesImplemented < before.CreatesImplemented {
		t.Fatalf("restarted plane did not keep counting: before %+v, after %+v", before, after)
	}

	// A plane over the same store but a fresh registry starts from zero:
	// the store holds records, not counts.
	if got := New(DefaultConfig(), h.clock, store).OpStats(); got.CreatesImplemented != 0 || got.Validations != 0 {
		t.Fatalf("fresh registry reported counts: %+v", got)
	}
}

func TestDetailsRendering(t *testing.T) {
	h := newPlaneHarness(t, Settings{})
	h.tick(t, 10, 20)
	active := h.cp.ListRecommendations("cpdb")
	if len(active) == 0 {
		t.Fatal("precondition")
	}
	d, err := h.cp.Details(active[0].ID)
	if err != nil || d == "" {
		t.Fatalf("details: %v %q", err, d)
	}
	if _, err := h.cp.Details("nope"); err == nil {
		t.Fatal("unknown id must error")
	}
}
