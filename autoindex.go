// Package autoindex is the public facade of the auto-indexing service
// reproduction: it wires a per-region control plane over engine databases,
// exposing the user-facing surface of the paper (§2) — configure
// auto-implementation per database or per logical server, list current
// recommendations, apply one manually, and inspect the history of actions
// with their validated impact — plus helpers to create databases and
// advance the simulated region.
//
// A minimal session:
//
//	region := autoindex.NewRegion(42)
//	db := region.NewDatabase("mydb", autoindex.TierStandard)
//	region.Manage(db, "server-1", autoindex.Settings{AutoCreate: true, AutoDrop: true})
//	// ... execute workload via db.Exec(...) ...
//	region.Advance(24 * time.Hour) // control plane analyzes, implements, validates
//	for _, rec := range region.Recommendations("mydb") { fmt.Println(rec.Describe()) }
package autoindex

import (
	"sort"
	"time"

	"autoindex/internal/controlplane"
	"autoindex/internal/engine"
	"autoindex/internal/sim"
)

// Re-exported types so callers need only this package for common use.
type (
	// Tier is an Azure-SQL-style service tier.
	Tier = engine.Tier
	// Settings are the per-database auto-implementation controls (§2).
	Settings = controlplane.Settings
	// ServerSettings are logical-server defaults databases can inherit.
	ServerSettings = controlplane.ServerSettings
	// Database is a managed database engine instance.
	Database = engine.Database
	// Record is a recommendation with its lifecycle state.
	Record = controlplane.Record
	// OperationalStats is the §8.1-style service summary.
	OperationalStats = controlplane.OperationalStats
)

// Service tiers.
const (
	TierBasic    = engine.TierBasic
	TierStandard = engine.TierStandard
	TierPremium  = engine.TierPremium
)

// Region is one auto-indexing deployment: a control plane, a shared
// virtual clock, and the databases it manages.
type Region struct {
	clock *sim.VirtualClock
	plane *controlplane.ControlPlane
	seed  int64
	// StepEvery is how often Advance runs a control-plane round.
	StepEvery time.Duration
}

// NewRegion creates a region with default control-plane configuration.
func NewRegion(seed int64) *Region {
	clock := sim.NewClock()
	return &Region{
		clock:     clock,
		plane:     controlplane.New(controlplane.DefaultConfig(), clock, controlplane.NewMemStore()),
		seed:      seed,
		StepEvery: time.Hour,
	}
}

// NewRegionWithConfig creates a region with a custom control-plane
// configuration.
func NewRegionWithConfig(seed int64, cfg controlplane.Config) *Region {
	clock := sim.NewClock()
	return &Region{
		clock:     clock,
		plane:     controlplane.New(cfg, clock, controlplane.NewMemStore()),
		seed:      seed,
		StepEvery: time.Hour,
	}
}

// Clock exposes the region's virtual clock.
func (r *Region) Clock() *sim.VirtualClock { return r.clock }

// Plane exposes the underlying control plane for advanced use.
func (r *Region) Plane() *controlplane.ControlPlane { return r.plane }

// NewDatabase creates an empty database in the region. Populate it with
// db.Exec DDL/DML or the workload generator.
func (r *Region) NewDatabase(name string, tier Tier) *Database {
	r.seed++
	return engine.New(engine.DefaultConfig(name, tier, r.seed), r.clock)
}

// Manage registers a database with the auto-indexing service.
func (r *Region) Manage(db *Database, server string, s Settings) {
	r.plane.Manage(db, server, s)
}

// SetServerSettings configures logical-server defaults (§2 inheritance).
func (r *Region) SetServerSettings(server string, s ServerSettings) {
	r.plane.SetServerSettings(server, s)
}

// Advance moves virtual time forward, running control-plane rounds every
// StepEvery.
func (r *Region) Advance(d time.Duration) {
	step := r.StepEvery
	if step <= 0 {
		step = time.Hour
	}
	for elapsed := time.Duration(0); elapsed < d; elapsed += step {
		r.clock.Advance(step)
		r.plane.Step()
	}
}

// Step runs one control-plane round without advancing time.
func (r *Region) Step() { r.plane.Step() }

// Recommendations lists a database's Active recommendations (Fig. 2).
func (r *Region) Recommendations(db string) []*Record {
	return r.plane.ListRecommendations(db)
}

// History lists a database's completed/ongoing actions and outcomes.
func (r *Region) History(db string) []*Record {
	return r.plane.History(db)
}

// Details renders the detailed recommendation view (Fig. 3).
func (r *Region) Details(recID string) (string, error) {
	return r.plane.Details(recID)
}

// Apply requests manual implementation of an Active recommendation; the
// system implements and validates it (§2).
func (r *Region) Apply(recID string) error { return r.plane.Apply(recID) }

// OpStats summarises the service's operational counters (§8.1).
func (r *Region) OpStats() OperationalStats { return r.plane.OpStats() }

// DashboardRow is one region's aggregated health view.
type DashboardRow struct {
	Region string
	Stats  OperationalStats
}

// Dashboard aggregates operational statistics across regions — the §8.3
// monitoring surface ("dashboards to aggregate data from disparate regions
// to create an aggregated view of the service"). Only anonymized counters
// cross the region boundary, matching the compliance posture of §1.2.
func Dashboard(regions map[string]*Region) []DashboardRow {
	names := make([]string, 0, len(regions))
	for n := range regions {
		names = append(names, n)
	}
	sort.Strings(names)
	rows := make([]DashboardRow, 0, len(names))
	for _, n := range names {
		rows = append(rows, DashboardRow{Region: n, Stats: regions[n].OpStats()})
	}
	return rows
}

// DashboardTotal sums the per-region rows into a global view.
func DashboardTotal(rows []DashboardRow) OperationalStats {
	var total OperationalStats
	for _, r := range rows {
		total.Databases += r.Stats.Databases
		total.CreateRecommended += r.Stats.CreateRecommended
		total.DropRecommended += r.Stats.DropRecommended
		total.CreatesImplemented += r.Stats.CreatesImplemented
		total.DropsImplemented += r.Stats.DropsImplemented
		total.Validations += r.Stats.Validations
		total.Reverts += r.Stats.Reverts
		total.Incidents += r.Stats.Incidents
		total.WriteRegressionReverts += r.Stats.WriteRegressionReverts
		total.WriteRegressionRevertsMI += r.Stats.WriteRegressionRevertsMI
		total.SelectRegressionReverts += r.Stats.SelectRegressionReverts
	}
	if implemented := total.CreatesImplemented + total.DropsImplemented; implemented > 0 {
		total.RevertRate = float64(total.Reverts) / float64(implemented)
	}
	if total.Reverts > 0 {
		total.WriteRegressionShare = float64(total.WriteRegressionReverts) / float64(total.Reverts)
	}
	return total
}
