package controlplane

import (
	"errors"
	"fmt"
	"strings"

	"autoindex/internal/metrics"
)

// This file is the user-facing surface of §2: list current
// recommendations, inspect details, apply one manually, and view the
// history of actions with their measured impact — what the Azure portal,
// REST API and T-SQL API expose.

// ErrNoRecommendation reports a details/apply call for a recommendation
// ID the control plane has no record of. Callers classify with
// errors.Is, never by matching the message.
var ErrNoRecommendation = errors.New("controlplane: no recommendation")

// ListRecommendations returns the Active recommendations for a database
// (the Fig. 2 view).
func (cp *ControlPlane) ListRecommendations(db string) []*Record {
	return cp.store.Records(func(r *Record) bool {
		return strings.EqualFold(r.Database, db) && r.State == StateActive
	})
}

// History returns all non-Active records for a database, i.e. the history
// of actions and their outcomes.
func (cp *ControlPlane) History(db string) []*Record {
	return cp.store.Records(func(r *Record) bool {
		return strings.EqualFold(r.Database, db) && r.State != StateActive
	})
}

// Details renders the detailed view of a recommendation (Fig. 3):
// definition, estimated size/impact, and impacted statements.
func (cp *ControlPlane) Details(recID string) (string, error) {
	r, ok := cp.store.GetRecord(recID)
	if !ok {
		return "", fmt.Errorf("%w %q", ErrNoRecommendation, recID)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Describe())
	fmt.Fprintf(&b, "  state: %s", r.State)
	if r.SubState != "" {
		fmt.Fprintf(&b, " (%s)", r.SubState)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "  definition: %s\n", r.Index.String())
	fmt.Fprintf(&b, "  estimated size: %.1f MB\n", float64(r.EstSizeBytes)/(1<<20))
	fmt.Fprintf(&b, "  source: %s\n", r.Source)
	if len(r.ImpactedQueries) > 0 {
		fmt.Fprintf(&b, "  impacted statements: %d\n", len(r.ImpactedQueries))
		if m, ok := cp.managedDB(r.Database); ok {
			shown := 0
			for _, q := range r.ImpactedQueries {
				if e, ok := m.db.QueryStore().Query(q); ok {
					fmt.Fprintf(&b, "    - %.90s\n", e.Text)
					shown++
				}
				if shown >= 5 {
					break
				}
			}
		}
	}
	if r.Validation != nil {
		fmt.Fprintf(&b, "  validation: %s\n", r.Validation.Describe())
	}
	return b.String(), nil
}

// Apply marks a recommendation for implementation on the user's behalf;
// the system will implement and validate it even with auto-implement off
// (§2: "the user can manually specify the system to apply a
// recommendation which are validated by the system").
func (cp *ControlPlane) Apply(recID string) error {
	r, ok := cp.store.GetRecord(recID)
	if !ok {
		return fmt.Errorf("%w %q", ErrNoRecommendation, recID)
	}
	if r.State != StateActive {
		return fmt.Errorf("controlplane: recommendation %q is %s, not Active", recID, r.State)
	}
	r.UserRequested = true
	return cp.store.SaveRecord(r)
}

// SetSettings updates a database's auto-implementation settings.
func (cp *ControlPlane) SetSettings(db string, s Settings) error {
	ds, ok := cp.store.GetDatabase(db)
	if !ok {
		return fmt.Errorf("controlplane: database %q not managed", db)
	}
	ds.Settings = s
	return cp.store.SaveDatabase(ds)
}

// OperationalStats is the §8.1-style snapshot across managed databases.
type OperationalStats struct {
	Databases            int
	CreateRecommended    int64
	DropRecommended      int64
	CreatesImplemented   int64
	DropsImplemented     int64
	Validations          int64
	Reverts              int64
	RevertRate           float64
	WriteRegressionShare float64
	Incidents            int64
	// Revert causes: every revert is either a write regression or a
	// SELECT regression; WriteRegressionRevertsMI is the MI-sourced
	// part of the former.
	WriteRegressionReverts   int64
	WriteRegressionRevertsMI int64
	SelectRegressionReverts  int64
}

// OpStats aggregates the current operational counters from the plane's
// metrics registry.
func (cp *ControlPlane) OpStats() OperationalStats {
	c := func(d *metrics.Desc) int64 { return cp.reg.Counter(d).Value() }
	s := OperationalStats{
		Databases:                len(cp.sortedManaged()),
		CreateRecommended:        c(descRecsCreate),
		DropRecommended:          c(descRecsDrop),
		CreatesImplemented:       c(descImplementedCreate),
		DropsImplemented:         c(descImplementedDrop),
		Validations:              c(descValidations),
		Reverts:                  c(descReverts),
		Incidents:                c(descIncidents),
		WriteRegressionReverts:   c(descRevertsWriteRegression),
		WriteRegressionRevertsMI: c(descRevertsWriteRegressionMI),
		SelectRegressionReverts:  c(descRevertsSelectRegression),
	}
	if implemented := s.CreatesImplemented + s.DropsImplemented; implemented > 0 {
		s.RevertRate = float64(s.Reverts) / float64(implemented)
	}
	if s.Reverts > 0 {
		s.WriteRegressionShare = float64(s.WriteRegressionReverts) / float64(s.Reverts)
	}
	return s
}

// String renders the stats like the paper's §8.1 narrative.
func (s OperationalStats) String() string {
	return fmt.Sprintf(
		"databases=%d create-recs=%d drop-recs=%d implemented(create=%d drop=%d) validations=%d reverts=%d (%.1f%%, write-regression %.0f%%) incidents=%d",
		s.Databases, s.CreateRecommended, s.DropRecommended,
		s.CreatesImplemented, s.DropsImplemented,
		s.Validations, s.Reverts, s.RevertRate*100, s.WriteRegressionShare*100, s.Incidents)
}
