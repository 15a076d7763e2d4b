// Package controlplane implements the paper's control plane (§4): the
// fault-tolerant, per-region service that drives the index-lifecycle state
// machine for every managed database. It is structured as micro-services
// — snapshotting, analysis, implementation, validation, revert, expiry and
// health detection — each advanced by Step so fleet simulations stay
// deterministic under virtual time. All state lives behind the Store
// interface; the in-memory store optionally journals to disk so a
// restarted control plane resumes where it left off.
package controlplane

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"autoindex/internal/core"
	"autoindex/internal/validate"
)

// RecState is a recommendation's lifecycle state (§4's nine states).
type RecState string

// Recommendation states.
const (
	StateActive       RecState = "Active"
	StateExpired      RecState = "Expired"
	StateImplementing RecState = "Implementing"
	StateValidating   RecState = "Validating"
	StateSuccess      RecState = "Success"
	StateReverting    RecState = "Reverting"
	StateReverted     RecState = "Reverted"
	StateRetry        RecState = "Retry"
	StateError        RecState = "Error"
)

// Terminal reports whether the state is terminal.
func (s RecState) Terminal() bool {
	switch s {
	case StateExpired, StateSuccess, StateReverted, StateError:
		return true
	default:
		return false
	}
}

// transitions is the legal state graph; anything else is a bug.
var transitions = map[RecState][]RecState{
	StateActive:       {StateImplementing, StateExpired},
	StateImplementing: {StateValidating, StateRetry, StateError},
	StateValidating:   {StateSuccess, StateReverting, StateRetry, StateError},
	StateReverting:    {StateReverted, StateRetry, StateError},
	StateRetry:        {StateImplementing, StateReverting, StateError, StateExpired},
}

// CanTransition reports whether from → to is legal.
func CanTransition(from, to RecState) bool {
	for _, t := range transitions[from] {
		if t == to {
			return true
		}
	}
	return false
}

// Record is the persisted state of one recommendation.
type Record struct {
	core.Recommendation
	State    RecState
	SubState string
	// RetryTarget is the state a Retry returns to.
	RetryTarget   RecState
	Attempts      int
	LastError     string
	ImplementedAt time.Time
	UpdatedAt     time.Time
	// Validation holds the outcome once validation ran.
	Validation *validate.Outcome
	// UserRequested marks a manual "apply" from the portal (§2); such
	// recommendations are implemented even when auto-implement is off.
	UserRequested bool
}

// Transition moves the record to a new state, enforcing legality.
func (r *Record) Transition(to RecState, now time.Time) error {
	if !CanTransition(r.State, to) {
		return fmt.Errorf("controlplane: illegal transition %s -> %s for %s", r.State, to, r.ID)
	}
	r.State = to
	r.UpdatedAt = now
	return nil
}

// Settings are the §2 user-facing controls for one database, with
// server-level inheritance.
type Settings struct {
	// AutoCreate implements create recommendations automatically.
	AutoCreate bool
	// AutoDrop implements drop recommendations automatically.
	AutoDrop bool
	// InheritFromServer uses the logical server's settings instead.
	InheritFromServer bool
}

// ServerSettings are the logical-server defaults databases may inherit.
type ServerSettings struct {
	AutoCreate bool
	AutoDrop   bool
}

// DatabaseState is the per-database record the control plane persists.
type DatabaseState struct {
	Name          string
	Server        string
	Settings      Settings
	LastSnapshot  time.Time
	LastAnalysis  time.Time
	LastDropScan  time.Time
	ObservedSince time.Time
	// DTASession tracks the DTA session sub-state machine (§5.3.3).
	DTASession string
}

// Effective resolves inheritance against the server settings.
func (s Settings) Effective(server ServerSettings) (autoCreate, autoDrop bool) {
	if s.InheritFromServer {
		return server.AutoCreate, server.AutoDrop
	}
	return s.AutoCreate, s.AutoDrop
}

// Incident is a service-health issue for on-call engineers (§4).
type Incident struct {
	At       time.Time
	Database string
	RecID    string
	Kind     string
	Message  string
}

// Store is the persistent, highly-available state store behind the
// control plane.
type Store interface {
	SaveRecord(r *Record) error
	GetRecord(id string) (*Record, bool)
	Records(filter func(*Record) bool) []*Record
	SaveDatabase(d *DatabaseState) error
	GetDatabase(name string) (*DatabaseState, bool)
	Databases() []*DatabaseState
	SaveIncident(i Incident) error
	Incidents() []Incident
}

// MemStore is the in-memory Store implementation. A Journal can be
// attached so a restarted control plane resumes from persisted state.
type MemStore struct {
	mu        sync.Mutex
	records   map[string]*Record
	databases map[string]*DatabaseState
	incidents []Incident
}

// NewMemStore returns an empty store.
func NewMemStore() *MemStore {
	return &MemStore{
		records:   make(map[string]*Record),
		databases: make(map[string]*DatabaseState),
	}
}

// SaveRecord implements Store.
func (s *MemStore) SaveRecord(r *Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := *r
	s.records[r.ID] = &cp
	return nil
}

// GetRecord implements Store.
func (s *MemStore) GetRecord(id string) (*Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.records[id]
	if !ok {
		return nil, false
	}
	cp := *r
	return &cp, true
}

// Records implements Store, returning copies sorted by ID.
func (s *MemStore) Records(filter func(*Record) bool) []*Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Record
	for _, r := range s.records {
		if filter == nil || filter(r) {
			cp := *r
			out = append(out, &cp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SaveDatabase implements Store.
func (s *MemStore) SaveDatabase(d *DatabaseState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := *d
	s.databases[strings.ToLower(d.Name)] = &cp
	return nil
}

// GetDatabase implements Store.
func (s *MemStore) GetDatabase(name string) (*DatabaseState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.databases[strings.ToLower(name)]
	if !ok {
		return nil, false
	}
	cp := *d
	return &cp, true
}

// Databases implements Store.
func (s *MemStore) Databases() []*DatabaseState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*DatabaseState, 0, len(s.databases))
	for _, d := range s.databases {
		cp := *d
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SaveIncident implements Store.
func (s *MemStore) SaveIncident(i Incident) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.incidents = append(s.incidents, i)
	return nil
}

// Incidents implements Store.
func (s *MemStore) Incidents() []Incident {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Incident(nil), s.incidents...)
}

var _ Store = (*MemStore)(nil)
