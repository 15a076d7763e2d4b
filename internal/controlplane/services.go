package controlplane

import (
	"errors"
	"strings"
	"time"

	"autoindex/internal/core"
	"autoindex/internal/engine"
	"autoindex/internal/schema"
	"autoindex/internal/validate"
)

// sameKeyIndexExists reports whether the database already has a real
// index with def's exact key columns on def's table.
func sameKeyIndexExists(db *engine.Database, def schema.IndexDef) bool {
	for _, e := range db.IndexDefs() {
		if !e.Hypothetical && strings.EqualFold(e.Table, def.Table) && e.SameKey(def) {
			return true
		}
	}
	return false
}

// nextAttemptDue reports whether a Retry record's backoff has elapsed.
func (cp *ControlPlane) nextAttemptDue(r *Record, now time.Time) bool {
	backoff := cp.cfg.RetryBackoff * time.Duration(1<<uint(minInt(r.Attempts, 6)))
	return now.Sub(r.UpdatedAt) >= backoff
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// implementService implements Active recommendations whose database allows
// it (auto-implement on, or the user requested it), and drives Retry
// records back into their target step.
func (cp *ControlPlane) implementService(include func(string) bool) {
	if !cp.implementAllowedNow() {
		// Outside the maintenance window: implementations wait (§8.2).
		return
	}
	now := cp.clock.Now()
	// Retry records first: resume the failed step after backoff.
	for _, r := range cp.store.Records(func(r *Record) bool { return r.State == StateRetry }) {
		if !stepIncludes(include, r.Database) || !cp.nextAttemptDue(r, now) {
			continue
		}
		target := r.RetryTarget
		if target == "" {
			target = StateImplementing
		}
		if err := cp.transition(r, target, now); err != nil {
			continue
		}
		cp.store.SaveRecord(r)
	}

	for _, r := range cp.store.Records(func(r *Record) bool { return r.State == StateActive }) {
		if !stepIncludes(include, r.Database) {
			continue
		}
		m, ok := cp.managedDB(r.Database)
		if !ok {
			continue
		}
		ds, ok := cp.store.GetDatabase(r.Database)
		if !ok {
			continue
		}
		server := cp.serverSettings(ds.Server)
		autoCreate, autoDrop := ds.Settings.Effective(server)
		allowed := r.UserRequested ||
			(r.Action == core.ActionCreateIndex && autoCreate) ||
			(r.Action == core.ActionDropIndex && autoDrop)
		if !allowed {
			continue
		}
		if err := cp.transition(r, StateImplementing, now); err != nil {
			continue
		}
		cp.store.SaveRecord(r)
		cp.executeImplement(m, r)
	}

	// Records sitting in Implementing (e.g., resumed from Retry) execute.
	for _, r := range cp.store.Records(func(r *Record) bool { return r.State == StateImplementing }) {
		if !stepIncludes(include, r.Database) || r.SubState == "executed" {
			continue
		}
		m, ok := cp.managedDB(r.Database)
		if !ok {
			continue
		}
		cp.executeImplement(m, r)
	}
}

func (cp *ControlPlane) serverSettings(server string) ServerSettings {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.server[server]
}

// executeImplement performs the index change for a record in
// Implementing, classifying failures into Retry or terminal Error. Both
// actions are idempotent so a control plane that crashed after executing
// but before persisting the transition converges on restart instead of
// erroring: a create adopts an identical index a lost attempt already
// built, a drop treats an already-absent index as goal met.
func (cp *ControlPlane) executeImplement(m *managed, r *Record) {
	now := cp.clock.Now()
	sp := cp.tracer.Start()
	defer sp.End() // covers the index build's virtual duration
	var err error
	switch r.Action {
	case core.ActionCreateIndex:
		def := r.Index.Clone()
		def.AutoCreated = true
		def.Name = cp.applyNamingScheme(def.Name)
		r.Index = def.Clone()
		if existing, ok := m.db.IndexDef(def.Name); ok && existing.AutoCreated &&
			existing.Signature() == def.Signature() {
			// Crash consistency: a previous attempt built this exact index
			// but died before recording it. Adopt the build. A same-name
			// index with a different shape still fails below with the
			// well-known ErrIndexExists.
			err = nil
		} else {
			err = m.db.CreateIndex(def, engine.IndexBuildOptions{Online: true, Resumable: true})
		}
	case core.ActionDropIndex:
		err = m.db.DropIndex(r.Index.Name, engine.DropIndexOptions{LowPriority: true})
		if errors.Is(err, engine.ErrIndexNotFound) {
			// Already absent — dropped by an attempt whose transition was
			// lost, or externally. Either way the goal state holds.
			err = nil
		}
	}
	now = cp.clock.Now() // index builds advance virtual time
	if err != nil {
		cp.handleImplementError(r, err, StateImplementing, now)
		return
	}
	r.ImplementedAt = now
	r.SubState = "executed"
	if terr := cp.transition(r, StateValidating, now); terr != nil {
		return
	}
	cp.store.SaveRecord(r)
	if r.Action == core.ActionCreateIndex {
		cp.reg.Counter(descImplementedCreate).Inc()
	} else {
		cp.reg.Counter(descImplementedDrop).Inc()
	}
}

// errorClass buckets an implementation error per the paper's taxonomy (§4).
type errorClass int

const (
	// errClassWellKnown conditions (index already exists, table/column
	// dropped, index dropped externally) are terminal without an incident.
	errClassWellKnown errorClass = iota
	// errClassTransient errors (lock timeout, log full, aborted online
	// build) retry with backoff.
	errClassTransient
	// errClassUnrecognized errors are terminal and raise an incident.
	errClassUnrecognized
)

// classifyImplementError buckets err using errors.Is so engine errors stay
// correctly classified through any number of %w wrapping layers — the
// engine annotates every failure with context ("create index ix: ... :
// ErrLogFull") and callers may wrap again; sentinel equality would read
// all of those as unrecognized and terminally error out records that a
// retry would have recovered.
func classifyImplementError(err error) errorClass {
	switch {
	case errors.Is(err, engine.ErrIndexExists),
		errors.Is(err, engine.ErrIndexNotFound),
		errors.Is(err, engine.ErrTableNotFound),
		errors.Is(err, schema.ErrColumnNotFound):
		// ErrColumnNotFound: a customer schema migration (column drop or
		// rename) raced the in-flight recommendation; the record is
		// terminally stale but nothing is wrong with the service (§8.3).
		return errClassWellKnown
	case errors.Is(err, engine.ErrLockTimeout),
		errors.Is(err, engine.ErrLogFull),
		errors.Is(err, engine.ErrBuildAborted):
		return errClassTransient
	default:
		return errClassUnrecognized
	}
}

// handleImplementError applies the paper's error taxonomy: well-known
// terminal conditions become Error without an incident; transient errors
// retry with backoff; exhausted retries and unrecognized errors raise an
// incident.
func (cp *ControlPlane) handleImplementError(r *Record, err error, failedAt RecState, now time.Time) {
	r.LastError = err.Error()
	switch classifyImplementError(err) {
	case errClassWellKnown:
		r.SubState = "well-known-error"
		_ = cp.transition(r, StateError, now)
		cp.store.SaveRecord(r)
		cp.reg.Counter(descErrorsTerminal).Inc()
		return
	case errClassTransient:
		r.Attempts++
		if r.Attempts <= cp.cfg.MaxRetries {
			r.RetryTarget = failedAt
			r.SubState = "transient-error"
			_ = cp.transition(r, StateRetry, now)
			cp.store.SaveRecord(r)
			cp.reg.Counter(descErrorsTransient).Inc()
			return
		}
	}
	r.SubState = "unrecognized-error"
	_ = cp.transition(r, StateError, now)
	cp.store.SaveRecord(r)
	cp.reg.Counter(descErrorsIncident).Inc()
	cp.incident(r.Database, r.ID, "implementation-failure", err.Error())
}

// validationService validates records whose post-implementation window has
// elapsed, reverting on detected regressions (§6).
func (cp *ControlPlane) validationService(include func(string) bool) {
	now := cp.clock.Now()
	for _, r := range cp.store.Records(func(r *Record) bool { return r.State == StateValidating }) {
		if !stepIncludes(include, r.Database) || now.Sub(r.ImplementedAt) < cp.cfg.ValidationWindow {
			continue
		}
		m, ok := cp.managedDB(r.Database)
		if !ok {
			continue
		}
		created := r.Action == core.ActionCreateIndex
		sp := cp.tracer.Start()
		outcome := validate.Validate(m.db.QueryStore(), r.Index.Name, created,
			r.ImplementedAt, cp.cfg.ValidationWindow, cp.cfg.Validator)
		r.Validation = &outcome
		cp.reg.Counter(descValidations).Inc()
		switch outcome.Verdict {
		case validate.VerdictImproved:
			cp.reg.Counter(descValidationsImproved).Inc()
		case validate.VerdictRegressed:
			cp.reg.Counter(descValidationsRegressed).Inc()
		default:
			cp.reg.Counter(descValidationsInconclusive).Inc()
		}
		// Feed the outcome back into the MI classifier (§5.2).
		if r.Source == core.SourceMI && len(r.Features) > 0 {
			m.miRec.TrainFromValidation(r.Features, outcome.Verdict == validate.VerdictImproved)
		}
		if outcome.Revert {
			_ = cp.transition(r, StateReverting, now)
			cp.store.SaveRecord(r)
			cp.reg.Counter(descReverts).Inc()
			cp.classifyRevert(m, r, &outcome)
			sp.End()
			continue
		}
		r.SubState = string("validated-" + outcome.Verdict.String())
		_ = cp.transition(r, StateSuccess, now)
		cp.store.SaveRecord(r)
		cp.reg.Counter(descValidationsSuccess).Inc()
		if outcome.Verdict == validate.VerdictImproved {
			cp.reg.Counter(descValidationsKeptImproved).Inc()
		}
		sp.End()
	}
}

// classifyRevert attributes the revert cause for the §8.1 counters: MI
// reverts skew to writes becoming more expensive (maintenance costs it
// never modelled); SELECT regressions implicate optimizer estimation
// error.
func (cp *ControlPlane) classifyRevert(m *managed, r *Record, outcome *validate.Outcome) {
	writeRegression := false
	for _, qv := range outcome.Queries {
		if qv.Verdict != validate.VerdictRegressed {
			continue
		}
		if q, ok := m.db.QueryStore().Query(qv.QueryHash); ok && q.IsWrite {
			writeRegression = true
			break
		}
	}
	if writeRegression {
		cp.reg.Counter(descRevertsWriteRegression).Inc()
		if r.Source == core.SourceMI {
			cp.reg.Counter(descRevertsWriteRegressionMI).Inc()
		}
	} else {
		cp.reg.Counter(descRevertsSelectRegression).Inc()
	}
}

// revertService executes pending reverts: drop the created index or
// recreate the dropped one, always at low lock priority with retries
// (§8.3).
func (cp *ControlPlane) revertService(include func(string) bool) {
	now := cp.clock.Now()
	for _, r := range cp.store.Records(func(r *Record) bool { return r.State == StateReverting }) {
		if !stepIncludes(include, r.Database) {
			continue
		}
		m, ok := cp.managedDB(r.Database)
		if !ok {
			continue
		}
		var err error
		switch r.Action {
		case core.ActionCreateIndex:
			err = m.db.DropIndex(r.Index.Name, engine.DropIndexOptions{LowPriority: true})
			if errors.Is(err, engine.ErrIndexNotFound) {
				err = nil // dropped externally; revert goal already met
			}
		case core.ActionDropIndex:
			def := r.Index.Clone()
			if sameKeyIndexExists(m.db, def) {
				// A key-equivalent index is already back (a lost attempt's
				// build, or a fresh create that landed mid-revert): the
				// revert goal — the workload has its index again — holds.
				err = nil
			} else {
				err = m.db.CreateIndex(def, engine.IndexBuildOptions{Online: true, Resumable: true})
				if errors.Is(err, engine.ErrIndexExists) {
					err = nil
				}
			}
		}
		now = cp.clock.Now()
		if err != nil {
			cp.handleImplementError(r, err, StateReverting, now)
			continue
		}
		_ = cp.transition(r, StateReverted, now)
		cp.store.SaveRecord(r)
		cp.reg.Counter(descRevertsCompleted).Inc()
	}
}

// expiryService expires stale Active recommendations (age-based TTL) and
// Active recommendations invalidated by a newer one on the same key
// (§4's Expired state).
func (cp *ControlPlane) expiryService(include func(string) bool) {
	now := cp.clock.Now()
	active := cp.store.Records(func(r *Record) bool { return r.State == StateActive })
	for _, r := range active {
		// The invalidation scan below only compares same-database records,
		// so filtering the outer loop filters the whole service.
		if !stepIncludes(include, r.Database) {
			continue
		}
		if now.Sub(r.CreatedAt) > cp.cfg.RecommendationTTL {
			r.SubState = "aged-out"
			_ = cp.transition(r, StateExpired, now)
			cp.store.SaveRecord(r)
			cp.reg.Counter(descExpired).Inc()
			continue
		}
		for _, newer := range active {
			if newer.ID == r.ID || newer.Database != r.Database || !newer.CreatedAt.After(r.CreatedAt) {
				continue
			}
			if newer.Action == r.Action && strings.EqualFold(newer.Index.Table, r.Index.Table) && newer.Index.SameKey(r.Index) {
				r.SubState = "invalidated-by-" + newer.ID
				_ = cp.transition(r, StateExpired, now)
				cp.store.SaveRecord(r)
				cp.reg.Counter(descExpired).Inc()
				break
			}
		}
	}
}

// healthService detects stuck non-terminal records and raises incidents
// with a final retry (§4's health micro-service).
func (cp *ControlPlane) healthService(include func(string) bool) {
	now := cp.clock.Now()
	for _, r := range cp.store.Records(func(r *Record) bool {
		return !r.State.Terminal() && r.State != StateActive
	}) {
		if !stepIncludes(include, r.Database) || now.Sub(r.UpdatedAt) <= cp.cfg.StuckAfter {
			continue
		}
		cp.incident(r.Database, r.ID, "stuck-recommendation",
			"record stuck in "+string(r.State)+" since "+r.UpdatedAt.Format(time.RFC3339))
		r.Attempts++
		if r.Attempts > cp.cfg.MaxRetries {
			r.SubState = "stuck"
			_ = cp.transition(r, StateError, now)
		} else if r.State == StateImplementing || r.State == StateReverting {
			r.RetryTarget = r.State
			_ = cp.transition(r, StateRetry, now)
		} else {
			r.UpdatedAt = now
		}
		cp.store.SaveRecord(r)
	}
}

func (cp *ControlPlane) incident(db, recID, kind, msg string) {
	cp.store.SaveIncident(Incident{
		At:       cp.clock.Now(),
		Database: db,
		RecID:    recID,
		Kind:     kind,
		Message:  msg,
	})
	cp.reg.Counter(descIncidents).Inc()
}
