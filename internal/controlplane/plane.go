package controlplane

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"autoindex/internal/core"
	"autoindex/internal/dropper"
	"autoindex/internal/engine"
	"autoindex/internal/mathx"
	"autoindex/internal/metrics"
	"autoindex/internal/recommend/dta"
	"autoindex/internal/recommend/mi"
	"autoindex/internal/sim"
	"autoindex/internal/trace"
	"autoindex/internal/validate"
)

// RecommenderPolicy decides which recommendation source to use for a
// database (§5.1.1's "pre-configured policy": MI's low overhead suits
// low-resource tiers, DTA's comprehensive analysis suits complex
// higher-tier workloads).
type RecommenderPolicy func(db *engine.Database) core.Source

// DefaultPolicy: Premium databases get DTA, Basic get MI, Standard get DTA
// once their workload is substantial enough to justify the overhead.
func DefaultPolicy(db *engine.Database) core.Source {
	switch db.Tier() {
	case engine.TierPremium:
		return core.SourceDTA
	case engine.TierBasic:
		return core.SourceMI
	default:
		if db.QueryStore().Len() >= 12 {
			return core.SourceDTA
		}
		return core.SourceMI
	}
}

// Config tunes the control plane.
type Config struct {
	SnapshotEvery     time.Duration
	AnalyzeEvery      time.Duration
	DropScanEvery     time.Duration
	ValidationWindow  time.Duration
	RecommendationTTL time.Duration
	MaxRetries        int
	RetryBackoff      time.Duration
	StuckAfter        time.Duration

	Validator validate.Config
	Dropper   dropper.Config
	MI        mi.Config
	Policy    RecommenderPolicy
	// MaxCreatesPerAnalysis bounds new create recommendations per run.
	MaxCreatesPerAnalysis int
	// Maintenance restricts automatic implementation to a daily window
	// (§8.2: "implementing indexes during low periods of activity or on a
	// pre-specified schedule"). Zero value = no restriction.
	Maintenance MaintenanceWindow
	// IndexNamePrefix, when set, prefixes every auto-created index name
	// (§8.2: customers asked to control the naming scheme).
	IndexNamePrefix string
	// Metrics receives the control plane's counters (recommendation
	// lifecycle, validation verdicts, revert causes, step latency) and
	// backs the tuning-session tracer; OpStats reads it back. New
	// allocates a private registry when it is nil. A plane rebuilt after
	// a crash must be handed the same registry as the incarnation it
	// replaces — the fleet passes one registry to the initial plane and
	// to every CrashRunner rebuild — so counts continue across restarts.
	Metrics *metrics.Registry
}

// DefaultConfig returns production-like settings scaled for simulation.
func DefaultConfig() Config {
	return Config{
		SnapshotEvery:         30 * time.Minute,
		AnalyzeEvery:          6 * time.Hour,
		DropScanEvery:         24 * time.Hour,
		ValidationWindow:      12 * time.Hour,
		RecommendationTTL:     7 * 24 * time.Hour,
		MaxRetries:            3,
		RetryBackoff:          15 * time.Minute,
		StuckAfter:            48 * time.Hour,
		Validator:             validate.DefaultConfig(),
		Dropper:               dropper.DefaultConfig(),
		MI:                    mi.DefaultConfig(),
		Policy:                DefaultPolicy,
		MaxCreatesPerAnalysis: 2,
	}
}

// managed binds an engine database to its per-database recommender state.
type managed struct {
	db     *engine.Database
	server string
	miRec  *mi.Recommender
}

// ControlPlane drives the auto-indexing lifecycle for a region's
// databases.
type ControlPlane struct {
	cfg    Config
	clock  sim.Clock
	store  Store
	reg    *metrics.Registry
	tracer *trace.Tracer

	mu     sync.Mutex
	dbs    map[string]*managed
	server map[string]ServerSettings
	recSeq int64
	// classifier is the fleet-wide low-impact classifier trained on
	// validation outcomes across all managed databases (§5.2).
	classifier *mathx.Logistic
}

// New creates a control plane.
func New(cfg Config, clock sim.Clock, store Store) *ControlPlane {
	if cfg.AnalyzeEvery == 0 {
		reg := cfg.Metrics
		cfg = DefaultConfig()
		cfg.Metrics = reg
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	return &ControlPlane{
		cfg:        cfg,
		clock:      clock,
		store:      store,
		reg:        cfg.Metrics,
		tracer:     trace.New(clock, cfg.Metrics),
		dbs:        make(map[string]*managed),
		server:     make(map[string]ServerSettings),
		recSeq:     recoverRecSeq(store),
		classifier: mathx.NewLogistic(4),
	}
}

// recoverRecSeq resumes the recommendation ID sequence from the highest
// persisted ID. A control plane restarted over an existing store must
// never restart the sequence at zero: reissued IDs would silently
// overwrite live records via SaveRecord's upsert semantics.
func recoverRecSeq(store Store) int64 {
	var max int64
	for _, r := range store.Records(nil) {
		i := strings.LastIndex(r.ID, "-")
		if i < 0 {
			continue
		}
		if n, err := strconv.ParseInt(r.ID[i+1:], 10, 64); err == nil && n > max {
			max = n
		}
	}
	return max
}

// Store exposes the state store (read-mostly; for dashboards and tests).
func (cp *ControlPlane) StateStore() Store { return cp.store }

// SetServerSettings configures a logical server's defaults (§2).
func (cp *ControlPlane) SetServerSettings(server string, s ServerSettings) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.server[server] = s
}

// Manage registers a database with the service. Every database in the
// region is managed; settings control only whether recommendations are
// auto-implemented.
func (cp *ControlPlane) Manage(db *engine.Database, server string, settings Settings) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	m := &managed{db: db, server: server, miRec: mi.NewWithClassifier(db, cp.cfg.MI, cp.classifier)}
	cp.dbs[strings.ToLower(db.Name())] = m
	now := cp.clock.Now()
	if ds, ok := cp.store.GetDatabase(db.Name()); ok {
		// Re-attach after a control-plane restart: keep persisted state.
		ds.Settings = settings
		cp.store.SaveDatabase(ds)
		return
	}
	cp.store.SaveDatabase(&DatabaseState{
		Name:          db.Name(),
		Server:        server,
		Settings:      settings,
		ObservedSince: now,
	})
}

// managedDB fetches a managed database by name.
func (cp *ControlPlane) managedDB(name string) (*managed, bool) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	m, ok := cp.dbs[strings.ToLower(name)]
	return m, ok
}

// sortedManaged returns managed databases in name order for determinism.
func (cp *ControlPlane) sortedManaged() []*managed {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	out := make([]*managed, 0, len(cp.dbs))
	for _, m := range cp.dbs {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].db.Name() < out[j].db.Name() })
	return out
}

// Step advances every micro-service by one round. Fleet simulations
// interleave Step with workload replay.
func (cp *ControlPlane) Step() { cp.stepFiltered(nil) }

// StepFor advances the micro-services for the subset of managed databases
// accepted by include, which is called with lowercased database names.
// The per-database work and its order are exactly Step restricted to that
// subset: excluded databases are skipped wholesale, included ones see the
// identical service sequence. The fleet's scale mode steps only tenants
// that replayed workload this hour or still carry a live recommendation
// record; because that include set is a function of the activity model and
// the persisted records — never of which tenants happen to be resident —
// a filtered run stays bit-identical under any hibernation pressure.
// A nil include means every database, i.e. StepFor(nil) == Step().
func (cp *ControlPlane) StepFor(include func(name string) bool) {
	cp.stepFiltered(include)
}

func (cp *ControlPlane) stepFiltered(include func(string) bool) {
	start := cp.clock.Now()
	cp.snapshotService(include)
	cp.analysisService(include)
	cp.dropScanService(include)
	cp.implementService(include)
	cp.validationService(include)
	cp.revertService(include)
	cp.expiryService(include)
	cp.healthService(include)
	// Index builds and what-if costing advance virtual time, so this is
	// the tuning work one step imposed on the fleet's clock.
	cp.reg.Histogram(descStepMillis).ObserveDuration(cp.clock.Now().Sub(start))
}

// stepIncludes reports whether a database participates in a filtered step.
func stepIncludes(include func(string) bool, name string) bool {
	return include == nil || include(strings.ToLower(name))
}

// DatabasesWithOpenRecords returns the lowercased names of databases that
// hold at least one non-terminal recommendation record. The scale loop
// keeps these tenants stepped (and therefore resident) even in hours the
// activity model leaves them idle, so every in-flight state machine
// advances on the same schedule regardless of hibernation pressure.
func (cp *ControlPlane) DatabasesWithOpenRecords() map[string]bool {
	open := make(map[string]bool)
	for _, r := range cp.store.Records(func(r *Record) bool { return !r.State.Terminal() }) {
		open[strings.ToLower(r.Database)] = true
	}
	return open
}

// ---- micro-services ----

// snapshotService takes periodic MI DMV snapshots (§5.2).
func (cp *ControlPlane) snapshotService(include func(string) bool) {
	now := cp.clock.Now()
	for _, m := range cp.sortedManaged() {
		if !stepIncludes(include, m.db.Name()) {
			continue
		}
		ds, ok := cp.store.GetDatabase(m.db.Name())
		if !ok {
			continue
		}
		if now.Sub(ds.LastSnapshot) < cp.cfg.SnapshotEvery {
			continue
		}
		m.miRec.TakeSnapshot()
		ds.LastSnapshot = now
		cp.store.SaveDatabase(ds)
		cp.reg.Counter(descMISnapshots).Inc()
	}
}

// analysisService invokes the configured recommender per database and
// files Active create recommendations.
func (cp *ControlPlane) analysisService(include func(string) bool) {
	now := cp.clock.Now()
	for _, m := range cp.sortedManaged() {
		if !stepIncludes(include, m.db.Name()) {
			continue
		}
		ds, ok := cp.store.GetDatabase(m.db.Name())
		if !ok || now.Sub(ds.LastAnalysis) < cp.cfg.AnalyzeEvery {
			continue
		}
		ds.LastAnalysis = now
		source := cp.cfg.Policy(m.db)
		// One tuning-session span per analyzed database; the DTA / MI
		// pass runs as a child span.
		sp := cp.tracer.Start()
		// Workload provenance: did live wire-protocol traffic contribute
		// to the Query Store this pass mines?
		_, liveExecs := m.db.QueryStore().ExecutionTotals()
		if liveExecs > 0 {
			cp.reg.Counter(DescAnalysisLiveWorkload).Inc()
		}
		var cands []core.Candidate
		switch source {
		case core.SourceDTA:
			ds.DTASession = "running"
			cp.store.SaveDatabase(ds)
			opts := dta.OptionsForTier(m.db.Tier())
			// Abort the session if it starts interfering with the user's
			// workload (§5.3.1: wait statistics / blocked-process signals;
			// here the engine's convoy counter is the interference proxy).
			convoyAtStart := m.db.ConvoyBlockedStatements()
			opts.AbortCheck = func() bool {
				return m.db.ConvoyBlockedStatements() > convoyAtStart+10
			}
			dsp := sp.Child()
			res, err := dta.Run(m.db, opts)
			if err != nil && !errors.Is(err, dta.ErrAborted) {
				dsp.End()
				sp.End()
				ds.DTASession = "error"
				cp.store.SaveDatabase(ds)
				cp.incident(m.db.Name(), "", "dta-session-failure", err.Error())
				continue
			}
			if res != nil {
				cands = res.Recommendations
				cp.reg.Counter(descDTASessions).Inc()
				cp.reg.Counter(descDTAWhatIfCalls).Add(res.WhatIfCalls)
				if res.Aborted {
					cp.reg.Counter(descDTAAborted).Inc()
				}
			}
			dsp.End()
			ds.DTASession = "completed"
		default:
			msp := sp.Child()
			cands = m.miRec.Recommend()
			msp.End()
			cp.reg.Counter(descMIAnalyses).Inc()
		}
		cp.store.SaveDatabase(ds)
		created, filedLive := 0, 0
		for _, c := range cands {
			if cp.cfg.MaxCreatesPerAnalysis > 0 && created >= cp.cfg.MaxCreatesPerAnalysis {
				break
			}
			if cp.fileCreateRecommendation(m, c, now) {
				created++
				if liveExecs > 0 && candidateLiveDriven(m.db, c) {
					filedLive++
				}
			}
		}
		cp.reg.Counter(DescRecsLiveDriven).Add(int64(filedLive))
		sp.End()
	}
}

// candidateLiveDriven reports whether any query the candidate targets
// was executed through the serving path — i.e. live client traffic
// contributed evidence for this recommendation.
func candidateLiveDriven(db *engine.Database, c core.Candidate) bool {
	qs := db.QueryStore()
	for _, qh := range c.ImpactedQueries {
		if qs.QueryLiveExecutions(qh) > 0 {
			return true
		}
	}
	return false
}

// fileCreateRecommendation files one Active create recommendation unless a
// live or succeeded duplicate exists.
func (cp *ControlPlane) fileCreateRecommendation(m *managed, c core.Candidate, now time.Time) bool {
	sig := c.Def.Signature()
	dup := cp.store.Records(func(r *Record) bool {
		if r.Database != m.db.Name() || r.Action != core.ActionCreateIndex {
			return false
		}
		sameShape := r.Index.Signature() == sig || strings.EqualFold(r.Index.Name, c.Def.Name)
		// A live record with the same key columns also blocks: were both
		// implemented in the same step, the fleet would end up with two
		// key-identical auto-indexes (the expiry service's same-key
		// invalidation only sees Active records, not ones already racing
		// through Implementing/Retry).
		sameKeyLive := !r.State.Terminal() &&
			strings.EqualFold(r.Index.Table, c.Def.Table) && r.Index.SameKey(c.Def)
		if !sameShape && !sameKeyLive {
			return false
		}
		// Live records block duplicates; so do successes (the index exists)
		// and reverts (validation already proved this index regresses —
		// re-implementing it would loop create/revert forever).
		return !r.State.Terminal() || r.State == StateSuccess || r.State == StateReverted
	})
	if len(dup) > 0 {
		return false
	}
	// Also skip if a structurally identical index already exists.
	for _, e := range m.db.IndexDefs() {
		if strings.EqualFold(e.Table, c.Def.Table) && e.SameKey(c.Def) {
			return false
		}
	}
	cp.mu.Lock()
	cp.recSeq++
	id := fmt.Sprintf("rec-%s-%06d", strings.ToLower(m.db.Name()), cp.recSeq)
	cp.mu.Unlock()
	rec := &Record{
		Recommendation: core.Recommendation{
			ID:                id,
			Database:          m.db.Name(),
			Action:            core.ActionCreateIndex,
			Index:             c.Def,
			EstImprovement:    c.EstImprovement,
			EstImprovementPct: c.EstImprovementPct,
			EstSizeBytes:      c.EstSizeBytes,
			ImpactedQueries:   c.ImpactedQueries,
			Source:            c.Source,
			Features:          c.Features,
			CreatedAt:         now,
		},
		State:     StateActive,
		UpdatedAt: now,
	}
	cp.store.SaveRecord(rec)
	cp.reg.Counter(descRecsCreate).Inc()
	return true
}

// dropScanService runs the §5.4 drop analysis on its own cadence.
func (cp *ControlPlane) dropScanService(include func(string) bool) {
	now := cp.clock.Now()
	for _, m := range cp.sortedManaged() {
		if !stepIncludes(include, m.db.Name()) {
			continue
		}
		ds, ok := cp.store.GetDatabase(m.db.Name())
		if !ok || now.Sub(ds.LastDropScan) < cp.cfg.DropScanEvery {
			continue
		}
		ds.LastDropScan = now
		cp.store.SaveDatabase(ds)
		for _, cand := range dropper.Analyze(m.db, ds.ObservedSince, cp.cfg.Dropper) {
			dup := cp.store.Records(func(r *Record) bool {
				return r.Database == m.db.Name() && r.Action == core.ActionDropIndex &&
					strings.EqualFold(r.Index.Name, cand.Def.Name) && !r.State.Terminal()
			})
			if len(dup) > 0 {
				continue
			}
			cp.mu.Lock()
			cp.recSeq++
			id := fmt.Sprintf("rec-%s-%06d", strings.ToLower(m.db.Name()), cp.recSeq)
			cp.mu.Unlock()
			rec := &Record{
				Recommendation: core.Recommendation{
					ID:        id,
					Database:  m.db.Name(),
					Action:    core.ActionDropIndex,
					Index:     cand.Def,
					Source:    core.SourceDrop,
					CreatedAt: now,
				},
				State:     StateActive,
				SubState:  string(cand.Reason),
				UpdatedAt: now,
			}
			cp.store.SaveRecord(rec)
			cp.reg.Counter(descRecsDrop).Inc()
		}
	}
}
