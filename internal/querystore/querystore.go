// Package querystore reimplements the contract of SQL Server's Query Store
// [29]: per-query, per-plan execution statistics (execution count, mean and
// standard deviation of CPU time, logical reads and duration) aggregated
// over fixed time intervals, plus the query text and a fingerprint of each
// plan (which indexes it references). The index recommender mines it to
// identify the workload (§5.3.2), workload coverage is computed from its
// resource totals (§5.1.2), and the validator compares pre/post-change
// statistics from it (§6).
package querystore

import (
	"sort"
	"strings"
	"sync"
	"time"

	"autoindex/internal/mathx"
	"autoindex/internal/sim"
)

// Metric identifies an execution metric. CPU and logical reads are the
// "logical" metrics the validator prefers; duration is noisier (§6).
type Metric int

// Tracked metrics.
const (
	MetricCPU Metric = iota
	MetricLogicalReads
	MetricDuration
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case MetricCPU:
		return "cpu_time_ms"
	case MetricLogicalReads:
		return "logical_reads"
	case MetricDuration:
		return "duration_ms"
	default:
		return "unknown"
	}
}

// Measurement is one statement execution's observed costs.
type Measurement struct {
	CPUMillis      float64
	LogicalReads   float64
	DurationMillis float64
}

// PlanInfo fingerprints an execution plan: which indexes it references and
// a stable hash of its shape. The validator's plan-change filter relies on
// IndexesUsed.
type PlanInfo struct {
	PlanHash    uint64
	IndexesUsed []string
}

// UsesIndex reports whether the plan references the named index.
func (p PlanInfo) UsesIndex(name string) bool {
	for _, ix := range p.IndexesUsed {
		if strings.EqualFold(ix, name) {
			return true
		}
	}
	return false
}

// IntervalStats aggregates executions of one (query, plan) in one interval.
type IntervalStats struct {
	Start    time.Time
	Count    int64
	CPU      mathx.Welford
	Reads    mathx.Welford
	Duration mathx.Welford
}

// Welford returns the accumulator for metric m.
func (s *IntervalStats) Welford(m Metric) mathx.Welford {
	switch m {
	case MetricCPU:
		return s.CPU
	case MetricLogicalReads:
		return s.Reads
	default:
		return s.Duration
	}
}

// PlanEntry is the history of one plan of one query.
type PlanEntry struct {
	Info      PlanInfo
	FirstSeen time.Time
	LastSeen  time.Time
	Intervals []*IntervalStats // ordered by Start
}

// totalCPU sums CPU across intervals in [from, to).
func (p *PlanEntry) window(from, to time.Time) []*IntervalStats {
	var out []*IntervalStats
	for _, iv := range p.Intervals {
		if !iv.Start.Before(from) && iv.Start.Before(to) {
			out = append(out, iv)
		}
	}
	return out
}

// QueryEntry is the Query Store record of one query (template).
type QueryEntry struct {
	QueryHash uint64
	// Text is the stored statement text. Query Store is not a workload
	// capture tool (§5.3.2): for some statements only a truncated fragment
	// is stored, and DTA must recover the full text elsewhere.
	Text      string
	Truncated bool
	IsWrite   bool
	// HasWritePredicates marks writes with a WHERE clause — the only
	// writes whose read side an index can help. Recorded at ingestion so
	// recommenders never re-parse stored text to find out.
	HasWritePredicates bool
	// LiveExecutions counts executions that arrived through the serving
	// path (wire-protocol sessions) rather than the workload simulator.
	LiveExecutions int64
	Plans          map[uint64]*PlanEntry
}

// sortedPlans returns the query's plans in ascending plan-hash order.
// Aggregations that fold float statistics across plans must use it:
// float addition is not associative, so folding in map order would make
// totals differ in their low bits from run to run.
func (q *QueryEntry) sortedPlans() []*PlanEntry {
	hashes := make([]uint64, 0, len(q.Plans))
	for h := range q.Plans {
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
	out := make([]*PlanEntry, 0, len(hashes))
	for _, h := range hashes {
		out = append(out, q.Plans[h])
	}
	return out
}

// Store is the query store for one database.
type Store struct {
	mu       sync.RWMutex
	clock    sim.Clock
	interval time.Duration
	queries  map[uint64]*QueryEntry
	// dropper, when set, loses executions before aggregation (chaos
	// mode's missing validation windows); dropped counts how many.
	dropper func() bool
	dropped int64
	// Execution totals, split by provenance: totalExecs counts every
	// recorded execution, liveExecs the subset captured from real
	// wire-protocol sessions (QueryMeta.Live).
	totalExecs int64
	liveExecs  int64
}

// DefaultInterval matches Query Store's common configuration.
const DefaultInterval = time.Hour

// New returns an empty store aggregating over the given interval.
func New(clock sim.Clock, interval time.Duration) *Store {
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &Store{clock: clock, interval: interval, queries: make(map[uint64]*QueryEntry)}
}

// SetDropper installs (or, with nil, removes) a hook that loses whole
// executions before they are aggregated — how chaos mode produces the
// thinned or missing validation windows the validator must see through
// (§6: insufficient data yields an inconclusive verdict, never a wrong
// one). The hook must be safe for concurrent use.
func (s *Store) SetDropper(f func() bool) {
	s.mu.Lock()
	s.dropper = f
	s.mu.Unlock()
}

// DroppedExecutions reports how many executions an installed dropper lost.
func (s *Store) DroppedExecutions() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dropped
}

// QueryMeta carries the per-template attributes Record stores on first
// sight of a query: its (possibly truncated) text and the statement-class
// flags derived from the parsed statement at ingestion time.
type QueryMeta struct {
	Text               string
	Truncated          bool
	IsWrite            bool
	HasWritePredicates bool
	// Live marks an execution captured from a real client session on the
	// serving path, as opposed to one produced by the workload simulator.
	// Tuning spans use the split to report what drove a recommendation.
	Live bool
}

// Record folds one execution into the store.
func (s *Store) Record(queryHash uint64, meta QueryMeta, plan PlanInfo, m Measurement) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dropper != nil && s.dropper() {
		s.dropped++
		return
	}
	s.totalExecs++
	if meta.Live {
		s.liveExecs++
	}
	q := s.queries[queryHash]
	if q == nil {
		q = &QueryEntry{
			QueryHash:          queryHash,
			Text:               meta.Text,
			Truncated:          meta.Truncated,
			IsWrite:            meta.IsWrite,
			HasWritePredicates: meta.HasWritePredicates,
			Plans:              make(map[uint64]*PlanEntry),
		}
		s.queries[queryHash] = q
	} else if q.Truncated && !meta.Truncated {
		// A later execution supplied the full text.
		q.Text, q.Truncated = meta.Text, false
	}
	if meta.Live {
		q.LiveExecutions++
	}
	now := s.clock.Now()
	p := q.Plans[plan.PlanHash]
	if p == nil {
		p = &PlanEntry{Info: plan, FirstSeen: now}
		q.Plans[plan.PlanHash] = p
	}
	p.LastSeen = now
	ivStart := now.Truncate(s.interval)
	var iv *IntervalStats
	if n := len(p.Intervals); n > 0 && p.Intervals[n-1].Start.Equal(ivStart) {
		iv = p.Intervals[n-1]
	} else {
		iv = &IntervalStats{Start: ivStart}
		p.Intervals = append(p.Intervals, iv)
	}
	iv.Count++
	iv.CPU.Add(m.CPUMillis)
	iv.Reads.Add(m.LogicalReads)
	iv.Duration.Add(m.DurationMillis)
}

// Query returns the entry for a query hash.
func (s *Store) Query(queryHash uint64) (*QueryEntry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	q, ok := s.queries[queryHash]
	return q, ok
}

// QueryHashes returns all recorded query hashes.
func (s *Store) QueryHashes() []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]uint64, 0, len(s.queries))
	for h := range s.queries {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// QueryCost summarises one query's resource consumption over a window.
type QueryCost struct {
	QueryHash          uint64
	Text               string
	Truncated          bool
	IsWrite            bool
	HasWritePredicates bool
	Executions         int64
	// LiveExecutions is the query's lifetime count of serving-path
	// executions (not windowed — provenance, not cost).
	LiveExecutions int64
	TotalCPU       float64
	TotalReads     float64
}

// TopByCPU returns the k most expensive queries by total CPU over
// [from, now], descending — how DTA identifies the workload W (§5.3.2).
func (s *Store) TopByCPU(from time.Time, k int) []QueryCost {
	costs := s.Costs(from)
	sort.Slice(costs, func(i, j int) bool { return costs[i].TotalCPU > costs[j].TotalCPU })
	if k > 0 && len(costs) > k {
		costs = costs[:k]
	}
	return costs
}

// Costs returns per-query cost summaries over [from, now].
func (s *Store) Costs(from time.Time) []QueryCost {
	s.mu.RLock()
	defer s.mu.RUnlock()
	to := s.clock.Now().Add(time.Nanosecond)
	var out []QueryCost
	for _, q := range s.queries {
		c := QueryCost{QueryHash: q.QueryHash, Text: q.Text, Truncated: q.Truncated, IsWrite: q.IsWrite, HasWritePredicates: q.HasWritePredicates, LiveExecutions: q.LiveExecutions}
		for _, p := range q.sortedPlans() {
			for _, iv := range p.window(from, to) {
				c.Executions += iv.Count
				c.TotalCPU += iv.CPU.Sum()
				c.TotalReads += iv.Reads.Sum()
			}
		}
		if c.Executions > 0 {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].QueryHash < out[j].QueryHash })
	return out
}

// TotalCPU returns the total CPU consumed by all statements since from.
// Workload coverage (§5.1.2) is a ratio of sums of this quantity.
func (s *Store) TotalCPU(from time.Time) float64 {
	total := 0.0
	for _, c := range s.Costs(from) {
		total += c.TotalCPU
	}
	return total
}

// QueryWindowSample aggregates a query across all its plans.
func (s *Store) QueryWindowSample(queryHash uint64, m Metric, from, to time.Time) (mathx.Sample, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	q := s.queries[queryHash]
	if q == nil {
		return mathx.Sample{}, false
	}
	var acc mathx.Welford
	for _, p := range q.sortedPlans() {
		for _, iv := range p.window(from, to) {
			acc.Merge(iv.Welford(m))
		}
	}
	if acc.N == 0 {
		return mathx.Sample{}, false
	}
	return mathx.FromWelford(acc), true
}

// PlansInWindow returns the plans of a query that executed in [from, to).
func (s *Store) PlansInWindow(queryHash uint64, from, to time.Time) []*PlanEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	q := s.queries[queryHash]
	if q == nil {
		return nil
	}
	var out []*PlanEntry
	for _, p := range q.Plans {
		if len(p.window(from, to)) > 0 {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Info.PlanHash < out[j].Info.PlanHash })
	return out
}

// QueriesUsingIndex returns hashes of queries that have any plan
// referencing the named index within [from, to).
func (s *Store) QueriesUsingIndex(index string, from, to time.Time) []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []uint64
	for h, q := range s.queries {
		for _, p := range q.Plans {
			if p.Info.UsesIndex(index) && len(p.window(from, to)) > 0 {
				out = append(out, h)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ExecutionTotals reports lifetime execution counts: every recorded
// execution, and the subset captured live from wire-protocol sessions.
func (s *Store) ExecutionTotals() (total, live int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.totalExecs, s.liveExecs
}

// QueryLiveExecutions reports how many of a query's executions arrived
// through the serving path.
func (s *Store) QueryLiveExecutions(queryHash uint64) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	q := s.queries[queryHash]
	if q == nil {
		return 0
	}
	return q.LiveExecutions
}

// Interval returns the aggregation interval.
func (s *Store) Interval() time.Duration { return s.interval }

// Len returns the number of distinct queries recorded.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.queries)
}
