// Package trace records lightweight span trees for tuning work: one
// root span per (tenant, tuning-session), with children for the DTA
// pass, missing-index pass, implementation, and validation. Spans are
// not a separate storage system — on End they feed the trace.spans
// counter and the trace.span_ms histogram of the run's metrics
// registry, and nothing else.
//
// Determinism: durations come from the simulation clock, so a seeded
// run observes the same span durations — provided spans are only
// started from serial control-plane sections. The parallel
// tenant-replay paths use plain metrics counters instead.
package trace

import (
	"sync"
	"time"

	"autoindex/internal/metrics"
	"autoindex/internal/sim"
)

// Span-layer metrics, registered at package level like every other
// descriptor in the tree.
var (
	descSpans = metrics.NewCounterDesc("trace.spans",
		"spans completed across all tenants")
	descSpanMillis = metrics.NewHistogramDesc("trace.span_ms",
		"span durations in virtual milliseconds",
		1, 10, 100, 1_000, 10_000, 60_000, 600_000)
)

// Tracer hands out spans. A nil *Tracer is valid and produces nil
// spans whose methods are no-ops, so instrumented code never checks
// for enablement.
type Tracer struct {
	clock sim.Clock
	reg   *metrics.Registry
}

// New builds a tracer that timestamps with clock and records into reg.
// clock must be the simulation clock — the metricsdiscipline lint
// check flags a tracer driven by sim.WallClock. reg may be nil.
func New(clock sim.Clock, reg *metrics.Registry) *Tracer {
	return &Tracer{clock: clock, reg: reg}
}

// Span is one timed unit of tuning work. Spans form trees via Child.
type Span struct {
	tracer *Tracer
	start  time.Time
	mu     sync.Mutex
	ended  bool
}

// Start opens a root span. Call End to record it.
func (t *Tracer) Start() *Span {
	if t == nil {
		return nil
	}
	return &Span{tracer: t, start: t.clock.Now()}
}

// Child opens a sub-span under s. Safe on a nil receiver.
func (s *Span) Child() *Span {
	if s == nil {
		return nil
	}
	return &Span{tracer: s.tracer, start: s.tracer.clock.Now()}
}

// End closes the span and feeds its virtual duration to the span
// metrics. Ending twice is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.mu.Unlock()

	dur := s.tracer.clock.Now().Sub(s.start)
	s.tracer.reg.Counter(descSpans).Inc()
	s.tracer.reg.Histogram(descSpanMillis).ObserveDuration(dur)
}
