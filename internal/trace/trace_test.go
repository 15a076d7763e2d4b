package trace

import (
	"testing"
	"time"

	"autoindex/internal/metrics"
	"autoindex/internal/sim"
)

func TestSpanTree(t *testing.T) {
	clock := sim.NewClock()
	reg := metrics.NewRegistry()
	tr := New(clock, reg)

	root := tr.Start()
	clock.Advance(2 * time.Second)
	child := root.Child()
	clock.Advance(500 * time.Millisecond)
	child.End()
	root.End()
	root.End() // idempotent
	child.End()

	if got := reg.Counter(descSpans).Value(); got != 2 {
		t.Fatalf("trace.spans = %d, want 2 (child and root, each once)", got)
	}
	h := reg.Histogram(descSpanMillis)
	if got := h.Count(); got != 2 {
		t.Fatalf("trace.span_ms count = %d, want 2", got)
	}
	// The child covers 500ms; the root covers the whole 2.5s.
	if got := h.Sum(); got != 500+2500 {
		t.Fatalf("trace.span_ms sum = %d, want 3000", got)
	}
}

func TestSpanMetrics(t *testing.T) {
	clock := sim.NewClock()
	reg := metrics.NewRegistry()
	tr := New(clock, reg)

	s := tr.Start()
	clock.Advance(42 * time.Millisecond)
	s.End()

	if got := reg.Counter(descSpans).Value(); got != 1 {
		t.Fatalf("trace.spans = %d, want 1", got)
	}
	if got := reg.Histogram(descSpanMillis).Sum(); got != 42 {
		t.Fatalf("trace.span_ms sum = %d, want 42", got)
	}
}

func TestNilTracerAndSpan(t *testing.T) {
	var tr *Tracer
	s := tr.Start()
	if s != nil {
		t.Fatal("nil tracer must return a nil span")
	}
	c := s.Child()
	c.End()
	s.End()

	// A tracer without a registry still hands out spans; End is a no-op
	// on the nil registry.
	New(sim.NewClock(), nil).Start().End()
}
