package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	aimetrics "autoindex/internal/metrics"
)

// recorder keeps the timings the benchmark takes around its own calls
// into the program. Durations are always kept per name (the end-to-end
// latencies come from them); full spans, with parent links, are kept
// only in a traced run and written out when the run ends.
type recorder struct {
	traced bool
	origin time.Time

	mu     sync.Mutex
	nextID int
	durs   map[string][]float64 // name -> durations in ms
	spans  []spanRecord
}

type spanRecord struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

func newRecorder(traced bool) *recorder {
	return &recorder{traced: traced, origin: time.Now(), durs: map[string][]float64{}}
}

// add records one span that ran from start to end and returns its id,
// to be passed as the parent of the spans it caused (0: no parent).
func (r *recorder) add(name string, parent int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	r.record(r.nextID, parent, name, start, end)
	return r.nextID
}

// openSpan is a span whose id is handed out before it ends, so the spans
// it causes can name it as their parent.
type openSpan struct {
	r          *recorder
	id, parent int
	name       string
	start      time.Time
}

func (r *recorder) open(name string, parent int) *openSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return &openSpan{r: r, id: r.nextID, parent: parent, name: name, start: time.Now()}
}

func (s *openSpan) close() {
	end := time.Now()
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	s.r.record(s.id, s.parent, s.name, s.start, end)
}

// record keeps a finished span; the caller holds r.mu.
func (r *recorder) record(id, parent int, name string, start, end time.Time) {
	r.durs[name] = append(r.durs[name], ms(end.Sub(start)))
	if r.traced {
		r.spans = append(r.spans, spanRecord{ID: id, Parent: parent, Name: name,
			StartMS: ms(start.Sub(r.origin)), EndMS: ms(end.Sub(r.origin))})
	}
}

// samples returns a copy of the durations recorded under name.
func (r *recorder) samples(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.durs[name]...)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if frac := pos - float64(lo); frac > 0 && lo+1 < len(s) {
		return s[lo] + frac*(s[lo+1]-s[lo])
	}
	return s[lo]
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// rtStats reads the runtime/metrics figures the benchmark reports: CPU
// split (for the GC share), allocation totals, and the live heap.
type rtStats struct {
	gcCPU, gcAssistCPU, totalCPU, idleCPU float64 // seconds
	allocBytes, allocObjects              uint64
	liveHeap                              uint64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/gc/mark/assist:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/heap/live:bytes",
}

func readRuntime() rtStats {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return rtStats{gcCPU: f(0), gcAssistCPU: f(1), totalCPU: f(2), idleCPU: f(3),
		allocBytes: u(4), allocObjects: u(5), liveHeap: u(6)}
}

// heapWatch samples the live heap (as of the latest GC cycle) until
// stopped and keeps its peak: the retained memory a run needed, which
// unlike the total heap does not swing with GC timing.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap() *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			metrics.Read(live)
			if live[0].Value.Kind() == metrics.KindUint64 && live[0].Value.Uint64() > w.peak {
				w.peak = live[0].Value.Uint64()
			}
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// finish stops the sampler and returns the peak live heap in MB.
func (w *heapWatch) finish() float64 {
	close(w.stop)
	<-w.done
	if h := readRuntime().liveHeap; h > w.peak {
		w.peak = h
	}
	return float64(w.peak) / (1 << 20)
}

// retainedHeap forces a GC and returns the live heap in MB: what the
// program retains at that point, independent of GC timing.
func retainedHeap() float64 {
	runtime.GC()
	return float64(readRuntime().liveHeap) / (1 << 20)
}

// counters returns every counter of a registry by name, volatile ones
// included.
func counters(reg *aimetrics.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, m := range reg.Snapshot(true) {
		switch {
		case m.Value != nil && m.Kind == "counter":
			out[m.Name] = *m.Value
		case m.Count != nil:
			out[m.Name+".count"] = *m.Count
			out[m.Name+".sum"] = *m.Sum
		}
	}
	return out
}

// addDelta adds after-before into acc for every counter.
func addDelta(acc, before, after map[string]int64) {
	for k, v := range after {
		acc[k] += v - before[k]
	}
}
