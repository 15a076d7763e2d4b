// Command perfbench is the repository's benchmark: it builds its inputs
// from a seed, drives the program through its public packages, checks
// the outputs, and prints every metric by name and unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones listed in
// BENCHMARK.json; with -trace 1 the workload runs once untraced and once
// traced (spans, a CPU profile attributed to modules, registry counter
// deltas and runtime/metrics figures), and the metrics are the per-layer
// ones. Trace artifacts go to .bench_build/trace/<workload>-<seed>/.
//
// -workload all runs the four workloads in one process and prints each
// workload's named end-to-end metrics (ops.tenant_hours_per_s, ...).
// MAP.json says why each workload exists and which end-to-end metric
// each per-layer metric should move.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// options is one invocation's settings.
type options struct {
	seed    int64
	seconds float64
}

// named is an end-to-end metric under its workload-qualified name.
type named struct {
	name, unit string
	value      float64
}

// result is what one execution of a workload reports.
type result struct {
	named  []named
	e2e    map[string]float64 // BENCHMARK.json end-to-end metrics, plus latency_tail_ms
	layer  map[string]float64 // workload-specific per-layer values
	counts map[string]int64   // registry counter deltas over the count window

	attempted, failed int64
	units             float64 // work units measured (per-unit allocation figures)
	countUnits        float64 // work units in the count window (per-unit counts)
	problems          []string
	digest            string // deterministic output witness, compared across runs
	workers, conns    int
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// meter times the measured sections of a workload. Every section runs
// under the pprof label bench=timed, so a traced run's CPU profile can
// tell them from set-up and checks.
type meter struct {
	rec          *recorder
	wall         time.Duration
	allocBytes   uint64
	allocObjects uint64
	// Background GC and used CPU seconds, from runtime/metrics, over the
	// measured sections or over the window a workload sets with
	// cpuWindow. GC workers carry no pprof labels, so the profile cannot
	// split their samples between sections; this is the GC share instead.
	gcCPU, usedCPU float64
	ownWindow      bool
}

func newMeter(traced bool) *meter { return &meter{rec: newRecorder(traced)} }

var timedLabels = pprof.Labels("bench", "timed")

func (m *meter) timed(fn func()) {
	a := readRuntime()
	start := time.Now()
	pprof.Do(context.Background(), timedLabels, func(context.Context) { fn() })
	m.wall += time.Since(start)
	b := readRuntime()
	m.allocBytes += b.allocBytes - a.allocBytes
	m.allocObjects += b.allocObjects - a.allocObjects
	if !m.ownWindow {
		m.addCPU(a, b)
	}
}

// cpuWindow sets the span the GC share is measured over, for a workload
// whose measured sections are too short to see whole GC cycles (the
// runtime accounts GC CPU when a cycle ends).
func (m *meter) cpuWindow(fn func()) {
	m.ownWindow = true
	a := readRuntime()
	fn()
	m.addCPU(a, readRuntime())
}

func (m *meter) addCPU(a, b rtStats) {
	m.gcCPU += (b.gcCPU - a.gcCPU) - (b.gcAssistCPU - a.gcAssistCPU)
	m.usedCPU += (b.totalCPU - a.totalCPU) - (b.idleCPU - a.idleCPU)
}

// gcPercent is background GC (all GC work but mark assists, which run
// on the allocating goroutine and so count toward its module) as a share
// of the CPU the process used.
func (m *meter) gcPercent() float64 {
	if m.usedCPU <= 0 {
		return 0
	}
	return 100 * m.gcCPU / m.usedCPU
}

type workloadFunc func(o options, m *meter) (*result, error)

var workloads = map[string]workloadFunc{
	"ops":   runOps,
	"tune":  runTune,
	"serve": runServe,
	"scale": runScale,
}

var workloadOrder = []string{"ops", "tune", "serve", "scale"}

// e2eUnits lists BENCHMARK.json's end-to-end metrics.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_ms", "ms"},
	{"peak_heap_mb", "MB"},
}

func main() {
	workload := flag.String("workload", "", "ops, tune, serve, scale, or all")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured time per workload")
	trace := flag.Int("trace", 0, "1 runs untraced then traced and reports per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds}
	var err error
	switch {
	case *workload == "all":
		err = runAll(o)
	case workloads[*workload] != nil:
		err = runOne(*workload, o, *trace == 1)
	default:
		err = fmt.Errorf("unknown workload %q (want ops, tune, serve, scale or all)", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// hostFacts records what the numbers were measured on and with how much
// load, so a result can be judged against the machine that produced it.
func hostFacts(name string, o options, r *result) map[string]any {
	return map[string]any{
		"workload": name, "seed": o.seed, "seconds": o.seconds,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "workers": r.workers, "connections": r.conns,
	}
}

func printNamed(r *result) {
	for _, n := range r.named {
		fmt.Printf("%-34s %14.4f %s\n", n.name, n.value, n.unit)
	}
	for _, p := range r.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// finite maps the infinite latency percentile of a rung whose requests
// failed to the largest float, since JSON has no infinity.
func finite(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return math.MaxFloat64
	}
	return x
}

func emit(f finalLine) error {
	for k, m := range f.Metrics {
		f.Metrics[k] = metricOut{finite(m.Value), m.Unit}
	}
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// checkHost refuses a configuration that would overload the host: the
// workloads size their worker pools and connections from nproc.
func checkHost(r *result) error {
	if n := runtime.NumCPU(); r.workers > n || r.conns > n {
		return fmt.Errorf("load exceeds nproc=%d: %d workers, %d connections", n, r.workers, r.conns)
	}
	return nil
}

func runOne(name string, o options, traced bool) error {
	run := workloads[name]
	plain, err := run(o, newMeter(false))
	if err != nil {
		return err
	}
	if err := checkHost(plain); err != nil {
		return err
	}
	facts, _ := json.Marshal(hostFacts(name, o, plain))
	fmt.Printf("host %s\n", facts)
	printNamed(plain)
	if !traced {
		out := finalLine{Correct: len(plain.problems) == 0, Attempted: plain.attempted, Failed: plain.failed,
			Metrics: map[string]metricOut{}}
		for _, e := range e2eUnits {
			out.Metrics[e.name] = metricOut{plain.e2e[e.name], e.unit}
		}
		if !out.Correct {
			out.Failed = out.Attempted
		}
		return emit(out)
	}

	dir := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d", name, o.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	m := newMeter(true)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	tr, err := run(o, m)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	printNamed(tr)
	layers, err := layerMetrics(plain, tr, m, prof.Bytes())
	if err != nil {
		return err
	}
	problems := append(append([]string(nil), plain.problems...), tr.problems...)
	if plain.digest != tr.digest {
		problems = append(problems, fmt.Sprintf("%s: traced output digest %s differs from untraced %s", name, tr.digest, plain.digest))
	}
	if name != "serve" && !equalCounts(plain.counts, tr.counts) {
		problems = append(problems, fmt.Sprintf("%s: traced registry counts differ from untraced", name))
	}
	for _, p := range problems[len(plain.problems)+len(tr.problems):] {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	if err := writeArtifacts(dir, name, o, tr, m, layers, prof.Bytes()); err != nil {
		return err
	}
	out := finalLine{Correct: len(problems) == 0, Attempted: plain.attempted + tr.attempted,
		Failed: plain.failed + tr.failed, Metrics: map[string]metricOut{}}
	if !out.Correct {
		out.Failed = out.Attempted
	}
	for _, l := range perLayer {
		out.Metrics[l.name] = metricOut{layers[l.name], l.unit}
	}
	return emit(out)
}

func equalCounts(a, b map[string]int64) bool {
	for _, k := range exactCounts {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// exactCounts are the registry counters that must repeat exactly for a
// seed: between two runs and between the untraced and traced run.
var exactCounts = []string{
	"engine.statements_executed", "optimizer.plans", "optimizer.whatif_calls",
	"costcache.hits", "costcache.misses", "controlplane.transitions",
}

func writeArtifacts(dir, name string, o options, r *result, m *meter, layers map[string]float64, prof []byte) error {
	m.rec.mu.Lock()
	spans, err := json.Marshal(m.rec.spans)
	m.rec.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), spans, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), prof, 0o644); err != nil {
		return err
	}
	out := make(map[string]float64, len(layers))
	for k, v := range layers {
		out[k] = finite(v)
	}
	doc, err := json.MarshalIndent(map[string]any{
		"host": hostFacts(name, o, r), "layers": out, "registry_deltas": r.counts,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(doc, '\n'), 0o644)
}

// runAll runs every workload in one process and prints the named
// end-to-end metrics of each; the final line carries them all.
func runAll(o options) error {
	out := finalLine{Correct: true, Metrics: map[string]metricOut{}}
	for _, name := range workloadOrder {
		r, err := workloads[name](o, newMeter(false))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := checkHost(r); err != nil {
			return err
		}
		facts, _ := json.Marshal(hostFacts(name, o, r))
		fmt.Printf("host %s\n", facts)
		printNamed(r)
		out.Attempted += r.attempted
		out.Failed += r.failed
		if len(r.problems) > 0 {
			out.Correct = false
			out.Failed += r.attempted - r.failed
		}
		for _, n := range r.named {
			key := n.name
			if !strings.Contains(key, ".") {
				key = name + "." + key // setup_s is reported by every workload
			}
			out.Metrics[key] = metricOut{n.value, n.unit}
		}
	}
	return emit(out)
}

func digestOf(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// done reports whether a timed loop that has completed iter
// iterations should stop: once the time budget is spent and at least
// min iterations ran.
func (o options) done(iter, min int, elapsed time.Duration) bool {
	return iter >= min && elapsed.Seconds() >= o.seconds
}
