// Command perfbench is the repository benchmark. One invocation runs one
// named workload from a seed, checks every output, and prints its metrics
// as the last line of standard output:
//
//	bash perfbench/run.sh --workload tester-mixed --seed 1 --seconds 45 --trace 0
//
// Workloads:
//
//	tester-mixed       passes over a fixed pool of tester, minor-free and
//	                   spanner runs on 500..10^4-node corpus graphs, each
//	                   pass in a seed-derived order
//	planard-mix        an open-loop request schedule against an
//	                   in-process planard (exact mode, cache hits, and
//	                   congest mode across the properties)
//	tester-planar-1e5  one core.RunTester call on the pinned 10^5-node
//	                   random planar reference instance (accept path);
//	                   not in BENCHMARK.json, since one ~36 s operation
//	                   per run gives no median to steady its figures
//
// --seconds sizes the measured work: planard-mix sends requests for that
// long, tester-mixed makes one pass over its pool per 15 seconds of it
// (about that long on a 2-core host), and tester-planar-1e5 runs its
// reference operation once per 40 seconds, at least once. The same
// --seed gives the same inputs.
//
// With --trace 0 the metrics are the end-to-end set (setup_s, ops_per_s,
// latency_p50_ms, latency_tail_ms, ok_frac, peak_rss_mb, congest_rounds,
// congest_bits). With --trace 1 the run measures the workload twice,
// untraced and traced, and prints the per-layer set instead: counts read
// from RunResult.Metrics, the engine's phase breakdown and planard's
// /metrics, times of calls into each layer's public functions, peak heap
// per engine phase, each layer's self time, and the tracing overhead.
// The traced run also writes its spans as JSONL under $PERFBENCH_OUT.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// A run repeats its set-up at least minSetupReps times, and more while
// the repetitions together take less than setupBudget (at most
// maxSetupReps); setup_s is the median, and the last set-up is the one
// measured.
const (
	minSetupReps = 3
	maxSetupReps = 25
	setupBudget  = 2 * time.Second
)

// errWrong marks an output that contradicts the instance's known answer
// (a planar graph rejected, a message over the bit bound, a verdict
// different from the label). It fails the whole run.
var errWrong = errors.New("wrong output")

// workload is one named benchmark input set.
type workload interface {
	// setup generates the inputs (and, for planard, encodes the request
	// bodies and starts the server), replacing any earlier set-up. Graph
	// generation is recorded on tr (nil when untraced).
	setup(seed int64, seconds int, tr *tracer) error
	// measure runs the timed window once. tr is nil for an untraced
	// window. A workload that sets the window's peakRSSMB itself reads
	// s; otherwise the peak over the whole window is used.
	measure(tr *tracer, s *sampler) (*window, error)
	// layers runs the traced run's extra measurements (replays through
	// graphio, the oracle, the service's counters) and adds the
	// per-layer metrics to out.
	layers(traced *window, tr *tracer, out metrics) error
	close()
}

// window is what one measured run of a workload produced.
type window struct {
	latMs     []float64 // per completed operation, as measured by the client
	attempted int
	failed    int
	elapsed   time.Duration
	rounds    int64 // simulated CONGEST rounds summed over runs
	bits      int64 // message bits summed over runs
	peakRSSMB float64
	notes     []string
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	w.notes = append(w.notes, fmt.Sprintf(format, args...))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{v, unit}
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: tester-planar-1e5, tester-mixed or planard-mix")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "size of the measured window, in seconds")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	res, err := run(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		if res != nil && errors.Is(err, errWrong) {
			emit(res)
		}
		os.Exit(1)
	}
	emit(res)
}

func emit(res *result) {
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "tester-planar-1e5":
		return &testerWorkload{plan: planReference, passSeconds: 40}, nil
	case "tester-mixed":
		return &testerWorkload{plan: planMixed, passSeconds: mixedPassSeconds}, nil
	case "planard-mix":
		return &planardWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func run(name string, seed int64, seconds int, traced bool) (*result, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	defer w.close()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var setups []float64
	var setupTotal time.Duration
	for i := 0; i < minSetupReps || (i < maxSetupReps && setupTotal < setupBudget); i++ {
		tr.reset()
		start := time.Now()
		if err := w.setup(seed, seconds, tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(start)
		setupTotal += d
		setups = append(setups, d.Seconds())
	}
	fmt.Printf("setup: %d repetitions, median %.3fs\n", len(setups), median(setups))

	res := &result{Correct: true, Metrics: metrics{}}
	finish := func(win *window, err error) (*result, error) {
		if win != nil {
			res.Attempted += win.attempted
			res.Failed += win.failed
			for _, n := range win.notes {
				fmt.Println("note:", n)
			}
		}
		if errors.Is(err, errWrong) {
			res.Correct = false
		}
		return res, err
	}

	if !traced {
		win, err := measure(w, nil)
		if err != nil {
			return finish(win, err)
		}
		endToEnd(win, median(setups), res.Metrics)
		return finish(win, nil)
	}

	untraced, err := measure(w, nil)
	if err != nil {
		return finish(untraced, err)
	}
	win, err := measure(w, tr)
	if err != nil {
		return finish(win, err)
	}
	if untraced.rounds != win.rounds || untraced.bits != win.bits {
		return finish(win, fmt.Errorf("%w: congest totals differ between two runs of the same inputs: rounds %d vs %d, bits %d vs %d",
			errWrong, untraced.rounds, win.rounds, untraced.bits, win.bits))
	}
	for _, n := range perLayerNames {
		res.Metrics.set(n.name, 0, n.unit)
	}
	if err := w.layers(win, tr, res.Metrics); err != nil {
		return finish(win, err)
	}
	overhead := median(win.latMs) - median(untraced.latMs)
	res.Metrics.set("trace.overhead_ms", overhead, "ms")
	fmt.Printf("tracing overhead: latency p50 %.3fms traced vs %.3fms untraced (%+.3fms)\n",
		median(win.latMs), median(untraced.latMs), overhead)
	tr.report(res.Metrics)
	if path, err := tr.writeJSONL(name, seed); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: trace not written: %v\n", err)
	} else {
		fmt.Println("spans:", path)
	}
	for k := range res.Metrics {
		if !knownPerLayer(k) {
			return nil, fmt.Errorf("per-layer metric %q is not declared", k)
		}
	}
	return finish(win, nil)
}

// measure runs one window with the resident-set sampler around it.
// Garbage from set-up or an earlier window is returned to the OS first,
// so the peak belongs to this window.
func measure(w workload, tr *tracer) (*window, error) {
	runtime.GC()
	debug.FreeOSMemory()
	s := startSampler(tr)
	win, err := w.measure(tr, s)
	peak := s.stop()
	if win != nil && win.peakRSSMB == 0 {
		win.peakRSSMB = peak
	}
	return win, err
}

// endToEnd derives the end-to-end metrics of an untraced window.
func endToEnd(win *window, setupS float64, m metrics) {
	ok := len(win.latMs)
	m.set("setup_s", setupS, "s")
	m.set("ops_per_s", float64(ok)/win.elapsed.Seconds(), "1/s")
	m.set("latency_p50_ms", median(win.latMs), "ms")
	tail, label := tailLatency(win.latMs)
	m.set("latency_tail_ms", tail, "ms")
	m.set("ok_frac", float64(win.attempted-win.failed)/float64(max(win.attempted, 1)), "frac")
	m.set("peak_rss_mb", win.peakRSSMB, "MB")
	m.set("congest_rounds", float64(win.rounds), "count")
	m.set("congest_bits", float64(win.bits), "count")
	fmt.Printf("operations: %d attempted, %d failed (failed_frac %.4f), %d latency samples, p50 %.3fms, tail %s %.3fms, window %.3fs\n",
		win.attempted, win.failed, float64(win.failed)/float64(max(win.attempted, 1)), ok, median(win.latMs), label, tail, win.elapsed.Seconds())
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// tailLatency returns the highest whole percentile that leaves at least
// ten samples above it (nearest rank), and its label. Samples too small
// for any percentile above the median report their maximum instead.
func tailLatency(xs []float64) (float64, string) {
	n := len(xs)
	if n == 0 {
		return 0, "none"
	}
	s := sortedCopy(xs)
	p := int(math.Floor(100 * (1 - 10/float64(n))))
	if p <= 50 {
		return s[n-1], fmt.Sprintf("max(n=%d)", n)
	}
	rank := int(math.Ceil(float64(p) / 100 * float64(n)))
	return s[max(rank-1, 0)], fmt.Sprintf("p%d(n=%d)", p, n)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
