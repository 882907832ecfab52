package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/spanner"
	"repro/internal/testers"
)

type opKind int

const (
	kindPlanarity opKind = iota
	kindCycleFree
	kindBipartite
	kindSpanner
)

// label is what an instance is known to be for its operation's property.
type label int

const (
	labelHas  label = iota // has the property: a reject is a wrong output
	labelFar               // certified eps-far: an accept is a failed operation
	labelNone              // neither: any verdict is acceptable
)

// testerOp is one library call of a tester workload.
type testerOp struct {
	desc    string
	kind    opKind
	family  string
	eps     float64
	variant string // det, rand or en (planarity only)
	label   label
	planar  bool // the graph's planarity, known by construction
	seed    int64
	g       *graph.Graph
	pinned  bool // the reference instance: counts must match the record

	untracedWalls []time.Duration // from the last untraced window, one per pass
	traced        opOutcome       // from the first pass of the last traced window
}

type testerWorkload struct {
	// plan returns the workload's operations with their graphs generated.
	plan func() ([]*testerOp, error)
	// passSeconds is about how long one pass over the operations takes
	// on a 2-core host; a window of --seconds makes seconds/passSeconds
	// passes (at least one).
	passSeconds int
	ops         []*testerOp
	passes      int
	seed        int64         // orders the operations of each pass
	genTime     time.Duration // graph generation time of the last set-up
}

func (w *testerWorkload) setup(seed int64, seconds int, tr *tracer) error {
	w.ops = nil
	w.seed, w.passes = seed, max(1, seconds/w.passSeconds)
	runtime.GC()
	id := tr.begin(0, 0, "graph", "graph generators")
	start := time.Now()
	ops, err := w.plan()
	w.genTime = time.Since(start)
	tr.end(id)
	w.ops = ops
	return err
}

func (w *testerWorkload) close() {}

// measure makes w.passes passes over the operations, each in a
// seed-derived order, so every operation is timed in several parts of the
// window. An operation's latency is its median over the passes, so a slow
// spell of the host during one pass moves no figure, and the window's
// length is the sum of those medians: the time of one pass at median
// speed. The congest totals are those of one pass: every pass must repeat
// them. Each operation starts on a heap returned to the OS, so its
// resident peak does not depend on the operations before it; the window's
// peak is the largest of the operations' median peaks.
func (w *testerWorkload) measure(tr *tracer, s *sampler) (*window, error) {
	win := &window{}
	first := make([]congest.Metrics, len(w.ops))
	walls := make([][]time.Duration, len(w.ops)) // successful runs only
	peaks := make([][]float64, len(w.ops))
	if tr == nil {
		for _, op := range w.ops {
			op.untracedWalls = nil
		}
	}
	order := rand.New(rand.NewSource(w.seed))
	for pass := 0; pass < w.passes; pass++ {
		for _, i := range order.Perm(len(w.ops)) {
			op := w.ops[i]
			debug.FreeOSMemory()
			s.takePeak()
			win.attempted++
			out, err := op.run(tr, win.attempted)
			peaks[i] = append(peaks[i], s.takePeak())
			if err != nil {
				return win, fmt.Errorf("%s: %w", op.desc, err)
			}
			if pass == 0 {
				first[i] = out.metrics
				win.rounds += int64(out.metrics.Rounds)
				win.bits += out.metrics.TotalBits
				if tr != nil {
					op.traced = out
				}
			} else if m := out.metrics; m.Rounds != first[i].Rounds || m.TotalBits != first[i].TotalBits {
				return win, fmt.Errorf("%w: %s: pass %d gave rounds=%d bits=%d, pass 1 %d/%d",
					errWrong, op.desc, pass+1, m.Rounds, m.TotalBits, first[i].Rounds, first[i].TotalBits)
			}
			if tr == nil {
				op.untracedWalls = append(op.untracedWalls, out.wall)
			}
			if out.missed {
				win.fail("%s: certified-far instance accepted", op.desc)
				continue
			}
			walls[i] = append(walls[i], out.wall)
		}
	}
	for i, ws := range walls {
		win.peakRSSMB = max(win.peakRSSMB, median(peaks[i]))
		if len(ws) > 0 {
			d := medianDuration(ws)
			win.latMs = append(win.latMs, ms(d))
			win.elapsed += d
		}
	}
	return win, nil
}

type opOutcome struct {
	wall    time.Duration
	metrics congest.Metrics
	phases  obs.PhaseBreakdown
	missed  bool // a certified-far instance was accepted
}

// run executes the operation and checks its output. A rejected instance
// that has the property, a message over the CONGEST bit bound, or an
// invalid spanner is a wrong output.
func (op *testerOp) run(tr *tracer, opID int) (opOutcome, error) {
	var out opOutcome
	var rejected bool
	popts := partition.Options{Epsilon: op.eps, Schedule: partition.PracticalSchedule}
	if op.variant == "rand" {
		popts.Variant = partition.Randomized
	}
	workers := runtime.NumCPU()
	var err error
	switch op.kind {
	case kindPlanarity:
		copts := core.Options{Epsilon: op.eps, Partition: popts, UseEN: op.variant == "en", Workers: workers}
		if tr != nil {
			copts.Probe = obs.NewProbe()
			copts.Progress = obs.NewProgress(copts.Probe)
			tr.progress.Store(copts.Progress)
		}
		id := tr.begin(opID, 0, "congest", "core.RunTester")
		start := time.Now()
		var res *core.RunResult
		res, err = core.RunTester(op.g, copts, op.seed)
		out.wall = time.Since(start)
		tr.end(id)
		if tr != nil {
			tr.progress.Store(nil)
		}
		if err == nil {
			rejected, out.metrics, out.phases = res.Rejected, res.Metrics, res.Phases
			tr.attribute(res.Phases)
		}
	case kindCycleFree, kindBipartite:
		prop := testers.CycleFreeness
		if op.kind == kindBipartite {
			prop = testers.Bipartiteness
		}
		id := tr.begin(opID, 0, "testers", "testers.Run")
		start := time.Now()
		var res *core.RunResult
		res, err = testers.Run(op.g, prop, testers.Options{Epsilon: op.eps, Partition: popts, Workers: workers}, op.seed)
		out.wall = time.Since(start)
		tr.end(id)
		if err == nil {
			rejected, out.metrics = res.Rejected, res.Metrics
		}
	case kindSpanner:
		id := tr.begin(opID, 0, "spanner", "spanner.Collect")
		start := time.Now()
		var sp *graph.Graph
		var views []*spanner.NodeSpanner
		sp, views, out.metrics, err = spanner.Collect(op.g, spanner.Options{Epsilon: op.eps, Partition: popts, Workers: workers}, op.seed)
		out.wall = time.Since(start)
		tr.end(id)
		if err == nil {
			err = checkSpanner(op.g, sp, views)
		}
	}
	if err != nil {
		return out, err
	}
	if out.metrics.MaxMessageBits > out.metrics.BitBound {
		return out, fmt.Errorf("%w: message of %d bits over the CONGEST bound %d", errWrong, out.metrics.MaxMessageBits, out.metrics.BitBound)
	}
	if op.pinned {
		if err := checkReference(out); err != nil {
			return out, err
		}
	}
	switch {
	case rejected && op.label == labelHas:
		return out, fmt.Errorf("%w: instance with the property rejected (one-sided error broken)", errWrong)
	case !rejected && op.label == labelFar:
		out.missed = true
	}
	return out, nil
}

// checkSpanner checks the spanner is a symmetric subgraph with the
// input's connected components.
func checkSpanner(g, sp *graph.Graph, views []*spanner.NodeSpanner) error {
	if err := spanner.VerifySymmetric(g, views); err != nil {
		return fmt.Errorf("%w: %v", errWrong, err)
	}
	_, cg := g.Components()
	_, cs := sp.Components()
	if sp.N() != g.N() || sp.M() > g.M() || cs != cg {
		return fmt.Errorf("%w: spanner n=%d m=%d with %d components of a graph n=%d m=%d with %d",
			errWrong, sp.N(), sp.M(), cs, g.N(), g.M(), cg)
	}
	return nil
}

// referenceSeed fixes the tester-planar-1e5 instance: the graph of
// BenchmarkLargeN/planar-n100000 run with tester seed 100000, exactly as
// docs/trace_report_n100000.txt was recorded.
const referenceSeed = 100000

// referencePhases are the deterministic columns of
// docs/trace_report_n100000.txt; the reference run must reproduce them.
var referencePhases = []obs.PhaseStat{
	{Name: "stage1/p01", Wakes: 11600000, Barriers: 116, Messages: 10900348, Bits: 196342100, Windows: 400000},
	{Name: "stage1/p02", Wakes: 14216924, Barriers: 192, Messages: 15317409, Bits: 161222803, Windows: 400000},
	{Name: "stage1/p03", Wakes: 16098478, Barriers: 420, Messages: 16918626, Bits: 127004506, Windows: 400000},
	{Name: "stage1/p04", Wakes: 17526654, Barriers: 974, Messages: 17452529, Bits: 103634584, Windows: 400000},
	{Name: "stage2/partctx", Wakes: 920127, Barriers: 58, Messages: 838403, Bits: 13192912},
	{Name: "stage2/ops", Wakes: 5191873, Barriers: 4586, Messages: 4564334, Bits: 2623106534},
}

const (
	referenceRounds   = 318506
	referenceMessages = 65991649
	referenceBits     = 3224503439
)

// planReference is tester-planar-1e5: the pinned 10^5-node reference
// instance, the same for every seed so its counts stay comparable with
// the recorded trace report. One run takes about 36 s on a 2-core host.
func planReference() ([]*testerOp, error) {
	g := graph.RandomPlanar(100000, 150000, rand.New(rand.NewSource(referenceSeed)))
	return []*testerOp{{
		desc: "planarity/det/randplanar n=100000 eps=0.5", kind: kindPlanarity, family: "random-planar",
		eps: 0.5, variant: "det", label: labelHas, planar: true, seed: referenceSeed, g: g, pinned: true,
	}}, nil
}

// checkReference compares a reference run with the recorded trace
// report: totals always, per-phase columns when the run was probed.
func checkReference(out opOutcome) error {
	m := out.metrics
	if m.Rounds != referenceRounds || m.Messages != referenceMessages || m.TotalBits != referenceBits {
		return fmt.Errorf("%w: reference run gave rounds=%d messages=%d bits=%d, recorded %d/%d/%d",
			errWrong, m.Rounds, m.Messages, m.TotalBits, referenceRounds, referenceMessages, referenceBits)
	}
	if out.phases == nil {
		return nil
	}
	got := map[string]obs.PhaseStat{}
	for _, s := range out.phases {
		got[s.Name] = s
	}
	for _, want := range referencePhases {
		g := got[want.Name]
		g.WallNs = 0
		if g != want {
			return fmt.Errorf("%w: phase %s: got %+v, recorded %+v", errWrong, want.Name, g, want)
		}
	}
	return nil
}

// The tester-mixed plan: one operation per slot of mixedSlots (kind,
// variant and label), with family and eps rotating per kind, over sizes
// drawn log-uniformly from [mixedMinN, mixedMaxN] in golden-ratio strata.
//
// The instances are drawn once, from mixedPoolSeed, and the run seed
// only orders each pass: Stage II's work varies several-fold between
// random graphs of one size and family, so a fresh draw per seed would
// move every total by tens of percent. The pool is small enough to time
// every operation several times in one window.
const (
	mixedMinN     = 500
	mixedMaxN     = 10000
	mixedPoolSeed = 1
	// mixedPassSeconds is about one pass over the pool on a 2-core host.
	mixedPassSeconds = 15
)

var (
	mixedSlots = []struct {
		kind    opKind
		variant string
		far     bool
	}{
		{kindPlanarity, "det", false},
		{kindPlanarity, "rand", false},
		{kindPlanarity, "det", true},
		{kindPlanarity, "en", false},
		{kindCycleFree, "det", false},
		{kindPlanarity, "det", false},
		{kindPlanarity, "rand", true},
		{kindBipartite, "det", false},
		{kindSpanner, "det", false},
		{kindPlanarity, "en", true},
		{kindCycleFree, "det", false},
		{kindPlanarity, "det", false},
		{kindBipartite, "det", false},
		{kindPlanarity, "rand", false},
		{kindPlanarity, "det", true},
	}
	mixedPlanar = []string{"random-planar", "grid", "triangulated-grid", "maximal-planar",
		"outerplanar", "disjoint-union", "circular-ladder", "shuffled-maxplanar"}
	mixedEps = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
)

func planMixed() ([]*testerOp, error) {
	k := len(mixedSlots)
	rng := rand.New(rand.NewSource(mixedPoolSeed))
	planar, far, cf, bip := 0, 0, 0, 0
	var ops []*testerOp
	for i := 0; i < k; i++ {
		u := stratum(i, k, rng)
		n := int(math.Round(mixedMinN * math.Pow(float64(mixedMaxN)/mixedMinN, u)))
		slot := mixedSlots[i]
		op := &testerOp{kind: slot.kind, variant: slot.variant, seed: rng.Int63n(1 << 40)}
		gseed := rng.Int63n(1 << 40)
		switch {
		case slot.kind == kindPlanarity && !slot.far:
			op.family = mixedPlanar[planar%len(mixedPlanar)]
			op.eps = mixedEps[planar%len(mixedEps)]
			op.label, op.planar = labelHas, true
			planar++
		case slot.kind == kindPlanarity:
			// gnp-dense has ~6n edges: about half must go, so it is
			// certified far for eps up to 0.4.
			op.family = "gnp-dense"
			op.eps = mixedEps[far%4]
			far++
		case slot.kind == kindCycleFree:
			op.family, op.eps, op.label, op.planar = "random-tree", 0.3, labelHas, true
			if cf%2 == 1 {
				op.family, op.label = "grid", labelFar // ~m/2 edges above a forest
			}
			cf++
		case slot.kind == kindBipartite:
			op.family, op.eps, op.label, op.planar = "grid", 0.3, labelHas, true
			if bip%2 == 1 {
				// Every other square of a triangulated grid holds an
				// edge-disjoint triangle: about m/6 removals are needed.
				op.family, op.eps, op.label = "triangulated-grid", 0.1, labelFar
			}
			bip++
		case slot.kind == kindSpanner:
			op.family, op.eps, op.label, op.planar = "random-planar", 0.25, labelNone, true
		}
		g, err := generate(op.family, n, gseed)
		if err != nil {
			return nil, err
		}
		op.g = g
		if op.family == "gnp-dense" {
			d := graph.EulerDistanceLowerBound(g)
			op.planar = d == 0
			op.label = labelNone
			if float64(d) > op.eps*float64(g.M()) {
				op.label = labelFar
			}
		}
		op.desc = fmt.Sprintf("#%d %s/%s/%s n=%d m=%d eps=%.1f", i, kindName(op.kind), op.variant, op.family, g.N(), g.M(), op.eps)
		ops = append(ops, op)
	}
	return ops, nil
}

func generate(family string, n int, seed int64) (*graph.Graph, error) {
	switch family {
	case "random-tree":
		return graph.RandomTree(n, rand.New(rand.NewSource(seed))), nil
	}
	f, ok := corpus.ByName(family)
	if !ok {
		return nil, fmt.Errorf("unknown corpus family %q", family)
	}
	return f.Gen(n, seed), nil
}

func kindName(k opKind) string {
	return [...]string{"planarity", "cycle-freeness", "bipartiteness", "spanner"}[k]
}

// layers adds the per-layer metrics of a tester workload's traced run.
func (w *testerWorkload) layers(traced *window, tr *tracer, m metrics) error {
	m.set("graph.gen_s", w.genTime.Seconds(), "s")
	ps := phaseSums{}
	var msgs int64
	var testerMs, spannerMs []float64
	var congestWall time.Duration
	var planarOps int
	for _, op := range w.ops {
		ps.add(op.traced.phases)
		switch op.kind {
		case kindPlanarity:
			congestWall += medianDuration(op.untracedWalls)
			planarOps++
		case kindCycleFree, kindBipartite:
			testerMs = append(testerMs, ms(op.traced.wall))
		case kindSpanner:
			spannerMs = append(spannerMs, ms(op.traced.wall))
		}
		msgs += op.traced.metrics.Messages
	}
	ps.set(m)
	m.set("congest.rounds", float64(traced.rounds), "count")
	m.set("congest.messages", float64(msgs), "count")
	m.set("congest.bits", float64(traced.bits), "count")
	m.set("testers.run_ms_p50", median(testerMs), "ms")
	m.set("spanner.run_ms_p50", median(spannerMs), "ms")
	tr.setHeap(m)

	// The oracle floor: oracle.Decide on the planarity runs' graphs,
	// untraced, since the workload itself never calls the oracle.
	var gs []*graph.Graph
	var planar []bool
	for _, o := range w.ops {
		if o.kind == kindPlanarity {
			gs = append(gs, o.g)
			planar = append(planar, o.planar)
		}
	}
	ds, err := replayOracle(gs, planar)
	if err != nil {
		return err
	}
	var oracleWall time.Duration
	for _, d := range ds {
		oracleWall += d
	}
	m.set("oracle.floor_ratio", congestWall.Seconds()/oracleWall.Seconds(), "ratio")
	fmt.Printf("oracle floor: CONGEST planarity runs %.3fs (untraced) vs oracle.Decide %.4fs on the same %d graphs: %.0fx\n",
		congestWall.Seconds(), oracleWall.Seconds(), planarOps, congestWall.Seconds()/oracleWall.Seconds())
	return nil
}
