package congest

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// floodStep floods BFS distances from node 0: every node forwards its
// distance once, on the round after it first hears one, and terminates
// at the deadline.
type floodStep struct {
	deadline int
	d        int
	started  bool
	dist     []int
}

func (f *floodStep) Step(api *StepAPI, inbox []Inbound) Status {
	if !f.started {
		f.started = true
		f.d = -1
		if api.Index() == 0 {
			f.d = 0
			api.SendAll(intMsg{0})
		}
		return Sleep(f.deadline)
	}
	if f.d == -1 {
		for _, in := range inbox {
			if m, ok := in.Msg.(intMsg); ok && f.d == -1 {
				f.d = int(m.v) + 1
				api.SendAll(intMsg{int64(f.d)})
			}
		}
	}
	if api.Round() >= f.deadline {
		f.dist[api.Index()] = f.d
		return Done()
	}
	return Sleep(f.deadline)
}

// leaderStep is max-id leader election: every node floods the largest id
// it has seen, for a fixed number of rounds.
type leaderStep struct {
	rounds  int
	best    int64
	r       int
	started bool
	out     []int64
}

func (l *leaderStep) Step(api *StepAPI, inbox []Inbound) Status {
	if !l.started {
		l.started = true
		l.best = api.ID()
		api.SendAll(intMsg{l.best})
		return Running()
	}
	for _, in := range inbox {
		if m := in.Msg.(intMsg); m.v > l.best {
			l.best = m.v
		}
	}
	l.r++
	if l.r == l.rounds {
		l.out[api.Index()] = l.best
		return Done()
	}
	api.SendAll(intMsg{l.best})
	return Running()
}

// TestStepEngineEquivalence pins flood BFS and max-id leader election,
// across several graph families, seeds, and worker counts, to the
// digests in testdata/step_engine.golden (captured from the blocking
// execution model; DESIGN.md §2).
func TestStepEngineEquivalence(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(6, 7)},
		{"cycle", graph.Cycle(23)},
		{"star", graph.Star(12)},
		{"path", graph.Path(17)},
	}
	var lines []string
	for _, fam := range families {
		for seed := int64(0); seed < 3; seed++ {
			for _, w := range []int{1, 2} {
				cfg := Config{Graph: fam.g, Seed: seed, Workers: w}
				key := fmt.Sprintf("%s/seed%d/w%d", fam.name, seed, w)
				dist := make([]int, fam.g.N())
				res, err := RunStep(cfg, func(int) StepProgram {
					return &floodStep{deadline: 300, dist: dist}
				})
				lines = append(lines, goldenLine(key+"/flood", res, err, dist))
				out := make([]int64, fam.g.N())
				res, err = RunStep(cfg, func(int) StepProgram {
					return &leaderStep{rounds: fam.g.N(), out: out}
				})
				lines = append(lines, goldenLine(key+"/leader", res, err, out))
			}
		}
	}
	checkGolden(t, "step_engine.golden", lines)
}

// TestTreeStepOpsEquivalence pins the tree primitives (convergecast then
// pipelined convergecast) to the digests in testdata/tree_ops.golden,
// captured from the blocking tree operations.
func TestTreeStepOpsEquivalence(t *testing.T) {
	const n = 9
	g := graph.Path(n)
	var lines []string
	for _, w := range []int{1, 2} {
		var rootSum int64
		var collected []int64
		res, err := RunStep(Config{Graph: g, Seed: 7, Workers: w}, func(i int) StepProgram {
			tr := pathTree(i, n)
			var cv ConvergecastStep
			var pu PipelineUpStep
			return opsProgram(treeOp{
				m: &cv,
				begin: func(api *StepAPI) bool {
					return cv.Begin(api, tr, api.Round()+n+2, intMsg{v: int64(i)}, sumCombine)
				},
				end: func(api *StepAPI) {
					agg, ok := cv.Result()
					if !ok {
						panic("convergecast failed")
					}
					if tr.IsRoot() {
						rootSum = agg.(intMsg).v
					}
				},
			}, treeOp{
				m: &pu,
				begin: func(api *StepAPI) bool {
					return pu.Begin(api, tr, api.Round()+2*n+4, []Message{intMsg{v: int64(i * 10)}})
				},
				end: func(api *StepAPI) {
					got, ok := pu.Result()
					if !ok {
						panic("pipeline failed")
					}
					for _, m := range got {
						collected = append(collected, m.(intMsg).v)
					}
				},
			})
		})
		lines = append(lines, goldenLine(fmt.Sprintf("path%d/seed7/w%d", n, w), res, err, rootSum, collected))
	}
	checkGolden(t, "tree_ops.golden", lines)
}

func sumCombine(own Message, children []Message) Message {
	s := own.(intMsg).v
	for _, c := range children {
		s += c.(intMsg).v
	}
	return intMsg{v: s}
}

// TestStopOnRejectMidRound verifies that a reject stops the run at the
// next barrier.
func TestStopOnRejectMidRound(t *testing.T) {
	g := graph.Grid(4, 4)
	res, err := RunStep(Config{Graph: g, Seed: 3, StopOnReject: true}, func(int) StepProgram {
		r := 0
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
			if r == 100 {
				api.Output(VerdictAccept)
				return Done()
			}
			if api.Index() == 5 && api.Round() == 7 {
				api.Output(VerdictReject)
			}
			api.SendAll(intMsg{int64(r)})
			r++
			return Running()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Rounds != 7 {
		t.Fatalf("rounds = %d, want 7 (stop at first barrier after reject)", res.Metrics.Rounds)
	}
	if res.RejectCount() != 1 {
		t.Fatalf("rejects = %d, want 1", res.RejectCount())
	}
}

// TestStepSleepFastForward checks that the engine fast-forwards a
// sleeper over empty rounds without simulating them.
func TestStepSleepFastForward(t *testing.T) {
	g := graph.Path(3)
	res, err := RunStep(Config{Graph: g, Seed: 4}, func(int) StepProgram {
		started := false
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
			if !started {
				started = true
				return Sleep(2_000_000)
			}
			return Done()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Rounds != 2_000_000 {
		t.Fatalf("rounds = %d, want 2000000", res.Metrics.Rounds)
	}
}

// TestStepMessageToDoneDropped checks the dropped-to-done accounting under
// the step model.
func TestStepMessageToDoneDropped(t *testing.T) {
	g := graph.Path(2)
	res, err := RunStep(Config{Graph: g, Seed: 5}, func(node int) StepProgram {
		r := 0
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
			if api.Index() == 0 {
				return Done() // terminate immediately
			}
			switch r {
			case 0:
				r++
				return Running()
			case 1:
				r++
				api.Send(0, intMsg{1}) // node 0 is done by now
				return Running()
			default:
				return Done()
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.DroppedToDone != 1 {
		t.Fatalf("dropped = %d, want 1", res.Metrics.DroppedToDone)
	}
}

// TestStepPanicPropagates checks that a panic inside a Step call is
// converted into a run error naming the node and round.
func TestStepPanicPropagates(t *testing.T) {
	g := graph.Path(4)
	_, err := RunStep(Config{Graph: g, Seed: 6}, func(int) StepProgram {
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
			if api.Index() == 2 && api.Round() == 3 {
				panic("boom")
			}
			return Running()
		})
	})
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "round 3") {
		t.Fatalf("want propagated panic with round, got %v", err)
	}
}

// TestStepBitBoundViolation checks bound enforcement on the step path.
func TestStepBitBoundViolation(t *testing.T) {
	g := graph.Path(2)
	_, err := RunStep(Config{Graph: g, Seed: 7}, func(int) StepProgram {
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
			if api.Index() == 0 && api.Round() == 0 {
				api.Send(0, hugeMsg{})
			}
			return Running()
		})
	})
	if err == nil || !strings.Contains(err.Error(), "bound") {
		t.Fatalf("want bit bound error, got %v", err)
	}
}

// TestBecomeMidRun checks the same-round BecomeStep handover: the
// continuation's first Step runs in the round of the handover, with the
// same inbox, and the chained program behaves exactly like its
// single-program equivalent.
func TestBecomeMidRun(t *testing.T) {
	g := graph.Cycle(9)
	const split = 5
	const total = 12
	// sum floods an accumulating value for rounds [from, total) and then
	// accepts; with handover set, it hands the rest of the schedule to a
	// fresh sum at round split. The program steps every round, so its
	// counter must track the engine round across the handover.
	var sum func(x int64, from int, handover bool) StepProgram
	sum = func(x int64, from int, handover bool) StepProgram {
		r := from
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
			if api.Round() != r {
				panic("program off schedule")
			}
			if handover && r == split {
				// Hand over before reading the inbox: the continuation
				// steps in this same round, with the same inbox.
				return BecomeStep(sum(x, r, false))
			}
			if r == 0 {
				x = api.ID()
			}
			for _, in := range inbox {
				x += in.Msg.(intMsg).v
			}
			if r == total {
				api.Output(VerdictAccept)
				return Done()
			}
			api.SendAll(intMsg{x})
			r++
			return Running()
		})
	}
	whole, err := RunStep(Config{Graph: g, Seed: 9}, func(int) StepProgram { return sum(0, 0, false) })
	if err != nil {
		t.Fatal(err)
	}
	chained, err := RunStep(Config{Graph: g, Seed: 9}, func(int) StepProgram { return sum(0, 0, true) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(whole, chained) {
		t.Fatalf("become mismatch:\nwhole:   %+v\nchained: %+v", whole, chained)
	}
}
