package congest

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
)

// randomTreeViews builds consistent Tree views for a random spanning tree
// of g rooted at 0 (for failure-injection and property tests).
func randomTreeViews(g *graph.Graph) []Tree {
	res := g.BFS(0)
	views := make([]Tree, g.N())
	for v := 0; v < g.N(); v++ {
		views[v].ParentPort = -1
	}
	portOf := func(v, w int) int {
		for i, x := range g.Neighbors(v) {
			if int(x) == w {
				return i
			}
		}
		panic("not adjacent")
	}
	for v := 0; v < g.N(); v++ {
		if p := res.Parent[v]; p >= 0 {
			views[v].ParentPort = portOf(v, p)
			views[p].ChildPorts = append(views[p].ChildPorts, portOf(p, v))
		}
	}
	return views
}

// treeOp is one tree primitive inside an opsProgram: begin starts it
// (reporting whether it already completed), m drives it to its deadline,
// and end, if set, reads its result.
type treeOp struct {
	m interface {
		Feed(api *StepAPI, inbox []Inbound) bool
		Wake() Status
	}
	begin func(api *StepAPI) bool
	end   func(api *StepAPI)
}

// opsProgram chains tree operations into one node program: each op
// begins in the round the previous one completed, and the node
// terminates after the last.
func opsProgram(ops ...treeOp) StepProgram {
	k, started := 0, false
	return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
		for ; k < len(ops); k++ {
			op := ops[k]
			var complete bool
			if !started {
				started = true
				complete = op.begin(api)
			} else {
				complete = op.m.Feed(api, inbox)
			}
			if !complete {
				return op.m.Wake()
			}
			if op.end != nil {
				op.end(api)
			}
			started = false
		}
		return Done()
	})
}

// idleOp sleeps until a fixed round, discarding any mail.
type idleOp struct{ until int }

func (o *idleOp) Feed(api *StepAPI, inbox []Inbound) bool { return api.Round() >= o.until }
func (o *idleOp) Wake() Status                            { return Sleep(o.until) }

// idle is an op that advances exactly rounds rounds.
func idle(rounds int) treeOp {
	o := &idleOp{}
	return treeOp{m: o, begin: func(api *StepAPI) bool {
		o.until = api.Round() + rounds
		return rounds <= 0
	}}
}

// TestTreeOpsOnRandomTrees: broadcast and convergecast work on arbitrary
// spanning-tree shapes, not just paths and stars.
func TestTreeOpsOnRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomTree(5+rng.Intn(40), rng)
		views := randomTreeViews(g)
		depth := g.BFS(0).Dist
		maxd := 0
		for _, d := range depth {
			if d > maxd {
				maxd = d
			}
		}
		var rootSum int64
		_, err := RunStep(Config{Graph: g, Seed: int64(trial)}, func(i int) StepProgram {
			tr := views[i]
			var cv ConvergecastStep
			var bd BroadcastDownStep
			var agg Message
			return opsProgram(treeOp{
				m: &cv,
				begin: func(api *StepAPI) bool {
					return cv.Begin(api, tr, api.Round()+maxd+2, intMsg{v: 1}, sumCombine)
				},
				end: func(api *StepAPI) {
					var ok bool
					if agg, ok = cv.Result(); !ok {
						panic("convergecast failed")
					}
					if tr.IsRoot() {
						rootSum = agg.(intMsg).v
					}
				},
			}, treeOp{
				// Follow with a broadcast to confirm alternating ops align.
				m: &bd,
				begin: func(api *StepAPI) bool {
					var m Message
					if tr.IsRoot() {
						m = agg
					}
					return bd.Begin(api, tr, api.Round()+maxd+2, m, nil)
				},
				end: func(api *StepAPI) {
					if got, ok := bd.Result(); !ok || got.(intMsg).v != int64(g.N()) {
						panic("broadcast mismatch")
					}
				},
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if rootSum != int64(g.N()) {
			t.Fatalf("trial %d: sum %d, want %d", trial, rootSum, g.N())
		}
	}
}

// TestTreeOpsRejectStrayTraffic: the strict tree primitives must flag
// messages arriving outside the declared tree structure while a node is
// actively waiting — the mechanism that catches schedule bugs in the
// Stage I/II lockstep design.
func TestTreeOpsRejectStrayTraffic(t *testing.T) {
	// Star with center 0 and leaves 1..3; the tree is only 0-1 (port 0
	// at the center). Leaf 2 injects a message while the center waits
	// for its real child, which delays.
	g := graph.Star(4)
	first := func(own Message, ch []Message) Message { return own }
	_, err := RunStep(Config{Graph: g, Seed: 2}, func(i int) StepProgram {
		var cv ConvergecastStep
		switch i {
		case 0:
			tr := Tree{ParentPort: -1, ChildPorts: []int{0}}
			return opsProgram(treeOp{m: &cv, begin: func(api *StepAPI) bool {
				return cv.Begin(api, tr, api.Round()+6, intMsg{v: 1}, first)
			}})
		case 1:
			tr := Tree{ParentPort: 0}
			return opsProgram(idle(3), // delay so the center is still waiting
				treeOp{m: &cv, begin: func(api *StepAPI) bool {
					return cv.Begin(api, tr, api.Round()+3, intMsg{v: 1}, first)
				}})
		case 2:
			return once(func(api *StepAPI) {
				api.Send(0, intMsg{v: 99}) // stray injection into the op
			})(i)
		default:
			return opsProgram(idle(8))
		}
	})
	if err == nil || !strings.Contains(err.Error(), "unexpected message") {
		t.Fatalf("want strict-port violation, got %v", err)
	}
}

// TestPipelineUpManyItemsPerNode stresses queue growth and the
// items+depth pipelining bound on a deeper tree.
func TestPipelineUpManyItemsPerNode(t *testing.T) {
	const n = 12
	const perNode = 9
	g := graph.Path(n)
	var got int
	_, err := RunStep(Config{Graph: g, Seed: 3}, func(i int) StepProgram {
		tr := pathTree(i, n)
		var pu PipelineUpStep
		return opsProgram(treeOp{
			m: &pu,
			begin: func(api *StepAPI) bool {
				var items []Message
				for k := 0; k < perNode; k++ {
					items = append(items, intMsg{v: int64(i*100 + k)})
				}
				return pu.Begin(api, tr, api.Round()+n*perNode+n+4, items)
			},
			end: func(api *StepAPI) {
				out, ok := pu.Result()
				if !ok {
					panic("pipeline incomplete")
				}
				if tr.IsRoot() {
					got = len(out)
				}
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != n*perNode {
		t.Fatalf("root collected %d items, want %d", got, n*perNode)
	}
}

// TestBroadcastDownTransformChain verifies per-hop transformations on a
// deep path (depth counting).
func TestBroadcastDownTransformChain(t *testing.T) {
	const n = 30
	g := graph.Path(n)
	depths := make([]int64, n)
	_, err := RunStep(Config{Graph: g, Seed: 4}, func(i int) StepProgram {
		tr := pathTree(i, n)
		var bd BroadcastDownStep
		return opsProgram(treeOp{
			m: &bd,
			begin: func(api *StepAPI) bool {
				var m Message
				if tr.IsRoot() {
					m = intMsg{v: 0}
				}
				return bd.Begin(api, tr, api.Round()+n+2, m, incHop)
			},
			end: func(api *StepAPI) {
				got, ok := bd.Result()
				if !ok {
					panic("broadcast incomplete")
				}
				depths[i] = got.(intMsg).v
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range depths {
		if d != int64(i) {
			t.Fatalf("node %d depth %d", i, d)
		}
	}
}

// TestConvergecastInsufficientBudget: ops report ok=false (rather than
// hanging or panicking) when the deadline cannot be met.
func TestConvergecastInsufficientBudget(t *testing.T) {
	const n = 10
	g := graph.Path(n)
	okAtRoot := true
	_, err := RunStep(Config{Graph: g, Seed: 5}, func(i int) StepProgram {
		tr := pathTree(i, n)
		var cv ConvergecastStep
		return opsProgram(treeOp{
			m: &cv,
			begin: func(api *StepAPI) bool {
				// Budget 3 < depth 9: the root cannot hear everyone.
				return cv.Begin(api, tr, api.Round()+3, intMsg{v: 1}, sumCombine)
			},
			end: func(api *StepAPI) {
				if _, ok := cv.Result(); tr.IsRoot() {
					okAtRoot = ok
				}
			},
		},
			// Quiesce: messages still in flight at the deadline would
			// poison the next op, so drain one slack round per remaining
			// hop.
			idle(n))
	})
	if err != nil {
		t.Fatal(err)
	}
	if okAtRoot {
		t.Fatal("root must report failure under an impossible budget")
	}
}
