package congest

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// intMsg is a small test message carrying one value.
type intMsg struct{ v int64 }

func (m intMsg) Bits() int { return 8 + BitsForValue(m.v) }

// hugeMsg violates any sensible bit bound.
type hugeMsg struct{}

func (hugeMsg) Bits() int { return 1 << 20 }

// chatter returns a program that sends msg(r) on every port for rounds
// r = 0..rounds-1, then outputs VerdictAccept and terminates. Received
// messages are ignored.
func chatter(rounds int, msg func(r int) Message) func(int) StepProgram {
	return func(int) StepProgram {
		r := 0
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
			if r == rounds {
				api.Output(VerdictAccept)
				return Done()
			}
			api.SendAll(msg(r))
			r++
			return Running()
		})
	}
}

// once returns a program that runs f at round 0 and terminates.
func once(f func(api *StepAPI)) func(int) StepProgram {
	return func(int) StepProgram {
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
			f(api)
			return Done()
		})
	}
}

func TestFloodBFSOnGrid(t *testing.T) {
	g := graph.Grid(8, 11)
	want := g.BFS(0)
	dist := make([]int, g.N())
	res, err := RunStep(Config{Graph: g, Seed: 1}, func(int) StepProgram {
		return &floodStep{deadline: 1000, dist: dist}
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if dist[v] != want.Dist[v] {
			t.Fatalf("node %d: flood dist %d, want %d", v, dist[v], want.Dist[v])
		}
	}
	// Fast-forward must keep the deadline rounds cheap but counted.
	if res.Metrics.Rounds != 1000 {
		t.Fatalf("rounds = %d, want 1000 (deadline padding)", res.Metrics.Rounds)
	}
	if res.Metrics.MaxMessageBits > res.Metrics.BitBound {
		t.Fatalf("max message bits %d exceeds bound %d", res.Metrics.MaxMessageBits, res.Metrics.BitBound)
	}
}

func TestLeaderElectionMaxID(t *testing.T) {
	g := graph.Cycle(17)
	leaders := make([]int64, g.N())
	_, err := RunStep(Config{Graph: g, Seed: 2}, func(int) StepProgram {
		return &leaderStep{rounds: g.N(), out: leaders}
	})
	if err != nil {
		t.Fatal(err)
	}
	var max int64
	for _, l := range leaders {
		if l > max {
			max = l
		}
	}
	for i, l := range leaders {
		if l != max {
			t.Fatalf("node %d elected %d, want %d", i, l, max)
		}
	}
}

func TestDoubleSendPanics(t *testing.T) {
	g := graph.Path(2)
	_, err := RunStep(Config{Graph: g, Seed: 4}, once(func(api *StepAPI) {
		if api.Index() == 0 {
			api.Send(0, intMsg{1})
			api.Send(0, intMsg{2}) // model violation
		}
	}))
	if err == nil || !strings.Contains(err.Error(), "two messages") {
		t.Fatalf("want double-send error, got %v", err)
	}
}

func TestInvalidPortPanics(t *testing.T) {
	g := graph.Path(3)
	_, err := RunStep(Config{Graph: g, Seed: 5}, once(func(api *StepAPI) {
		api.Send(5, intMsg{1})
	}))
	if err == nil || !strings.Contains(err.Error(), "invalid port") {
		t.Fatalf("want invalid port error, got %v", err)
	}
}

func TestMaxRoundsExceeded(t *testing.T) {
	g := graph.Path(2)
	_, err := RunStep(Config{Graph: g, Seed: 6, MaxRounds: 50}, func(int) StepProgram {
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status { return Running() })
	})
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("want max-rounds error, got %v", err)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	g := graph.Grid(5, 5)
	run := func(seed int64) (*Result, []int64) {
		vals := make([]int64, g.N())
		res, err := RunStep(Config{Graph: g, Seed: seed}, func(int) StepProgram {
			var x int64
			r := 0
			return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
				if r == 0 {
					x = api.Rand().Int63n(1000)
				}
				for _, in := range inbox {
					x = (x + in.Msg.(intMsg).v) % 1_000_003
				}
				if r == 20 {
					vals[api.Index()] = x
					return Done()
				}
				api.SendAll(intMsg{x})
				r++
				return Running()
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, vals
	}
	r1, v1 := run(42)
	r2, v2 := run(42)
	if r1.Metrics != r2.Metrics {
		t.Fatalf("metrics differ across identical runs:\n%v\n%v", r1.Metrics, r2.Metrics)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("node %d: values differ %d vs %d", i, v1[i], v2[i])
		}
	}
	_, v3 := run(43)
	same := true
	for i := range v1 {
		if v1[i] != v3[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical outcomes (suspicious)")
	}
}

// TestSleepUntilWakesOnMessage: a node sleeping toward a far deadline
// wakes at the round its mail is delivered, and the far deadline does
// not pad the run.
func TestSleepUntilWakesOnMessage(t *testing.T) {
	g := graph.Path(2)
	wokeAt := 0
	res, err := RunStep(Config{Graph: g, Seed: 8}, func(node int) StepProgram {
		if node == 0 {
			return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
				switch api.Round() {
				case 0:
					return Sleep(5)
				case 5:
					api.Send(0, intMsg{99})
					return Running()
				}
				return Done()
			})
		}
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
			if api.Round() == 0 {
				return Sleep(100000)
			}
			wokeAt = api.Round()
			if len(inbox) != 1 || inbox[0].Msg.(intMsg).v != 99 {
				panic("wrong inbox")
			}
			return Done()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if wokeAt != 6 {
		t.Fatalf("woke at round %d, want 6", wokeAt)
	}
	if res.Metrics.Rounds > 10 {
		t.Fatalf("rounds = %d; sleeper must not force the deadline", res.Metrics.Rounds)
	}
}

func TestVerdictAggregation(t *testing.T) {
	g := graph.Path(5)
	res, err := RunStep(Config{Graph: g, Seed: 10}, once(func(api *StepAPI) {
		if api.Index() == 3 {
			api.Output(VerdictReject)
		} else {
			api.Output(VerdictAccept)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted() {
		t.Fatal("Accepted must be false with a rejector")
	}
	if !res.Rejected() || res.RejectCount() != 1 {
		t.Fatalf("want exactly one reject, got %d", res.RejectCount())
	}
}

func TestModeledRounds(t *testing.T) {
	g := graph.Path(3)
	res, err := RunStep(Config{Graph: g, Seed: 12}, once(func(api *StepAPI) {
		api.ChargeModeledRounds(7)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ModeledRounds != 21 {
		t.Fatalf("modeled rounds = %d, want 21", res.Metrics.ModeledRounds)
	}
}

func TestCustomIDs(t *testing.T) {
	g := graph.Path(3)
	ids := []int64{100, 200, 300}
	seen := make([]int64, 3)
	_, err := RunStep(Config{Graph: g, Seed: 13, IDs: ids}, once(func(api *StepAPI) {
		seen[api.Index()] = api.ID()
	}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if seen[i] != ids[i] {
			t.Fatalf("node %d saw id %d, want %d", i, seen[i], ids[i])
		}
	}
}

func TestDefaultIDsAreUniquePermutation(t *testing.T) {
	g := graph.Grid(4, 4)
	seen := make([]int64, g.N())
	_, err := RunStep(Config{Graph: g, Seed: 14}, once(func(api *StepAPI) {
		seen[api.Index()] = api.ID()
	}))
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[int64]bool)
	for _, id := range seen {
		if id < 1 || id > int64(g.N()) || used[id] {
			t.Fatalf("ids are not a permutation of 1..n: %v", seen)
		}
		used[id] = true
	}
}

// pathTree builds the Tree view for node i on the path 0-1-...-n-1 rooted
// at node 0. Port layout: on a path, node 0 has port 0 -> node 1; interior
// node i has port 0 -> i-1 and port 1 -> i+1; the last node has port 0.
func pathTree(i, n int) Tree {
	switch {
	case i == 0:
		return Tree{ParentPort: -1, ChildPorts: []int{0}}
	case i == n-1:
		return Tree{ParentPort: 0}
	default:
		return Tree{ParentPort: 0, ChildPorts: []int{1}}
	}
}

// incHop increments an intMsg payload on each tree hop.
func incHop(m Message) Message { return intMsg{v: m.(intMsg).v + 1} }

func TestTreeBroadcastDown(t *testing.T) {
	const n = 7
	g := graph.Path(n)
	got := make([]int64, n)
	_, err := RunStep(Config{Graph: g, Seed: 15}, func(i int) StepProgram {
		tr := pathTree(i, n)
		var bd BroadcastDownStep
		return opsProgram(treeOp{
			m: &bd,
			begin: func(api *StepAPI) bool {
				var root Message
				if tr.IsRoot() {
					root = intMsg{v: 1}
				}
				// Each hop increments the payload, so node i receives i+1.
				return bd.Begin(api, tr, api.Round()+n+2, root, incHop)
			},
			end: func(api *StepAPI) {
				m, ok := bd.Result()
				if !ok {
					panic("broadcast did not complete")
				}
				got[i] = m.(intMsg).v
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got[i] != int64(i+1) {
			t.Fatalf("node %d got %d, want %d", i, got[i], i+1)
		}
	}
}

func TestTreeConvergecastSum(t *testing.T) {
	const n = 9
	g := graph.Path(n)
	var rootSum int64
	_, err := RunStep(Config{Graph: g, Seed: 16}, func(i int) StepProgram {
		tr := pathTree(i, n)
		var cv ConvergecastStep
		return opsProgram(treeOp{
			m: &cv,
			begin: func(api *StepAPI) bool {
				return cv.Begin(api, tr, api.Round()+n+2, intMsg{v: int64(i)}, sumCombine)
			},
			end: func(api *StepAPI) {
				agg, ok := cv.Result()
				if !ok {
					panic("convergecast did not complete")
				}
				if tr.IsRoot() {
					rootSum = agg.(intMsg).v
				}
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if rootSum != int64(n*(n-1)/2) {
		t.Fatalf("sum = %d, want %d", rootSum, n*(n-1)/2)
	}
}

func TestTreePipelineUp(t *testing.T) {
	const n = 6
	g := graph.Path(n)
	var collected []int64
	_, err := RunStep(Config{Graph: g, Seed: 17}, func(i int) StepProgram {
		tr := pathTree(i, n)
		var pu PipelineUpStep
		return opsProgram(treeOp{
			m: &pu,
			begin: func(api *StepAPI) bool {
				// Each node contributes two items; budget = items + depth + slack.
				items := []Message{intMsg{v: int64(i * 10)}, intMsg{v: int64(i*10 + 1)}}
				return pu.Begin(api, tr, api.Round()+2*n+n+4, items)
			},
			end: func(api *StepAPI) {
				got, ok := pu.Result()
				if !ok {
					panic("pipeline did not complete")
				}
				for _, m := range got {
					collected = append(collected, m.(intMsg).v)
				}
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(collected) != 2*n {
		t.Fatalf("collected %d items, want %d", len(collected), 2*n)
	}
	seen := make(map[int64]bool)
	for _, v := range collected {
		seen[v] = true
	}
	for i := 0; i < n; i++ {
		if !seen[int64(i*10)] || !seen[int64(i*10+1)] {
			t.Fatalf("missing items of node %d; got %v", i, collected)
		}
	}
}

func TestTreeBroadcastItemsDown(t *testing.T) {
	const n = 5
	g := graph.Path(n)
	counts := make([]int, n)
	_, err := RunStep(Config{Graph: g, Seed: 18}, func(i int) StepProgram {
		tr := pathTree(i, n)
		var bi BroadcastItemsDownStep
		return opsProgram(treeOp{
			m: &bi,
			begin: func(api *StepAPI) bool {
				var items []Message
				if tr.IsRoot() {
					for k := 0; k < 7; k++ {
						items = append(items, intMsg{v: int64(100 + k)})
					}
				}
				return bi.Begin(api, tr, api.Round()+7+n+4, items)
			},
			end: func(api *StepAPI) {
				got, ok := bi.Result()
				if !ok {
					panic("broadcast-items did not complete")
				}
				counts[i] = len(got)
				for k, m := range got {
					if m.(intMsg).v != int64(100+k) {
						panic("wrong item order")
					}
				}
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 7 {
			t.Fatalf("node %d received %d items, want 7", i, c)
		}
	}
}

func TestTreeOpsOnStar(t *testing.T) {
	// Star: center 0 with 6 leaves; exercises wide fan-in/out.
	const n = 7
	g := graph.Star(n)
	var sum int64
	_, err := RunStep(Config{Graph: g, Seed: 19}, func(i int) StepProgram {
		tr := Tree{ParentPort: 0}
		if i == 0 {
			tr = Tree{ParentPort: -1, ChildPorts: []int{0, 1, 2, 3, 4, 5}}
		}
		var cv ConvergecastStep
		return opsProgram(treeOp{
			m: &cv,
			begin: func(api *StepAPI) bool {
				return cv.Begin(api, tr, api.Round()+4, intMsg{v: 1}, sumCombine)
			},
			end: func(api *StepAPI) {
				agg, ok := cv.Result()
				if !ok {
					panic("convergecast failed")
				}
				if tr.IsRoot() {
					sum = agg.(intMsg).v
				}
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != n {
		t.Fatalf("sum = %d, want %d", sum, n)
	}
}

func TestBitsHelpers(t *testing.T) {
	if BitsForValue(0) != 1 || BitsForValue(1) != 1 || BitsForValue(2) != 2 || BitsForValue(255) != 8 {
		t.Fatal("BitsForValue wrong")
	}
	if BitsForID(1024) != 20 {
		t.Fatalf("BitsForID(1024) = %d, want 20", BitsForID(1024))
	}
	if DefaultBitBound(1024) != 48*10 {
		t.Fatalf("DefaultBitBound(1024) = %d", DefaultBitBound(1024))
	}
}

func TestVerdictString(t *testing.T) {
	if VerdictAccept.String() != "accept" || VerdictReject.String() != "reject" || VerdictNone.String() != "none" {
		t.Fatal("verdict strings wrong")
	}
}

func TestCancelAbortsRun(t *testing.T) {
	g := graph.Cycle(9)
	count := func(r int) Message { return intMsg{int64(r)} }

	// A channel that fires mid-run ends it with ErrCanceled. Closing
	// before the run starts makes the abort deterministic: the engine
	// polls at the first barrier.
	done := make(chan struct{})
	close(done)
	_, err := RunStep(Config{Graph: g, Seed: 3, Cancel: done}, chatter(1_000_000, count))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled run: err = %v, want ErrCanceled", err)
	}

	// A cancel channel that never fires must not perturb the run:
	// byte-identical Results vs. a run without one.
	idle := make(chan struct{})
	defer close(idle)
	base, err := RunStep(Config{Graph: g, Seed: 3}, chatter(10, count))
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunStep(Config{Graph: g, Seed: 3, Cancel: idle}, chatter(10, count))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Fatalf("idle cancel channel changed the run: %+v vs %+v", base, got)
	}
}
