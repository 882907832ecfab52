package congest

import (
	"testing"

	"repro/internal/graph"
)

// Engine microbenchmarks (run with -benchmem): each primitive runs as a
// step program under its historical "/step" sub-benchmark name, so
// scripts/bench.sh records comparable rows in BENCH_*.json and
// scripts/bench_compare.sh gates them against the committed baseline.

func benchGraphTree(n int) (*graph.Graph, func(i int) Tree) {
	g := graph.Path(n)
	return g, func(i int) Tree { return pathTree(i, n) }
}

func BenchmarkEngineBroadcast(b *testing.B) {
	const n = 64
	g, tree := benchGraphTree(n)
	b.Run("step", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := RunStep(Config{Graph: g, Seed: int64(i)}, func(node int) StepProgram {
				var bd BroadcastDownStep
				started := false
				return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
					if !started {
						started = true
						tr := tree(api.Index())
						var root Message
						if tr.IsRoot() {
							root = intMsg{v: 42}
						}
						if !bd.Begin(api, tr, api.Round()+n+2, root, nil) {
							return bd.Wake()
						}
					} else if !bd.Feed(api, inbox) {
						return bd.Wake()
					}
					if _, ok := bd.Result(); !ok {
						panic("broadcast failed")
					}
					return Done()
				})
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEngineConvergecast(b *testing.B) {
	const n = 64
	g, tree := benchGraphTree(n)
	b.Run("step", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := RunStep(Config{Graph: g, Seed: int64(i)}, func(node int) StepProgram {
				var cv ConvergecastStep
				started := false
				return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
					if !started {
						started = true
						own := intMsg{v: int64(api.Index())}
						if !cv.Begin(api, tree(api.Index()), api.Round()+n+2, own, sumCombine) {
							return cv.Wake()
						}
					} else if !cv.Feed(api, inbox) {
						return cv.Wake()
					}
					if _, ok := cv.Result(); !ok {
						panic("convergecast failed")
					}
					return Done()
				})
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineFloodPingPong stresses the dense all-ports exchange: every
// node sends on every port every round for a fixed number of rounds (the
// worst case for scheduler and routing overhead).
func BenchmarkEngineFloodPingPong(b *testing.B) {
	g := graph.Grid(8, 8)
	const rounds = 64
	b.Run("step", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := RunStep(Config{Graph: g, Seed: int64(i)}, func(node int) StepProgram {
				var x int64
				r := 0
				started := false
				return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
					if !started {
						started = true
						x = api.ID()
						api.SendAll(intMsg{x})
						return Running()
					}
					for _, in := range inbox {
						x = (x + in.Msg.(intMsg).v) % 1_000_003
					}
					r++
					if r == rounds {
						return Done()
					}
					api.SendAll(intMsg{x})
					return Running()
				})
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
