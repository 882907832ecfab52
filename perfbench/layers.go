package main

import (
	"repro/internal/obs"
)

type metricName struct{ name, unit string }

// perLayerNames is the traced run's metric set, in BENCHMARK.json order.
// Every traced run prints all of them; a layer a workload never calls
// reads 0.
var perLayerNames = func() []metricName {
	ns := []metricName{{"graph.gen_s", "s"}}
	for _, c := range []string{"rounds", "barriers", "wakes", "messages", "bits", "ff_windows"} {
		ns = append(ns, metricName{"congest." + c, "count"})
	}
	for _, p := range []string{"partition.p01", "partition.p02", "partition.p03", "partition.p04", "partition.rest", "core.partctx", "core.ops"} {
		ns = append(ns, metricName{p + ".wall_s", "s"}, metricName{p + ".wakes", "count"},
			metricName{p + ".barriers", "count"}, metricName{p + ".bits", "count"})
	}
	for _, p := range memPhases {
		ns = append(ns, metricName{"mem." + p + ".heap_peak_mb", "MB"})
	}
	ns = append(ns,
		metricName{"testers.run_ms_p50", "ms"},
		metricName{"spanner.run_ms_p50", "ms"},
		metricName{"graphio.decode_ms.edge-list", "ms"},
		metricName{"graphio.decode_ms.dimacs", "ms"},
		metricName{"graphio.decode_ms.json", "ms"},
		metricName{"graphio.decode_ms.binary", "ms"},
		metricName{"graphio.decode_mb_per_s", "MB/s"},
		metricName{"graphio.hash_ms", "ms"},
		metricName{"oracle.decide_ms", "ms"},
		metricName{"oracle.lr_tested", "count"},
		metricName{"oracle.floor_ratio", "ratio"},
		metricName{"service.cache_hit_frac", "frac"},
		metricName{"service.queue_wait_ms_p50", "ms"},
		metricName{"service.engine_ms_p50", "ms"},
		metricName{"service.shed_frac", "frac"},
		metricName{"service.coalesced", "count"},
		metricName{"service.http_overhead_ms", "ms"},
		metricName{"loadgen.late_ms_max", "ms"},
		metricName{"trace.overhead_ms", "ms"},
	)
	for _, l := range layers {
		ns = append(ns, metricName{"layer." + l + ".self_s", "s"})
	}
	return ns
}()

// memPhases are the phase keys of the mem.<phase>.heap_peak_mb metrics
// (see phaseShort).
var memPhases = []string{"p01", "p02", "p03", "p04", "rest", "partctx", "ops", "run", "outside"}

func knownPerLayer(name string) bool {
	for _, n := range perLayerNames {
		if n.name == name {
			return true
		}
	}
	return false
}

// phaseSums accumulates engine phase breakdowns across runs, keyed by
// the metric prefix (partition.p01, core.ops, ...).
type phaseSums map[string]obs.PhaseStat

func (ps phaseSums) add(pb obs.PhaseBreakdown) {
	for _, s := range pb {
		k := phasePrefix(s.Name)
		t := ps[k]
		t.WallNs += s.WallNs
		t.Wakes += s.Wakes
		t.Barriers += s.Barriers
		t.Messages += s.Messages
		t.Bits += s.Bits
		t.Windows += s.Windows
		ps[k] = t
	}
}

func phasePrefix(phase string) string {
	switch k := phaseShort(phase); k {
	case "partctx", "ops":
		return "core." + k
	case "run":
		return "run"
	default:
		return "partition." + k
	}
}

// set writes the partition.* and core.* columns and the congest totals
// the breakdowns carry (barriers, wakes, fast-forward windows).
func (ps phaseSums) set(m metrics) {
	var total obs.PhaseStat
	for k, s := range ps {
		total.Wakes += s.Wakes
		total.Barriers += s.Barriers
		total.Windows += s.Windows
		if k == "run" {
			continue
		}
		m.set(k+".wall_s", float64(s.WallNs)/1e9, "s")
		m.set(k+".wakes", float64(s.Wakes), "count")
		m.set(k+".barriers", float64(s.Barriers), "count")
		m.set(k+".bits", float64(s.Bits), "count")
	}
	m.set("congest.barriers", float64(total.Barriers), "count")
	m.set("congest.wakes", float64(total.Wakes), "count")
	m.set("congest.ff_windows", float64(total.Windows), "count")
}

// setHeap writes mem.<phase>.heap_peak_mb from the sampler's readings.
func (t *tracer) setHeap(m metrics) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range memPhases {
		if v, ok := t.heapPeak[p]; ok {
			m.set("mem."+p+".heap_peak_mb", float64(v)/(1<<20), "MB")
		}
	}
}
