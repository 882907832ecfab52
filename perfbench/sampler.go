package main

import (
	"os"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// sampler polls the process's resident set (and, in a traced window, the
// Go heap) from outside the engine. Heap readings are attributed to the
// phase the current run's obs.Progress cell reports, which gives the
// per-phase peak heap without touching the engine.
type sampler struct {
	tr   *tracer
	quit chan struct{}
	done chan struct{}

	peakRSS atomic.Int64
	heap    map[string]uint64 // phase key -> peak heap bytes
}

// heapMetric counts heap memory occupied by objects, live or not yet
// swept: the bytes the engine's allocations hold between collections.
const heapMetric = "/memory/classes/heap/objects:bytes"

func startSampler(tr *tracer) *sampler {
	s := &sampler{tr: tr, quit: make(chan struct{}), done: make(chan struct{}), heap: map[string]uint64{}}
	const period = 5 * time.Millisecond
	go func() {
		defer close(s.done)
		sample := []rtmetrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			for v := residentBytes(); ; {
				p := s.peakRSS.Load()
				if v <= p || s.peakRSS.CompareAndSwap(p, v) {
					break
				}
			}
			if tr != nil {
				rtmetrics.Read(sample)
				if sample[0].Value.Kind() == rtmetrics.KindUint64 {
					k := phaseKey(tr.progress.Load())
					s.heap[k] = max(s.heap[k], sample[0].Value.Uint64())
				}
			}
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak resident set in MB. In a
// traced window the per-phase heap peaks are handed to the tracer.
func (s *sampler) stop() float64 {
	close(s.quit)
	<-s.done
	if s.tr != nil {
		s.tr.mu.Lock()
		for k, v := range s.heap {
			s.tr.heapPeak[k] = max(s.tr.heapPeak[k], v)
		}
		s.tr.mu.Unlock()
	}
	return float64(s.peakRSS.Load()) / (1 << 20)
}

// takePeak returns the peak resident set in MB since the last takePeak
// (or the start) and starts a new peak from the next reading.
func (s *sampler) takePeak() float64 {
	return float64(s.peakRSS.Swap(0)) / (1 << 20)
}

// residentBytes reads the resident set size from /proc/self/statm (0
// where procfs is unavailable).
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// phaseKey maps a progress snapshot's phase to the mem.<key> metric
// names: p01..p04 for the first Stage I phases, rest for later ones,
// partctx and ops for Stage II, run for the engine's root phase, and
// outside when no tester run is in progress.
func phaseKey(p *obs.Progress) string {
	if p == nil {
		return "outside"
	}
	return phaseShort(p.Snapshot().Phase)
}

func phaseShort(phase string) string {
	switch phase {
	case "stage1/p01", "stage1/p02", "stage1/p03", "stage1/p04":
		return phase[len("stage1/"):]
	case "stage2/partctx":
		return "partctx"
	case "stage2/ops":
		return "ops"
	case "run":
		return "run"
	}
	if strings.HasPrefix(phase, "stage1/") {
		return "rest"
	}
	return "run"
}
