package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// layers are the repository modules a traced run attributes time to.
var layers = []string{"graph", "graphio", "service", "oracle", "congest", "partition", "core", "testers", "spanner"}

// span is one timed call from the benchmark into a layer's public
// function. Spans of one operation share Op; Parent links a span to the
// span that caused it.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Op     int     `json:"op"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	closed bool
}

// tracer keeps the traced window's spans in memory, plus the state the
// samplers and engine probes report into. All methods are no-ops on a nil
// tracer, so untraced code paths call them unconditionally.
type tracer struct {
	t0       time.Time
	mu       sync.Mutex
	spans    []span
	progress atomic.Pointer[obs.Progress] // the running tester's cell
	heapPeak map[string]uint64            // mem.<phase> peak heap bytes
	moved    map[string]time.Duration     // congest time attributed to partition/core
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), heapPeak: map[string]uint64{}, moved: map[string]time.Duration{}}
}

// reset drops every span, keeping only the latest set-up's.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = nil
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(op, parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name, Start: ms(now)})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = ms(now)
	t.spans[id-1].closed = true
}

// add records a span whose interval was measured elsewhere, ending at
// end and lasting d (the engine time planard reports for a request).
func (t *tracer) add(op, parent int, layer, name string, end time.Time, d time.Duration) {
	if t == nil {
		return
	}
	e := end.Sub(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Layer: layer, Name: name,
		Start: ms(e - d), End: ms(e), closed: true})
}

// attribute moves engine wall time that the phase breakdown assigns to
// Stage I (partition) and to part-context and Stage II (core) out of the
// congest layer's self time.
func (t *tracer) attribute(pb obs.PhaseBreakdown) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range pb {
		if l := phaseLayer(s.Name); l != "congest" {
			t.moved[l] += time.Duration(s.WallNs)
		}
	}
}

func phaseLayer(phase string) string {
	switch {
	case strings.HasPrefix(phase, "stage1/"):
		return "partition"
	case strings.HasPrefix(phase, "stage2/"):
		return "core"
	}
	return "congest"
}

// selfTimes returns each layer's self time: its spans' durations minus
// the parts covered by their child spans, with the congest layer's
// phase-attributed share moved to partition and core.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]float64)
	for _, s := range t.spans {
		if s.Parent != 0 && s.closed {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		if !s.closed {
			continue
		}
		d := s.End - s.Start - child[s.ID]
		self[s.Layer] += time.Duration(max(d, 0) * 1e6)
	}
	for l, d := range t.moved {
		self[l] += d
		self["congest"] -= d
	}
	return self
}

// report prints the self-time table and sets layer.<name>.self_s.
func (t *tracer) report(m metrics) {
	self := t.selfTimes()
	var total time.Duration
	for _, d := range self {
		total += d
	}
	fmt.Println("layer self time (traced run: last set-up and traced window):")
	for _, l := range layers {
		d := self[l]
		m.set("layer."+l+".self_s", d.Seconds(), "s")
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(d) / float64(total)
		}
		fmt.Printf("  %-10s %10.3fs %5.1f%%\n", l, d.Seconds(), pct)
	}
	t.mu.Lock()
	n := len(t.spans)
	t.mu.Unlock()
	fmt.Printf("  %d spans\n", n)
}

// writeJSONL writes the spans, one JSON object per line, under
// $PERFBENCH_OUT (default .bench_build) and returns the file's path.
func (t *tracer) writeJSONL(workload string, seed int64) (path string, err error) {
	dir := os.Getenv("PERFBENCH_OUT")
	if dir == "" {
		dir = ".bench_build"
	}
	dir = filepath.Join(dir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path = filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	return path, bw.Flush()
}
