package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"mime/multipart"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/service"
)

// The planard-mix schedule: an open loop sending one request every
// 1/planardRate seconds for the whole window, from at most nproc client
// goroutines over at most nproc connections. Slots follow a fixed
// pattern. The seed draws the exact-mode graphs at fixed sizes: their
// decode and oracle times follow the size, and the latency median sits
// among them, so a per-seed size draw would move it by tens of percent.
// The congest-mode instances are drawn once from congestPoolSeed, because
// their simulated rounds and Stage II work vary by orders of magnitude
// between random graphs of one size.
const (
	planardRate = 4.0 // requests per second, well below this mix's capacity on a 2-core host
	// planardPattern assigns each slot: E = mode=exact planarity on a new
	// 10^4..10^5-node graph, C = congest mode on a new 200..2000-node
	// graph, H = an exact repeat (the same body) of the latest E or C
	// request at least planardLag slots earlier, which the cache answers.
	// Half the requests are repeats, as in planard loadgen's default
	// -repeat 0.5. One fresh request in five is congest mode, so the
	// engine stays a minority of the service's work and decode, hash,
	// cache and oracle carry the rest.
	planardPattern  = "CHEHEHEHEH"
	planardLag      = 12
	congestPoolSeed = 1
)

// congestSlots rotates the congest-mode requests across the properties
// and Stage I variants, with known labels.
var congestSlots = []struct {
	property, variant, family string
	eps                       float64
	label                     label
}{
	{service.PropPlanarity, service.VariantDeterministic, "random-planar", 0.25, labelHas},
	{service.PropCycleFree, service.VariantDeterministic, "random-tree", 0.3, labelHas},
	{service.PropPlanarity, service.VariantRandomized, "grid", 0.25, labelHas},
	{service.PropBipartiteness, service.VariantDeterministic, "grid", 0.3, labelHas},
	{service.PropPlanarity, service.VariantEN, "triangulated-grid", 0.25, labelHas},
	{service.PropSpanner, service.VariantDeterministic, "random-planar", 0.25, labelNone},
	{service.PropPlanarity, service.VariantDeterministic, "gnp-dense", 0.3, labelFar},
	{service.PropOuterplanar, service.VariantDeterministic, "outerplanar", 0.3, labelHas},
	{service.PropCycleFree, service.VariantDeterministic, "grid", 0.3, labelFar},
	{service.PropBipartiteness, service.VariantDeterministic, "triangulated-grid", 0.1, labelFar},
}

// exactFamilies rotates the exact-mode graphs: planar and sparse
// non-planar families, so the oracle's left-right test does the work.
var exactFamilies = []string{"random-planar", "triangulated-grid", "k5-subdivision", "outerplanar", "grid", "k33-subdivision"}

// planardReq is one scheduled request with its pre-encoded body.
type planardReq struct {
	slot     byte
	orig     int // index of the request a repeat re-sends; itself otherwise
	req      service.Request
	label    label
	planar   bool
	comps    int // connected components (spanner check)
	body     []byte
	ctype    string
	payload  encoded // the graph bytes inside the body
	desc     string
	respView *service.View
}

type planardWorkload struct {
	reqs    []*planardReq
	genTime time.Duration
	srv     *server
	used    bool
	// Traced-window results for the per-layer metrics.
	sent, done []time.Time
	spanIDs    []int // each request's service span
	before     promSample
	after      promSample
	lateMax    time.Duration
}

func (w *planardWorkload) setup(seed int64, seconds int, tr *tracer) error {
	w.close()
	w.reqs = nil
	runtime.GC()
	n := int(planardRate * float64(seconds))
	rng := rand.New(rand.NewSource(seed))
	pool := rand.New(rand.NewSource(congestPoolSeed))
	var gen time.Duration
	nE, nC := 0, 0
	for i := 0; i < n; i++ {
		slot := planardPattern[i%len(planardPattern)]
		if slot == 'H' && i < planardLag {
			slot = 'E'
		}
		r := &planardReq{slot: slot, orig: i}
		switch slot {
		case 'H':
			j := i - planardLag
			for w.reqs[j].slot == 'H' {
				j--
			}
			o := *w.reqs[j]
			o.slot, o.orig, o.desc = 'H', j, "repeat of "+o.desc
			w.reqs = append(w.reqs, &o)
			continue
		case 'E':
			size := int(math.Round(1e4 * math.Pow(10, golden(nE))))
			fam := exactFamilies[nE%len(exactFamilies)]
			g, d, err := traceGenerate(tr, i+1, fam, size, rng.Int63n(1<<40))
			gen += d
			if err != nil {
				return err
			}
			r.planar = !strings.HasSuffix(fam, "-subdivision")
			r.label = labelHas
			r.req = service.Request{Property: service.PropPlanarity, Mode: service.ModeExact, Graph: g}
			r.desc = fmt.Sprintf("exact %s n=%d m=%d", fam, g.N(), g.M())
			if err := r.encode(graphio.Formats()[nE%4], (nE/4)%2 == 1); err != nil {
				return err
			}
			nE++
		case 'C':
			cs := congestSlots[nC%len(congestSlots)]
			u := stratum(nC, n, pool)
			size := int(math.Round(200 * math.Pow(10, u)))
			g, d, err := traceGenerate(tr, i+1, cs.family, size, pool.Int63n(1<<40))
			gen += d
			if err != nil {
				return err
			}
			r.label, r.planar = cs.label, true
			if cs.family == "gnp-dense" {
				d := graph.EulerDistanceLowerBound(g)
				r.planar = d == 0
				if float64(d) <= cs.eps*float64(g.M()) {
					r.label = labelNone
				}
			}
			_, r.comps = g.Components()
			r.req = service.Request{Property: cs.property, Epsilon: cs.eps, Seed: pool.Int63n(1 << 30),
				Variant: cs.variant, Mode: service.ModeCongest, Graph: g}
			r.desc = fmt.Sprintf("%s/%s %s n=%d m=%d eps=%.2f", cs.property, cs.variant, cs.family, g.N(), g.M(), cs.eps)
			if err := r.encode(graphio.Formats()[nC%4], (nC/4)%2 == 1); err != nil {
				return err
			}
			nC++
		}
		w.reqs = append(w.reqs, r)
	}
	w.genTime = gen
	srv, err := startServer()
	if err != nil {
		return err
	}
	w.srv, w.used = srv, false
	return nil
}

func traceGenerate(tr *tracer, op int, family string, n int, seed int64) (*graph.Graph, time.Duration, error) {
	id := tr.begin(op, 0, "graph", "graph generator "+family)
	start := time.Now()
	g, err := generate(family, n, seed)
	d := time.Since(start)
	tr.end(id)
	return g, d, err
}

// golden returns the k-th point of a golden-ratio sequence in [0,1): any
// prefix of the sequence covers [0,1) evenly.
func golden(k int) float64 {
	return math.Mod(0.5+float64(k)*0.6180339887498949, 1)
}

// stratum returns golden(k) jittered by rng within a stratum of width
// 1/n.
func stratum(k, n int, rng *rand.Rand) float64 {
	u := math.Mod(golden(k)+(rng.Float64()-0.5)/float64(n), 1)
	if u < 0 {
		u++
	}
	return u
}

// encode pre-encodes the request body: the graph in format f, inline in
// a JSON body or as a multipart part.
func (r *planardReq) encode(f graphio.Format, multi bool) error {
	p, err := encode(r.req.Graph, f)
	if err != nil {
		return err
	}
	r.payload = p
	opts := map[string]any{"property": r.req.Property, "mode": r.req.Mode}
	if r.req.Mode == service.ModeCongest {
		opts["epsilon"], opts["seed"], opts["variant"] = r.req.Epsilon, r.req.Seed, r.req.Variant
	}
	if !multi {
		gobj := map[string]any{"format": f.String()}
		if f == graphio.Binary {
			gobj["data_base64"] = base64.StdEncoding.EncodeToString(p.data)
		} else {
			gobj["data"] = string(p.data)
		}
		opts["graph"] = gobj
		r.body, err = json.Marshal(opts)
		r.ctype = "application/json"
		return err
	}
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	rj, err := json.Marshal(opts)
	if err != nil {
		return err
	}
	if err := mw.WriteField("request", string(rj)); err != nil {
		return err
	}
	if err := mw.WriteField("format", f.String()); err != nil {
		return err
	}
	part, err := mw.CreateFormFile("graph", "graph")
	if err != nil {
		return err
	}
	if _, err := part.Write(p.data); err != nil {
		return err
	}
	if err := mw.Close(); err != nil {
		return err
	}
	r.body, r.ctype = buf.Bytes(), mw.FormDataContentType()
	return nil
}

// server is planard's HTTP handler over a Manager with the service
// defaults, on a loopback listener in this process.
type server struct {
	m      *service.Manager
	hs     *http.Server
	url    string
	served chan struct{}
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	m := service.New(service.Config{})
	s := &server{
		m:      m,
		hs:     &http.Server{Handler: service.NewHandler(m, service.HandlerConfig{MaxRequestBytes: 512 << 20})},
		url:    "http://" + ln.Addr().String(),
		served: make(chan struct{}),
	}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	return s, nil
}

func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout leaves nothing to clean up in-process
	<-s.served
	s.m.Close()
}

func (w *planardWorkload) close() {
	if w.srv != nil {
		w.srv.stop()
		w.srv = nil
	}
}

// measure sends the schedule against a fresh server and checks every
// answer.
func (w *planardWorkload) measure(tr *tracer, _ *sampler) (*window, error) {
	if w.used {
		w.srv.stop()
		srv, err := startServer()
		if err != nil {
			return nil, err
		}
		w.srv = srv
	}
	w.used = true
	workers := runtime.NumCPU()
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
		DisableCompression:  true,
	}}
	defer client.CloseIdleConnections()
	if tr != nil {
		var err error
		if w.before, err = scrape(client, w.srv.url); err != nil {
			return nil, err
		}
	}

	n := len(w.reqs)
	sent := make([]time.Time, n)
	done := make([]time.Time, n)
	errs := make([]error, n)
	statuses := make([]int, n)
	spanIDs := make([]int, n)
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now().Add(20 * time.Millisecond)
	due := func(i int) time.Time { return t0.Add(time.Duration(float64(i) / planardRate * float64(time.Second))) }
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				time.Sleep(time.Until(due(i)))
				r := w.reqs[i]
				sent[i] = time.Now()
				id := tr.begin(i+1, 0, "service", "POST /v1/test "+string(r.slot))
				statuses[i], r.respView, errs[i] = post(client, w.srv.url, r)
				tr.end(id)
				done[i] = time.Now()
				spanIDs[i] = id
				if tr != nil && errs[i] == nil && statuses[i] == http.StatusOK && !r.respView.CacheHit && r.respView.Outcome != nil {
					tr.add(i+1, id, engineLayer(r), "engine "+r.req.Property, done[i], time.Duration(r.respView.Outcome.WallSeconds*float64(time.Second)))
				}
			}
		}()
	}
	wg.Wait()

	win := &window{attempted: n}
	var last time.Time
	// counted holds the congest-mode instances whose rounds and bits are
	// in the window's totals: each distinct instance once.
	counted := map[int]bool{}
	var late time.Duration
	for i, r := range w.reqs {
		late = max(late, sent[i].Sub(due(i)))
		last = maxTime(last, done[i])
		if errs[i] != nil {
			win.fail("#%d %s: %v", i, r.desc, errs[i])
			continue
		}
		if statuses[i] != http.StatusOK {
			win.fail("#%d %s: status %d", i, r.desc, statuses[i])
			continue
		}
		missed, err := r.check(r.respView)
		if err != nil {
			return win, fmt.Errorf("#%d %s: %w", i, r.desc, err)
		}
		if r.req.Mode == service.ModeCongest && !counted[r.orig] {
			counted[r.orig] = true
			win.rounds += int64(r.respView.Outcome.Metrics.Rounds)
			win.bits += r.respView.Outcome.Metrics.TotalBits
		}
		if missed {
			win.fail("#%d %s: certified-far instance accepted", i, r.desc)
			continue
		}
		win.latMs = append(win.latMs, ms(done[i].Sub(due(i))))
	}
	win.elapsed = last.Sub(t0)
	fmt.Printf("planard: %d requests at %.1f/s, generator at most %.1fms late\n", n, planardRate, ms(late))
	if err := w.backfill(client, win, counted); err != nil {
		return win, err
	}
	if tr != nil {
		w.sent, w.done, w.spanIDs, w.lateMax = sent, done, spanIDs, late
		var err error
		if w.after, err = scrape(client, w.srv.url); err != nil {
			return win, err
		}
	}
	return win, nil
}

// backfill completes the congest totals after the window: a congest-mode
// instance none of whose requests got a 200 answer (already counted as
// failed) is sent once more, unloaded, so the totals always cover every
// instance and a failure never reads as fewer rounds or bits. Runs are
// deterministic per request, so the answer is the one the window missed.
func (w *planardWorkload) backfill(client *http.Client, win *window, counted map[int]bool) error {
	for i, r := range w.reqs {
		if r.req.Mode != service.ModeCongest || counted[r.orig] {
			continue
		}
		counted[r.orig] = true
		status, v, err := post(client, w.srv.url, r)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err != nil {
			return fmt.Errorf("#%d %s: congest totals incomplete, resend failed: %v", i, r.desc, err)
		}
		if _, err := r.check(v); err != nil {
			return fmt.Errorf("#%d %s (resent): %w", i, r.desc, err)
		}
		win.rounds += int64(v.Outcome.Metrics.Rounds)
		win.bits += v.Outcome.Metrics.TotalBits
		win.notes = append(win.notes, fmt.Sprintf("#%d %s: resent after the window for the congest totals", i, r.desc))
	}
	return nil
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

func engineLayer(r *planardReq) string {
	switch {
	case r.req.Mode == service.ModeExact:
		return "oracle"
	case r.req.Property == service.PropSpanner:
		return "spanner"
	case r.req.Property == service.PropPlanarity:
		return "congest"
	}
	return "testers"
}

// post sends one request body and decodes the job view of a 200 answer.
func post(client *http.Client, url string, r *planardReq) (int, *service.View, error) {
	resp, err := client.Post(url+"/v1/test", r.ctype, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, nil
	}
	var v service.View
	if err := json.Unmarshal(body, &v); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("decode answer: %w", err)
	}
	return resp.StatusCode, &v, nil
}

// check compares a 200 answer with the instance's known label. It
// returns missed for an accepted certified-far instance.
func (r *planardReq) check(v *service.View) (missed bool, err error) {
	o := v.Outcome
	if v.State != "done" || o == nil {
		return false, fmt.Errorf("%w: answer in state %q without an outcome (%s)", errWrong, v.State, v.Error)
	}
	g := r.req.Graph
	if o.GraphN != g.N() || o.GraphM != g.M() {
		return false, fmt.Errorf("%w: server decoded n=%d m=%d, sent n=%d m=%d", errWrong, o.GraphN, o.GraphM, g.N(), g.M())
	}
	if o.Metrics.MaxMessageBits > o.Metrics.BitBound {
		return false, fmt.Errorf("%w: message of %d bits over the CONGEST bound %d", errWrong, o.Metrics.MaxMessageBits, o.Metrics.BitBound)
	}
	if r.req.Mode == service.ModeExact {
		if o.Rejected == r.planar {
			return false, fmt.Errorf("%w: exact verdict %q on an instance labelled planar=%v", errWrong, o.Verdict, r.planar)
		}
		return false, nil
	}
	if r.req.Property == service.PropSpanner {
		if o.SpannerEdges < g.N()-r.comps || o.SpannerEdges > g.M() {
			return false, fmt.Errorf("%w: spanner with %d edges on n=%d m=%d (%d components)", errWrong, o.SpannerEdges, g.N(), g.M(), r.comps)
		}
		return false, nil
	}
	switch {
	case o.Rejected && r.label == labelHas:
		return false, fmt.Errorf("%w: instance with the property rejected (one-sided error broken)", errWrong)
	case !o.Rejected && r.label == labelFar:
		return true, nil
	}
	return false, nil
}

// promSample is one scrape of GET /metrics: series name with labels ->
// value.
type promSample map[string]float64

func scrape(client *http.Client, url string) (promSample, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := promSample{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return out, nil
}

// delta sums the change of every series whose name (with labels)
// starts with prefix.
func (w *planardWorkload) delta(prefix string) float64 {
	var d float64
	for k, v := range w.after {
		if strings.HasPrefix(k, prefix) {
			d += v - w.before[k]
		}
	}
	return d
}

// phaseDeltas rebuilds the engine phase breakdown of the traced window
// from the planard_engine_phase_* series.
func (w *planardWorkload) phaseDeltas() obs.PhaseBreakdown {
	var pb obs.PhaseBreakdown
	const sec = "planard_engine_phase_seconds_total{phase=\""
	for k := range w.after {
		if !strings.HasPrefix(k, sec) {
			continue
		}
		label := k[len("planard_engine_phase_seconds_total"):]
		name := strings.TrimSuffix(k[len(sec):], "\"}")
		pb = append(pb, obs.PhaseStat{
			Name:     name,
			WallNs:   int64(w.delta(k) * 1e9),
			Wakes:    int64(w.delta("planard_engine_phase_wakes_total" + label)),
			Barriers: int64(w.delta("planard_engine_phase_barriers_total" + label)),
			Messages: int64(w.delta("planard_engine_phase_messages_total" + label)),
			Bits:     int64(w.delta("planard_engine_phase_bits_total" + label)),
		})
	}
	return pb
}

// layers adds planard-mix's per-layer metrics: the service's counters
// over the traced window and the answers' engine and oracle times. The
// request bodies are replayed untraced through graphio.Read and
// Request.CacheKey; each request's span gets the replayed decode and hash
// as graphio children, placed at its start, so the self-time table splits
// them out of the service's time rather than adding them again.
func (w *planardWorkload) layers(traced *window, tr *tracer, m metrics) error {
	m.set("graph.gen_s", w.genTime.Seconds(), "s")
	pb := w.phaseDeltas()
	tr.attribute(pb)
	ps := phaseSums{}
	ps.add(pb)
	ps.set(m)
	m.set("congest.rounds", w.delta("planard_simulated_rounds_total"), "count")
	m.set("congest.messages", w.delta("planard_messages_total"), "count")
	m.set("congest.bits", float64(traced.bits), "count")
	tr.setHeap(m)

	var bodies []encoded
	var want []*graph.Graph
	var hashReqs []*service.Request
	for i, r := range w.reqs {
		bodies = append(bodies, r.payload)
		want = append(want, r.req.Graph)
		req := r.req
		if err := req.Validate(); err != nil {
			return fmt.Errorf("request #%d: %w", i, err)
		}
		hashReqs = append(hashReqs, &req)
	}
	decode, err := replayGraphio(bodies, want, m)
	if err != nil {
		return err
	}
	hash := replayHash(hashReqs, m)

	// Per-answer service figures from the traced window.
	var hits, ok200, engineRuns, lrTested int
	var engineMs, queueMs, testerMs, spannerMs, oracleMs []float64
	var clientS, floorEngine float64
	var floorGraphs []*graph.Graph
	var floorPlanar []bool
	seen := map[int]bool{}
	for i, r := range w.reqs {
		v := r.respView
		if w.done[i].IsZero() || v == nil || v.Outcome == nil {
			continue
		}
		ok200++
		clientS += w.done[i].Sub(w.sent[i]).Seconds()
		tr.add(i+1, w.spanIDs[i], "graphio", "graphio.Read."+r.payload.format.String()+" (replayed)",
			w.sent[i].Add(decode[i]), decode[i])
		tr.add(i+1, w.spanIDs[i], "graphio", "service.Request.CacheKey (replayed)",
			w.sent[i].Add(decode[i]+hash[i]), hash[i])
		if v.CacheHit {
			hits++
			continue
		}
		engineRuns++
		e := v.Outcome.WallSeconds * 1000
		engineMs = append(engineMs, e)
		queueMs = append(queueMs, max(ms(w.done[i].Sub(w.sent[i])-decode[i]-hash[i])-e, 0))
		first := !seen[r.orig]
		seen[r.orig] = true
		switch engineLayer(r) {
		case "oracle":
			if first && v.Outcome.Oracle != nil {
				oracleMs = append(oracleMs, e)
				lrTested += v.Outcome.Oracle.LRTested
			}
		case "testers":
			testerMs = append(testerMs, e)
		case "spanner":
			spannerMs = append(spannerMs, e)
		case "congest":
			if first {
				floorEngine += v.Outcome.WallSeconds
				floorGraphs = append(floorGraphs, r.req.Graph)
				floorPlanar = append(floorPlanar, r.planar)
			}
		}
	}
	m.set("oracle.decide_ms", median(oracleMs), "ms")
	m.set("oracle.lr_tested", float64(lrTested), "count")
	m.set("service.cache_hit_frac", float64(hits)/float64(max(ok200, 1)), "frac")
	m.set("service.engine_ms_p50", median(engineMs), "ms")
	m.set("service.queue_wait_ms_p50", median(queueMs), "ms")
	m.set("service.shed_frac", w.delta("planard_shed_requests_total")/float64(len(w.reqs)), "frac")
	m.set("service.coalesced", w.delta("planard_coalesced_jobs_total"), "count")
	serverS := w.delta(`planard_request_seconds_sum{route="test"`)
	m.set("service.http_overhead_ms", (clientS-serverS)*1000/float64(max(ok200, 1)), "ms")
	m.set("testers.run_ms_p50", median(testerMs), "ms")
	m.set("spanner.run_ms_p50", median(spannerMs), "ms")
	m.set("loadgen.late_ms_max", ms(w.lateMax), "ms")
	fmt.Printf("service: %d answers, %d cache hits (/metrics: %v), %d engine runs, %.0f coalesced, %.0f shed\n",
		ok200, hits, w.delta("planard_cache_hits_total"), engineRuns, w.delta("planard_coalesced_jobs_total"), w.delta("planard_shed_requests_total"))

	ds, err := replayOracle(floorGraphs, floorPlanar)
	if err != nil {
		return err
	}
	var oracleS float64
	for _, d := range ds {
		oracleS += d.Seconds()
	}
	m.set("oracle.floor_ratio", floorEngine/oracleS, "ratio")
	fmt.Printf("oracle floor: congest-mode planarity engine time %.3fs vs oracle.Decide %.4fs on the same %d graphs\n",
		floorEngine, oracleS, len(floorGraphs))
	return nil
}
