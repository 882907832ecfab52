package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/oracle"
	"repro/internal/service"
)

// encoded is one graph serialized in one wire format.
type encoded struct {
	format graphio.Format
	data   []byte
}

func encode(g *graph.Graph, f graphio.Format) (encoded, error) {
	var buf bytes.Buffer
	if err := graphio.Write(&buf, g, f); err != nil {
		return encoded{}, fmt.Errorf("encode %v: %w", f, err)
	}
	return encoded{f, buf.Bytes()}, nil
}

// replayGraphio times graphio.Read on every body, sets
// graphio.decode_ms.<format> (median per body) and graphio.decode_mb_per_s
// (all bytes over all decode time), and returns each body's decode time.
// Each decoded graph must have the node and edge counts of the graph it
// was encoded from.
func replayGraphio(bodies []encoded, want []*graph.Graph, m metrics) ([]time.Duration, error) {
	perFormat := map[graphio.Format][]float64{}
	ds := make([]time.Duration, len(bodies))
	var bytesTotal int
	var total time.Duration
	for i, b := range bodies {
		start := time.Now()
		g, err := graphio.Read(bytes.NewReader(b.data), b.format)
		d := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("%w: graphio.Read %v: %v", errWrong, b.format, err)
		}
		if g.N() != want[i].N() || g.M() != want[i].M() {
			return nil, fmt.Errorf("%w: graphio.Read %v decoded n=%d m=%d, want n=%d m=%d",
				errWrong, b.format, g.N(), g.M(), want[i].N(), want[i].M())
		}
		ds[i] = d
		perFormat[b.format] = append(perFormat[b.format], ms(d))
		bytesTotal += len(b.data)
		total += d
	}
	for f, xs := range perFormat {
		m.set("graphio.decode_ms."+f.String(), median(xs), "ms")
	}
	m.set("graphio.decode_mb_per_s", float64(bytesTotal)/(1<<20)/total.Seconds(), "MB/s")
	fmt.Printf("graphio: %d bodies, %.1f MB decoded in %.3fs\n", len(bodies), float64(bytesTotal)/(1<<20), total.Seconds())
	return ds, nil
}

// replayHash times Request.CacheKey, the canonical graph hash every
// planard request pays, sets graphio.hash_ms (median) and returns each
// request's hash time.
func replayHash(reqs []*service.Request, m metrics) []time.Duration {
	ds := make([]time.Duration, len(reqs))
	xs := make([]float64, len(reqs))
	for i, r := range reqs {
		start := time.Now()
		_ = r.CacheKey()
		ds[i] = time.Since(start)
		xs[i] = ms(ds[i])
	}
	m.set("graphio.hash_ms", median(xs), "ms")
	return ds
}

// replayOracle times oracle.Decide on every graph and checks each
// verdict against the graph's known planarity. It returns the time per
// graph.
func replayOracle(gs []*graph.Graph, planar []bool) ([]time.Duration, error) {
	ds := make([]time.Duration, len(gs))
	for i, g := range gs {
		start := time.Now()
		res := oracle.Decide(g)
		ds[i] = time.Since(start)
		if res.Planar != planar[i] {
			return nil, fmt.Errorf("%w: oracle.Decide says planar=%v on an instance labelled planar=%v", errWrong, res.Planar, planar[i])
		}
	}
	return ds, nil
}
