package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
)

// The traced run. It needs no tracing inside the program: the workload's
// operations are replayed against an in-process server.Open handler with no
// sockets (routed_batch keeps its two worker hops on loopback, since the hop
// is what it measures), and each layer's public functions are called on the
// same inputs, timed here. Spans are kept in memory and written to
// .bench_build/traces/ at the end; a span's self time is its duration minus
// its children's, and the handler span's self time is what no layer
// accounts for: server.unattributed_ms.

// span is one timed call. Layer spans of an operation are children of its
// handler span; they are timed in separate calls on the same inputs, right
// after the handler returns.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0: a root
	Op     int     `json:"op"`     // operation the span belongs to; 0: the layer sweep
	Name   string  `json:"name"`
	Ms     float64 `json:"ms"`
	child  float64 // summed child durations, ms
}

// tracer records spans and per-layer samples.
type tracer struct {
	spans   []*span
	samples map[string][]float64
	units   map[string]string
	ops     int
}

func newTracer() *tracer {
	return &tracer{samples: map[string][]float64{}, units: map[string]string{}}
}

// time runs fn as a span named name under parent (nil for a root) and
// returns the span.
func (t *tracer) time(parent *span, op int, name string, fn func()) *span {
	start := time.Now()
	fn()
	s := &span{ID: len(t.spans) + 1, Op: op, Name: name, Ms: float64(time.Since(start).Nanoseconds()) / 1e6}
	if parent != nil {
		s.Parent = parent.ID
		parent.child += s.Ms
	}
	t.spans = append(t.spans, s)
	return s
}

// add records one sample of a per-layer metric.
func (t *tracer) add(name, unit string, v float64) {
	t.samples[name] = append(t.samples[name], v)
	t.units[name] = unit
}

// handler replays one operation through h as a root span and records
// server.handler_ms and server.response_kb. It returns the span (for layer
// children), the status and the body.
func (t *tracer) handler(h http.Handler, method, path string, body []byte, header http.Header) (*span, int, []byte) {
	t.ops++
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	for k, v := range header {
		req.Header[k] = v
	}
	rec := httptest.NewRecorder()
	s := t.time(nil, t.ops, "server.handler", func() { h.ServeHTTP(rec, req) })
	t.add("server.handler_ms", "ms", s.Ms)
	t.add("server.response_kb", "KB", float64(rec.Body.Len())/1024)
	return s, rec.Code, rec.Body.Bytes()
}

// finishOp records the handler's self time once its layer children are in.
func (t *tracer) finishOp(s *span) {
	t.add("server.unattributed_ms", "ms", s.Ms-s.child)
}

// traceResult is the traced run's output: every per-layer metric.
type traceResult struct {
	workload string
	t        *tracer
	overhead float64 // handler p50 with span recording minus without, ms
	dir      string  // where the spans are written
}

// perLayer lists the per-layer metrics in BENCHMARK.json order, with the
// statistic each is reported as: times and sizes are medians over their
// samples, counts are means, except shard.retries, which is a total.
var perLayer = []struct{ name, unit, stat string }{
	{"constraints.infer_ms", "ms", "median"},
	{"prior.lsequence_ms", "ms", "median"},
	{"prior.candidates_per_step", "count", "mean"},
	{"prior.candidates_us", "us", "median"},
	{"core.build_ms", "ms", "median"},
	{"core.build_allocs", "count", "mean"},
	{"core.graph_nodes", "count", "mean"},
	{"core.graph_edges", "count", "mean"},
	{"core.observe_us", "us", "median"},
	{"core.filter_observe_us", "us", "median"},
	{"core.smooth_ms", "ms", "median"},
	{"core.encode_ms", "ms", "median"},
	{"core.encoded_kb", "KB", "median"},
	{"core.decode_ms", "ms", "median"},
	{"rfidclean.wrap_us", "us", "median"},
	{"rfidclean.cleanall_ms", "ms", "median"},
	{"query.cold_ms", "ms", "median"},
	{"query.stay_us", "us", "median"},
	{"query.match_us", "us", "median"},
	{"query.topk_us", "us", "median"},
	{"query.occupancy_us", "us", "median"},
	{"persist.append_us", "us", "median"},
	{"persist.sync_ms", "ms", "median"},
	{"persist.replay_ms", "ms", "median"},
	{"persist.drain_s", "s", "median"},
	{"server.handler_ms", "ms", "median"},
	{"server.unattributed_ms", "ms", "median"},
	{"server.codec_decode_us", "us", "median"},
	{"server.response_kb", "KB", "median"},
	{"shard.hop_ms", "ms", "median"},
	{"shard.retries", "count", "total"},
}

func (r *traceResult) print(w io.Writer) error {
	metrics := map[string]metric{}
	fmt.Fprintf(w, "traced %s: %d operations replayed in process, %d spans\n", r.workload, r.t.ops, len(r.t.spans))
	fmt.Fprintf(w, "%-26s %12s %6s %8s\n", "layer", "value", "unit", "samples")
	for _, m := range perLayer {
		xs := r.t.samples[m.name]
		if len(xs) == 0 {
			return fmt.Errorf("traced %s: no samples of %s", r.workload, m.name)
		}
		var v float64
		switch m.stat {
		case "median":
			v = median(xs)
		case "mean":
			for _, x := range xs {
				v += x
			}
			v /= float64(len(xs))
		case "total":
			for _, x := range xs {
				v += x
			}
		}
		metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Fprintf(w, "%-26s %12.4f %6s %8d\n", m.name, v, m.unit, len(xs))
	}
	// Self time per span name, summed over every span: the ledger of where
	// the replayed handler time went.
	self := map[string]float64{}
	for _, s := range r.t.spans {
		self[s.Name] += s.Ms - s.child
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "self time by span, ms total:")
	for _, n := range names {
		fmt.Fprintf(w, " %s=%.1f", n, self[n])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "tracing overhead: handler p50 %.4f ms with span recording minus without\n", r.overhead)
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.dir, r.workload+".json")
	raw, err := json.Marshal(r.t.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "spans written to %s\n", path)
	b, err := json.Marshal(output{Correct: true, Attempted: r.t.ops, Failed: 0, Metrics: metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// overheadProbe measures what recording a span costs a handler call: the
// same request served alternately with and without the tracer.
func overheadProbe(h http.Handler, method, path string, body []byte) float64 {
	var with, without []float64
	t := newTracer()
	for i := 0; i < 200; i++ {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		without = append(without, float64(time.Since(start).Nanoseconds())/1e6)
		start = time.Now()
		t.handler(h, method, path, body, nil)
		with = append(with, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(with) - median(without)
}

// register posts the deployments to an in-process server and returns their
// ids.
func register(h http.Handler, deps []*deployment) ([]string, error) {
	var ids []string
	for _, d := range deps {
		code, body := serve(h, http.MethodPost, "/v1/deployments", d.body)
		if code != http.StatusCreated {
			return nil, fmt.Errorf("registering %s: %d %s", d.name, code, body)
		}
		ids = append(ids, jsonID(body))
	}
	return ids, nil
}

// routerRetries reads rfidclean_router_retries_total from a router's
// /metrics.
func routerRetries(h http.Handler) (float64, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "rfidclean_router_retries_total ") {
			return strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, "rfidclean_router_retries_total ")), 64)
		}
	}
	return 0, fmt.Errorf("router /metrics has no rfidclean_router_retries_total")
}

// serve calls h in process and returns the status and body.
func serve(h http.Handler, method, path string, body []byte) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec.Code, rec.Body.Bytes()
}

// jsonID extracts the "id" of a JSON object answer ("" when absent).
func jsonID(body []byte) string {
	var v struct {
		ID string `json:"id"`
	}
	_ = json.Unmarshal(body, &v)
	return v.ID
}

// jsonFirstID extracts the first slot's id of a batch-clean answer.
func jsonFirstID(body []byte) string {
	var v []server.BatchCleanResult
	if json.Unmarshal(body, &v) != nil || len(v) == 0 {
		return ""
	}
	return v[0].ID
}
