package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	rfidclean "repro"
	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stats"
)

// sweepSeqs caps how many of a workload's sequences the layer sweep runs
// through every layer; sweepBatches is how many batches it routes.
const (
	sweepSeqs    = 12
	sweepBatches = 4
	syncEvery    = 4 // WAL appends per fsync in the sweep's own log
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cleanLayers times System.Clean on the sequence as a span under parent,
// with the l-sequence derivation and core.Build timed separately on the
// same readings as its children; the clean span's self time is the Cleaned
// wrap (and query engine set-up). It returns the graph Build produced.
func cleanLayers(t *tracer, parent *span, op int, d *deployment, readings rfidclean.ReadingSequence) (*core.Graph, error) {
	var err error
	opts := func() *rfidclean.BuildOptions {
		return &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd, Explain: &rfidclean.BuildExplain{}}
	}
	// Each call runs twice and keeps its faster run, so that the wrap —
	// the small residual of the clean over its two children — is not
	// swamped by one slow run of a child.
	twice := func(name string, parent *span, fn func()) *span {
		a := t.time(parent, op, name, fn)
		b := t.time(parent, op, name, fn)
		t.spans = t.spans[:len(t.spans)-1]
		if parent != nil {
			parent.child -= max(a.Ms, b.Ms)
		}
		a.Ms = min(a.Ms, b.Ms)
		return a
	}
	cs := twice("rfidclean.clean", parent, func() { _, err = d.sys.Clean(readings, d.ic, opts()) })
	if err != nil {
		return nil, err
	}
	var ls *core.LSequence
	lsSpan := twice("prior.lsequence", cs, func() { ls, err = d.sys.Prior.LSequence(readings) })
	if err != nil {
		return nil, err
	}
	var g *core.Graph
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g, err = core.Build(ls, d.ic, opts())
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	bs := twice("core.build", cs, func() { g, err = core.Build(ls, d.ic, opts()) })
	if err != nil {
		return nil, err
	}
	t.add("prior.lsequence_ms", "ms", lsSpan.Ms)
	t.add("core.build_ms", "ms", bs.Ms)
	t.add("core.build_allocs", "count", float64(m1.Mallocs-m0.Mallocs))
	t.add("rfidclean.wrap_us", "us", (cs.Ms-cs.child)*1000)
	steps := 0
	for _, st := range ls.Steps {
		steps += len(st.Candidates)
	}
	t.add("prior.candidates_per_step", "count", float64(steps)/float64(len(ls.Steps)))
	st := g.Stats()
	t.add("core.graph_nodes", "count", float64(st.Nodes))
	t.add("core.graph_edges", "count", float64(st.Edges))
	return g, nil
}

// sweep runs the first sweepSeqs sequences of a workload's population
// through every layer's public functions, so that each traced run reports
// every per-layer metric on its own inputs.
func sweep(e *env, t *tracer, seqs []*sequence, dir string) error {
	for _, d := range e.deps {
		for i := 0; i < 3; i++ {
			var err error
			s := t.time(nil, 0, "constraints.infer", func() { _, err = d.sys.Constraints(d.params) })
			if err != nil {
				return err
			}
			t.add("constraints.infer_ms", "ms", s.Ms)
		}
	}
	logPath := filepath.Join(dir, "sweep.wal")
	wal, err := persist.OpenLog(logPath)
	if err != nil {
		return err
	}
	rng := stats.NewRNG(mix(e.seed, "sweep"))
	n := min(sweepSeqs, len(seqs))
	for i, s := range seqs[:n] {
		d := e.deps[s.dep]
		g, err := cleanLayers(t, nil, 0, d, s.readings)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		es := t.time(nil, 0, "core.encode", func() { err = g.Encode(&buf) })
		if err != nil {
			return err
		}
		t.add("core.encode_ms", "ms", es.Ms)
		t.add("core.encoded_kb", "KB", float64(buf.Len())/1024)
		ds := t.time(nil, 0, "core.decode", func() { _, err = core.Decode(bytes.NewReader(buf.Bytes())) })
		if err != nil {
			return err
		}
		t.add("core.decode_ms", "ms", ds.Ms)
		rec := persist.Record{Op: "put", ID: "t" + strconv.Itoa(i+1), Dep: d.name, Data: bytes.TrimSpace(buf.Bytes())}
		as := t.time(nil, 0, "persist.append", func() { err = wal.Append(rec) })
		if err != nil {
			return err
		}
		t.add("persist.append_us", "us", as.Ms*1000)
		if (i+1)%syncEvery == 0 {
			ss := t.time(nil, 0, "persist.sync", func() { err = wal.Sync() })
			if err != nil {
				return err
			}
			t.add("persist.sync_ms", "ms", ss.Ms)
		}

		// Queries on a fresh Cleaned: the first stay pays the forward and
		// backward passes.
		c, err := d.sys.Clean(s.readings, d.ic, &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd})
		if err != nil {
			return err
		}
		tau := rng.Intn(len(s.readings))
		cold := t.time(nil, 0, "query.cold", func() { _, err = c.StayDistribution(tau) })
		if err != nil {
			return err
		}
		t.add("query.cold_ms", "ms", cold.Ms)
		if err := warmQueries(t, nil, 0, d, c, rng); err != nil {
			return err
		}
		if err := streamLayers(t, d, s.readings); err != nil {
			return err
		}
	}
	if err := wal.Close(); err != nil {
		return err
	}
	if len(t.samples["persist.replay_ms"]) == 0 {
		for i := 0; i < 3; i++ {
			rs := t.time(nil, 0, "persist.replay", func() { _, _, err = persist.ReplayLog(logPath, func(persist.Record) error { return nil }) })
			if err != nil {
				return err
			}
			t.add("persist.replay_ms", "ms", rs.Ms)
		}
	}
	// CleanAll over batches of the population, two workers.
	for b := 0; b < sweepBatches; b++ {
		batch := batchOf(seqs, b%len(e.deps), rng)
		d := e.deps[seqs[batch[0]].dep]
		var readings []rfidclean.ReadingSequence
		for _, i := range batch {
			readings = append(readings, seqs[i].readings)
		}
		ca := t.time(nil, 0, "rfidclean.cleanall", func() {
			d.sys.CleanAll(readings, d.ic, &rfidclean.BatchOptions{Workers: 2,
				Build: &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd, Explain: &rfidclean.BuildExplain{}}})
		})
		t.add("rfidclean.cleanall_ms", "ms", ca.Ms)
	}
	if len(t.samples["shard.hop_ms"]) == 0 {
		// The router's own handler times are not this workload's
		// operations: only the hop and retry samples are kept.
		rt, err := newRouted(e)
		if err != nil {
			return err
		}
		defer rt.close()
		sub := newTracer()
		for b := 0; b < sweepBatches; b++ {
			if err := rt.batch(sub, e, seqs, batchOf(seqs, b%len(e.deps), rng)); err != nil {
				return err
			}
		}
		if err := rt.retries(sub); err != nil {
			return err
		}
		for _, name := range []string{"shard.hop_ms", "shard.retries"} {
			for _, v := range sub.samples[name] {
				t.add(name, sub.units[name], v)
			}
		}
	}
	return nil
}

// batchOf draws routedBatch distinct sequences of deployment dep (or the
// whole deployment's share of the population, if smaller).
func batchOf(seqs []*sequence, dep int, rng *stats.RNG) []int {
	var pool []int
	for i, s := range seqs {
		if s.dep == dep {
			pool = append(pool, i)
		}
	}
	perm := shuffled(rng, len(pool))
	var out []int
	for _, j := range perm[:min(routedBatch, len(pool))] {
		out = append(out, pool[j])
	}
	return out
}

// warmQueries times the four warm queries on an already-touched Cleaned.
func warmQueries(t *tracer, parent *span, op int, d *deployment, c *rfidclean.Cleaned, rng *stats.RNG) error {
	var err error
	tau := rng.Intn(c.Duration())
	s := t.time(parent, op, "query.stay", func() { _, err = c.StayDistribution(tau) })
	if err != nil {
		return err
	}
	t.add("query.stay_us", "us", s.Ms*1000)
	pat := synthPattern(rng, d)
	s = t.time(parent, op, "query.match", func() { _, err = c.Match(pat) })
	if err != nil {
		return err
	}
	t.add("query.match_us", "us", s.Ms*1000)
	s = t.time(parent, op, "query.topk", func() { c.TopK(3) })
	t.add("query.topk_us", "us", s.Ms*1000)
	s = t.time(parent, op, "query.occupancy", func() { _, err = c.ExpectedOccupancy() })
	t.add("query.occupancy_us", "us", s.Ms*1000)
	return err
}

// streamLayers feeds the readings the way a session does: candidates, the
// exact incremental state and a beam filter per reading, the binary codec
// per chunk, and a smooth every streamSmoothEvery readings and at the end.
func streamLayers(t *tracer, d *deployment, readings rfidclean.ReadingSequence) error {
	st := rfidclean.NewBuildState(d.ic)
	f := rfidclean.NewFilter(d.ic, &rfidclean.FilterOptions{Beam: streamBeam})
	for start := 0; start < len(readings); start += streamChunk {
		chunk := readings[start:min(start+streamChunk, len(readings))]
		body := server.EncodeStreamReadings(chunk)
		var err error
		cs := t.time(nil, 0, "server.codec_decode", func() { _, err = server.DecodeStreamReadings(body) })
		if err != nil {
			return err
		}
		t.add("server.codec_decode_us", "us", cs.Ms*1000)
		for i, rd := range chunk {
			if err := observeLayers(t, nil, 0, d, st, f, rd); err != nil {
				return err
			}
			if n := start + i + 1; n%streamSmoothEvery == 0 || n == len(readings) {
				if err := smoothLayer(t, nil, 0, st); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// observeLayers times one reading through the session layers: candidates,
// then the beam filter (when f is non-nil) and the exact state.
func observeLayers(t *tracer, parent *span, op int, d *deployment, st *rfidclean.BuildState, f *rfidclean.Filter, rd rfidclean.Reading) error {
	var cands []rfidclean.LCandidate
	var err error
	s := t.time(parent, op, "prior.candidates", func() { cands, err = d.sys.Candidates(rd.Readers) })
	if err != nil {
		return err
	}
	t.add("prior.candidates_us", "us", s.Ms*1000)
	if f != nil {
		s = t.time(parent, op, "core.filter_observe", func() { err = f.Observe(cands) })
		if err != nil {
			return err
		}
		t.add("core.filter_observe_us", "us", s.Ms*1000)
	}
	s = t.time(parent, op, "core.observe", func() { err = st.Observe(cands) })
	if err != nil {
		return err
	}
	t.add("core.observe_us", "us", s.Ms*1000)
	return nil
}

func smoothLayer(t *tracer, parent *span, op int, st *rfidclean.BuildState) error {
	var err error
	s := t.time(parent, op, "core.smooth", func() {
		_, err = st.Smooth(&rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd, Explain: &rfidclean.BuildExplain{}})
	})
	t.add("core.smooth_ms", "ms", s.Ms)
	return err
}

// routed is an in-process router over two in-process workers. The workers
// listen on loopback, since the router reaches its shards over HTTP; the
// router itself is called without a socket.
type routed struct {
	workers []*server.Server
	servers []*httptest.Server
	router  *shard.Router
	depIDs  []string
}

func newRouted(e *env) (*routed, error) {
	rt := &routed{}
	var bases []string
	for i := 0; i < 2; i++ {
		w, err := server.Open(server.Options{ShardCount: 2, ShardIndex: i, Workers: 2, MaxStoreBytes: routedStoreBudget})
		if err != nil {
			rt.close()
			return nil, err
		}
		rt.workers = append(rt.workers, w)
		hs := httptest.NewServer(w)
		rt.servers = append(rt.servers, hs)
		bases = append(bases, hs.URL)
	}
	var err error
	if rt.router, err = shard.NewRouter(shard.Options{Shards: bases, Retries: -1}); err != nil {
		rt.close()
		return nil, err
	}
	if rt.depIDs, err = register(rt.router, e.deps); err != nil {
		rt.close()
		return nil, err
	}
	return rt, nil
}

func (rt *routed) close() {
	for _, hs := range rt.servers {
		hs.Close()
	}
	for _, w := range rt.workers {
		w.Close()
	}
}

// batch replays one batch clean through the router as an operation, then
// serves the same batch on worker 0 directly: the difference is the hop
// (split, forward, reassemble). CleanAll on the same sequences is the
// batch's cleaning layer.
func (rt *routed) batch(t *tracer, e *env, seqs []*sequence, batch []int) error {
	dep := seqs[batch[0]].dep
	d := e.deps[dep]
	req := server.BatchCleanRequest{Deployment: rt.depIDs[dep], MaxSpeed: d.params.MaxSpeed, MinStay: d.params.MinStay, TTCap: d.params.TTCap}
	for _, i := range batch {
		req.Sequences = append(req.Sequences, seqs[i].readings)
	}
	body := mustJSON(req)
	hs, code, resp := t.handler(rt.router, http.MethodPost, "/v1/clean/batch", body, nil)
	if code != http.StatusOK {
		return fmt.Errorf("routed batch: %d %.200s", code, resp)
	}
	// The router places each sequence on the ring by its JSON bytes; serve
	// each shard's share on its worker directly. The shards run in
	// parallel behind the router, so the slowest share is the direct time.
	ring := shard.NewRing(len(rt.workers), 0)
	parts := make([]server.BatchCleanRequest, len(rt.workers))
	for sh := range parts {
		parts[sh] = req
		parts[sh].Sequences = nil
	}
	for _, seq := range req.Sequences {
		sh := ring.Lookup("seq\x00" + req.Deployment + "\x00" + string(mustJSON(seq)))
		parts[sh].Sequences = append(parts[sh].Sequences, seq)
	}
	direct := 0.0
	for sh, part := range parts {
		if len(part.Sequences) == 0 {
			continue
		}
		sub := mustJSON(part)
		start := time.Now()
		code, resp := serve(rt.workers[sh], http.MethodPost, "/v1/clean/batch", sub)
		direct = max(direct, ms(time.Since(start)))
		if code != http.StatusOK {
			return fmt.Errorf("direct batch on shard %d: %d %.200s", sh, code, resp)
		}
	}
	hop := &span{ID: len(t.spans) + 1, Parent: hs.ID, Op: hs.Op, Name: "shard.hop", Ms: hs.Ms - direct}
	hs.child += hop.Ms
	t.spans = append(t.spans, hop)
	t.add("shard.hop_ms", "ms", hop.Ms)
	var readings []rfidclean.ReadingSequence
	for _, i := range batch {
		readings = append(readings, seqs[i].readings)
	}
	ca := t.time(hs, hs.Op, "rfidclean.cleanall", func() {
		d.sys.CleanAll(readings, d.ic, &rfidclean.BatchOptions{Workers: 2,
			Build: &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd, Explain: &rfidclean.BuildExplain{}}})
	})
	t.add("rfidclean.cleanall_ms", "ms", ca.Ms)
	t.finishOp(hs)
	return nil
}

func (rt *routed) retries(t *tracer) error {
	n, err := routerRetries(rt.router)
	if err != nil {
		return err
	}
	t.add("shard.retries", "count", n)
	return nil
}
