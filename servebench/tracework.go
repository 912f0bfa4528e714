package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	rfidclean "repro"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/stats"
)

// The four workloads' traced replays. Each replays the workload's own
// operations in process, hangs the layer spans of each operation under its
// handler span, then runs the layer sweep on the workload's population.

func traceDir(e *env) string { return filepath.Join(filepath.Dir(filepath.Dir(e.work)), "traces") }

func traceIngestDurable(e *env) (*traceResult, error) {
	seqs, err := synthSequences(e.deps, "ingest", ingestLengths, ingestPerLength)
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(e.work, "trace-data")
	srv, err := server.Open(server.Options{DataDir: dataDir, MaxStoreBytes: ingestStoreBudget})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ids, err := register(srv, e.deps)
	if err != nil {
		return nil, err
	}
	t := newTracer()
	for n := 0; n < ingestCycleRounds; n++ {
		for i, si := range ingestPlan(e.seed, len(seqs), n) {
			s := seqs[si]
			d := e.deps[s.dep]
			body := mustJSON(server.CleanRequest{Deployment: ids[s.dep], Tag: s.tag, Readings: s.readings,
				MaxSpeed: d.params.MaxSpeed, MinStay: d.params.MinStay, TTCap: d.params.TTCap})
			hs, code, resp := t.handler(srv, http.MethodPost, "/v1/clean", body, nil)
			if code != http.StatusCreated {
				return nil, fmt.Errorf("clean: %d %.200s", code, resp)
			}
			// Layer spans on every fourth operation keep the replay near
			// the workload's own pace.
			if i%4 == 0 {
				if _, err := cleanLayers(t, hs, hs.Op, d, s.readings); err != nil {
					return nil, err
				}
				t.finishOp(hs)
			}
		}
	}
	drain := t.time(nil, 0, "persist.drain", func() { err = srv.Close() })
	if err != nil {
		return nil, err
	}
	t.add("persist.drain_s", "s", drain.Ms/1000)
	snap := filepath.Join(dataDir, "trajectories.snap")
	for i := 0; i < 3; i++ {
		rs := t.time(nil, 0, "persist.replay", func() { _, _, err = persist.ReplayLog(snap, func(persist.Record) error { return nil }) })
		if err != nil {
			return nil, err
		}
		t.add("persist.replay_ms", "ms", rs.Ms)
	}
	return finishTrace(e, t, "ingest_durable", seqs, func(h http.Handler, ids []string) (string, string, []byte) {
		s := seqs[0]
		d := e.deps[s.dep]
		return http.MethodPost, "/v1/clean", mustJSON(server.CleanRequest{Deployment: ids[s.dep], Readings: s.readings,
			MaxSpeed: d.params.MaxSpeed, MinStay: d.params.MinStay, TTCap: d.params.TTCap})
	})
}

// finishTrace runs the layer sweep and the tracing-overhead probe (on a
// fresh in-memory server, with the request probe builds) and assembles
// the result.
func finishTrace(e *env, t *tracer, name string, seqs []*sequence, probe func(h http.Handler, ids []string) (string, string, []byte)) (*traceResult, error) {
	if err := sweep(e, t, seqs, e.work); err != nil {
		return nil, err
	}
	srv, err := server.Open(server.Options{})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ids, err := register(srv, e.deps)
	if err != nil {
		return nil, err
	}
	method, path, body := probe(srv, ids)
	return &traceResult{workload: name, t: t, overhead: overheadProbe(srv, method, path, body), dir: traceDir(e)}, nil
}

func traceStreamSessions(e *env) (*traceResult, error) {
	seqs, err := synthSequences(e.deps, "stream", streamLengths, streamPerLength)
	if err != nil {
		return nil, err
	}
	srv, err := server.Open(server.Options{MaxStoreBytes: streamStoreBudget})
	if err != nil {
		return nil, err
	}
	ids, err := register(srv, e.deps)
	if err != nil {
		return nil, err
	}
	t := newTracer()
	deadline := time.Now().Add(time.Duration(e.seconds) * time.Second)
	for n := 0; time.Now().Before(deadline); n++ {
		for c := 0; c < clients; c++ {
			if err := traceStreamRound(e, t, srv, ids, seqs, streamPlan(len(seqs), e.seed, c, n)); err != nil {
				return nil, err
			}
		}
	}
	drain := t.time(nil, 0, "server.close", func() { err = srv.Close() })
	if err != nil {
		return nil, err
	}
	t.add("persist.drain_s", "s", drain.Ms/1000)
	return finishTrace(e, t, "stream_sessions", seqs, func(h http.Handler, ids []string) (string, string, []byte) {
		s := seqs[0]
		d := e.deps[s.dep]
		return http.MethodPost, "/v1/stream", mustJSON(server.StreamOpenRequest{Deployment: ids[s.dep],
			MaxSpeed: d.params.MaxSpeed, MinStay: d.params.MinStay, TTCap: d.params.TTCap})
	})
}

// traceStreamRound replays one client round of sessions in process. A
// mirror BuildState (and beam Filter) per session advances with the served
// one, giving each operation its layer spans. SSE subscribers are not
// replayed: an event stream needs a live connection.
func traceStreamRound(e *env, t *tracer, h http.Handler, ids []string, seqs []*sequence, plan []sessionPlan) error {
	type mirror struct {
		plan sessionPlan
		id   string
		st   *rfidclean.BuildState
		f    *rfidclean.Filter
		fed  int
	}
	var live []*mirror
	for _, p := range plan {
		s := seqs[p.seq]
		d := e.deps[s.dep]
		hs, code, body := t.handler(h, http.MethodPost, "/v1/stream", mustJSON(server.StreamOpenRequest{
			Deployment: ids[s.dep], Tag: s.tag, Beam: p.beam,
			MaxSpeed: d.params.MaxSpeed, MinStay: d.params.MinStay, TTCap: d.params.TTCap}), nil)
		if code != http.StatusCreated {
			return fmt.Errorf("stream open: %d %.200s", code, body)
		}
		t.finishOp(hs)
		m := &mirror{plan: p, st: rfidclean.NewBuildState(d.ic), id: jsonID(body)}
		if p.beam > 0 {
			m.f = rfidclean.NewFilter(d.ic, &rfidclean.FilterOptions{Beam: p.beam})
		}
		live = append(live, m)
	}
	for more := true; more; {
		more = false
		for _, m := range live {
			s := seqs[m.plan.seq]
			d := e.deps[s.dep]
			if m.fed == len(s.readings) {
				continue
			}
			chunk := s.readings[m.fed:min(m.fed+streamChunk, len(s.readings))]
			var body []byte
			header := http.Header{}
			if m.plan.binary {
				body = server.EncodeStreamReadings(chunk)
				header.Set("Content-Type", server.ContentTypeBinary)
				header.Set("Accept", server.ContentTypeBinary)
			} else {
				body = mustJSON(server.StreamReadingsRequest{Readings: chunk})
				header.Set("Content-Type", "application/json")
			}
			hs, code, resp := t.handler(h, http.MethodPost, "/v1/stream/"+m.id+"/readings", body, header)
			if code != http.StatusOK {
				return fmt.Errorf("stream readings: %d %.200s", code, resp)
			}
			if m.plan.binary {
				var err error
				cs := t.time(hs, hs.Op, "server.codec_decode", func() { _, err = server.DecodeStreamReadings(body) })
				if err != nil {
					return err
				}
				t.add("server.codec_decode_us", "us", cs.Ms*1000)
			}
			for _, rd := range chunk {
				if err := observeLayers(t, hs, hs.Op, d, m.st, m.f, rd); err != nil {
					return err
				}
			}
			t.finishOp(hs)
			crossed := (m.fed+len(chunk))/streamSmoothEvery > m.fed/streamSmoothEvery
			m.fed += len(chunk)
			if crossed && m.fed < len(s.readings) {
				hs, code, resp := t.handler(h, http.MethodPost, "/v1/stream/"+m.id+"/smooth", nil, nil)
				if code != http.StatusCreated {
					return fmt.Errorf("stream smooth: %d %.200s", code, resp)
				}
				if err := smoothLayer(t, hs, hs.Op, m.st); err != nil {
					return err
				}
				t.finishOp(hs)
			}
			more = more || m.fed < len(s.readings)
		}
	}
	for _, m := range live {
		hs, code, resp := t.handler(h, http.MethodGet, "/v1/stream/"+m.id, nil, nil)
		if code != http.StatusOK {
			return fmt.Errorf("stream status: %d %.200s", code, resp)
		}
		var err error
		t.time(hs, hs.Op, "core.distribution", func() {
			if m.f != nil {
				_, err = m.f.Distribution()
			} else {
				_, err = m.st.Distribution()
			}
		})
		if err != nil {
			return err
		}
		t.finishOp(hs)
		hs, code, resp = t.handler(h, http.MethodDelete, "/v1/stream/"+m.id, nil, nil)
		if code != http.StatusOK {
			return fmt.Errorf("stream close: %d %.200s", code, resp)
		}
		if err := smoothLayer(t, hs, hs.Op, m.st); err != nil {
			return err
		}
		t.finishOp(hs)
	}
	return nil
}

func traceQueryRead(e *env) (*traceResult, error) {
	seqs, err := synthSequences(e.deps, "read", readLengths, readPerLength)
	if err != nil {
		return nil, err
	}
	srv, err := server.Open(server.Options{Workers: 2})
	if err != nil {
		return nil, err
	}
	depIDs, err := register(srv, e.deps)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(seqs))
	for i, s := range seqs {
		d := e.deps[s.dep]
		req := server.BatchCleanRequest{Deployment: depIDs[s.dep], Sequences: []rfidclean.ReadingSequence{s.readings},
			MaxSpeed: d.params.MaxSpeed, MinStay: d.params.MinStay, TTCap: d.params.TTCap}
		code, body := serve(srv, http.MethodPost, "/v1/clean/batch", mustJSON(req))
		if code != http.StatusOK {
			return nil, fmt.Errorf("prefill: %d %.200s", code, body)
		}
		ids[i] = jsonFirstID(body)
	}
	// Mirror Cleaneds, one per trajectory, cold like the served ones.
	mirrors := make([]*rfidclean.Cleaned, len(seqs))
	for i, s := range seqs {
		d := e.deps[s.dep]
		if mirrors[i], err = d.sys.Clean(s.readings, d.ic, &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd}); err != nil {
			return nil, err
		}
	}
	warm := make([]bool, len(seqs))
	t := newTracer()
	deadline := time.Now().Add(time.Duration(e.seconds) * time.Second)
	for n := 0; time.Now().Before(deadline); n++ {
		for c := 0; c < clients; c++ {
			for _, op := range readPlan(seqs, e.deps, e.seed, c, n) {
				hs, code, resp := t.handler(srv, http.MethodGet, op.q.path(ids[op.target]), nil, nil)
				if code != http.StatusOK {
					return nil, fmt.Errorf("query: %d %.200s", code, resp)
				}
				m := mirrors[op.target]
				switch op.q.op {
				case "stay":
					name := "query.stay"
					if !warm[op.target] {
						name = "query.cold"
						warm[op.target] = true
					}
					s := t.time(hs, hs.Op, name, func() { _, err = m.StayDistribution(op.q.t) })
					if name == "query.cold" {
						t.add("query.cold_ms", "ms", s.Ms)
					} else {
						t.add("query.stay_us", "us", s.Ms*1000)
					}
				case "match":
					s := t.time(hs, hs.Op, "query.match", func() { _, err = m.Match(op.q.pattern) })
					t.add("query.match_us", "us", s.Ms*1000)
				case "top":
					s := t.time(hs, hs.Op, "query.topk", func() { m.TopK(op.q.k) })
					t.add("query.topk_us", "us", s.Ms*1000)
				case "occupancy":
					s := t.time(hs, hs.Op, "query.occupancy", func() { _, err = m.ExpectedOccupancy() })
					t.add("query.occupancy_us", "us", s.Ms*1000)
				}
				if err != nil {
					return nil, err
				}
				t.finishOp(hs)
			}
		}
	}
	drain := t.time(nil, 0, "server.close", func() { err = srv.Close() })
	if err != nil {
		return nil, err
	}
	t.add("persist.drain_s", "s", drain.Ms/1000)
	return finishTrace(e, t, "query_read", seqs, func(h http.Handler, depIDs []string) (string, string, []byte) {
		s := seqs[0]
		d := e.deps[s.dep]
		_, body := serve(h, http.MethodPost, "/v1/clean", mustJSON(server.CleanRequest{Deployment: depIDs[s.dep], Readings: s.readings,
			MaxSpeed: d.params.MaxSpeed, MinStay: d.params.MinStay, TTCap: d.params.TTCap}))
		return http.MethodGet, readQuery{op: "stay", t: 0}.path(jsonID(body)), nil
	})
}

func traceRoutedBatch(e *env) (*traceResult, error) {
	seqs, err := synthSequences(e.deps, "routed", routedLengths, routedPerLength)
	if err != nil {
		return nil, err
	}
	rt, err := newRouted(e)
	if err != nil {
		return nil, err
	}
	defer rt.close()
	t := newTracer()
	deadline := time.Now().Add(time.Duration(e.seconds) * time.Second)
	for n := 0; time.Now().Before(deadline); n++ {
		for c := 0; c < clients; c++ {
			for _, batch := range routedPlan(seqs, len(e.deps), e.seed, c, n) {
				if err := rt.batch(t, e, seqs, batch); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := rt.retries(t); err != nil {
		return nil, err
	}
	drain := t.time(nil, 0, "server.close", func() {
		for _, w := range rt.workers {
			w.Close()
		}
	})
	t.add("persist.drain_s", "s", drain.Ms/1000)
	return finishTrace(e, t, "routed_batch", seqs, func(h http.Handler, ids []string) (string, string, []byte) {
		rng := stats.NewRNG(mix(e.seed, "probe"))
		batch := batchOf(seqs, 0, rng)
		d := e.deps[0]
		req := server.BatchCleanRequest{Deployment: ids[0], MaxSpeed: d.params.MaxSpeed, MinStay: d.params.MinStay, TTCap: d.params.TTCap}
		for _, i := range batch {
			req.Sequences = append(req.Sequences, seqs[i].readings)
		}
		return http.MethodPost, "/v1/clean/batch", mustJSON(req)
	})
}
