package main

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"repro/internal/server"
)

// testPool returns the deployments and a small population of short
// sequences, enough for the checker's own tests.
func testPool(t *testing.T) (*env, []*sequence) {
	t.Helper()
	deps, err := loadDeployments()
	if err != nil {
		t.Fatal(err)
	}
	seqs, err := synthSequences(deps, "test", []int{8, 12}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return &env{deps: deps, seed: 1}, seqs
}

// stayBody renders a stay answer the way the server does.
func stayBody(t *testing.T, d *deployment, dist []float64) []byte {
	t.Helper()
	var out []server.LocationProb
	for loc, p := range dist {
		if p > 0 {
			out = append(out, server.LocationProb{Location: d.data.Plan.Location(loc).Name, P: p})
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestVerifyRejectsPerturbedDistribution(t *testing.T) {
	e, seqs := testPool(t)
	s := seqs[0]
	ref, err := s.offline(e.deps)
	if err != nil {
		t.Fatal(err)
	}
	ck := checker{dep: e.deps[s.dep]}
	q := readQuery{op: "stay", t: len(s.readings) / 2}
	dist, err := ref.StayDistribution(q.t)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.verify(q, stayBody(t, ck.dep, dist), ref); err != nil {
		t.Fatalf("the exact answer was rejected: %v", err)
	}
	// Move a little mass between two locations: still a distribution, but
	// not the conditioned one.
	moved := append([]float64(nil), dist...)
	from, to := -1, -1
	for loc, p := range moved {
		if p > 1e-3 && from < 0 {
			from = loc
		} else if to < 0 {
			to = loc
		}
	}
	moved[from] -= 1e-6
	moved[to] += 1e-6
	if err := ck.verify(q, stayBody(t, ck.dep, moved), ref); err == nil {
		t.Fatal("a perturbed distribution was accepted")
	}
	// Scale it: no longer sums to 1.
	scaled := append([]float64(nil), dist...)
	for i := range scaled {
		scaled[i] *= 0.9
	}
	if err := ck.verify(q, stayBody(t, ck.dep, scaled), ref); err == nil || !strings.Contains(err.Error(), "sums to") {
		t.Fatalf("a distribution summing to 0.9 was not rejected for its sum: %v", err)
	}
}

func TestCheckSlotsRejectsSwappedSlot(t *testing.T) {
	e, seqs := testPool(t)
	// Pick two sequences whose graphs differ in size.
	a, b := -1, -1
	for i := range seqs {
		for j := range seqs {
			ri, _ := seqs[i].offline(e.deps)
			rj, _ := seqs[j].offline(e.deps)
			if a < 0 && ri.Stats() != rj.Stats() {
				a, b = i, j
			}
		}
	}
	if a < 0 {
		t.Fatal("every test sequence has the same graph size")
	}
	slot := func(id string, seq int) batchSlot {
		ref, err := seqs[seq].offline(e.deps)
		if err != nil {
			t.Fatal(err)
		}
		st := ref.Stats()
		return batchSlot{seq: seq, res: server.BatchCleanResult{ID: id, Nodes: st.Nodes, Edges: st.Edges, Bytes: st.Bytes}}
	}
	good := []batchSlot{slot("t1", a), slot("t2", b)}
	if err := checkSlots(e, seqs, good); err != nil {
		t.Fatalf("correct slots were rejected: %v", err)
	}
	swapped := []batchSlot{{seq: a, res: good[1].res}, {seq: b, res: good[0].res}}
	if err := checkSlots(e, seqs, swapped); err == nil {
		t.Fatal("swapped batch slots were accepted")
	}
	dup := []batchSlot{good[0], {seq: a, res: good[0].res}}
	if err := checkSlots(e, seqs, dup); err == nil {
		t.Fatal("one id answered for two slots was accepted")
	}
}

func TestCheckRecoveredRejectsMissingTrajectory(t *testing.T) {
	e, seqs := testPool(t)
	acked := map[string]ack{}
	var before []server.TrajectoryRow
	for i := 0; i < 3; i++ {
		ref, err := seqs[i].offline(e.deps)
		if err != nil {
			t.Fatal(err)
		}
		st := ref.Stats()
		id := "t" + strconv.Itoa(i+1)
		resp := server.CleanResponse{ID: id, Nodes: st.Nodes, Edges: st.Edges, Bytes: st.Bytes}
		acked[id] = ack{seq: i, resp: resp}
		before = append(before, server.TrajectoryRow{ID: id, Deployment: "d1", Nodes: st.Nodes, Edges: st.Edges, Bytes: st.Bytes})
	}
	// The missing row is caught before any query is sent, so no daemon is
	// needed.
	if _, err := checkRecovered(e, nil, "http://127.0.0.1:1", seqs, acked, before, before[:2]); err == nil || !strings.Contains(err.Error(), "missing after recovery") {
		t.Fatalf("a missing recovered trajectory was not reported: %v", err)
	}
	changed := append([]server.TrajectoryRow(nil), before...)
	changed[1].Nodes++
	if _, err := checkRecovered(e, nil, "http://127.0.0.1:1", seqs, acked, before, changed); err == nil || !strings.Contains(err.Error(), "changed across recovery") {
		t.Fatalf("a recovered trajectory of another size was not reported: %v", err)
	}
}

func TestTopPropsRejectsIncreasingProbabilities(t *testing.T) {
	e, seqs := testPool(t)
	s := seqs[0]
	ref, err := s.offline(e.deps)
	if err != nil {
		t.Fatal(err)
	}
	ck := checker{dep: e.deps[s.dep]}
	trajs, probs := ref.TopK(2)
	if len(trajs) < 2 {
		t.Skip("test sequence has a single valid trajectory")
	}
	top := make([]server.TopTrajectory, 2)
	for i := range top {
		var runs []string
		start := 0
		for j := 1; j <= len(trajs[i]); j++ {
			if j == len(trajs[i]) || trajs[i][j] != trajs[i][start] {
				runs = append(runs, ck.dep.data.Plan.Location(trajs[i][start]).Name+" x"+strconv.Itoa(j-start))
				start = j
			}
		}
		top[i] = server.TopTrajectory{P: probs[i], Runs: runs}
	}
	if err := ck.topProps(top, len(s.readings)); err != nil {
		t.Fatalf("the served top-2 was rejected: %v", err)
	}
	top[0].P, top[1].P = top[1].P, top[0].P+1e-3
	if err := ck.topProps(top, len(s.readings)); err == nil {
		t.Fatal("increasing top-k probabilities were accepted")
	}
}
