package main

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/server"
	"repro/internal/stats"
)

// routed_batch: a rfidcleand -shards router over two in-memory -shard-count
// 2 workers; each operation is one POST /v1/clean/batch of routedBatch
// distinct sequences of one deployment, which the router splits into
// per-shard sub-batches and reassembles.

var (
	routedLengths     = []int{10, 14, 18}
	routedPerLength   = 8 // per deployment and length: 2 x 3 x 8 = 48 sequences
	routedBatch       = 8
	routedRound       = 6 // batches per client round
	routedStoreBudget = int64(32 << 20)
	routedSampled     = 6
)

// routedPlan draws client c's n-th round: each batch is routedBatch distinct
// sequences of one deployment, as pool indices.
func routedPlan(seqs []*sequence, ndeps int, seed uint64, c, n int) [][]int {
	rng := stats.NewRNG(mix(seed, "routed-plan", uint64(c), uint64(n)))
	byDep := make([][]int, ndeps)
	for i, s := range seqs {
		byDep[s.dep] = append(byDep[s.dep], i)
	}
	out := make([][]int, routedRound)
	for b := range out {
		pool := byDep[(b+c)%ndeps]
		perm := shuffled(rng, len(pool))
		for _, j := range perm[:routedBatch] {
			out[b] = append(out[b], pool[j])
		}
	}
	return out
}

func runRoutedBatch(e *env) (*runResult, error) {
	seqs, err := synthSequences(e.deps, "routed", routedLengths, routedPerLength)
	if err != nil {
		return nil, err
	}
	spec := clusterSpec{
		args:   []string{"-workers", "2", "-max-store-bytes", strconv.FormatInt(routedStoreBudget, 10)},
		shards: 2,
	}
	c, setups, err := e.setup(spec)
	if err != nil {
		return nil, err
	}
	defer c.kill()
	batchBody := func(batch []int) []byte {
		d := e.deps[seqs[batch[0]].dep]
		req := server.BatchCleanRequest{Deployment: c.depIDs[seqs[batch[0]].dep], MaxSpeed: d.params.MaxSpeed, MinStay: d.params.MinStay, TTCap: d.params.TTCap}
		for _, i := range batch {
			req.Sequences = append(req.Sequences, seqs[i].readings)
		}
		return mustJSON(req)
	}

	cl := newClient()
	defer cl.CloseIdleConnections()
	led := newLedger()
	var (
		mu    sync.Mutex
		slots []batchSlot
	)
	r, err := e.timedWindow(c, led, setups, rounds(func(client, n int) error {
		for _, batch := range routedPlan(seqs, len(e.deps), e.seed, client, n) {
			var out []server.BatchCleanResult
			err := led.timed("batch", func() error {
				_, err := expect(cl, call{method: "POST", url: c.base + "/v1/clean/batch", body: batchBody(batch)}, http.StatusOK, &out)
				if err == nil && len(out) != len(batch) {
					err = fmt.Errorf("%d results for %d sequences", len(out), len(batch))
				}
				return err
			})
			if err != nil {
				continue
			}
			mu.Lock()
			for j, i := range batch {
				slots = append(slots, batchSlot{seq: i, res: out[j]})
			}
			mu.Unlock()
		}
		return nil
	}))
	if err != nil {
		return nil, err
	}
	// The store runs under a budget, so what it holds when the window
	// closes is whichever graphs came last; the footprint per trajectory is
	// taken over every graph the window stored, as the workers reported it.
	storeBytes := 0
	for _, s := range slots {
		storeBytes += s.res.Bytes
	}
	var inputs [][][]int
	for cli := 0; cli < clients; cli++ {
		inputs = append(inputs, routedPlan(seqs, len(e.deps), e.seed, cli, 0))
	}
	r.storeKB = []float64{float64(storeBytes) / float64(max(1, len(slots))) / 1024}
	r.inputDigest = digest(sequencesDigest(seqs), e.seed, inputs)
	// Every slot must be the offline clean of its own sequence: a slot
	// answered with another sequence's graph shows as a size mismatch.
	r.checkErr = checkSlots(e, seqs, slots)
	r.checked += len(slots)
	// A seeded sample of the most recent slots is read back through the
	// router; older graphs may have been evicted by the store budget.
	if r.checkErr == nil {
		recent := slots[max(0, len(slots)-4*routedBatch):]
		rng := stats.NewRNG(mix(e.seed, "routed-check"))
		for _, i := range sampleIndices(e.seed, "routed-sample", len(recent), routedSampled) {
			s := seqs[recent[i].seq]
			ref, err := s.offline(e.deps)
			if err != nil {
				return nil, err
			}
			q := readQuery{op: "stay", t: rng.Intn(len(s.readings))}
			a, err := expect(cl, call{method: "GET", url: c.base + q.path(recent[i].res.ID)}, http.StatusOK, nil)
			if err != nil {
				return nil, err
			}
			if err := (checker{dep: e.deps[s.dep]}).verify(q, a.body, ref); err != nil {
				r.checkErr = fmt.Errorf("routed slot %s: %w", recent[i].res.ID, err)
				break
			}
			r.checked++
		}
	}
	if err := e.finish(r, cl, c, spec); err != nil {
		return nil, err
	}
	return r, nil
}

// batchSlot pairs a batch slot's answer with the pool index of the sequence
// sent in it.
type batchSlot struct {
	seq int
	res server.BatchCleanResult
}

// checkSlots checks that each slot succeeded with a fresh id and the graph
// size of the offline clean of its own sequence.
func checkSlots(e *env, seqs []*sequence, slots []batchSlot) error {
	seen := make(map[string]bool, len(slots))
	for _, s := range slots {
		if s.res.Error != "" || s.res.ID == "" {
			return fmt.Errorf("batch slot of %s failed: %q", seqs[s.seq].tag, s.res.Error)
		}
		if seen[s.res.ID] {
			return fmt.Errorf("trajectory id %s answered for two slots", s.res.ID)
		}
		seen[s.res.ID] = true
		ref, err := seqs[s.seq].offline(e.deps)
		if err != nil {
			return err
		}
		st := ref.Stats()
		if st.Nodes != s.res.Nodes || st.Edges != s.res.Edges || st.Bytes != s.res.Bytes {
			return fmt.Errorf("batch slot of %s answered %d nodes/%d edges/%d bytes; its offline clean has %d/%d/%d",
				seqs[s.seq].tag, s.res.Nodes, s.res.Edges, s.res.Bytes, st.Nodes, st.Edges, st.Bytes)
		}
	}
	return nil
}
