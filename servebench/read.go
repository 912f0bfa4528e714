package main

import (
	"fmt"
	"net/http"
	"sync"

	"repro/internal/server"
	"repro/internal/stats"
)

// query_read: an in-memory daemon whose set-up fills the store with long
// trajectories through batch cleans; each operation is one GET of stay,
// match, top or occupancy on a Zipf-drawn target. Query caches are not
// warmed: first touches are part of the window.

var (
	readLengths    = []int{60, 90, 120}
	readPerLength  = 5 // per deployment and length: 2 x 3 x 5 = 30 trajectories
	readBatch      = 5
	readZipfS      = 1.1
	readRound      = 16 // operations per client round
	readSampleEach = 32 // one answer in this many is kept for checking
	readMix        = []float64{40, 20, 20, 20}
	readOps        = []string{"stay", "match", "top", "occupancy"}
)

// readOp is one planned query.
type readOp struct {
	target int // index into the trajectory pool
	q      readQuery
}

// readPlan draws client c's n-th round of queries. Client c only targets
// trajectories whose pool index is congruent to c modulo the client count,
// so two clients never read the same trajectory at once (see README: the
// cold-cache race in query.Engine).
func readPlan(seqs []*sequence, deps []*deployment, seed uint64, c, n int) []readOp {
	rng := stats.NewRNG(mix(seed, "read-plan", uint64(c), uint64(n)))
	var mine []int
	for i := c; i < len(seqs); i += clients {
		mine = append(mine, i)
	}
	// Zipf ranks map to targets through a permutation fixed per client; the
	// hot set is part of the population, not of the seed.
	perm := shuffled(stats.NewRNG(mix(0, "read-rank", uint64(c))), len(mine))
	z := newZipf(len(mine), readZipfS)
	ops := make([]readOp, readRound)
	for i := range ops {
		target := mine[perm[z.draw(rng)]]
		s := seqs[target]
		q := readQuery{op: readOps[rng.Pick(readMix)]}
		switch q.op {
		case "stay":
			q.t = rng.Intn(len(s.readings))
		case "match":
			q.pattern = synthPattern(rng, deps[s.dep])
		case "top":
			q.k = 1 + rng.Intn(3)
		}
		ops[i] = readOp{target: target, q: q}
	}
	return ops
}

// synthPattern draws a trajectory pattern over the deployment's location
// names ("? F2.L3 ?" or "? F0.corridor[3] ?").
func synthPattern(rng *stats.RNG, d *deployment) string {
	plan := d.data.Plan
	name := plan.Location(rng.Intn(plan.NumLocations())).Name
	if rng.Bernoulli(0.5) {
		return "? " + name + " ?"
	}
	return fmt.Sprintf("? %s[%d] ?", name, 2+rng.Intn(3))
}

// prefillBatches stores the pool through POST /v1/clean/batch and returns
// the trajectory ids by pool index.
func prefillBatches(cl *http.Client, c *cluster, deps []*deployment, seqs []*sequence, batch int) ([]string, error) {
	ids := make([]string, len(seqs))
	for start := 0; start < len(seqs); {
		dep := seqs[start].dep
		end := start
		var group []int
		for end < len(seqs) && seqs[end].dep == dep && len(group) < batch {
			group = append(group, end)
			end++
		}
		d := deps[dep]
		req := server.BatchCleanRequest{Deployment: c.depIDs[dep], MaxSpeed: d.params.MaxSpeed, MinStay: d.params.MinStay, TTCap: d.params.TTCap}
		for _, i := range group {
			req.Sequences = append(req.Sequences, seqs[i].readings)
		}
		var out []server.BatchCleanResult
		if _, err := expect(cl, call{method: "POST", url: c.base + "/v1/clean/batch", body: mustJSON(req)}, http.StatusOK, &out); err != nil {
			return nil, err
		}
		for j, i := range group {
			if out[j].Error != "" || out[j].ID == "" {
				return nil, fmt.Errorf("prefill slot %d: %s", i, out[j].Error)
			}
			ids[i] = out[j].ID
		}
		start = end
	}
	return ids, nil
}

func runQueryRead(e *env) (*runResult, error) {
	seqs, err := synthSequences(e.deps, "read", readLengths, readPerLength)
	if err != nil {
		return nil, err
	}
	var ids []string
	spec := clusterSpec{
		args: []string{"-workers", "2"},
		prefill: func(c *cluster) error {
			cl := newClient()
			defer cl.CloseIdleConnections()
			var err error
			ids, err = prefillBatches(cl, c, e.deps, seqs, readBatch)
			return err
		},
	}
	c, setups, err := e.setup(spec)
	if err != nil {
		return nil, err
	}
	defer c.kill()

	cl := newClient()
	defer cl.CloseIdleConnections()
	led := newLedger()
	type kept struct {
		op   readOp
		body []byte
	}
	var mu sync.Mutex
	var samples []kept
	r, err := e.timedWindow(c, led, setups, rounds(func(client, n int) error {
		for i, op := range readPlan(seqs, e.deps, e.seed, client, n) {
			var a answer
			err := led.timed(op.q.op, func() error {
				var err error
				a, err = expect(cl, call{method: "GET", url: c.base + op.q.path(ids[op.target])}, http.StatusOK, nil)
				return err
			})
			if err == nil && (n*readRound+i)%readSampleEach == client {
				mu.Lock()
				samples = append(samples, kept{op: op, body: a.body})
				mu.Unlock()
			}
		}
		return nil
	}))
	if err != nil {
		return nil, err
	}
	h, err := getHealth(cl, c.base)
	if err != nil {
		return nil, err
	}
	r.storeKB = []float64{float64(h.StoreBytes) / float64(h.Trajectories) / 1024}
	r.inputDigest = digest(sequencesDigest(seqs), e.seed, fmt.Sprint(readPlan(seqs, e.deps, e.seed, 0, 0), readPlan(seqs, e.deps, e.seed, 1, 0)))
	// Checks: every kept answer against the offline clean of its sequence,
	// then the enumeration oracle on short sequences.
	for _, s := range samples {
		seq := seqs[s.op.target]
		ref, err := seq.offline(e.deps)
		if err != nil {
			return nil, err
		}
		if err := (checker{dep: e.deps[seq.dep]}).verify(s.op.q, s.body, ref); err != nil {
			r.checkErr = fmt.Errorf("%s on %s: %w", s.op.q.op, ids[s.op.target], err)
			break
		}
		r.checked++
	}
	if err := e.finish(r, cl, c, spec); err != nil {
		return nil, err
	}
	return r, nil
}

// oracle runs the enumeration-oracle check against the served system.
func (r *runResult) oracle(e *env, cl *http.Client, c *cluster) error {
	cases, err := oracleCases(e.deps, e.seed)
	if err != nil {
		return err
	}
	n, err := checkOracle(cl, c.base, c.depIDs, e.deps, cases)
	r.checked += n
	return err
}
