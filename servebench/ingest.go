package main

import (
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/stats"
)

// ingest_durable: a durable daemon (-data-dir) under a store byte budget
// smaller than the working set; each operation is one POST /v1/clean. The
// window runs from the first request until the daemon exits after a SIGTERM
// sent at the last acknowledgement, so the write-ahead-log backlog and the
// final compaction are paid inside it. The run is sized by operation count:
// the WAL queue has no bound and keeps every queued graph alive, so a
// time-sized run would let peak memory grow with the speed of the client.

var (
	ingestLengths     = []int{10, 15, 20, 25, 30}
	ingestPerLength   = 4  // per deployment and length: 2 x 5 x 4 = 40 sequences
	ingestCycleRounds = 15 // whole passes over the population per cycle
	ingestCycleSecs   = 3  // one cycle per this many seconds of --seconds
	ingestStoreBudget = int64(16 << 20)
	ingestSampled     = 8
)

// ingestPlan orders round n's pass over the population.
func ingestPlan(seed uint64, pool, n int) []int {
	return shuffled(stats.NewRNG(mix(seed, "ingest-plan", uint64(n))), pool)
}

// runIngestDurable runs --seconds/ingestCycleSecs cycles; each boots a
// durable daemon on a fresh directory, ingests ingestCycleRounds passes over
// the population, stops it, reboots it on the same directory and checks the
// recovered store. Each cycle gives one sample of every metric but the
// latency quantiles, which pool the operations of all cycles.
func runIngestDurable(e *env) (*runResult, error) {
	seqs, err := synthSequences(e.deps, "ingest", ingestLengths, ingestPerLength)
	if err != nil {
		return nil, err
	}
	cycles := max(1, e.seconds/ingestCycleSecs)
	r := &runResult{ledger: newLedger()}
	var orders [][]int
	for cyc := 0; cyc < cycles; cyc++ {
		var order []int
		for n := 0; n < ingestCycleRounds; n++ {
			order = append(order, ingestPlan(e.seed, len(seqs), cyc*ingestCycleRounds+n)...)
		}
		orders = append(orders, order)
		if err := ingestCycle(e, seqs, order, cyc, cyc == cycles-1, r); err != nil {
			return nil, err
		}
		if r.checkErr != nil {
			break
		}
	}
	r.inputDigest = digest(sequencesDigest(seqs), orders)
	return r, nil
}

func ingestCycle(e *env, seqs []*sequence, order []int, cycle int, last bool, r *runResult) error {
	spec := clusterSpec{
		args:    []string{"-max-store-bytes", strconv.FormatInt(ingestStoreBudget, 10)},
		durable: true,
	}
	quiesce()
	w, err := startStopwatch()
	if err != nil {
		return err
	}
	c, err := e.boot(spec, cycle)
	if err != nil {
		return err
	}
	defer c.kill()
	t, err := w.timing()
	if err != nil {
		return err
	}
	r.setups = append(r.setups, t)
	bodies := make([][]byte, len(seqs))
	for i, s := range seqs {
		d := e.deps[s.dep]
		bodies[i] = mustJSON(server.CleanRequest{
			Deployment: c.depIDs[s.dep], Tag: s.tag, Readings: s.readings,
			MaxSpeed: d.params.MaxSpeed, MinStay: d.params.MinStay, TTCap: d.params.TTCap,
		})
	}

	cl := newClient()
	defer cl.CloseIdleConnections()
	led := r.ledger
	var (
		next  atomic.Int64
		mu    sync.Mutex
		acked = map[string]ack{} // trajectory id -> what the clean answered
	)
	proc := c.procs[0]
	cpu0, err := proc.cpu()
	if err != nil {
		return err
	}
	st0, err := readCPUStat()
	if err != nil {
		return err
	}
	done0 := led.completed()
	start := time.Now()
	var wg sync.WaitGroup
	for cli := 0; cli < clients; cli++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				var resp server.CleanResponse
				err := led.timed("clean", func() error {
					_, err := expect(cl, call{method: "POST", url: c.base + "/v1/clean", body: bodies[order[i]]}, http.StatusCreated, &resp)
					return err
				})
				if err == nil {
					mu.Lock()
					acked[resp.ID] = ack{seq: order[i], resp: resp}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	var before []server.TrajectoryRow
	if _, err := expect(cl, call{method: "GET", url: c.base + "/v1/trajectories"}, http.StatusOK, &before); err != nil {
		return err
	}
	if err := proc.stop(); err != nil {
		return err
	}
	window := time.Since(start)
	st1, err := readCPUStat()
	if err != nil {
		return err
	}
	cpu, rss := proc.exitUsage()
	done1 := led.completed()
	n := float64(done1 - done0)
	r.window += window
	r.samples = append(r.samples, sample{
		rate: n / window.Seconds(), cpuPerOp: ms(cpu-cpu0) / n,
		steal: stealShare(st0, st1), lo: done0, hi: done1,
	})
	r.rssMB = append(r.rssMB, mb(rss))
	dirBytes, err := treeBytes(c.dataDir)
	if err != nil {
		return err
	}
	if len(before) == 0 {
		return fmt.Errorf("no trajectories listed before the stop")
	}
	r.storeKB = append(r.storeKB, float64(dirBytes)/float64(len(before))/1024)

	// Reboot on the same directory: recovery_s is from exec until /healthz
	// reports every trajectory listed before the stop.
	quiesce()
	if w, err = startStopwatch(); err != nil {
		return err
	}
	rec, err := e.startProcs(spec, c.dataDir)
	if err != nil {
		return err
	}
	defer rec.kill()
	for {
		h, err := getHealth(cl, rec.base)
		if err != nil {
			return err
		}
		if h.Trajectories >= len(before) || time.Since(w.t0) > time.Minute {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if t, err = w.timing(); err != nil {
		return err
	}
	r.recovery = append(r.recovery, t)
	rec.depIDs = c.depIDs
	var after []server.TrajectoryRow
	if _, err := expect(cl, call{method: "GET", url: rec.base + "/v1/trajectories"}, http.StatusOK, &after); err != nil {
		return err
	}
	checked, err := checkRecovered(e, cl, rec.base, seqs, acked, before, after)
	r.checked += checked
	r.checkErr = err
	if r.checkErr == nil && last {
		r.checkErr = r.oracle(e, cl, rec)
	}
	if err := rec.stop(); err != nil {
		return err
	}
	return os.RemoveAll(c.dataDir)
}

// ack is what a clean answered: the trajectory's id and graph size.
type ack struct {
	seq  int
	resp server.CleanResponse
}

// checkRecovered checks the durable store across the restart: every
// trajectory listed before the stop is listed after it with the same
// deployment and graph size, that size is what its clean answered and what
// an offline clean of its readings gives, and a seeded sample answers stay
// and top-k queries exactly as the offline clean does.
func checkRecovered(e *env, cl *http.Client, base string, seqs []*sequence, acked map[string]ack, before, after []server.TrajectoryRow) (int, error) {
	got := make(map[string]server.TrajectoryRow, len(after))
	for _, row := range after {
		got[row.ID] = row
	}
	checked := 0
	for _, row := range before {
		a, ok := acked[row.ID]
		if !ok {
			return checked, fmt.Errorf("trajectory %s listed before the stop was never acknowledged", row.ID)
		}
		rec, ok := got[row.ID]
		if !ok {
			return checked, fmt.Errorf("trajectory %s listed before the stop is missing after recovery", row.ID)
		}
		if rec != row {
			return checked, fmt.Errorf("trajectory %s changed across recovery: %+v, before %+v", row.ID, rec, row)
		}
		ref, err := seqs[a.seq].offline(e.deps)
		if err != nil {
			return checked, err
		}
		st := ref.Stats()
		if a.resp.Nodes != row.Nodes || a.resp.Edges != row.Edges || st.Nodes != row.Nodes || st.Edges != row.Edges || st.Bytes != row.Bytes {
			return checked, fmt.Errorf("trajectory %s: listed %d nodes/%d edges, clean answered %d/%d, offline clean has %d/%d",
				row.ID, row.Nodes, row.Edges, a.resp.Nodes, a.resp.Edges, st.Nodes, st.Edges)
		}
		checked++
	}
	if len(after) != len(before) {
		return checked, fmt.Errorf("%d trajectories after recovery, %d before the stop", len(after), len(before))
	}
	rng := stats.NewRNG(mix(e.seed, "ingest-check"))
	for _, i := range sampleIndices(e.seed, "ingest-sample", len(before), ingestSampled) {
		row := before[i]
		s := seqs[acked[row.ID].seq]
		ref, err := s.offline(e.deps)
		if err != nil {
			return checked, err
		}
		ck := checker{dep: e.deps[s.dep]}
		for _, q := range []readQuery{{op: "stay", t: rng.Intn(len(s.readings))}, {op: "top", k: 2}} {
			a, err := expect(cl, call{method: "GET", url: base + q.path(row.ID)}, http.StatusOK, nil)
			if err != nil {
				return checked, err
			}
			if err := ck.verify(q, a.body, ref); err != nil {
				return checked, fmt.Errorf("recovered %s %s: %w", row.ID, q.op, err)
			}
			checked++
		}
	}
	return checked, nil
}

// treeBytes sums the sizes of the regular files under dir.
func treeBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
