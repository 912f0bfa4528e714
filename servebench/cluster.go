package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
)

// setupRounds is how many times a run sets the system up; setup_s is the
// median, and the last set-up system takes the load. recoveryReboots is how
// many recoveries an in-memory workload times for recovery_s.
const (
	setupRounds     = 5
	recoveryReboots = 5
)

func mb(b int64) float64 { return float64(b) / (1 << 20) }

// quiesce collects the generator's own garbage before a set-up or recovery
// is timed, so that the generator's collector does not compete with the
// daemon for the cores during the measurement.
func quiesce() { runtime.GC() }

// cluster is the system under test: one daemon, or a router over workers.
type cluster struct {
	procs   []*daemon // workers first, router last
	base    string    // where the load goes
	workers []string  // worker bases (router mode only)
	depIDs  []string  // daemon ids of e.deps, by index
	dataDir string
}

// clusterSpec says how to boot the system under test.
type clusterSpec struct {
	args    []string // rfidcleand flags of each worker (or the only daemon)
	shards  int      // > 0: that many -shard-count workers behind a router
	durable bool     // give the (single) daemon a fresh -data-dir
	// prefill runs after registration and counts as set-up.
	prefill func(c *cluster) error
}

// startProcs starts the processes of spec, the router last, and waits
// until /healthz answers.
func (e *env) startProcs(spec clusterSpec, dataDir string) (*cluster, error) {
	c := &cluster{dataDir: dataDir}
	start := func(args ...string) (*daemon, error) {
		d, err := startDaemon(e.daemonBin, args...)
		if err != nil {
			c.kill()
			return nil, err
		}
		c.procs = append(c.procs, d)
		return d, nil
	}
	if spec.shards > 0 {
		for i := 0; i < spec.shards; i++ {
			d, err := start(append([]string{"-shard-index", strconv.Itoa(i), "-shard-count", strconv.Itoa(spec.shards)}, spec.args...)...)
			if err != nil {
				return nil, err
			}
			c.workers = append(c.workers, d.base)
		}
		r, err := start("-shards", strings.Join(c.workers, ","))
		if err != nil {
			return nil, err
		}
		c.base = r.base
	} else {
		args := spec.args
		if dataDir != "" {
			args = append(append([]string(nil), args...), "-data-dir", dataDir)
		}
		d, err := start(args...)
		if err != nil {
			return nil, err
		}
		c.base = d.base
	}
	cl := newClient()
	defer cl.CloseIdleConnections()
	if _, err := getHealth(cl, c.base); err != nil {
		c.kill()
		return nil, err
	}
	return c, nil
}

// boot starts the processes on a fresh data directory (when durable),
// registers the deployments and infers each deployment's constraints, so
// the system is ready for load.
func (e *env) boot(spec clusterSpec, round int) (*cluster, error) {
	dataDir := ""
	if spec.durable {
		dataDir = filepath.Join(e.work, fmt.Sprintf("data-%d", round))
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
	}
	c, err := e.startProcs(spec, dataDir)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*cluster, error) {
		c.kill()
		return nil, err
	}
	cl := newClient()
	defer cl.CloseIdleConnections()
	if err := c.register(cl, e.deps); err != nil {
		return fail(err)
	}
	// Constraint inference: a session open resolves the deployment's
	// constraint set through the daemon's cache; closing it unsmoothed
	// leaves nothing behind. Router mode warms every worker.
	targets := []string{c.base}
	if len(c.workers) > 0 {
		targets = c.workers
	}
	for _, base := range targets {
		for i, d := range e.deps {
			if err := warmConstraints(cl, base, c.depIDs[i], d); err != nil {
				return fail(err)
			}
		}
	}
	if spec.prefill != nil {
		if err := spec.prefill(c); err != nil {
			return fail(err)
		}
	}
	return c, nil
}

func (c *cluster) register(cl *http.Client, deps []*deployment) error {
	for _, d := range deps {
		var created struct {
			ID string `json:"id"`
		}
		if _, err := expect(cl, call{method: "POST", url: c.base + "/v1/deployments", body: d.body}, http.StatusCreated, &created); err != nil {
			return err
		}
		c.depIDs = append(c.depIDs, created.ID)
	}
	return nil
}

func warmConstraints(cl *http.Client, base, depID string, d *deployment) error {
	var opened struct {
		ID string `json:"id"`
	}
	req := server.StreamOpenRequest{Deployment: depID, MaxSpeed: d.params.MaxSpeed, MinStay: d.params.MinStay, TTCap: d.params.TTCap}
	if _, err := expect(cl, call{method: "POST", url: base + "/v1/stream", body: mustJSON(req)}, http.StatusCreated, &opened); err != nil {
		return err
	}
	_, err := expect(cl, call{method: "DELETE", url: base + "/v1/stream/" + opened.ID + "?smooth=no"}, http.StatusOK, nil)
	return err
}

// setup boots the system setupRounds times, timing each boot; every system
// but the last is stopped again.
func (e *env) setup(spec clusterSpec) (*cluster, []timing, error) {
	var times []timing
	for round := 0; round < setupRounds; round++ {
		quiesce()
		w, err := startStopwatch()
		if err != nil {
			return nil, nil, err
		}
		c, err := e.boot(spec, round)
		if err != nil {
			return nil, nil, err
		}
		t, err := w.timing()
		if err != nil {
			c.kill()
			return nil, nil, err
		}
		times = append(times, t)
		if round == setupRounds-1 {
			return c, times, nil
		}
		if err := c.stop(); err != nil {
			return nil, nil, err
		}
		if c.dataDir != "" {
			if err := os.RemoveAll(c.dataDir); err != nil {
				return nil, nil, err
			}
		}
	}
	panic("unreachable")
}

// stop shuts every process down gracefully, router first.
func (c *cluster) stop() error {
	var first error
	for i := len(c.procs) - 1; i >= 0; i-- {
		if err := c.procs[i].stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// kill ends every process that is still running.
func (c *cluster) kill() {
	for _, d := range c.procs {
		select {
		case <-d.done:
		default:
			d.kill()
		}
	}
}

// cpu sums the processes' CPU time so far.
func (c *cluster) cpu() (time.Duration, error) {
	var total time.Duration
	for _, d := range c.procs {
		t, err := d.cpu()
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// peakRSS sums the processes' resident high-water marks.
func (c *cluster) peakRSS() (int64, error) {
	var total int64
	for _, d := range c.procs {
		b, err := d.peakRSS()
		if err != nil {
			return 0, err
		}
		total += b
	}
	return total, nil
}

// recoverTimes measures n recoveries of an in-memory system: nothing it
// held survives a restart, so recovering means booting it and setting it
// up again (registration, constraint inference and, for query_read, the
// pre-fill). Each recovered system is stopped again.
func (e *env) recoverTimes(spec clusterSpec, n int) ([]timing, error) {
	var out []timing
	for i := 0; i < n; i++ {
		quiesce()
		w, err := startStopwatch()
		if err != nil {
			return nil, err
		}
		c, err := e.boot(spec, i)
		if err != nil {
			return nil, err
		}
		t, err := w.timing()
		if err != nil {
			c.kill()
			return nil, err
		}
		out = append(out, t)
		if err := c.stop(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// timedWindow runs the closed loop for --seconds with the meter on, and
// returns what the window measured; the workload adds its store figure, its
// input digest and its checks.
func (e *env) timedWindow(c *cluster, led *ledger, setups []timing, client func(c int, deadline time.Time) error) (*runResult, error) {
	m, err := startMeter(led, c)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	err = closedLoop(start.Add(time.Duration(e.seconds)*time.Second), client)
	window := time.Since(start)
	m.finish()
	if err != nil {
		return nil, err
	}
	rss, err := c.peakRSS()
	if err != nil {
		return nil, err
	}
	return &runResult{ledger: led, window: window, setups: setups, samples: m.samples, rssMB: []float64{mb(rss)}}, nil
}

// finish runs the oracle check on the served system (unless a check has
// already failed), stops it, and times the in-memory recoveries.
func (e *env) finish(r *runResult, cl *http.Client, c *cluster, spec clusterSpec) error {
	if r.checkErr == nil {
		r.checkErr = r.oracle(e, cl, c)
	}
	if err := c.stop(); err != nil {
		return err
	}
	// An in-memory recovery is a set-up, so the set-ups before the window
	// count as recoveries too: the run's recoveries then span its length.
	rec, err := e.recoverTimes(spec, recoveryReboots)
	r.recovery = append(append([]timing(nil), r.setups...), rec...)
	return err
}
