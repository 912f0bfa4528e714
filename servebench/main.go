// Command servebench is the end-to-end benchmark of the rfidcleand query
// head. It boots rfidcleand (built from the same tree), drives it over
// loopback HTTP from one closed-loop client, checks every answer it samples
// against offline cleans, the enumeration oracle and the answers' own
// invariants, and prints one JSON result line:
//
//	bash servebench/run.sh --workload ingest_durable --seed 1 --seconds 10 --trace 0
//
// --trace 1 prints the per-layer ledger instead: the workload's operations
// replayed against an in-process server plus each layer's public functions
// timed on the same inputs (see trace.go). `-steady N` runs every workload
// N times with distinct seeds and prints medians, quartiles and spreads
// against the bounds in BENCHMARK.json. The README lists the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// clients is the closed-loop client count. The reference machine has two
// vCPUs, and the daemon's handler, its garbage collector and the generator
// share them: with a second client the tail latency measured the
// scheduler (p99 spread 0.51 between seeds on stream_sessions).
const clients = 1

// env is what every workload gets: the daemon binary, a working directory
// inside the checkout, the seed and run length, and the deployments.
type env struct {
	daemonBin string
	work      string
	seed      uint64
	seconds   int
	deps      []*deployment
}

// workload is one traffic mix.
type workload struct {
	name  string
	run   func(e *env) (*runResult, error)
	trace func(e *env) (*traceResult, error)
}

var workloads = []workload{
	{name: "ingest_durable", run: runIngestDurable, trace: traceIngestDurable},
	{name: "stream_sessions", run: runStreamSessions, trace: traceStreamSessions},
	{name: "query_read", run: runQueryRead, trace: traceQueryRead},
	{name: "routed_batch", run: runRoutedBatch, trace: traceRoutedBatch},
}

// runResult is what an untraced run measured. Each metric is the median of
// its samples — sub-windows of a timed window or cycles of ingest_durable
// (the quieter half of them for throughput, CPU and p50: see quietHalf),
// segments of the operations for the latency quantiles, repeated set-ups
// and recoveries (the fastest recovery spread more between seeds, 0.14 to
// 0.25, than the median set-up, 0.05 to 0.15). Times and rates are in
// unstolen time (see unstolen).
type runResult struct {
	ledger      *ledger
	window      time.Duration // summed over cycles
	setups      []timing
	recovery    []timing
	samples     []sample // sub-windows, or ingest_durable cycles
	rssMB       []float64
	storeKB     []float64 // store KB per trajectory
	inputDigest string
	checkErr    error // a wrong answer; fails the run
	checked     int   // answers checked
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics computes the end-to-end metrics, in unstolen time or, with wall
// set, as the clock read them.
func (r *runResult) metrics(wall bool) map[string]metric {
	secs := func(ts []timing) []float64 {
		out := make([]float64, len(ts))
		for i, t := range ts {
			out[i] = t.unstolen.Seconds()
			if wall {
				out[i] = t.wall.Seconds()
			}
		}
		return out
	}
	setups, recov := secs(r.setups), secs(r.recovery)
	quiet := quietHalf(r.samples)
	var rates, cpu []float64
	for _, s := range quiet {
		rate := s.rate
		if !wall {
			rate /= 1 - s.steal
		}
		rates = append(rates, rate)
		cpu = append(cpu, s.cpuPerOp)
	}
	lat := r.ledger.latenciesOf(quiet, wall)
	// The 95th percentile takes every sub-window: each client walks the
	// population in whole passes, so only the full window streams, cleans
	// or queries every object about equally often, and the slowest
	// operations are those on the largest objects. It is the tail metric,
	// not the 99th, because on the reference VM the 99th percentile lands
	// on the host's scheduling stalls: within one set of five
	// ingest_durable runs it fell from 24-30 ms to 12-14 ms as the host's
	// steal time fell, while p50 moved by a tenth. At the 95th the tail is
	// still the workloads' slow operations (long cleans, smooths and
	// closes, match queries) and each segment has ten samples beyond it
	// from 200 operations on.
	all := r.ledger.latenciesOf(r.samples, wall)
	return map[string]metric{
		"setup_s":           {median(setups), "s"},
		"ops_per_s":         {median(rates), "op/s"},
		"op_p50_ms":         {segmentQuantile(lat, 0.50), "ms"},
		"op_p95_ms":         {segmentQuantile(all, 0.95), "ms"},
		"cpu_ms_per_op":     {median(cpu), "ms"},
		"peak_rss_mb":       {median(r.rssMB), "MB"},
		"store_kb_per_traj": {median(r.storeKB), "KB"},
		"recovery_s":        {median(recov), "s"},
	}
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: ingest_durable, stream_sessions, query_read or routed_batch")
		seed      = flag.Uint64("seed", 1, "input seed")
		seconds   = flag.Int("seconds", 10, "length of the timed window in seconds")
		trace     = flag.Int("trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
		daemonBin = flag.String("daemon", "", "path of the rfidcleand binary under test")
		work      = flag.String("work", ".bench_build/work", "scratch directory for data directories")
		steady    = flag.Int("steady", 0, "run every workload this many times with distinct seeds and print the spread of each end-to-end metric")
		bench     = flag.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds -steady compares against")
	)
	flag.Parse()
	if *steady > 0 {
		if err := runSteady(*steady, *seed, *seconds, *bench, *name, *daemonBin, *work); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*name, *seed, *seconds, *trace == 1, *daemonBin, *work); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, daemonBin, work string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if daemonBin == "" && !traced {
		return fmt.Errorf("-daemon is required")
	}
	dir, err := filepath.Abs(filepath.Join(work, fmt.Sprintf("%s-%d", name, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	deps, err := loadDeployments()
	if err != nil {
		return err
	}
	e := &env{daemonBin: daemonBin, work: dir, seed: seed, seconds: seconds, deps: deps}
	if traced {
		tr, err := w.trace(e)
		if err != nil {
			return err
		}
		return tr.print(os.Stdout)
	}
	r, err := w.run(e)
	if err != nil {
		return err
	}
	att, failed := r.ledger.totals()
	fmt.Printf("inputs %s seed %d digest %s\n", name, seed, r.inputDigest)
	kinds := make([]string, 0, len(r.ledger.kinds))
	for k := range r.ledger.kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		c := r.ledger.kinds[k]
		fmt.Printf("ops %-12s attempted %6d failed %d\n", k, c.Attempted, c.Failed)
	}
	if r.ledger.firstErr != nil {
		fmt.Printf("first failure: %v\n", r.ledger.firstErr)
	}
	fmt.Printf("window %.3fs, %d answers checked\n", r.window.Seconds(), r.checked)
	if r.checkErr != nil {
		fmt.Printf("WRONG ANSWER: %v\n", r.checkErr)
	}
	var stolen []float64
	for _, s := range r.samples {
		stolen = append(stolen, s.steal)
	}
	raw, err := json.Marshal(r.metrics(true))
	if err != nil {
		return err
	}
	fmt.Printf("as the clock read them, median stolen share %.3f: %s\n", median(stolen), raw)
	out := output{Correct: r.checkErr == nil, Attempted: att, Failed: failed, Metrics: r.metrics(false)}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if r.checkErr != nil {
		return fmt.Errorf("wrong answer: %w", r.checkErr)
	}
	return nil
}
