package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// newClient returns the generator's HTTP client: keep-alive connections over
// loopback, enough idle slots for every client plus SSE drains.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// call is one HTTP request and its answer.
type call struct {
	method, url string
	body        []byte
	contentType string
	accept      string
}

type answer struct {
	status int
	body   []byte
}

func (c call) do(cl *http.Client) (answer, error) {
	var rd io.Reader
	if c.body != nil {
		rd = bytes.NewReader(c.body)
	}
	req, err := http.NewRequest(c.method, c.url, rd)
	if err != nil {
		return answer{}, err
	}
	if c.body != nil {
		ct := c.contentType
		if ct == "" {
			ct = "application/json"
		}
		req.Header.Set("Content-Type", ct)
	}
	if c.accept != "" {
		req.Header.Set("Accept", c.accept)
	}
	resp, err := cl.Do(req)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return answer{}, err
	}
	return answer{status: resp.StatusCode, body: b}, nil
}

// expect runs the call and fails unless the status is want, decoding a JSON
// answer into out when out is non-nil.
func expect(cl *http.Client, c call, want int, out any) (answer, error) {
	a, err := c.do(cl)
	if err != nil {
		return a, fmt.Errorf("%s %s: %w", c.method, c.url, err)
	}
	if a.status != want {
		return a, fmt.Errorf("%s %s: status %d (want %d): %.300s", c.method, c.url, a.status, want, a.body)
	}
	if out != nil {
		if err := json.Unmarshal(a.body, out); err != nil {
			return a, fmt.Errorf("%s %s: decoding answer: %w", c.method, c.url, err)
		}
	}
	return a, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain request structs are marshalled
	}
	return b
}

// ledger accounts operations by kind: attempts, failures and latencies.
type ledger struct {
	mu        sync.Mutex
	kinds     map[string]*kindCount
	latencies []float64 // ms, every completed operation
	firstErr  error
}

type kindCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

func newLedger() *ledger { return &ledger{kinds: map[string]*kindCount{}} }

// record notes one operation's outcome.
func (l *ledger) record(kind string, d time.Duration, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := l.kinds[kind]
	if k == nil {
		k = &kindCount{}
		l.kinds[kind] = k
	}
	k.Attempted++
	if err != nil {
		k.Failed++
		if l.firstErr == nil {
			l.firstErr = fmt.Errorf("%s: %w", kind, err)
		}
		return
	}
	l.latencies = append(l.latencies, float64(d.Nanoseconds())/1e6)
}

// timed runs one operation and records it.
func (l *ledger) timed(kind string, fn func() error) error {
	start := time.Now()
	err := fn()
	l.record(kind, time.Since(start), err)
	return err
}

// completed counts the operations that succeeded so far.
func (l *ledger) completed() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.latencies)
}

func (l *ledger) totals() (attempted, failed int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, k := range l.kinds {
		attempted += k.Attempted
		failed += k.Failed
	}
	return
}

// latenciesOf returns the completed latencies of the given samples, in
// completion order, in unstolen time (see unstolen) or, with wall set, as
// the clock read them.
func (l *ledger) latenciesOf(samples []sample, wall bool) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range samples {
		keep := 1 - s.steal
		if wall {
			keep = 1
		}
		for _, v := range l.latencies[s.lo:s.hi] {
			out = append(out, v*keep)
		}
	}
	return out
}

// segmentQuantile returns the q-quantile of latencies (in completion order)
// as the median over consecutive segments. A segment holds at least ten
// operations beyond the quantile and at least forty in all (200 for p95,
// 40 for p50), so each segment's quantile is a quantile in its own right;
// a stall then moves the segments it covers, not the run's figure. Fewer
// operations make one segment.
func segmentQuantile(latencies []float64, q float64) float64 {
	size := max(40, int(math.Ceil(10/(1-q))))
	n := max(1, len(latencies)/size)
	var qs []float64
	for i := 0; i < n; i++ {
		qs = append(qs, quantile(latencies[i*len(latencies)/n:(i+1)*len(latencies)/n], q))
	}
	return median(qs)
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	i = max(0, min(len(s)-1, i))
	return s[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// closedLoop runs one goroutine per client until each returns; a client
// sends its next request only when the previous one has answered, and
// stops starting work once the deadline has passed. A client returns an
// error only for a fault that should stop the run.
func closedLoop(deadline time.Time, client func(c int, deadline time.Time) error) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = client(c, deadline)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rounds makes a client that repeats whole rounds until the deadline has
// passed; a round started before the deadline is finished.
func rounds(round func(client, n int) error) func(int, time.Time) error {
	return func(c int, deadline time.Time) error {
		for n := 0; time.Now().Before(deadline); n++ {
			if err := round(c, n); err != nil {
				return err
			}
		}
		return nil
	}
}

// subWindow is the meter's sampling period.
const subWindow = time.Second

// sample is one sub-window of a timed window, or one ingest_durable cycle:
// its throughput, the daemon CPU per operation, the share of the CPU time
// the machine wanted that the host stole (see stealShare), and the range of
// the ledger's latencies completed in it.
type sample struct {
	rate, cpuPerOp, steal float64
	lo, hi                int
}

// quietHalf returns the half of the samples (rounded up) with the least
// steal time, in time order. The reference machine is a VM on a shared
// host whose steal time under load was measured at 2% to 18% of the CPU,
// and on another day at 20% to 57% of the CPU time it wanted, in episodes
// long enough to cover a whole run, and throughput follows it (a
// stream_sessions run at 30 stolen ticks made 985 op/s, at 178 ticks
// 866 op/s, same seed). Throughput, CPU per operation and the latency
// quantiles are therefore taken from the run's quieter half, so that a
// neighbour's burst does not read as a change in the program; a change in
// the program moves every sample.
func quietHalf(samples []sample) []sample {
	s := append([]sample(nil), samples...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].steal < s[j].steal })
	s = s[:(len(s)+1)/2]
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	return s
}

// cpuStat is the machine's CPU time so far, in ticks summed over CPUs: the
// time its CPUs ran work (user, nice, system, irq, softirq) and the time the
// host stole from it while it had work to run.
type cpuStat struct{ busy, steal float64 }

// readCPUStat reads the first line of /proc/stat.
func readCPUStat() (cpuStat, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var t [8]float64
	for i := range t {
		if t[i], err = strconv.ParseFloat(f[i+1], 64); err != nil {
			return cpuStat{}, err
		}
	}
	return cpuStat{busy: t[0] + t[1] + t[2] + t[5] + t[6], steal: t[7]}, nil
}

// stealShare is the share of the CPU time the machine wanted between two
// readings that the host stole. Idle CPUs are not stolen from, so this is
// the slow-down the work of the moment suffered, whatever its parallelism.
func stealShare(s0, s1 cpuStat) float64 {
	st, busy := s1.steal-s0.steal, s1.busy-s0.busy
	if st+busy <= 0 {
		return 0
	}
	return st / (st + busy)
}

// unstolen scales a wall time d, over which the host stole the share
// stolen of the CPU time the machine wanted, to the time it would have
// taken on CPUs nobody stole from. The benchmark's work is CPU-bound, so
// stolen time stretches it by 1/(1-stolen): on the reference VM, whose
// host stole from 13% to 57% of that time on one day, stream_sessions
// (seed 21) made 508 op/s at 13% to 17% stolen and 269 to 321 op/s at 50%
// to 57%, and 600 to 647 op/s in unstolen time at either. Every time and
// rate of the end-to-end metrics is in unstolen time; the run also prints
// the raw figures and the stolen share.
func unstolen(d time.Duration, stolen float64) time.Duration {
	return time.Duration(float64(d) * (1 - stolen))
}

// stopwatch times one interval, such as a set-up or a recovery, in
// unstolen time.
type stopwatch struct {
	t0 time.Time
	s0 cpuStat
}

func startStopwatch() (stopwatch, error) {
	s0, err := readCPUStat()
	return stopwatch{t0: time.Now(), s0: s0}, err
}

// timing is one timed interval, as it took and in unstolen time.
type timing struct{ wall, unstolen time.Duration }

// timing returns the interval from the start until now.
func (w stopwatch) timing() (timing, error) {
	wall := time.Since(w.t0)
	s1, err := readCPUStat()
	return timing{wall: wall, unstolen: unstolen(wall, stealShare(w.s0, s1))}, err
}

// meter samples, once per sub-window, the operations completed, the CPU the
// system under test used and the machine's steal time, so a run reports
// medians over its sub-windows.
type meter struct {
	samples []sample
	stop    chan struct{}
	done    chan struct{}
}

func startMeter(led *ledger, c *cluster) (*meter, error) {
	cpu0, err := c.cpu()
	if err != nil {
		return nil, err
	}
	st0, err := readCPUStat()
	if err != nil {
		return nil, err
	}
	m := &meter{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(subWindow)
		defer tick.Stop()
		ops0, t0 := led.completed(), time.Now()
		for {
			select {
			case <-m.stop:
				return
			case now := <-tick.C:
				cpu1, err := c.cpu()
				if err != nil {
					return
				}
				st1, err := readCPUStat()
				if err != nil {
					return
				}
				ops1 := led.completed()
				if n := ops1 - ops0; n > 0 {
					dt := now.Sub(t0)
					m.samples = append(m.samples, sample{
						rate: float64(n) / dt.Seconds(), cpuPerOp: ms(cpu1-cpu0) / float64(n),
						steal: stealShare(st0, st1), lo: ops0, hi: ops1,
					})
				}
				ops0, t0, cpu0, st0 = ops1, now, cpu1, st1
			}
		}
	}()
	return m, nil
}

// finish stops the meter and waits for its goroutine.
func (m *meter) finish() {
	close(m.stop)
	<-m.done
}
