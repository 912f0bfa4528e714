package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkDef is the part of BENCHMARK.json the steadiness command reads.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs each workload n times, seeds seed..seed+n-1, each in a
// fresh process, and prints per end-to-end metric the median, the quartiles
// (Python's statistics.quantiles, exclusive method) and the spread — the
// interquartile distance over the median — next to the metric's bound. It
// also prints each workload's share of failed operations, which must be
// identical across runs. The exit status is non-zero when a run fails or
// reports a wrong answer, not when a spread exceeds its bound: the table is
// for reading.
func runSteady(n int, seed uint64, seconds int, benchPath, only, daemonBin, work string) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var def benchmarkDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range def.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		values := map[string][]float64{}
		var shares []string
		for i := 0; i < n; i++ {
			s := seed + uint64(i)
			cmd := exec.Command(self, "-daemon", daemonBin, "-work", work, "-workload", w.Name,
				"-seed", strconv.FormatUint(s, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w\n%s", w.Name, s, err, out)
			}
			var res output
			if err := json.Unmarshal(lastLine(out), &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", w.Name, s, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: wrong answer", w.Name, s)
			}
			shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
			fmt.Printf("%s seed %d: %s\n", w.Name, s, lastLine(out))
		}
		fmt.Printf("\n%s, %d runs of %ds, seeds %d..%d; failed/attempted %v\n", w.Name, n, seconds, seed, seed+uint64(n)-1, shares)
		fmt.Printf("%-18s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, m := range def.EndToEnd {
			xs := values[m.Name]
			if len(xs) < 2 {
				fmt.Printf("%-18s missing\n", m.Name)
				continue
			}
			q1, q3 := quartiles(xs)
			med := median(xs)
			spread := (q3 - q1) / med
			flag := ""
			if spread > m.Bound && m.Name != "setup_s" {
				flag = "  OVER BOUND"
			} else if spread > m.Bound/3 && m.Name != "setup_s" {
				flag = "  over a third of the bound"
			}
			fmt.Printf("%-18s %12.6g %12.6g %12.6g %8.4f %6.2f%s\n", m.Name, q1, med, q3, spread, m.Bound, flag)
		}
		fmt.Println()
	}
	return nil
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		j = max(1, min(len(s)-1, j))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
