package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"

	rfidclean "repro"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/stats"
)

// The output checker. Every check compares a served answer with something
// computed independently of the daemon: an offline clean of the same
// readings through the same System (Deployment.System), or the brute-force
// enumeration oracle, plus the invariants any answer must satisfy. Checks
// run after the timed window, on a seeded sample.

// tol is the agreement required between a served probability and its
// reference.
const tol = 1e-9

// checker resolves served location names against one deployment.
type checker struct {
	dep *deployment
}

func (ck checker) locID(name string) (int, error) {
	l, ok := ck.dep.data.Plan.LocationByName(name)
	if !ok {
		return 0, fmt.Errorf("unknown location %q in answer", name)
	}
	return l.ID, nil
}

// dist turns a served location distribution into a dense vector.
func (ck checker) dist(served []server.LocationProb) ([]float64, error) {
	out := make([]float64, ck.dep.data.Plan.NumLocations())
	for _, lp := range served {
		id, err := ck.locID(lp.Location)
		if err != nil {
			return nil, err
		}
		out[id] += lp.P
	}
	return out, nil
}

// stayProps checks that a stay distribution sums to 1 with every entry in
// [0, 1].
func stayProps(d []float64) error {
	sum := 0.0
	for loc, p := range d {
		if p < 0 || p > 1+tol || math.IsNaN(p) {
			return fmt.Errorf("stay entry %d = %g outside [0,1]", loc, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("stay distribution sums to %.12g, not 1", sum)
	}
	return nil
}

// occupancyProps checks that expected occupancy sums to the window length.
func occupancyProps(d []float64, window int) error {
	sum := 0.0
	for loc, s := range d {
		if s < 0 || s > float64(window)+tol {
			return fmt.Errorf("occupancy of location %d = %g outside [0,%d]", loc, s, window)
		}
		sum += s
	}
	if math.Abs(sum-float64(window)) > 1e-6 {
		return fmt.Errorf("occupancy sums to %.12g, not the window length %d", sum, window)
	}
	return nil
}

// expandRuns turns "location xN" runs back into one location per timestamp.
func (ck checker) expandRuns(runs []string) ([]int, error) {
	var locs []int
	for _, r := range runs {
		i := strings.LastIndex(r, " x")
		if i < 0 {
			return nil, fmt.Errorf("malformed run %q", r)
		}
		n, err := strconv.Atoi(r[i+2:])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("malformed run %q", r)
		}
		id, err := ck.locID(r[:i])
		if err != nil {
			return nil, err
		}
		for j := 0; j < n; j++ {
			locs = append(locs, id)
		}
	}
	return locs, nil
}

// topProps checks that top-k probabilities are non-increasing and sum to at
// most 1, and that the top-1 trajectory satisfies the constraints.
func (ck checker) topProps(top []server.TopTrajectory, window int) error {
	if len(top) == 0 {
		return errors.New("empty top-k answer")
	}
	sum := 0.0
	for i, t := range top {
		if t.P < 0 || t.P > 1+tol {
			return fmt.Errorf("top-%d probability %g outside [0,1]", i+1, t.P)
		}
		if i > 0 && t.P > top[i-1].P+tol {
			return fmt.Errorf("top-k probabilities increase at rank %d: %g > %g", i+1, t.P, top[i-1].P)
		}
		sum += t.P
	}
	if sum > 1+tol {
		return fmt.Errorf("top-k probabilities sum to %g > 1", sum)
	}
	locs, err := ck.expandRuns(top[0].Runs)
	if err != nil {
		return err
	}
	if len(locs) != window {
		return fmt.Errorf("top-1 trajectory has %d timestamps, want %d", len(locs), window)
	}
	if !ck.dep.ic.ValidTrajectory(locs, rfidclean.LenientEnd) {
		return fmt.Errorf("top-1 trajectory %v violates the constraints", top[0].Runs)
	}
	return nil
}

func closeVec(got, want []float64, what string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			return fmt.Errorf("%s: entry %d is %.15g, reference %.15g", what, i, got[i], want[i])
		}
	}
	return nil
}

// readQuery is one read the workloads issue against a stored trajectory.
type readQuery struct {
	op      string // stay | match | top | occupancy
	t       int    // stay timestamp
	k       int    // top k
	pattern string // match pattern
}

func (q readQuery) path(id string) string {
	switch q.op {
	case "stay":
		return fmt.Sprintf("/v1/trajectories/%s/stay?t=%d", id, q.t)
	case "match":
		return fmt.Sprintf("/v1/trajectories/%s/match?pattern=%s", id, url.QueryEscape(q.pattern))
	case "top":
		return fmt.Sprintf("/v1/trajectories/%s/top?k=%d", id, q.k)
	default:
		return fmt.Sprintf("/v1/trajectories/%s/occupancy", id)
	}
}

// verify checks one served answer against the offline clean ref of the same
// readings: the answer's invariants first, then agreement within tol.
func (ck checker) verify(q readQuery, body []byte, ref *rfidclean.Cleaned) error {
	window := ref.Duration()
	switch q.op {
	case "stay", "occupancy":
		var served []server.LocationProb
		if err := json.Unmarshal(body, &served); err != nil {
			return fmt.Errorf("%s answer: %w", q.op, err)
		}
		got, err := ck.dist(served)
		if err != nil {
			return err
		}
		if q.op == "stay" {
			if err := stayProps(got); err != nil {
				return err
			}
			want, err := ref.StayDistribution(q.t)
			if err != nil {
				return err
			}
			return closeVec(got, want, fmt.Sprintf("stay t=%d", q.t))
		}
		if err := occupancyProps(got, window); err != nil {
			return err
		}
		want, err := ref.ExpectedOccupancy()
		if err != nil {
			return err
		}
		for i := range want {
			if want[i] <= 1e-9 {
				want[i] = 0 // the server leaves out negligible entries
			}
		}
		return closeVec(got, want, "occupancy")
	case "match":
		var served struct {
			P float64 `json:"p"`
		}
		if err := json.Unmarshal(body, &served); err != nil {
			return fmt.Errorf("match answer: %w", err)
		}
		if served.P < -tol || served.P > 1+tol {
			return fmt.Errorf("match probability %g outside [0,1]", served.P)
		}
		want, err := ref.Match(q.pattern)
		if err != nil {
			return err
		}
		return closeVec([]float64{served.P}, []float64{want}, "match "+q.pattern)
	case "top":
		var served []server.TopTrajectory
		if err := json.Unmarshal(body, &served); err != nil {
			return fmt.Errorf("top answer: %w", err)
		}
		if err := ck.topProps(served, window); err != nil {
			return err
		}
		trajs, probs := ref.TopK(q.k)
		if len(trajs) != len(served) {
			return fmt.Errorf("top-%d: %d trajectories, reference %d", q.k, len(served), len(trajs))
		}
		for i := range served {
			locs, err := ck.expandRuns(served[i].Runs)
			if err != nil {
				return err
			}
			if core.TrajectoryKey(locs) != core.TrajectoryKey(trajs[i]) {
				return fmt.Errorf("top-%d rank %d: trajectory differs from the reference", q.k, i+1)
			}
			if math.Abs(served[i].P-probs[i]) > tol {
				return fmt.Errorf("top-%d rank %d: p %.15g, reference %.15g", q.k, i+1, served[i].P, probs[i])
			}
		}
		return nil
	}
	return fmt.Errorf("unknown query %q", q.op)
}

// oracleLen is the length of the sequences checked against the enumeration
// oracle; oracleLimit caps the trajectories it may enumerate.
const (
	oracleLen     = 8
	oracleLimit   = 1 << 19
	oraclePerDep  = 2
	oracleTopK    = 3
	oracleDrawMax = 64
)

// oracleCase is a short sequence with its exact conditioned distribution.
type oracleCase struct {
	dep      int
	readings rfidclean.ReadingSequence
	res      *core.OracleResult
}

// oracleCases draws, per deployment, the first oraclePerDep short sequences
// of a seeded stream whose enumeration fits under oracleLimit.
func oracleCases(deps []*deployment, seed uint64) ([]oracleCase, error) {
	var out []oracleCase
	for di, d := range deps {
		insts, err := d.data.Generate(oracleLen, oracleDrawMax, mix(seed, "oracle", uint64(di)))
		if err != nil {
			return nil, err
		}
		n := 0
		for _, in := range insts {
			if n == oraclePerDep {
				break
			}
			ls, err := d.sys.Prior.LSequence(in.Readings)
			if err != nil {
				return nil, err
			}
			if ls.NumTrajectories() > oracleLimit {
				continue
			}
			res, err := core.EnumerateConditioned(ls, d.ic, rfidclean.LenientEnd, oracleLimit)
			if errors.Is(err, core.ErrNoValidTrajectory) {
				continue
			}
			if err != nil {
				return nil, err
			}
			out = append(out, oracleCase{dep: di, readings: in.Readings, res: res})
			n++
		}
		if n < oraclePerDep {
			return nil, fmt.Errorf("%s: only %d oracle cases in %d draws", d.name, n, oracleDrawMax)
		}
	}
	return out, nil
}

// oracleStay is the exact stay distribution at t.
func (oc oracleCase) stay(t, numLoc int) []float64 {
	out := make([]float64, numLoc)
	for i, tr := range oc.res.Trajectories {
		out[tr[t]] += oc.res.Probs[i]
	}
	return out
}

// oracleMatch is the exact mass of the trajectories the pattern accepts.
func (oc oracleCase) match(p query.Pattern) (float64, error) {
	sum := 0.0
	for i, tr := range oc.res.Trajectories {
		ok, err := query.Matches(p, tr)
		if err != nil {
			return 0, err
		}
		if ok {
			sum += oc.res.Probs[i]
		}
	}
	return sum, nil
}

// patterns derives match patterns from the most probable oracle trajectory.
func (oc oracleCase) patterns(d *deployment) []string {
	best := 0
	for i, p := range oc.res.Probs {
		if p > oc.res.Probs[best] {
			best = i
		}
	}
	tr := oc.res.Trajectories[best]
	first := d.data.Plan.Location(tr[0]).Name
	last := d.data.Plan.Location(tr[len(tr)-1]).Name
	return []string{"? " + first + " ?", "? " + last + "[3] ?", first + " ? " + last}
}

// checkOracle cleans every oracle case on the served system (through POST
// /v1/clean, tagged so a router places it) and compares the served stay,
// match, top-k and occupancy answers with the enumeration, within tol. It
// returns how many answers it checked.
func checkOracle(cl *http.Client, base string, depIDs []string, deps []*deployment, cases []oracleCase) (int, error) {
	checked := 0
	for ci, oc := range cases {
		d := deps[oc.dep]
		ck := checker{dep: d}
		req := server.CleanRequest{
			Deployment: depIDs[oc.dep], Tag: fmt.Sprintf("oracle-%d", ci), Readings: oc.readings,
			MaxSpeed: d.params.MaxSpeed, MinStay: d.params.MinStay, TTCap: d.params.TTCap,
		}
		var resp server.CleanResponse
		if _, err := expect(cl, call{method: "POST", url: base + "/v1/clean", body: mustJSON(req)}, http.StatusCreated, &resp); err != nil {
			return checked, err
		}
		numLoc := d.data.Plan.NumLocations()
		occ := make([]float64, numLoc)
		for t := 0; t < len(oc.readings); t++ {
			var served []server.LocationProb
			if _, err := expect(cl, call{method: "GET", url: base + readQuery{op: "stay", t: t}.path(resp.ID)}, http.StatusOK, &served); err != nil {
				return checked, err
			}
			got, err := ck.dist(served)
			if err != nil {
				return checked, err
			}
			if err := stayProps(got); err != nil {
				return checked, fmt.Errorf("oracle case %d: %w", ci, err)
			}
			want := oc.stay(t, numLoc)
			if err := closeVec(got, want, fmt.Sprintf("oracle case %d stay t=%d", ci, t)); err != nil {
				return checked, err
			}
			for i, p := range want {
				occ[i] += p
			}
			checked++
		}
		for _, pat := range oc.patterns(d) {
			var served struct {
				P float64 `json:"p"`
			}
			if _, err := expect(cl, call{method: "GET", url: base + readQuery{op: "match", pattern: pat}.path(resp.ID)}, http.StatusOK, &served); err != nil {
				return checked, err
			}
			p, err := d.sys.ParsePattern(pat)
			if err != nil {
				return checked, err
			}
			want, err := oc.match(p)
			if err != nil {
				return checked, err
			}
			if err := closeVec([]float64{served.P}, []float64{want}, fmt.Sprintf("oracle case %d match %q", ci, pat)); err != nil {
				return checked, err
			}
			checked++
		}
		var top []server.TopTrajectory
		if _, err := expect(cl, call{method: "GET", url: base + readQuery{op: "top", k: oracleTopK}.path(resp.ID)}, http.StatusOK, &top); err != nil {
			return checked, err
		}
		if err := ck.topProps(top, len(oc.readings)); err != nil {
			return checked, fmt.Errorf("oracle case %d: %w", ci, err)
		}
		probs := append([]float64(nil), oc.res.Probs...)
		sort.Sort(sort.Reverse(sort.Float64Slice(probs)))
		for i, t := range top {
			if i < len(probs) && math.Abs(t.P-probs[i]) > tol {
				return checked, fmt.Errorf("oracle case %d top-%d rank %d: p %.15g, oracle %.15g", ci, oracleTopK, i+1, t.P, probs[i])
			}
		}
		checked++
		var occServed []server.LocationProb
		if _, err := expect(cl, call{method: "GET", url: base + readQuery{op: "occupancy"}.path(resp.ID)}, http.StatusOK, &occServed); err != nil {
			return checked, err
		}
		got, err := ck.dist(occServed)
		if err != nil {
			return checked, err
		}
		if err := occupancyProps(got, len(oc.readings)); err != nil {
			return checked, fmt.Errorf("oracle case %d: %w", ci, err)
		}
		for i := range occ {
			if occ[i] <= 1e-9 {
				occ[i] = 0
			}
		}
		if err := closeVec(got, occ, fmt.Sprintf("oracle case %d occupancy", ci)); err != nil {
			return checked, err
		}
		checked++
	}
	return checked, nil
}

// sampleIndices draws n distinct indices in [0, total) from a seeded stream.
func sampleIndices(seed uint64, salt string, total, n int) []int {
	if total <= 0 {
		return nil
	}
	rng := stats.NewRNG(mix(seed, salt))
	p := shuffled(rng, total)
	if n > total {
		n = total
	}
	out := append([]int(nil), p[:n]...)
	sort.Ints(out)
	return out
}
