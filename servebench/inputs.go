package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	rfidclean "repro"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// deployment is one building the benchmark registers with the daemon: the
// SYN1 or SYN2 dataset's plan and readers, encoded exactly as POST
// /v1/deployments receives it, plus the System the daemon derives from it
// (Deployment.System), which the checker uses to clean offline.
type deployment struct {
	name   string
	data   *dataset.Dataset
	body   []byte
	sys    *rfidclean.System
	ic     *rfidclean.ConstraintSet
	params rfidclean.ConstraintParams
}

// loadDeployments builds SYN1 and SYN2 with their DU+LT+TT parameters taken
// from the dataset configs.
func loadDeployments() ([]*deployment, error) {
	var out []*deployment
	for _, name := range []string{"SYN1", "SYN2"} {
		cfg, err := dataset.ConfigByName(name)
		if err != nil {
			return nil, err
		}
		d, err := dataset.Build(name, cfg)
		if err != nil {
			return nil, err
		}
		dep := &rfidclean.Deployment{
			Name:               name,
			Plan:               d.Plan,
			Readers:            d.Readers,
			Detection:          cfg.Detection,
			CellSize:           cfg.CellSize,
			CalibrationSamples: cfg.CalibrationSamples,
			Seed:               cfg.Seed,
		}
		body, err := dep.EncodeBytes()
		if err != nil {
			return nil, err
		}
		sys, err := dep.System()
		if err != nil {
			return nil, err
		}
		params := rfidclean.ConstraintParams{MaxSpeed: cfg.MaxSpeed, MinStay: cfg.MinStay, TTCap: cfg.TTCap}
		ic, err := sys.Constraints(params)
		if err != nil {
			return nil, err
		}
		out = append(out, &deployment{name: name, data: d, body: body, sys: sys, ic: ic, params: params})
	}
	return out, nil
}

// sequence is one monitored object's readings, with the offline clean of
// those readings that the checker compares served answers against.
type sequence struct {
	dep      int
	tag      string
	readings rfidclean.ReadingSequence
	clean    *rfidclean.Cleaned // offline clean, LenientEnd; filled lazily
}

// offline returns the sequence's offline clean through the same System and
// constraints the daemon uses.
func (s *sequence) offline(deps []*deployment) (*rfidclean.Cleaned, error) {
	if s.clean == nil {
		d := deps[s.dep]
		c, err := d.sys.Clean(s.readings, d.ic, &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd})
		if err != nil {
			return nil, fmt.Errorf("offline clean of %s: %w", s.tag, err)
		}
		s.clean = c
	}
	return s.clean, nil
}

// synthSequences draws n sequences of each length for every deployment from
// the dataset generator: a workload's population of monitored objects. The
// generator stream is derived from the workload, the deployment and the
// length only, so every seed drives the same population; the seed varies
// the traffic over it (order, mix, targets, parameters). Graph size is
// heavy-tailed in the readings — across seeds, the mean graph bytes of a
// 24 to 80 sequence population spread by 18 to 33% between quartiles — so
// a population drawn per seed would swamp any change in the code with
// changes in the inputs. Sequences whose readings the constraints rule out
// are skipped: cleaning them is a 422 by design, not an operation the
// workload should count.
func synthSequences(deps []*deployment, salt string, lengths []int, n int) ([]*sequence, error) {
	var out []*sequence
	for di, d := range deps {
		for _, length := range lengths {
			stream := mix(0, salt, uint64(di), uint64(length))
			insts, err := d.data.Generate(length, 2*n, stream)
			if err != nil {
				return nil, err
			}
			kept := 0
			for _, in := range insts {
				if kept == n {
					break
				}
				s := &sequence{dep: di, readings: in.Readings}
				if _, err := s.offline(deps); errors.Is(err, rfidclean.ErrNoValidTrajectory) {
					continue
				} else if err != nil {
					return nil, err
				}
				s.tag = fmt.Sprintf("%s-%s-%d-%d", salt, d.name, length, kept)
				out = append(out, s)
				kept++
			}
			if kept < n {
				return nil, fmt.Errorf("only %d of %d %s sequences of length %d are consistent", kept, n, d.name, length)
			}
		}
	}
	return out, nil
}

// mix derives a generator stream from the seed and a few labels (FNV-1a).
func mix(seed uint64, salt string, xs ...uint64) uint64 {
	h := uint64(14695981039346656037)
	put := func(b byte) { h ^= uint64(b); h *= 1099511628211 }
	for i := 0; i < 8; i++ {
		put(byte(seed >> (8 * i)))
	}
	for i := 0; i < len(salt); i++ {
		put(salt[i])
	}
	for _, x := range xs {
		for i := 0; i < 8; i++ {
			put(byte(x >> (8 * i)))
		}
	}
	return h & 0xffffffff
}

// shuffled returns a seeded permutation of 0..n-1.
func shuffled(rng *stats.RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// zipf draws ranks in [0, n) with P(i) ∝ 1/(i+1)^s.
type zipf struct{ weights []float64 }

func newZipf(n int, s float64) zipf {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	return zipf{weights: w}
}

func (z zipf) draw(rng *stats.RNG) int { return rng.Pick(z.weights) }

// digest hashes everything a workload will send, so two runs can show they
// drove the daemon with identical inputs.
func digest(parts ...any) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			panic(err) // only plain data is hashed
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sequencesDigest is the digest of a sequence pool.
func sequencesDigest(seqs []*sequence) string {
	var buf bytes.Buffer
	for _, s := range seqs {
		fmt.Fprintf(&buf, "%d %s ", s.dep, s.tag)
		for _, r := range s.readings {
			fmt.Fprintf(&buf, "%d:%s;", r.Time, r.Readers.Key())
		}
		buf.WriteByte('\n')
	}
	return digest(buf.String())
}
