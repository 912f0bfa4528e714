package main

import (
	"fmt"
	"testing"
)

// The same seed must give the same inputs, and another seed other traffic
// over the same population.
func TestInputsAreSeeded(t *testing.T) {
	deps, err := loadDeployments()
	if err != nil {
		t.Fatal(err)
	}
	synth := func() string {
		seqs, err := synthSequences(deps, "test", []int{10, 20}, 4)
		if err != nil {
			t.Fatal(err)
		}
		return sequencesDigest(seqs)
	}
	if a, b := synth(), synth(); a != b {
		t.Fatalf("population digests differ: %s vs %s", a, b)
	}
	seqs, err := synthSequences(deps, "test", []int{10, 20}, 4)
	if err != nil {
		t.Fatal(err)
	}
	plans := func(seed uint64) string {
		return digest(
			ingestPlan(seed, len(seqs), 3),
			fmt.Sprint(readPlan(seqs, deps, seed, 1, 2)),
			routedPlan(seqs, len(deps), seed, 0, 4),
			fmt.Sprint(streamPlan(len(seqs), seed, 1, 0)),
		)
	}
	if plans(1) != plans(1) {
		t.Fatal("the same seed planned different traffic")
	}
	if plans(1) == plans(2) {
		t.Fatal("seeds 1 and 2 planned the same traffic")
	}
	oracle := func(seed uint64) string {
		cases, err := oracleCases(deps, seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, c := range cases {
			out = append(out, fmt.Sprint(c.dep, c.readings, c.res.Probs))
		}
		return digest(out)
	}
	if oracle(7) != oracle(7) {
		t.Fatal("the same seed drew different oracle cases")
	}
}
