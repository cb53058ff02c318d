package core

import (
	"testing"

	"ksymmetry/internal/datasets"
	"ksymmetry/internal/ksym"
	"ksymmetry/internal/sampling"
)

// TestPipeline exercises the full publish/recover pipeline: orbits →
// anonymize → backbone → sample, through the core facade where it
// re-exports a step and through ksym and sampling where it does not.
func TestPipeline(t *testing.T) {
	g := datasets.Fig3()
	orb, gens, err := OrbitPartition(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) == 0 {
		t.Fatal("Fig3 has non-trivial automorphisms")
	}
	res, err := Anonymize(g, orb, 3)
	if err != nil {
		t.Fatal(err)
	}
	after, _, err := OrbitPartition(res.Graph, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !IsKSymmetric(after, 3) {
		t.Fatal("anonymized graph not 3-symmetric")
	}
	bb := ksym.Backbone(res.Graph, res.Partition)
	if bb.Graph.N() >= res.Graph.N() {
		t.Fatal("backbone should shrink the anonymized graph")
	}
	s, err := SampleApproximate(res.Graph, res.Partition, g.N(), NewSamplingOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != g.N() {
		t.Fatalf("sample size %d, want %d", s.N(), g.N())
	}
	s2, err := sampling.Exact(res.Graph, res.Partition, g.N(), NewSamplingOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if s2.N() < g.N() {
		t.Fatalf("exact sample too small: %d", s2.N())
	}
	min, err := ksym.MinimalAnonymize(g, orb, 3)
	if err != nil {
		t.Fatal(err)
	}
	if min.VerticesAdded() > res.VerticesAdded() {
		t.Fatal("minimal anonymization worse than plain")
	}
	excl, err := AnonymizeF(g, orb, func(cell []int) int { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if excl.VerticesAdded() != 0 {
		t.Fatal("target 1 must be a no-op")
	}
}
