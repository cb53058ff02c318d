package ksym

import (
	"context"
	"testing"
	"testing/quick"

	"ksymmetry/internal/automorphism"
	"ksymmetry/internal/datasets"
	"ksymmetry/internal/graph"
	"ksymmetry/internal/refine"
)

func TestBackboneFig7a(t *testing.T) {
	// Fig. 7(a): the two components of the blue cell share external
	// neighbors, so one is an orbit copy and is removed.
	g := datasets.Fig7a()
	bb := Backbone(g, orb(t, g))
	if bb.Graph.N() != 3 {
		t.Fatalf("backbone N = %d, want 3 (hub + one edge-component)", bb.Graph.N())
	}
	if bb.Graph.M() != 3 {
		t.Fatalf("backbone M = %d, want 3", bb.Graph.M())
	}
}

func TestBackboneFig7b(t *testing.T) {
	// Fig. 7(b): same components, different external neighbors: both
	// survive.
	g := datasets.Fig7b()
	bb := Backbone(g, orb(t, g))
	if bb.Graph.N() != g.N() || bb.Graph.M() != g.M() {
		t.Fatalf("backbone should equal the graph, got N=%d M=%d", bb.Graph.N(), bb.Graph.M())
	}
}

func TestBackboneFig3(t *testing.T) {
	// In Fig. 3(a)'s graph, V1 = {v1,v2} are two isolated components of
	// the cell subgraph with the same external neighbor v3: one is
	// removed. No other cell collapses ({v4,v5} attach to different
	// vertices, as do {v6,v7}).
	g := datasets.Fig3()
	bb := Backbone(g, orb(t, g))
	if bb.Graph.N() != 7 {
		t.Fatalf("backbone N = %d, want 7 (only v2 removed)", bb.Graph.N())
	}
	// The removed vertex is v1 or v2 (index 0 or 1).
	seen := map[int]bool{}
	for _, v := range bb.OrigOf {
		seen[v] = true
	}
	if seen[0] && seen[1] {
		t.Fatal("neither v1 nor v2 was removed")
	}
	if !seen[2] || !seen[3] || !seen[4] || !seen[5] || !seen[6] || !seen[7] {
		t.Fatal("a non-duplicate vertex was removed")
	}
}

func TestBackboneIdempotent(t *testing.T) {
	g := datasets.Fig3()
	bb := Backbone(g, orb(t, g))
	bb2 := Backbone(bb.Graph, bb.Partition)
	if bb2.Graph.N() != bb.Graph.N() || bb2.Graph.M() != bb.Graph.M() {
		t.Fatal("backbone of a backbone changed")
	}
}

func TestBackbonePreservedByAnonymization(t *testing.T) {
	// Theorem 4: G and its k-symmetric version share the same backbone.
	for _, g := range []*graph.Graph{datasets.Fig3(), datasets.Fig1(), datasets.Fig7a()} {
		p := orb(t, g)
		bbG := Backbone(g, p)
		res, err := Anonymize(g, p, 3)
		if err != nil {
			t.Fatal(err)
		}
		bbA := Backbone(res.Graph, res.Partition)
		if _, ok := graph.Isomorphic(bbG.Graph, bbA.Graph); !ok {
			t.Fatalf("backbones differ: %d/%d vs %d/%d vertices/edges",
				bbG.Graph.N(), bbG.Graph.M(), bbA.Graph.N(), bbA.Graph.M())
		}
	}
}

func TestBackboneOfOrbitCopySequence(t *testing.T) {
	// Build a heavily copied graph and check the backbone collapses it
	// back to (something isomorphic to) the original's backbone.
	g := datasets.Star(3)
	p := orb(t, g)
	h, q := OrbitCopy(g, p, p.CellIndexOf(1)) // copy the leaf orbit
	h, q = OrbitCopy(h, q, q.CellIndexOf(1))  // and again
	bb := Backbone(h, q)
	// The star's own backbone collapses the 3 leaves to 1.
	want := Backbone(g, p)
	if _, ok := graph.Isomorphic(bb.Graph, want.Graph); !ok {
		t.Fatalf("backbone %d/%d, want isomorphic to %d/%d",
			bb.Graph.N(), bb.Graph.M(), want.Graph.N(), want.Graph.M())
	}
}

func TestMinimalAnonymizeFig3(t *testing.T) {
	// §5.1's example: with k=3, plain anonymization adds 10 vertices to
	// the Fig. 3 graph; rebuilding from the backbone saves the
	// redundant copy in V1 (4 vertices where 3 suffice): 9 additions.
	g := datasets.Fig3()
	p := orb(t, g)
	plain, err := Anonymize(g, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	min, err := MinimalAnonymize(g, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if min.VerticesAdded() >= plain.VerticesAdded() {
		t.Fatalf("minimal %d ≥ plain %d", min.VerticesAdded(), plain.VerticesAdded())
	}
	if min.VerticesAdded() != 9 {
		t.Fatalf("minimal added %d vertices, want 9", min.VerticesAdded())
	}
	// The result must still be 3-symmetric.
	po := orb(t, min.Graph)
	if !IsKSymmetric(po, 3) {
		t.Fatalf("minimal result not 3-symmetric: %v", po)
	}
}

func TestMinimalAnonymizeEmbedsOriginal(t *testing.T) {
	// The output must contain at least as many vertices per cell as G,
	// and G must embed: check via per-cell counts and a full subgraph
	// isomorphism on this small case.
	g := datasets.Fig7a()
	p := orb(t, g)
	res, err := MinimalAnonymize(g, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.N() < g.N() {
		t.Fatalf("output smaller than input: %d < %d", res.Graph.N(), g.N())
	}
	po := orb(t, res.Graph)
	if !IsKSymmetric(po, 2) {
		t.Fatal("not 2-symmetric")
	}
}

func TestMinimalAnonymizeErrors(t *testing.T) {
	g := datasets.Fig3()
	p := orb(t, g)
	if _, err := MinimalAnonymize(g, p, 0); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := MinimalAnonymizeFCtx(context.Background(), g, p, func([]int) int { return -1 }); err == nil {
		t.Fatal("negative target should error")
	}
}

func TestPropertyMinimalNeverWorse(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(10, 0.25, seed)
		p, _, err := automorphism.OrbitPartition(g, nil)
		if err != nil {
			return false
		}
		plain, err := Anonymize(g, p, 3)
		if err != nil {
			return false
		}
		min, err := MinimalAnonymize(g, p, 3)
		if err != nil {
			return false
		}
		if min.VerticesAdded() > plain.VerticesAdded() {
			return false
		}
		po, _, err := automorphism.OrbitPartition(min.Graph, nil)
		if err != nil {
			return false
		}
		return IsKSymmetric(po, 3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestBackboneWorkersDeterministic: concurrent per-cell classification
// must reduce to exactly the same backbone as the sequential pass —
// cells are independent, so only the schedule changes.
func TestBackboneWorkersDeterministic(t *testing.T) {
	g := datasets.ErdosRenyiGM(300, 500, 13)
	p := refine.TotalDegreePartition(g)
	res, err := Anonymize(g, p, 6)
	if err != nil {
		t.Fatal(err)
	}
	base, err := BackboneWorkersCtx(context.Background(), res.Graph, res.Partition, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		bb, err := BackboneWorkersCtx(context.Background(), res.Graph, res.Partition, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bb.Graph.Equal(base.Graph) {
			t.Fatalf("workers=%d: backbone graph differs from sequential pass", workers)
		}
		if len(bb.OrigOf) != len(base.OrigOf) {
			t.Fatalf("workers=%d: OrigOf length %d vs %d", workers, len(bb.OrigOf), len(base.OrigOf))
		}
		for i := range bb.OrigOf {
			if bb.OrigOf[i] != base.OrigOf[i] {
				t.Fatalf("workers=%d: OrigOf[%d] = %d, want %d", workers, i, bb.OrigOf[i], base.OrigOf[i])
			}
		}
	}
}
