package automorphism

import (
	"reflect"
	"runtime"
	"testing"

	"ksymmetry/internal/graph"
)

// workerCounts is the equality grid the determinism suite runs over:
// sequential, a fixed multi-worker pool, and whatever the host has.
// The guarantee under test is DESIGN.md §12's: orbits and generators
// are byte-identical at every worker count.
func workerCounts() []int {
	counts := []int{1, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 4 {
		counts = append(counts, g)
	}
	return counts
}

// disjointCliques builds count vertex-disjoint cliques with sizes
// cycling over sizes — a generator-dense workload: every clique of
// size s contributes s-1 transpositions, and all of them race into the
// merge path when the search runs parallel.
func disjointCliques(count int, sizes ...int) *graph.Graph {
	n := 0
	for i := 0; i < count; i++ {
		n += sizes[i%len(sizes)]
	}
	g := graph.New(n)
	base := 0
	for i := 0; i < count; i++ {
		s := sizes[i%len(sizes)]
		for u := 0; u < s; u++ {
			for v := u + 1; v < s; v++ {
				g.AddEdge(base+u, base+v)
			}
		}
		base += s
	}
	return g
}

// equalityGraphs is the shared workload for the worker-equality suite:
// vertex-transitive, star (twin-heavy), rigid-ish random, and the
// paper's figure 1.
func equalityGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"fig1":     fig1Graph(),
		"petersen": petersen(),
		"cycle40":  cycle(40),
		"star16":   star(16),
		"random36": randomGraph(36, 0.12, 7),
		"cliques":  disjointCliques(12, 4, 5, 6),
	}
}

// TestWorkerEqualityOrbits: OrbitPartition returns a byte-identical
// partition AND generator sequence at every worker count.
func TestWorkerEqualityOrbits(t *testing.T) {
	for name, g := range equalityGraphs() {
		want, wantGens, err := OrbitPartition(g, &Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, w := range workerCounts()[1:] {
			got, gens, err := OrbitPartition(g, &Options{Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if !want.Equal(got) {
				t.Errorf("%s workers=%d: orbit partition differs from sequential", name, w)
			}
			if !reflect.DeepEqual(wantGens, gens) {
				t.Errorf("%s workers=%d: generators differ from sequential\nseq: %v\npar: %v",
					name, w, wantGens, gens)
			}
		}
	}
}

// TestGeneratorMergeStress hammers the classifier's generator-merge
// path: 40 disjoint cliques of sizes 4–8 produce hundreds of units
// whose generators all commit through the shared mutex, with the
// orbit-pruning union-find epoch churning the whole time. The merged
// sequence must still come out byte-identical to the sequential one.
func TestGeneratorMergeStress(t *testing.T) {
	g := disjointCliques(40, 4, 5, 6, 7, 8)
	want, wantGens, err := OrbitPartition(g, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(wantGens) == 0 {
		t.Fatal("test setup: clique graph produced no generators")
	}
	for _, w := range []int{4, 8} {
		got, gens, err := OrbitPartition(g, &Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !want.Equal(got) {
			t.Errorf("workers=%d: orbit partition differs from sequential", w)
		}
		if !reflect.DeepEqual(wantGens, gens) {
			t.Errorf("workers=%d: %d generators merged differently than sequential's %d",
				w, len(gens), len(wantGens))
		}
	}
}

// TestGeneratorSetHashWorkerIndependent: the hash the experiments orbit
// cache records is a pure function of the canonical generator sequence,
// so it cannot depend on the worker count either.
func TestGeneratorSetHashWorkerIndependent(t *testing.T) {
	g := disjointCliques(12, 4, 5, 6)
	_, seqGens, err := OrbitPartition(g, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := GeneratorSetHash(seqGens)
	if want == "" {
		t.Fatal("empty hash for non-empty generator set")
	}
	for _, w := range workerCounts()[1:] {
		_, gens, err := OrbitPartition(g, &Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if got := GeneratorSetHash(gens); got != want {
			t.Errorf("workers=%d: generator hash %s, want %s", w, got, want)
		}
	}
}
