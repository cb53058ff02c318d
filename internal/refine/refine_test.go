package refine

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ksymmetry/internal/datasets"
	"ksymmetry/internal/graph"
	"ksymmetry/internal/partition"
)

// equitable runs the worklist kernel from initial to its fixpoint.
func equitable(t *testing.T, g *graph.Graph, initial *partition.Partition) *partition.Partition {
	t.Helper()
	p, err := EquitableCSRCtx(context.Background(), graph.NewCSR(g), initial)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// naiveEquitable is the seed implementation of equitable refinement,
// retained as the test-only reference for the worklist kernel: rebuild
// a string-keyed signature map over every vertex every round until the
// number of classes stops growing.
func naiveEquitable(g *graph.Graph, initial *partition.Partition) *partition.Partition {
	n := g.N()
	color := make([]int, n)
	for v := 0; v < n; v++ {
		color[v] = initial.CellIndexOf(v)
	}
	numColors := initial.NumCells()
	buf := make([]int, 0, 16)
	for {
		id := map[string]int{}
		next := make([]int, n)
		for v := 0; v < n; v++ {
			buf = buf[:0]
			buf = append(buf, color[v])
			for _, w := range g.Neighbors(v) {
				buf = append(buf, color[w])
			}
			sort.Ints(buf[1:])
			s := naiveKey(buf)
			c, ok := id[s]
			if !ok {
				c = len(id)
				id[s] = c
			}
			next[v] = c
		}
		if len(id) == numColors {
			break
		}
		numColors = len(id)
		copy(color, next)
	}
	return partition.FromCellOf(color)
}

func naiveKey(s []int) string {
	b := make([]byte, 0, 4*len(s))
	for _, v := range s {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

func cycle(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

func star(n int) *graph.Graph {
	g := graph.New(n + 1)
	for i := 1; i <= n; i++ {
		g.AddEdge(0, i)
	}
	return g
}

func randomGraph(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

func TestTDPRegularGraphStaysUnit(t *testing.T) {
	// A cycle is vertex-transitive; refinement cannot split anything.
	p := TotalDegreePartition(cycle(7))
	if p.NumCells() != 1 {
		t.Fatalf("C7 TDP = %v, want unit", p)
	}
}

func TestTDPStar(t *testing.T) {
	p := TotalDegreePartition(star(4))
	want := partition.MustFromCells(5, [][]int{{0}, {1, 2, 3, 4}})
	if !p.Equal(want) {
		t.Fatalf("star TDP = %v, want %v", p, want)
	}
}

func TestTDPPath(t *testing.T) {
	// P5 (0-1-2-3-4): orbits are {0,4},{1,3},{2} and TDP matches.
	g := graph.New(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1)
	}
	p := TotalDegreePartition(g)
	want := partition.MustFromCells(5, [][]int{{0, 4}, {1, 3}, {2}})
	if !p.Equal(want) {
		t.Fatalf("P5 TDP = %v, want %v", p, want)
	}
}

func TestTDPFig1Graph(t *testing.T) {
	// The paper's Figure 1 network, reconstructed (0-indexed, v_i →
	// i-1) to satisfy every textual claim of §2.1: orbits {1,3},
	// {4,5}, {6,8} plus singletons {2},{7}; candidate set under
	// "Bob has ≥3 neighbors" is {2,4,5}; Bob (v2) has exactly two
	// degree-1 neighbors.
	g := graph.New(8)
	g.AddEdge(1, 0) // Bob-Alice
	g.AddEdge(1, 2) // Bob-Carol
	g.AddEdge(1, 3) // Bob-Dave
	g.AddEdge(1, 4) // Bob-Ed
	g.AddEdge(3, 4) // Dave-Ed
	g.AddEdge(3, 5) // Dave-Fred
	g.AddEdge(4, 7) // Ed-Harry
	g.AddEdge(5, 6) // Fred-Greg
	g.AddEdge(7, 6) // Harry-Greg
	p := TotalDegreePartition(g)
	want := partition.MustFromCells(8, [][]int{{0, 2}, {1}, {3, 4}, {5, 7}, {6}})
	if !p.Equal(want) {
		t.Fatalf("Fig.1 TDP = %v, want %v", p, want)
	}
}

func TestEquitableRespectsInitial(t *testing.T) {
	g := cycle(6)
	init := partition.MustFromCells(6, [][]int{{0, 2, 4}, {1, 3, 5}})
	p := equitable(t, g, init)
	if !p.IsFinerThan(init) {
		t.Fatal("refined partition must refine the initial one")
	}
	// C6 with alternating colors is equitable already.
	if !p.Equal(init) {
		t.Fatalf("alternating C6 coloring should be stable, got %v", p)
	}
}

func TestEquitableIndividualization(t *testing.T) {
	// Individualizing one vertex of C6 splits the cycle by distance.
	g := cycle(6)
	init := partition.MustFromCells(6, [][]int{{0}, {1, 2, 3, 4, 5}})
	p := equitable(t, g, init)
	want := partition.MustFromCells(6, [][]int{{0}, {1, 5}, {2, 4}, {3}})
	if !p.Equal(want) {
		t.Fatalf("individualized C6 = %v, want %v", p, want)
	}
}

func TestIsEquitable(t *testing.T) {
	g := star(3)
	if !IsEquitable(g, partition.MustFromCells(4, [][]int{{0}, {1, 2, 3}})) {
		t.Fatal("star partition should be equitable")
	}
	if IsEquitable(g, partition.Unit(4)) {
		t.Fatal("unit partition of a star is not equitable")
	}
}

func TestTDPEmptyGraph(t *testing.T) {
	p := TotalDegreePartition(graph.New(0))
	if p.N() != 0 || p.NumCells() != 0 {
		t.Fatalf("empty TDP = %v", p)
	}
}

func TestPropertyEquitableOutputIsEquitable(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(20, 0.2, seed)
		p := TotalDegreePartition(g)
		return IsEquitable(g, p) && p.IsFinerThan(partition.Unit(g.N()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEquitableIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(18, 0.25, seed)
		p := TotalDegreePartition(g)
		return equitable(t, g, p).Equal(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWorklistMatchesNaive checks the worklist kernel against
// the retained naive reference, partition for partition, on 200 random
// ER and BA graphs — both from the unit partition and from a random
// individualized initial partition.
func TestPropertyWorklistMatchesNaive(t *testing.T) {
	for i := 0; i < 200; i++ {
		seed := int64(i)
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		var kind string
		if i%2 == 0 {
			n := 20 + rng.Intn(60)
			g = datasets.ErdosRenyiGM(n, n+rng.Intn(2*n), seed)
			kind = "ER"
		} else {
			n := 20 + rng.Intn(60)
			g = datasets.BarabasiAlbert(n, 3, 2+rng.Intn(2), seed)
			kind = "BA"
		}
		got := TotalDegreePartition(g)
		want := naiveEquitable(g, partition.Unit(g.N()))
		if !got.Equal(want) {
			t.Fatalf("%s seed %d: worklist TDP %v != naive %v", kind, seed, got, want)
		}
		if !IsEquitable(g, got) {
			t.Fatalf("%s seed %d: worklist TDP not equitable", kind, seed)
		}
		// Individualized initial partition: {v} split off the unit cell.
		v := rng.Intn(g.N())
		init := partition.FromCellOf(singletonColors(g.N(), v))
		got = equitable(t, g, init)
		want = naiveEquitable(g, init)
		if !got.Equal(want) {
			t.Fatalf("%s seed %d: individualized(%d) worklist %v != naive %v", kind, seed, v, got, want)
		}
	}
}

func singletonColors(n, v int) []int {
	colors := make([]int, n)
	colors[v] = 1
	return colors
}

// TestRefinerIncrementalMatchesFromScratch checks the IR-tree workflow:
// refining from a saved parent state after Individualize must equal a
// from-scratch refinement of the individualized initial partition.
func TestRefinerIncrementalMatchesFromScratch(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		g := datasets.ErdosRenyiGM(40, 80, seed)
		r := NewRefiner(g)
		r.ResetColors(make([]int, g.N()))
		r.Run()
		base := r.Save()
		if !r.Partition().Equal(TotalDegreePartition(g)) {
			t.Fatalf("seed %d: base state != TDP", seed)
		}
		for v := 0; v < g.N(); v += 7 {
			r.Restore(base)
			r.Individualize(v)
			r.Run()
			got := r.Partition()
			want := naiveEquitable(g, partition.FromCellOf(singletonColors(g.N(), v)))
			if !got.Equal(want) {
				t.Fatalf("seed %d: incremental refine at %d = %v, want %v", seed, v, got, want)
			}
		}
	}
}

// TestCanonicalColorsInvariant checks that CanonicalColors assigns
// corresponding colors across a relabeling: refining g and its permuted
// copy with corresponding individualizations must color corresponding
// vertices identically.
func TestCanonicalColorsInvariant(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		g := datasets.ErdosRenyiGM(30, 60, seed)
		perm := rand.New(rand.NewSource(seed + 1000)).Perm(g.N())
		h := g.Permute(perm)
		rg := NewRefiner(g)
		rh := NewRefiner(h)
		for v := 0; v < g.N(); v += 5 {
			rg.ResetColors(singletonColors(g.N(), v))
			rg.Run()
			cg := rg.CanonicalColors(nil)
			rh.ResetColors(singletonColors(h.N(), perm[v]))
			rh.Run()
			ch := rh.CanonicalColors(nil)
			for u := 0; u < g.N(); u++ {
				if cg[u] != ch[perm[u]] {
					t.Fatalf("seed %d, indiv %d: color(%d)=%d but permuted color=%d",
						seed, v, u, cg[u], ch[perm[u]])
				}
			}
		}
	}
}

// TestCanonicalColorsSeparateCells checks that every cell receives its
// own color (the quotient iteration must fully separate final cells).
func TestCanonicalColorsSeparateCells(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		g := datasets.BarabasiAlbert(50, 3, 2, seed)
		r := NewRefiner(g)
		r.ResetColors(singletonColors(g.N(), int(seed)%g.N()))
		r.Run()
		colors := r.CanonicalColors(nil)
		distinct := map[int]bool{}
		for _, c := range colors {
			distinct[c] = true
		}
		if len(distinct) != r.NumCells() {
			t.Fatalf("seed %d: %d colors for %d cells", seed, len(distinct), r.NumCells())
		}
	}
}

func TestPropertyRefinementInvariantUnderRelabel(t *testing.T) {
	// |TDP cells| is a graph invariant.
	f := func(seed int64) bool {
		g := randomGraph(16, 0.3, seed)
		perm := rand.New(rand.NewSource(seed + 99)).Perm(g.N())
		h := g.Permute(perm)
		return TotalDegreePartition(g).NumCells() == TotalDegreePartition(h).NumCells()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
