// Package datasets provides the graphs the paper evaluates on: its
// worked examples (Figures 1, 3, 4, 6, 7), classic symmetric graphs for
// testing, and seeded synthetic stand-ins for the three real networks
// of Table 1 (Enron, Hepth, Net-trace), which were obtained privately
// by the authors and are not redistributable. See DESIGN.md §3 for the
// substitution rationale.
package datasets

import "ksymmetry/internal/graph"

// Fig1 returns the §2.1 motivating network (vertices 0..7 standing for
// v1..v8 / Alice..Harry). Its automorphism orbits are {0,2}, {3,4},
// {5,7} with {1} (Bob) and {6} in singleton orbits; Bob is uniquely
// re-identified by "has two neighbors of degree 1", and the candidate
// set under "has at least 3 neighbors" is {1,3,4} (the paper's
// {2,4,5}).
func Fig1() *graph.Graph {
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
	return g
}

// Fig3 returns the §3.2 orbit-copying example graph (vertices 0..7 for
// v1..v8). Orb(G) = {{0,1},{2},{3,4},{5,6},{7}} — the paper's V1..V5.
func Fig3() *graph.Graph {
	g := graph.New(8)
	g.AddEdge(2, 0) // v3-v1
	g.AddEdge(2, 1) // v3-v2
	g.AddEdge(2, 3) // v3-v4
	g.AddEdge(2, 4) // v3-v5
	g.AddEdge(3, 5) // v4-v6
	g.AddEdge(4, 6) // v5-v7
	g.AddEdge(5, 7) // v6-v8
	g.AddEdge(6, 7) // v7-v8
	return g
}

// Fig4 returns the §3.2 counterexample P3: Orb(G) = {{0},{1,2}}, and
// copying the singleton {0} yields C4, whose four vertices all lie in
// one orbit — demonstrating 𝒱' ≠ Orb(G') in general.
func Fig4() *graph.Graph {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	return g
}

// Fig7a returns a graph in the spirit of Figure 7(a): one cell whose
// induced subgraph has two components C1, C2 that share the same
// external neighbor, so C2 is an orbit copy of C1 and is removed in the
// backbone. Vertices: 0 is the shared hub; {1,2} and {3,4} are the two
// edge-components of the blue cell.
func Fig7a() *graph.Graph {
	g := graph.New(5)
	g.AddEdge(1, 2) // C1
	g.AddEdge(3, 4) // C2
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	g.AddEdge(0, 4)
	return g
}

// Fig7b returns a graph in the spirit of Figure 7(b): the same two
// isomorphic components {1,2} and {3,4}, but attached to different
// external vertices, so neither is an orbit copy of the other and both
// survive in the backbone.
func Fig7b() *graph.Graph {
	g := graph.New(7)
	g.AddEdge(1, 2) // C1
	g.AddEdge(3, 4) // C2
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(5, 3)
	g.AddEdge(5, 4)
	g.AddEdge(0, 6)
	g.AddEdge(5, 6)
	return g
}

// Cycle returns the cycle graph C_n (n ≥ 3).
func Cycle(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

// Path returns the path graph P_n.
func Path(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// Star returns the star K_{1,n}; vertex 0 is the center.
func Star(n int) *graph.Graph {
	g := graph.New(n + 1)
	for i := 1; i <= n; i++ {
		g.AddEdge(0, i)
	}
	return g
}

// Petersen returns the Petersen graph (vertex-transitive, |Aut| = 120).
func Petersen() *graph.Graph {
	g := graph.New(10)
	for i := 0; i < 5; i++ {
		g.AddEdge(i, (i+1)%5)
		g.AddEdge(5+i, 5+(i+2)%5)
		g.AddEdge(i, 5+i)
	}
	return g
}
