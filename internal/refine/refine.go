// Package refine implements equitable partition refinement (1-WL /
// iterated degree refinement, the "graph stabilization" of Klin &
// Tinhofer cited in §7 of the paper). The stabilized unit partition is
// the total degree partition 𝒯𝒟𝒱(G), which the paper reports to equal
// the automorphism partition Orb(G) on all of its real networks and
// recommends as a scalable substitute when exact search is infeasible.
//
// Refinement is also the workhorse inside the individualization-
// refinement automorphism search (package automorphism): Orb(G) is
// always finer than any equitable partition, so refined cells bound the
// search. Both entry points run on the worklist kernel in refiner.go;
// the search additionally uses the incremental Refiner API directly.
package refine

import (
	"context"

	"ksymmetry/internal/graph"
	"ksymmetry/internal/intkey"
	"ksymmetry/internal/partition"
)

// EquitableCSRCtx refines the initial partition of the vertices of the
// frozen graph c until it is equitable: any two vertices in the same
// cell have, for every cell C, the same number of neighbors in C. The
// result is the coarsest equitable partition finer than initial.
// Refinement polls ctx with amortized cost and returns its error (and
// a nil partition) if it fires before the fixpoint is reached.
func EquitableCSRCtx(ctx context.Context, c *graph.CSR, initial *partition.Partition) (*partition.Partition, error) {
	if initial.N() != c.N() {
		panic("refine: partition size does not match graph")
	}
	r := NewRefinerCSR(c)
	r.Reset(initial)
	if err := r.RunCtx(ctx); err != nil {
		return nil, err
	}
	return r.Partition(), nil
}

// TotalDegreePartition returns 𝒯𝒟𝒱(G): the coarsest equitable partition
// of G, obtained by stabilizing the unit partition. It is always coarser
// than (or equal to) Orb(G).
func TotalDegreePartition(g *graph.Graph) *partition.Partition {
	p, _ := TotalDegreePartitionCSRCtx(context.Background(), graph.NewCSR(g))
	return p
}

// TotalDegreePartitionCSRCtx is TotalDegreePartition on a frozen CSR
// view, under a context.
func TotalDegreePartitionCSRCtx(ctx context.Context, c *graph.CSR) (*partition.Partition, error) {
	if c.N() == 0 {
		return partition.FromCellOf(nil), nil
	}
	return EquitableCSRCtx(ctx, c, partition.Unit(c.N()))
}

// IsEquitable reports whether p is equitable with respect to g.
func IsEquitable(g *graph.Graph, p *partition.Partition) bool {
	for _, cell := range p.Cells() {
		if len(cell) == 1 {
			continue
		}
		ref := cellProfile(g, p, cell[0])
		for _, v := range cell[1:] {
			if cellProfile(g, p, v) != ref {
				return false
			}
		}
	}
	return true
}

func cellProfile(g *graph.Graph, p *partition.Partition, v int) string {
	counts := make([]int, p.NumCells())
	for _, w := range g.Neighbors(v) {
		counts[p.CellIndexOf(w)]++
	}
	return intkey.Of(counts)
}
