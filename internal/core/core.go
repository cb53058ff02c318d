// Package core is the one-import entry point to the paper's primary
// contribution — the k-symmetry anonymization model — for the examples
// and the README quickstart. It re-exports the publisher and analyst
// steps from the focused packages (automorphism for Orb(G), ksym for
// the model, sampling for the analyst side):
//
//	orb, gens, err := core.OrbitPartition(g, nil)
//	res, err := core.Anonymize(g, orb, 5)          // publisher side
//	s, err := core.SampleApproximate(res.Graph, res.Partition, g.N(), opts)
//
// Everything else (context-aware variants, backbone, exact and batch
// sampling, worker pools) is called on those packages directly.
package core

import (
	"math/rand"

	"ksymmetry/internal/automorphism"
	"ksymmetry/internal/graph"
	"ksymmetry/internal/ksym"
	"ksymmetry/internal/partition"
	"ksymmetry/internal/sampling"
)

// Re-exported types.
type (
	// Graph is the undirected simple graph model (§2.1).
	Graph = graph.Graph
	// Partition is a vertex partition; Orb(G) and 𝒱' are Partitions.
	Partition = partition.Partition
	// Result is an anonymization outcome.
	Result = ksym.Result
	// Target is an f-symmetry size function (Definition 5).
	Target = ksym.Target
	// SamplingOptions configures the §4.2 samplers.
	SamplingOptions = sampling.Options
)

// OrbitPartition computes Orb(G) exactly, with the discovered
// automorphism generators.
func OrbitPartition(g *Graph, opts *automorphism.Options) (*Partition, []automorphism.Perm, error) {
	return automorphism.OrbitPartition(g, opts)
}

// Anonymize runs Algorithm 1: modify g (vertex/edge insertion only)
// until every orbit has at least k members.
func Anonymize(g *Graph, orb *Partition, k int) (*Result, error) {
	return ksym.Anonymize(g, orb, k)
}

// AnonymizeF runs the f-symmetry generalization (Definition 5).
func AnonymizeF(g *Graph, orb *Partition, target Target) (*Result, error) {
	return ksym.AnonymizeF(g, orb, target)
}

// SampleApproximate draws one approximate backbone-based sample
// (Algorithms 4 and 5).
func SampleApproximate(gp *Graph, vp *Partition, n int, opts *SamplingOptions) (*Graph, error) {
	return sampling.Approximate(gp, vp, n, opts)
}

// NewSamplingOptions returns sampler options with the default
// inverse-degree weights and a seeded RNG.
func NewSamplingOptions(seed int64) *SamplingOptions {
	return &SamplingOptions{Rng: rand.New(rand.NewSource(seed))}
}

// IsKSymmetric reports whether a graph with automorphism partition orb
// satisfies k-symmetry anonymity (Definition 1).
func IsKSymmetric(orb *Partition, k int) bool { return ksym.IsKSymmetric(orb, k) }
