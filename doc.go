// Package ksymmetry is a from-scratch Go reproduction of "K-Symmetry
// Model for Identity Anonymization in Social Networks" (Wu, Xiao, Wang,
// He, Wang — EDBT 2010).
//
// The library anonymizes a social network so that every vertex has at
// least k-1 automorphically equivalent counterparts, making it immune
// to structural re-identification under ANY background knowledge, and
// provides backbone-based sampling so analysts can recover the original
// network's statistics from the published graph.
//
// Entry points:
//   - internal/core: a one-import facade over the publish/sample steps
//     the examples and the README quickstart use
//   - cmd/ksym, cmd/ksample, cmd/kstats, cmd/kexp: command-line tools
//   - examples/: runnable walkthroughs
//   - bench_test.go (this package): one benchmark per paper table/figure
//
// See README.md for an overview, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for paper-vs-measured results.
package ksymmetry
