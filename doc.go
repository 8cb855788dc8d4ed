// Package samrpart is a from-scratch Go reproduction of Sinha & Parashar,
// "Adaptive Runtime Partitioning of AMR Applications on Heterogeneous
// Clusters" (IEEE CLUSTER 2001): a system-sensitive partitioning and
// load-balancing framework for structured adaptive mesh refinement (SAMR)
// applications on heterogeneous, dynamic clusters.
//
// The library lives under internal/: geometry (geom), space-filling curves
// (sfc), the hierarchical distributed dynamic array substrate (hdda), the
// Berger–Oliger AMR machinery (amr), numerical kernels (solver), the
// capacity metric (capacity), the NWS-like resource monitor (monitor), the
// virtual heterogeneous cluster (cluster), the message-passing layer
// (transport), the partitioners (partition), the adaptive runtime (engine)
// and the experiment harness (exp). See README.md, DESIGN.md and
// EXPERIMENTS.md; cmd/experiments regenerates every table and figure of the
// paper's evaluation, and bench/ is the benchmark.
package samrpart
