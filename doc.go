// Package repro is a from-scratch Go reproduction of "Understanding Mobile
// Traffic Patterns of Large Scale Cellular Towers in Urban Environment"
// (Wang et al., ACM IMC 2015).
//
// The implementation lives under internal/: the synthetic city and trace
// generator (internal/synth), the batched zero-allocation ingestion and
// vectorisation pipeline (internal/trace, internal/pipeline — a custom
// byte-level CSV scanner with an order-preserving parallel chunk parser
// behind trace.NewIngestSourceContext, moving records downstream a batch
// at a time through the one trace.Source interface; see README.md
// "Ingestion engine" for the stage → entry point table), the
// deterministic parallel
// modeling engine — the pattern identifier and metric tuner
// (internal/cluster, condensed NN-chain hierarchical clustering cut by
// the Davies–Bouldin index) plus NMF basis extraction (internal/nmf) on
// the blocked kernels of internal/linalg: a Gram-matrix distance engine
// (register-tiled, AVX2+FMA assembly micro-kernels on amd64) feeding on
// the contiguous flat matrices behind every pipeline.Dataset, plus tiled
// parallel matrix products, all bit-identical for any
// worker count under a fixed seed (see README.md "Distance engine" for
// the Gram-trick tolerance model) — the geographical labelling
// (internal/poi, internal/label), the time- and frequency-domain analyses
// (internal/timedomain, internal/freqdomain — the latter driven by the
// plan-based FFT engine of internal/dsp, whose dsp.Plan precomputes twiddle
// factors per signal length and batches per-tower spectra across a worker
// pool) and the orchestration model
// (internal/core, with AnalyzeContext for in-memory datasets and
// AnalyzeSourceContext for record streams). The benchmark harness that
// regenerates every table and figure of the paper is internal/experiments,
// driven by cmd/experiments and by the benchmarks in bench_test.go at the
// repository root.
//
// Every modeling stage has one implementation, generic over the element
// type of a flat linalg.Mat[F] (cluster.DistancesMatCtx and the dendrogram
// and silhouette read off its one distance matrix, OptimalKMatCtx, the
// *Mat validity indices, nmf.FactorizeMatContext); see
// README.md "Parallel modeling engine" for the stage → entry point table. It runs at one of two numeric tiers,
// selected once by core.Options.Precision: Float64 (the default) is the
// bit-reproducible reference, while Float32 runs the linalg
// distance/matrix kernels — generic over float32 | float64 via
// linalg.Float, with dedicated 8-wide AVX2+FMA float32 assembly on amd64 —
// at half the memory traffic.
// Decisions (merges, labels, cluster counts, NMF bases) are identical
// across tiers on seeded datasets because agglomeration orderings,
// convergence checks and cross-point statistics always reduce in
// float64; scores differ in the last digits. See README.md
// "Numeric tiers".
//
// See README.md for a quickstart, the package map and the entry point of
// every ingestion and modeling stage.
package repro
