// Package storagesubsys is a full reproduction of "Are Disks the
// Dominant Contributor for Storage Failures? A Comprehensive Study of
// Storage Subsystem Failure Characteristics" (Jiang, Hu, Zhou,
// Kanevsky; FAST '08).
//
// The paper's proprietary NetApp AutoSupport dataset is substituted by a
// calibrated generative fleet simulator; every analysis — AFR
// breakdowns, time-between-failure distributions, failure-independence
// tests, and the paper's Findings 1-11 — is implemented in full and
// regenerated by cmd/reproduce, with multi-trial uncertainty (95%
// confidence intervals over a scenario grid) from cmd/sweep, and the
// paper's published numbers confronted with that uncertainty in the
// generated EXPERIMENTS.md (cmd/expreport). See README.md for a tour,
// ARCHITECTURE.md for the package map, the parallel-engine determinism
// contract and the findings-traceability table, EXPERIMENTS.md
// for the per-finding paper-vs-spread verdicts, and SCENARIOS.md for
// the declarative scenario-file format (cmd/sweep -grid-file) with its
// committed examples under examples/scenarios/.
//
// The public surface lives in the internal packages (this repository is
// a self-contained study, not an importable SDK). The root package
// holds only ScenarioFiles, the committed examples/scenarios/*.json
// embedded as the built-in sweep grids:
//
//   - internal/stats: allocation-free splittable RNG (xoshiro256++
//     with SplitMix64-keyed streams), distributions, MLE fitting,
//     hypothesis tests
//   - internal/fleet: storage system population model (census-and-fill
//     builder that writes every component in place, over chunks of
//     systems on every processor with the same bytes for any processor
//     count; replacements appended in place)
//   - internal/failmodel: failure taxonomy and calibrated rates
//   - internal/sim: the failure history simulator (serial,
//     zero-garbage per-system hot path)
//   - internal/eventlog, internal/autosupport: the log pipeline
//   - internal/core: the paper's analyses
//   - internal/raid, internal/multipath: resiliency mechanism models
//   - internal/experiments: per-figure reproduction drivers (RunTrial
//     is the one trial code path cmd/reproduce and the sweep share)
//   - internal/sweep: the Monte-Carlo sweep engine (trials × scenario
//     grid — population scale, RAID span, failure-model overrides, and
//     the operational dimensions: install-window skew, churn, repair
//     lag, shelf-size mix — streaming aggregation, byte-deterministic
//     output; its trial pool is the repository's one parallel engine,
//     and a fleet build its one parallel step)
//   - internal/scenario: the declarative scenario artifact — strict
//     loader and validator for the SCENARIOS.md grid/assertion format,
//     and Builtin, the by-name resolver for the embedded grids
//   - internal/paperref: the paper's published values as typed bands
//     with citations
//   - internal/expreport: the paper-vs-spread report generator behind
//     EXPERIMENTS.md (cmd/expreport)
package storagesubsys
