//! The kernel-equivalence gate: the scan kernels behind `--scan-kernel`
//! and the two drivers of the compiled tables form a matrix of contracts,
//! and every entry is proven here on random PSTs — before and after
//! pruning, smoothed or not.
//!
//! - **interpreted ↔ compiled**: byte-identical (`f64::to_bits`, not an
//!   epsilon) — same max log-ratio bits, same segment.
//! - **compiled ↔ batched**: byte-identical per lane, including *which*
//!   lanes the threshold early-exit prunes; the lane driver only
//!   interleaves lanes, it never changes a lane's arithmetic.
//! - **early exit**: may only skip pairs that are provably below the
//!   threshold — a pruned pair can never hide a would-be join.
//!
//! A full-pipeline matrix at the bottom seals the same contracts
//! end-to-end through seeding, re-clustering, and the final sweep.

use proptest::prelude::*;

use cluseq::core::{
    max_similarity_compiled, max_similarity_compiled_batch, max_similarity_compiled_bounded,
    max_similarity_pst, BoundedSimilarity,
};
use cluseq::prelude::*;
use cluseq_test_utils::{arb_pst_workload, clustered_db, observe, PstWorkload};

/// The lanes a workload feeds through the batch drivers: the probe, every
/// training sequence re-used as a probe, and an empty lane — enough shape
/// variety to exercise lanes retiring at different positions.
fn lanes_of(w: &PstWorkload) -> Vec<Vec<Symbol>> {
    let mut lanes = vec![w.probe_symbols()];
    for seq in &w.training {
        lanes.push(seq.iter().map(|&s| Symbol(s)).collect());
    }
    lanes.push(Vec::new());
    lanes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// interpreted ↔ compiled: byte-identical on arbitrary models
    /// (smoothed or not, pruned or not) and arbitrary probes — same max
    /// log-ratio bits, same segment.
    #[test]
    fn compiled_similarity_is_byte_identical(w in arb_pst_workload()) {
        let (pst, background) = w.build();
        let probe = w.probe_symbols();
        let interpreted = max_similarity_pst(&pst, &background, &probe);
        let compiled = CompiledPst::compile(&pst, &background);
        let fast = max_similarity_compiled(&compiled, &probe);
        prop_assert_eq!(
            interpreted.log_sim.to_bits(),
            fast.log_sim.to_bits(),
            "log_sim bits diverge: interpreted {} vs compiled {}",
            interpreted.log_sim,
            fast.log_sim
        );
        prop_assert_eq!(interpreted.start, fast.start);
        prop_assert_eq!(interpreted.end, fast.end);
    }

    /// Early-exit contract: for any threshold, the bounded scan either
    /// returns the exact result bit-for-bit, or prunes a pair whose true
    /// similarity really is below the threshold.
    #[test]
    fn early_exit_never_lies(w in arb_pst_workload(), threshold in -5.0f64..200.0) {
        let (pst, background) = w.build();
        let probe = w.probe_symbols();
        let exact = max_similarity_pst(&pst, &background, &probe);
        let compiled = CompiledPst::compile(&pst, &background);
        match max_similarity_compiled_bounded(&compiled, &probe, threshold) {
            BoundedSimilarity::Exact(sim) => {
                prop_assert_eq!(sim.log_sim.to_bits(), exact.log_sim.to_bits());
                prop_assert_eq!((sim.start, sim.end), (exact.start, exact.end));
            }
            BoundedSimilarity::Pruned => {
                prop_assert!(
                    exact.log_sim < threshold,
                    "pruned a pair scoring {} >= threshold {}",
                    exact.log_sim,
                    threshold
                );
            }
        }
    }

    /// compiled ↔ batched: every lane of the batch driver is
    /// byte-identical to the single-sequence scan of that lane — same
    /// bits, same segment, and the *same* prune verdicts — for any
    /// threshold and any mix of lane lengths (including an empty lane).
    #[test]
    fn batched_scan_is_byte_identical_per_lane(
        w in arb_pst_workload(),
        threshold in prop::option::of(-5.0f64..200.0),
    ) {
        let (pst, background) = w.build();
        let compiled = CompiledPst::compile(&pst, &background);
        let lanes = lanes_of(&w);
        let refs: Vec<&[Symbol]> = lanes.iter().map(Vec::as_slice).collect();
        let batch = max_similarity_compiled_batch(&compiled, &refs, threshold);
        prop_assert_eq!(batch.len(), refs.len());
        for (lane, got) in batch.iter().enumerate() {
            let single = match threshold {
                Some(t) => max_similarity_compiled_bounded(&compiled, refs[lane], t),
                None => BoundedSimilarity::Exact(max_similarity_compiled(&compiled, refs[lane])),
            };
            match (got, &single) {
                (BoundedSimilarity::Exact(b), BoundedSimilarity::Exact(s)) => {
                    prop_assert_eq!(
                        b.log_sim.to_bits(),
                        s.log_sim.to_bits(),
                        "lane {} bits diverge: batched {} vs single {}",
                        lane,
                        b.log_sim,
                        s.log_sim
                    );
                    prop_assert_eq!((b.start, b.end), (s.start, s.end), "lane {} segment", lane);
                }
                (BoundedSimilarity::Pruned, BoundedSimilarity::Pruned) => {}
                (b, s) => {
                    prop_assert!(false, "lane {lane} verdicts diverge: batched {b:?} vs single {s:?}");
                }
            }
        }
    }
}

// ---- full-pipeline matrix ----------------------------------------------

fn pipeline_params(mode: ScanMode, kernel: ScanKernel, threads: usize) -> CluseqParams {
    CluseqParams::default()
        .with_initial_clusters(3)
        .with_significance(6)
        .with_max_depth(5)
        .with_max_iterations(10)
        .with_seed(5)
        .with_scan_mode(mode)
        .with_scan_kernel(kernel)
        .with_threads(threads)
}

/// End-to-end seal on the matrix: under both scan modes, the interpreted
/// and compiled kernels produce byte-identical outcomes — memberships,
/// thresholds (as raw bits), history — at every thread count.
#[test]
fn full_pipeline_exact_kernels_are_byte_identical() {
    let db = clustered_db(120, 3, 90, 30, 0.05, 77);
    for mode in [ScanMode::Incremental, ScanMode::Snapshot] {
        let reference =
            observe(&Cluseq::new(pipeline_params(mode, ScanKernel::Compiled, 1)).run(&db));
        assert!(
            !reference.memberships.is_empty(),
            "{mode:?}: the reference run found no clusters — the matrix \
             comparison would be vacuous"
        );
        for kernel in [ScanKernel::Interpreted, ScanKernel::Compiled] {
            for threads in [1usize, 4] {
                let got = observe(&Cluseq::new(pipeline_params(mode, kernel, threads)).run(&db));
                assert_eq!(
                    got, reference,
                    "{mode:?}/{kernel:?} with {threads} threads diverged from \
                     the compiled serial run"
                );
            }
        }
    }
}
