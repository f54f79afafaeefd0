//! Incremental-engine suite: turning `CluseqParams::incremental` on must
//! never change any observable of a run — only how much work the run
//! performs — and the delta checkpoints the engine writes must survive a
//! kill at every boundary exactly like the self-contained kind.
//!
//! The contract (see `cluseq_core::incremental`): the similarity cache
//! only ever answers a (sequence, cluster) pair with the bit-identical
//! result a fresh evaluation would produce, so the incremental run is
//! byte-for-byte the full run — memberships, thresholds (compared as raw
//! bits), history, and per-iteration telemetry. The savings show up
//! solely in the `pairs_reused` / `clusters_dirty` / `pst_recompiles`
//! counters, which this suite also pins down: zero with the engine off,
//! and ≥ 5× reuse at the converged steady state with it on.

use std::fs;
use std::path::{Path, PathBuf};

use cluseq::prelude::*;
use cluseq_test_utils::{clustered_db, observe};
use proptest::prelude::*;

fn tmpdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("incremental")
        .join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn workload() -> SequenceDatabase {
    clustered_db(120, 3, 90, 30, 0.05, 77)
}

fn params(mode: ScanMode, kernel: ScanKernel, threads: usize) -> CluseqParams {
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

// ---- byte-identity -----------------------------------------------------

/// The tentpole invariant: across both scan modes, both kernels, and
/// serial/parallel scoring, the incremental engine reproduces the full
/// rescoring run exactly. The full reference is computed once per
/// (mode, kernel) at one thread — determinism across threads is already
/// proven by the determinism suite, so any incremental divergence at four
/// threads is the cache's fault, not the thread pool's.
#[test]
fn incremental_runs_are_byte_identical_to_full_rescoring() {
    let db = workload();
    for mode in [ScanMode::Incremental, ScanMode::Snapshot] {
        for kernel in [ScanKernel::Interpreted, ScanKernel::Compiled] {
            let reference = observe(&Cluseq::new(params(mode, kernel, 1)).run(&db));
            assert!(
                !reference.memberships.is_empty(),
                "{mode:?}/{kernel:?}: the reference run found no clusters — \
                 the comparison would be vacuous"
            );
            for threads in [1usize, 4] {
                let incr = observe(
                    &Cluseq::new(params(mode, kernel, threads).with_incremental(true)).run(&db),
                );
                assert_eq!(
                    incr, reference,
                    "{mode:?}/{kernel:?} with {threads} threads: the \
                     incremental engine changed the clustering"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property form of the same invariant on arbitrary small workloads
    /// and seeds: whatever the data looks like, cache reuse must be
    /// invisible in the outcome.
    #[test]
    fn incremental_matches_full_on_arbitrary_workloads(
        (sequences, clusters, alphabet, data_seed) in
            (30usize..70, 2usize..4, 6u64..24, 0u64..500),
        run_seed in 0u64..100,
        snapshot in proptest::bool::ANY,
        compiled in proptest::bool::ANY,
        threads in 1usize..5,
    ) {
        let db = clustered_db(sequences, clusters, 40, alphabet as usize, 0.0, data_seed);
        let p = CluseqParams::default()
            .with_initial_clusters(2)
            .with_significance(4)
            .with_max_depth(4)
            .with_max_iterations(6)
            .with_seed(run_seed)
            .with_scan_mode(if snapshot { ScanMode::Snapshot } else { ScanMode::Incremental })
            .with_scan_kernel(if compiled { ScanKernel::Compiled } else { ScanKernel::Interpreted })
            .with_threads(threads);

        let full = observe(&Cluseq::new(p.clone()).run(&db));
        let incr = observe(&Cluseq::new(p.with_incremental(true)).run(&db));
        prop_assert_eq!(incr, full);
    }
}

// ---- counter accounting ------------------------------------------------

/// With the engine off, the three incremental counters stay hard zero in
/// every iteration record — the v1/v2 golden fixtures rely on this (their
/// decode defaults the fields to 0, which must equal a fresh run's value).
#[test]
fn counters_are_zero_with_the_engine_off() {
    let db = workload();
    let mut report = RunReport::new();
    Cluseq::new(params(ScanMode::Incremental, ScanKernel::Compiled, 1)).run_traced(
        &db,
        &mut report,
        None,
    );
    assert!(!report.iterations.is_empty());
    for rec in &report.iterations {
        assert_eq!(rec.scan.pairs_reused, 0, "iteration {}", rec.iteration);
        assert_eq!(rec.scan.clusters_dirty, 0, "iteration {}", rec.iteration);
        assert_eq!(rec.scan.pst_recompiles, 0, "iteration {}", rec.iteration);
    }
}

/// The work accounting balances: in every iteration, the pairs the
/// incremental run scored plus the pairs it answered from the cache equal
/// the pairs the full run scored — the cache only substitutes for work,
/// it never creates or hides any. All the scan's *observable* metrics
/// (joins, membership changes) are identical.
#[test]
fn reused_plus_scored_equals_the_full_runs_work() {
    let db = workload();
    let p = params(ScanMode::Incremental, ScanKernel::Compiled, 1);

    let mut full = RunReport::new();
    Cluseq::new(p.clone()).run_traced(&db, &mut full, None);
    let mut incr = RunReport::new();
    Cluseq::new(p.with_incremental(true)).run_traced(&db, &mut incr, None);

    assert_eq!(full.iterations.len(), incr.iterations.len());
    for (f, i) in full.iterations.iter().zip(&incr.iterations) {
        let it = f.iteration;
        assert_eq!(
            i.scan.pairs_scored + i.scan.pairs_reused,
            f.scan.pairs_scored,
            "iteration {it}: scored + reused must equal the full run's work"
        );
        assert_eq!(i.scan.joins, f.scan.joins, "iteration {it}");
        assert_eq!(i.scan.new_joins, f.scan.new_joins, "iteration {it}");
        assert_eq!(
            i.scan.membership_changes, f.scan.membership_changes,
            "iteration {it}"
        );
    }
    let total_reused: u64 = incr.iterations.iter().map(|r| r.scan.pairs_reused).sum();
    assert!(
        total_reused > 0,
        "the run never reused a single pair — the cache never warmed up \
         and the suite is not exercising the engine"
    );
}

/// The acceptance bar: once the clustering converges, scans run almost
/// entirely from the cache. This workload (more planted clusters, so the
/// stable majority dominates any cluster still absorbing members) reaches
/// a fixpoint whose final scan follows an iteration that changed no
/// model — nearly every pair is answered from its column, at least 5×
/// more reused than freshly scored.
#[test]
fn converged_steady_state_reuses_at_least_five_to_one() {
    let db = clustered_db(320, 8, 90, 30, 0.02, 77);
    let mut report = RunReport::new();
    let outcome = Cluseq::new(
        CluseqParams::default()
            .with_initial_clusters(8)
            .with_significance(8)
            .with_max_depth(6)
            .with_max_iterations(15)
            .with_seed(3)
            .with_incremental(true),
    )
    .run_traced(&db, &mut report, None);
    assert!(
        outcome.iterations < 15,
        "the workload must converge before the iteration cap, or no \
         steady-state iteration exists to measure"
    );

    let last = report.iterations.last().expect("at least one iteration");
    assert!(
        last.scan.pairs_reused > 0 && last.scan.pairs_reused >= 5 * last.scan.pairs_scored,
        "steady-state scan must reuse at least 5x what it scores; got \
         {} reused vs {} scored",
        last.scan.pairs_reused,
        last.scan.pairs_scored
    );
}

// ---- delta checkpoints under crashes -----------------------------------

/// Structural identity of two outcomes (the crash-recovery suite's shape).
fn assert_same_outcome(golden: &CluseqOutcome, resumed: &CluseqOutcome, what: &str) {
    assert_eq!(golden.iterations, resumed.iterations, "{what}: iterations");
    assert_eq!(
        golden.final_log_t.to_bits(),
        resumed.final_log_t.to_bits(),
        "{what}: final threshold"
    );
    assert_eq!(golden.history, resumed.history, "{what}: history");
    assert_eq!(
        golden.best_cluster, resumed.best_cluster,
        "{what}: best_cluster"
    );
    assert_eq!(golden.outliers, resumed.outliers, "{what}: outliers");
    for (g, r) in golden.clusters.iter().zip(&resumed.clusters) {
        assert_eq!(g.id, r.id, "{what}: cluster id");
        assert_eq!(g.members, r.members, "{what}: cluster members");
    }
}

fn checkpoint_paths(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read checkpoint dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .collect();
    files.sort();
    files
}

/// Kill-at-every-boundary over *delta* checkpoints: an incremental run
/// checkpointing every iteration writes one self-contained file (the
/// first boundary) followed by deltas; resolving each boundary through
/// its base chain and resuming must reproduce the uninterrupted run bit
/// for bit, telemetry counters included (the resume also restores the
/// similarity cache, so even `pairs_reused` must match).
fn kill_at_every_delta_boundary(mode: ScanMode, threads: usize, name: &str) {
    let dir = tmpdir(name);
    let db = workload();
    let p = params(mode, ScanKernel::Compiled, threads)
        .with_incremental(true)
        .with_checkpoints(&dir, 1);

    let mut golden_report = RunReport::new();
    let golden = Cluseq::new(p).run_traced(&db, &mut golden_report, None);
    let golden_counters = golden_report.counters_json();

    let files = checkpoint_paths(&dir);
    assert_eq!(files.len(), golden.iterations);
    assert!(files.len() >= 2, "the sweep needs several boundaries");

    // The on-disk framing: the first boundary is self-contained, every
    // later one is a delta the bare reader refuses by name.
    let first = fs::read(&files[0]).expect("read first boundary");
    Checkpoint::load(&mut first.as_slice()).expect("the first boundary is self-contained");
    for path in &files[1..] {
        let bytes = fs::read(path).expect("read boundary");
        let err = Checkpoint::load(&mut bytes.as_slice())
            .expect_err("a later boundary of an incremental run is a delta");
        assert!(
            err.to_string().contains("delta"),
            "{}: undescriptive refusal: {err}",
            path.display()
        );
    }

    // Resolve every boundary through its base chain *before* resuming —
    // resumed runs rewrite later boundary files in the same directory.
    let resolved: Vec<Checkpoint> = files
        .iter()
        .map(|p| Checkpoint::load_path(p).expect("every boundary resolves through its chain"))
        .collect();

    for (path, ckpt) in files.iter().zip(resolved) {
        let what = path.display().to_string();
        ckpt.verify_database(&db)
            .unwrap_or_else(|e| panic!("{what}: guard rejected the original database: {e}"));
        let mut report = RunReport::new();
        let resumed = Cluseq::resume_traced(ckpt, &db, &mut report, None);
        assert_same_outcome(&golden, &resumed, &what);
        assert_eq!(
            golden_counters,
            report.counters_json(),
            "{what}: resumed telemetry counters must be byte-identical"
        );
    }
}

#[test]
fn kill_at_every_delta_boundary_incremental_t1() {
    kill_at_every_delta_boundary(ScanMode::Incremental, 1, "kill-delta-incremental-t1");
}

#[test]
fn kill_at_every_delta_boundary_snapshot_t4() {
    kill_at_every_delta_boundary(ScanMode::Snapshot, 4, "kill-delta-snapshot-t4");
}

/// Write-side failpoints on the delta path: an injected failure mid-write
/// never leaves a partial file, never disturbs an existing boundary, and
/// the clean retry produces a delta that still resolves through its base.
#[test]
fn injected_failures_on_delta_writes_never_corrupt_the_chain() {
    let dir = tmpdir("delta-failpoints");
    let db = workload();
    Cluseq::new(
        params(ScanMode::Incremental, ScanKernel::Compiled, 1)
            .with_incremental(true)
            .with_checkpoints(&dir, 1),
    )
    .run(&db);

    let files = checkpoint_paths(&dir);
    assert!(files.len() >= 2);
    let target = files.last().expect("a final boundary").clone();
    let resolved = Checkpoint::load_path(&target).expect("resolves");
    let base = resolved.completed - 1; // every=1: the previous boundary
    let before = fs::read(&target).expect("read the delta as written");

    // The delta re-encodes what the run wrote: every live cluster was
    // dirty relative to the previous boundary or carried unchanged, and
    // the changed set below reproduces that framing byte for byte.
    let changed: std::collections::BTreeSet<usize> = {
        let prev_path = files[files.len() - 2].clone();
        let prev = Checkpoint::load_path(&prev_path).expect("base resolves");
        resolved
            .clusters
            .iter()
            .filter(|c| {
                prev.clusters
                    .iter()
                    .find(|b| b.id == c.id)
                    .is_none_or(|b| b.members != c.members || b.seed != c.seed)
            })
            .map(|c| c.id)
            .collect()
    };

    for k in [0u64, 1, 7, 64, before.len() as u64 / 2] {
        let err = resolved
            .write_atomic_delta_with(&target, base, &changed, &FailPlan::error_after(k))
            .expect_err("a stream cut at byte {k} cannot succeed");
        assert!(
            err.to_string().contains("injected"),
            "byte {k}: unexpected error {err}"
        );
        assert_eq!(
            fs::read(&target).expect("still readable"),
            before,
            "byte {k}: the previous boundary must survive a failed rewrite"
        );
    }

    // The clean retry still resolves through the chain to the same state.
    resolved
        .write_atomic_delta(&target, base, &changed)
        .expect("clean delta write succeeds");
    let reread = Checkpoint::load_path(&target).expect("the rewritten delta resolves");
    assert_eq!(reread.completed, resolved.completed);
    assert_eq!(reread.clusters.len(), resolved.clusters.len());
    for (a, b) in resolved.clusters.iter().zip(&reread.clusters) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.members, b.members);
    }
}

/// Resuming an interrupted incremental run keeps writing *resumable*
/// files: wipe everything after the first (self-contained) boundary,
/// resume, and every later boundary comes back loadable through its
/// chain with the final one at the fixpoint.
#[test]
fn a_resumed_incremental_run_rebuilds_a_loadable_chain() {
    let dir = tmpdir("delta-resume-rebuild");
    let db = workload();
    let p = params(ScanMode::Incremental, ScanKernel::Compiled, 1)
        .with_incremental(true)
        .with_checkpoints(&dir, 1);
    let golden = Cluseq::new(p).run(&db);

    let files = checkpoint_paths(&dir);
    assert!(files.len() >= 2);
    let first = Checkpoint::load_path(&files[0]).expect("first boundary loads");
    for path in &files[1..] {
        fs::remove_file(path).expect("drop later boundary");
    }

    let resumed = Cluseq::resume(first, &db);
    assert_same_outcome(&golden, &resumed, "resume after wipe");

    let after = checkpoint_paths(&dir);
    assert_eq!(
        after.len(),
        files.len(),
        "the resumed run must rewrite every later boundary"
    );
    for path in &after {
        Checkpoint::load_path(path).expect("every rewritten boundary resolves");
    }
    let final_ckpt = Checkpoint::load_path(after.last().expect("final boundary"))
        .expect("fixpoint boundary resolves");
    assert!(final_ckpt.stable);
    assert_eq!(final_ckpt.completed, golden.iterations);
}
