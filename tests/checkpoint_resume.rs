//! Crash-recovery suite: killing a run at *every* checkpoint boundary and
//! resuming must reproduce the uninterrupted run bit for bit.
//!
//! The contract (see DESIGN.md, "Checkpoints & crash recovery"): a
//! checkpoint captures the complete loop state — cluster models with
//! member lists, RNG stream position, threshold trajectory, iteration
//! records — so `Cluseq::resume` continues exactly where the original
//! process stopped. The golden run writes a checkpoint after every
//! iteration; each retained file then stands in for "the process was
//! killed right after this boundary", and the resumed outcome plus its
//! telemetry `counters_json()` must equal the golden run's byte for byte.
//! The matrix covers both scan modes at 1 and 4 threads, since resumption
//! must also be independent of parallelism.

use std::fs;
use std::path::{Path, PathBuf};

use cluseq::prelude::*;

/// A scratch directory under the cargo target tree, wiped per test.
fn tmpdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn workload() -> SequenceDatabase {
    SyntheticSpec {
        sequences: 120,
        clusters: 3,
        avg_len: 90,
        alphabet: 30,
        outlier_fraction: 0.05,
        seed: 77,
    }
    .generate()
}

const MAX_ITERS: usize = 10;

fn params(mode: ScanMode, threads: usize, dir: &Path, every: usize) -> CluseqParams {
    CluseqParams::default()
        .with_initial_clusters(3)
        .with_significance(6)
        .with_max_depth(5)
        .with_max_iterations(MAX_ITERS)
        .with_seed(5)
        .with_scan_mode(mode)
        .with_threads(threads)
        .with_checkpoints(dir, every)
}

/// Full structural identity of two outcomes, thresholds compared as raw
/// bits so a one-ulp drift fails.
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
    assert_eq!(
        golden.cluster_count(),
        resumed.cluster_count(),
        "{what}: cluster count"
    );
    for (g, r) in golden.clusters.iter().zip(&resumed.clusters) {
        assert_eq!(g.id, r.id, "{what}: cluster id");
        assert_eq!(g.seed, r.seed, "{what}: cluster seed");
        assert_eq!(g.members, r.members, "{what}: cluster members");
    }
}

/// Reads every retained checkpoint, oldest first, *before* any resume can
/// overwrite them (resumed runs keep checkpointing into the same
/// directory, and record timings make rewritten files differ in their
/// wall-clock bytes).
fn snapshot_checkpoints(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read checkpoint dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let bytes = fs::read(&p).expect("read checkpoint");
            (p, bytes)
        })
        .collect()
}

/// The tentpole proof: a golden run checkpointing every iteration, then
/// one resume per retained boundary, each compared bit-for-bit.
fn kill_at_every_boundary(mode: ScanMode, threads: usize, name: &str) {
    let dir = tmpdir(name);
    let db = workload();

    let mut golden_report = RunReport::new();
    let golden =
        Cluseq::new(params(mode, threads, &dir, 1)).run_traced(&db, &mut golden_report, None);
    let golden_counters = golden_report.counters_json();

    let files = snapshot_checkpoints(&dir);
    assert_eq!(
        files.len(),
        golden.iterations,
        "every=1 must retain one checkpoint per iteration"
    );
    assert!(
        files.len() >= 2,
        "workload must take several iterations or the sweep is vacuous"
    );

    for (path, bytes) in &files {
        let what = path.display().to_string();
        let ckpt = Checkpoint::load(&mut bytes.as_slice())
            .unwrap_or_else(|e| panic!("{what}: load failed: {e}"));
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

    // The last checkpoint is the end state itself — the fixpoint, or the
    // iteration cap — so resuming from it runs no further iterations.
    let (_, last) = files.last().expect("at least one checkpoint");
    let ckpt = Checkpoint::load(&mut last.as_slice()).expect("final checkpoint loads");
    assert!(
        ckpt.stable || ckpt.completed == MAX_ITERS,
        "final checkpoint captures either the fixpoint or the cap"
    );
    assert_eq!(ckpt.completed, golden.iterations);
}

#[test]
fn kill_at_every_boundary_incremental_t1() {
    kill_at_every_boundary(ScanMode::Incremental, 1, "kill-incremental-t1");
}

#[test]
fn kill_at_every_boundary_incremental_t4() {
    kill_at_every_boundary(ScanMode::Incremental, 4, "kill-incremental-t4");
}

#[test]
fn kill_at_every_boundary_snapshot_t1() {
    kill_at_every_boundary(ScanMode::Snapshot, 1, "kill-snapshot-t1");
}

#[test]
fn kill_at_every_boundary_snapshot_t4() {
    kill_at_every_boundary(ScanMode::Snapshot, 4, "kill-snapshot-t4");
}

/// Checkpointing must be a pure observer of the run: turning it on (which
/// forces iteration-record assembly even without a telemetry observer)
/// cannot change the clustering result.
#[test]
fn checkpointing_does_not_perturb_the_run() {
    let dir = tmpdir("no-perturb");
    let db = workload();
    let with = Cluseq::new(params(ScanMode::Incremental, 1, &dir, 1)).run(&db);
    let without =
        Cluseq::new(params(ScanMode::Incremental, 1, &dir, 1).without_checkpoints()).run(&db);
    assert_same_outcome(&without, &with, "checkpointing on vs off");
}

/// `Cluseq::resume` (no observer) must give the same outcome as the
/// observed variant: record availability in checkpoints is independent of
/// whoever watched the original run.
#[test]
fn resume_without_an_observer_matches() {
    let dir = tmpdir("resume-noop");
    let db = workload();
    let golden = Cluseq::new(params(ScanMode::Snapshot, 2, &dir, 1)).run(&db);

    let (_, bytes) = snapshot_checkpoints(&dir)
        .into_iter()
        .next()
        .expect("first checkpoint");
    let ckpt = Checkpoint::load(&mut bytes.as_slice()).expect("loads");
    let resumed = Cluseq::resume(ckpt, &db);
    assert_same_outcome(&golden, &resumed, "noop-observer resume");
}

/// A sparser cadence writes only boundary files — plus the fixpoint, which
/// is always captured so `--resume` never repeats completed work.
#[test]
fn cadence_writes_boundaries_plus_the_fixpoint() {
    let dir = tmpdir("cadence");
    let db = workload();
    let outcome = Cluseq::new(params(ScanMode::Incremental, 1, &dir, 4)).run(&db);

    let completed: Vec<usize> = snapshot_checkpoints(&dir)
        .iter()
        .map(|(p, _)| {
            let stem = p.file_stem().unwrap().to_str().unwrap();
            stem.strip_prefix("cluseq-").unwrap().parse().unwrap()
        })
        .collect();
    assert!(!completed.is_empty(), "at least the fixpoint is written");
    for &c in &completed {
        assert!(
            c % 4 == 0 || c == outcome.iterations,
            "unexpected checkpoint at iteration {c}"
        );
    }
    assert_eq!(
        *completed.last().unwrap(),
        outcome.iterations,
        "the fixpoint checkpoint is always present"
    );
}

/// A resumed run keeps checkpointing under the stored policy: wipe
/// everything after the first boundary, resume, and the later files come
/// back.
#[test]
fn resume_continues_writing_checkpoints() {
    let dir = tmpdir("resume-continues");
    let db = workload();
    let golden = Cluseq::new(params(ScanMode::Incremental, 1, &dir, 1)).run(&db);

    let files = snapshot_checkpoints(&dir);
    assert!(files.len() >= 2);
    let (first_path, first_bytes) = &files[0];
    for (path, _) in &files[1..] {
        fs::remove_file(path).expect("drop later checkpoint");
    }
    assert_eq!(
        Checkpoint::latest_in(&dir).expect("scan").as_deref(),
        Some(first_path.as_path())
    );

    let ckpt = Checkpoint::load(&mut first_bytes.as_slice()).expect("loads");
    let resumed = Cluseq::resume(ckpt, &db);
    assert_same_outcome(&golden, &resumed, "resume after wipe");

    let after = snapshot_checkpoints(&dir);
    assert_eq!(
        after.len(),
        files.len(),
        "the resumed run must rewrite every later boundary"
    );
    let final_ckpt = Checkpoint::load(&mut after.last().unwrap().1.as_slice())
        .expect("rewritten fixpoint checkpoint loads");
    assert!(final_ckpt.stable);
    assert_eq!(final_ckpt.completed, golden.iterations);
}

/// The database guard: a checkpoint must name what differs when handed the
/// wrong database, and `resume` must refuse to run on it.
#[test]
fn resuming_against_a_different_database_is_rejected() {
    let dir = tmpdir("wrong-db");
    let db = workload();
    Cluseq::new(params(ScanMode::Incremental, 1, &dir, 1)).run(&db);

    let (_, bytes) = snapshot_checkpoints(&dir)
        .into_iter()
        .next()
        .expect("first checkpoint");
    let ckpt = Checkpoint::load(&mut bytes.as_slice()).expect("loads");

    let other = SyntheticSpec {
        sequences: 120,
        clusters: 3,
        avg_len: 90,
        alphabet: 30,
        outlier_fraction: 0.05,
        seed: 78, // different content, same shape
    }
    .generate();
    let err = ckpt
        .verify_database(&other)
        .expect_err("content mismatch must be caught");
    assert!(err.contains("content"), "unhelpful guard message: {err}");

    let smaller = SyntheticSpec {
        sequences: 60,
        clusters: 3,
        avg_len: 90,
        alphabet: 30,
        outlier_fraction: 0.05,
        seed: 77,
    }
    .generate();
    let err = ckpt
        .verify_database(&smaller)
        .expect_err("size mismatch must be caught");
    assert!(
        err.contains("sequence count"),
        "unhelpful guard message: {err}"
    );
}

#[test]
#[should_panic(expected = "cannot resume")]
fn resume_panics_on_a_mismatched_database() {
    let dir = tmpdir("wrong-db-panic");
    let db = workload();
    Cluseq::new(params(ScanMode::Incremental, 1, &dir, 1)).run(&db);
    let (_, bytes) = snapshot_checkpoints(&dir)
        .into_iter()
        .next()
        .expect("first checkpoint");
    let ckpt = Checkpoint::load(&mut bytes.as_slice()).expect("loads");
    let other = SequenceDatabase::from_strs(["abc", "cba"]);
    Cluseq::resume(ckpt, &other);
}
