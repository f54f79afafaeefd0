//! Forward-compatibility anchors for the checkpoint format: committed
//! checkpoint files — one per on-disk version — that every future reader
//! must keep loading and resuming correctly.
//!
//! Each fixture (`tests/golden/checkpoint_v{1,2,3}.ckpt`) was produced by
//! the `#[ignore]`d `regenerate_the_fixture` test at the time its format
//! was current: the first checkpoint of a fixed seeded run, with the
//! scratch directory in its stored policy scrubbed to a relative path
//! before committing. `checkpoint_v4_batched.ckpt` is a v4 file written
//! the same way by the last version that had the retired `batched` scan
//! kernel, with the run switched to the snapshot scan and that kernel; it
//! pins what old kernel tags mean to today's reader. Because the whole pipeline is deterministic,
//! resuming a fixture against the same regenerated workload must still
//! land on the same final clustering as a fresh uninterrupted run — so
//! these tests fail if a format change breaks old files *or* silently
//! changes their meaning. A breaking change must bump
//! `Checkpoint::VERSION`, keep the old decode paths, and add a new
//! fixture alongside the existing ones.

use std::fs;
use std::path::PathBuf;

use cluseq::prelude::*;

fn fixture_path(name: &str) -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/cluseq; the fixtures live with the
    // repo-level tests.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

/// The exact workload the fixture was generated from.
fn workload() -> SequenceDatabase {
    SyntheticSpec {
        sequences: 60,
        clusters: 2,
        avg_len: 50,
        alphabet: 12,
        outlier_fraction: 0.0,
        seed: 2003,
    }
    .generate()
}

/// The exact parameters the fixture was generated with (minus the scratch
/// checkpoint directory, which is scrubbed to `ckpts` in the fixture).
fn generation_params() -> CluseqParams {
    CluseqParams::default()
        .with_initial_clusters(2)
        .with_significance(5)
        .with_max_depth(5)
        .with_max_iterations(8)
        .with_seed(17)
}

/// Loads a committed fixture, checks its structural shape, and proves
/// resuming it matches a fresh run of `params` bit for bit.
fn assert_fixture_resumes_identically(name: &str, params: CluseqParams) -> Checkpoint {
    let bytes = fs::read(fixture_path(name)).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}; regenerate with \
             `cargo test -p cluseq --test checkpoint_golden -- --ignored`",
            fixture_path(name).display()
        )
    });
    let ckpt =
        Checkpoint::load(&mut bytes.as_slice()).expect("a committed checkpoint must keep loading");

    // Structural sanity: the fixture is a mid-run boundary, not an
    // end-state, so a resume exercises real iterations.
    assert!(ckpt.completed >= 1, "fixture captures a completed boundary");
    assert!(!ckpt.stable, "fixture must not already be at the fixpoint");
    assert!(!ckpt.clusters.is_empty());
    assert_eq!(ckpt.records.len(), ckpt.completed);

    let db = workload();
    ckpt.verify_database(&db)
        .expect("the guard must keep accepting the generating workload");

    // Meaning-preservation: resuming the old file must land on the same
    // clustering as running from scratch today, including the telemetry
    // counters. The stored policy is dropped before resuming so the test
    // leaves no checkpoint files in the workspace (checkpointing on/off
    // equivalence is proven separately in checkpoint_resume.rs).
    let mut resumable = ckpt.clone();
    resumable.params = resumable.params.without_checkpoints();

    let mut fresh_report = RunReport::new();
    let fresh = Cluseq::new(params).run_traced(&db, &mut fresh_report, None);

    let mut resumed_report = RunReport::new();
    let resumed = Cluseq::resume_traced(resumable, &db, &mut resumed_report, None);

    assert_eq!(fresh.iterations, resumed.iterations);
    assert_eq!(fresh.final_log_t.to_bits(), resumed.final_log_t.to_bits());
    assert_eq!(fresh.best_cluster, resumed.best_cluster);
    assert_eq!(fresh.outliers, resumed.outliers);
    assert_eq!(fresh.history, resumed.history);
    // A replayed record keeps the automaton builds of the code that wrote
    // the fixture: `pst_recompiles` counts work, not meaning, and the scan
    // may do less of it today. So the expected report is the fresh run's
    // with each replayed record's `pst_recompiles` taken from the fixture;
    // every other counter, and every record the resume computes itself,
    // is compared byte for byte.
    let mut expected_report = fresh_report;
    for (record, stored) in expected_report.iterations.iter_mut().zip(&ckpt.records) {
        record.scan.pst_recompiles = stored.scan.pst_recompiles;
    }
    assert_eq!(
        expected_report.counters_json(),
        resumed_report.counters_json(),
        "telemetry counters must survive the format boundary"
    );
    ckpt
}

#[test]
fn the_v1_fixture_still_loads_and_resumes_identically() {
    let ckpt = assert_fixture_resumes_identically("checkpoint_v1.ckpt", generation_params());
    assert_eq!(ckpt.completed, 1, "fixture captures the first boundary");
    // v1 files predate the scan-kernel field; the loader must default it
    // to the compiled kernel (safe: the kernels are bit-identical).
    assert_eq!(ckpt.params.scan_kernel, ScanKernel::Compiled);
}

#[test]
fn the_v2_fixture_loads_and_resumes_identically() {
    let ckpt = assert_fixture_resumes_identically(
        "checkpoint_v2.ckpt",
        generation_params().with_scan_kernel(ScanKernel::Interpreted),
    );
    assert_eq!(ckpt.completed, 1, "fixture captures the first boundary");
    // v2 stores the kernel choice; the fixture was generated with the
    // non-default interpreted kernel precisely so a lossy decode (falling
    // back to the default) would be caught here.
    assert_eq!(ckpt.params.scan_kernel, ScanKernel::Interpreted);
    // v2 predates the incremental engine; the decode defaults are an
    // engine that is off with a cold cache — the true v2-era state.
    assert!(!ckpt.params.incremental);
    assert!(ckpt.cache.is_empty());
}

#[test]
fn the_v3_fixture_loads_and_resumes_identically() {
    let ckpt = assert_fixture_resumes_identically(
        "checkpoint_v3.ckpt",
        generation_params().with_incremental(true),
    );
    // v3 stores the incremental flag and the similarity cache; the
    // fixture was generated with the non-default engine on precisely so
    // a lossy decode (dropping the cache, falling back to off) would be
    // caught here — a resumed run with a cold cache would report
    // different pairs_scored/pairs_reused counters than the fresh run.
    assert!(ckpt.params.incremental);
    assert!(
        !ckpt.cache.is_empty(),
        "a boundary of an incremental run must carry cache columns"
    );
}

#[test]
fn the_v4_batched_fixture_resumes_as_compiled() {
    let ckpt = assert_fixture_resumes_identically(
        "checkpoint_v4_batched.ckpt",
        generation_params().with_scan_mode(ScanMode::Snapshot),
    );
    assert_eq!(ckpt.completed, 1, "fixture captures the first boundary");
    // Tag 2 named the batched kernel: the compiled tables under the lane
    // driver. It loads as the compiled kernel, and the resume above
    // proves the arithmetic is unchanged.
    assert_eq!(ckpt.params.scan_kernel, ScanKernel::Compiled);
    assert_eq!(ckpt.params.scan_mode, ScanMode::Snapshot);
}

#[test]
fn a_quantized_kernel_tag_is_refused_by_name() {
    let bytes = fs::read(fixture_path("checkpoint_v4_batched.ckpt")).expect("read fixture");
    let ckpt = Checkpoint::load(&mut bytes.as_slice()).expect("tag 2 loads");
    // Re-saving writes the compiled tag; the kernel tag is the one byte
    // where the two files differ.
    let mut resaved = Vec::new();
    ckpt.save(&mut resaved).expect("Vec write cannot fail");
    assert_eq!(resaved.len(), bytes.len());
    let differing: Vec<usize> = (0..bytes.len())
        .filter(|&i| bytes[i] != resaved[i])
        .collect();
    assert_eq!(differing.len(), 1, "only the kernel tag may differ");
    let at = differing[0];
    assert_eq!((bytes[at], resaved[at]), (2, 1));

    // The same bytes with tag 3 name a kernel whose scores no remaining
    // kernel reproduces.
    let mut tagged = bytes;
    tagged[at] = 3;
    let err = Checkpoint::load(&mut tagged.as_slice()).expect_err("tag 3 must be refused");
    assert!(err.to_string().contains("quantized kernel"), "{err}");
}

/// Regenerates the *current-format* fixture (today: v3). Run explicitly
/// after an *intentional* format revision (with a version bump and
/// back-compat decode paths for every older fixture):
///
/// ```sh
/// cargo test -p cluseq --test checkpoint_golden -- --ignored
/// ```
#[test]
#[ignore = "writes the committed fixture; run by hand after a format revision"]
fn regenerate_the_fixture() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden-regen");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");

    let db = workload();
    Cluseq::new(
        generation_params()
            .with_incremental(true)
            .with_checkpoints(&dir, 1),
    )
    .run(&db);

    // The fixture must exercise everything v3 added, so pick the *last*
    // mid-run boundary whose similarity cache is warm (the first boundary
    // always has a cold cache: freshly seeded clusters mutate during
    // their first scan, which evicts their columns). Boundaries past the
    // first are delta files; `load_path` resolves the chain, and the
    // fixture is re-saved self-contained so the bare reader keeps
    // accepting it.
    let mut best: Option<Checkpoint> = None;
    for entry in fs::read_dir(&dir).expect("scratch dir readable") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "ckpt") {
            continue;
        }
        let ckpt = Checkpoint::load_path(&path).expect("every boundary loads");
        if ckpt.stable || ckpt.cache.is_empty() {
            continue;
        }
        if best.as_ref().is_none_or(|b| ckpt.completed > b.completed) {
            best = Some(ckpt);
        }
    }
    let mut ckpt = best.expect("some mid-run boundary must have a warm cache");

    // Scrub the machine-local scratch path before committing; the cadence
    // is preserved.
    ckpt.params = ckpt.params.with_checkpoints("ckpts", 1);

    let mut out = Vec::new();
    ckpt.save(&mut out).expect("Vec write cannot fail");
    let path = fixture_path("checkpoint_v3.ckpt");
    fs::write(&path, out).expect("write fixture");
    eprintln!(
        "fixture rewritten at {} (boundary {}, {} cache columns)",
        path.display(),
        ckpt.completed,
        ckpt.cache.len()
    );
}
