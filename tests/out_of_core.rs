//! Out-of-core identity suite: the storage backend is a *capacity* knob,
//! never a *results* knob.
//!
//! The contract (see ARCHITECTURE.md, "Out-of-core operation"): a
//! clustering run reads its corpus through the [`SequenceStore`] trait,
//! and every backend — the in-memory [`SequenceDatabase`] or the
//! file-backed [`FileStore`] streaming CSEQ v2 through a bounded window —
//! must produce byte-for-byte identical outcomes, across every scan
//! kernel, thread count, and scan-shard size. The saved model
//! ([`SavedModel`]) must also serialize to identical bytes, because a
//! model trained out-of-core is promised to be interchangeable with one
//! trained in memory. Finally, a checkpoint taken under one backend must
//! resume under the other without a single bit of drift — the checkpoint
//! digests sequence *content*, not the storage mode.

use std::fs;
use std::path::PathBuf;

use cluseq::prelude::*;
use cluseq::seq::store::{write_indexed, FileStore};
use cluseq::seq::{SequenceStore, StoreKind};
use cluseq_test_utils::{clustered_db, observe};

/// A scratch directory under the cargo target tree, wiped per test.
fn tmpdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn workload() -> SequenceDatabase {
    clustered_db(160, 4, 90, 50, 0.05, 91)
}

fn params(kernel: ScanKernel, threads: usize, shard: Option<usize>) -> CluseqParams {
    let mut p = CluseqParams::default()
        .with_initial_clusters(4)
        .with_significance(7)
        .with_max_depth(5)
        .with_max_iterations(8)
        .with_seed(13)
        .with_scan_mode(ScanMode::Snapshot)
        .with_scan_kernel(kernel)
        .with_threads(threads);
    if let Some(s) = shard {
        p = p.with_scan_shard(s);
    }
    p
}

/// The saved model's exact serialization.
fn model_bytes(outcome: &CluseqOutcome) -> Vec<u8> {
    let mut bytes = Vec::new();
    SavedModel::from_outcome(outcome)
        .save(&mut bytes)
        .expect("serialize model");
    bytes
}

#[test]
fn store_kernel_threads_and_shard_grid_is_byte_identical() {
    let dir = tmpdir("ooc_grid");
    let db = workload();
    let path = dir.join("corpus.cseq");
    write_indexed(&db, &path).expect("write corpus");
    let fs = FileStore::open(&path).expect("open corpus");

    let reference_outcome = Cluseq::new(params(ScanKernel::Compiled, 1, None)).run(&db);
    let reference = observe(&reference_outcome);
    let reference_model = model_bytes(&reference_outcome);
    assert!(
        !reference.memberships.is_empty(),
        "the reference run found no clusters — the identity check would be vacuous"
    );

    // A diagonal through the store × kernel × threads × shard space:
    // both kernels, both thread counts, sharded and unsharded (a shard of
    // 17 leaves a partial lane group in every shard), and a cache budget
    // small enough to force evictions on two cells.
    let cells: [(ScanKernel, usize, Option<usize>, Option<usize>); 5] = [
        (ScanKernel::Compiled, 4, None, None),
        (ScanKernel::Compiled, 4, Some(32), Some(1)),
        (ScanKernel::Interpreted, 1, Some(32), None),
        (ScanKernel::Compiled, 4, Some(17), None),
        (ScanKernel::Compiled, 1, None, Some(1)),
    ];
    for backend in ["memory", "file"] {
        let store: &dyn SequenceStore = match backend {
            "memory" => &db,
            _ => &fs,
        };
        for (kernel, threads, shard, cache_mb) in cells {
            let mut p = params(kernel, threads, shard);
            if let Some(mb) = cache_mb {
                p = p.with_model_cache_mb(mb);
            }
            let outcome = Cluseq::new(p).run(store);
            let what = format!("{backend}/{kernel:?}/t{threads}/shard{shard:?}");
            assert_eq!(
                observe(&outcome),
                reference,
                "{what} diverged from the in-memory serial reference"
            );
            assert_eq!(
                model_bytes(&outcome),
                reference_model,
                "{what}: saved model bytes differ"
            );
        }
    }
}

#[test]
fn tiny_read_window_changes_nothing_but_io() {
    // A 4 KiB window forces the reader to re-fetch constantly; the run
    // must still be bit-identical to the fully resident one.
    let dir = tmpdir("ooc_window");
    let db = workload();
    let path = dir.join("corpus.cseq");
    write_indexed(&db, &path).expect("write corpus");
    let tiny = FileStore::open_windowed(&path, 4096).expect("open windowed");

    let reference = observe(&Cluseq::new(params(ScanKernel::Compiled, 4, Some(32))).run(&db));
    let got = observe(&Cluseq::new(params(ScanKernel::Compiled, 4, Some(32))).run(&tiny));
    assert_eq!(got, reference, "4 KiB window diverged from in-memory run");
}

#[test]
fn checkpoint_crosses_store_backends_without_drift() {
    // Golden: uninterrupted in-memory run. Then checkpoint the same run
    // and resume it through the file backend — the digest covers content,
    // not storage, so the switch must be invisible in the output.
    let dir = tmpdir("ooc_resume");
    let db = workload();
    let path = dir.join("corpus.cseq");
    write_indexed(&db, &path).expect("write corpus");
    let fs = FileStore::open(&path).expect("open corpus");

    let golden = observe(&Cluseq::new(params(ScanKernel::Compiled, 1, None)).run(&db));

    let ckpt_dir = dir.join("ckpt");
    let p = params(ScanKernel::Compiled, 1, None).with_checkpoints(&ckpt_dir, 1);
    let _ = Cluseq::new(p).run(&db);
    let mut files: Vec<PathBuf> = fs::read_dir(&ckpt_dir)
        .expect("checkpoint dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    files.sort();
    assert!(files.len() >= 2, "need a mid-run checkpoint to resume from");
    let mid = &files[files.len() / 2];
    let ckpt = Checkpoint::load_path(mid).expect("checkpoint loads");
    assert_eq!(
        ckpt.store,
        StoreKind::Memory,
        "checkpoint records the backend it was taken under"
    );
    ckpt.verify_database(&fs)
        .expect("content digest matches across backends");

    let resumed = observe(&Cluseq::resume(ckpt, &fs));
    assert_eq!(
        resumed, golden,
        "resuming a memory-store checkpoint on the file store diverged"
    );
}
