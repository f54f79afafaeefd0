//! Tracing suite: the live trace layer must be a pure observer of the
//! run, and its JSONL stream must survive crashes and resumes.
//!
//! The contract (see DESIGN.md, "Observability"):
//!
//! * clustering output is **byte-identical** with tracing on vs off, for
//!   every scan kernel and thread count;
//! * registry counter totals equal the [`RunReport`] telemetry counters
//!   and are bit-identical across thread counts;
//! * every JSONL event parses, carries its schema's required fields, and
//!   the `seq` numbers increase without gaps;
//! * a crash can tear at most the final line, and both the reader and a
//!   reopening sink tolerate any mid-line truncation;
//! * a resumed run appends to the same file and
//!   [`sink::stitch_iterations`] reconstructs one continuous iteration
//!   history across the splice.

use std::fs;
use std::path::{Path, PathBuf};

use cluseq::core::trace::json::JsonValue;
use cluseq::core::trace::{sink, Counter, Gauge, HistKind, Phase};
use cluseq::prelude::*;

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

fn params(kernel: ScanKernel, threads: usize) -> CluseqParams {
    CluseqParams::default()
        .with_initial_clusters(3)
        .with_significance(6)
        .with_max_depth(5)
        .with_max_iterations(10)
        .with_seed(5)
        .with_scan_kernel(kernel)
        .with_threads(threads)
}

/// Full structural identity of two outcomes, thresholds compared as raw
/// bits so a one-ulp drift fails.
fn assert_same_outcome(golden: &CluseqOutcome, other: &CluseqOutcome, what: &str) {
    assert_eq!(golden.iterations, other.iterations, "{what}: iterations");
    assert_eq!(
        golden.final_log_t.to_bits(),
        other.final_log_t.to_bits(),
        "{what}: final threshold"
    );
    assert_eq!(golden.history, other.history, "{what}: history");
    assert_eq!(golden.best_cluster, other.best_cluster, "{what}: best");
    assert_eq!(golden.outliers, other.outliers, "{what}: outliers");
    for (g, r) in golden.clusters.iter().zip(&other.clusters) {
        assert_eq!(g.id, r.id, "{what}: cluster id");
        assert_eq!(g.members, r.members, "{what}: cluster members");
    }
}

// ---- tracing is a pure observer ----------------------------------------

/// The acceptance matrix: tracing on vs off across both kernels and 1/4
/// threads, including byte-identity of the telemetry counters.
#[test]
fn traced_run_is_byte_identical_across_kernels_and_threads() {
    let db = workload();
    for kernel in [ScanKernel::Interpreted, ScanKernel::Compiled] {
        for threads in [1, 4] {
            let what = format!("{kernel:?} x {threads} threads");
            let runner = Cluseq::new(params(kernel, threads));

            let mut plain_report = RunReport::new();
            let plain = runner.run_traced(&db, &mut plain_report, None);

            let session = TraceSession::in_memory();
            let mut traced_report = RunReport::new();
            let traced = runner.run_traced(&db, &mut traced_report, Some(&session));

            assert_same_outcome(&plain, &traced, &what);
            assert_eq!(
                plain_report.counters_json(),
                traced_report.counters_json(),
                "{what}: telemetry counters must not see the tracing"
            );
        }
    }
}

/// Registry totals are deterministic (bit-identical across thread counts)
/// and reconcile with the RunReport's per-iteration counters.
#[test]
fn registry_counters_match_telemetry_and_thread_counts() {
    let db = workload();
    let mut baseline: Option<Vec<u64>> = None;
    for threads in [1, 4] {
        let runner =
            Cluseq::new(params(ScanKernel::Compiled, threads).with_scan_mode(ScanMode::Snapshot));
        let session = TraceSession::in_memory();
        let mut report = RunReport::new();
        let outcome = runner.run_traced(&db, &mut report, Some(&session));

        // Reconcile against the report: iteration-loop scan counters plus
        // the final assignment sweep (n sequences x surviving clusters).
        let scan_pairs: u64 = report.iterations.iter().map(|r| r.scan.pairs_scored).sum();
        let finalize_pairs = (db.len() * outcome.cluster_count()) as u64;
        assert_eq!(
            session.counter(Counter::PairsScored),
            scan_pairs + finalize_pairs,
            "{threads} threads: pairs_scored"
        );
        let scan_pruned: u64 = report.iterations.iter().map(|r| r.scan.pairs_pruned).sum();
        let summary = report.summary.as_ref().expect("summary");
        assert_eq!(
            session.counter(Counter::PairsPruned),
            scan_pruned + summary.pairs_pruned,
            "{threads} threads: pairs_pruned"
        );
        assert_eq!(
            session.counter(Counter::Joins),
            report.iterations.iter().map(|r| r.scan.joins).sum::<u64>(),
        );
        assert_eq!(
            session.counter(Counter::MembershipChanges),
            report
                .iterations
                .iter()
                .map(|r| r.scan.membership_changes as u64)
                .sum::<u64>(),
        );
        assert_eq!(
            session.counter(Counter::SeedsChosen),
            report
                .iterations
                .iter()
                .map(|r| r.seeding.chosen as u64)
                .sum::<u64>(),
        );

        // Gauges hold the final state; spans cover every iteration.
        assert_eq!(
            session.shared().gauge(Gauge::Iteration),
            outcome.iterations as u64
        );
        assert_eq!(
            session.phase_stats(Phase::Iteration).count,
            outcome.iterations as u64
        );
        assert_eq!(session.phase_stats(Phase::Finalize).count, 1);
        assert_eq!(
            session
                .shared()
                .hist_counts(HistKind::IterationWall)
                .iter()
                .sum::<u64>(),
            outcome.iterations as u64
        );

        // All deterministic counters are bit-identical across threads.
        let all: Vec<u64> = Counter::ALL.iter().map(|&c| session.counter(c)).collect();
        match &baseline {
            None => baseline = Some(all),
            Some(b) => assert_eq!(b, &all, "registry diverged between thread counts"),
        }
    }
}

/// A trace session is not an enabled observer: tracing alone must keep
/// the scan's early-exit pruning on once the threshold freezes. An
/// enabled observer (a `RunReport`) keeps the histogram live, so its run
/// prunes only in the final sweep.
#[test]
fn tracing_leaves_scan_pruning_on() {
    let db = workload();
    let runner = Cluseq::new(params(ScanKernel::Compiled, 1));

    let session = TraceSession::in_memory();
    runner.run_traced(&db, &mut NoopObserver, Some(&session));

    let mut report = RunReport::new();
    runner.run_traced(&db, &mut report, Some(&TraceSession::in_memory()));
    let recorded = report.summary.expect("summary").pairs_pruned;

    assert!(
        session.counter(Counter::PairsPruned) > recorded,
        "traced run pruned {} pairs, recorded run {recorded}",
        session.counter(Counter::PairsPruned)
    );
}

// ---- JSONL stream schema ------------------------------------------------

fn traced_checkpointed_run(dir: &Path, trace_path: &Path) -> CluseqOutcome {
    let db = workload();
    let config = TraceConfig {
        jsonl: Some(trace_path.to_path_buf()),
        metrics_addr: None,
    };
    let session = TraceSession::start(&config).expect("open trace");
    let p = params(ScanKernel::Compiled, 2).with_checkpoints(dir, 1);
    Cluseq::new(p).run_traced(&db, &mut NoopObserver, Some(&session))
}

/// The ordered keys of a JSON object.
fn keys(value: &JsonValue) -> Vec<&str> {
    value
        .as_obj()
        .expect("a JSON object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

/// The registry counters in `Counter::ALL` order — the order `run_end`
/// lists them in and the names the exporter and CI use.
const COUNTER_NAMES: [&str; 26] = [
    "pairs_scored",
    "pairs_pruned",
    "joins",
    "new_joins",
    "membership_changes",
    "seed_candidates_sampled",
    "seeds_chosen",
    "clusters_dismissed",
    "clusters_merged",
    "threshold_moves",
    "checkpoint_writes",
    "checkpoint_failures",
    "checkpoint_bytes",
    "serve_requests",
    "serve_errors",
    "serve_swaps",
    "pairs_reused",
    "clusters_dirty",
    "pst_recompiles",
    "serve_assign_requests",
    "serve_score_requests",
    "serve_anomaly_requests",
    "serve_info_requests",
    "serve_swap_requests",
    "serve_shutdown_requests",
    "serve_slow_requests",
];

/// The span phases in `Phase::ALL` order.
const PHASE_NAMES: [&str; 11] = [
    "iteration",
    "seeding",
    "seeding_score",
    "scan_score",
    "scan_absorb",
    "consolidate",
    "threshold",
    "checkpoint_save",
    "resume",
    "finalize",
    "automaton_compile",
];

/// Every event kind appears, parses, and carries exactly its schema's
/// keys in order; sequence numbers count up from zero without gaps.
#[test]
fn jsonl_stream_is_schema_valid_with_monotone_seq() {
    let dir = tmpdir("trace-schema");
    let trace_path = dir.join("run.jsonl");
    let outcome = traced_checkpointed_run(&dir.join("ckpts"), &trace_path);

    let counter_names: Vec<&str> = Counter::ALL.iter().map(|c| c.as_str()).collect();
    assert_eq!(counter_names, COUNTER_NAMES);
    let phase_names: Vec<&str> = Phase::ALL.iter().map(|p| p.as_str()).collect();
    assert_eq!(phase_names, PHASE_NAMES);

    let replay = sink::read_trace(&trace_path).expect("trace parses");
    assert!(!replay.truncated_tail, "a clean run leaves no torn tail");
    for (i, ev) in replay.events.iter().enumerate() {
        assert_eq!(ev.seq, i as u64, "seq numbers must be gapless");
        let schema: &[&str] = match ev.kind.as_str() {
            "run_start" => &[
                "seq",
                "event",
                "sequences",
                "alphabet_size",
                "threads",
                "scan_mode",
                "scan_kernel",
                "seed",
                "initial_log_t",
            ],
            "iteration" => &[
                "seq",
                "event",
                "iteration",
                "clusters_at_start",
                "new_clusters",
                "removed_clusters",
                "clusters_live",
                "membership_changes",
                "pairs_scored",
                "pairs_pruned",
                "pairs_reused",
                "joins",
                "new_joins",
                "log_t",
                "threshold_moved",
                "phase_nanos",
            ],
            "checkpoint" => &["seq", "event", "completed", "bytes", "write_nanos", "ok"],
            "run_end" => &[
                "seq",
                "event",
                "iterations",
                "clusters",
                "outliers",
                "final_log_t",
                "finalize_nanos",
                "total_nanos",
                "counters",
                "spans",
            ],
            other => panic!("unexpected event kind {other:?}"),
        };
        assert_eq!(keys(&ev.value), schema, "{} event keys", ev.kind);
        match ev.kind.as_str() {
            "iteration" => assert_eq!(
                keys(ev.value.get("phase_nanos").unwrap()),
                [
                    "seeding",
                    "scan_score",
                    "scan_absorb",
                    "consolidate",
                    "threshold",
                    "total"
                ],
            ),
            "run_end" => {
                assert_eq!(keys(ev.value.get("counters").unwrap()), COUNTER_NAMES);
                let spans = ev.value.get("spans").unwrap();
                assert_eq!(keys(spans), PHASE_NAMES);
                for (phase, span) in spans.as_obj().unwrap() {
                    assert_eq!(
                        keys(span),
                        ["total_nanos", "self_nanos", "count", "max_nanos"],
                        "span {phase}"
                    );
                }
            }
            _ => {}
        }
    }

    let kinds: Vec<&str> = replay.events.iter().map(|e| e.kind.as_str()).collect();
    assert_eq!(kinds.first(), Some(&"run_start"));
    assert_eq!(kinds.last(), Some(&"run_end"));
    let iter_events = kinds.iter().filter(|k| **k == "iteration").count();
    assert_eq!(iter_events, outcome.iterations, "one event per iteration");
    assert!(
        kinds.contains(&"checkpoint"),
        "cadence 1 must emit checkpoint events"
    );

    // The final event snapshots the registry; its counter block reconciles
    // with the per-iteration events.
    let run_end = &replay.events.last().unwrap().value;
    let scored_total: f64 = replay
        .events
        .iter()
        .filter(|e| e.kind == "iteration")
        .map(|e| {
            e.value
                .get("pairs_scored")
                .and_then(|v| v.as_f64())
                .unwrap()
        })
        .sum();
    let end_scored = run_end
        .get("counters")
        .and_then(|c| c.get("pairs_scored"))
        .and_then(|v| v.as_f64())
        .expect("run_end counters.pairs_scored");
    assert!(
        end_scored >= scored_total,
        "run_end total {end_scored} must cover the iteration events' {scored_total}"
    );
}

// ---- crash tolerance ----------------------------------------------------

/// A crash mid-write tears at most the final line. Truncating a real
/// trace at *every* byte of its final event must leave a readable file;
/// reopening the sink on it must repair the tail and continue the
/// sequence numbering with no gap.
#[test]
fn torn_tail_is_tolerated_at_every_truncation_point() {
    let dir = tmpdir("trace-torn");
    let trace_path = dir.join("run.jsonl");
    traced_checkpointed_run(&dir.join("ckpts"), &trace_path);

    let bytes = fs::read(&trace_path).expect("read trace");
    let complete = sink::read_trace(&trace_path).expect("clean trace parses");
    let last_line_start = bytes[..bytes.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);

    for cut in last_line_start + 1..bytes.len() {
        let torn_path = dir.join("torn.jsonl");
        fs::write(&torn_path, &bytes[..cut]).expect("write torn copy");

        let replay = sink::read_trace(&torn_path)
            .unwrap_or_else(|e| panic!("cut at byte {cut}: reader failed: {e}"));
        assert!(replay.truncated_tail, "cut at byte {cut}: tail not flagged");
        assert_eq!(
            replay.events.len(),
            complete.events.len() - 1,
            "cut at byte {cut}: exactly the torn line is dropped"
        );

        // The writing side repairs the same tail and continues the seq.
        let mut reopened = sink::JsonlSink::open_append(&torn_path)
            .unwrap_or_else(|e| panic!("cut at byte {cut}: reopen failed: {e}"));
        let seq = reopened
            .write_event("{\"event\":\"iteration\",\"iteration\":99}")
            .expect("write after repair");
        assert_eq!(
            seq,
            (complete.events.len() - 1) as u64,
            "cut at byte {cut}: sequence must continue after the repair"
        );
        let repaired = sink::read_trace(&torn_path).expect("repaired trace parses");
        assert!(!repaired.truncated_tail);
        assert_eq!(repaired.events.len(), complete.events.len());
    }
}

// ---- resume stitching ---------------------------------------------------

/// A resumed run appends to the original trace file, and the stitched
/// iteration history is continuous — each iteration exactly once, the
/// resumed rewrites winning over the originals.
#[test]
fn resume_appends_and_stitches_one_continuous_history() {
    let dir = tmpdir("trace-stitch");
    let ckpt_dir = dir.join("ckpts");
    let trace_path = dir.join("run.jsonl");
    let db = workload();
    let golden = traced_checkpointed_run(&ckpt_dir, &trace_path);
    assert!(golden.iterations >= 3, "workload too small to be probative");

    // "Crash" after iteration 2: resume from its checkpoint, appending to
    // the same trace file as the interrupted process would.
    let ckpt_path = ckpt_dir.join("cluseq-000002.ckpt");
    let ckpt_bytes = fs::read(&ckpt_path).expect("checkpoint exists");
    let ckpt = Checkpoint::load(&mut ckpt_bytes.as_slice()).expect("loads");
    let session = TraceSession::start(&TraceConfig {
        jsonl: Some(trace_path.clone()),
        metrics_addr: None,
    })
    .expect("reopen trace");
    let resumed = Cluseq::resume_traced(ckpt, &db, &mut NoopObserver, Some(&session));
    drop(session);
    assert_same_outcome(&golden, &resumed, "traced resume");

    let replay = sink::read_trace(&trace_path).expect("spliced trace parses");
    let resumes = replay.events.iter().filter(|e| e.kind == "resume").count();
    assert_eq!(resumes, 1, "one resume marker");
    let resume_ev = replay
        .events
        .iter()
        .find(|e| e.kind == "resume")
        .expect("resume event");
    assert_eq!(
        resume_ev.value.get("completed").and_then(|v| v.as_u64()),
        Some(2)
    );

    // Seq numbers keep counting across the splice.
    for (i, ev) in replay.events.iter().enumerate() {
        assert_eq!(ev.seq, i as u64, "gap at event {i}");
    }

    // Stitched: iterations 0..n exactly once, in order, matching the
    // golden history's deterministic fields.
    let stitched = sink::stitch_iterations(&replay);
    let numbers: Vec<u64> = stitched
        .iter()
        .map(|it| it.get("iteration").and_then(|v| v.as_u64()).unwrap())
        .collect();
    let expect: Vec<u64> = (0..golden.iterations as u64).collect();
    assert_eq!(numbers, expect, "stitched history must be continuous");
    for (it, stats) in stitched.iter().zip(&golden.history) {
        assert_eq!(
            it.get("clusters_live").and_then(|v| v.as_u64()),
            Some(stats.clusters_at_end as u64)
        );
        assert_eq!(
            it.get("log_t").and_then(|v| v.as_f64()).map(f64::to_bits),
            Some(stats.log_t.to_bits()),
            "iteration {}: stitched log_t must be exact",
            stats.iteration
        );
    }
}
