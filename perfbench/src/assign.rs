//! `assign-outofcore`: bulk assignment of a corpus far larger than the
//! resident state. The corpus is streamed to a CSEQ v2 file with its
//! `.csix` index and opened as a `FileStore`; a trained model with large
//! compiled tables is loaded; and every sequence is scored against every
//! cluster through `ScoreEngine::score_sequences_automata` at two threads.
//! Compiled models are read-only here: store reads, the scan kernel and
//! `parallel_map_with` do nearly all the work.

use std::fs::File;
use std::io::BufReader;
use std::path::PathBuf;
use std::time::Instant;

use cluseq::core::persist::SavedModel;
use cluseq::core::serve::model::ServeModel;
use cluseq::core::similarity::max_similarity_pst;
use cluseq::core::trace::Counter;
use cluseq::core::{
    BoundedSimilarity, CluseqParams, ScanKernel, ScoreEngine, SegmentSimilarity, TraceSession,
};
use cluseq::datagen::SyntheticSpec;
use cluseq::eval::{Confusion, MatchStrategy};
use cluseq::pst::Pst;
use cluseq::seq::store::{sidecar_path, CseqWriter, FileStore};
use cluseq::seq::{SequenceStore, Symbol};

use crate::{
    best, check_queries, compile, kernel_metrics, median, permutation, query_pass, relabel_symbols,
    save_model, secs_since, table_stats, window_percentiles, Args, Digest, Guard, Report,
};

/// Scoring threads: the host's two cores.
const THREADS: usize = 2;
/// Sequences at the front of the corpus the model is trained on.
const TRAINING: usize = 300;
/// Sequences scored per `ScoreEngine` call: bounds the resident verdict
/// matrix, as the out-of-core scan's shards do.
const SHARD: usize = 16_384;
/// The model's similarity threshold, log-space.
const LOG_T: f64 = 8.0;
/// Sequences whose pass verdicts are re-derived by the interpreted
/// reference scan.
const VERIFY_SAMPLES: usize = 200;
/// Sequences timed as single ASSIGN queries, one pass per round.
const QUERY_SAMPLES: usize = 2000;
const ACCURACY_FLOOR: f64 = 0.95;

/// Per-layer metrics of layers this workload does not exercise.
pub const IDLE_LAYERS: &[&str] = &[
    "seq.decode_s",
    "seeding.s",
    "seeding.candidates",
    "seeding.seeds",
    "recluster.score_s",
    "recluster.absorb_s",
    "recluster.pairs_scored",
    "recluster.pairs_pruned",
    "recluster.new_joins",
    "recluster.membership_changes",
    "recluster.first_scan_s",
    "recluster.first_scan_builds",
    "consolidate.s",
    "consolidate.dismissed",
    "threshold.s",
    "threshold.moves",
    "algorithm.iterations",
    "algorithm.iteration_s",
    "algorithm.finalize_s",
    "algorithm.unattributed_frac",
    "serve.accept_p50_us",
    "serve.decode_p50_us",
    "serve.queue_wait_p50_us",
    "serve.batch_form_p50_us",
    "serve.scan_p50_us",
    "serve.encode_p50_us",
    "serve.write_back_p50_us",
    "serve.batch_jobs_mean",
    "serve.swap_ms",
    "serve.errors",
    "loadgen.late_p90_us",
    "loadgen.sent",
];

fn spec(tiny: bool) -> SyntheticSpec {
    SyntheticSpec {
        sequences: if tiny { 2_000 } else { 200_000 },
        clusters: 4,
        avg_len: if tiny { 80 } else { 200 },
        alphabet: 100,
        outlier_fraction: 0.05,
        seed: 7,
    }
}

/// Deep contexts and a permissive significance cut: tens of thousands of
/// states per cluster, tables far past the caches.
fn training_params(tiny: bool) -> CluseqParams {
    CluseqParams::default()
        .with_max_depth(if tiny { 5 } else { 8 })
        .with_significance(2)
}

fn corpus_path(args: &Args) -> PathBuf {
    args.dir.join("corpus.cseq")
}

fn model_path(args: &Args) -> PathBuf {
    args.dir.join("model.cseqm")
}

pub fn prepare(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let spec = spec(args.tiny);
    let raw = args.dir.join("raw.cseq");
    spec.generate_streamed(&raw)?;
    let perm = permutation(args.seed, spec.alphabet);
    {
        let src = FileStore::open(&raw)?;
        let mut w = CseqWriter::create(corpus_path(args), src.alphabet())?;
        let mut reader = src.reader();
        for i in 0..src.len() {
            w.push(&relabel_symbols(reader.symbols(i), &perm), src.label(i))?;
        }
        w.finish()?;
    }
    std::fs::remove_file(sidecar_path(&raw))?;
    std::fs::remove_file(&raw)?;

    // The model: one PST per planted cluster, trained on the corpus prefix.
    let store = FileStore::open(corpus_path(args))?;
    let pst_params = training_params(args.tiny).pst_params();
    let mut psts: Vec<Pst> = (0..spec.clusters)
        .map(|_| Pst::new(spec.alphabet, pst_params))
        .collect();
    let mut reader = store.reader();
    for i in 0..TRAINING {
        if let Some(label) = store.label(i) {
            psts[label as usize].add_sequence(&reader.sequence(i));
        }
    }
    save_model(&model_path(args), psts, store.background(), LOG_T)?;
    Ok(())
}

/// The set-up a user pays before the pass, timed piece by piece: open the
/// store (index plus one background pass over the file), load the model,
/// compile its automata.
fn open(args: &Args) -> (FileStore, ServeModel, [f64; 3]) {
    let t = Instant::now();
    let store = FileStore::open(corpus_path(args)).expect("open the prepared corpus");
    let open_s = secs_since(t);
    let t = Instant::now();
    let file = File::open(model_path(args)).expect("open the prepared model");
    let saved = SavedModel::load(&mut BufReader::new(file)).expect("load the prepared model");
    let load_s = secs_since(t);
    let t = Instant::now();
    let automata = compile(&saved);
    let compile_s = secs_since(t);
    let model = ServeModel {
        generation: 1,
        saved,
        automata,
        kernel: ScanKernel::Compiled,
        source: model_path(args),
    };
    (store, model, [open_s, load_s, compile_s])
}

/// What one bulk-assignment pass produces.
struct Pass {
    /// Best cluster of each sequence, among those it joins.
    best: Vec<Option<usize>>,
    /// Every cluster's members (sequences at or above the threshold).
    members: Vec<Vec<usize>>,
    pruned: u64,
    /// The verdict rows of the verification sample, in sample order.
    sample_rows: Vec<Vec<BoundedSimilarity>>,
}

/// Scores every sequence against every cluster, one shard of the corpus
/// at a time so the resident verdict matrix stays `SHARD × k`, and folds
/// the verdicts into assignments.
fn pass(
    engine: &ScoreEngine,
    store: &FileStore,
    model: &ServeModel,
    sample_ids: &[usize],
    trace: Option<&TraceSession>,
) -> Pass {
    let n = store.len();
    let log_t = model.saved.log_t;
    let order: Vec<usize> = (0..n).collect();
    let mut out = Pass {
        best: Vec::with_capacity(n),
        members: vec![Vec::new(); model.automata.len()],
        pruned: 0,
        sample_rows: Vec::with_capacity(sample_ids.len()),
    };
    let mut next_sample = sample_ids.iter().peekable();
    for shard in order.chunks(SHARD) {
        let (rows, _) = engine.score_sequences_automata_metered(
            store,
            &model.automata,
            shard,
            Some(log_t),
            ScanKernel::Compiled,
            trace,
        );
        for (&i, row) in shard.iter().zip(rows) {
            let mut top: Option<(usize, f64)> = None;
            for (slot, v) in row.iter().enumerate() {
                match v {
                    BoundedSimilarity::Exact(s) if s.log_sim >= log_t => {
                        out.members[slot].push(i);
                        if top.is_none_or(|(_, b)| s.log_sim > b) {
                            top = Some((slot, s.log_sim));
                        }
                    }
                    BoundedSimilarity::Exact(_) => {}
                    BoundedSimilarity::Pruned => out.pruned += 1,
                }
            }
            out.best.push(top.map(|(slot, _)| slot));
            if next_sample.peek() == Some(&&i) {
                next_sample.next();
                out.sample_rows.push(row);
            }
        }
    }
    out
}

/// The pass's verdicts against the interpreted reference scan: exact
/// verdicts bit for bit, pruned ones provably below the threshold.
fn check_pass(
    report: &mut Report,
    store: &FileStore,
    model: &ServeModel,
    sample_ids: &[usize],
    out: &Pass,
) {
    let mut reader = store.reader();
    for (&i, row) in sample_ids.iter().zip(&out.sample_rows) {
        let seq = reader.symbols(i);
        for (slot, c) in model.saved.clusters.iter().enumerate() {
            let want = max_similarity_pst(&c.pst, &model.saved.background, seq);
            let ok = match row[slot] {
                BoundedSimilarity::Exact(s) => s == want,
                BoundedSimilarity::Pruned => want.log_sim < model.saved.log_t,
            };
            report.check(ok, || {
                format!(
                    "sequence {i} cluster {slot}: pass verdict {:?}, reference {want:?}",
                    row[slot]
                )
            });
        }
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let start = Instant::now();
    let engine = ScoreEngine::new(THREADS);
    let mut setup = Vec::new();
    let mut pieces: [Vec<f64>; 3] = Default::default();
    let mut jobs = Vec::new();
    let mut traced = Vec::new();
    let mut counts: Vec<[f64; 2]> = Vec::new();
    let mut passes = Vec::new();
    let mut guard = Guard::new("assignment");
    let mut count_guard = Guard::new("traced counters");
    let mut acc;
    let mut queries: Vec<Vec<Symbol>> = Vec::new();

    // Rounds of set-up, job and a pass of queries until the time is up,
    // so each measurement samples the whole run; a traced run adds a
    // traced pass to every round.
    let mut opened: Option<(FileStore, ServeModel)> = None;
    let (store, model) = loop {
        drop(opened.take());
        let (store, model, times) = open(args);
        setup.push(times.iter().sum());
        for (piece, t) in pieces.iter_mut().zip(times) {
            piece.push(t);
        }
        let n = store.len();
        let sample_ids: Vec<usize> = (0..VERIFY_SAMPLES)
            .map(|j| j * n / VERIFY_SAMPLES)
            .collect();

        let t = Instant::now();
        let mut out = pass(&engine, &store, &model, &sample_ids, None);
        jobs.push(secs_since(t));
        if jobs.len() == 1 {
            if args.inject_fault {
                out.sample_rows[0][0] = BoundedSimilarity::Exact(SegmentSimilarity {
                    log_sim: f64::MAX,
                    start: 0,
                    end: 0,
                });
            }
            check_pass(report, &store, &model, &sample_ids, &out);
        }
        let labels: Vec<Option<u32>> = (0..n).map(|i| store.label(i)).collect();
        acc = Confusion::new(&labels, &out.members, MatchStrategy::Hungarian).accuracy();
        let mut d = Digest::default();
        d.f64(acc);
        d.u64(out.pruned);
        for b in &out.best {
            d.opt(*b);
        }
        guard.check(report, d.value());
        report.check(acc >= ACCURACY_FLOOR, || {
            format!("assignment accuracy {acc}")
        });
        drop(out);

        if args.trace {
            let session = TraceSession::in_memory();
            let t = Instant::now();
            drop(pass(&engine, &store, &model, &sample_ids, Some(&session)));
            traced.push(secs_since(t));
            let c = [
                session.counter(Counter::PairsScored) as f64,
                session.counter(Counter::PairsPruned) as f64,
            ];
            let mut d = Digest::default();
            d.f64(c[0]);
            d.f64(c[1]);
            count_guard.check(report, d.value());
            counts.push(c);
        }

        // Queries: single ASSIGNs through the serve path's classifier,
        // spread over the corpus.
        if queries.is_empty() {
            let mut reader = store.reader();
            queries = (0..QUERY_SAMPLES)
                .map(|j| reader.symbols(j * n / QUERY_SAMPLES).to_vec())
                .collect();
            check_queries(report, &model, &queries[..50], false);
        }
        passes.push(query_pass(&model, &queries));
        opened = Some((store, model));
        if jobs.len() >= 2 && secs_since(start) >= args.seconds {
            break opened.take().expect("just opened");
        }
    };
    let peak_rss = crate::peak_rss_mb();
    let n = store.len();
    let [p50, p90, p99] = window_percentiles(&mut passes);

    let job_s = best(&jobs);
    report.metric("setup_s", median(&setup), "s");
    report.metric("job_s", job_s, "s");
    report.metric("qps", n as f64 / job_s, "1/s");
    report.metric("query_p50_us", p50, "us");
    report.metric("query_p90_us", p90, "us");
    report.metric("peak_rss_mb", peak_rss, "MB");
    report.metric("accuracy", acc, "frac");
    let file_mb = std::fs::metadata(corpus_path(args)).map_or(0, |m| m.len()) as f64 / 1e6;
    report.note("repetitions", jobs.len());
    report.note("corpus_mb", file_mb);
    report.note("sequences", n);
    report.note("job_s_median", median(&jobs));
    report.note("query_samples", passes.len() * queries.len());
    report.note("query_p99_us", p99);

    if args.trace {
        report.metric("seq.open_s", median(&pieces[0]), "s");
        report.metric("persist.load_s", median(&pieces[1]), "s");
        report.metric("pst.compile_s", median(&pieces[2]), "s");
        let (states, table_mb) = table_stats(&model.automata);
        report.metric("pst.states", states, "count");
        report.metric("pst.table_mb", table_mb, "MB");
        let mut reads = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            let mut reader = store.reader();
            let mut total = 0usize;
            for i in 0..n {
                total += reader.symbols(i).len();
            }
            std::hint::black_box(total);
            reads.push(secs_since(t));
        }
        report.metric("seq.read_s", best(&reads), "s");
        report.metric(
            "seq.read_mb",
            store.total_symbols() as f64 * 2.0 / 1e6,
            "MB",
        );
        report.metric("score.pass_s", best(&traced), "s");
        report.metric("score.pairs", counts[0][0], "count");
        report.metric("score.pairs_pruned", counts[0][1], "count");
        let psts: Vec<_> = model.saved.clusters.iter().map(|c| &c.pst).collect();
        let sample: Vec<Vec<Symbol>> = queries.iter().step_by(20).cloned().collect();
        kernel_metrics(
            report,
            &psts,
            &model.automata,
            &model.saved.background,
            &sample,
        );
        report.metric("trace.overhead_frac", best(&traced) / job_s - 1.0, "frac");
    }
}
