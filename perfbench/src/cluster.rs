//! `cluster-default`: the job users run. An in-memory `Cluseq::run` with
//! default parameters (incremental scan, compiled kernel, one thread,
//! threshold adjustment on), started warm as in the Fig 6 reduced scale:
//! initial t 3000, significance 10, depth 6. Few clusters with many
//! members each. It is the only workload that runs seeding, recluster,
//! consolidate and threshold.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::time::Instant;

use cluseq::core::persist::SavedModel;
use cluseq::core::recluster::recluster_full;
use cluseq::core::seeding::select_seeds_detailed;
use cluseq::core::serve::model::ServeModel;
use cluseq::core::trace::{Counter, Phase};
use cluseq::core::{
    Cluseq, CluseqOutcome, CluseqParams, ModelCache, NoopObserver, ScanKernel, ScanOptions,
    TraceSession,
};
use cluseq::datagen::SyntheticSpec;
use cluseq::eval::{Confusion, MatchStrategy};
use cluseq::seq::{binio, SequenceDatabase, Symbol};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{
    best, check_queries, compile, kernel_metrics, median, permutation, query_pass, relabel,
    secs_since, table_stats, window_percentiles, Args, Digest, Guard, Report,
};

/// Lowest accuracy a correct run may reach on the planted corpus.
const ACCURACY_FLOOR: f64 = 0.95;

/// Per-layer metrics of layers this workload does not exercise.
pub const IDLE_LAYERS: &[&str] = &[
    "seq.open_s",
    "seq.read_s",
    "persist.load_s",
    "score.pass_s",
    "score.pairs",
    "score.pairs_pruned",
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
        sequences: if tiny { 120 } else { 300 },
        clusters: if tiny { 2 } else { 4 },
        avg_len: if tiny { 100 } else { 120 },
        alphabet: 100,
        outlier_fraction: 0.05,
        seed: 5,
    }
}

fn params(tiny: bool) -> CluseqParams {
    let spec = spec(tiny);
    CluseqParams::default()
        .with_initial_clusters(spec.clusters)
        .with_initial_threshold(3000.0)
        .with_significance(10)
        .with_max_depth(6)
}

fn corpus_path(args: &Args) -> PathBuf {
    args.dir.join("corpus.csdb")
}

pub fn prepare(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let spec = spec(args.tiny);
    let db = relabel(&spec.generate(), &permutation(args.seed, spec.alphabet));
    let mut w = BufWriter::new(File::create(corpus_path(args))?);
    binio::encode(&db, &mut w)?;
    w.flush()?;
    Ok(())
}

/// The cold start a user pays before clustering: read and decode the
/// corpus file.
fn decode(args: &Args) -> SequenceDatabase {
    let file = File::open(corpus_path(args)).expect("open the prepared corpus");
    binio::decode(&mut BufReader::new(file)).expect("decode the prepared corpus")
}

fn db_digest(db: &SequenceDatabase) -> u64 {
    let mut d = Digest::default();
    for (_, seq, label) in db.iter() {
        d.u64(label.map_or(u64::MAX, u64::from));
        d.u64(seq.len() as u64);
        for s in seq.iter() {
            d.u64(u64::from(s.0));
        }
    }
    d.value()
}

fn accuracy(db: &SequenceDatabase, outcome: &CluseqOutcome) -> f64 {
    Confusion::new(
        &db.labels(),
        &outcome.membership_lists(),
        MatchStrategy::Hungarian,
    )
    .accuracy()
}

/// Checks one clustering: the determinism digest, and that memberships
/// and outliers partition the corpus, the run converged, and the planted
/// clusters were recovered.
fn check_outcome(
    report: &mut Report,
    guard: &mut Guard,
    db: &SequenceDatabase,
    outcome: &CluseqOutcome,
    params: &CluseqParams,
) -> f64 {
    let acc = accuracy(db, outcome);
    let mut d = Digest::default();
    d.u64(outcome.iterations as u64);
    d.u64(outcome.cluster_count() as u64);
    d.f64(outcome.final_log_t);
    d.f64(acc);
    for &b in &outcome.best_cluster {
        d.opt(b);
    }
    for members in outcome.membership_lists() {
        d.u64(members.len() as u64);
        for m in members {
            d.u64(m as u64);
        }
    }
    guard.check(report, d.value());

    let mut in_cluster = vec![false; db.len()];
    for c in &outcome.clusters {
        for &m in &c.members {
            in_cluster[m] = true;
        }
    }
    let partitioned = (0..db.len()).all(|i| {
        in_cluster[i] == outcome.best_cluster[i].is_some()
            && in_cluster[i] != outcome.outliers.binary_search(&i).is_ok()
    });
    report.check(
        partitioned && outcome.iterations < params.max_iterations && acc >= ACCURACY_FLOOR,
        || {
            format!(
                "clustering: partitioned {partitioned}, {} iterations, accuracy {acc}",
                outcome.iterations
            )
        },
    );
    acc
}

/// Per-layer numbers of one traced clustering, read from the session's
/// phase spans and counters.
fn traced_layers(
    session: &TraceSession,
    outcome: &CluseqOutcome,
    job_s: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let s = |p: Phase| session.phase_stats(p).total_nanos as f64 / 1e9;
    let c = |k: Counter| session.counter(k) as f64;
    let iterations = session.phase_stats(Phase::Iteration);
    let attributed = s(Phase::Seeding)
        + s(Phase::ScanScore)
        + s(Phase::ScanAbsorb)
        + s(Phase::Consolidate)
        + s(Phase::Threshold)
        + s(Phase::Finalize);
    vec![
        ("seeding.s", s(Phase::Seeding), "s"),
        (
            "seeding.candidates",
            c(Counter::SeedCandidatesSampled),
            "count",
        ),
        ("seeding.seeds", c(Counter::SeedsChosen), "count"),
        ("recluster.score_s", s(Phase::ScanScore), "s"),
        ("recluster.absorb_s", s(Phase::ScanAbsorb), "s"),
        ("recluster.pairs_scored", c(Counter::PairsScored), "count"),
        ("recluster.pairs_pruned", c(Counter::PairsPruned), "count"),
        ("recluster.new_joins", c(Counter::NewJoins), "count"),
        (
            "recluster.membership_changes",
            c(Counter::MembershipChanges),
            "count",
        ),
        ("consolidate.s", s(Phase::Consolidate), "s"),
        (
            "consolidate.dismissed",
            c(Counter::ClustersDismissed),
            "count",
        ),
        ("threshold.s", s(Phase::Threshold), "s"),
        ("threshold.moves", c(Counter::ThresholdMoves), "count"),
        ("algorithm.iterations", outcome.iterations as f64, "count"),
        (
            "algorithm.iteration_s",
            iterations.total_nanos as f64 / 1e9 / iterations.count.max(1) as f64,
            "s",
        ),
        ("algorithm.finalize_s", s(Phase::Finalize), "s"),
        (
            "algorithm.unattributed_frac",
            1.0 - attributed / job_s,
            "frac",
        ),
    ]
}

/// Replays iteration 0's scan through `recluster_full` with an unbounded
/// `ModelCache`, whose miss count is the number of automaton builds the
/// default scan pays (the cache evicts nothing and the scan invalidates a
/// slot on every model mutation, exactly as the uncached scan drops it).
fn replay_first_scan(db: &SequenceDatabase, params: &CluseqParams) -> (f64, u64) {
    let background = db.background();
    let n = db.len();
    let mut rng = StdRng::seed_from_u64(params.seed);
    let unclustered: Vec<usize> = (0..n).collect();
    let (seeds, _) = select_seeds_detailed(
        db,
        &background,
        &[],
        &unclustered,
        params.initial_clusters,
        params.sample_factor,
        params.pst_params(),
        params.threads,
        params.scan_kernel,
        &mut rng,
        None,
    );
    let mut clusters: Vec<_> = seeds
        .iter()
        .enumerate()
        .map(|(id, &seed)| {
            cluseq::core::Cluster::from_seed(
                id,
                seed,
                db.sequence(seed),
                db.alphabet().len(),
                params.pst_params(),
            )
        })
        .collect();
    let order = params.order.sequence_order(n, &vec![None; n], &mut rng);
    let mut models = ModelCache::new(usize::MAX);
    let start = Instant::now();
    recluster_full(
        db,
        &mut clusters,
        params.initial_threshold.ln(),
        &order,
        &background,
        ScanOptions {
            mode: params.scan_mode,
            rebuild_psts: params.rebuild_psts,
            threads: params.threads,
            kernel: params.scan_kernel,
            prune_below: None,
            trace: None,
            scan_shard: params.scan_shard,
            collect_similarities: true,
        },
        None,
        Some(&mut models),
    );
    let secs = secs_since(start);
    (secs, models.stats().1)
}

/// The clustering's model as `cluseq serve` holds it (compiled kernel),
/// and the time its automata took to compile.
fn serve_model(outcome: &CluseqOutcome) -> (ServeModel, f64) {
    let saved = SavedModel::from_outcome(outcome);
    let start = Instant::now();
    let automata = compile(&saved);
    let compile_s = secs_since(start);
    let model = ServeModel {
        generation: 0,
        saved,
        automata,
        kernel: ScanKernel::Compiled,
        source: PathBuf::new(),
    };
    (model, compile_s)
}

pub fn run(args: &Args, report: &mut Report) {
    let params = params(args.tiny);
    let start = Instant::now();
    let mut setup = Vec::new();
    let mut setup_guard = Guard::new("decoded corpus");
    let mut jobs = Vec::new();
    let mut traced_jobs = Vec::new();
    let mut layers: Vec<Vec<(&'static str, f64, &'static str)>> = Vec::new();
    let mut guard = Guard::new("clustering");
    let mut count_guard = Guard::new("traced counters");
    // Queries: one ASSIGN per corpus sequence against the first
    // clustering's model.
    let mut served: Option<(ServeModel, f64, Vec<Vec<Symbol>>, CluseqOutcome)> = None;
    let mut passes = Vec::new();
    let mut acc;

    // Rounds of set-up, job and a pass of queries until the time is up,
    // so each measurement samples the whole run. A traced run adds a
    // traced job to every round, so the tracing overhead is measured
    // under the same host conditions.
    let db = loop {
        let t = Instant::now();
        let db = decode(args);
        let cluseq = Cluseq::new(params.clone());
        setup.push(secs_since(t));
        setup_guard.check(report, db_digest(&db));

        let t = Instant::now();
        let outcome = cluseq.run(&db);
        jobs.push(secs_since(t));
        acc = check_outcome(report, &mut guard, &db, &outcome, &params);
        if args.trace {
            let session = TraceSession::in_memory();
            let t = Instant::now();
            let traced =
                Cluseq::new(params.clone()).run_traced(&db, &mut NoopObserver, Some(&session));
            let job_s = secs_since(t);
            traced_jobs.push(job_s);
            check_outcome(report, &mut guard, &db, &traced, &params);
            let mut d = Digest::default();
            for k in [
                Counter::SeedCandidatesSampled,
                Counter::SeedsChosen,
                Counter::PairsScored,
                Counter::PairsPruned,
                Counter::NewJoins,
                Counter::MembershipChanges,
                Counter::ClustersDismissed,
                Counter::ThresholdMoves,
            ] {
                d.u64(session.counter(k));
            }
            count_guard.check(report, d.value());
            layers.push(traced_layers(&session, &traced, job_s));
        }

        let (model, _, queries, _) = served.get_or_insert_with(|| {
            let (model, compile_s) = serve_model(&outcome);
            let queries: Vec<Vec<Symbol>> =
                db.iter().map(|(_, s, _)| s.symbols().to_vec()).collect();
            (model, compile_s, queries, outcome)
        });
        if passes.is_empty() {
            check_queries(report, model, queries, args.inject_fault);
        }
        passes.push(query_pass(model, queries));
        if jobs.len() >= 2 && secs_since(start) >= args.seconds {
            break db;
        }
    };
    let (model, compile_s, queries, outcome) = served.expect("at least one round");
    let [p50, p90, p99] = window_percentiles(&mut passes);

    let job_s = best(&jobs);
    report.metric("setup_s", median(&setup), "s");
    report.metric("job_s", job_s, "s");
    report.metric("qps", db.len() as f64 / job_s, "1/s");
    report.metric("query_p50_us", p50, "us");
    report.metric("query_p90_us", p90, "us");
    report.metric("peak_rss_mb", crate::peak_rss_mb(), "MB");
    report.metric("accuracy", acc, "frac");
    report.note("repetitions", jobs.len());
    report.note("job_s_median", median(&jobs));
    report.note("iterations", outcome.iterations);
    report.note("clusters", outcome.cluster_count());
    report.note("query_samples", passes.len() * queries.len());
    report.note("query_p99_us", p99);

    if args.trace {
        // The per-layer split of the fastest traced repetition, so the
        // phases add up to that repetition's time.
        let fastest = (0..traced_jobs.len())
            .min_by(|&a, &b| traced_jobs[a].total_cmp(&traced_jobs[b]))
            .expect("at least one traced repetition");
        for &(name, value, unit) in &layers[fastest] {
            report.metric(name, value, unit);
        }
        let (first_scan_s, builds) = replay_first_scan(&db, &params);
        report.metric("recluster.first_scan_s", first_scan_s, "s");
        report.metric("recluster.first_scan_builds", builds as f64, "count");
        report.metric("seq.decode_s", median(&setup), "s");
        let file_mb = std::fs::metadata(corpus_path(args)).map_or(0, |m| m.len()) as f64 / 1e6;
        report.metric("seq.read_mb", file_mb, "MB");
        let (states, table_mb) = table_stats(&model.automata);
        report.metric("pst.compile_s", compile_s, "s");
        report.metric("pst.states", states, "count");
        report.metric("pst.table_mb", table_mb, "MB");
        let psts: Vec<_> = model.saved.clusters.iter().map(|c| &c.pst).collect();
        kernel_metrics(
            report,
            &psts,
            &model.automata,
            &model.saved.background,
            &queries,
        );
        report.metric(
            "trace.overhead_frac",
            best(&traced_jobs) / job_s - 1.0,
            "frac",
        );
    }
}
