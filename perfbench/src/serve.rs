//! `serve-mixed`: an in-process `Server::start` (default `ServeConfig`,
//! compiled kernel) serving a small model whose tables fit in cache, so a
//! request's time goes to the protocol, the dispatcher handoff and the
//! socket rather than to scoring. Two load connections send an
//! ASSIGN/SCORE/ANOMALY mix of held-out sequences, first as an open loop
//! at a fixed rate, then as a closed loop saturating both connections,
//! while an admin connection SWAPs between two model files every couple
//! of seconds. Every answer is checked against offline `ServeModel`
//! scoring of the same query by the generation that answered it.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cluseq::core::persist::SavedModel;
use cluseq::core::serve::client::ServeClient;
use cluseq::core::serve::model::ServeModel;
use cluseq::core::serve::obs::ServeObs;
use cluseq::core::serve::protocol::{Request, Response};
use cluseq::core::trace::{quantile_nanos, Counter, HistKind, TraceShared};
use cluseq::core::{CluseqParams, ScanKernel, ServeConfig, Server, ServerHandle, TraceSession};
use cluseq::datagen::SyntheticSpec;
use cluseq::eval::{Confusion, MatchStrategy};
use cluseq::pst::Pst;
use cluseq::seq::{binio, SequenceDatabase, Symbol};

use crate::{
    compile, kernel_metrics, median, percentile, permutation, relabel, save_model, secs_since,
    table_stats, Args, Report,
};

/// Open-loop offered load, requests per second over both connections:
/// about half of what the two connections complete closed-loop on a
/// 2-core host. Fixed, so every run offers the same load.
const OPEN_RATE: f64 = 20_000.0;
/// Requests per closed-loop block; `job_s` is the mean block time.
const BLOCK: usize = 2_000;
/// Server set-ups timed for `setup_s`.
const SETUP_REPS: usize = 20;
/// A run whose generator sent its requests later than this (p90, beyond
/// any wait for the previous answer) measured the generator, not the
/// server: it is reported invalid.
const LATE_LIMIT_US: f64 = 1_000.0;
const LOG_T: f64 = 8.0;
/// The request mix, cycled: 5 ASSIGN, 3 SCORE, 2 ANOMALY in 10.
const MIX: [u8; 10] = [0, 1, 0, 2, 0, 1, 0, 2, 0, 1];

/// Per-layer metrics of layers this workload does not exercise.
pub const IDLE_LAYERS: &[&str] = &[
    "seq.decode_s",
    "seq.open_s",
    "seq.read_s",
    "seq.read_mb",
    "score.pass_s",
    "score.pairs",
    "score.pairs_pruned",
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
];

fn spec(tiny: bool) -> SyntheticSpec {
    SyntheticSpec {
        sequences: if tiny { 300 } else { 1_400 },
        clusters: 4,
        avg_len: 100,
        alphabet: 20,
        outlier_fraction: 0.05,
        seed: 11,
    }
}

/// Sequences each of the two models is trained on; the rest are queries.
fn training(tiny: bool) -> usize {
    if tiny {
        50
    } else {
        200
    }
}

fn model_paths(args: &Args) -> [PathBuf; 2] {
    [
        args.dir.join("model-a.cseqm"),
        args.dir.join("model-b.cseqm"),
    ]
}

fn queries_path(args: &Args) -> PathBuf {
    args.dir.join("queries.csdb")
}

pub fn prepare(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let spec = spec(args.tiny);
    let db = relabel(&spec.generate(), &permutation(args.seed, spec.alphabet));
    let train = training(args.tiny);
    let pst_params = CluseqParams::default()
        .with_max_depth(4)
        .with_significance(5)
        .pst_params();
    // Model A learns from the first training slice, model B from the
    // second, so a SWAP changes the answers.
    for (m, path) in model_paths(args).iter().enumerate() {
        let mut psts: Vec<Pst> = (0..spec.clusters)
            .map(|_| Pst::new(spec.alphabet, pst_params))
            .collect();
        for i in m * train..(m + 1) * train {
            if let Some(label) = db.label(i) {
                psts[label as usize].add_sequence(db.sequence(i));
            }
        }
        save_model(path, psts, db.background(), LOG_T)?;
    }
    let mut held_out = SequenceDatabase::new(db.alphabet().clone());
    for (i, seq, label) in db.iter() {
        if i >= 2 * train {
            held_out.push_labeled(seq.clone(), label);
        }
    }
    let mut w = BufWriter::new(File::create(queries_path(args))?);
    binio::encode(&held_out, &mut w)?;
    w.flush()?;
    Ok(())
}

fn load(path: &Path, generation: u64) -> ServeModel {
    ServeModel::load(path, None, ScanKernel::Compiled, generation).expect("load a prepared model")
}

/// The request for schedule slot `i`: its opcode and query index.
fn slot(i: usize, queries: usize) -> (u8, usize) {
    (MIX[i % MIX.len()], (i * 7919) % queries)
}

fn request(op: u8, seq: &[Symbol]) -> Request {
    let seq = seq.to_vec();
    match op {
        0 => Request::Assign { seq },
        1 => Request::Score { seq },
        _ => Request::Anomaly {
            seq,
            threshold: None,
        },
    }
}

/// What offline scoring answers, per model (A, B), opcode and query; the
/// generation is zeroed for comparison.
struct Expected {
    answers: [[Vec<Response>; 3]; 2],
}

impl Expected {
    fn new(models: &[ServeModel; 2], queries: &[Vec<Symbol>]) -> Self {
        let per = |m: &ServeModel| -> [Vec<Response>; 3] {
            [
                queries.iter().map(|q| m.assign(q)).collect(),
                queries.iter().map(|q| m.score(q)).collect(),
                queries.iter().map(|q| m.anomaly(q, None)).collect(),
            ]
        };
        Expected {
            answers: [per(&models[0]), per(&models[1])],
        }
    }

    /// Whether a served answer equals offline scoring by the model that
    /// answered: odd generations are model A, even ones model B.
    fn matches(&self, op: u8, q: usize, served: Response) -> bool {
        let (generation, normalized) = match served {
            Response::Assign { generation, hits } => (
                generation,
                Response::Assign {
                    generation: 0,
                    hits,
                },
            ),
            Response::Score { generation, scores } => (
                generation,
                Response::Score {
                    generation: 0,
                    scores,
                },
            ),
            Response::Anomaly {
                generation,
                anomalous,
                best_log_sim,
                threshold,
                best_slot,
            } => (
                generation,
                Response::Anomaly {
                    generation: 0,
                    anomalous,
                    best_log_sim,
                    threshold,
                    best_slot,
                },
            ),
            _ => return false,
        };
        let model = usize::from(generation % 2 == 0);
        self.answers[model][usize::from(op)][q] == normalized
    }
}

/// One load connection's tally.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    latencies_us: Vec<f64>,
    late_us: Vec<f64>,
}

impl Tally {
    fn send(
        &mut self,
        client: &mut ServeClient,
        expected: &Expected,
        queries: &[Vec<Symbol>],
        i: usize,
        inject_fault: bool,
    ) {
        let (op, q) = slot(i, queries.len());
        let ok = match client.request(&request(op, &queries[q])) {
            Ok(mut resp) => {
                if inject_fault && i == 0 {
                    resp = Response::ShuttingDown;
                }
                expected.matches(op, q, resp)
            }
            Err(_) => false,
        };
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 4 {
                self.problems.push(format!(
                    "request {i} (op {op}, query {q}): wrong or failed answer"
                ));
            }
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.latencies_us.extend(other.latencies_us);
        self.late_us.extend(other.late_us);
    }
}

/// Open loop on one connection: requests due every `interval`, offset by
/// `offset`; latency counts from the due time, and the generator's own
/// lateness (beyond waiting for the previous answer) is recorded apart.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    client: &mut ServeClient,
    expected: &Expected,
    queries: &[Vec<Symbol>],
    start: Instant,
    until: Instant,
    offset: Duration,
    interval: Duration,
    first_slot: usize,
    stride: usize,
) -> Tally {
    let mut tally = Tally::default();
    let mut prev_done = start;
    let mut n = 0u32;
    loop {
        let due = start + offset + interval * n;
        if due >= until {
            break;
        }
        // Sleep most of the wait, then yield until due: a plain sleep
        // overshoots by tens of microseconds, a spin would take the
        // server's core.
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let left = due - now;
            if left > Duration::from_micros(200) {
                std::thread::sleep(left - Duration::from_micros(150));
            } else {
                std::thread::yield_now();
            }
        }
        let sent = Instant::now();
        tally.late_us.push(
            sent.saturating_duration_since(due.max(prev_done))
                .as_nanos() as f64
                / 1e3,
        );
        tally.send(
            client,
            expected,
            queries,
            first_slot + stride * n as usize,
            false,
        );
        let done = Instant::now();
        tally
            .latencies_us
            .push((done - due).as_nanos() as f64 / 1e3);
        prev_done = done;
        n += 1;
    }
    tally
}

struct Swaps {
    millis: Vec<f64>,
    failures: Vec<String>,
}

/// SWAPs every server between model B and model A every `every` until
/// `stop`, timing each.
fn swapper(
    addrs: &[SocketAddr],
    paths: &[PathBuf; 2],
    every: Duration,
    stop: &AtomicBool,
) -> Swaps {
    let mut admins: Vec<ServeClient> = addrs
        .iter()
        .map(|a| ServeClient::connect(a).expect("connect the admin client"))
        .collect();
    let paths: Vec<String> = paths
        .iter()
        .map(|p| {
            std::fs::canonicalize(p)
                .expect("model path")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    let mut swaps = Swaps {
        millis: Vec::new(),
        failures: Vec::new(),
    };
    let mut count = 0u64;
    let mut next = Instant::now() + every;
    while !stop.load(Ordering::SeqCst) {
        if Instant::now() < next {
            std::thread::sleep(Duration::from_millis(20));
            continue;
        }
        // Generation 1 serves model A; swap k installs generation k + 2.
        let path = &paths[usize::from(count.is_multiple_of(2))];
        for admin in &mut admins {
            let t = Instant::now();
            match admin.swap(path) {
                Ok((generation, _)) if generation == count + 2 => {
                    swaps.millis.push(t.elapsed().as_secs_f64() * 1e3);
                }
                other => swaps.failures.push(format!("swap {count}: {other:?}")),
            }
        }
        count += 1;
        next += every;
    }
    swaps
}

fn p50_us(trace: &TraceShared, hist: HistKind) -> f64 {
    quantile_nanos(&trace.hist_counts(hist), 0.5).map_or(0.0, |n| n as f64 / 1e3)
}

fn start_server(model: ServeModel, obs: Option<Arc<ServeObs>>) -> ServerHandle {
    Server::start(model, None, &ServeConfig::default(), obs).expect("start the server")
}

/// One cold start: load and compile the model, start the server, connect
/// both load connections. The teardown is not timed.
fn time_setup(model: &Path) -> f64 {
    let t = Instant::now();
    let server = start_server(load(model, 1), None);
    let clients = [
        ServeClient::connect(server.addr()).expect("connect"),
        ServeClient::connect(server.addr()).expect("connect"),
    ];
    let secs = secs_since(t);
    drop(clients);
    server.shutdown();
    secs
}

pub fn run(args: &Args, report: &mut Report) {
    let start = Instant::now();
    let paths = model_paths(args);
    let file = File::open(queries_path(args)).expect("open the prepared queries");
    let held_out = binio::decode(&mut BufReader::new(file)).expect("decode the prepared queries");
    let queries: Vec<Vec<Symbol>> = held_out
        .iter()
        .map(|(_, s, _)| s.symbols().to_vec())
        .collect();
    let offline = [load(&paths[0], 0), load(&paths[1], 0)];
    let expected = Expected::new(&offline, &queries);

    // Half the set-ups before the load and half after it.
    let setup_reps = if args.tiny { 2 } else { SETUP_REPS / 2 };
    let mut setup: Vec<f64> = (0..setup_reps).map(|_| time_setup(&paths[0])).collect();

    // The measured server; a traced run adds a traced twin and alternates
    // closed-loop blocks between the two.
    let registry = TraceSession::in_memory().shared_arc();
    let mut servers = vec![start_server(load(&paths[0], 1), None)];
    if args.trace {
        let obs = Arc::new(ServeObs::in_memory(Arc::clone(&registry)));
        servers.push(start_server(load(&paths[0], 1), Some(obs)));
    }
    let addrs: Vec<SocketAddr> = servers.iter().map(ServerHandle::addr).collect();
    let open_target = *addrs.last().expect("a server");
    let stop = AtomicBool::new(false);
    let remaining = (args.seconds - secs_since(start)).max(1.0);
    let warmup = Duration::from_secs_f64((remaining * 0.05).min(0.5));
    let open_for = Duration::from_secs_f64(remaining * 0.45);

    let mut tally = Tally::default();
    let mut blocks: Vec<Vec<f64>> = vec![Vec::new(); addrs.len()];
    let barrier = Barrier::new(3);
    let closed_stop = AtomicBool::new(false);
    let closed_until = Instant::now() + Duration::from_secs_f64(remaining * 0.95);
    // Every couple of seconds, and at least a few times in a short run.
    let every = Duration::from_secs_f64((args.seconds / 5.0).min(2.0));
    let swaps = std::thread::scope(|scope| {
        let swap_thread = scope.spawn(|| swapper(&addrs, &paths, every, &stop));
        let workers: Vec<_> = (0..2usize)
            .map(|c| {
                let (expected, queries, addrs, barrier, closed_stop) =
                    (&expected, &queries, &addrs, &barrier, &closed_stop);
                scope.spawn(move || {
                    let mut clients: Vec<ServeClient> = addrs
                        .iter()
                        .map(|a| ServeClient::connect(a).expect("connect a load client"))
                        .collect();
                    let mut open_client =
                        ServeClient::connect(open_target).expect("connect a load client");
                    let mut warm = Tally::default();
                    let warm_until = Instant::now() + warmup;
                    let mut i = c;
                    while Instant::now() < warm_until {
                        for client in clients.iter_mut().chain([&mut open_client]) {
                            warm.send(client, expected, queries, i, false);
                        }
                        i += 2;
                    }
                    barrier.wait();
                    let open_start = Instant::now();
                    let interval = Duration::from_secs_f64(2.0 / OPEN_RATE);
                    let mut tally = open_loop(
                        &mut open_client,
                        expected,
                        queries,
                        open_start,
                        open_start + open_for,
                        interval / 2 * c as u32,
                        interval,
                        c,
                        2,
                    );
                    tally.merge(warm);
                    // Closed loop: blocks of BLOCK requests over both
                    // connections, started and ended together.
                    let mut block = 0usize;
                    loop {
                        barrier.wait();
                        if closed_stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let target = block % clients.len();
                        let client = &mut clients[target];
                        for j in 0..BLOCK / 2 {
                            let i = block * BLOCK + 2 * j + c;
                            tally.send(
                                client,
                                expected,
                                queries,
                                i,
                                args.inject_fault && c == 0 && block == 0 && j == 0,
                            );
                        }
                        barrier.wait();
                        block += 1;
                    }
                    tally
                })
            })
            .collect();
        barrier.wait(); // warm-up done, open loop starts
        let mut block = 0usize;
        loop {
            // Each block starts once both connections are free (the first
            // one once both finished the open loop).
            if Instant::now() >= closed_until && block >= 2 * addrs.len() {
                closed_stop.store(true, Ordering::SeqCst);
                barrier.wait();
                break;
            }
            barrier.wait();
            let t = Instant::now();
            barrier.wait();
            blocks[block % addrs.len()].push(secs_since(t));
            block += 1;
        }
        for w in workers {
            tally.merge(w.join().expect("load thread"));
        }
        stop.store(true, Ordering::SeqCst);
        swap_thread.join().expect("swap thread")
    });
    let peak_rss = crate::peak_rss_mb();
    for server in servers {
        server.shutdown();
    }
    setup.extend((0..setup_reps).map(|_| time_setup(&paths[0])));

    report.attempted += tally.attempted;
    report.failed += tally.failed;
    for p in tally.problems {
        report.invalid(p);
    }
    for f in &swaps.failures {
        report.check(false, || f.clone());
    }
    report.check(!swaps.millis.is_empty(), || "no SWAP completed".into());

    // Open-loop latency percentiles over the whole open loop, SWAPs
    // included.
    let mut latencies = tally.latencies_us;
    latencies.sort_by(f64::total_cmp);
    let [p50, p90, p99] = [0.50, 0.90, 0.99].map(|q| percentile(&latencies, q));
    let sent = latencies.len();
    let mut late = tally.late_us;
    late.sort_by(f64::total_cmp);
    let late_p90 = percentile(&late, 0.90);
    if late_p90 > LATE_LIMIT_US {
        report.invalid(format!(
            "invalid run: the load generator ran late (p90 {late_p90:.0} us > {LATE_LIMIT_US} us)"
        ));
    }

    // Accuracy of model A's ASSIGN answers (bit-identical to the served
    // ones) on the held-out queries.
    let mut members = vec![Vec::new(); offline[0].saved.cluster_count()];
    for (q, resp) in expected.answers[0][0].iter().enumerate() {
        if let Response::Assign { hits, .. } = resp {
            for &(slot, _) in hits {
                members[slot as usize].push(q);
            }
        }
    }
    let acc = Confusion::new(&held_out.labels(), &members, MatchStrategy::Hungarian).accuracy();

    // Closed-loop figures over every block of the untraced server, SWAPs
    // included.
    let mean = |b: &[f64]| b.iter().sum::<f64>() / b.len().max(1) as f64;
    let job_s = mean(&blocks[0]);
    report.metric("setup_s", median(&setup), "s");
    report.metric("job_s", job_s, "s");
    report.metric("qps", BLOCK as f64 / job_s, "1/s");
    report.metric("query_p50_us", p50, "us");
    report.metric("query_p90_us", p90, "us");
    report.metric("peak_rss_mb", peak_rss, "MB");
    report.metric("accuracy", acc, "frac");
    report.note("open_loop_rate", OPEN_RATE);
    report.note("open_loop_samples", sent);
    report.note("query_p99_us", p99);
    report.note("job_s_median", median(&blocks[0]));
    report.note("closed_loop_blocks", blocks[0].len());
    report.note("swaps", swaps.millis.len());
    report.note("loadgen_late_p90_us", late_p90);

    if args.trace {
        for (name, hist) in [
            ("serve.accept_p50_us", HistKind::ServeAccept),
            ("serve.decode_p50_us", HistKind::ServeDecode),
            ("serve.queue_wait_p50_us", HistKind::ServeQueueWait),
            ("serve.batch_form_p50_us", HistKind::ServeBatchForm),
            ("serve.scan_p50_us", HistKind::ServeScan),
            ("serve.encode_p50_us", HistKind::ServeEncode),
            ("serve.write_back_p50_us", HistKind::ServeWriteBack),
        ] {
            report.metric(name, p50_us(&registry, hist), "us");
        }
        let batches: u64 = registry.hist_counts(HistKind::ServeBatchJobs).iter().sum();
        report.metric(
            "serve.batch_jobs_mean",
            registry.hist_sum(HistKind::ServeBatchJobs) as f64 / 1e3 / batches.max(1) as f64,
            "count",
        );
        report.metric("serve.swap_ms", median(&swaps.millis), "ms");
        report.metric(
            "serve.errors",
            registry.counter(Counter::ServeErrors) as f64,
            "count",
        );
        report.metric(
            "trace.overhead_frac",
            mean(&blocks[1]) / job_s - 1.0,
            "frac",
        );
        report.metric("loadgen.late_p90_us", late_p90, "us");
        report.metric("loadgen.sent", sent as f64, "count");

        let mut loads = Vec::new();
        let mut compiles = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            let file = File::open(&paths[0]).expect("open model A");
            let saved = SavedModel::load(&mut BufReader::new(file)).expect("load model A");
            loads.push(secs_since(t));
            let t = Instant::now();
            let automata = compile(&saved);
            compiles.push(secs_since(t));
            std::hint::black_box(automata);
        }
        report.metric("persist.load_s", median(&loads), "s");
        report.metric("pst.compile_s", median(&compiles), "s");
        let (states, table_mb) = table_stats(&offline[0].automata);
        report.metric("pst.states", states, "count");
        report.metric("pst.table_mb", table_mb, "MB");
        let psts: Vec<_> = offline[0].saved.clusters.iter().map(|c| &c.pst).collect();
        kernel_metrics(
            report,
            &psts,
            &offline[0].automata,
            &offline[0].saved.background,
            &queries,
        );
    }
}
