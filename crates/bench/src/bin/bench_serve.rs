//! Load-generates the serve daemon and records `BENCH_serve.json`.
//!
//! Two phases against an in-process `cluseq serve` instance on a
//! loopback socket, both issuing ASSIGN queries drawn from the training
//! database:
//!
//! 1. **single-in-flight** — one connection, strictly sequential
//!    request/response; the baseline a naive client sees.
//! 2. **concurrent** — `--clients` (default 16) closed-loop connections,
//!    each answered by its own connection thread.
//!
//! Both phases run with request tracing enabled (an in-memory registry).
//! One pass of a phase lasts a fraction of a second, so on a small host
//! a single pass is noise: each phase runs `ROUNDS` (5) times, the two
//! alternating which goes first, and the JSON records the median of each
//! figure with the min–max range beside it.
//!
//! A third section measures the observability tax directly: trios of
//! fresh server instances (two untraced, one traced) probed with
//! order-rotated interleaved bursts, respawned several times, with the
//! median per-trio traced-vs-untraced throughput delta reported as
//! `trace_overhead_pct` (budget: < 3%) and the median untraced A/A delta
//! as `disabled_aa_pct` — the noise floor for the compiled-in-but-
//! disabled path, which takes no clock reads at all (budget: < 1%).
//!
//! ```sh
//! cargo run --release -p cluseq-bench --bin bench_serve \
//!     [--quick] [--clients N] [--out BENCH_serve.json]
//! ```
//!
//! The target trajectory is concurrent throughput ≥ 3× the
//! single-in-flight qps. That ratio needs ≥ 4 cores: concurrent
//! connections turn idle round-trip gaps into parallel scoring, so on a
//! host with fewer cores (the JSON records `cores`) client and server
//! threads share them and the ratio stays unverified. The overhead deltas
//! are likewise noisier on few cores, where client and server share
//! hardware threads.

use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cluseq_bench::{flag_value, peak_rss_bytes, print_table};
use cluseq_core::persist::SavedModel;
use cluseq_core::serve::client::ServeClient;
use cluseq_core::serve::model::ServeModel;
use cluseq_core::serve::obs::{ObsConfig, ServeObs};
use cluseq_core::serve::{ServeConfig, Server};
use cluseq_core::trace::TraceSession;
use cluseq_core::{Cluseq, CluseqParams, ScanKernel};
use cluseq_datagen::SyntheticSpec;
use cluseq_seq::Symbol;

/// Passes of each load phase.
const ROUNDS: usize = 5;

struct PhaseStats {
    qps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
}

/// One figure of a phase over its passes: the median and the range
/// around it.
struct Spread {
    name: &'static str,
    median: f64,
    min: f64,
    max: f64,
}

/// Reads one figure off a pass.
type Figure = fn(&PhaseStats) -> f64;

/// A phase's figures (qps, p50, p95, p99) over all its passes.
fn summarize(runs: &[PhaseStats]) -> [Spread; 4] {
    let figures: [(&'static str, Figure); 4] = [
        ("qps", |s| s.qps),
        ("p50_us", |s| s.p50_us),
        ("p95_us", |s| s.p95_us),
        ("p99_us", |s| s.p99_us),
    ];
    figures.map(|(name, figure)| {
        let mut values: Vec<f64> = runs.iter().map(figure).collect();
        let median = median(&mut values);
        Spread {
            name,
            median,
            min: values[0],
            max: values[values.len() - 1],
        }
    })
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx] as f64 / 1_000.0
}

fn stats(total: usize, wall: Duration, mut latencies_ns: Vec<u64>) -> PhaseStats {
    latencies_ns.sort_unstable();
    PhaseStats {
        qps: total as f64 / wall.as_secs_f64(),
        p50_us: percentile(&latencies_ns, 0.50),
        p95_us: percentile(&latencies_ns, 0.95),
        p99_us: percentile(&latencies_ns, 0.99),
    }
}

/// One connection, one request in flight at a time.
fn run_single(addr: std::net::SocketAddr, queries: &[Vec<Symbol>], requests: usize) -> PhaseStats {
    let mut client = ServeClient::connect(addr).expect("connect");
    for q in queries.iter().take(64) {
        client.assign(q).expect("warmup assign");
    }
    let mut latencies = Vec::with_capacity(requests);
    let start = Instant::now();
    for i in 0..requests {
        let q = &queries[i % queries.len()];
        let sent = Instant::now();
        client.assign(q).expect("assign");
        latencies.push(sent.elapsed().as_nanos() as u64);
    }
    let wall = start.elapsed();
    stats(requests, wall, latencies)
}

/// `clients` closed-loop connections hammering concurrently.
fn run_concurrent(
    addr: std::net::SocketAddr,
    queries: &[Vec<Symbol>],
    clients: usize,
    requests: usize,
) -> PhaseStats {
    let per_client = requests / clients;
    let barrier = Barrier::new(clients + 1);
    let (wall, latencies) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    for q in queries.iter().take(8) {
                        client.assign(q).expect("warmup assign");
                    }
                    barrier.wait();
                    let mut latencies = Vec::with_capacity(per_client);
                    for i in 0..per_client {
                        // Stagger starting offsets so clients mix queries.
                        let q = &queries[(i + c * 7) % queries.len()];
                        let sent = Instant::now();
                        client.assign(q).expect("assign");
                        latencies.push(sent.elapsed().as_nanos() as u64);
                    }
                    latencies
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let latencies: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect();
        (start.elapsed(), latencies)
    });
    stats(per_client * clients, wall, latencies)
}

/// One single-in-flight burst on an already-warm connection; returns the
/// elapsed wall seconds.
fn burst_secs(client: &mut ServeClient, queries: &[Vec<Symbol>], requests: usize) -> f64 {
    let start = Instant::now();
    for i in 0..requests {
        client.assign(&queries[i % queries.len()]).expect("assign");
    }
    start.elapsed().as_secs_f64()
}

/// The middle value (mean of the middle two for even counts). Sorts in
/// place.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

struct Overhead {
    untraced_qps: f64,
    traced_qps: f64,
    trace_overhead_pct: f64,
    disabled_aa_pct: f64,
    /// Every trio's own overhead estimate, in spawn order — the spread
    /// the medians were drawn from.
    trio_overhead_pct: Vec<f64>,
}

/// The observability tax, measured against two distinct noise sources.
///
/// *Time-correlated* noise (thermal and noisy-neighbour bursts at the
/// 10 ms–1 s scale) is cancelled by fine-grained interleaving: each sweep
/// visits all three servers — two untraced, one traced — within a few
/// milliseconds, in an order rotated every sweep, so a burst slows every
/// leg of the sweep about equally and falls out of the ratio.
///
/// *Server-identity* noise is the nastier one: a freshly spawned server
/// can land in a scheduling/layout mode a few percent slower than its
/// peers and stay there for its whole life, which no amount of
/// interleaving cancels. So the whole trio is torn down and respawned
/// several times, each trio yields its own overhead estimate, and the
/// report takes the *median* across trios — a mean would let one trio
/// whose traced server drew a slow mode drag the headline number around,
/// while the median shrugs it off.
///
/// The two untraced roles yield an A/A delta under the identical
/// protocol: the measurement noise floor for the compiled-in-but-disabled
/// path, which takes no clock reads at all.
fn measure_overhead(
    model_path: &Path,
    config: &ServeConfig,
    queries: &[Vec<Symbol>],
    requests: usize,
) -> Overhead {
    const TRIOS: usize = 16;
    const WARMUP_SWEEPS: usize = 8;
    const SWEEPS: usize = 64;
    let slice = (requests / 20).max(100);
    let load = || ServeModel::load(model_path, None, ScanKernel::Compiled, 1).expect("load model");

    let mut trio_overhead = Vec::with_capacity(TRIOS);
    let mut trio_aa = Vec::with_capacity(TRIOS);
    let mut trio_untraced = Vec::with_capacity(TRIOS);
    let mut trio_traced = Vec::with_capacity(TRIOS);
    for trio in 0..TRIOS {
        let obs = Arc::new(
            ServeObs::new(
                TraceSession::in_memory().shared_arc(),
                &ObsConfig::default(),
            )
            .expect("open obs"),
        );
        let off_a = Server::start(load(), None, config, None).expect("start untraced a");
        let off_b = Server::start(load(), None, config, None).expect("start untraced b");
        let on = Server::start(load(), None, config, Some(obs)).expect("start traced");
        let mut c_off_a = ServeClient::connect(off_a.addr()).expect("connect");
        let mut c_off_b = ServeClient::connect(off_b.addr()).expect("connect");
        let mut c_on = ServeClient::connect(on.addr()).expect("connect");
        let mut trio_secs = [0.0f64; 3];
        for sweep in 0..WARMUP_SWEEPS + SWEEPS {
            let mut sweep_secs = [0.0f64; 3];
            for slot in 0..3 {
                let role = (slot + sweep + trio) % 3;
                sweep_secs[role] = match role {
                    0 => burst_secs(&mut c_off_a, queries, slice),
                    1 => burst_secs(&mut c_on, queries, slice),
                    _ => burst_secs(&mut c_off_b, queries, slice),
                };
            }
            if sweep < WARMUP_SWEEPS {
                continue; // warmup: caches, branch predictors, socket buffers
            }
            for (total, s) in trio_secs.iter_mut().zip(sweep_secs) {
                *total += s;
            }
        }
        drop((c_off_a, c_off_b, c_on));
        off_a.shutdown();
        off_b.shutdown();
        on.shutdown();
        let n = SWEEPS * slice;
        // trio_secs[role]: 0 = untraced a, 1 = traced, 2 = untraced b.
        let qps = trio_secs.map(|s| n as f64 / s);
        let untraced = (qps[0] + qps[2]) / 2.0;
        let overhead = (untraced - qps[1]) / untraced * 100.0;
        eprintln!(
            "overhead trio {}/{TRIOS}: untraced {:.0}/{:.0} qps, traced {:.0} qps ({overhead:+.2}%)",
            trio + 1,
            qps[0],
            qps[2],
            qps[1],
        );
        trio_overhead.push(overhead);
        trio_aa.push((qps[0] - qps[2]).abs() / untraced * 100.0);
        trio_untraced.push(untraced);
        trio_traced.push(qps[1]);
    }

    Overhead {
        untraced_qps: median(&mut trio_untraced),
        traced_qps: median(&mut trio_traced),
        trace_overhead_pct: median(&mut trio_overhead.clone()),
        disabled_aa_pct: median(&mut trio_aa),
        trio_overhead_pct: trio_overhead,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let out = flag_value("--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
    let clients: usize = flag_value("--clients")
        .map(|v| v.parse().expect("--clients needs an integer"))
        .unwrap_or(16);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (avg_len, max_depth, requests) = if quick { (80, 4, 640) } else { (240, 6, 6400) };

    // Fixture: a trained 4-cluster model over moderately long sequences,
    // so scoring (not loopback framing) dominates each request.
    let db = SyntheticSpec {
        sequences: 48,
        clusters: 4,
        avg_len,
        alphabet: 12,
        outlier_fraction: 0.0,
        seed: 17,
    }
    .generate();
    let outcome = Cluseq::new(
        CluseqParams::default()
            .with_initial_clusters(4)
            .with_significance(5)
            .with_max_depth(max_depth)
            .with_max_iterations(4)
            .with_seed(9),
    )
    .run(&db);
    let model_path =
        std::env::temp_dir().join(format!("cluseq_bench_serve_{}.cseq", std::process::id()));
    let saved = SavedModel::from_outcome(&outcome);
    let mut f = std::fs::File::create(&model_path).expect("create model file");
    saved.save(&mut f).expect("save model");
    drop(f);

    let model = ServeModel::load(&model_path, None, ScanKernel::Compiled, 1).expect("load model");
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        kernel: ScanKernel::Compiled,
        frame_timeout: Duration::from_secs(30),
        watch_sighup: false,
    };
    let obs = Arc::new(
        ServeObs::new(
            TraceSession::in_memory().shared_arc(),
            &ObsConfig::default(),
        )
        .expect("open obs"),
    );
    let server = Server::start(model, None, &config, Some(obs)).expect("start server");
    let queries: Vec<Vec<Symbol>> = (0..db.len())
        .map(|i| db.sequence(i).symbols().to_vec())
        .collect();

    eprintln!(
        "serving {} clusters on {} ({} cores)",
        saved.cluster_count(),
        server.addr(),
        cores
    );
    let mut singles = Vec::with_capacity(ROUNDS);
    let mut concurrents = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        // Alternate the order so a slow stretch of the host is shared.
        if round % 2 == 0 {
            singles.push(run_single(server.addr(), &queries, requests));
            concurrents.push(run_concurrent(server.addr(), &queries, clients, requests));
        } else {
            concurrents.push(run_concurrent(server.addr(), &queries, clients, requests));
            singles.push(run_single(server.addr(), &queries, requests));
        }
    }
    server.shutdown();
    let single = summarize(&singles);
    let concurrent = summarize(&concurrents);

    let overhead = measure_overhead(&model_path, &config, &queries, requests);
    let _ = std::fs::remove_file(&model_path);

    // Figure 0 is qps.
    let speedup = concurrent[0].median / single[0].median;
    let row = |name: String, figures: &[Spread]| {
        let cells = figures
            .iter()
            .map(|s| format!("{:.0} [{:.0}-{:.0}]", s.median, s.min, s.max));
        std::iter::once(name).chain(cells).collect::<Vec<_>>()
    };
    print_table(
        &format!("serve: single-in-flight vs concurrent load (traced), median [min-max] of {ROUNDS} passes"),
        &["phase", "qps", "p50 (us)", "p95 (us)", "p99 (us)"],
        &[
            row("single".into(), &single),
            row(format!("concurrent x{clients}"), &concurrent),
        ],
    );
    println!("\nconcurrent/single throughput: {speedup:.2}x (target >= 3x on >= 4 cores; this host: {cores})");
    println!(
        "tracing overhead: {:.2}% (traced {:.0} vs untraced {:.0} qps, budget < 3%); untraced A/A noise {:.2}% (budget < 1%)",
        overhead.trace_overhead_pct, overhead.traced_qps, overhead.untraced_qps, overhead.disabled_aa_pct
    );

    let peak_rss = peak_rss_bytes().unwrap_or(0);
    let phase_json = |figures: &[Spread]| {
        let fields: Vec<String> = figures
            .iter()
            .map(|s| {
                let name = s.name;
                format!(
                    "\"{name}\": {:.1}, \"{name}_min\": {:.1}, \"{name}_max\": {:.1}",
                    s.median, s.min, s.max
                )
            })
            .collect();
        format!("{{\"runs\": {ROUNDS}, {}}}", fields.join(", "))
    };
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"quick\": {quick},\n  \"peak_rss_bytes\": {peak_rss},\n  \"cores\": {cores},\n  \
         \"clients\": {clients},\n  \"requests_per_phase\": {requests},\n  \
         \"traced\": true,\n  \
         \"single\": {},\n  \
         \"concurrent\": {},\n  \
         \"speedup\": {speedup:.4},\n  \
         \"overhead\": {{\"untraced_qps\": {:.1}, \"traced_qps\": {:.1}, \"trace_overhead_pct\": {:.3}, \"disabled_aa_pct\": {:.3}, \"trio_overhead_pct\": [{}]}},\n  \
         \"note\": \"single and concurrent figures are medians over {ROUNDS} alternating passes, with the min and max pass beside them; overhead numbers are medians of per-trio estimates over 16 respawned server trios, 64 order-rotated fine-grained sweeps each; noisy when cores=1 because client and server share one hardware thread\"\n}}\n",
        phase_json(&single),
        phase_json(&concurrent),
        overhead.untraced_qps,
        overhead.traced_qps,
        overhead.trace_overhead_pct,
        overhead.disabled_aa_pct,
        overhead
            .trio_overhead_pct
            .iter()
            .map(|v| format!("{v:.3}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("wrote {out}");
}
