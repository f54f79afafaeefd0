//! The repository benchmark's workload runner.
//!
//! ```sh
//! perfbench prepare --workload W --seed S --dir D [--tiny]
//! perfbench run     --workload W --seed S --dir D --seconds T [--trace] [--tiny] [--inject-fault]
//! ```
//!
//! `prepare` builds a workload's inputs (corpus files, trained models,
//! held-out queries) from the seed. It runs in its own process, so input
//! generation never reaches the measured process's peak RSS. `run` measures
//! one workload against those inputs and prints one JSON object on its last
//! stdout line; `perfbench/run.py` turns that into the benchmark's result.
//!
//! Every workload plants a fixed synthetic corpus and lets the seed relabel
//! its alphabet. Each seed therefore gets its own input bytes, while the
//! clustering work is isomorphic across seeds: accuracy and the
//! deterministic counts repeat, and only time varies.
//!
//! The program is driven only through its public library API. Layers are
//! measured from outside, by timing calls into their public functions and
//! by reading the program's existing observers (`TraceSession`,
//! `ServeObs`).

mod assign;
mod cluster;
mod serve;

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

use cluseq::core::persist::{SavedCluster, SavedModel};
use cluseq::core::serve::model::ServeModel;
use cluseq::core::serve::protocol::Response;
use cluseq::core::similarity::max_similarity_pst;
use cluseq::core::{BoundedSimilarity, ClusterAutomaton, ScanKernel};
use cluseq::pst::Pst;
use cluseq::seq::{BackgroundModel, Sequence, SequenceDatabase, Symbol};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// End-to-end metrics: every workload reports all of them from an
/// untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("job_s", "s"),
    ("qps", "1/s"),
    ("query_p50_us", "us"),
    ("query_p90_us", "us"),
    ("peak_rss_mb", "MB"),
    ("accuracy", "frac"),
];

/// Per-layer metrics, reported from a traced run. A workload reports
/// every one except those its `IDLE_LAYERS` names, which read 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("seq.decode_s", "s"),
    ("seq.open_s", "s"),
    ("seq.read_s", "s"),
    ("seq.read_mb", "MB"),
    ("persist.load_s", "s"),
    ("pst.compile_s", "s"),
    ("pst.states", "count"),
    ("pst.table_mb", "MB"),
    ("kernel.compiled_ns_per_sym", "ns"),
    ("kernel.batched_ns_per_sym", "ns"),
    ("kernel.interpreted_ns_per_sym", "ns"),
    ("score.pass_s", "s"),
    ("score.pairs", "count"),
    ("score.pairs_pruned", "count"),
    ("seeding.s", "s"),
    ("seeding.candidates", "count"),
    ("seeding.seeds", "count"),
    ("recluster.score_s", "s"),
    ("recluster.absorb_s", "s"),
    ("recluster.pairs_scored", "count"),
    ("recluster.pairs_pruned", "count"),
    ("recluster.new_joins", "count"),
    ("recluster.membership_changes", "count"),
    ("recluster.first_scan_s", "s"),
    ("recluster.first_scan_builds", "count"),
    ("consolidate.s", "s"),
    ("consolidate.dismissed", "count"),
    ("threshold.s", "s"),
    ("threshold.moves", "count"),
    ("algorithm.iterations", "count"),
    ("algorithm.iteration_s", "s"),
    ("algorithm.finalize_s", "s"),
    ("algorithm.unattributed_frac", "frac"),
    ("serve.accept_p50_us", "us"),
    ("serve.decode_p50_us", "us"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.batch_form_p50_us", "us"),
    ("serve.scan_p50_us", "us"),
    ("serve.encode_p50_us", "us"),
    ("serve.write_back_p50_us", "us"),
    ("serve.batch_jobs_mean", "count"),
    ("serve.swap_ms", "ms"),
    ("serve.errors", "count"),
    ("trace.overhead_frac", "frac"),
    ("loadgen.late_p90_us", "us"),
    ("loadgen.sent", "count"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub dir: PathBuf,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke-test sizes for the self-test: every code path, seconds of work.
    pub tiny: bool,
    /// Feed one wrong answer to the correctness checks (self-test only).
    pub inject_fault: bool,
}

/// Everything one `run` reports: metrics, the operation tally, failed
/// checks, the determinism digests and free-form notes.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    digests: Vec<(String, u64)>,
    notes: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Counts one attempted operation; a false `ok` counts it failed and
    /// records why.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 16 {
                self.problems.push(why());
            }
        }
        ok
    }

    /// A problem that invalidates the run without being an operation.
    pub fn invalid(&mut self, why: String) {
        self.problems.push(why);
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    fn print(&self) {
        let mut out = String::from("{\"metrics\": {");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}{}: [{value:?}, {}]",
                json_str(name),
                json_str(unit)
            );
        }
        let _ = write!(
            out,
            "}}, \"attempted\": {}, \"failed\": {}, \"problems\": [",
            self.attempted, self.failed
        );
        let problems: Vec<String> = self.problems.iter().map(|p| json_str(p)).collect();
        out.push_str(&problems.join(", "));
        out.push_str("], \"digests\": {");
        let digests: Vec<String> = self
            .digests
            .iter()
            .map(|(k, v)| format!("{}: \"{v:016x}\"", json_str(k)))
            .collect();
        out.push_str(&digests.join(", "));
        out.push_str("}, \"notes\": {");
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        out.push_str(&notes.join(", "));
        out.push_str("}}");
        println!("{out}");
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The best (smallest) of repeated timings. Interference from other
/// tenants of the host only ever adds time, and it comes and goes over
/// seconds, so the fastest repetition is the steadiest estimate of what
/// the work costs.
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Latency percentiles of the quietest window: each window's p50, p90
/// and p99, then the best of each across windows.
pub fn window_percentiles(windows: &mut [Vec<f64>]) -> [f64; 3] {
    let mut out = [f64::INFINITY; 3];
    for w in windows.iter_mut().filter(|w| !w.is_empty()) {
        w.sort_by(f64::total_cmp);
        for (o, q) in out.iter_mut().zip([0.50, 0.90, 0.99]) {
            *o = o.min(percentile(w, q));
        }
    }
    out
}

pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The process's peak resident set, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// FNV-1a over the deterministic outputs a repetition produced.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn opt(&mut self, v: Option<usize>) {
        self.u64(v.map_or(u64::MAX, |x| x as u64));
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// The determinism guard: every repetition's digest must equal the first
/// one's. The first is also reported, so `run.py` can hold the run's
/// later processes to the first process's digest.
pub struct Guard {
    name: &'static str,
    first: Option<u64>,
}

impl Guard {
    pub fn new(name: &'static str) -> Self {
        Guard { name, first: None }
    }

    pub fn check(&mut self, report: &mut Report, digest: u64) -> bool {
        let name = self.name;
        match self.first {
            None => {
                self.first = Some(digest);
                report.digests.push((name.to_string(), digest));
                report.check(true, String::new)
            }
            Some(first) => report.check(first == digest, || {
                format!(
                    "{name}: digest {digest:016x} differs from the first repetition's {first:016x}"
                )
            }),
        }
    }
}

/// The seed's relabeling of an `n`-symbol alphabet: `perm[old] = new`.
pub fn permutation(seed: u64, n: usize) -> Vec<u16> {
    let mut perm: Vec<u16> = (0..n as u16).collect();
    perm.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15));
    perm
}

pub fn relabel_symbols(symbols: &[Symbol], perm: &[u16]) -> Vec<Symbol> {
    symbols.iter().map(|s| Symbol(perm[s.index()])).collect()
}

/// `db` with every symbol relabeled by `perm`; labels and order kept.
pub fn relabel(db: &SequenceDatabase, perm: &[u16]) -> SequenceDatabase {
    let mut out = SequenceDatabase::new(db.alphabet().clone());
    for (_, seq, label) in db.iter() {
        out.push_labeled(Sequence::new(relabel_symbols(seq.symbols(), perm)), label);
    }
    out
}

/// Single-thread scan-kernel speed over a workload's own model and a
/// sample of its sequences, ns per symbol per cluster: the compiled
/// per-pair scan, the batched lane-interleaved scan over the same tables,
/// and the interpreted tree walk.
pub fn kernel_metrics(
    report: &mut Report,
    psts: &[&Pst],
    automata: &[ClusterAutomaton],
    background: &BackgroundModel,
    sample: &[Vec<Symbol>],
) {
    let symbols: usize = sample.iter().map(Vec::len).sum::<usize>() * automata.len().max(1);
    let refs: Vec<&[Symbol]> = sample.iter().map(Vec::as_slice).collect();
    let compiled = || {
        let mut sum = 0.0;
        for a in automata {
            for s in &refs {
                sum += a.scan(s).log_sim;
            }
        }
        sum
    };
    let batched = || {
        let mut sum = 0.0;
        for a in automata {
            for v in a.scan_batch(&refs, None) {
                if let BoundedSimilarity::Exact(s) = v {
                    sum += s.log_sim;
                }
            }
        }
        sum
    };
    let interpreted = || {
        let mut sum = 0.0;
        for pst in psts {
            for s in &refs {
                sum += max_similarity_pst(pst, background, s).log_sim;
            }
        }
        sum
    };
    let passes: [&dyn Fn() -> f64; 3] = [&compiled, &batched, &interpreted];
    let mut samples = [Vec::new(), Vec::new(), Vec::new()];
    let mut sums = [0.0f64; 3];
    // Interleaved rounds, so a burst of host noise lands on every kernel.
    for _ in 0..5 {
        for (k, pass) in passes.iter().enumerate() {
            let start = Instant::now();
            sums[k] = std::hint::black_box(pass());
            samples[k].push(start.elapsed().as_nanos() as f64 / symbols.max(1) as f64);
        }
    }
    report.check(
        sums[0].to_bits() == sums[1].to_bits() && sums[0].to_bits() == sums[2].to_bits(),
        || format!("kernels disagree on the sample: {sums:?}"),
    );
    report.metric("kernel.compiled_ns_per_sym", best(&samples[0]), "ns");
    report.metric("kernel.batched_ns_per_sym", best(&samples[1]), "ns");
    report.metric("kernel.interpreted_ns_per_sym", best(&samples[2]), "ns");
}

/// One pass of single ASSIGN queries through the serve path's classifier,
/// after an untimed pass that warms the caches; each query's latency in
/// microseconds.
pub fn query_pass(model: &ServeModel, queries: &[Vec<Symbol>]) -> Vec<f64> {
    for q in queries {
        std::hint::black_box(model.assign(q));
    }
    queries
        .iter()
        .map(|q| {
            let t = Instant::now();
            std::hint::black_box(model.assign(q));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect()
}

/// Checks every query's ASSIGN answer through the serve path's compiled
/// classifier against the offline interpreted one; `inject_fault` swaps
/// the first answer for a wrong one.
pub fn check_queries(
    report: &mut Report,
    model: &ServeModel,
    queries: &[Vec<Symbol>],
    inject_fault: bool,
) {
    for (i, q) in queries.iter().enumerate() {
        let mut got = model.assign(q);
        if inject_fault && i == 0 {
            got = Response::Assign {
                generation: model.generation,
                hits: vec![(u32::MAX, 0.0)],
            };
        }
        let want = Response::Assign {
            generation: model.generation,
            hits: model
                .saved
                .assign(q)
                .into_iter()
                .map(|(k, s)| (k as u32, s))
                .collect(),
        };
        report.check(got == want, || {
            format!("query {i}: compiled answer {got:?} != offline {want:?}")
        });
    }
}

/// A model's scan automata under the compiled kernel, slot order.
pub fn compile(saved: &SavedModel) -> Vec<ClusterAutomaton> {
    saved
        .clusters
        .iter()
        .map(|c| {
            ClusterAutomaton::build(&c.pst, &saved.background, ScanKernel::Compiled)
                .expect("compiled kernel builds an automaton")
        })
        .collect()
}

/// Writes a model of one trained PST per cluster, slot order, to `path`.
pub fn save_model(
    path: &Path,
    psts: Vec<Pst>,
    background: BackgroundModel,
    log_t: f64,
) -> std::io::Result<()> {
    let saved = SavedModel {
        clusters: psts
            .into_iter()
            .enumerate()
            .map(|(k, pst)| SavedCluster {
                id: k as u64,
                seed: k as u64,
                pst,
            })
            .collect(),
        background,
        log_t,
    };
    let mut w = BufWriter::new(File::create(path)?);
    saved.save(&mut w)?;
    w.flush()
}

/// Compiled-table size of a model: total states and table MB.
pub fn table_stats(automata: &[ClusterAutomaton]) -> (f64, f64) {
    let mut states = 0usize;
    let mut bytes = 0usize;
    for a in automata {
        if let ClusterAutomaton::Exact(c) = a {
            states += c.state_count();
        }
        bytes += a.table_bytes();
    }
    (states as f64, bytes as f64 / 1e6)
}

fn parse_args() -> Result<(String, Args), String> {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().ok_or("missing command (prepare|run)")?;
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        dir: PathBuf::new(),
        seconds: 10.0,
        trace: false,
        tiny: false,
        inject_fault: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--dir" => args.dir = PathBuf::from(value()?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = true,
            "--tiny" => args.tiny = true,
            "--inject-fault" => args.inject_fault = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.dir.as_os_str().is_empty() {
        return Err("--dir is required".into());
    }
    Ok((cmd, args))
}

/// Puts the report in list order, keeping each metric's reported unit.
/// A listed metric the workload names in `idle` reads 0; any other one
/// it did not report, or an idle one it did, is a problem.
fn complete(report: &mut Report, list: &[(&str, &str)], idle: &[&str]) {
    let mut ordered = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        let reported = report.metrics.iter().find(|(n, _, _)| n == name).cloned();
        match (reported, idle.contains(&name)) {
            (Some(m), false) => ordered.push(m),
            (None, true) => ordered.push((name.to_string(), 0.0, unit.to_string())),
            (Some(_), true) => report.invalid(format!("metric {name} is listed idle but reported")),
            (None, false) => report.invalid(format!("metric {name} not reported")),
        }
    }
    report.metrics = ordered;
}

fn main() {
    let (cmd, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let known = ["cluster-default", "assign-outofcore", "serve-mixed"];
    if !known.contains(&args.workload.as_str()) {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    }
    match cmd.as_str() {
        "prepare" => {
            let done = args.dir.join("prepared");
            if done.exists() {
                return;
            }
            std::fs::create_dir_all(&args.dir).expect("create workload directory");
            let result = match args.workload.as_str() {
                "cluster-default" => cluster::prepare(&args),
                "assign-outofcore" => assign::prepare(&args),
                _ => serve::prepare(&args),
            };
            if let Err(e) = result {
                eprintln!("perfbench: preparing {}: {e}", args.workload);
                std::process::exit(1);
            }
            std::fs::write(done, "").expect("mark inputs prepared");
        }
        "run" => {
            if !args.dir.join("prepared").exists() {
                eprintln!("perfbench: {} holds no prepared inputs", args.dir.display());
                std::process::exit(2);
            }
            let mut report = Report::default();
            let idle = match args.workload.as_str() {
                "cluster-default" => {
                    cluster::run(&args, &mut report);
                    cluster::IDLE_LAYERS
                }
                "assign-outofcore" => {
                    assign::run(&args, &mut report);
                    assign::IDLE_LAYERS
                }
                _ => {
                    serve::run(&args, &mut report);
                    serve::IDLE_LAYERS
                }
            };
            if args.trace {
                complete(&mut report, &PER_LAYER, idle);
            } else {
                complete(&mut report, &END_TO_END, &[]);
            }
            report.print();
        }
        other => {
            eprintln!("perfbench: unknown command {other:?}");
            std::process::exit(2);
        }
    }
}
