//! `cluseq` — command-line driver for the CLUSEQ sequence-clustering
//! system.
//!
//! Subcommands:
//!
//! * `generate` — write a synthetic labeled database (lines format);
//! * `cluster` — cluster a lines-format file, print memberships;
//! * `evaluate` — cluster a labeled file and print quality metrics;
//! * `serve` — long-running clustering-as-a-service daemon over a frozen
//!   model (binary protocol + HTTP JSON facade, hot swap on SIGHUP,
//!   request observability with slow-request log and health endpoints);
//! * `top` — live dashboard over a serve daemon's `/metrics`;
//! * `trace-summary` — render a `--trace` JSONL file (clustering or
//!   serve) as tables;
//! * `help` — usage.
//!
//! ```sh
//! cluseq generate --sequences 500 --clusters 5 --out data.txt
//! cluseq cluster data.txt --significance 10
//! cluseq evaluate data.txt --significance 10
//! ```

mod args;
mod top;

use std::process::ExitCode;

use args::Args;
use cluseq_core::persist::SavedModel;
use cluseq_core::telemetry::{
    CheckpointEvent, IterationRecord, ResumeInfo, RunContext, RunObserver, RunReport, RunSummary,
};
use cluseq_core::trace::{sink, summary};
use cluseq_core::{
    Checkpoint, Cluseq, CluseqParams, ExaminationOrder, ScanKernel, ScanMode, TraceConfig,
    TraceSession,
};
use cluseq_datagen::{LanguageSpec, ProteinFamilySpec, SyntheticSpec};
use cluseq_eval::{Confusion, MatchStrategy, Stopwatch};
use cluseq_seq::codec;
use cluseq_seq::store::FileStore;
use cluseq_seq::{SequenceDatabase, SequenceStore, StoreKind};

const USAGE: &str = "\
cluseq — sequence clustering by sequential statistical features (ICDE 2003)

USAGE:
  cluseq generate [--kind synthetic|protein|language] [--sequences N]
                  [--clusters K] [--avg-len L] [--alphabet A]
                  [--outliers FRAC] [--seed S] [--out FILE] [--format text|bin]
  cluseq cluster  FILE [clustering options] [--save-model MODEL]
  cluseq evaluate FILE [clustering options]
  cluseq classify FILE --model MODEL
  cluseq inspect  --model MODEL [--max-nodes N]
  cluseq serve    --model MODEL [--data FILE [--store memory|file]]
                  [serve options]
  cluseq top      [ADDR] [--once] [--interval-ms MS]
  cluseq trace-summary TRACE_FILE

SERVE OPTIONS:
  --model MODEL          frozen model to serve: a `cluster --save-model`
                         snapshot (CSEQ) or a crash-recovery checkpoint
                         (CCKP; needs --data, the training file, to
                         re-derive the background model)
  --store memory|file    how --data is read: fully resident, or streamed
                         out of core from a CSEQ binary (default memory)
  --addr ADDR            bind address (default 127.0.0.1:7878; port 0
                         picks a free port — the bound address is printed)
  --threads N            scoring worker threads per batch (default 1)
  --max-batch N          most requests one scoring batch drains (default 64)
  --scan-kernel interpreted|compiled
                         query scan kernel: walk the suffix tree, or scan
                         its compiled transition tables; bit-identical
                         answers (default compiled)
  --frame-timeout-ms MS  slow-loris cutoff: how long a started request may
                         take to finish arriving (default 5000)
  --metrics-addr ADDR    standalone Prometheus exporter for the serve
                         registry: per-opcode request counters and latency
                         histograms, per-stage timing histograms, queue
                         depth, in-flight, batch size, generation, RSS
                         (the serve port's GET /metrics renders the same)
  --slow-log PATH        append a crash-safe JSONL record (request id,
                         opcode, generation, full stage timing breakdown)
                         for every request at or over the slow threshold;
                         an existing file gets its torn tail repaired and
                         the stream continues (render with trace-summary)
  --slow-threshold-ms MS slow-request threshold (default 100)
  --trace PATH           append serve lifecycle events (serve_start,
                         serve_swap, serve_end with a full counter and
                         histogram snapshot) as JSONL; render with
                         `cluseq trace-summary PATH`

  Any of --metrics-addr / --slow-log / --trace enables request tracing:
  every accepted request gets an id and a seven-stage timeline (accept,
  decode, queue wait, batch formation, scan, encode, write-back). With
  none of them the serve path is entirely uninstrumented.

  The daemon answers a length-prefixed binary protocol (ASSIGN, SCORE,
  ANOMALY, INFO, SWAP, SHUTDOWN) and speaks just enough HTTP/1.1 on the
  same port for `curl`: GET /info /metrics /healthz /readyz, POST
  /assign /score /anomaly (body = sequence, either symbol ids `0 1 0 1`
  or characters `abab`; /anomaly takes ?threshold=LN_T), POST /swap
  (body = model path). SIGHUP atomically reloads the model file in
  place: in-flight requests finish on the generation that scored them,
  none are dropped. SIGTERM drains gracefully: queued requests are
  answered, then the observability streams are flushed.

TOP OPTIONS:
  cluseq top [ADDR]      live dashboard over a serve daemon's /metrics
                         (default 127.0.0.1:7878): qps, in-flight, queue
                         depth, per-opcode p50/p95/p99/p999, per-stage
                         means, generation, RSS
  --once                 print one frame (two scrapes 250 ms apart) and
                         exit — for scripts and CI
  --interval-ms MS       live refresh interval (default 2000)

CLUSTERING OPTIONS:
  --initial-clusters K   initial cluster count (default 1)
  --significance C       significance threshold c (default 30)
  --threshold T          initial similarity threshold t (default 1.0005)
  --no-adjust            freeze t at its initial value
  --max-depth L          PST context bound (default 12)
  --pst-bytes BYTES      per-cluster PST memory budget (default 5 MiB)
  --order fixed|random|cluster   examination order (default fixed)
  --scan-mode incremental|snapshot   re-clustering scan variant: the
                         paper's immediate model updates, or parallel
                         snapshot scoring with a sequential absorb phase
                         (default incremental)
  --scan-kernel interpreted|compiled
                         similarity-scan implementation: walk the suffix
                         tree per symbol, or compile each cluster model
                         into a flat transition-table automaton with
                         precomputed log-ratio tables and threshold
                         early-exit; bit-identical results (default
                         compiled). Snapshot passes interleave eight
                         sequences per automaton automatically once its
                         tables exceed 512 KiB
  --threads N            worker threads for the scoring passes; results
                         are identical for any value (default 1)
  --store memory|file    corpus access: load the whole file into RAM, or
                         stream a CSEQ binary out of core through its
                         .csix offset index with a bounded per-worker
                         window (default memory; file needs a binary
                         input, e.g. from `generate --format bin`) — the
                         clustering is byte-identical either way
  --scan-shard N         snapshot-scan shard size: score and absorb N
                         sequences at a time so per-scan buffers stay
                         bounded by the shard, not the corpus; results
                         are byte-identical for any value (requires
                         --scan-mode snapshot, incompatible with
                         --incremental)
  --model-cache-mb MB    build per-cluster scan automata lazily and keep
                         at most MB megabytes of them, evicting least
                         recently used (default: keep all models hot)
  --incremental          incremental iteration engine: cache (sequence,
                         cluster) similarities across iterations, rescore
                         only against clusters whose model changed, and
                         write checkpoints as deltas against the previous
                         one; the clustering is byte-identical to a full
                         rescore every iteration (default off)
  --seed S               RNG seed (default fixed)
  --max-iterations N     iteration cap (default 50)
  --checkpoint-dir DIR   write crash-recovery checkpoints to DIR, one per
                         cadence boundary (atomic temp+fsync+rename files
                         named cluseq-NNNNNN.ckpt; a final checkpoint is
                         always written at the fixpoint)
  --checkpoint-every N   checkpoint cadence in iterations (default 1;
                         needs --checkpoint-dir)
  --resume [PATH]        resume from the newest checkpoint in
                         --checkpoint-dir — or from PATH exactly — instead
                         of starting over; the finished run is bit-identical
                         to an uninterrupted one (the bare flag starts fresh
                         when the directory is empty, so a crash-restart
                         loop can always pass --resume)
  --verbose              print per-iteration progress while clustering
  --report [PATH]        record per-iteration telemetry (phase timings,
                         cluster lifecycle, similarity histogram, threshold
                         trajectory, PST sizes), print the iteration table,
                         and write the report to PATH (default
                         results/reports/run-report.json)
  --report-format json|text   report file format (default json)
  --trace PATH           append a live JSONL trace event stream to PATH
                         (crash-safe: fsynced every iteration before any
                         checkpoint write; with --resume, pass the same
                         PATH and the stream continues in place — render
                         it any time with `cluseq trace-summary PATH`)
  --metrics-addr ADDR    serve Prometheus text-format metrics on ADDR
                         while clustering (e.g. 127.0.0.1:9184, or port 0
                         for an ephemeral port; the bound address is
                         printed on startup)

FILE FORMATS: text = one sequence per line, one character per symbol, an
optional `label<TAB>` prefix carrying ground truth (`-` marks a known
outlier); bin = the CSDB binary format (any alphabet, much faster to
load), written as CSEQ v2 with a `.csix` sidecar offset index so it can
be clustered out of core with `--store file` — `generate --format bin
--kind synthetic` streams the corpus straight to disk without ever
holding it in RAM. Input files are detected by their magic bytes.
";

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    match args.command.as_deref() {
        Some("generate") => generate(&args),
        Some("cluster") => cluster(&args, false),
        Some("evaluate") => cluster(&args, true),
        Some("classify") => classify(&args),
        Some("inspect") => inspect(&args),
        Some("serve") => serve(&args),
        Some("top") => top::run(&args),
        Some("trace-summary") => trace_summary(&args),
        Some("help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown subcommand {other:?}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn synthetic_spec(args: &Args) -> SyntheticSpec {
    SyntheticSpec {
        sequences: args.get("sequences", 500),
        clusters: args.get("clusters", 5),
        avg_len: args.get("avg-len", 150),
        // Default fits the single-character file encoding (max 62).
        alphabet: args.get("alphabet", 60),
        outlier_fraction: args.get("outliers", 0.05),
        seed: args.get("seed", 42),
    }
}

fn generate(args: &Args) -> ExitCode {
    let kind = args.get_str("kind").unwrap_or("synthetic");
    if args.get_str("format") == Some("bin") {
        return generate_bin(args, kind);
    }
    let db = match kind {
        "synthetic" => synthetic_spec(args).generate(),
        "protein" => ProteinFamilySpec {
            families: args.get("clusters", 10),
            size_scale: args.get("scale", 0.05),
            seed: args.get("seed", 2003),
            ..Default::default()
        }
        .generate(),
        "language" => LanguageSpec {
            sentences_per_language: args.get("sequences", 600) / 3,
            noise_sentences: args.get("noise", 100),
            words_per_sentence: (20, 40),
            seed: args.get("seed", 2002),
        }
        .generate(),
        other => {
            eprintln!("error: unknown --kind {other:?} (synthetic|protein|language)");
            return ExitCode::from(2);
        }
    };

    // Symbols must be single characters for the lines codec; synthetic
    // alphabets use numeric names, so re-encode them as alphanumerics.
    let db = match single_char_recode(&db) {
        Some(db) => db,
        None => {
            eprintln!(
                "error: alphabet of {} symbols cannot be written as one \
                 character per symbol (max 62); use --format bin",
                db.alphabet().len()
            );
            return ExitCode::from(2);
        }
    };
    let text = codec::encode_lines(&db);
    match args.get_str("out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("error: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "wrote {} sequences ({} classes) to {path}",
                db.len(),
                db.class_count()
            );
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

/// `generate --format bin`: writes CSEQ v2 with its `.csix` sidecar
/// offset index. Synthetic corpora stream one sequence at a time, so
/// `--sequences 10000000` never materializes the database in RAM; the
/// protein and language corpora are small and fixed-shape, so they are
/// built resident and written indexed.
fn generate_bin(args: &Args, kind: &str) -> ExitCode {
    let Some(path) = args.get_str("out") else {
        eprintln!("error: --format bin requires --out FILE");
        return ExitCode::from(2);
    };
    let written = match kind {
        "synthetic" => synthetic_spec(args).generate_streamed(path),
        "protein" => cluseq_seq::store::write_indexed(
            &ProteinFamilySpec {
                families: args.get("clusters", 10),
                size_scale: args.get("scale", 0.05),
                seed: args.get("seed", 2003),
                ..Default::default()
            }
            .generate(),
            path,
        ),
        "language" => cluseq_seq::store::write_indexed(
            &LanguageSpec {
                sentences_per_language: args.get("sequences", 600) / 3,
                noise_sentences: args.get("noise", 100),
                words_per_sentence: (20, 40),
                seed: args.get("seed", 2002),
            }
            .generate(),
            path,
        ),
        other => {
            eprintln!("error: unknown --kind {other:?} (synthetic|protein|language)");
            return ExitCode::from(2);
        }
    };
    match written {
        Ok(n) => {
            eprintln!("wrote {n} sequences to {path} (CSEQ v2 + {path}.csix index)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: writing {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Rewrites a database onto a single-character alphabet (a–z, A–Z, 0–9)
/// so the lines codec round-trips. Returns `None` when the alphabet is too
/// large. Databases already using single-character names pass through.
fn single_char_recode(db: &SequenceDatabase) -> Option<SequenceDatabase> {
    use cluseq_seq::{Alphabet, Sequence};
    let n = db.alphabet().len();
    if db
        .alphabet()
        .symbols()
        .all(|s| db.alphabet().name(s).chars().count() == 1)
    {
        return Some(db.clone());
    }
    const CHARS: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    if n > CHARS.chars().count() {
        return None;
    }
    let alphabet = Alphabet::from_chars(CHARS.chars().take(n));
    let mut out = SequenceDatabase::new(alphabet);
    for (_, seq, label) in db.iter() {
        // Symbol ids are preserved; only names change.
        out.push_labeled(Sequence::new(seq.iter().collect()), label);
    }
    Some(out)
}

fn params_from(args: &Args) -> CluseqParams {
    let mut p = CluseqParams::default()
        .with_initial_clusters(args.get("initial-clusters", 1))
        .with_significance(args.get("significance", 30))
        .with_initial_threshold(args.get("threshold", 1.0005))
        .with_max_depth(args.get("max-depth", 12))
        .with_max_pst_bytes(args.get("pst-bytes", 5 * 1024 * 1024))
        .with_seed(args.get("seed", 0xC105E9))
        .with_max_iterations(args.get("max-iterations", 50))
        .with_threads(args.get("threads", 1usize).max(1))
        .with_scan_mode(args.get("scan-mode", ScanMode::Incremental))
        .with_scan_kernel(args.get("scan-kernel", ScanKernel::Compiled));
    if args.has("no-adjust") {
        p = p.with_threshold_adjustment(false);
    }
    if args.has("incremental") {
        p = p.with_incremental(true);
    }
    if args.get_str("scan-shard").is_some() {
        p = p.with_scan_shard(args.get("scan-shard", 1usize).max(1));
    }
    if args.get_str("model-cache-mb").is_some() {
        p = p.with_model_cache_mb(args.get("model-cache-mb", 0usize));
    }
    p = p.with_order(match args.get_str("order").unwrap_or("fixed") {
        "random" => ExaminationOrder::Random,
        "cluster" => ExaminationOrder::ClusterBased,
        _ => ExaminationOrder::Fixed,
    });
    if let Some(dir) = args.get_str("checkpoint-dir") {
        p = p.with_checkpoints(dir, args.get("checkpoint-every", 1usize));
    }
    p
}

fn load(args: &Args) -> Result<SequenceDatabase, ExitCode> {
    let Some(path) = args.positional.first() else {
        eprintln!("error: missing input file\n\n{USAGE}");
        return Err(ExitCode::from(2));
    };
    load_db_file(path).map_err(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

/// The corpus behind `cluster`/`evaluate`: owned either way, scanned
/// through [`SequenceStore`] either way.
enum Corpus {
    Memory(SequenceDatabase),
    File(FileStore),
}

impl Corpus {
    fn store(&self) -> &dyn SequenceStore {
        match self {
            Corpus::Memory(db) => db,
            Corpus::File(fs) => fs,
        }
    }
}

/// Opens the input file under `--store`: fully resident (either format),
/// or out of core through the offset index (CSEQ binaries only).
fn load_corpus(args: &Args) -> Result<Corpus, ExitCode> {
    match args.get("store", StoreKind::Memory) {
        StoreKind::Memory => load(args).map(Corpus::Memory),
        StoreKind::File => {
            let Some(path) = args.positional.first() else {
                eprintln!("error: missing input file\n\n{USAGE}");
                return Err(ExitCode::from(2));
            };
            FileStore::open(path).map(Corpus::File).map_err(|e| {
                eprintln!(
                    "error: opening {path} out of core: {e} (--store file needs \
                     a CSEQ binary; write one with `generate --format bin`)"
                );
                ExitCode::FAILURE
            })
        }
    }
}

/// Reads a sequence database from `path`, sniffing CSDB binary vs. the
/// lines text format by magic bytes.
fn load_db_file(path: &str) -> Result<SequenceDatabase, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    if bytes.starts_with(b"CSDB") {
        return cluseq_seq::binio::decode(&mut bytes.as_slice())
            .map_err(|e| format!("parsing {path}: {e}"));
    }
    let text = String::from_utf8(bytes)
        .map_err(|e| format!("{path} is neither CSDB nor utf-8 text: {e}"))?;
    codec::decode_lines(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// The CLI's telemetry sink: accumulates a [`RunReport`] for `--report`
/// and prints the `--verbose` live log from the same event stream.
/// Disabled (zero record-assembly cost) when neither flag is set.
struct CliObserver {
    report: RunReport,
    collect: bool,
    verbose: bool,
}

impl RunObserver for CliObserver {
    fn enabled(&self) -> bool {
        self.collect || self.verbose
    }

    fn on_run_start(&mut self, ctx: &RunContext) {
        self.report.on_run_start(ctx);
    }

    fn on_iteration(&mut self, record: &IterationRecord) {
        if self.verbose {
            let stats = record.stats();
            eprintln!(
                "iter {:>3}: +{} new, -{} consolidated -> {} clusters, {} changes, ln t = {:.2}",
                stats.iteration,
                stats.new_clusters,
                stats.removed_clusters,
                stats.clusters_at_end,
                stats.membership_changes,
                stats.log_t,
            );
        }
        if self.collect {
            self.report.on_iteration(record);
        }
    }

    fn on_checkpoint(&mut self, event: &CheckpointEvent) {
        if self.verbose {
            match &event.error {
                Some(e) => eprintln!("checkpoint after iter {} failed: {e}", event.completed),
                None => eprintln!(
                    "checkpoint after iter {} -> {} ({} bytes)",
                    event.completed, event.path, event.bytes
                ),
            }
        }
        if self.collect {
            self.report.on_checkpoint(event);
        }
    }

    fn on_resume(&mut self, info: &ResumeInfo) {
        if self.verbose {
            eprintln!(
                "resuming from checkpoint (v{}) after {} completed iterations",
                info.version, info.completed
            );
        }
        if self.collect {
            self.report.on_resume(info);
        }
    }

    fn on_run_end(&mut self, summary: &RunSummary) {
        self.report.on_run_end(summary);
    }
}

/// Writes the run report where `--report` asked for it (default:
/// `results/reports/run-report.<ext>`), creating the directory if needed.
fn write_report(args: &Args, report: &RunReport) -> Result<(), ExitCode> {
    let format = args.get_str("report-format").unwrap_or("json");
    let (content, default_name) = match format {
        "json" => (report.to_json(), "results/reports/run-report.json"),
        "text" => (report.render_table(), "results/reports/run-report.txt"),
        other => {
            eprintln!("error: unknown --report-format {other:?} (json|text)");
            return Err(ExitCode::from(2));
        }
    };
    let path = args.get_str("report").unwrap_or(default_name);
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: creating {}: {e}", dir.display());
                return Err(ExitCode::FAILURE);
            }
        }
    }
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("error: writing {path}: {e}");
        return Err(ExitCode::FAILURE);
    }
    eprintln!("run report ({format}) written to {path}");
    Ok(())
}

fn cluster(args: &Args, evaluate: bool) -> ExitCode {
    let corpus = match load_corpus(args) {
        Ok(corpus) => corpus,
        Err(code) => return code,
    };
    let store = corpus.store();
    let params = params_from(args);
    // Surface parameter conflicts as CLI errors before the engine's
    // validation would panic on them.
    if params.scan_shard.is_some() && params.scan_mode != ScanMode::Snapshot {
        eprintln!("error: --scan-shard requires --scan-mode snapshot");
        return ExitCode::from(2);
    }
    if params.scan_shard.is_some() && params.incremental {
        eprintln!("error: --scan-shard is incompatible with --incremental");
        return ExitCode::from(2);
    }
    // `--report PATH` parses as an option, bare `--report` as a switch;
    // either spelling turns collection on.
    let want_report = args.has("report") || args.get_str("report").is_some();
    let mut observer = CliObserver {
        report: RunReport::new(),
        collect: want_report,
        verbose: args.has("verbose"),
    };
    // Tracing is operational, not algorithmic: the session lives outside
    // CluseqParams and never enters a checkpoint.
    let trace_config = TraceConfig {
        jsonl: args.get_str("trace").map(std::path::PathBuf::from),
        metrics_addr: args.get_str("metrics-addr").map(str::to_owned),
    };
    let trace_session = if trace_config.jsonl.is_none() && trace_config.metrics_addr.is_none() {
        None
    } else {
        match TraceSession::start(&trace_config) {
            Ok(session) => Some(session),
            Err(e) => {
                eprintln!("error: starting trace session: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if let Some(addr) = trace_session.as_ref().and_then(|s| s.metrics_addr()) {
        eprintln!("metrics exporter listening on http://{addr}/metrics");
    }
    // `--resume` restarts from the newest checkpoint in --checkpoint-dir
    // (or fresh when none exists yet, so a crash-restart loop can pass the
    // flag unconditionally); `--resume PATH` loads that specific file. The
    // explicit form must be handled: the argument parser stores `--resume
    // foo.ckpt` as an option, not a switch, and silently ignoring the path
    // would run fresh with default parameters instead of resuming.
    let resume_path = if let Some(path) = args.get_str("resume") {
        Some(std::path::PathBuf::from(path))
    } else if args.has("resume") {
        let Some(policy) = params.checkpoint.clone() else {
            eprintln!("error: --resume requires --checkpoint-dir (or an explicit --resume PATH)");
            return ExitCode::from(2);
        };
        match Checkpoint::latest_in(&policy.dir) {
            Ok(found) => {
                if found.is_none() {
                    eprintln!(
                        "no checkpoint found in {}; starting fresh",
                        policy.dir.display()
                    );
                }
                found
            }
            Err(e) => {
                eprintln!("error: scanning {}: {e}", policy.dir.display());
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let resume_from = match resume_path {
        Some(path) => match Checkpoint::load_path(&path) {
            Ok(ckpt) => {
                if let Err(mismatch) = ckpt.verify_database(store) {
                    eprintln!("error: {}: {mismatch}", path.display());
                    return ExitCode::FAILURE;
                }
                if ckpt.store != store.kind() {
                    eprintln!(
                        "note: checkpoint was taken with --store {}, resuming with \
                         --store {} (the run stays bit-identical)",
                        ckpt.store,
                        store.kind()
                    );
                }
                eprintln!(
                    "resuming from {} ({} iterations completed)",
                    path.display(),
                    ckpt.completed
                );
                Some(ckpt)
            }
            Err(e) => {
                eprintln!("error: loading checkpoint {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let trace = trace_session.as_ref();
    let (outcome, elapsed) = Stopwatch::time(|| match resume_from {
        Some(ckpt) => Cluseq::resume_traced(ckpt, store, &mut observer, trace),
        None => Cluseq::new(params).run_traced(store, &mut observer, trace),
    });

    if observer.collect {
        eprint!("{}", observer.report.render_table());
        if let Err(code) = write_report(args, &observer.report) {
            return code;
        }
    }

    eprintln!(
        "{} sequences -> {} clusters, {} outliers, {} iterations, final t = {:.3}, {elapsed:?}",
        store.len(),
        outcome.cluster_count(),
        outcome.outliers.len(),
        outcome.iterations,
        outcome.final_t(),
    );

    if evaluate {
        let labels: Vec<Option<u32>> = (0..store.len()).map(|i| store.label(i)).collect();
        if labels.iter().all(|l| l.is_none()) {
            eprintln!("error: evaluate requires a labeled input file");
            return ExitCode::from(2);
        }
        let c = Confusion::new(
            &labels,
            &outcome.membership_lists(),
            MatchStrategy::Hungarian,
        );
        println!("accuracy\t{:.4}", c.accuracy());
        println!("precision\t{:.4}", c.macro_precision());
        println!("recall\t{:.4}", c.macro_recall());
        println!("clusters\t{}", outcome.cluster_count());
        println!("final_t\t{:.4}", outcome.final_t());
        for m in c.class_metrics() {
            println!(
                "class\t{}\tsize\t{}\tprecision\t{:.4}\trecall\t{:.4}",
                m.class, m.size, m.precision, m.recall
            );
        }
    } else {
        if let Some(path) = args.get_str("save-model") {
            let model = SavedModel::from_outcome(&outcome);
            match std::fs::File::create(path) {
                Ok(mut f) => {
                    if let Err(e) = model.save(&mut f) {
                        eprintln!("error: writing model {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!(
                        "model with {} clusters saved to {path}",
                        model.cluster_count()
                    );
                }
                Err(e) => {
                    eprintln!("error: creating {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        // One line per sequence: id, best cluster (or -), all memberships.
        for i in 0..store.len() {
            let best = outcome.best_cluster[i]
                .map(|b| b.to_string())
                .unwrap_or_else(|| "-".into());
            let homes: Vec<String> = outcome
                .clusters
                .iter()
                .enumerate()
                .filter(|(_, c)| c.contains(i))
                .map(|(k, _)| k.to_string())
                .collect();
            println!("{i}\t{best}\t{}", homes.join(","));
        }
    }
    ExitCode::SUCCESS
}

fn serve(args: &Args) -> ExitCode {
    use cluseq_core::serve::obs::{ObsConfig, ServeObs};
    use cluseq_core::serve::{model::ServeModel, ServeConfig, Server};

    let Some(model_path) = args.get_str("model") else {
        eprintln!("error: serve requires --model FILE\n\n{USAGE}");
        return ExitCode::from(2);
    };
    // The training corpus (only needed for CCKP models) routes through
    // SequenceStore: `--store file` keeps the daemon's footprint bounded
    // by the model, not the corpus.
    let db: Option<Box<dyn SequenceStore + Send>> = match args.get_str("data") {
        Some(path) => match args.get("store", StoreKind::Memory) {
            StoreKind::Memory => match load_db_file(path) {
                Ok(db) => Some(Box::new(db)),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            },
            StoreKind::File => match FileStore::open(path) {
                Ok(fs) => Some(Box::new(fs)),
                Err(e) => {
                    eprintln!(
                        "error: opening {path} out of core: {e} (--store file \
                         needs a CSEQ binary; write one with `generate --format bin`)"
                    );
                    return ExitCode::FAILURE;
                }
            },
        },
        None => None,
    };
    let config = ServeConfig {
        addr: args.get_str("addr").unwrap_or("127.0.0.1:7878").to_owned(),
        threads: args.get("threads", 1usize).max(1),
        max_batch: args.get("max-batch", 64usize).max(1),
        kernel: args.get("scan-kernel", ScanKernel::Compiled),
        frame_timeout: std::time::Duration::from_millis(args.get("frame-timeout-ms", 5000u64)),
        watch_sighup: true,
    };
    let model = match ServeModel::load(
        std::path::Path::new(model_path),
        db.as_deref().map(|d| d as &dyn SequenceStore),
        config.kernel,
        1,
    ) {
        Ok(model) => model,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Any observability flag turns the whole bundle on: the registry is
    // shared, so counters, the exporter, the slow log, and the serve
    // trace all read the same numbers. No flag → no bundle → the serve
    // path pays nothing, not even clock reads.
    let obs_config = ObsConfig {
        slow_log: args.get_str("slow-log").map(std::path::PathBuf::from),
        slow_threshold: std::time::Duration::from_millis(args.get("slow-threshold-ms", 100u64)),
        trace_jsonl: args.get_str("trace").map(std::path::PathBuf::from),
    };
    let want_obs = args.get_str("metrics-addr").is_some()
        || obs_config.slow_log.is_some()
        || obs_config.trace_jsonl.is_some();
    // The trace session owns the standalone /metrics exporter; the serve
    // threads hold their own Arc to the registry, so it must outlive the
    // handle.
    let trace_session = if want_obs {
        let config = TraceConfig {
            jsonl: None,
            metrics_addr: args.get_str("metrics-addr").map(str::to_owned),
        };
        match TraceSession::start(&config) {
            Ok(session) => Some(session),
            Err(e) => {
                eprintln!("error: starting metrics exporter: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    if let Some(addr) = trace_session.as_ref().and_then(|s| s.metrics_addr()) {
        eprintln!("metrics exporter listening on http://{addr}/metrics");
    }
    let obs = match &trace_session {
        Some(session) => match ServeObs::new(session.shared_arc(), &obs_config) {
            Ok(obs) => Some(std::sync::Arc::new(obs)),
            Err(e) => {
                eprintln!("error: opening observability files: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let clusters = model.saved.cluster_count();
    let handle = match Server::start(model, db, &config, obs) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("error: binding {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "serving {clusters} clusters (generation {}) on {} — \
         binary protocol + HTTP; SIGHUP reloads {model_path}; \
         SHUTDOWN frame stops",
        handle.generation(),
        handle.addr()
    );
    handle.wait();
    eprintln!("serve: drained and stopped");
    ExitCode::SUCCESS
}

fn trace_summary(args: &Args) -> ExitCode {
    let Some(path) = args.positional.first() else {
        eprintln!("error: missing trace file\n\n{USAGE}");
        return ExitCode::from(2);
    };
    match sink::read_trace(std::path::Path::new(path)) {
        Ok(replay) => {
            print!("{}", summary::render_summary(&replay));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: reading trace {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn classify(args: &Args) -> ExitCode {
    let Some(model_path) = args.get_str("model") else {
        eprintln!("error: classify requires --model FILE\n\n{USAGE}");
        return ExitCode::from(2);
    };
    let model = match std::fs::File::open(model_path) {
        Ok(mut f) => match SavedModel::load(&mut f) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("error: loading model {model_path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!("error: opening {model_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let db = match load(args) {
        Ok(db) => db,
        Err(code) => return code,
    };
    eprintln!(
        "classifying {} sequences against {} clusters (ln t = {:.2})",
        db.len(),
        model.cluster_count(),
        model.log_t
    );
    for (i, seq, _) in db.iter() {
        let joined = model.assign(seq.symbols());
        match joined.first() {
            Some(&(best, sim)) => {
                let all: Vec<String> = joined.iter().map(|(k, _)| k.to_string()).collect();
                println!("{i}\t{best}\t{sim:.2}\t{}", all.join(","));
            }
            None => println!("{i}\t-\t-\t"),
        }
    }
    ExitCode::SUCCESS
}

fn inspect(args: &Args) -> ExitCode {
    let Some(model_path) = args.get_str("model") else {
        eprintln!("error: inspect requires --model FILE\n\n{USAGE}");
        return ExitCode::from(2);
    };
    let model = match std::fs::File::open(model_path) {
        Ok(mut f) => match SavedModel::load(&mut f) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("error: loading model {model_path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!("error: opening {model_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "model: {} clusters, decision threshold ln t = {:.3}",
        model.cluster_count(),
        model.log_t
    );
    // Model files carry symbol ids, not names; render with synthetic names.
    let n_sym = model.background.alphabet_size();
    let alphabet = cluseq_seq::Alphabet::synthetic(n_sym);
    let max_nodes: usize = args.get("max-nodes", 20);
    for (k, cluster) in model.clusters.iter().enumerate() {
        let stats = cluster.pst.stats();
        println!(
            "\ncluster {k} (id {}): {} nodes ({} significant), depth {}, {} bytes, count {}",
            cluster.id,
            stats.nodes,
            stats.significant_nodes,
            stats.max_depth,
            stats.bytes,
            stats.total_count
        );
        let options = cluseq_pst::RenderOptions {
            max_nodes,
            max_depth: 2,
            min_prob: 0.05,
            ..Default::default()
        };
        print!("{}", cluster.pst.render(&alphabet, options));
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_flags_reach_params() {
        let args = Args::parse(
            "cluster data.txt --threads 4 --scan-mode snapshot --significance 5"
                .split_whitespace()
                .map(str::to_owned),
        );
        let p = params_from(&args);
        assert_eq!(p.threads, 4);
        assert_eq!(p.scan_mode, ScanMode::Snapshot);
        assert_eq!(p.significance, 5);
    }

    #[test]
    fn scan_mode_defaults_to_incremental() {
        let args = Args::parse(["cluster".to_owned(), "data.txt".to_owned()]);
        let p = params_from(&args);
        assert_eq!(p.scan_mode, ScanMode::Incremental);
        assert_eq!(p.threads, 1);
    }

    #[test]
    fn scan_kernel_flag_reaches_params_and_defaults_to_compiled() {
        let args = Args::parse(
            "cluster data.txt --scan-kernel interpreted"
                .split_whitespace()
                .map(str::to_owned),
        );
        assert_eq!(params_from(&args).scan_kernel, ScanKernel::Interpreted);
        let args = Args::parse(["cluster".to_owned(), "data.txt".to_owned()]);
        assert_eq!(params_from(&args).scan_kernel, ScanKernel::Compiled);
        for kernel in ScanKernel::ALL {
            let args = Args::parse(
                format!("cluster data.txt --scan-kernel {kernel}")
                    .split_whitespace()
                    .map(str::to_owned),
            );
            assert_eq!(params_from(&args).scan_kernel, kernel);
        }
    }

    #[test]
    fn incremental_flag_reaches_params_and_defaults_off() {
        let args = Args::parse(
            "cluster data.txt --incremental"
                .split_whitespace()
                .map(str::to_owned),
        );
        assert!(params_from(&args).incremental);
        let args = Args::parse(["cluster".to_owned(), "data.txt".to_owned()]);
        assert!(!params_from(&args).incremental);
    }

    #[test]
    fn out_of_core_flags_reach_params_and_default_off() {
        let args = Args::parse(
            "cluster data.cseq --store file --scan-shard 4096 --model-cache-mb 64"
                .split_whitespace()
                .map(str::to_owned),
        );
        assert_eq!(args.get("store", StoreKind::Memory), StoreKind::File);
        let p = params_from(&args);
        assert_eq!(p.scan_shard, Some(4096));
        assert_eq!(p.model_cache_mb, Some(64));

        let args = Args::parse(["cluster".to_owned(), "data.txt".to_owned()]);
        assert_eq!(args.get("store", StoreKind::Memory), StoreKind::Memory);
        let p = params_from(&args);
        assert_eq!(p.scan_shard, None);
        assert_eq!(p.model_cache_mb, None);
    }

    #[test]
    fn unknown_store_kind_error_lists_the_valid_set() {
        let args = Args::parse(
            "cluster data.txt --store tape"
                .split_whitespace()
                .map(str::to_owned),
        );
        let err = args.try_get("store", StoreKind::Memory).unwrap_err();
        assert!(err.contains("memory") && err.contains("file"), "{err}");
    }

    #[test]
    fn checkpoint_flags_reach_params() {
        let args = Args::parse(
            "cluster data.txt --checkpoint-dir ckpts --checkpoint-every 3"
                .split_whitespace()
                .map(str::to_owned),
        );
        let p = params_from(&args);
        let policy = p.checkpoint.expect("policy should be configured");
        assert_eq!(policy.dir, std::path::PathBuf::from("ckpts"));
        assert_eq!(policy.every, 3);
    }

    #[test]
    fn checkpoint_cadence_defaults_to_every_iteration() {
        let args = Args::parse(
            "cluster data.txt --checkpoint-dir ckpts"
                .split_whitespace()
                .map(str::to_owned),
        );
        let p = params_from(&args);
        assert_eq!(p.checkpoint.expect("policy").every, 1);
    }

    #[test]
    fn checkpointing_is_off_by_default() {
        let args = Args::parse(["cluster".to_owned(), "data.txt".to_owned()]);
        assert!(params_from(&args).checkpoint.is_none());
    }
}
