//! Live tracing & metrics for the iteration loop.
//!
//! [`crate::telemetry`] reports what a run did *after* it ends; this module
//! is the live counterpart: hierarchical phase spans timed with monotonic
//! clocks, a lock-free sharded metrics registry (counters, gauges,
//! fixed-bucket latency histograms), an append-only crash-safe JSONL event
//! stream ([`sink`]), and a Prometheus text-format exporter ([`exporter`])
//! served by a `std::net::TcpListener` thread — no dependencies beyond
//! `std`.
//!
//! # One event path
//!
//! The driver emits each run event once — run start, resume, iteration,
//! checkpoint, run end — to one sink that forwards it to the caller's
//! [`RunObserver`] and, when tracing, to the session: `&TraceSession` is
//! itself a [`RunObserver`]. From those events the session writes the
//! JSONL stream (each event fsynced before the driver moves on) and keeps
//! the run-level registry entries: seeding, consolidation, threshold and
//! checkpoint counters, the gauges, and the iteration and checkpoint
//! histograms. The per-pair scan and scoring counters stay where they are
//! computed, in the re-clustering scan, the scoring workers and the final
//! sweep. Every metric is declared once, in one table per kind
//! ([`Phase`], [`Counter`], [`Gauge`], [`HistKind`]), which supplies its
//! name, its help text and its registry slot.
//!
//! # Zero cost when disabled
//!
//! Tracing is session-scoped, never global: every instrumented call site
//! takes an `Option<&TraceSession>` and the untraced path is a `None`
//! check — no atomics, no clock reads, no allocation. There is no process
//! singleton, so concurrent runs (as in `cargo test`) cannot observe each
//! other's sessions.
//!
//! # Determinism contract
//!
//! Tracing must never perturb the clustering. The session answers
//! [`RunObserver::enabled`] with `false`, so tracing never makes the
//! driver keep histograms it would otherwise drop (which would switch scan
//! pruning off). Counters are recorded at the sites that already compute
//! them and merged into the registry either per worker shard (u64 sums
//! are order-independent) or at the phase barrier at the end of each scan,
//! so registry totals are **bit-identical across thread counts** and
//! equal to the [`crate::telemetry::RunReport`] counters —
//! `tests/trace_stream.rs` enforces both equalities, plus byte-identity of
//! the clustering output with tracing on vs off.
//!
//! # Span hierarchy
//!
//! ```text
//! iteration
//! ├── seeding
//! │   ├── automaton_compile
//! │   └── seeding_score
//! │       └── automaton_compile
//! ├── automaton_compile   (the snapshot scan's builds)
//! ├── scan_score
//! │   └── automaton_compile
//! ├── scan_absorb
//! ├── consolidate
//! ├── threshold
//! └── checkpoint_save
//! resume            (once, replaying a checkpoint's records)
//! finalize          (once, the final assignment sweep)
//! └── automaton_compile
//! ```
//!
//! Span self time is total time minus the time of directly nested spans,
//! tracked with a per-thread stack; all spans open on the driver thread,
//! so the stack never crosses threads.

pub mod exporter;
pub mod json;
pub mod sink;
pub mod stamp;
pub mod summary;

use std::cell::RefCell;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::telemetry::{
    CheckpointEvent, IterationRecord, ResumeInfo, RunContext, RunObserver, RunSummary,
};

/// Shards in the per-thread counter registry. Scoring workers map their
/// contiguous index chunk to a shard, so concurrent workers never touch
/// the same cache line; reads sum all shards.
pub const SHARDS: usize = 32;

/// Buckets per latency histogram. Bucket 0 holds observations under 1 µs;
/// bucket `b` holds `[2^(b-1), 2^b)` µs; the last bucket is the overflow
/// (`+Inf`) bucket, so the covered range tops out around 4.2 s.
pub const HIST_BUCKETS: usize = 24;

/// A [`Duration`] as nanoseconds, saturating at `u64::MAX` instead of
/// wrapping — the one conversion every wall-time field in this crate uses
/// so a pathological clock can never produce a nonsense negative-looking
/// value.
pub fn saturating_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds elapsed since `start`, saturating (see
/// [`saturating_nanos`]). [`Instant`] is monotonic, so the delta itself is
/// never negative; this helper only guards the `u128 → u64` narrowing.
pub fn nanos_since(start: Instant) -> u64 {
    saturating_nanos(start.elapsed())
}

/// The registry shard a scoring worker writes for row index `pos`, given
/// the worker chunk size ([`crate::score::plan_chunk`]). Workers own
/// disjoint contiguous index ranges, so distinct workers map to distinct
/// shards (folded down when there are more than [`SHARDS`] workers).
pub fn shard_for(pos: usize, chunk: usize) -> usize {
    pos.checked_div(chunk).map_or(0, |w| w.min(SHARDS - 1))
}

/// Declares a registry metric enum from one table. Each row names a
/// variant, its stable snake_case name and one help sentence, which is
/// both the variant's rustdoc and the exporter's `# HELP` text; optional
/// doc lines before a row add notes. The table generates the enum, `ALL`
/// in row order, `as_str`, `help`, and `index` (the position in `ALL`,
/// which is the variant's discriminant, so it cannot fail).
macro_rules! metric_table {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $( $(#[$note:meta])* $variant:ident => $str:literal, $help:literal; )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $( #[doc = $help] $(#[$note])* $variant, )*
        }

        impl $name {
            /// Every variant, in display order.
            pub const ALL: [$name; [$($str),*].len()] = [$($name::$variant),*];

            /// The stable snake_case name (JSONL key and exporter name).
            pub fn as_str(self) -> &'static str {
                match self {
                    $($name::$variant => $str,)*
                }
            }

            /// The one-sentence description the exporter prints as `# HELP`.
            pub fn help(self) -> &'static str {
                match self {
                    $($name::$variant => $help,)*
                }
            }

            /// The variant's position in [`Self::ALL`].
            pub(crate) fn index(self) -> usize {
                self as usize
            }
        }
    };
}

metric_table! {
    /// One phase of the iteration loop, the unit of span aggregation.
    pub enum Phase {
        Iteration => "iteration", "One whole loop iteration (parent of the per-phase spans).";
        Seeding => "seeding", "Seed sampling, candidate models, farthest-first selection (§4.1).";
        SeedingScore => "seeding_score", "The scoring passes inside seeding (nested under seeding).";
        ScanScore => "scan_score", "The scan's similarity evaluations (§4.2).";
        ScanAbsorb => "scan_absorb", "The snapshot scan's sequential absorb pass.";
        Consolidate => "consolidate", "Consolidation (§4.5).";
        Threshold => "threshold", "Histogram build and valley analysis (§4.6).";
        CheckpointSave => "checkpoint_save", "One checkpoint write attempt.";
        Resume => "resume", "Replaying a checkpoint's stored records on resume.";
        Finalize => "finalize", "The final assignment sweep.";
        /// Always nested inside one of the spans above, so it adds nothing
        /// to a sum over the top-level phases.
        AutomatonCompile => "automaton_compile",
            "Compiling cluster models into scan automata (nested in its caller's span).";
    }
}

metric_table! {
    /// A monotonically increasing counter in the registry.
    pub enum Counter {
        PairsScored => "pairs_scored",
            "Sequence/cluster pairs whose similarity was evaluated.";
        PairsPruned => "pairs_pruned",
            "Pairs abandoned early by the compiled kernel's threshold exit.";
        Joins => "joins", "Pairs whose similarity reached the threshold.";
        NewJoins => "new_joins", "Joins by sequences not already members of the cluster.";
        MembershipChanges => "membership_changes", "Cluster membership flips across all scans.";
        SeedCandidatesSampled => "seed_candidates_sampled",
            "Seed candidates sampled by the seeding phase.";
        SeedsChosen => "seeds_chosen", "Seeds chosen (clusters born).";
        ClustersDismissed => "clusters_dismissed", "Clusters dismissed by consolidation.";
        ClustersMerged => "clusters_merged",
            "Dismissed clusters merged into a covering cluster.";
        ThresholdMoves => "threshold_moves",
            "Threshold-adjustment steps that moved the threshold.";
        CheckpointWrites => "checkpoint_writes", "Checkpoint write attempts.";
        CheckpointFailures => "checkpoint_failures", "Checkpoint write attempts that failed.";
        CheckpointBytes => "checkpoint_bytes", "Bytes of checkpoint data successfully written.";
        ServeRequests => "serve_requests",
            "Requests the serve daemon answered with a scored response.";
        ServeErrors => "serve_errors", "Error frames/responses the serve daemon produced.";
        ServeSwaps => "serve_swaps", "Successful hot-swaps to a new model generation.";
        /// 0 unless `--incremental`.
        PairsReused => "pairs_reused",
            "Pairs answered from the incremental engine's similarity cache.";
        /// Their model changed or was never cached; 0 unless `--incremental`.
        ClustersDirty => "clusters_dirty",
            "Clusters entering a scan without a valid cached column.";
        /// 0 unless `--incremental`.
        PstRecompiles => "pst_recompiles", "Cluster automata recompiled for dirty clusters.";
        ServeAssign => "serve_assign_requests", "ASSIGN requests completed by the serve daemon.";
        ServeScore => "serve_score_requests", "SCORE requests completed by the serve daemon.";
        ServeAnomaly => "serve_anomaly_requests",
            "ANOMALY requests completed by the serve daemon.";
        ServeInfo => "serve_info_requests", "INFO requests completed by the serve daemon.";
        /// Attempts, not successes: [`Counter::ServeSwaps`] counts installed
        /// generations.
        ServeSwapRequests => "serve_swap_requests", "SWAP requests completed by the serve daemon.";
        ServeShutdown => "serve_shutdown_requests",
            "SHUTDOWN requests completed by the serve daemon.";
        /// Logged to `--slow-log` when one is configured.
        ServeSlow => "serve_slow_requests",
            "Requests whose end-to-end latency crossed the slow threshold.";
    }
}

metric_table! {
    /// A last-value gauge in the registry, set at iteration boundaries.
    pub enum Gauge {
        Iteration => "iteration", "Completed clustering iterations.";
        ClustersLive => "clusters_live", "Clusters alive after the latest consolidation.";
        /// Stored log-space as `f64` bits; the exporter renders its `exp`.
        ThresholdLogT => "threshold", "Similarity threshold t (natural units, exp of log_t).";
        ServeGeneration => "serve_generation",
            "Live model generation of the serve daemon (0 when not serving).";
    }
}

metric_table! {
    /// A fixed-bucket latency histogram in the registry.
    pub enum HistKind {
        /// Recorded by each worker in its own shard: one observation per
        /// sequence, or per lane group of up to
        /// [`BATCH_LANES`](crate::similarity::BATCH_LANES) sequences in the
        /// compiled snapshot pass.
        ScoreRow => "score_row",
            "Latency of scoring one sequence against all clusters; one \
             lane group of up to eight sequences in compiled snapshot passes.";
        IterationWall => "iteration_wall", "Wall time of one whole iteration.";
        CheckpointWrite => "checkpoint_write", "Wall time of one checkpoint write.";
        ServeAssign => "serve_assign", "End-to-end ASSIGN latency, first byte to write-back.";
        ServeScore => "serve_score", "End-to-end SCORE latency, first byte to write-back.";
        ServeAnomaly => "serve_anomaly", "End-to-end ANOMALY latency, first byte to write-back.";
        ServeAdmin => "serve_admin", "End-to-end latency of INFO/SWAP/SHUTDOWN requests.";
        ServeAccept => "serve_stage_accept",
            "Stage: reading the rest of the request off the socket.";
        ServeDecode => "serve_stage_decode", "Stage: decoding and validating the request payload.";
        /// Nothing observes it: each connection thread scores its own
        /// requests. Kept only so `perfbench/`, which reads it, compiles;
        /// it goes with the next change to the benchmark.
        ServeQueueWait => "serve_stage_queue_wait", "Unused: the serve daemon has no queue stage.";
        /// Kept, like [`HistKind::ServeQueueWait`], only so `perfbench/`
        /// compiles.
        ServeBatchForm => "serve_stage_batch_form", "Unused: the serve daemon has no batch stage.";
        ServeScan => "serve_stage_scan", "Stage: answering the request against the pinned model.";
        ServeEncode => "serve_stage_encode", "Stage: encoding the response.";
        /// Ends when `write_all` returns, so on a loaded host it includes
        /// time the handler is descheduled after the client already has
        /// its bytes.
        ServeWriteBack => "serve_stage_write_back", "Stage: writing the response to the socket.";
        /// Kept, like [`HistKind::ServeQueueWait`], only so `perfbench/`
        /// compiles. Unit is **jobs**, not time: a batch of `n` jobs would
        /// be recorded as `n` µs, so the exporter divides edges and sums
        /// by 1000 to render job counts.
        ServeBatchJobs => "serve_batch_jobs",
            "Unused: the serve daemon has no batches (unit: jobs).";
    }
}

/// The histogram bucket for an observation of `nanos` (see
/// [`HIST_BUCKETS`] for the edge layout).
pub fn bucket_index(nanos: u64) -> usize {
    let micros = nanos / 1_000;
    if micros == 0 {
        0
    } else {
        ((64 - micros.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// The exclusive upper edge of histogram bucket `b`, in nanoseconds
/// (`None` for the overflow bucket).
pub fn bucket_upper_nanos(b: usize) -> Option<u64> {
    (b < HIST_BUCKETS - 1).then(|| 1_000u64 << b)
}

/// The inclusive lower edge of histogram bucket `b`, in nanoseconds.
pub fn bucket_lower_nanos(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1_000u64 << (b - 1)
    }
}

/// The `q`-quantile (`0.0 < q <= 1.0`) of a histogram snapshot, estimated
/// by linear interpolation inside the bucket holding the exact rank.
/// Returns `None` for an empty histogram.
///
/// The computation is a pure function of the bucket counts — no sampling,
/// no clocks — so any two readers of the same snapshot get the same value
/// regardless of thread count or platform. The rank is exact
/// (`ceil(q * count)`, 1-based); only the position *within* the bucket is
/// interpolated, so the **documented error bound** is one bucket width:
/// the true observation lies in the same `[2^(b-1), 2^b)` µs bucket as
/// the estimate, i.e. the estimate is within 2× of the true value (and
/// within 1 µs below bucket 1). Observations in the overflow bucket
/// report its lower edge, a conservative underestimate.
pub fn quantile_nanos(counts: &[u64; HIST_BUCKETS], q: f64) -> Option<u64> {
    let total: u64 = counts.iter().sum();
    if total == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cumulative = 0u64;
    for (b, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let before = cumulative;
        cumulative += count;
        if cumulative >= rank {
            let lower = bucket_lower_nanos(b);
            return Some(match bucket_upper_nanos(b) {
                Some(upper) => {
                    // rank - before in 1..=count; place the k-th of
                    // `count` observations evenly inside the bucket.
                    let into = (rank - before) as f64 / count as f64;
                    lower + ((upper - lower) as f64 * into) as u64
                }
                None => lower,
            });
        }
    }
    None
}

/// One shard of the registry: a cache-line-padded-enough block of relaxed
/// atomics one worker writes. Relaxed ordering suffices — the values are
/// pure sums read after thread joins (or approximately by the exporter).
struct Shard {
    counters: [AtomicU64; Counter::ALL.len()],
    hist_counts: [[AtomicU64; HIST_BUCKETS]; HistKind::ALL.len()],
    hist_sums: [AtomicU64; HistKind::ALL.len()],
}

impl Shard {
    fn new() -> Self {
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hist_counts: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            hist_sums: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Aggregated timing of one phase across all of its spans.
struct PhaseAgg {
    total_nanos: AtomicU64,
    self_nanos: AtomicU64,
    count: AtomicU64,
    max_nanos: AtomicU64,
}

impl PhaseAgg {
    fn new() -> Self {
        Self {
            total_nanos: AtomicU64::new(0),
            self_nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }
}

/// A read-side snapshot of one phase's span aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseStats {
    /// Summed wall time of every span of this phase, nanoseconds.
    pub total_nanos: u64,
    /// Total minus time spent in directly nested spans.
    pub self_nanos: u64,
    /// Number of spans recorded.
    pub count: u64,
    /// The longest single span, nanoseconds.
    pub max_nanos: u64,
}

/// The lock-free shared state behind a [`TraceSession`]: sharded counters
/// and histograms, span aggregates, and gauges. `Sync` by construction
/// (atomics only), so the exporter thread reads it live through an `Arc`.
pub struct TraceShared {
    shards: Vec<Shard>,
    phases: Vec<PhaseAgg>,
    gauges: Vec<AtomicU64>,
}

impl std::fmt::Debug for TraceShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceShared").finish_non_exhaustive()
    }
}

impl TraceShared {
    fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
            phases: Phase::ALL.iter().map(|_| PhaseAgg::new()).collect(),
            gauges: Gauge::ALL.iter().map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Adds `v` to `counter` in shard `shard` (folded into range).
    pub fn add_at(&self, shard: usize, counter: Counter, v: u64) {
        self.shards[shard.min(SHARDS - 1)].counters[counter.index()]
            .fetch_add(v, Ordering::Relaxed);
    }

    /// Adds `v` to `counter` in shard 0 (single-writer call sites).
    pub fn add(&self, counter: Counter, v: u64) {
        self.add_at(0, counter, v);
    }

    /// The counter's total across all shards.
    pub fn counter(&self, counter: Counter) -> u64 {
        let i = counter.index();
        self.shards
            .iter()
            .map(|s| s.counters[i].load(Ordering::Relaxed))
            .sum()
    }

    /// Records one latency observation into `hist` in shard `shard`.
    pub fn observe(&self, hist: HistKind, shard: usize, nanos: u64) {
        let s = &self.shards[shard.min(SHARDS - 1)];
        let h = hist.index();
        s.hist_counts[h][bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        s.hist_sums[h].fetch_add(nanos, Ordering::Relaxed);
    }

    /// Merges a locally buffered histogram delta in one pass: per-bucket
    /// counts plus their summed observation values. Equivalent to the
    /// individual [`Self::observe`] calls that filled the buffer, at a
    /// fraction of the atomic traffic — only non-empty buckets touch the
    /// registry.
    pub fn hist_merge(&self, hist: HistKind, shard: usize, counts: &[u32; HIST_BUCKETS], sum: u64) {
        let s = &self.shards[shard.min(SHARDS - 1)];
        let h = hist.index();
        for (b, &c) in counts.iter().enumerate() {
            if c != 0 {
                s.hist_counts[h][b].fetch_add(u64::from(c), Ordering::Relaxed);
            }
        }
        if sum != 0 {
            s.hist_sums[h].fetch_add(sum, Ordering::Relaxed);
        }
    }

    /// The histogram's per-bucket counts summed across shards.
    pub fn hist_counts(&self, hist: HistKind) -> [u64; HIST_BUCKETS] {
        let h = hist.index();
        let mut out = [0u64; HIST_BUCKETS];
        for s in &self.shards {
            for (b, cell) in s.hist_counts[h].iter().enumerate() {
                out[b] += cell.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// The histogram's summed observation value across shards, nanoseconds.
    pub fn hist_sum(&self, hist: HistKind) -> u64 {
        let h = hist.index();
        self.shards
            .iter()
            .map(|s| s.hist_sums[h].load(Ordering::Relaxed))
            .sum()
    }

    /// Sets a `u64` gauge.
    pub fn gauge_set(&self, gauge: Gauge, v: u64) {
        self.gauges[gauge.index()].store(v, Ordering::Relaxed);
    }

    /// Sets an `f64` gauge (stored as bits).
    pub fn gauge_set_f64(&self, gauge: Gauge, v: f64) {
        self.gauges[gauge.index()].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Reads a `u64` gauge.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge.index()].load(Ordering::Relaxed)
    }

    /// Reads an `f64` gauge (from bits).
    pub fn gauge_f64(&self, gauge: Gauge) -> f64 {
        f64::from_bits(self.gauge(gauge))
    }

    /// A snapshot of one phase's span aggregate.
    pub fn phase_stats(&self, phase: Phase) -> PhaseStats {
        let a = &self.phases[phase.index()];
        PhaseStats {
            total_nanos: a.total_nanos.load(Ordering::Relaxed),
            self_nanos: a.self_nanos.load(Ordering::Relaxed),
            count: a.count.load(Ordering::Relaxed),
            max_nanos: a.max_nanos.load(Ordering::Relaxed),
        }
    }

    fn record_span(&self, phase: Phase, total: u64, self_nanos: u64) {
        let a = &self.phases[phase.index()];
        a.total_nanos.fetch_add(total, Ordering::Relaxed);
        a.self_nanos.fetch_add(self_nanos, Ordering::Relaxed);
        a.count.fetch_add(1, Ordering::Relaxed);
        a.max_nanos.fetch_max(total, Ordering::Relaxed);
    }
}

thread_local! {
    /// Child-time accumulator stack for span self-time: each open span
    /// pushes a frame; closing adds its elapsed time to the parent frame.
    static CHILD_NANOS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// An open span; closing (dropping) it records elapsed/self time into the
/// session's per-phase aggregates. Created via [`TraceSession::span`].
#[derive(Debug)]
pub struct SpanGuard<'a> {
    shared: &'a TraceShared,
    phase: Phase,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let total = nanos_since(self.start);
        let children = CHILD_NANOS.with(|stack| {
            let mut stack = stack.borrow_mut();
            let children = stack.pop().unwrap_or(0);
            if let Some(parent) = stack.last_mut() {
                *parent = parent.saturating_add(total);
            }
            children
        });
        self.shared
            .record_span(self.phase, total, total.saturating_sub(children));
    }
}

/// Configuration for [`TraceSession::start`]. Deliberately *not* part of
/// [`crate::CluseqParams`]: tracing is operational, not algorithmic, so it
/// never enters a checkpoint and a resume never restores it.
#[derive(Debug, Clone, Default)]
pub struct TraceConfig {
    /// Append the JSONL event stream to this file (created if absent; an
    /// existing file gets its torn tail repaired and the stream continues
    /// its sequence numbers — the `--resume` stitching contract).
    pub jsonl: Option<PathBuf>,
    /// Serve Prometheus text-format metrics on this address (e.g.
    /// `127.0.0.1:0` for an ephemeral port; see
    /// [`TraceSession::metrics_addr`] for the bound address).
    pub metrics_addr: Option<String>,
}

/// One run's tracing context: the shared registry plus the optional JSONL
/// sink and exporter. It observes the driver's run events (see the
/// [`RunObserver`] impl) and is passed as `Option<&TraceSession>` to the
/// layers that count per-pair work; `None` everywhere is the zero-cost
/// disabled path.
#[derive(Debug)]
pub struct TraceSession {
    shared: Arc<TraceShared>,
    sink: Option<Mutex<sink::JsonlSink>>,
    exporter: Option<exporter::ExporterHandle>,
}

impl TraceSession {
    /// A registry-only session: spans and metrics, no JSONL file, no
    /// exporter. What the overhead bench and most tests use.
    pub fn in_memory() -> Self {
        Self {
            shared: Arc::new(TraceShared::new()),
            sink: None,
            exporter: None,
        }
    }

    /// Starts a session per `config`: opens (or continues) the JSONL sink
    /// and binds the exporter listener. Fails only on I/O errors from
    /// either; an empty config is equivalent to [`TraceSession::in_memory`].
    pub fn start(config: &TraceConfig) -> io::Result<Self> {
        let shared = Arc::new(TraceShared::new());
        let sink = match &config.jsonl {
            Some(path) => Some(Mutex::new(sink::JsonlSink::open_append(path)?)),
            None => None,
        };
        let exporter = match &config.metrics_addr {
            Some(addr) => Some(exporter::start(Arc::clone(&shared), addr)?),
            None => None,
        };
        Ok(Self {
            shared,
            sink,
            exporter,
        })
    }

    /// The shared registry (what the exporter serves).
    pub fn shared(&self) -> &TraceShared {
        &self.shared
    }

    /// An owning handle to the shared registry, for subsystems that
    /// outlive this session's borrow (the serve daemon's threads).
    pub fn shared_arc(&self) -> Arc<TraceShared> {
        Arc::clone(&self.shared)
    }

    /// The exporter's bound address, when one is running — with
    /// `--metrics-addr 127.0.0.1:0` this is where the ephemeral port
    /// landed.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.exporter.as_ref().map(|e| e.addr())
    }

    /// Opens a span for `phase`; drop the guard to close it.
    pub fn span(&self, phase: Phase) -> SpanGuard<'_> {
        CHILD_NANOS.with(|stack| stack.borrow_mut().push(0));
        SpanGuard {
            shared: &self.shared,
            phase,
            start: Instant::now(),
        }
    }

    /// See [`TraceShared::add`].
    pub fn add(&self, counter: Counter, v: u64) {
        self.shared.add(counter, v);
    }

    /// See [`TraceShared::add_at`].
    pub fn add_at(&self, shard: usize, counter: Counter, v: u64) {
        self.shared.add_at(shard, counter, v);
    }

    /// See [`TraceShared::counter`].
    pub fn counter(&self, counter: Counter) -> u64 {
        self.shared.counter(counter)
    }

    /// See [`TraceShared::observe`].
    pub fn observe(&self, hist: HistKind, shard: usize, nanos: u64) {
        self.shared.observe(hist, shard, nanos);
    }

    /// See [`TraceShared::phase_stats`].
    pub fn phase_stats(&self, phase: Phase) -> PhaseStats {
        self.shared.phase_stats(phase)
    }
}

/// The session observes the driver's run events: it writes each as one
/// JSONL line, fsynced before the driver moves on (so the trace on disk
/// covers at least as many iterations as any checkpoint written after
/// it), and keeps the registry's run-level counters, gauges and
/// histograms. Scan and scoring counters are per-pair counts made per
/// worker shard, so the layers that make them record them directly.
impl RunObserver for &TraceSession {
    /// Always `false`: an enabled observer makes the driver keep every
    /// iteration's histogram, which switches scan pruning off. Tracing
    /// must never change what the run computes.
    fn enabled(&self) -> bool {
        false
    }

    fn on_run_start(&mut self, ctx: &RunContext) {
        self.shared
            .gauge_set_f64(Gauge::ThresholdLogT, ctx.initial_log_t);
        sink::append_event(self.sink.as_ref(), |w| {
            w.field_str("event", "run_start");
            w.field_usize("sequences", ctx.sequences);
            w.field_usize("alphabet_size", ctx.alphabet_size);
            w.field_usize("threads", ctx.threads);
            w.field_str("scan_mode", &ctx.scan_mode.to_string());
            w.field_str("scan_kernel", &ctx.scan_kernel.to_string());
            w.field_u64("seed", ctx.seed);
            w.field_f64("initial_log_t", ctx.initial_log_t);
        });
    }

    /// The `resume` event follows `run_start` in a resumed run: it is the
    /// marker [`sink::stitch_iterations`] splices the history on. The
    /// checkpoint's records are replayed to the caller's observer only;
    /// the trace file already holds those iterations.
    fn on_resume(&mut self, info: &ResumeInfo) {
        self.shared
            .gauge_set(Gauge::Iteration, info.completed as u64);
        self.shared
            .gauge_set(Gauge::ClustersLive, info.clusters as u64);
        self.shared.gauge_set_f64(Gauge::ThresholdLogT, info.log_t);
        sink::append_event(self.sink.as_ref(), |w| {
            w.field_str("event", "resume");
            w.field_usize("completed", info.completed);
            w.field_u64("version", u64::from(info.version));
        });
    }

    fn on_iteration(&mut self, r: &IterationRecord) {
        let s = &self.shared;
        s.add(Counter::SeedCandidatesSampled, r.seeding.sampled as u64);
        s.add(Counter::SeedsChosen, r.seeding.chosen as u64);
        s.add(Counter::ClustersDismissed, r.removed_clusters as u64);
        s.add(Counter::ClustersMerged, r.merged_clusters as u64);
        s.add(Counter::ThresholdMoves, u64::from(r.threshold_moved));
        s.gauge_set(Gauge::Iteration, r.iteration as u64 + 1);
        s.gauge_set(Gauge::ClustersLive, r.clusters_at_end as u64);
        s.gauge_set_f64(Gauge::ThresholdLogT, r.log_t_after);
        s.observe(HistKind::IterationWall, 0, r.timings.total);
        sink::append_event(self.sink.as_ref(), |w| {
            w.field_str("event", "iteration");
            w.field_usize("iteration", r.iteration);
            w.field_usize("clusters_at_start", r.clusters_at_start);
            w.field_usize("new_clusters", r.seeding.chosen);
            w.field_usize("removed_clusters", r.removed_clusters);
            w.field_usize("clusters_live", r.clusters_at_end);
            w.field_usize("membership_changes", r.scan.membership_changes);
            w.field_u64("pairs_scored", r.scan.pairs_scored);
            w.field_u64("pairs_pruned", r.scan.pairs_pruned);
            w.field_u64("pairs_reused", r.scan.pairs_reused);
            w.field_u64("joins", r.scan.joins);
            w.field_u64("new_joins", r.scan.new_joins);
            w.field_f64("log_t", r.log_t_after);
            w.field_bool("threshold_moved", r.threshold_moved);
            w.key("phase_nanos");
            w.begin_obj();
            w.field_u64("seeding", r.timings.seeding);
            w.field_u64("scan_score", r.timings.scan_score);
            w.field_u64("scan_absorb", r.timings.scan_absorb);
            w.field_u64("consolidate", r.timings.consolidate);
            w.field_u64("threshold", r.timings.threshold);
            w.field_u64("total", r.timings.total);
            w.end_obj();
        });
    }

    fn on_checkpoint(&mut self, e: &CheckpointEvent) {
        let s = &self.shared;
        s.add(Counter::CheckpointWrites, 1);
        s.observe(HistKind::CheckpointWrite, 0, e.write_nanos);
        match e.error {
            None => s.add(Counter::CheckpointBytes, e.bytes),
            Some(_) => s.add(Counter::CheckpointFailures, 1),
        }
        sink::append_event(self.sink.as_ref(), |w| {
            w.field_str("event", "checkpoint");
            w.field_usize("completed", e.completed);
            w.field_u64("bytes", e.bytes);
            w.field_u64("write_nanos", e.write_nanos);
            w.field_bool("ok", e.error.is_none());
        });
    }

    /// The `run_end` event carries the run summary plus a full snapshot
    /// of the registry: every counter and per-phase span aggregate.
    fn on_run_end(&mut self, summary: &RunSummary) {
        // Snapshot outside the closure so the sink lock is not held while
        // summing shards.
        let counters: Vec<(&'static str, u64)> = Counter::ALL
            .iter()
            .map(|&c| (c.as_str(), self.shared.counter(c)))
            .collect();
        let spans: Vec<(&'static str, PhaseStats)> = Phase::ALL
            .iter()
            .map(|&p| (p.as_str(), self.shared.phase_stats(p)))
            .collect();
        sink::append_event(self.sink.as_ref(), |w| {
            w.field_str("event", "run_end");
            w.field_usize("iterations", summary.iterations);
            w.field_usize("clusters", summary.clusters);
            w.field_usize("outliers", summary.outliers);
            w.field_f64("final_log_t", summary.final_log_t);
            w.field_u64("finalize_nanos", summary.finalize_nanos);
            w.field_u64("total_nanos", summary.total_nanos);
            w.key("counters");
            w.begin_obj();
            for (name, v) in counters {
                w.field_u64(name, v);
            }
            w.end_obj();
            w.key("spans");
            w.begin_obj();
            for (name, s) in spans {
                w.key(name);
                w.begin_obj();
                w.field_u64("total_nanos", s.total_nanos);
                w.field_u64("self_nanos", s.self_nanos);
                w.field_u64("count", s.count);
                w.field_u64("max_nanos", s.max_nanos);
                w.end_obj();
            }
            w.end_obj();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_session_observes_the_run_events() {
        use crate::telemetry::RunReport;
        use crate::{Checkpoint, Cluseq, CluseqParams, ConsolidationMode};
        use cluseq_seq::SequenceDatabase;
        let db = SequenceDatabase::from_strs((0..40).map(|i| match i % 2 {
            0 => "abababababababababababab",
            _ => "ccacacaccacacaccacacacca",
        }));
        let dir = std::env::temp_dir().join(format!("cluseq-driver-events-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let params = CluseqParams::default()
            .with_significance(3)
            .with_max_depth(8)
            .with_seed(13)
            .with_consolidation(ConsolidationMode::MergeIntoCovering)
            .with_checkpoints(&dir, 1);
        let session = TraceSession::in_memory();
        let mut report = RunReport::new();
        let outcome = Cluseq::new(params).run_traced(&db, &mut report, Some(&session));

        let sum = |f: fn(&IterationRecord) -> usize| -> u64 {
            report.iterations.iter().map(|r| f(r) as u64).sum()
        };
        let c = |counter| session.counter(counter);
        assert_eq!(
            c(Counter::SeedCandidatesSampled),
            sum(|r| r.seeding.sampled)
        );
        assert_eq!(c(Counter::SeedsChosen), sum(|r| r.seeding.chosen));
        assert_eq!(c(Counter::ClustersDismissed), sum(|r| r.removed_clusters));
        assert_eq!(c(Counter::ClustersMerged), sum(|r| r.merged_clusters));
        assert_eq!(
            c(Counter::ThresholdMoves),
            sum(|r| usize::from(r.threshold_moved))
        );
        let writes = report.checkpoints.len() as u64;
        assert!(writes > 0);
        assert_eq!(c(Counter::CheckpointWrites), writes);
        assert_eq!(c(Counter::CheckpointFailures), 0);
        assert_eq!(
            c(Counter::CheckpointBytes),
            report.checkpoints.iter().map(|e| e.bytes).sum::<u64>()
        );

        let iterations = outcome.iterations as u64;
        let shared = session.shared();
        assert_eq!(shared.gauge(Gauge::Iteration), iterations);
        assert_eq!(
            shared.gauge(Gauge::ClustersLive),
            report.iterations.last().unwrap().clusters_at_end as u64
        );
        assert_eq!(
            shared.gauge_f64(Gauge::ThresholdLogT).to_bits(),
            outcome.final_log_t.to_bits()
        );
        let observations = |h| shared.hist_counts(h).iter().sum::<u64>();
        assert_eq!(observations(HistKind::IterationWall), iterations);
        assert_eq!(observations(HistKind::CheckpointWrite), writes);
        for phase in [Phase::Seeding, Phase::Consolidate, Phase::Threshold] {
            assert_eq!(session.phase_stats(phase).count, iterations, "{phase:?}");
        }
        assert_eq!(session.phase_stats(Phase::CheckpointSave).count, writes);

        // A resumed session counts only the iterations it ran: the
        // checkpoint's records are replayed to the caller alone.
        let ckpt = Checkpoint::load_path(&dir.join("cluseq-000001.ckpt")).expect("checkpoint");
        let resumed_session = TraceSession::in_memory();
        let mut resumed_report = RunReport::new();
        Cluseq::resume_traced(ckpt, &db, &mut resumed_report, Some(&resumed_session));
        assert_eq!(resumed_report.iterations.len(), report.iterations.len());
        assert_eq!(
            resumed_session.counter(Counter::SeedsChosen),
            report.iterations[1..]
                .iter()
                .map(|r| r.seeding.chosen as u64)
                .sum::<u64>()
        );
        assert_eq!(resumed_session.phase_stats(Phase::Resume).count, 1);
        assert_eq!(resumed_session.shared().gauge(Gauge::Iteration), iterations);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn counters_sum_across_shards() {
        let s = TraceSession::in_memory();
        for shard in 0..SHARDS + 3 {
            s.add_at(shard, Counter::PairsScored, 2);
        }
        // Out-of-range shards fold into the last one.
        assert_eq!(s.counter(Counter::PairsScored), 2 * (SHARDS as u64 + 3));
        assert_eq!(s.counter(Counter::PairsPruned), 0);
    }

    #[test]
    fn spans_aggregate_self_and_total() {
        let s = TraceSession::in_memory();
        {
            let _outer = s.span(Phase::Iteration);
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = s.span(Phase::Seeding);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let outer = s.phase_stats(Phase::Iteration);
        let inner = s.phase_stats(Phase::Seeding);
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(outer.total_nanos >= inner.total_nanos);
        // Outer self time excludes the nested span.
        assert!(outer.self_nanos <= outer.total_nanos - inner.total_nanos);
        assert_eq!(inner.self_nanos, inner.total_nanos);
        assert_eq!(outer.max_nanos, outer.total_nanos);
    }

    #[test]
    fn sibling_spans_both_count_toward_parent() {
        let s = TraceSession::in_memory();
        {
            let _outer = s.span(Phase::Iteration);
            drop(s.span(Phase::ScanScore));
            drop(s.span(Phase::ScanAbsorb));
        }
        let outer = s.phase_stats(Phase::Iteration);
        let a = s.phase_stats(Phase::ScanScore);
        let b = s.phase_stats(Phase::ScanAbsorb);
        assert!(outer.self_nanos <= outer.total_nanos - a.total_nanos - b.total_nanos);
    }

    #[test]
    fn gauges_hold_last_value() {
        let s = TraceSession::in_memory();
        s.shared().gauge_set(Gauge::Iteration, 5);
        s.shared().gauge_set(Gauge::Iteration, 9);
        s.shared().gauge_set_f64(Gauge::ThresholdLogT, 1.25);
        assert_eq!(s.shared().gauge(Gauge::Iteration), 9);
        assert_eq!(s.shared().gauge_f64(Gauge::ThresholdLogT), 1.25);
    }

    #[test]
    fn histogram_buckets_are_log_spaced() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(999), 0);
        assert_eq!(bucket_index(1_000), 1);
        assert_eq!(bucket_index(1_999), 1);
        assert_eq!(bucket_index(2_000), 2);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_upper_nanos(0), Some(1_000));
        assert_eq!(bucket_upper_nanos(HIST_BUCKETS - 1), None);
        // Every observation lands strictly below its bucket's upper edge.
        for nanos in [0u64, 500, 1_000, 123_456, 10_000_000_000] {
            let b = bucket_index(nanos);
            if let Some(upper) = bucket_upper_nanos(b) {
                assert!(nanos < upper, "nanos={nanos} bucket={b}");
            }
        }
    }

    #[test]
    fn histogram_counts_and_sums_merge() {
        let s = TraceSession::in_memory();
        s.observe(HistKind::ScoreRow, 0, 500);
        s.observe(HistKind::ScoreRow, 3, 1_500);
        s.observe(HistKind::ScoreRow, 7, 1_700);
        let counts = s.shared().hist_counts(HistKind::ScoreRow);
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 2);
        assert_eq!(counts.iter().sum::<u64>(), 3);
        assert_eq!(s.shared().hist_sum(HistKind::ScoreRow), 3_700);
    }

    #[test]
    fn shard_for_maps_chunks_to_distinct_shards() {
        // 100 rows, chunk 25 => 4 workers => shards 0..=3.
        let shards: Vec<usize> = (0..100).map(|pos| shard_for(pos, 25)).collect();
        assert_eq!(shards[0], 0);
        assert_eq!(shards[24], 0);
        assert_eq!(shards[25], 1);
        assert_eq!(shards[99], 3);
        assert_eq!(shard_for(10_000, 1), SHARDS - 1);
        assert_eq!(shard_for(7, 0), 0);
    }

    #[test]
    fn quantile_interpolates_within_the_rank_bucket() {
        let mut counts = [0u64; HIST_BUCKETS];
        assert_eq!(quantile_nanos(&counts, 0.5), None);
        // 10 observations, all in bucket 2 ([2, 4) µs).
        counts[2] = 10;
        let p50 = quantile_nanos(&counts, 0.5).unwrap();
        let p999 = quantile_nanos(&counts, 0.999).unwrap();
        assert!((2_000..4_000).contains(&p50), "{p50}");
        // Rank 10 of 10 interpolates to the bucket's inclusive upper edge.
        assert!((2_000..=4_000).contains(&p999), "{p999}");
        assert!(p50 < p999, "higher quantile is further into the bucket");
        // q=1.0 lands exactly on the bucket's upper edge.
        assert_eq!(quantile_nanos(&counts, 1.0), Some(4_000));
    }

    #[test]
    fn quantile_rank_is_exact_across_buckets() {
        let mut counts = [0u64; HIST_BUCKETS];
        counts[0] = 90; // < 1 µs
        counts[5] = 9; // [16, 32) µs
        counts[HIST_BUCKETS - 1] = 1; // overflow
        let p50 = quantile_nanos(&counts, 0.5).unwrap();
        assert!(p50 < 1_000, "rank 50 of 100 is in bucket 0, got {p50}");
        let p95 = quantile_nanos(&counts, 0.95).unwrap();
        assert!(
            (16_000..32_000).contains(&p95),
            "rank 95 is in bucket 5, got {p95}"
        );
        // The overflow bucket reports its lower edge, conservatively.
        assert_eq!(
            quantile_nanos(&counts, 1.0),
            Some(bucket_lower_nanos(HIST_BUCKETS - 1))
        );
        assert_eq!(quantile_nanos(&counts, 2.0), None, "q out of range");
    }

    #[test]
    fn bucket_lower_edges_abut_upper_edges() {
        assert_eq!(bucket_lower_nanos(0), 0);
        for b in 0..HIST_BUCKETS - 1 {
            assert_eq!(bucket_upper_nanos(b).unwrap(), bucket_lower_nanos(b + 1));
        }
    }

    #[test]
    fn saturating_nanos_never_wraps() {
        assert_eq!(saturating_nanos(Duration::ZERO), 0);
        assert_eq!(saturating_nanos(Duration::from_nanos(42)), 42);
        assert_eq!(saturating_nanos(Duration::MAX), u64::MAX);
    }
}
