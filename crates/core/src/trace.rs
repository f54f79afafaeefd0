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
//! Tracing must never perturb the clustering. Counters are recorded at the
//! sites that already compute them (the re-clustering scan state and
//! the scoring workers) and merged into the registry either per worker
//! shard (u64 sums are order-independent) or at the phase barrier at the
//! end of each scan, so registry totals are **bit-identical across thread
//! counts** and equal to the [`crate::telemetry::RunReport`] counters —
//! `tests/trace_stream.rs` enforces both equalities, plus byte-identity of
//! the clustering output with tracing on vs off.
//!
//! # Span hierarchy
//!
//! ```text
//! iteration
//! ├── seeding
//! │   └── seeding_score
//! ├── scan_score
//! ├── scan_absorb
//! ├── consolidate
//! ├── threshold
//! └── checkpoint_save
//! resume            (once, replaying a checkpoint's records)
//! finalize          (once, the final assignment sweep)
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

use crate::config::ScanKernel;
use crate::telemetry::{JsonWriter, PhaseNanos, ResumeInfo, RunContext, RunSummary};

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

/// One phase of the iteration loop, the unit of span aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// One whole loop iteration (parent of the per-phase spans).
    Iteration,
    /// Seed sampling, candidate models, farthest-first selection (§4.1).
    Seeding,
    /// The scoring passes inside seeding (nested under [`Phase::Seeding`]).
    SeedingScore,
    /// The scan's similarity evaluations (§4.2).
    ScanScore,
    /// The snapshot scan's sequential absorb pass.
    ScanAbsorb,
    /// Consolidation (§4.5).
    Consolidate,
    /// Histogram build and valley analysis (§4.6).
    Threshold,
    /// One checkpoint write attempt.
    CheckpointSave,
    /// Replaying a checkpoint's stored records on resume.
    Resume,
    /// The final assignment sweep.
    Finalize,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 10] = [
        Phase::Iteration,
        Phase::Seeding,
        Phase::SeedingScore,
        Phase::ScanScore,
        Phase::ScanAbsorb,
        Phase::Consolidate,
        Phase::Threshold,
        Phase::CheckpointSave,
        Phase::Resume,
        Phase::Finalize,
    ];

    /// The phase's stable snake_case name (JSONL and exporter label).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Iteration => "iteration",
            Phase::Seeding => "seeding",
            Phase::SeedingScore => "seeding_score",
            Phase::ScanScore => "scan_score",
            Phase::ScanAbsorb => "scan_absorb",
            Phase::Consolidate => "consolidate",
            Phase::Threshold => "threshold",
            Phase::CheckpointSave => "checkpoint_save",
            Phase::Resume => "resume",
            Phase::Finalize => "finalize",
        }
    }

    fn index(self) -> usize {
        Phase::ALL.iter().position(|p| *p == self).expect("in ALL")
    }
}

/// A monotonically increasing counter in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// (sequence, cluster) pairs whose similarity was evaluated.
    PairsScored,
    /// Pairs the compiled kernel abandoned early (threshold early-exit).
    PairsPruned,
    /// Pairs whose similarity reached the threshold.
    Joins,
    /// Joins by sequences not already members of that cluster.
    NewJoins,
    /// Membership flips across all scans.
    MembershipChanges,
    /// Seed candidates sampled by §4.1.
    SeedCandidatesSampled,
    /// Seeds chosen — clusters born.
    SeedsChosen,
    /// Clusters dismissed by consolidation.
    ClustersDismissed,
    /// Dismissed clusters merged into their coverer.
    ClustersMerged,
    /// Threshold-adjustment steps that moved the threshold.
    ThresholdMoves,
    /// Checkpoint write attempts.
    CheckpointWrites,
    /// Checkpoint write attempts that failed.
    CheckpointFailures,
    /// Bytes of checkpoint data successfully written.
    CheckpointBytes,
    /// Requests answered by the serve daemon (scored, not errored).
    ServeRequests,
    /// Error frames/responses the serve daemon produced.
    ServeErrors,
    /// Scoring batches the serve dispatcher executed.
    ServeBatches,
    /// Successful hot-swaps to a new model generation.
    ServeSwaps,
    /// Pairs answered from the incremental similarity cache instead of
    /// being re-scored (0 unless `--incremental`).
    PairsReused,
    /// Clusters scored fresh in a scan because their model changed — or
    /// was never cached (0 unless `--incremental`).
    ClustersDirty,
    /// `CompiledPst` automata compiled for dirty clusters under the
    /// incremental engine (0 unless `--incremental`).
    PstRecompiles,
    /// ASSIGN requests the serve daemon completed (either transport).
    ServeAssign,
    /// SCORE requests the serve daemon completed.
    ServeScore,
    /// ANOMALY requests the serve daemon completed.
    ServeAnomaly,
    /// INFO requests the serve daemon completed.
    ServeInfo,
    /// SWAP requests the serve daemon completed (attempts, not successes —
    /// [`Counter::ServeSwaps`] counts installed generations).
    ServeSwapRequests,
    /// SHUTDOWN requests the serve daemon completed.
    ServeShutdown,
    /// Requests whose end-to-end latency crossed the slow-request
    /// threshold (logged to `--slow-log` when one is configured).
    ServeSlow,
}

impl Counter {
    /// Every counter, in display order.
    pub const ALL: [Counter; 27] = [
        Counter::PairsScored,
        Counter::PairsPruned,
        Counter::Joins,
        Counter::NewJoins,
        Counter::MembershipChanges,
        Counter::SeedCandidatesSampled,
        Counter::SeedsChosen,
        Counter::ClustersDismissed,
        Counter::ClustersMerged,
        Counter::ThresholdMoves,
        Counter::CheckpointWrites,
        Counter::CheckpointFailures,
        Counter::CheckpointBytes,
        Counter::ServeRequests,
        Counter::ServeErrors,
        Counter::ServeBatches,
        Counter::ServeSwaps,
        Counter::PairsReused,
        Counter::ClustersDirty,
        Counter::PstRecompiles,
        Counter::ServeAssign,
        Counter::ServeScore,
        Counter::ServeAnomaly,
        Counter::ServeInfo,
        Counter::ServeSwapRequests,
        Counter::ServeShutdown,
        Counter::ServeSlow,
    ];

    /// The counter's stable snake_case name (JSONL and exporter base name).
    pub fn as_str(self) -> &'static str {
        match self {
            Counter::PairsScored => "pairs_scored",
            Counter::PairsPruned => "pairs_pruned",
            Counter::Joins => "joins",
            Counter::NewJoins => "new_joins",
            Counter::MembershipChanges => "membership_changes",
            Counter::SeedCandidatesSampled => "seed_candidates_sampled",
            Counter::SeedsChosen => "seeds_chosen",
            Counter::ClustersDismissed => "clusters_dismissed",
            Counter::ClustersMerged => "clusters_merged",
            Counter::ThresholdMoves => "threshold_moves",
            Counter::CheckpointWrites => "checkpoint_writes",
            Counter::CheckpointFailures => "checkpoint_failures",
            Counter::CheckpointBytes => "checkpoint_bytes",
            Counter::ServeRequests => "serve_requests",
            Counter::ServeErrors => "serve_errors",
            Counter::ServeBatches => "serve_batches",
            Counter::ServeSwaps => "serve_swaps",
            Counter::PairsReused => "pairs_reused",
            Counter::ClustersDirty => "clusters_dirty",
            Counter::PstRecompiles => "pst_recompiles",
            Counter::ServeAssign => "serve_assign_requests",
            Counter::ServeScore => "serve_score_requests",
            Counter::ServeAnomaly => "serve_anomaly_requests",
            Counter::ServeInfo => "serve_info_requests",
            Counter::ServeSwapRequests => "serve_swap_requests",
            Counter::ServeShutdown => "serve_shutdown_requests",
            Counter::ServeSlow => "serve_slow_requests",
        }
    }

    fn index(self) -> usize {
        Counter::ALL
            .iter()
            .position(|c| *c == self)
            .expect("in ALL")
    }
}

/// A last-value gauge in the registry, set at iteration boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Completed iterations.
    Iteration,
    /// Clusters alive after the latest consolidation.
    ClustersLive,
    /// The similarity threshold, log-space (stored as `f64` bits).
    ThresholdLogT,
    /// The serve daemon's live model generation (0 when not serving).
    ServeGeneration,
    /// Jobs sitting in the serve dispatcher's queue right now.
    ServeQueueDepth,
    /// Requests accepted by the serve daemon and not yet answered
    /// (queued plus mid-batch; maintained with [`TraceShared::gauge_add`]).
    ServeInFlight,
}

impl Gauge {
    /// Every gauge, in display order.
    pub const ALL: [Gauge; 6] = [
        Gauge::Iteration,
        Gauge::ClustersLive,
        Gauge::ThresholdLogT,
        Gauge::ServeGeneration,
        Gauge::ServeQueueDepth,
        Gauge::ServeInFlight,
    ];

    fn index(self) -> usize {
        Gauge::ALL.iter().position(|g| *g == self).expect("in ALL")
    }
}

/// A fixed-bucket latency histogram in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistKind {
    /// Per-row scoring latency, recorded by each worker in its own shard:
    /// one observation per sequence, or per lane group of up to
    /// [`BATCH_LANES`](crate::similarity::BATCH_LANES) sequences in the
    /// compiled snapshot pass.
    ScoreRow,
    /// Whole-iteration wall time.
    IterationWall,
    /// Checkpoint write wall time.
    CheckpointWrite,
    /// Serve-daemon request latency, enqueue to scored response.
    ServeRequest,
    /// End-to-end ASSIGN latency, first byte to write-back complete.
    ServeAssign,
    /// End-to-end SCORE latency.
    ServeScore,
    /// End-to-end ANOMALY latency.
    ServeAnomaly,
    /// End-to-end latency of the admin opcodes (INFO, SWAP, SHUTDOWN).
    ServeAdmin,
    /// Stage: reading the rest of the frame (or HTTP request) off the
    /// socket after its first byte.
    ServeAccept,
    /// Stage: decoding and validating the request payload.
    ServeDecode,
    /// Stage: enqueue until the dispatcher drained the job into a batch.
    ServeQueueWait,
    /// Stage: batch drain until batch scoring began (model pinning).
    ServeBatchForm,
    /// Stage: the batched scoring pass itself.
    ServeScan,
    /// Stage: encoding the response frame or JSON body.
    ServeEncode,
    /// Stage: writing the encoded response back to the socket.
    ServeWriteBack,
    /// Jobs per dispatched batch. Unit is **jobs**, not time: a batch of
    /// `n` jobs is recorded as `n` µs, so bucket `b` covers
    /// `[2^(b-1), 2^b)` jobs and the exporter divides edges and sums by
    /// 1000 to render job counts.
    ServeBatchJobs,
}

impl HistKind {
    /// Every histogram, in display order.
    pub const ALL: [HistKind; 16] = [
        HistKind::ScoreRow,
        HistKind::IterationWall,
        HistKind::CheckpointWrite,
        HistKind::ServeRequest,
        HistKind::ServeAssign,
        HistKind::ServeScore,
        HistKind::ServeAnomaly,
        HistKind::ServeAdmin,
        HistKind::ServeAccept,
        HistKind::ServeDecode,
        HistKind::ServeQueueWait,
        HistKind::ServeBatchForm,
        HistKind::ServeScan,
        HistKind::ServeEncode,
        HistKind::ServeWriteBack,
        HistKind::ServeBatchJobs,
    ];

    /// The histogram's stable snake_case name.
    pub fn as_str(self) -> &'static str {
        match self {
            HistKind::ScoreRow => "score_row",
            HistKind::IterationWall => "iteration_wall",
            HistKind::CheckpointWrite => "checkpoint_write",
            HistKind::ServeRequest => "serve_request",
            HistKind::ServeAssign => "serve_assign",
            HistKind::ServeScore => "serve_score",
            HistKind::ServeAnomaly => "serve_anomaly",
            HistKind::ServeAdmin => "serve_admin",
            HistKind::ServeAccept => "serve_stage_accept",
            HistKind::ServeDecode => "serve_stage_decode",
            HistKind::ServeQueueWait => "serve_stage_queue_wait",
            HistKind::ServeBatchForm => "serve_stage_batch_form",
            HistKind::ServeScan => "serve_stage_scan",
            HistKind::ServeEncode => "serve_stage_encode",
            HistKind::ServeWriteBack => "serve_stage_write_back",
            HistKind::ServeBatchJobs => "serve_batch_jobs",
        }
    }

    pub(crate) fn index(self) -> usize {
        HistKind::ALL
            .iter()
            .position(|h| *h == self)
            .expect("in ALL")
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
    pub fn hist_merge(
        &self,
        hist: HistKind,
        shard: usize,
        counts: &[u32; HIST_BUCKETS],
        sum: u64,
    ) {
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

    /// Adds a signed delta to a `u64` gauge (two's-complement wrapping,
    /// so balanced `+1`/`-1` pairs from different threads always return
    /// the gauge to its starting value). The up/down counterpart of
    /// [`TraceShared::gauge_set`] for live occupancy gauges.
    pub fn gauge_add(&self, gauge: Gauge, delta: i64) {
        self.gauges[gauge.index()].fetch_add(delta as u64, Ordering::Relaxed);
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
/// sink and exporter. Passed as `Option<&TraceSession>` through the
/// driver; `None` everywhere is the zero-cost disabled path.
#[derive(Debug)]
pub struct TraceSession {
    shared: Arc<TraceShared>,
    sink: Option<Mutex<sink::JsonlSink>>,
    exporter: Option<exporter::ExporterHandle>,
}

/// The per-iteration facts the JSONL `iteration` event carries. All
/// counter fields are deterministic; only `phases` is wall-clock.
#[derive(Debug, Clone, Copy)]
pub struct IterationEvent {
    /// 0-based iteration number.
    pub iteration: usize,
    /// Clusters alive when the iteration began.
    pub clusters_at_start: usize,
    /// Clusters born this iteration.
    pub new_clusters: usize,
    /// Clusters dismissed by consolidation.
    pub removed_clusters: usize,
    /// Clusters alive after consolidation.
    pub clusters_live: usize,
    /// Membership flips in the scan.
    pub membership_changes: usize,
    /// Pairs scored in the scan.
    pub pairs_scored: u64,
    /// Pairs pruned by the compiled kernel's early exit.
    pub pairs_pruned: u64,
    /// Pairs answered from the incremental cache (0 unless incremental).
    pub pairs_reused: u64,
    /// Pairs that reached the threshold.
    pub joins: u64,
    /// Joins by non-members.
    pub new_joins: u64,
    /// The threshold after adjustment, log-space.
    pub log_t: f64,
    /// Whether adjustment moved the threshold.
    pub threshold_moved: bool,
    /// Wall-clock phase attribution.
    pub phases: PhaseNanos,
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

    /// See [`TraceShared::gauge_set`].
    pub fn gauge_set(&self, gauge: Gauge, v: u64) {
        self.shared.gauge_set(gauge, v);
    }

    /// See [`TraceShared::gauge_set_f64`].
    pub fn gauge_set_f64(&self, gauge: Gauge, v: f64) {
        self.shared.gauge_set_f64(gauge, v);
    }

    /// See [`TraceShared::phase_stats`].
    pub fn phase_stats(&self, phase: Phase) -> PhaseStats {
        self.shared.phase_stats(phase)
    }

    /// Fsyncs the JSONL sink (no-op without one). Event writes are
    /// best-effort — an I/O error never aborts the run — so `sync` is
    /// where durability is actually established: the driver calls it on
    /// every iteration boundary *before* the checkpoint write, which is
    /// what guarantees the trace always covers at least as many iterations
    /// as any checkpoint on disk.
    pub fn sync(&self) {
        if let Some(sink) = &self.sink {
            if let Ok(mut sink) = sink.lock() {
                let _ = sink.sync();
            }
        }
    }

    fn emit(&self, build: impl FnOnce(&mut JsonWriter)) {
        let Some(sink) = &self.sink else { return };
        let mut w = JsonWriter::new();
        w.begin_obj();
        build(&mut w);
        w.end_obj();
        let body = w.finish();
        if let Ok(mut sink) = sink.lock() {
            let _ = sink.write_event(&body);
        }
    }

    /// Emits the `run_start` event.
    pub fn event_run_start(&self, ctx: &RunContext, kernel: ScanKernel) {
        self.emit(|w| {
            w.field_str("event", "run_start");
            w.field_usize("sequences", ctx.sequences);
            w.field_usize("alphabet_size", ctx.alphabet_size);
            w.field_usize("threads", ctx.threads);
            w.field_str("scan_mode", &ctx.scan_mode.to_string());
            w.field_str("scan_kernel", &kernel.to_string());
            w.field_u64("seed", ctx.seed);
            w.field_f64("initial_log_t", ctx.initial_log_t);
        });
    }

    /// Emits the `resume` event (directly after `run_start` in a resumed
    /// run — the marker the replay reader stitches on).
    pub fn event_resume(&self, info: &ResumeInfo) {
        self.emit(|w| {
            w.field_str("event", "resume");
            w.field_usize("completed", info.completed);
            w.field_u64("version", u64::from(info.version));
        });
    }

    /// Emits the `iteration` event. The driver follows it with
    /// [`TraceSession::sync`] before any checkpoint write.
    pub fn event_iteration(&self, ev: &IterationEvent) {
        self.emit(|w| {
            w.field_str("event", "iteration");
            w.field_usize("iteration", ev.iteration);
            w.field_usize("clusters_at_start", ev.clusters_at_start);
            w.field_usize("new_clusters", ev.new_clusters);
            w.field_usize("removed_clusters", ev.removed_clusters);
            w.field_usize("clusters_live", ev.clusters_live);
            w.field_usize("membership_changes", ev.membership_changes);
            w.field_u64("pairs_scored", ev.pairs_scored);
            w.field_u64("pairs_pruned", ev.pairs_pruned);
            w.field_u64("pairs_reused", ev.pairs_reused);
            w.field_u64("joins", ev.joins);
            w.field_u64("new_joins", ev.new_joins);
            w.field_f64("log_t", ev.log_t);
            w.field_bool("threshold_moved", ev.threshold_moved);
            w.key("phase_nanos");
            w.begin_obj();
            w.field_u64("seeding", ev.phases.seeding);
            w.field_u64("scan_score", ev.phases.scan_score);
            w.field_u64("scan_absorb", ev.phases.scan_absorb);
            w.field_u64("consolidate", ev.phases.consolidate);
            w.field_u64("threshold", ev.phases.threshold);
            w.field_u64("total", ev.phases.total);
            w.end_obj();
        });
    }

    /// Emits the `checkpoint` event (after the write attempt).
    pub fn event_checkpoint(&self, completed: usize, bytes: u64, write_nanos: u64, ok: bool) {
        self.emit(|w| {
            w.field_str("event", "checkpoint");
            w.field_usize("completed", completed);
            w.field_u64("bytes", bytes);
            w.field_u64("write_nanos", write_nanos);
            w.field_bool("ok", ok);
        });
    }

    /// Emits the `run_end` event: the run summary plus a full snapshot of
    /// the registry (counters and per-phase span aggregates).
    pub fn event_run_end(&self, summary: &RunSummary) {
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
        self.emit(|w| {
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
        s.gauge_set(Gauge::Iteration, 5);
        s.gauge_set(Gauge::Iteration, 9);
        s.gauge_set_f64(Gauge::ThresholdLogT, 1.25);
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
    fn gauge_add_balances_to_zero() {
        let s = TraceSession::in_memory();
        let shared = s.shared();
        shared.gauge_add(Gauge::ServeInFlight, 3);
        shared.gauge_add(Gauge::ServeInFlight, -1);
        assert_eq!(shared.gauge(Gauge::ServeInFlight), 2);
        shared.gauge_add(Gauge::ServeInFlight, -2);
        assert_eq!(shared.gauge(Gauge::ServeInFlight), 0);
        // A transient negative (decrement observed before increment)
        // wraps, but the balanced total still lands on zero.
        shared.gauge_add(Gauge::ServeInFlight, -1);
        shared.gauge_add(Gauge::ServeInFlight, 1);
        assert_eq!(shared.gauge(Gauge::ServeInFlight), 0);
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
