//! Run-report telemetry for the CLUSEQ iteration loop.
//!
//! The paper reasons explicitly about per-iteration dynamics — the
//! threshold valley moving (§4.6), clusters being born and dismissed under
//! the growth factor `f` (§4.1, §4.5), PST size under the memory budget
//! (§5.1) — but a bare [`crate::CluseqOutcome`] only shows the end state.
//! This module records the trajectory: a [`RunObserver`] receives one
//! [`IterationRecord`] per completed iteration, and the provided
//! [`RunReport`] implementation accumulates them into a serializable,
//! human-renderable report. The driver emits each run event once, to one
//! sink: the caller's observer and, when tracing, the
//! [`crate::trace::TraceSession`], which observes the same events.
//!
//! # Determinism contract
//!
//! Every *counter* field of a record (cluster lifecycle counts, scan pair
//! counts, the similarity histogram, the valley, thresholds, per-cluster
//! PST footprints) is a pure function of the run's inputs and therefore
//! **bit-identical across thread counts** for both scan modes — the same
//! contract [`crate::score`] gives the clustering itself. Only the
//! wall-clock fields in [`PhaseNanos`] vary between runs;
//! [`RunReport::counters_json`] serializes a report with those fields
//! omitted so tests (and golden comparisons) can assert byte equality.
//!
//! # Cost when disabled
//!
//! The driver asks [`RunObserver::enabled`] before filling a record's
//! per-cluster snapshots and histogram; the default [`NoopObserver`]
//! answers `false`, so a plain [`crate::Cluseq::run`] skips the footprint
//! walk and the histogram snapshot entirely — the hot path is unchanged.

use cluseq_eval::Histogram;

use crate::config::{ScanKernel, ScanMode};
use crate::outcome::IterationStats;
use crate::trace::json::JsonWriter;

/// Facts about a run known before the first iteration, delivered once via
/// [`RunObserver::on_run_start`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunContext {
    /// Number of sequences in the database.
    pub sequences: usize,
    /// Alphabet size of the database.
    pub alphabet_size: usize,
    /// Configured worker-thread count (a performance knob only; see
    /// [`crate::score`]).
    pub threads: usize,
    /// The configured re-clustering scan mode.
    pub scan_mode: ScanMode,
    /// The configured scan kernel (in the trace's `run_start` event; the
    /// report JSON does not carry it).
    pub scan_kernel: ScanKernel,
    /// The RNG seed.
    pub seed: u64,
    /// The initial similarity threshold, log-space.
    pub initial_log_t: f64,
}

/// Facts about a finished run, delivered once via
/// [`RunObserver::on_run_end`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Iterations executed (equals the number of records delivered).
    pub iterations: usize,
    /// Surviving clusters.
    pub clusters: usize,
    /// Sequences belonging to no cluster after the final sweep.
    pub outliers: usize,
    /// The final similarity threshold, log-space.
    pub final_log_t: f64,
    /// Wall time of the final assignment sweep, nanoseconds.
    pub finalize_nanos: u64,
    /// Wall time of the whole run, nanoseconds.
    pub total_nanos: u64,
    /// (sequence, cluster) pairs of the final assignment sweep whose
    /// evaluation was abandoned early because the compiled kernel proved
    /// they could not reach the threshold (always 0 under
    /// [`crate::config::ScanKernel::Interpreted`]). A pruned pair is
    /// guaranteed to be a non-join, so outcomes are unaffected; this
    /// counter exists so skipped work is visible rather than silently
    /// folded into `pairs_scored`-style totals.
    pub pairs_pruned: u64,
}

/// What seed selection (§4.1) did in one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedingMetrics {
    /// `k_n`: new clusters requested by the growth rule.
    pub requested: usize,
    /// Unclustered sequences available as candidates.
    pub pool: usize,
    /// Candidates actually sampled (`m = sample_factor × k_n`, clamped).
    pub sampled: usize,
    /// Seeds chosen — clusters born this iteration.
    pub chosen: usize,
}

/// What the re-clustering scan (§4.2) did in one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanMetrics {
    /// (sequence, cluster) pairs scored — the scan's similarity
    /// evaluations. Every pair is scored exactly once per iteration.
    pub pairs_scored: u64,
    /// Pairs whose similarity reached the threshold (membership entries
    /// after the scan, summed over clusters).
    pub joins: u64,
    /// Joins by sequences that were *not* members of that cluster at the
    /// start of the scan — each feeds its maximizing segment to the model
    /// (§4.4).
    pub new_joins: u64,
    /// Membership flips relative to the start of the scan
    /// (joins + departures).
    pub membership_changes: usize,
    /// Pairs the compiled kernel abandoned mid-scan after proving they
    /// could not reach the threshold; such pairs still count in
    /// `pairs_scored`. Scan pruning is only enabled once the threshold is
    /// frozen *and* no iteration records are being kept (pruning skips the
    /// similarity histogram those records carry), so this is always 0 in a
    /// recorded iteration — which is also why version-1 checkpoints, which
    /// predate the field, decode losslessly with 0.
    pub pairs_pruned: u64,
    /// Pairs answered from the incremental similarity cache instead of
    /// being re-scored; such pairs do **not** count in `pairs_scored` (or
    /// `pairs_pruned`). Always 0 unless [`crate::CluseqParams::incremental`]
    /// is on — which is why v1/v2 checkpoints, which predate the field,
    /// decode losslessly with 0.
    pub pairs_reused: u64,
    /// Clusters whose column had to be scored fresh this scan (model
    /// changed, newly seeded, or never cached). 0 unless incremental.
    pub clusters_dirty: u64,
    /// `CompiledPst` automata compiled for dirty clusters this scan.
    /// 0 unless incremental.
    pub pst_recompiles: u64,
}

/// Wall-clock attribution of one iteration's phases, in nanoseconds.
///
/// These are the only fields of an [`IterationRecord`] that are **not**
/// deterministic: they differ run to run and thread count to thread count,
/// and are therefore excluded from [`RunReport::counters_json`] and all
/// golden comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseNanos {
    /// Seed sampling, candidate model building, and farthest-first
    /// selection (§4.1).
    pub seeding: u64,
    /// The scan's similarity evaluations (§4.2). Under
    /// [`ScanMode::Incremental`] this includes the interleaved model
    /// updates (they cannot be separated without per-pair clocking);
    /// `absorb` is then 0.
    pub scan_score: u64,
    /// The sequential absorb phase of [`ScanMode::Snapshot`] — membership
    /// bookkeeping and model updates in examination order.
    pub scan_absorb: u64,
    /// Consolidation (§4.5).
    pub consolidate: u64,
    /// Histogram construction and valley finding (§4.6).
    pub threshold: u64,
    /// The whole iteration, measured independently (≥ the sum of the
    /// phases; the remainder is inter-phase bookkeeping).
    pub total: u64,
}

/// One surviving cluster's shape at the end of an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSnapshot {
    /// Stable cluster id (creation order within the run).
    pub id: usize,
    /// Member count after the scan and consolidation.
    pub members: usize,
    /// Members belonging to no other surviving cluster — the quantity
    /// consolidation (§4.5) tests against `min_exclusive`.
    pub exclusive_members: usize,
    /// Live PST nodes (root included).
    pub pst_nodes: usize,
    /// Estimated PST footprint in bytes (the §5.1 budget's currency).
    pub pst_bytes: usize,
    /// PST root count — total symbols absorbed into the model.
    pub pst_total_count: u64,
}

/// The similarity histogram handed to the valley finder (§4.6), captured
/// verbatim: equal-width buckets over `[lo, hi)`.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Lower edge of the bucketed domain (the smallest finite similarity).
    pub lo: f64,
    /// Upper edge of the bucketed domain (the largest finite similarity).
    pub hi: f64,
    /// Per-bucket observation counts.
    pub counts: Vec<u64>,
}

impl HistogramSnapshot {
    /// Captures a [`Histogram`]'s buckets.
    pub fn capture(hist: &Histogram) -> Self {
        let (lo, hi) = hist.range();
        Self {
            lo,
            hi,
            counts: hist.counts().to_vec(),
        }
    }

    /// Total observations across all buckets.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// One checkpoint write attempt by the iteration loop (see
/// [`crate::checkpoint`]), delivered via [`RunObserver::on_checkpoint`].
///
/// Checkpoint events are *provenance*, not counters: whether and when they
/// occur depends on the [`crate::CheckpointPolicy`] and on where a resumed
/// run picked up, so they are excluded from
/// [`RunReport::counters_json`] (like wall-clock timings).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointEvent {
    /// Completed iterations captured by this checkpoint (the file resumes
    /// *after* iteration `completed - 1`).
    pub completed: usize,
    /// Where the checkpoint was written.
    pub path: String,
    /// Serialized size in bytes (0 when the write failed).
    pub bytes: u64,
    /// Wall time of the write, nanoseconds.
    pub write_nanos: u64,
    /// The I/O error message when the write failed. Checkpointing is
    /// best-effort durability: a failed write is reported here and the run
    /// continues unharmed.
    pub error: Option<String>,
}

/// Where a resumed run picked up, delivered once via
/// [`RunObserver::on_resume`] (before the replayed iteration records).
/// Provenance only — excluded from [`RunReport::counters_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeInfo {
    /// Iterations already completed by the checkpointed run.
    pub completed: usize,
    /// Checkpoint format version the state was restored from.
    pub version: u32,
    /// Clusters alive at the checkpoint (not in the report JSON).
    pub clusters: usize,
    /// The threshold at the checkpoint, log-space (not in the report
    /// JSON).
    pub log_t: f64,
}

/// Everything the telemetry layer knows about one completed iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// 0-based iteration number.
    pub iteration: usize,
    /// Clusters alive when the iteration began (before seeding).
    pub clusters_at_start: usize,
    /// Seed-selection metrics; `seeding.chosen` clusters were born.
    pub seeding: SeedingMetrics,
    /// Re-clustering scan metrics.
    pub scan: ScanMetrics,
    /// Clusters dismissed by consolidation.
    pub removed_clusters: usize,
    /// Dismissed clusters whose models were merged into their coverer
    /// (only under [`crate::ConsolidationMode::MergeIntoCovering`]).
    pub merged_clusters: usize,
    /// Clusters alive after consolidation.
    pub clusters_at_end: usize,
    /// The similarity histogram handed to the valley finder. `None` when
    /// the similarities were degenerate (empty or constant) — the
    /// adjustment step receives nothing in that case.
    pub histogram: Option<HistogramSnapshot>,
    /// The valley `t̂` chosen by the regression-slope analysis (log-space);
    /// `None` when adjustment was frozen/disabled or no valley exists.
    pub valley: Option<f64>,
    /// The threshold the scan used, log-space.
    pub log_t_before: f64,
    /// The threshold after the adjustment step, log-space (equal to
    /// `log_t_before` when nothing moved).
    pub log_t_after: f64,
    /// Whether adjustment moved the threshold.
    pub threshold_moved: bool,
    /// Per-cluster shape after consolidation, in slot order.
    pub clusters: Vec<ClusterSnapshot>,
    /// Wall-clock phase attribution (non-deterministic; see [`PhaseNanos`]).
    pub timings: PhaseNanos,
}

impl IterationRecord {
    /// The lightweight per-iteration view ([`IterationStats`]) this record
    /// extends — what [`crate::CluseqOutcome::history`] stores.
    pub fn stats(&self) -> IterationStats {
        IterationStats {
            iteration: self.iteration,
            new_clusters: self.seeding.chosen,
            removed_clusters: self.removed_clusters,
            clusters_at_end: self.clusters_at_end,
            membership_changes: self.scan.membership_changes,
            log_t: self.log_t_after,
            threshold_moved: self.threshold_moved,
        }
    }
}

/// Event sink for the iteration loop.
///
/// The driver calls [`on_run_start`](RunObserver::on_run_start) once,
/// [`on_iteration`](RunObserver::on_iteration) after every completed
/// iteration, and [`on_run_end`](RunObserver::on_run_end) once after the
/// final assignment sweep. All methods have empty defaults, so an observer
/// implements only what it needs.
pub trait RunObserver {
    /// Whether the driver should fill each [`IterationRecord`]'s
    /// per-cluster snapshots and histogram. When this returns `false` (and
    /// no checkpoint needs them) both stay empty, keeping the disabled hot
    /// path free of telemetry cost — and leaving scan pruning on once the
    /// threshold freezes, which a kept histogram forbids. Defaults to
    /// `true`.
    fn enabled(&self) -> bool {
        true
    }

    /// Called once before the first iteration.
    fn on_run_start(&mut self, _ctx: &RunContext) {}

    /// Called after each completed iteration. Without
    /// [`enabled`](RunObserver::enabled) the record's `histogram` is `None`
    /// and its `clusters` empty, unless checkpointing needed them.
    ///
    /// A resumed run ([`crate::Cluseq::resume_traced`]) replays the
    /// records captured in the checkpoint first, so the observer sees the
    /// full iteration sequence exactly as an uninterrupted run delivers it.
    fn on_iteration(&mut self, _record: &IterationRecord) {}

    /// Called after each checkpoint write attempt (only when a
    /// [`crate::CheckpointPolicy`] is configured).
    fn on_checkpoint(&mut self, _event: &CheckpointEvent) {}

    /// Called once, before any replayed records, when a run is resumed
    /// from a checkpoint.
    fn on_resume(&mut self, _info: &ResumeInfo) {}

    /// Called once after the final assignment sweep.
    fn on_run_end(&mut self, _summary: &RunSummary) {}
}

/// The do-nothing observer behind [`crate::Cluseq::run`]: reports
/// `enabled() == false`, so the driver skips the record's snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl RunObserver for NoopObserver {
    fn enabled(&self) -> bool {
        false
    }
}

/// A [`RunObserver`] that accumulates the whole run into a structured
/// report: run context, one [`IterationRecord`] per iteration, and the
/// final summary. Serialize with [`to_json`](RunReport::to_json) or render
/// with [`render_table`](RunReport::render_table).
///
/// ```
/// use cluseq_core::telemetry::RunReport;
/// use cluseq_core::{Cluseq, CluseqParams};
/// use cluseq_seq::SequenceDatabase;
///
/// let db = SequenceDatabase::from_strs(
///     std::iter::repeat("abababab").take(12)
///         .chain(std::iter::repeat("cdcdcdcd").take(12)),
/// );
/// let mut report = RunReport::new();
/// let outcome = Cluseq::new(
///     CluseqParams::default().with_significance(2).with_initial_clusters(2),
/// )
/// .run_traced(&db, &mut report, None);
/// assert_eq!(report.iterations.len(), outcome.iterations);
/// assert!(report.to_json().starts_with('{'));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// The run's context, filled at `on_run_start`.
    pub context: Option<RunContext>,
    /// One record per completed iteration, in order. For a resumed run the
    /// leading records are replayed from the checkpoint, so the list is
    /// complete either way.
    pub iterations: Vec<IterationRecord>,
    /// Checkpoint write attempts, in order (provenance; empty without a
    /// [`crate::CheckpointPolicy`]).
    pub checkpoints: Vec<CheckpointEvent>,
    /// Resume provenance: `Some` when this run was restored from a
    /// checkpoint rather than started fresh.
    pub resumed: Option<ResumeInfo>,
    /// The run's summary, filled at `on_run_end`.
    pub summary: Option<RunSummary>,
}

impl RunReport {
    /// An empty report, ready to be passed to
    /// [`crate::Cluseq::run_traced`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Serializes the full report — timings included — as a JSON object.
    ///
    /// The emitter is hand-rolled over `std` (the workspace's vendored
    /// serde shim has no format machinery); floats are written with
    /// shortest-roundtrip formatting, and non-finite floats (which no
    /// recorded field produces in a valid run) become `null`.
    pub fn to_json(&self) -> String {
        self.write_json(true)
    }

    /// Serializes the report with every wall-clock and provenance field
    /// omitted (timings, thread count, checkpoint events, resume info).
    ///
    /// Two runs that differ only in thread count — or in whether they were
    /// resumed from a checkpoint — produce byte-identical `counters_json`
    /// output for the same scan mode: the telemetry extension of the
    /// [`crate::score`] determinism contract, enforced by
    /// `tests/run_report.rs` and `tests/checkpoint_resume.rs`.
    pub fn counters_json(&self) -> String {
        self.write_json(false)
    }

    fn write_json(&self, with_timings: bool) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        match &self.context {
            Some(c) => {
                w.key("context");
                w.begin_obj();
                w.field_usize("sequences", c.sequences);
                w.field_usize("alphabet_size", c.alphabet_size);
                if with_timings {
                    // The thread count is configuration, not a counter: it
                    // must not make counters_json diverge.
                    w.field_usize("threads", c.threads);
                }
                w.field_str("scan_mode", &c.scan_mode.to_string());
                w.field_u64("seed", c.seed);
                w.field_f64("initial_log_t", c.initial_log_t);
                w.end_obj();
            }
            None => w.field_null("context"),
        }
        w.key("iterations");
        w.begin_arr();
        for r in &self.iterations {
            Self::write_record(&mut w, r, with_timings);
        }
        w.end_arr();
        if with_timings {
            // Checkpoint and resume provenance depend on policy and crash
            // points, not on the clustering — kept out of counters_json so
            // a resumed run's counters match the uninterrupted run's.
            w.key("checkpoints");
            w.begin_arr();
            for e in &self.checkpoints {
                w.begin_obj();
                w.field_usize("completed", e.completed);
                w.field_str("path", &e.path);
                w.field_u64("bytes", e.bytes);
                w.field_u64("write_nanos", e.write_nanos);
                match &e.error {
                    Some(msg) => w.field_str("error", msg),
                    None => w.field_null("error"),
                }
                w.end_obj();
            }
            w.end_arr();
            match &self.resumed {
                Some(r) => {
                    w.key("resumed");
                    w.begin_obj();
                    w.field_usize("completed", r.completed);
                    w.field_u64("version", u64::from(r.version));
                    w.end_obj();
                }
                None => w.field_null("resumed"),
            }
        }
        match &self.summary {
            Some(s) => {
                w.key("summary");
                w.begin_obj();
                w.field_usize("iterations", s.iterations);
                w.field_usize("clusters", s.clusters);
                w.field_usize("outliers", s.outliers);
                w.field_f64("final_log_t", s.final_log_t);
                w.field_u64("pairs_pruned", s.pairs_pruned);
                if with_timings {
                    w.field_u64("finalize_nanos", s.finalize_nanos);
                    w.field_u64("total_nanos", s.total_nanos);
                }
                w.end_obj();
            }
            None => w.field_null("summary"),
        }
        w.end_obj();
        w.finish()
    }

    fn write_record(w: &mut JsonWriter, r: &IterationRecord, with_timings: bool) {
        w.begin_obj();
        w.field_usize("iteration", r.iteration);
        w.field_usize("clusters_at_start", r.clusters_at_start);
        w.key("seeding");
        w.begin_obj();
        w.field_usize("requested", r.seeding.requested);
        w.field_usize("pool", r.seeding.pool);
        w.field_usize("sampled", r.seeding.sampled);
        w.field_usize("chosen", r.seeding.chosen);
        w.end_obj();
        w.key("scan");
        w.begin_obj();
        w.field_u64("pairs_scored", r.scan.pairs_scored);
        w.field_u64("joins", r.scan.joins);
        w.field_u64("new_joins", r.scan.new_joins);
        w.field_usize("membership_changes", r.scan.membership_changes);
        w.field_u64("pairs_pruned", r.scan.pairs_pruned);
        w.field_u64("pairs_reused", r.scan.pairs_reused);
        w.field_u64("clusters_dirty", r.scan.clusters_dirty);
        w.field_u64("pst_recompiles", r.scan.pst_recompiles);
        w.end_obj();
        w.field_usize("removed_clusters", r.removed_clusters);
        w.field_usize("merged_clusters", r.merged_clusters);
        w.field_usize("clusters_at_end", r.clusters_at_end);
        match &r.histogram {
            Some(h) => {
                w.key("histogram");
                w.begin_obj();
                w.field_f64("lo", h.lo);
                w.field_f64("hi", h.hi);
                w.key("counts");
                w.begin_arr();
                for &c in &h.counts {
                    w.arr_u64(c);
                }
                w.end_arr();
                w.end_obj();
            }
            None => w.field_null("histogram"),
        }
        match r.valley {
            Some(v) => w.field_f64("valley", v),
            None => w.field_null("valley"),
        }
        w.field_f64("log_t_before", r.log_t_before);
        w.field_f64("log_t_after", r.log_t_after);
        w.field_bool("threshold_moved", r.threshold_moved);
        w.key("clusters");
        w.begin_arr();
        for c in &r.clusters {
            w.begin_obj();
            w.field_usize("id", c.id);
            w.field_usize("members", c.members);
            w.field_usize("exclusive_members", c.exclusive_members);
            w.field_usize("pst_nodes", c.pst_nodes);
            w.field_usize("pst_bytes", c.pst_bytes);
            w.field_u64("pst_total_count", c.pst_total_count);
            w.end_obj();
        }
        w.end_arr();
        if with_timings {
            w.key("phase_nanos");
            w.begin_obj();
            w.field_u64("seeding", r.timings.seeding);
            w.field_u64("scan_score", r.timings.scan_score);
            w.field_u64("scan_absorb", r.timings.scan_absorb);
            w.field_u64("consolidate", r.timings.consolidate);
            w.field_u64("threshold", r.timings.threshold);
            w.field_u64("total", r.timings.total);
            w.end_obj();
        }
        w.end_obj();
    }

    /// Renders the per-iteration summary table the CLI prints: one row per
    /// iteration with lifecycle counts, scan activity, the threshold
    /// trajectory, aggregate PST size, and phase wall-times.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if let Some(c) = &self.context {
            let _ = writeln!(
                out,
                "run: {} sequences, alphabet {}, scan {}, {} thread(s), seed {}, ln t0 = {:.4}",
                c.sequences, c.alphabet_size, c.scan_mode, c.threads, c.seed, c.initial_log_t
            );
        }
        let _ = writeln!(
            out,
            "{:>4} {:>5} {:>5} {:>5} {:>6} {:>8} {:>8} {:>8} {:>9} {:>9} {:>9} {:>9}",
            "iter",
            "born",
            "dism",
            "alive",
            "flips",
            "pairs",
            "valley",
            "ln t",
            "pst_nodes",
            "seed_ms",
            "scan_ms",
            "other_ms"
        );
        for r in &self.iterations {
            let pst_nodes: usize = r.clusters.iter().map(|c| c.pst_nodes).sum();
            let valley = match r.valley {
                Some(v) => format!("{v:.3}"),
                None => "-".into(),
            };
            let ms = |n: u64| n as f64 / 1e6;
            let other =
                ms(r.timings.scan_absorb) + ms(r.timings.consolidate) + ms(r.timings.threshold);
            let _ = writeln!(
                out,
                "{:>4} {:>5} {:>5} {:>5} {:>6} {:>8} {:>8} {:>8.3} {:>9} {:>9.2} {:>9.2} {:>9.2}",
                r.iteration,
                r.seeding.chosen,
                r.removed_clusters,
                r.clusters_at_end,
                r.scan.membership_changes,
                r.scan.pairs_scored,
                valley,
                r.log_t_after,
                pst_nodes,
                ms(r.timings.seeding),
                ms(r.timings.scan_score),
                other,
            );
        }
        if let Some(s) = &self.summary {
            let _ = writeln!(
                out,
                "final: {} clusters, {} outliers, ln t = {:.4}, {} pairs pruned, {:.2} ms total",
                s.clusters,
                s.outliers,
                s.final_log_t,
                s.pairs_pruned,
                s.total_nanos as f64 / 1e6
            );
        }
        out
    }
}

impl RunObserver for RunReport {
    fn on_run_start(&mut self, ctx: &RunContext) {
        self.context = Some(ctx.clone());
    }

    fn on_iteration(&mut self, record: &IterationRecord) {
        self.iterations.push(record.clone());
    }

    fn on_checkpoint(&mut self, event: &CheckpointEvent) {
        self.checkpoints.push(event.clone());
    }

    fn on_resume(&mut self, info: &ResumeInfo) {
        self.resumed = Some(info.clone());
    }

    fn on_run_end(&mut self, summary: &RunSummary) {
        self.summary = Some(summary.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(iteration: usize) -> IterationRecord {
        IterationRecord {
            iteration,
            clusters_at_start: 2,
            seeding: SeedingMetrics {
                requested: 2,
                pool: 10,
                sampled: 8,
                chosen: 2,
            },
            scan: ScanMetrics {
                pairs_scored: 40,
                joins: 12,
                new_joins: 3,
                membership_changes: 5,
                pairs_pruned: 0,
                pairs_reused: 0,
                clusters_dirty: 0,
                pst_recompiles: 0,
            },
            removed_clusters: 1,
            merged_clusters: 0,
            clusters_at_end: 3,
            histogram: Some(HistogramSnapshot {
                lo: -1.5,
                hi: 4.25,
                counts: vec![3, 0, 9],
            }),
            valley: Some(0.75),
            log_t_before: 0.0005,
            log_t_after: 0.375,
            threshold_moved: true,
            clusters: vec![ClusterSnapshot {
                id: 0,
                members: 7,
                exclusive_members: 7,
                pst_nodes: 41,
                pst_bytes: 2048,
                pst_total_count: 640,
            }],
            timings: PhaseNanos {
                seeding: 11,
                scan_score: 22,
                scan_absorb: 33,
                consolidate: 44,
                threshold: 55,
                total: 200,
            },
        }
    }

    fn sample_report() -> RunReport {
        RunReport {
            context: Some(RunContext {
                sequences: 20,
                alphabet_size: 4,
                threads: 2,
                scan_mode: ScanMode::Snapshot,
                scan_kernel: ScanKernel::Compiled,
                seed: 7,
                initial_log_t: 0.0005,
            }),
            iterations: vec![sample_record(0), sample_record(1)],
            checkpoints: Vec::new(),
            resumed: None,
            summary: Some(RunSummary {
                iterations: 2,
                clusters: 3,
                outliers: 1,
                final_log_t: 0.375,
                finalize_nanos: 99,
                total_nanos: 500,
                pairs_pruned: 4,
            }),
        }
    }

    #[test]
    fn json_has_expected_fields() {
        let json = sample_report().to_json();
        for key in [
            "\"context\"",
            "\"iterations\"",
            "\"summary\"",
            "\"pairs_scored\":40",
            "\"pairs_pruned\":4",
            "\"valley\":0.75",
            "\"histogram\"",
            "\"counts\":[3,0,9]",
            "\"phase_nanos\"",
            "\"scan_mode\":\"snapshot\"",
            "\"exclusive_members\":7",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn counters_json_omits_all_wall_clock_fields() {
        let json = sample_report().counters_json();
        for absent in ["nanos", "threads"] {
            assert!(!json.contains(absent), "{absent} leaked into {json}");
        }
        // The counters are still there.
        assert!(json.contains("\"pairs_scored\":40"));
        assert!(json.contains("\"final_log_t\":0.375"));
    }

    #[test]
    fn json_nesting_is_balanced() {
        let json = sample_report().to_json();
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes, "{json}");
        assert!(!json.contains(",,"));
        assert!(!json.contains(",}"));
        assert!(!json.contains(",]"));
        assert!(!json.contains("{,"));
        assert!(!json.contains("[,"));
    }

    #[test]
    fn empty_report_serializes_with_nulls() {
        let json = RunReport::new().to_json();
        assert_eq!(
            json,
            "{\"context\":null,\"iterations\":[],\"checkpoints\":[],\"resumed\":null,\
             \"summary\":null}"
        );
        assert_eq!(
            RunReport::new().counters_json(),
            "{\"context\":null,\"iterations\":[],\"summary\":null}"
        );
    }

    #[test]
    fn checkpoint_and_resume_provenance_stay_out_of_counters() {
        let mut report = sample_report();
        report.checkpoints.push(CheckpointEvent {
            completed: 1,
            path: "ckpt/cluseq-000001.ckpt".into(),
            bytes: 4096,
            write_nanos: 777,
            error: None,
        });
        report.checkpoints.push(CheckpointEvent {
            completed: 2,
            path: "ckpt/cluseq-000002.ckpt".into(),
            bytes: 0,
            write_nanos: 5,
            error: Some("disk full".into()),
        });
        report.resumed = Some(ResumeInfo {
            completed: 1,
            version: 1,
            clusters: 3,
            log_t: 0.375,
        });
        let full = report.to_json();
        assert!(full.contains("\"checkpoints\""), "{full}");
        assert!(full.contains("\"error\":\"disk full\""), "{full}");
        assert!(full.contains("\"resumed\":{\"completed\":1"), "{full}");
        let counters = report.counters_json();
        for absent in ["checkpoints", "resumed", "ckpt/"] {
            assert!(!counters.contains(absent), "{absent} leaked: {counters}");
        }
        // Provenance must never perturb the counters themselves.
        let mut plain = sample_report();
        plain.checkpoints.clear();
        plain.resumed = None;
        assert_eq!(plain.counters_json(), report.counters_json());
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut report = sample_report();
        report.iterations[0].valley = Some(f64::NAN);
        assert!(report.to_json().contains("\"valley\":null"));
    }

    #[test]
    fn record_stats_projects_the_legacy_view() {
        let r = sample_record(3);
        let s = r.stats();
        assert_eq!(s.iteration, 3);
        assert_eq!(s.new_clusters, 2);
        assert_eq!(s.removed_clusters, 1);
        assert_eq!(s.clusters_at_end, 3);
        assert_eq!(s.membership_changes, 5);
        assert_eq!(s.log_t, 0.375);
        assert!(s.threshold_moved);
    }

    #[test]
    fn table_renders_one_row_per_iteration() {
        let table = sample_report().render_table();
        let lines: Vec<&str> = table.lines().collect();
        // run line + header + 2 iterations + final line.
        assert_eq!(lines.len(), 5, "{table}");
        assert!(lines[0].starts_with("run:"));
        assert!(lines[4].starts_with("final:"));
    }

    #[test]
    fn noop_observer_is_disabled() {
        assert!(!NoopObserver.enabled());
        assert!(RunReport::new().enabled());
    }
}
