//! The CLUSEQ iterative driver (paper §4, Figure 2).
//!
//! Each iteration: (1) generate new clusters from unclustered sequences,
//! paced by the growth factor `f`; (2) re-cluster every sequence against
//! every cluster; (3) consolidate covered clusters; (4) optionally adjust
//! the similarity threshold toward the histogram valley. The loop stops at
//! a fixpoint — same number of clusters and no membership change — or at
//! the iteration cap.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::SeedableRng;

use cluseq_eval::Histogram;
use cluseq_seq::SequenceStore;

use crate::checkpoint::{db_digest, Checkpoint};
use crate::cluster::Cluster;
use crate::config::CluseqParams;
use crate::consolidate::{consolidate, exclusive_member_counts};
use crate::incremental::SimilarityCache;
use crate::kernel::ClusterAutomaton;
use crate::models::ModelCache;
use crate::outcome::{CluseqOutcome, IterationStats};
use crate::recluster::{recluster_full, ScanOptions};
use crate::score::{parallel_map, parallel_map_with, plan_chunk};
use crate::seeding::select_seeds_detailed;
use crate::similarity::{max_similarity_pst, BoundedSimilarity};
use crate::telemetry::{
    CheckpointEvent, ClusterSnapshot, HistogramSnapshot, IterationRecord, NoopObserver, PhaseNanos,
    ResumeInfo, RunContext, RunObserver, RunSummary,
};
use crate::threshold::decide_threshold;
use crate::trace::{self, Counter, Phase, TraceSession};

/// The mutable state of the iteration loop — exactly what a
/// [`Checkpoint`] captures and [`Cluseq::resume`] restores. Keeping it in
/// one struct guarantees the fresh-start and resume paths drive the same
/// loop over the same variables.
struct LoopState {
    clusters: Vec<Cluster>,
    next_id: usize,
    log_t: f64,
    threshold_frozen: bool,
    history: Vec<IterationStats>,
    /// Growth-factor carryover from the previous iteration (§4.1).
    prev_new: usize,
    prev_removed: usize,
    prev_cluster_count: usize,
    prev_best: Vec<Option<usize>>,
    rng: StdRng,
    /// First iteration index to execute (0 fresh, `completed` resumed).
    start_iteration: usize,
    /// Whether the fixpoint was already reached (resume of a final
    /// checkpoint skips straight to the assignment sweep).
    stable: bool,
    /// Telemetry records accumulated for checkpoints (empty when
    /// checkpointing is off — then nothing ever reads them).
    records: Vec<IterationRecord>,
    /// The incremental engine's (sequence, cluster) similarity cache.
    /// Stays empty — and costs nothing — unless `params.incremental`.
    cache: SimilarityCache,
    /// Completed-iteration number of the last successfully written
    /// checkpoint, i.e. the base the next delta checkpoint references.
    /// `None` until a full checkpoint exists (or when incremental is off).
    ckpt_base: Option<usize>,
    /// Ids of clusters seeded, mutated, merged into, or rebuilt since
    /// `ckpt_base` — exactly the bodies the next delta must carry.
    changed_since_base: BTreeSet<usize>,
}

/// The CLUSEQ algorithm, configured and ready to run.
///
/// ```
/// use cluseq_core::{Cluseq, CluseqParams};
/// use cluseq_seq::SequenceDatabase;
///
/// let db = SequenceDatabase::from_strs(
///     std::iter::repeat("ababababab").take(20)
///         .chain(std::iter::repeat("cdcdcdcdcd").take(20)),
/// );
/// let outcome = Cluseq::new(
///     CluseqParams::default().with_significance(3).with_initial_clusters(2),
/// )
/// .run(&db);
/// assert!(outcome.cluster_count() >= 2);
/// ```
#[derive(Debug, Clone)]
pub struct Cluseq {
    params: CluseqParams,
}

impl Cluseq {
    /// Creates a runner with the given parameters.
    pub fn new(params: CluseqParams) -> Self {
        Self { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> &CluseqParams {
        &self.params
    }

    /// Clusters `store`, consuming nothing: the store is only read. Any
    /// [`SequenceStore`] works — an in-memory
    /// [`SequenceDatabase`](cluseq_seq::SequenceDatabase) coerces here
    /// directly, and a [`cluseq_seq::FileStore`] runs the identical
    /// algorithm out of core (bit-identical output; see the store docs).
    ///
    /// # Panics
    ///
    /// Panics if the store is empty or the parameters are inconsistent
    /// with its alphabet.
    pub fn run(&self, store: &dyn SequenceStore) -> CluseqOutcome {
        self.run_traced(store, &mut NoopObserver, None)
    }

    /// [`Cluseq::run`] with a telemetry sink and optional live tracing.
    /// `observer` receives the run context, one [`IterationRecord`] per
    /// completed iteration, and a final [`RunSummary`] (see
    /// [`crate::telemetry`]). When `trace` is `Some`, the session observes
    /// the same events, and its registry, spans, JSONL stream, and
    /// exporter follow the run (see [`crate::trace`]). Every counter
    /// delivered to the observer is deterministic — only the wall-clock
    /// fields vary across runs and thread counts — and neither observing
    /// nor tracing perturbs the clustering.
    pub fn run_traced(
        &self,
        store: &dyn SequenceStore,
        observer: &mut dyn RunObserver,
        trace: Option<&TraceSession>,
    ) -> CluseqOutcome {
        assert!(!store.is_empty(), "cannot cluster an empty database");
        let alphabet_size = store.alphabet().len();
        self.params.validate(alphabet_size);
        let p = &self.params;
        let n = store.len();

        let mut sink = EventSink { observer, trace };
        let ctx = self.context(store);
        sink.each(|o| o.on_run_start(&ctx));
        self.drive(
            store,
            &mut sink,
            LoopState {
                clusters: Vec::new(),
                next_id: 0,
                log_t: p.initial_threshold.ln(),
                threshold_frozen: !p.adjust_threshold,
                history: Vec::new(),
                prev_new: 0,
                prev_removed: 0,
                prev_cluster_count: 0,
                prev_best: vec![None; n],
                rng: StdRng::seed_from_u64(p.seed),
                start_iteration: 0,
                stable: false,
                records: Vec::new(),
                cache: SimilarityCache::new(n),
                ckpt_base: None,
                changed_since_base: BTreeSet::new(),
            },
        )
    }

    /// Continues a checkpointed run to completion (see
    /// [`crate::checkpoint`]). The parameters stored *in the checkpoint*
    /// drive the continuation, so the result is bit-identical — outcome
    /// and [`crate::telemetry::RunReport::counters_json`] — to the
    /// uninterrupted run the checkpoint was taken from.
    ///
    /// # Panics
    ///
    /// Panics if `db` is not the database the checkpoint was taken on
    /// (sequence count, alphabet size, and content digest are all
    /// checked). Call [`Checkpoint::verify_database`] first to handle a
    /// mismatch gracefully.
    pub fn resume(checkpoint: Checkpoint, store: &dyn SequenceStore) -> CluseqOutcome {
        Self::resume_traced(checkpoint, store, &mut NoopObserver, None)
    }

    /// [`Cluseq::resume`] with a telemetry sink and optional live tracing.
    /// The observer receives the run context, then
    /// [`RunObserver::on_resume`], then the checkpoint's stored iteration
    /// records replayed in order, then the live records of the remaining
    /// iterations — the full sequence an uninterrupted observed run would
    /// have delivered. When the [`crate::TraceConfig`] points at the trace
    /// file of the interrupted run, the session continues its JSONL stream
    /// in place — the `resume` event is the marker
    /// [`crate::trace::sink::stitch_iterations`] uses to splice the
    /// iteration history back together.
    pub fn resume_traced(
        checkpoint: Checkpoint,
        store: &dyn SequenceStore,
        observer: &mut dyn RunObserver,
        trace: Option<&TraceSession>,
    ) -> CluseqOutcome {
        assert!(!store.is_empty(), "cannot cluster an empty database");
        if let Err(mismatch) = checkpoint.verify_database(store) {
            panic!("cannot resume: {mismatch}");
        }
        checkpoint.params.validate(store.alphabet().len());
        let runner = Cluseq::new(checkpoint.params.clone());
        let p = &runner.params;

        let mut sink = EventSink { observer, trace };
        let ctx = runner.context(store);
        sink.each(|o| o.on_run_start(&ctx));
        let info = ResumeInfo {
            completed: checkpoint.completed,
            version: Checkpoint::VERSION,
            clusters: checkpoint.clusters.len(),
            log_t: checkpoint.log_t,
        };
        sink.each(|o| o.on_resume(&info));
        {
            // The trace file already holds these iterations, and
            // `stitch_iterations` relies on them not being written again:
            // the replay goes to the caller's observer only.
            let _span = trace.map(|t| t.span(Phase::Resume));
            for record in &checkpoint.records {
                sink.observer.on_iteration(record);
            }
        }

        // The checkpoint's cache columns rebuild the incremental engine's
        // warm state; resuming with a cold cache would also be correct
        // (the cache only elides provably identical evaluations) but
        // would re-pay one full scan. The resumed-from checkpoint is the
        // base for the next delta — it is on disk by construction.
        let cache = if p.incremental {
            SimilarityCache::from_columns(store.len(), checkpoint.cache)
        } else {
            SimilarityCache::new(store.len())
        };
        let ckpt_base = p.incremental.then_some(checkpoint.completed);
        runner.drive(
            store,
            &mut sink,
            LoopState {
                clusters: checkpoint.clusters,
                next_id: checkpoint.next_id,
                log_t: checkpoint.log_t,
                threshold_frozen: checkpoint.threshold_frozen,
                history: checkpoint.history,
                prev_new: checkpoint.prev_new,
                prev_removed: checkpoint.prev_removed,
                prev_cluster_count: checkpoint.prev_cluster_count,
                prev_best: checkpoint.prev_best,
                rng: StdRng::from_state(checkpoint.rng_state),
                start_iteration: checkpoint.completed,
                stable: checkpoint.stable,
                records: checkpoint.records,
                cache,
                ckpt_base,
                changed_since_base: BTreeSet::new(),
            },
        )
    }

    /// The run facts delivered by [`RunObserver::on_run_start`].
    fn context(&self, store: &dyn SequenceStore) -> RunContext {
        let p = &self.params;
        RunContext {
            sequences: store.len(),
            alphabet_size: store.alphabet().len(),
            threads: p.threads,
            scan_mode: p.scan_mode,
            scan_kernel: p.scan_kernel,
            seed: p.seed,
            initial_log_t: p.initial_threshold.ln(),
        }
    }

    /// The iteration loop proper, shared by fresh and resumed runs: seeds,
    /// scans, consolidates, adjusts the threshold, and — when a
    /// [`crate::CheckpointPolicy`] is configured — writes a checkpoint at
    /// every cadence boundary and at the fixpoint.
    fn drive(
        &self,
        store: &dyn SequenceStore,
        sink: &mut EventSink<'_>,
        mut st: LoopState,
    ) -> CluseqOutcome {
        let p = &self.params;
        let trace = sink.trace;
        let run_start = std::time::Instant::now();
        let background = store.background();
        let pst_params = p.pst_params();
        let alphabet_size = store.alphabet().len();
        let n = store.len();
        // The guard digest is the same for every checkpoint of the run.
        let guard_digest = p.checkpoint.as_ref().map(|_| db_digest(store));
        // The paged model cache lives for the whole run: scan automata of
        // clusters whose model did not change survive across iterations
        // up to the byte budget (see `crate::models`). `None` preserves
        // the compile-per-scan behaviour exactly.
        let mut models = p.model_cache_mb.map(ModelCache::with_budget_mb);

        let first = if st.stable {
            p.max_iterations // fixpoint already reached: skip the loop
        } else {
            st.start_iteration
        };
        for iteration in first..p.max_iterations {
            // The iteration span closes at the end of the loop body, so
            // the checkpoint-save span nests under it.
            let _iter_span = trace.map(|t| t.span(Phase::Iteration));
            let iter_start = std::time::Instant::now();
            let clusters_at_start = st.clusters.len();

            // ---- 1. New cluster generation (§4.1) ----
            let seed_span = trace.map(|t| t.span(Phase::Seeding));
            let seed_start = std::time::Instant::now();
            let k_n_target = if iteration == 0 {
                p.initial_clusters
            } else {
                growth_count(st.clusters.len(), st.prev_new, st.prev_removed)
            };
            let unclustered = unclustered_ids(n, &st.clusters);
            let (seeds, seed_metrics) = select_seeds_detailed(
                store,
                &background,
                &st.clusters,
                &unclustered,
                k_n_target,
                p.sample_factor,
                pst_params,
                p.threads,
                p.scan_kernel,
                &mut st.rng,
                trace,
            );
            let k_n = seeds.len();
            if !seeds.is_empty() {
                let mut reader = store.reader();
                for seed in seeds {
                    if p.incremental {
                        st.changed_since_base.insert(st.next_id);
                    }
                    st.clusters.push(Cluster::from_seed(
                        st.next_id,
                        seed,
                        &reader.sequence(seed),
                        alphabet_size,
                        pst_params,
                    ));
                    st.next_id += 1;
                }
            }
            let seeding_nanos = seed_start.elapsed().as_nanos() as u64;
            drop(seed_span);

            // ---- 2. Re-clustering scan (§4.2) ----
            // Records carry their snapshots for an enabled observer *or*
            // for the checkpoint stream — a resumed run must be able to
            // replay them into any observer, so they cannot depend on the
            // original run's observer being enabled. Computed before the
            // scan because it also gates early-exit pruning: a recorded
            // iteration feeds every similarity into its histogram
            // snapshot, so pruning is only allowed once the threshold is
            // frozen *and* nothing is being recorded.
            let record_iteration = sink.enabled() || p.checkpoint.is_some();
            let order = p.order.sequence_order(n, &st.prev_best, &mut st.rng);
            // The histogram feed is read below iff the threshold is still
            // live or the iteration is recorded; the same condition gates
            // early-exit pruning (a pruned pair forfeits its sample) and
            // sample collection (skipping unread samples bounds the scan's
            // O(n·k) buffer on large runs).
            let histogram_live = !st.threshold_frozen || record_iteration;
            let scan = recluster_full(
                store,
                &mut st.clusters,
                st.log_t,
                &order,
                &background,
                ScanOptions {
                    mode: p.scan_mode,
                    rebuild_psts: p.rebuild_psts,
                    threads: p.threads,
                    kernel: p.scan_kernel,
                    prune_below: (!histogram_live).then_some(st.log_t),
                    trace,
                    scan_shard: p.scan_shard,
                    collect_similarities: histogram_live,
                },
                p.incremental.then_some(&mut st.cache),
                models.as_mut(),
            );
            if p.incremental {
                st.changed_since_base.extend(scan.changed_clusters.iter());
            }

            // ---- 3. Consolidation (§4.5) ----
            let consolidate_start = std::time::Instant::now();
            let mut merge_targets = Vec::new();
            let consolidation = {
                let _span = trace.map(|t| t.span(Phase::Consolidate));
                consolidate(
                    &mut st.clusters,
                    p.effective_min_exclusive(),
                    n,
                    p.consolidation,
                    &mut merge_targets,
                )
            };
            let removed = consolidation.dismissed;
            if let Some(mc) = models.as_mut() {
                // Consolidation mutates models outside the scan: a merge
                // target absorbed another cluster's model, so its cached
                // automaton is stale, and dismissed clusters' automata are
                // dead weight against the byte budget.
                for &id in &merge_targets {
                    mc.invalidate(id);
                }
                let live: BTreeSet<usize> = st.clusters.iter().map(|c| c.id).collect();
                mc.retain_live(|id| live.contains(&id));
            }
            if p.incremental {
                // A merge target absorbed another cluster's members: its
                // model changed, so its cached column is stale and its
                // body must travel in the next delta. Columns of dismissed
                // clusters are dropped wholesale.
                for &id in &merge_targets {
                    st.cache.invalidate(id);
                    st.changed_since_base.insert(id);
                }
                let live: BTreeSet<usize> = st.clusters.iter().map(|c| c.id).collect();
                st.cache.retain_live(|id| live.contains(&id));
            }
            let consolidate_nanos = consolidate_start.elapsed().as_nanos() as u64;

            // ---- 4. Threshold adjustment (§4.6) ----
            let threshold_span = trace.map(|t| t.span(Phase::Threshold));
            let threshold_start = std::time::Instant::now();
            let log_t_before = st.log_t;
            let mut moved = false;
            let mut valley = None;
            // The histogram is needed for adjustment while it is live, and
            // for the record (an observer sees every iteration's
            // distribution, frozen or not).
            let hist = if histogram_live {
                build_histogram(&scan.similarities, p.histogram_buckets)
            } else {
                None
            };
            if !st.threshold_frozen {
                if let Some(hist) = &hist {
                    let decision = decide_threshold(st.log_t, hist, 0.01);
                    valley = decision.valley;
                    // The paper requires t >= 1 for a meaningful
                    // outlier separation; clamp the log to 0.
                    st.log_t = decision.log_t.max(0.0);
                    moved = decision.moved;
                    if !decision.moved {
                        st.threshold_frozen = true; // within 1%: stop adjusting
                    }
                }
            }
            let threshold_nanos = threshold_start.elapsed().as_nanos() as u64;
            drop(threshold_span);

            let phase_nanos = PhaseNanos {
                seeding: seeding_nanos,
                scan_score: scan.score_nanos,
                scan_absorb: scan.absorb_nanos,
                consolidate: consolidate_nanos,
                threshold: threshold_nanos,
                total: iter_start.elapsed().as_nanos() as u64,
            };
            let record = IterationRecord {
                iteration,
                clusters_at_start,
                seeding: seed_metrics,
                scan: scan.metrics,
                removed_clusters: removed,
                merged_clusters: consolidation.merged,
                clusters_at_end: st.clusters.len(),
                histogram: hist
                    .as_ref()
                    .filter(|_| record_iteration)
                    .map(HistogramSnapshot::capture),
                valley,
                log_t_before,
                log_t_after: st.log_t,
                threshold_moved: moved,
                clusters: if record_iteration {
                    cluster_snapshots(&st.clusters, n)
                } else {
                    Vec::new()
                },
                timings: phase_nanos,
            };
            st.history.push(record.stats());
            // A traced iteration is written and fsynced here, *before* any
            // checkpoint write, so the trace on disk always covers at
            // least as many iterations as any checkpoint.
            sink.each(|o| o.on_iteration(&record));
            if p.checkpoint.is_some() {
                st.records.push(record);
            }

            // ---- Termination (§4): the clustering is a fixpoint ----
            // A fixpoint requires the threshold to have settled too: if t
            // just moved, the next scan can expel members and re-open the
            // seed pool, so the clustering is not final yet.
            let stable = iteration > 0
                && st.clusters.len() == st.prev_cluster_count
                && scan.changes == 0
                && k_n == removed // the only activity was churn consolidation undid
                && !moved;

            st.prev_new = k_n;
            st.prev_removed = removed;
            st.prev_cluster_count = st.clusters.len();
            st.prev_best = scan.best_cluster;

            // ---- Checkpoint (crash safety; see `crate::checkpoint`) ----
            // Written after the state advance so the file captures exactly
            // the boundary a resume continues from; the fixpoint always
            // gets a final checkpoint regardless of cadence. Writes are
            // best-effort durability: an I/O failure is reported through
            // the event and the run continues unharmed.
            if let Some(policy) = &p.checkpoint {
                let completed = iteration + 1;
                if completed % policy.every == 0 || stable {
                    let ckpt = Checkpoint {
                        params: p.clone(),
                        db_sequences: n,
                        db_alphabet: alphabet_size,
                        db_digest: guard_digest.expect("digest computed when policy set"),
                        store: store.kind(),
                        completed,
                        stable,
                        next_id: st.next_id,
                        log_t: st.log_t,
                        threshold_frozen: st.threshold_frozen,
                        rng_state: st.rng.state(),
                        prev_new: st.prev_new,
                        prev_removed: st.prev_removed,
                        prev_cluster_count: st.prev_cluster_count,
                        prev_best: st.prev_best.clone(),
                        history: st.history.clone(),
                        clusters: st.clusters.clone(),
                        records: st.records.clone(),
                        cache: st
                            .cache
                            .columns()
                            .map(|(id, col)| (id, col.to_vec()))
                            .collect(),
                    };
                    let path = policy.path_for(completed);
                    let write_start = std::time::Instant::now();
                    // With the incremental engine on and a base on disk,
                    // write a delta: unchanged cluster bodies become
                    // id-only references into the base chain. A failed
                    // write keeps the old base and its changed-set, so
                    // the next attempt still references a file that
                    // exists.
                    let result = {
                        let _span = trace.map(|t| t.span(Phase::CheckpointSave));
                        match st.ckpt_base.filter(|_| p.incremental) {
                            Some(base) => {
                                ckpt.write_atomic_delta(&path, base, &st.changed_since_base)
                            }
                            None => ckpt.write_atomic(&path),
                        }
                    };
                    let write_nanos = write_start.elapsed().as_nanos() as u64;
                    let bytes = result.as_ref().copied().unwrap_or(0);
                    if result.is_ok() && p.incremental {
                        st.ckpt_base = Some(completed);
                        st.changed_since_base.clear();
                    }
                    let event = CheckpointEvent {
                        completed,
                        path: path.to_string_lossy().into_owned(),
                        bytes,
                        write_nanos,
                        error: result.err().map(|e| e.to_string()),
                    };
                    sink.each(|o| o.on_checkpoint(&event));
                }
            }

            if stable {
                break;
            }
        }

        let finalize_start = std::time::Instant::now();
        drop(models); // nothing below scans against cached automata
        let (outcome, pairs_pruned) =
            self.finalize(store, st.clusters, st.log_t, st.history, trace);
        let summary = RunSummary {
            iterations: outcome.iterations,
            clusters: outcome.cluster_count(),
            outliers: outcome.outliers.len(),
            final_log_t: outcome.final_log_t,
            pairs_pruned,
            finalize_nanos: finalize_start.elapsed().as_nanos() as u64,
            total_nanos: run_start.elapsed().as_nanos() as u64,
        };
        sink.each(|o| o.on_run_end(&summary));
        outcome
    }

    /// Final assignment pass: score every sequence against the surviving
    /// clusters so the reported memberships reflect the *final* models and
    /// threshold (intermediate memberships can reference clusters that were
    /// later consolidated away). Returns the outcome and the number of
    /// (sequence, cluster) pairs the compiled kernel's early-exit bound
    /// skipped — always 0 under [`ScanKernel::Interpreted`]. Pruning here
    /// needs no gating: a pruned pair is provably below the threshold, so
    /// memberships, best clusters, and outliers are unaffected.
    fn finalize(
        &self,
        store: &dyn SequenceStore,
        mut clusters: Vec<Cluster>,
        log_t: f64,
        history: Vec<IterationStats>,
        trace: Option<&TraceSession>,
    ) -> (CluseqOutcome, u64) {
        let _span = trace.map(|t| t.span(Phase::Finalize));
        let background = store.background();
        let n = store.len();
        let mut best_cluster = vec![None::<usize>; n];
        let mut best_score = vec![f64::NEG_INFINITY; n];
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); clusters.len()];

        let automata: Option<Vec<ClusterAutomaton>> =
            self.params.scan_kernel.uses_automaton().then(|| {
                parallel_map(clusters.len(), self.params.threads, |slot| {
                    ClusterAutomaton::build(
                        &clusters[slot].pst,
                        &background,
                        self.params.scan_kernel,
                    )
                    .expect("automaton-backed kernel")
                })
            });

        // Scoring is read-only and embarrassingly parallel over sequences;
        // results are bit-identical for any thread count (see
        // [`crate::score`]).
        let chunk = plan_chunk(n, self.params.threads);
        let joins_per_seq: Vec<(Vec<(usize, f64)>, u64)> = parallel_map_with(
            n,
            self.params.threads,
            || store.reader(),
            |reader, seq_id| {
                let seq = reader.symbols(seq_id);
                let mut joins = Vec::new();
                let mut pruned = 0u64;
                match &automata {
                    Some(automata) => {
                        for (slot, automaton) in automata.iter().enumerate() {
                            match automaton.scan_bounded(seq, log_t) {
                                BoundedSimilarity::Exact(sim) => {
                                    if sim.log_sim >= log_t && !seq.is_empty() {
                                        joins.push((slot, sim.log_sim));
                                    }
                                }
                                BoundedSimilarity::Pruned => pruned += 1,
                            }
                        }
                    }
                    None => {
                        for (slot, cluster) in clusters.iter().enumerate() {
                            let sim = max_similarity_pst(&cluster.pst, &background, seq);
                            if sim.log_sim >= log_t && !seq.is_empty() {
                                joins.push((slot, sim.log_sim));
                            }
                        }
                    }
                }
                if let Some(t) = trace {
                    let shard = trace::shard_for(seq_id, chunk);
                    t.add_at(shard, Counter::PairsScored, clusters.len() as u64);
                    t.add_at(shard, Counter::PairsPruned, pruned);
                }
                (joins, pruned)
            },
        );
        let mut pairs_pruned = 0u64;
        for (seq_id, (joins, pruned)) in joins_per_seq.into_iter().enumerate() {
            pairs_pruned += pruned;
            for (slot, log_sim) in joins {
                members[slot].push(seq_id);
                if log_sim > best_score[seq_id] {
                    best_score[seq_id] = log_sim;
                    best_cluster[seq_id] = Some(slot);
                }
            }
        }
        for m in &mut members {
            m.sort_unstable();
        }
        for (cluster, m) in clusters.iter_mut().zip(members) {
            cluster.members = m;
        }
        let outliers: Vec<usize> = (0..n).filter(|&i| best_cluster[i].is_none()).collect();

        let outcome = CluseqOutcome {
            clusters,
            best_cluster,
            outliers,
            final_log_t: log_t,
            iterations: history.len(),
            history,
            background,
        };
        (outcome, pairs_pruned)
    }
}

/// The paper's growth rule: `k_n = k' · f` with
/// `f = max(k'_n − k'_c, 0) / k'_c`, clamped to `[0, 1]`; when nothing was
/// consolidated (`k'_c = 0`), `f = 1` (unchecked exponential growth phase).
fn growth_count(current_clusters: usize, prev_new: usize, prev_removed: usize) -> usize {
    let f = if prev_removed == 0 {
        1.0
    } else {
        (prev_new.saturating_sub(prev_removed)) as f64 / prev_removed as f64
    };
    let f = f.clamp(0.0, 1.0);
    (current_clusters as f64 * f).round() as usize
}

/// The driver's one event sink: each run event goes to the caller's
/// observer and, when tracing, to the trace session, which observes the
/// same events.
struct EventSink<'a> {
    observer: &'a mut dyn RunObserver,
    trace: Option<&'a TraceSession>,
}

impl EventSink<'_> {
    /// Whether any observer wants full records (see
    /// [`RunObserver::enabled`]). The session never does, so tracing
    /// alone leaves scan pruning on.
    fn enabled(&self) -> bool {
        self.observer.enabled() || self.trace.is_some_and(|t| t.enabled())
    }

    /// Delivers one event to the observer, then to the session.
    fn each(&mut self, mut deliver: impl FnMut(&mut dyn RunObserver)) {
        deliver(&mut *self.observer);
        if let Some(mut session) = self.trace {
            deliver(&mut session);
        }
    }
}

/// Each surviving cluster's shape at the end of an iteration, in slot
/// order.
fn cluster_snapshots(clusters: &[Cluster], n: usize) -> Vec<ClusterSnapshot> {
    let exclusive = exclusive_member_counts(clusters, n);
    clusters
        .iter()
        .zip(&exclusive)
        .map(|(c, &ex)| {
            let f = c.pst.footprint();
            ClusterSnapshot {
                id: c.id,
                members: c.size(),
                exclusive_members: ex,
                pst_nodes: f.nodes,
                pst_bytes: f.bytes,
                pst_total_count: f.total_count,
            }
        })
        .collect()
}

fn unclustered_ids(n: usize, clusters: &[Cluster]) -> Vec<usize> {
    let mut clustered = vec![false; n];
    for c in clusters {
        for &m in &c.members {
            clustered[m] = true;
        }
    }
    (0..n).filter(|&i| !clustered[i]).collect()
}

/// Builds the §4.6 similarity histogram over the full observed range, as
/// the paper specifies ("the granularity of the histogram is 1/n of the
/// domain"). Robust-clipping variants (drop values past a percentile or a
/// Tukey fence before bucketing) were evaluated and made the valley
/// detection *less* stable across workloads — the long member tail is
/// precisely what anchors the right-hand regression line's low slope.
fn build_histogram(sims: &[f64], buckets: usize) -> Option<Histogram> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &s in sims {
        lo = lo.min(s);
        hi = hi.max(s);
    }
    if !lo.is_finite() || !hi.is_finite() || hi - lo < 1e-9 {
        return None;
    }
    let mut h = Histogram::new(lo, hi, buckets);
    for &s in sims {
        h.add(s);
    }
    Some(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CluseqParams;
    use crate::order::ExaminationOrder;
    use cluseq_seq::SequenceDatabase;

    /// A small two-behaviour database with a couple of noise sequences.
    fn two_cluster_db() -> SequenceDatabase {
        let mut texts: Vec<String> = Vec::new();
        for i in 0..20 {
            let _ = i;
            texts.push("abababababababababababab".into());
            texts.push("ccacacaccacacaccacacacca".into());
        }
        // Outliers: alternating junk unlike either behaviour.
        texts.push("bcabcabacbacbabcbacbcab".into());
        texts.push("cbacbabcacbabcacbabcbca".into());
        SequenceDatabase::from_strs(texts.iter().map(|s| s.as_str()))
    }

    fn base_params() -> CluseqParams {
        CluseqParams::default()
            .with_significance(3)
            .with_max_depth(8)
            .with_seed(13)
    }

    #[test]
    fn recovers_two_planted_clusters() {
        let db = two_cluster_db();
        let outcome = Cluseq::new(base_params().with_initial_clusters(2)).run(&db);
        assert!(
            outcome.cluster_count() >= 2,
            "found {} clusters",
            outcome.cluster_count()
        );
        // The two big groups end up in different best clusters.
        let a = outcome.best_cluster[0];
        let c = outcome.best_cluster[1];
        assert!(a.is_some() && c.is_some());
        assert_ne!(a, c, "ab-repeats and ca-repeats must separate");
    }

    #[test]
    fn adapts_cluster_count_from_a_single_seed() {
        // The paper's headline claim: k = 1 still finds all clusters.
        let db = two_cluster_db();
        let outcome = Cluseq::new(base_params().with_initial_clusters(1)).run(&db);
        assert!(outcome.cluster_count() >= 2);
        assert_ne!(outcome.best_cluster[0], outcome.best_cluster[1]);
    }

    #[test]
    fn terminates_before_the_cap_on_stable_data() {
        let db = two_cluster_db();
        let outcome = Cluseq::new(base_params().with_initial_clusters(2)).run(&db);
        assert!(
            outcome.iterations < outcome.history.capacity().max(50),
            "should reach a fixpoint"
        );
        let last = outcome.history.last().unwrap();
        assert_eq!(last.membership_changes, 0, "fixpoint reached");
    }

    #[test]
    fn memberships_and_outliers_partition_consistently() {
        let db = two_cluster_db();
        let outcome = Cluseq::new(base_params()).run(&db);
        let in_any: std::collections::HashSet<usize> =
            outcome.membership_lists().into_iter().flatten().collect();
        for i in 0..db.len() {
            let clustered = in_any.contains(&i);
            let is_outlier = outcome.outliers.contains(&i);
            assert!(clustered != is_outlier, "sequence {i} must be exactly one");
            assert_eq!(outcome.best_cluster[i].is_some(), clustered);
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let db = two_cluster_db();
        let a = Cluseq::new(base_params()).run(&db);
        let b = Cluseq::new(base_params()).run(&db);
        assert_eq!(a.cluster_count(), b.cluster_count());
        assert_eq!(a.best_cluster, b.best_cluster);
        assert_eq!(a.final_log_t, b.final_log_t);
    }

    #[test]
    fn random_order_also_converges() {
        let db = two_cluster_db();
        let params = base_params().with_order(ExaminationOrder::Random);
        let outcome = Cluseq::new(params).run(&db);
        assert!(outcome.cluster_count() >= 2);
    }

    #[test]
    fn growth_count_follows_the_paper() {
        // Nothing consolidated => f = 1 => double the cluster count.
        assert_eq!(growth_count(4, 4, 0), 4);
        // Everything new was consolidated => f = 0 => no new clusters.
        assert_eq!(growth_count(10, 3, 3), 0);
        assert_eq!(growth_count(10, 2, 5), 0);
        // Half survived => f = (4-2)/2 = 1 (clamped).
        assert_eq!(growth_count(6, 4, 2), 6);
        // f = (3-2)/2 = 0.5 => half of k'.
        assert_eq!(growth_count(8, 3, 2), 4);
    }

    #[test]
    fn histogram_of_constant_sims_is_none() {
        assert!(build_histogram(&[1.0, 1.0, 1.0], 10).is_none());
        assert!(build_histogram(&[], 10).is_none());
        assert!(build_histogram(&[0.5, 2.5], 10).is_some());
    }

    #[test]
    #[should_panic(expected = "empty database")]
    fn empty_database_is_rejected() {
        let db = SequenceDatabase::from_strs(std::iter::empty::<&str>());
        Cluseq::new(CluseqParams::default()).run(&db);
    }

    #[test]
    fn history_records_every_iteration() {
        let db = two_cluster_db();
        let outcome = Cluseq::new(base_params()).run(&db);
        assert_eq!(outcome.history.len(), outcome.iterations);
        for (i, h) in outcome.history.iter().enumerate() {
            assert_eq!(h.iteration, i);
        }
    }

    #[test]
    fn observed_run_matches_plain_run_and_records_every_iteration() {
        use crate::telemetry::RunReport;
        let db = two_cluster_db();
        let plain = Cluseq::new(base_params()).run(&db);
        let mut report = RunReport::new();
        let observed = Cluseq::new(base_params()).run_traced(&db, &mut report, None);

        // Observation must not perturb the clustering.
        assert_eq!(plain.best_cluster, observed.best_cluster);
        assert_eq!(plain.final_log_t.to_bits(), observed.final_log_t.to_bits());
        assert_eq!(plain.history, observed.history);

        // One record per iteration, consistent with the history.
        assert_eq!(report.iterations.len(), observed.iterations);
        for (record, stats) in report.iterations.iter().zip(&observed.history) {
            assert_eq!(&record.stats(), stats);
            assert_eq!(
                record.clusters_at_start + record.seeding.chosen - record.removed_clusters,
                record.clusters_at_end,
                "cluster lifecycle must balance"
            );
            assert_eq!(record.scan.pairs_scored, {
                let scored_against = record.clusters_at_start + record.seeding.chosen;
                (db.len() * scored_against) as u64
            });
            assert!(record.histogram.is_some(), "live threshold => histogram");
        }
        let ctx = report.context.expect("context recorded");
        assert_eq!(ctx.sequences, db.len());
        let summary = report.summary.expect("summary recorded");
        assert_eq!(summary.iterations, observed.iterations);
        assert_eq!(summary.clusters, observed.cluster_count());
        assert_eq!(summary.outliers, observed.outliers.len());
        assert_eq!(
            summary.final_log_t.to_bits(),
            observed.final_log_t.to_bits()
        );
    }

    #[test]
    fn thread_count_does_not_change_results() {
        use crate::config::ScanMode;
        let db = two_cluster_db();
        for mode in [ScanMode::Incremental, ScanMode::Snapshot] {
            let serial = Cluseq::new(base_params().with_scan_mode(mode)).run(&db);
            let parallel = Cluseq::new(base_params().with_scan_mode(mode).with_threads(4)).run(&db);
            assert_eq!(serial.cluster_count(), parallel.cluster_count(), "{mode:?}");
            assert_eq!(serial.best_cluster, parallel.best_cluster, "{mode:?}");
            assert_eq!(
                serial.membership_lists(),
                parallel.membership_lists(),
                "{mode:?}"
            );
            assert_eq!(
                serial.final_log_t.to_bits(),
                parallel.final_log_t.to_bits(),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn snapshot_scan_mode_also_converges() {
        use crate::config::ScanMode;
        let db = two_cluster_db();
        let outcome = Cluseq::new(
            base_params()
                .with_initial_clusters(2)
                .with_scan_mode(ScanMode::Snapshot),
        )
        .run(&db);
        assert!(outcome.cluster_count() >= 2);
        assert_ne!(outcome.best_cluster[0], outcome.best_cluster[1]);
        assert_eq!(outcome.history.last().unwrap().membership_changes, 0);
    }

    #[test]
    fn threshold_adjustment_can_be_disabled() {
        let db = two_cluster_db();
        let params = base_params()
            .with_initial_threshold(1.5)
            .with_threshold_adjustment(false);
        let outcome = Cluseq::new(params).run(&db);
        assert!((outcome.final_t() - 1.5).abs() < 1e-9);
    }
}
