//! The per-iteration sequence scan (paper §4.2).
//!
//! Every sequence is examined against every cluster; it joins each cluster
//! whose similarity reaches the threshold, and for each *new* join the
//! similarity-maximizing segment is inserted into that cluster's PST. The
//! similarities of all sequence–cluster combinations are collected for the
//! threshold-adjustment histogram (the paper notes they "need to be
//! calculated anyway").
//!
//! Two scan modes are supported (see [`ScanMode`]). The paper's
//! [`ScanMode::Incremental`] rule absorbs each new join's segment
//! mid-scan, so later scores observe the updated models — inherently
//! serial. [`ScanMode::Snapshot`] splits the scan into a *score phase*
//! (every pair evaluated against the models as of the start of the
//! iteration, parallelized by [`crate::score`]) and a sequential *absorb
//! phase* that applies the same membership and model updates in
//! examination order. Snapshot results are bit-identical for any thread
//! count.
//!
//! # Out-of-core sharding
//!
//! The snapshot scan's verdict matrix is `order.len() × clusters.len()`
//! rows — the memory bottleneck at 10⁷ sequences. With
//! [`ScanOptions::scan_shard`] the scan splits the examination order into
//! fixed contiguous position ranges and runs score-then-absorb per shard,
//! bounding the resident matrix to `shard × clusters.len()`. Every shard
//! scores against the *iteration-start* models (automata are frozen
//! before the first shard; the interpreted kernel freezes PST clones), so
//! shard boundaries are invisible: the absorb order is the examination
//! order regardless of shard size, and results are bit-identical to the
//! single-shard scan — `tests/out_of_core.rs` enforces this across store
//! × kernel × threads × shard.

use std::sync::Arc;

use cluseq_seq::{BackgroundModel, SequenceStore};

use crate::cluster::Cluster;
use crate::config::{ScanKernel, ScanMode};
use crate::incremental::{ColumnBuilder, SimilarityCache};
use crate::kernel::ClusterAutomaton;
use crate::models::ModelCache;
use crate::score::ScoreEngine;
use crate::similarity::{max_similarity_pst_with_scratch, BoundedSimilarity, LogSim};
use crate::telemetry::ScanMetrics;
use crate::trace::{Counter, Phase, TraceSession};

/// Options controlling one re-clustering scan.
#[derive(Debug, Clone, Copy)]
pub struct ScanOptions<'a> {
    /// Score against evolving models (the paper) or an iteration-start
    /// snapshot (parallel variant).
    pub mode: ScanMode,
    /// Rebuild every cluster's PST from scratch at the end of the scan
    /// from all current members' maximizing segments (an ablation variant;
    /// the paper only ever inserts incrementally).
    pub rebuild_psts: bool,
    /// Worker threads for the snapshot score phase (ignored by the
    /// incremental mode, whose scoring is order-dependent).
    pub threads: usize,
    /// Which similarity-DP implementation scores each pair. The kernels
    /// are bit-identical (see [`ScanKernel`]); the compiled kernel
    /// additionally honours `prune_below`.
    pub kernel: ScanKernel,
    /// With an automaton kernel (any but [`ScanKernel::Interpreted`]),
    /// abandon a pair early once it provably cannot reach this
    /// log-threshold. Pruning forfeits the pair's similarity sample, so
    /// the caller must only set this when the histogram feed is not
    /// consumed (threshold frozen, no records kept); a pruned pair is
    /// always a non-join, so memberships and models are unaffected.
    /// Ignored by the interpreted kernel. Interpreted pairs never prune,
    /// including the pairs an incremental scan scores with the interpreted
    /// scanner after their slot's model mutated mid-scan.
    pub prune_below: Option<f64>,
    /// Live tracing session. When set, the scan opens `scan_score` /
    /// `scan_absorb` spans and records its [`ScanMetrics`] into the
    /// registry — snapshot workers write `pairs_scored`/`pairs_pruned`
    /// into their own shards as they go, everything else merges at the
    /// end-of-scan barrier. The scan's outputs are identical either way.
    pub trace: Option<&'a TraceSession>,
    /// Split the snapshot scan into fixed shards of this many examination
    /// positions, bounding the resident verdict matrix (see the
    /// [module docs](self)). `None` (or a size ≥ the order length) scans
    /// in one shard. Ignored by [`ScanMode::Incremental`] (already O(1)
    /// resident) and by scans driven through a [`SimilarityCache`] (the
    /// cache is O(n·k) resident, so sharding would bound nothing).
    pub scan_shard: Option<usize>,
    /// Collect the per-pair similarity samples that feed the §4.6
    /// threshold histogram (`true`, the default). The driver sets this to
    /// `false` once the threshold is frozen and no iteration record is
    /// kept — nothing reads the samples then, and skipping them bounds
    /// the scan's O(n·k) sample buffer. Memberships, models, and
    /// `best_cluster` are unaffected.
    pub collect_similarities: bool,
}

impl Default for ScanOptions<'_> {
    fn default() -> Self {
        Self {
            mode: ScanMode::Incremental,
            rebuild_psts: false,
            threads: 1,
            kernel: ScanKernel::default(),
            prune_below: None,
            trace: None,
            scan_shard: None,
            collect_similarities: true,
        }
    }
}

/// The result of one re-clustering scan.
#[derive(Debug)]
pub struct ReclusterOutcome {
    /// All finite sequence–cluster log-similarities observed in the scan
    /// (feed for the §4.6 histogram).
    pub similarities: Vec<LogSim>,
    /// Number of (sequence, cluster) membership flips relative to the
    /// memberships at the start of the scan.
    pub changes: usize,
    /// For each sequence, the cluster *slot* (index into the `clusters`
    /// argument) with the highest similarity among those it joined.
    pub best_cluster: Vec<Option<usize>>,
    /// Scan activity counters (deterministic; `metrics.membership_changes`
    /// equals `changes`).
    pub metrics: ScanMetrics,
    /// Wall time of the score work, nanoseconds. Under
    /// [`ScanMode::Incremental`] this covers the whole interleaved scan
    /// (scoring and model updates are inseparable there).
    pub score_nanos: u64,
    /// Wall time of the snapshot absorb phase, nanoseconds (0 under
    /// [`ScanMode::Incremental`]).
    pub absorb_nanos: u64,
    /// Ids of clusters whose membership or model changed during the scan
    /// (every live cluster under `rebuild_psts`). The driver uses this to
    /// delta-encode checkpoints; always computed, cheap either way.
    pub changed_clusters: Vec<usize>,
}

/// Bookkeeping shared by both scan modes: member lists being rebuilt,
/// per-sequence best cluster, histogram feed, and the join records the
/// rebuild ablation replays at the end.
struct ScanState {
    log_t: f64,
    rebuild_psts: bool,
    /// Whether finite similarities are pushed into `similarities`.
    collect: bool,
    similarities: Vec<LogSim>,
    best_cluster: Vec<Option<usize>>,
    best_score: Vec<f64>,
    old_members: Vec<Vec<usize>>,
    new_members: Vec<Vec<usize>>,
    join_segments: Vec<Vec<(usize, usize, usize)>>,
    /// Per slot: whether the cluster's model was mutated during this scan.
    mutated: Vec<bool>,
    metrics: ScanMetrics,
}

impl ScanState {
    fn new(n: usize, clusters: &[Cluster], log_t: f64, rebuild_psts: bool, collect: bool) -> Self {
        Self {
            log_t,
            rebuild_psts,
            collect,
            similarities: Vec::with_capacity(if collect { n * clusters.len() } else { 0 }),
            best_cluster: vec![None; n],
            best_score: vec![f64::NEG_INFINITY; n],
            old_members: clusters.iter().map(|c| c.members.clone()).collect(),
            new_members: vec![Vec::new(); clusters.len()],
            join_segments: vec![Vec::new(); clusters.len()],
            mutated: vec![false; clusters.len()],
            metrics: ScanMetrics::default(),
        }
    }

    /// Applies one (sequence, cluster) score: records the similarity,
    /// membership, and — for a *new* join under the incremental rule —
    /// feeds the maximizing segment to the model. Shared verbatim by both
    /// modes so they cannot drift apart in bookkeeping.
    ///
    /// A [`BoundedSimilarity::Pruned`] verdict (compiled kernel, early
    /// exit) is a proven non-join: it counts in `pairs_scored` and
    /// `pairs_pruned` and touches nothing else — in particular it yields
    /// no histogram sample, which is why pruning is only enabled when the
    /// histogram feed goes unread.
    ///
    /// `reused` says the verdict came from the incremental cache instead
    /// of a fresh evaluation: the pair then counts in `pairs_reused`
    /// rather than `pairs_scored`/`pairs_pruned`. All join, membership,
    /// and model bookkeeping is identical — a cached verdict is by
    /// construction the value a fresh evaluation would have produced.
    ///
    /// Returns whether the cluster's model was mutated (so a compiled
    /// caller knows its automaton for this slot is stale).
    fn apply(
        &mut self,
        seq_id: usize,
        slot: usize,
        verdict: BoundedSimilarity,
        seq: &[cluseq_seq::Symbol],
        cluster: &mut Cluster,
        reused: bool,
    ) -> bool {
        if reused {
            self.metrics.pairs_reused += 1;
        } else {
            self.metrics.pairs_scored += 1;
        }
        let sim = match verdict {
            BoundedSimilarity::Exact(sim) => sim,
            BoundedSimilarity::Pruned => {
                if !reused {
                    self.metrics.pairs_pruned += 1;
                }
                return false;
            }
        };
        if self.collect && sim.log_sim.is_finite() {
            self.similarities.push(sim.log_sim);
        }
        let mut mutated = false;
        if sim.log_sim >= self.log_t && !seq.is_empty() {
            self.metrics.joins += 1;
            self.new_members[slot].push(seq_id);
            if sim.log_sim > self.best_score[seq_id] {
                self.best_score[seq_id] = sim.log_sim;
                self.best_cluster[seq_id] = Some(slot);
            }
            let was_member = self.old_members[slot].binary_search(&seq_id).is_ok();
            if !was_member {
                self.metrics.new_joins += 1;
            }
            if self.rebuild_psts {
                self.join_segments[slot].push((seq_id, sim.start, sim.end));
            } else if !was_member {
                // New join: feed the maximizing segment to the model
                // (immediately under the incremental rule; in the absorb
                // phase under snapshot).
                cluster.absorb_segment(&seq[sim.start..sim.end]);
                mutated = true;
                self.mutated[slot] = true;
            }
        }
        mutated
    }
}

/// Per-scan reuse bookkeeping for the serial (incremental-mode) scan: a
/// snapshot of each slot's valid column, plus the fresh columns being
/// accumulated for slots that had none.
///
/// A slot's column stops being reused at the slot's first model mutation
/// this scan (the cached values no longer match the evolving model); a
/// fresh column under construction is poisoned by any mutation of its
/// slot, because entries recorded before the mutation were computed
/// against a model that no longer exists.
struct SerialReuse {
    cols: Vec<Option<Vec<BoundedSimilarity>>>,
    builders: Vec<Option<ColumnBuilder>>,
    dirty_at_start: u64,
}

impl SerialReuse {
    fn new(cache: &SimilarityCache, clusters: &[Cluster], n: usize) -> Self {
        let cols: Vec<Option<Vec<BoundedSimilarity>>> = clusters
            .iter()
            .map(|c| cache.column(c.id).map(<[_]>::to_vec))
            .collect();
        let builders = cols
            .iter()
            .map(|col| col.is_none().then(|| ColumnBuilder::new(n)))
            .collect();
        let dirty_at_start = cols.iter().filter(|col| col.is_none()).count() as u64;
        Self {
            cols,
            builders,
            dirty_at_start,
        }
    }

    /// The reusable verdict for this pair, if the slot's column is still
    /// valid at this point of the scan.
    fn lookup(&self, slot: usize, seq_id: usize) -> Option<BoundedSimilarity> {
        self.cols[slot].as_ref().map(|col| col[seq_id])
    }

    /// Bookkeeping after one pair: record fresh verdicts into the slot's
    /// column under construction, and react to a model mutation by
    /// stopping reuse and poisoning the builder.
    fn after_pair(
        &mut self,
        slot: usize,
        seq_id: usize,
        verdict: BoundedSimilarity,
        reused: bool,
        mutated: bool,
    ) {
        if !reused {
            if let Some(builder) = self.builders[slot].as_mut() {
                builder.record(seq_id, verdict);
            }
        }
        if mutated {
            self.cols[slot] = None;
            if let Some(builder) = self.builders[slot].as_mut() {
                builder.poison();
            }
        }
    }

    /// Writes the scan's outcome back to the cache: mutated slots lose
    /// their columns, dirty slots that stayed constant gain the column
    /// just scored.
    fn commit(self, cache: &mut SimilarityCache, clusters: &[Cluster], mutated: &[bool]) {
        for (slot, builder) in self.builders.into_iter().enumerate() {
            let id = clusters[slot].id;
            if mutated[slot] {
                cache.invalidate(id);
            } else if let Some(col) = builder.and_then(ColumnBuilder::finish) {
                cache.install(id, col);
            }
        }
    }
}

/// Scans sequences in `order`, rebuilding every cluster's member list and
/// updating cluster models with the maximizing segments of new joins.
pub fn recluster(
    store: &dyn SequenceStore,
    clusters: &mut [Cluster],
    log_t: f64,
    order: &[usize],
    background: &BackgroundModel,
    options: ScanOptions<'_>,
) -> ReclusterOutcome {
    recluster_full(
        store, clusters, log_t, order, background, options, None, None,
    )
}

/// [`recluster`] with an optional incremental similarity cache (see
/// [`crate::incremental`]).
///
/// With `cache = None` this *is* [`recluster`]. With a cache, pairs whose
/// cluster has a valid column are answered from it instead of being
/// re-scored, and the cache is updated in place to reflect the scan:
/// clusters whose model mutated lose their column, clusters scored fresh
/// whose model stayed constant gain one. Every clustering observable —
/// similarities, joins, memberships, models, `best_cluster` — is
/// bit-identical with or without the cache; only the work skipped (and the
/// `pairs_reused` / `clusters_dirty` / `pst_recompiles` metrics) changes.
///
/// `order` must visit every store sequence (it always does in the
/// driver); a partial order would leave fresh columns incomplete, which is
/// detected and the column simply not cached.
#[allow(clippy::too_many_arguments)]
pub fn recluster_cached(
    store: &dyn SequenceStore,
    clusters: &mut [Cluster],
    log_t: f64,
    order: &[usize],
    background: &BackgroundModel,
    options: ScanOptions<'_>,
    cache: Option<&mut SimilarityCache>,
) -> ReclusterOutcome {
    recluster_full(
        store, clusters, log_t, order, background, options, cache, None,
    )
}

/// [`recluster_cached`] with an optional paged model cache (see
/// [`crate::models`]).
///
/// With a [`ModelCache`], the automaton-backed kernels fetch each
/// cluster's scan automaton through the cache instead of compiling every
/// automaton every scan: untouched clusters reuse the retained build,
/// mutated clusters are invalidated here (the scan knows exactly which
/// models it changed), and the cache's byte budget bounds what survives
/// between iterations. Because automaton builds are pure, every clustering
/// observable is bit-identical with or without the cache. Under
/// [`ScanMode::Snapshot`] with a [`SimilarityCache`], the model cache is
/// unused (dirty-slot automata are built inside the cached score pass).
#[allow(clippy::too_many_arguments)]
pub fn recluster_full(
    store: &dyn SequenceStore,
    clusters: &mut [Cluster],
    log_t: f64,
    order: &[usize],
    background: &BackgroundModel,
    options: ScanOptions<'_>,
    mut cache: Option<&mut SimilarityCache>,
    mut models: Option<&mut ModelCache>,
) -> ReclusterOutcome {
    let n = store.len();
    let mut state = ScanState::new(
        n,
        clusters,
        log_t,
        options.rebuild_psts,
        options.collect_similarities,
    );
    let mut score_nanos: u64 = 0;
    let mut absorb_nanos = 0u64;

    // The rebuild ablation replaces every model at the end of the scan, so
    // nothing cached can survive and nothing fresh is worth caching.
    if options.rebuild_psts {
        if let Some(cache) = cache.as_deref_mut() {
            cache.clear();
        }
        cache = None;
    }

    // Only an automaton kernel can prove a pair hopeless mid-scan.
    let prune_below = if options.kernel.uses_automaton() {
        options.prune_below
    } else {
        None
    };

    match (options.mode, options.kernel) {
        (ScanMode::Incremental, kernel) => {
            // The incremental rule mutates a cluster's model mid-scan on
            // every new join. Scoring and model updates interleave, so the
            // whole scan is attributed to the score phase (absorb stays 0).
            //
            // An automaton kernel builds each slot's automaton lazily, at
            // most once per scan: once a slot's model has mutated, the
            // slot is scored for the rest of the scan with the interpreted
            // context scanner, which is bit-identical to the automaton
            // (`tests/kernel_equivalence.rs`) and needs no build. The next
            // scan compiles the mutated model once. Interpreted pairs
            // never prune. With a cache, a clean slot's automaton is never
            // built at all — reuse needs no automaton — so a converged
            // scan compiles nothing.
            //
            // Sequences are scanned one at a time here: the mid-scan
            // mutations forbid handing lane groups to the lane driver.
            let _span = options.trace.map(|t| t.span(Phase::ScanScore));
            let start = std::time::Instant::now();
            let mut reuse = cache
                .as_deref()
                .map(|cache| SerialReuse::new(cache, clusters, n));
            let mut automata: Vec<Option<ClusterAutomaton>> = vec![None; clusters.len()];
            let mut compiles = 0u64;
            let mut scratch: Vec<cluseq_seq::Symbol> = Vec::new();
            let mut reader = store.reader();
            for &seq_id in order {
                let seq = reader.symbols(seq_id);
                for (slot, cluster) in clusters.iter_mut().enumerate() {
                    let (verdict, reused) =
                        match reuse.as_ref().and_then(|r| r.lookup(slot, seq_id)) {
                            Some(verdict) => (verdict, true),
                            None if !kernel.uses_automaton() || state.mutated[slot] => {
                                let sim = max_similarity_pst_with_scratch(
                                    &cluster.pst,
                                    background,
                                    seq,
                                    &mut scratch,
                                );
                                (BoundedSimilarity::Exact(sim), false)
                            }
                            // With a model cache, the slot's automaton is
                            // fetched through it — retained builds survive
                            // across scans within the cache's byte budget.
                            None => match models.as_deref_mut() {
                                Some(mc) => {
                                    let build_span = (!mc.contains(cluster.id)).then(|| {
                                        compiles += 1;
                                        options.trace.map(|t| t.span(Phase::AutomatonCompile))
                                    });
                                    let automaton = mc
                                        .get_or_build(cluster, background, kernel)
                                        .expect("automaton-backed kernel");
                                    drop(build_span);
                                    (automaton.scan_pruned(seq, prune_below), false)
                                }
                                None => {
                                    let automaton = automata[slot].get_or_insert_with(|| {
                                        compiles += 1;
                                        let _span =
                                            options.trace.map(|t| t.span(Phase::AutomatonCompile));
                                        ClusterAutomaton::build(&cluster.pst, background, kernel)
                                            .expect("automaton-backed kernel")
                                    });
                                    (automaton.scan_pruned(seq, prune_below), false)
                                }
                            },
                        };
                    let mutated = state.apply(seq_id, slot, verdict, seq, cluster, reused);
                    if mutated {
                        if let Some(mc) = models.as_deref_mut() {
                            mc.invalidate(cluster.id);
                        }
                    }
                    if let Some(reuse) = reuse.as_mut() {
                        reuse.after_pair(slot, seq_id, verdict, reused, mutated);
                    }
                }
            }
            if let (Some(reuse), Some(cache)) = (reuse, cache.as_deref_mut()) {
                state.metrics.clusters_dirty = reuse.dirty_at_start;
                state.metrics.pst_recompiles = compiles;
                reuse.commit(cache, clusters, &state.mutated);
            }
            score_nanos = start.elapsed().as_nanos() as u64;
        }
        (ScanMode::Snapshot, kernel) if cache.is_some() => {
            // Cached snapshot scan: whole-corpus scoring. The similarity
            // cache is O(n·k) resident by design, so sharding the verdict
            // matrix would bound nothing — `scan_shard` is ignored here.
            let engine = ScoreEngine::new(options.threads);
            let (rows, had_column) = {
                let cache_ref = cache.as_deref().expect("guarded by cache.is_some()");
                let _span = options.trace.map(|t| t.span(Phase::ScanScore));
                let had_column: Vec<bool> =
                    clusters.iter().map(|c| cache_ref.is_clean(c.id)).collect();
                let pass = engine.score_sequences_cached(
                    store,
                    clusters,
                    background,
                    order,
                    kernel,
                    prune_below,
                    cache_ref,
                    options.trace,
                );
                state.metrics.clusters_dirty = pass.dirty_slots.len() as u64;
                state.metrics.pst_recompiles = pass.compiles;
                score_nanos = pass.nanos;
                (pass.rows, had_column)
            };
            // Absorb phase: sequential, in examination order.
            let _span = options.trace.map(|t| t.span(Phase::ScanAbsorb));
            let start = std::time::Instant::now();
            let mut reader = store.reader();
            for (pos, &seq_id) in order.iter().enumerate() {
                let seq = reader.symbols(seq_id);
                for (slot, &verdict) in rows[pos].iter().enumerate() {
                    state.apply(
                        seq_id,
                        slot,
                        verdict,
                        seq,
                        &mut clusters[slot],
                        had_column[slot],
                    );
                }
            }
            // Cache write-back: a slot whose model mutated during absorb —
            // clean slots *can* mutate, a threshold move can turn a reused
            // verdict into a new join — loses its column; a dirty slot
            // that stayed constant gains the column just scored.
            if let Some(cache) = cache.as_mut() {
                for (slot, cluster) in clusters.iter().enumerate() {
                    if state.mutated[slot] {
                        cache.invalidate(cluster.id);
                    } else if !had_column[slot] {
                        let mut builder = ColumnBuilder::new(n);
                        for (pos, &seq_id) in order.iter().enumerate() {
                            builder.record(seq_id, rows[pos][slot]);
                        }
                        if let Some(col) = builder.finish() {
                            cache.install(cluster.id, col);
                        }
                    }
                }
            }
            absorb_nanos = start.elapsed().as_nanos() as u64;
        }
        (ScanMode::Snapshot, kernel) => {
            // Uncached snapshot scan, shardable. The iteration-start
            // models are frozen once, before the first shard: automaton
            // kernels freeze their compiled tables, the interpreted
            // kernel freezes PST clones when (and only when) a later
            // shard could observe an earlier shard's absorb. Each shard
            // then runs score (parallel) → absorb (sequential); shards
            // run in order, so the overall absorb order is exactly the
            // examination order and results are bit-identical to the
            // single-shard scan.
            let engine = ScoreEngine::new(options.threads);
            let n_order = order.len();
            let shard_len = match options.scan_shard {
                Some(s) if s > 0 => s.min(n_order.max(1)),
                _ => n_order.max(1),
            };
            let mut mc_misses_before = 0u64;
            let automata: Option<Vec<Arc<ClusterAutomaton>>> = if kernel.uses_automaton() {
                // Automaton builds are part of the score phase's bill:
                // they only exist to serve this pass.
                let _span = options.trace.map(|t| t.span(Phase::AutomatonCompile));
                let start = std::time::Instant::now();
                let built: Vec<Arc<ClusterAutomaton>> = match models.as_deref_mut() {
                    Some(mc) => {
                        mc_misses_before = mc.stats().1;
                        clusters
                            .iter()
                            .map(|c| {
                                mc.get_or_build(c, background, kernel)
                                    .expect("automaton-backed kernel")
                            })
                            .collect()
                    }
                    None => engine
                        .compile_cluster_automata(clusters, background, kernel)
                        .into_iter()
                        .map(Arc::new)
                        .collect(),
                };
                score_nanos += start.elapsed().as_nanos() as u64;
                Some(built)
            } else {
                None
            };
            let frozen: Option<Vec<Cluster>> =
                (!kernel.uses_automaton() && shard_len < n_order).then(|| clusters.to_vec());
            let mut reader = store.reader();
            for shard in order.chunks(shard_len) {
                // Score phase: every shard pair against the frozen
                // iteration-start models, in parallel. Row `pos` holds
                // sequence `shard[pos]`'s scores in slot order, so the
                // absorb below visits pairs in exactly the incremental
                // scan's (sequence, slot) order.
                let rows: Vec<Vec<BoundedSimilarity>> = match &automata {
                    Some(automata) => {
                        let _span = options.trace.map(|t| t.span(Phase::ScanScore));
                        let (rows, nanos) = engine.score_sequences_automata_metered(
                            store,
                            automata,
                            shard,
                            prune_below,
                            kernel,
                            options.trace,
                        );
                        score_nanos += nanos;
                        rows
                    }
                    None => {
                        let _span = options.trace.map(|t| t.span(Phase::ScanScore));
                        let src: &[Cluster] = frozen.as_deref().unwrap_or(clusters);
                        let (rows, nanos) = engine.score_sequences_metered(
                            store,
                            src,
                            background,
                            shard,
                            options.trace,
                        );
                        score_nanos += nanos;
                        rows.into_iter()
                            .map(|row| row.into_iter().map(BoundedSimilarity::Exact).collect())
                            .collect()
                    }
                };
                // Absorb phase: sequential, in examination order.
                let _span = options.trace.map(|t| t.span(Phase::ScanAbsorb));
                let start = std::time::Instant::now();
                for (pos, &seq_id) in shard.iter().enumerate() {
                    let seq = reader.symbols(seq_id);
                    for (slot, &verdict) in rows[pos].iter().enumerate() {
                        state.apply(seq_id, slot, verdict, seq, &mut clusters[slot], false);
                    }
                }
                absorb_nanos += start.elapsed().as_nanos() as u64;
            }
            if let Some(mc) = models.as_deref_mut() {
                state.metrics.pst_recompiles += mc.stats().1 - mc_misses_before;
            }
        }
    }

    // Model-cache invalidation: the scan knows exactly which models it
    // mutated. (The serial arm invalidates inline at each mutation; doing
    // it again here is a harmless no-op. Under `rebuild_psts` every model
    // is replaced below, so everything cached dies.)
    if let Some(mc) = models {
        if options.rebuild_psts {
            mc.clear();
        } else {
            for (slot, cluster) in clusters.iter().enumerate() {
                if state.mutated[slot] {
                    mc.invalidate(cluster.id);
                }
            }
        }
    }

    // Install the rebuilt member lists, count flips, and collect the ids
    // of clusters the scan changed (for delta checkpoints).
    let mut changes = 0usize;
    let mut changed_clusters = Vec::new();
    for (slot, cluster) in clusters.iter_mut().enumerate() {
        state.new_members[slot].sort_unstable();
        let flips = symmetric_difference(&state.old_members[slot], &state.new_members[slot]);
        changes += flips;
        if flips > 0 || state.mutated[slot] || options.rebuild_psts {
            changed_clusters.push(cluster.id);
        }
        cluster.members = std::mem::take(&mut state.new_members[slot]);
    }

    if options.rebuild_psts {
        let alphabet_size = store.alphabet().len();
        let mut reader = store.reader();
        for (slot, cluster) in clusters.iter_mut().enumerate() {
            let params = *cluster.pst.params();
            let mut fresh = cluseq_pst::Pst::new(alphabet_size, params);
            // Seed sequence first (a cluster always models its seed), then
            // each member's maximizing segment.
            fresh.add_sequence(&reader.sequence(cluster.seed));
            for &(member, start, end) in &state.join_segments[slot] {
                fresh.add_segment(&reader.sequence(member).symbols()[start..end]);
            }
            cluster.pst = fresh;
        }
    }

    let mut metrics = state.metrics;
    metrics.membership_changes = changes;

    if let Some(trace) = options.trace {
        // End-of-scan barrier merge. Pair counts were already written per
        // worker shard by the snapshot score phase; the serial modes
        // record theirs here. Everything merges as u64 sums, so registry
        // totals are bit-identical across thread counts and equal to
        // `metrics` — `tests/trace_stream.rs` enforces both.
        if !matches!(options.mode, ScanMode::Snapshot) {
            trace.add(Counter::PairsScored, metrics.pairs_scored);
            trace.add(Counter::PairsPruned, metrics.pairs_pruned);
            trace.add(Counter::PairsReused, metrics.pairs_reused);
        }
        trace.add(Counter::Joins, metrics.joins);
        trace.add(Counter::NewJoins, metrics.new_joins);
        trace.add(
            Counter::MembershipChanges,
            metrics.membership_changes as u64,
        );
        trace.add(Counter::ClustersDirty, metrics.clusters_dirty);
        trace.add(Counter::PstRecompiles, metrics.pst_recompiles);
    }

    ReclusterOutcome {
        similarities: state.similarities,
        changes,
        best_cluster: state.best_cluster,
        metrics,
        score_nanos,
        absorb_nanos,
        changed_clusters,
    }
}

/// |A Δ B| for two ascending id lists.
fn symmetric_difference(a: &[usize], b: &[usize]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut diff = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                diff += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                diff += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    diff + (a.len() - i) + (b.len() - j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluseq_pst::PstParams;
    use cluseq_seq::SequenceDatabase;

    fn fixture() -> (SequenceDatabase, BackgroundModel) {
        let texts = [
            "abababababababab",
            "abababababababab",
            "abababababababab",
            "cccccccccccccccc",
            "cccccccccccccccc",
        ];
        let db = SequenceDatabase::from_strs(texts);
        let bg = db.background();
        (db, bg)
    }

    fn params() -> PstParams {
        PstParams::default().with_significance(2)
    }

    fn make_clusters(db: &SequenceDatabase, seeds: &[usize]) -> Vec<Cluster> {
        seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| Cluster::from_seed(i, s, db.sequence(s), db.alphabet().len(), params()))
            .collect()
    }

    fn incremental() -> ScanOptions<'static> {
        ScanOptions::default()
    }

    fn rebuild() -> ScanOptions<'static> {
        ScanOptions {
            rebuild_psts: true,
            ..ScanOptions::default()
        }
    }

    fn snapshot(threads: usize) -> ScanOptions<'static> {
        ScanOptions {
            mode: ScanMode::Snapshot,
            threads,
            ..ScanOptions::default()
        }
    }

    #[test]
    fn sequences_join_their_generating_cluster() {
        let (db, bg) = fixture();
        let mut clusters = make_clusters(&db, &[0, 3]);
        let order: Vec<usize> = (0..db.len()).collect();
        let out = recluster(&db, &mut clusters, 0.05, &order, &bg, incremental());
        assert_eq!(clusters[0].members, vec![0, 1, 2]);
        assert_eq!(clusters[1].members, vec![3, 4]);
        assert_eq!(out.best_cluster[1], Some(0));
        assert_eq!(out.best_cluster[4], Some(1));
    }

    #[test]
    fn similarities_cover_every_pair() {
        let (db, bg) = fixture();
        let mut clusters = make_clusters(&db, &[0, 3]);
        let order: Vec<usize> = (0..db.len()).collect();
        let out = recluster(&db, &mut clusters, 0.05, &order, &bg, incremental());
        assert_eq!(out.similarities.len(), db.len() * 2);
    }

    #[test]
    fn impossible_threshold_unclusters_everything() {
        let (db, bg) = fixture();
        let mut clusters = make_clusters(&db, &[0]);
        let order: Vec<usize> = (0..db.len()).collect();
        let out = recluster(&db, &mut clusters, 1e9, &order, &bg, incremental());
        assert!(clusters[0].members.is_empty());
        // The seed itself left the cluster: one membership change.
        assert_eq!(out.changes, 1);
        assert!(out.best_cluster.iter().all(|b| b.is_none()));
    }

    #[test]
    fn changes_count_joins_and_leaves() {
        let (db, bg) = fixture();
        let mut clusters = make_clusters(&db, &[0]);
        let order: Vec<usize> = (0..db.len()).collect();
        // First scan: ids 1, 2 join (changes = 2; id 0 stays).
        let out1 = recluster(&db, &mut clusters, 0.05, &order, &bg, incremental());
        assert_eq!(out1.changes, 2);
        // Second scan: stable clustering, no changes.
        let out2 = recluster(&db, &mut clusters, 0.05, &order, &bg, incremental());
        assert_eq!(out2.changes, 0);
    }

    #[test]
    fn new_joins_grow_the_model() {
        let (db, bg) = fixture();
        let mut clusters = make_clusters(&db, &[0]);
        let before = clusters[0].pst.total_count();
        let order: Vec<usize> = (0..db.len()).collect();
        recluster(&db, &mut clusters, 0.05, &order, &bg, incremental());
        assert!(
            clusters[0].pst.total_count() > before,
            "absorbing segments must increase the root count"
        );
    }

    #[test]
    fn repeat_members_do_not_reinflate_the_model() {
        let (db, bg) = fixture();
        let mut clusters = make_clusters(&db, &[0]);
        let order: Vec<usize> = (0..db.len()).collect();
        recluster(&db, &mut clusters, 0.05, &order, &bg, incremental());
        let after_first = clusters[0].pst.total_count();
        recluster(&db, &mut clusters, 0.05, &order, &bg, incremental());
        assert_eq!(
            clusters[0].pst.total_count(),
            after_first,
            "stable members are not re-absorbed"
        );
    }

    #[test]
    fn rebuild_mode_keeps_model_size_bounded() {
        let (db, bg) = fixture();
        let mut clusters = make_clusters(&db, &[0]);
        let order: Vec<usize> = (0..db.len()).collect();
        recluster(&db, &mut clusters, 0.05, &order, &bg, rebuild());
        let after_first = clusters[0].pst.total_count();
        recluster(&db, &mut clusters, 0.05, &order, &bg, rebuild());
        let after_second = clusters[0].pst.total_count();
        assert_eq!(
            after_first, after_second,
            "rebuild is idempotent at a fixpoint"
        );
    }

    #[test]
    fn snapshot_mode_recovers_the_same_clusters() {
        let (db, bg) = fixture();
        let mut clusters = make_clusters(&db, &[0, 3]);
        let order: Vec<usize> = (0..db.len()).collect();
        let out = recluster(&db, &mut clusters, 0.05, &order, &bg, snapshot(1));
        assert_eq!(clusters[0].members, vec![0, 1, 2]);
        assert_eq!(clusters[1].members, vec![3, 4]);
        assert_eq!(out.similarities.len(), db.len() * 2);
    }

    /// The tentpole invariant at the single-scan level: a snapshot scan is
    /// one deterministic function of its inputs, so every thread count
    /// must reproduce the threads = 1 run bit for bit — similarities,
    /// flips, memberships, and the models themselves.
    #[test]
    fn snapshot_scan_is_bit_identical_for_any_thread_count() {
        let (db, bg) = fixture();
        let order: Vec<usize> = vec![4, 1, 3, 0, 2];
        let run = |threads: usize| {
            let mut clusters = make_clusters(&db, &[0, 3]);
            let out = recluster(&db, &mut clusters, 0.05, &order, &bg, snapshot(threads));
            let members: Vec<Vec<usize>> = clusters.iter().map(|c| c.members.clone()).collect();
            let counts: Vec<u64> = clusters.iter().map(|c| c.pst.total_count()).collect();
            let sims: Vec<u64> = out.similarities.iter().map(|s| s.to_bits()).collect();
            (sims, out.changes, out.best_cluster, members, counts)
        };
        let reference = run(1);
        for threads in [2usize, 4, 8] {
            assert_eq!(run(threads), reference, "threads={threads}");
        }
    }

    /// Snapshot scoring happens against iteration-start models: a scan
    /// from a fixpoint (no new joins) therefore produces exactly the
    /// incremental scan's numbers.
    #[test]
    fn snapshot_equals_incremental_at_a_fixpoint() {
        let (db, bg) = fixture();
        let order: Vec<usize> = (0..db.len()).collect();
        let mut inc = make_clusters(&db, &[0, 3]);
        recluster(&db, &mut inc, 0.05, &order, &bg, incremental());
        let mut snap = inc.clone();

        let out_inc = recluster(&db, &mut inc, 0.05, &order, &bg, incremental());
        let out_snap = recluster(&db, &mut snap, 0.05, &order, &bg, snapshot(4));
        assert_eq!(out_inc.changes, 0);
        assert_eq!(out_snap.changes, 0);
        let bits = |sims: &[f64]| sims.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out_inc.similarities), bits(&out_snap.similarities));
        assert_eq!(out_inc.best_cluster, out_snap.best_cluster);
        for (a, b) in inc.iter().zip(&snap) {
            assert_eq!(a.members, b.members);
            assert_eq!(a.pst.total_count(), b.pst.total_count());
        }
    }

    #[test]
    fn scan_metrics_count_pairs_and_joins() {
        let (db, bg) = fixture();
        let order: Vec<usize> = (0..db.len()).collect();
        for opts in [incremental(), snapshot(2)] {
            let mut clusters = make_clusters(&db, &[0, 3]);
            let out = recluster(&db, &mut clusters, 0.05, &order, &bg, opts);
            assert_eq!(out.metrics.pairs_scored, (db.len() * 2) as u64);
            // Joins = final membership entries (3 in cluster 0, 2 in 1).
            assert_eq!(out.metrics.joins, 5);
            // The seeds were already members; 3 sequences joined anew.
            assert_eq!(out.metrics.new_joins, 3);
            assert_eq!(out.metrics.membership_changes, out.changes);
        }
    }

    fn with_kernel<'a>(mut opts: ScanOptions<'a>, kernel: ScanKernel) -> ScanOptions<'a> {
        opts.kernel = kernel;
        opts
    }

    /// The tentpole invariant: the compiled kernel reproduces the
    /// interpreted kernel bit for bit — similarities, flips, memberships,
    /// models — in every scan mode and at every thread count.
    #[test]
    fn compiled_kernel_scan_is_bit_identical_to_interpreted() {
        let (db, bg) = fixture();
        let order: Vec<usize> = vec![4, 1, 3, 0, 2];
        let run = |opts: ScanOptions| {
            let mut clusters = make_clusters(&db, &[0, 3]);
            let out = recluster(&db, &mut clusters, 0.05, &order, &bg, opts);
            let members: Vec<Vec<usize>> = clusters.iter().map(|c| c.members.clone()).collect();
            let counts: Vec<u64> = clusters.iter().map(|c| c.pst.total_count()).collect();
            let sims: Vec<u64> = out.similarities.iter().map(|s| s.to_bits()).collect();
            (sims, out.changes, out.best_cluster, members, counts)
        };
        for base in [incremental(), rebuild(), snapshot(1), snapshot(4)] {
            let reference = run(with_kernel(base, ScanKernel::Interpreted));
            assert_eq!(
                run(with_kernel(base, ScanKernel::Compiled)),
                reference,
                "mode {:?} rebuild {}",
                base.mode,
                base.rebuild_psts,
            );
        }
    }

    /// The serial compiled scan builds each slot's automaton at most once
    /// per scan, however many sequences join the slot mid-scan, and still
    /// reproduces the interpreted kernel bit for bit.
    #[test]
    fn incremental_compiled_scan_builds_each_automaton_at_most_once() {
        let texts: Vec<String> = (0..12)
            .map(|i| {
                if i % 2 == 0 {
                    format!("{}aab", "ab".repeat(6 + i))
                } else {
                    format!("{}cd", "c".repeat(12 + i))
                }
            })
            .collect();
        let db = SequenceDatabase::from_strs(texts.iter().map(|s| s.as_str()));
        let bg = db.background();
        let order: Vec<usize> = (0..db.len()).collect();
        let observe = |out: &ReclusterOutcome, clusters: &[Cluster]| {
            (
                out.similarities
                    .iter()
                    .map(|s| s.to_bits())
                    .collect::<Vec<_>>(),
                out.best_cluster.clone(),
                clusters
                    .iter()
                    .map(|c| (c.members.clone(), c.pst.total_count(), c.pst.node_count()))
                    .collect::<Vec<_>>(),
            )
        };

        let mut interpreted = make_clusters(&db, &[0, 1]);
        let reference = recluster(
            &db,
            &mut interpreted,
            0.05,
            &order,
            &bg,
            with_kernel(incremental(), ScanKernel::Interpreted),
        );
        assert!(
            reference.metrics.new_joins >= 8,
            "each cluster must absorb several joins mid-scan, got {}",
            reference.metrics.new_joins
        );

        let mut compiled = make_clusters(&db, &[0, 1]);
        let mut models = ModelCache::new(usize::MAX);
        let out = recluster_full(
            &db,
            &mut compiled,
            0.05,
            &order,
            &bg,
            with_kernel(incremental(), ScanKernel::Compiled),
            None,
            Some(&mut models),
        );
        assert!(
            models.stats().1 <= compiled.len() as u64,
            "{} builds for {} slots",
            models.stats().1,
            compiled.len()
        );
        assert_eq!(observe(&out, &compiled), observe(&reference, &interpreted));
    }

    /// With pruning enabled, hopeless pairs are counted — not silently
    /// skipped — and every observable outcome matches the unpruned scan.
    #[test]
    fn scan_pruning_counts_pairs_and_preserves_outcomes() {
        // Long sequences (≥ several prune-check intervals) in two sharply
        // separated groups, so cross-group pairs are provably hopeless.
        let texts: Vec<String> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    "ab".repeat(100)
                } else {
                    "c".repeat(200)
                }
            })
            .collect();
        let db = SequenceDatabase::from_strs(texts.iter().map(|s| s.as_str()));
        let bg = db.background();
        let order: Vec<usize> = (0..db.len()).collect();
        // High enough that a cross-group pair is provably hopeless well
        // before its sequence ends, low enough that same-group pairs
        // still join (they score ~140+ in log space here).
        let log_t = 100.0f64;

        let run = |opts: ScanOptions| {
            let mut clusters = make_clusters(&db, &[0, 1]);
            let out = recluster(&db, &mut clusters, log_t, &order, &bg, opts);
            let members: Vec<Vec<usize>> = clusters.iter().map(|c| c.members.clone()).collect();
            let counts: Vec<u64> = clusters.iter().map(|c| c.pst.total_count()).collect();
            (out, members, counts)
        };

        for base in [incremental(), snapshot(2)] {
            let mut pruned_opts = with_kernel(base, ScanKernel::Compiled);
            pruned_opts.prune_below = Some(log_t);
            let (out_p, members_p, counts_p) = run(pruned_opts);
            let (out_x, members_x, counts_x) = run(with_kernel(base, ScanKernel::Compiled));

            assert!(
                out_p.metrics.pairs_pruned > 0,
                "mode {:?}: cross-group pairs should be prunable",
                base.mode
            );
            assert_eq!(out_x.metrics.pairs_pruned, 0, "no pruning when disabled");
            assert!(out_x.metrics.joins > 0, "the threshold must stay reachable");
            assert_eq!(out_p.metrics.pairs_scored, out_x.metrics.pairs_scored);
            assert_eq!(out_p.metrics.joins, out_x.metrics.joins);
            assert_eq!(out_p.metrics.new_joins, out_x.metrics.new_joins);
            assert_eq!(out_p.changes, out_x.changes);
            assert_eq!(out_p.best_cluster, out_x.best_cluster);
            assert_eq!(members_p, members_x);
            assert_eq!(counts_p, counts_x);
            // A pruned pair forfeits its histogram sample — the only
            // observable difference.
            assert_eq!(
                out_p.similarities.len() + out_p.metrics.pairs_pruned as usize,
                out_x.similarities.len() + out_x.metrics.pairs_pruned as usize
            );
        }
    }

    /// The interpreted kernel cannot prune: a stray `prune_below` must be
    /// ignored rather than half-applied.
    #[test]
    fn interpreted_kernel_ignores_prune_below() {
        let (db, bg) = fixture();
        let order: Vec<usize> = (0..db.len()).collect();
        let mut clusters = make_clusters(&db, &[0, 3]);
        let mut opts = with_kernel(incremental(), ScanKernel::Interpreted);
        opts.prune_below = Some(1e9);
        let out = recluster(&db, &mut clusters, 0.05, &order, &bg, opts);
        assert_eq!(out.metrics.pairs_pruned, 0);
        assert_eq!(out.similarities.len(), db.len() * 2);
    }

    /// A traced scan leaves its outputs untouched and lands exactly the
    /// scan's [`ScanMetrics`] in the registry — regardless of mode,
    /// kernel, or thread count (the per-shard vs barrier-merge split must
    /// never double- or under-count).
    #[test]
    fn traced_scan_registry_equals_scan_metrics() {
        use crate::trace::{Counter, TraceSession};
        let (db, bg) = fixture();
        let order: Vec<usize> = vec![4, 1, 3, 0, 2];
        for base in [incremental(), snapshot(1), snapshot(4)] {
            for kernel in ScanKernel::ALL {
                let opts = with_kernel(base, kernel);
                let mut plain_clusters = make_clusters(&db, &[0, 3]);
                let plain = recluster(&db, &mut plain_clusters, 0.05, &order, &bg, opts);

                let session = TraceSession::in_memory();
                let mut traced_clusters = make_clusters(&db, &[0, 3]);
                let traced_opts = ScanOptions {
                    trace: Some(&session),
                    ..opts
                };
                let traced = recluster(&db, &mut traced_clusters, 0.05, &order, &bg, traced_opts);

                let ctx = format!("mode {:?} kernel {:?}", base.mode, kernel);
                let bits = |sims: &[f64]| sims.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&plain.similarities),
                    bits(&traced.similarities),
                    "{ctx}"
                );
                assert_eq!(plain.changes, traced.changes, "{ctx}");
                for (a, b) in plain_clusters.iter().zip(&traced_clusters) {
                    assert_eq!(a.members, b.members, "{ctx}");
                    assert_eq!(a.pst.total_count(), b.pst.total_count(), "{ctx}");
                }
                let m = traced.metrics;
                assert_eq!(
                    session.counter(Counter::PairsScored),
                    m.pairs_scored,
                    "{ctx}"
                );
                assert_eq!(
                    session.counter(Counter::PairsPruned),
                    m.pairs_pruned,
                    "{ctx}"
                );
                assert_eq!(session.counter(Counter::Joins), m.joins, "{ctx}");
                assert_eq!(session.counter(Counter::NewJoins), m.new_joins, "{ctx}");
                assert_eq!(
                    session.counter(Counter::MembershipChanges),
                    m.membership_changes as u64,
                    "{ctx}"
                );
            }
        }
    }

    /// The incremental-engine invariant at the single-scan level: scans
    /// driven through a similarity cache are bit-identical to uncached
    /// scans in every observable, and a stable clustering converges to
    /// full reuse — zero pairs scored, zero compiles.
    #[test]
    fn cached_scans_are_bit_identical_and_converge_to_full_reuse() {
        let (db, bg) = fixture();
        let order: Vec<usize> = (0..db.len()).collect();
        let observe = |out: &ReclusterOutcome, clusters: &[Cluster]| {
            (
                out.similarities
                    .iter()
                    .map(|s| s.to_bits())
                    .collect::<Vec<_>>(),
                out.changes,
                out.best_cluster.clone(),
                out.changed_clusters.clone(),
                clusters
                    .iter()
                    .map(|c| c.members.clone())
                    .collect::<Vec<_>>(),
                clusters
                    .iter()
                    .map(|c| c.pst.total_count())
                    .collect::<Vec<_>>(),
            )
        };
        for base in [incremental(), snapshot(1), snapshot(4)] {
            for kernel in ScanKernel::ALL {
                let opts = with_kernel(base, kernel);
                let mut plain_clusters = make_clusters(&db, &[0, 3]);
                let mut cached_clusters = make_clusters(&db, &[0, 3]);
                let mut cache = SimilarityCache::new(db.len());
                for round in 0..3 {
                    let plain = recluster(&db, &mut plain_clusters, 0.05, &order, &bg, opts);
                    let cached = recluster_cached(
                        &db,
                        &mut cached_clusters,
                        0.05,
                        &order,
                        &bg,
                        opts,
                        Some(&mut cache),
                    );
                    let ctx = format!("mode {:?} kernel {:?} round {round}", base.mode, kernel);
                    assert_eq!(
                        observe(&plain, &plain_clusters),
                        observe(&cached, &cached_clusters),
                        "{ctx}"
                    );
                    assert_eq!(cached.metrics.joins, plain.metrics.joins, "{ctx}");
                    // Reuse replaces scoring one for one.
                    assert_eq!(
                        cached.metrics.pairs_scored + cached.metrics.pairs_reused,
                        plain.metrics.pairs_scored,
                        "{ctx}"
                    );
                    if round == 2 {
                        // Round 0 mutates both models (new joins), so no
                        // columns survive it; round 1 rescores and caches;
                        // round 2 must reuse everything.
                        assert_eq!(cached.metrics.pairs_reused, (db.len() * 2) as u64, "{ctx}");
                        assert_eq!(cached.metrics.pairs_scored, 0, "{ctx}");
                        assert_eq!(cached.metrics.clusters_dirty, 0, "{ctx}");
                        assert_eq!(cached.metrics.pst_recompiles, 0, "{ctx}");
                    }
                }
            }
        }
    }

    /// Traced cached scans land exactly their [`ScanMetrics`] in the
    /// registry, including the three incremental counters, at every
    /// mode × kernel × round point.
    #[test]
    fn traced_cached_scan_registry_equals_scan_metrics() {
        use crate::trace::{Counter, TraceSession};
        let (db, bg) = fixture();
        let order: Vec<usize> = (0..db.len()).collect();
        for base in [incremental(), snapshot(1), snapshot(4)] {
            for kernel in ScanKernel::ALL {
                let mut clusters = make_clusters(&db, &[0, 3]);
                let mut cache = SimilarityCache::new(db.len());
                for round in 0..3 {
                    let session = TraceSession::in_memory();
                    let opts = ScanOptions {
                        trace: Some(&session),
                        ..with_kernel(base, kernel)
                    };
                    let out = recluster_cached(
                        &db,
                        &mut clusters,
                        0.05,
                        &order,
                        &bg,
                        opts,
                        Some(&mut cache),
                    );
                    let m = out.metrics;
                    let ctx = format!("mode {:?} kernel {:?} round {round}", base.mode, kernel);
                    assert_eq!(
                        session.counter(Counter::PairsScored),
                        m.pairs_scored,
                        "{ctx}"
                    );
                    assert_eq!(
                        session.counter(Counter::PairsPruned),
                        m.pairs_pruned,
                        "{ctx}"
                    );
                    assert_eq!(
                        session.counter(Counter::PairsReused),
                        m.pairs_reused,
                        "{ctx}"
                    );
                    assert_eq!(
                        session.counter(Counter::ClustersDirty),
                        m.clusters_dirty,
                        "{ctx}"
                    );
                    assert_eq!(
                        session.counter(Counter::PstRecompiles),
                        m.pst_recompiles,
                        "{ctx}"
                    );
                    if round == 2 {
                        assert!(m.pairs_reused > 0, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn symmetric_difference_counts_flips() {
        assert_eq!(symmetric_difference(&[], &[]), 0);
        assert_eq!(symmetric_difference(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(symmetric_difference(&[1, 2], &[2, 3]), 2);
        assert_eq!(symmetric_difference(&[1], &[]), 1);
        assert_eq!(symmetric_difference(&[], &[5, 6, 7]), 3);
    }
}
