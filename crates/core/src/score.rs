//! Deterministic parallel scoring engine.
//!
//! Every hot path in CLUSEQ reduces to the same shape: a *pure* map over
//! (sequence, model) pairs — similarity evaluation reads the PSTs and
//! writes nothing. This module extracts that shape once so the scan, seed
//! selection, the online scorer, and the final assignment pass all share
//! it.
//!
//! # Determinism contract
//!
//! [`parallel_map`] guarantees **bit-identical output for every thread
//! count**, including 1. The input index range `0..n` is split into at
//! most `threads` *contiguous* chunks of `ceil(n / threads)` indices;
//! worker `t` evaluates chunk `t` in ascending index order, and the chunk
//! results are concatenated in chunk order. Because the function is
//! required to be pure (it cannot observe evaluation order), the resulting
//! vector is exactly `(0..n).map(f).collect()` — no atomics, no work
//! stealing, no reduction-order ambiguity. Floating-point results are
//! therefore reproducible to the bit, which is what lets the test suite
//! assert equality between serial and parallel runs instead of comparing
//! within a tolerance.

use std::borrow::Borrow;

use cluseq_seq::{BackgroundModel, Sequence, SequenceStore, Symbol};

use crate::cluster::Cluster;
use crate::config::ScanKernel;
use crate::incremental::SimilarityCache;
use crate::kernel::ClusterAutomaton;
use crate::similarity::{
    max_similarity_pst, max_similarity_pst_with_scratch, prune_count, BoundedSimilarity,
    SegmentSimilarity, BATCH_LANES,
};
use crate::trace::{self, Counter, HistKind, Phase, TraceSession};

/// Maps `f` over `0..n` using up to `threads` scoped worker threads.
///
/// Equivalent to `(0..n).map(f).collect()` for any pure `f`, regardless of
/// `threads` (see the module-level determinism contract). `threads` is
/// clamped to `[1, n]`; small inputs run serially to avoid spawn overhead.
///
/// # Panics
///
/// A panic in `f` aborts the whole map: the calling thread panics with
/// "scoring worker panicked".
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    // Below ~2 indices per worker the spawn cost dominates; the serial
    // path is *defined* to produce the same output, so this cutoff is a
    // pure performance choice.
    if threads == 1 || n < 2 * threads {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let lo = (t * chunk).min(n);
                let hi = ((t + 1) * chunk).min(n);
                let f = &f;
                scope.spawn(move || (lo..hi).map(f).collect::<Vec<T>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("scoring worker panicked"))
            .collect()
    })
}

/// [`parallel_map`] with per-worker scratch state.
///
/// `init` is called once per worker (once total on the serial path) and
/// the resulting state is threaded through every call that worker makes —
/// the shape the out-of-core scan needs, where each worker owns a
/// [`cluseq_seq::StoreReader`] with its own resident window. The chunk
/// layout, ordering, and output are *identical* to [`parallel_map`]: the
/// determinism contract requires `f` to be pure with respect to the
/// *returned values* (the state may buffer I/O, cache windows, or reuse
/// scratch allocations, but must never change what `f` returns for a
/// given index).
///
/// `S` needs no `Send` bound: each state is created and dropped inside
/// the worker thread that uses it.
///
/// # Panics
///
/// A panic in `init` or `f` aborts the whole map: the calling thread
/// panics with "scoring worker panicked".
pub fn parallel_map_with<S, T, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 || n < 2 * threads {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let lo = (t * chunk).min(n);
                let hi = ((t + 1) * chunk).min(n);
                let init = &init;
                let f = &f;
                scope.spawn(move || {
                    let mut state = init();
                    (lo..hi).map(|i| f(&mut state, i)).collect::<Vec<T>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("scoring worker panicked"))
            .collect()
    })
}

/// The chunk size [`parallel_map`] uses for `n` indices over `threads`
/// workers — `n` itself on the serial path, so that
/// [`trace::shard_for`]`(pos, plan_chunk(n, threads))` maps row `pos` to
/// the registry shard owned by the worker that evaluates it (shard 0 for
/// a serial map).
pub fn plan_chunk(n: usize, threads: usize) -> usize {
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 || n < 2 * threads {
        n.max(1)
    } else {
        n.div_ceil(threads)
    }
}

/// The result of [`ScoreEngine::score_sequences_cached`]: the verdict
/// rows plus what the cache did and did not save.
#[derive(Debug)]
pub struct CachedScorePass {
    /// `rows[pos][slot]` — verdicts in examination order (reused or
    /// fresh; see [`ScoreEngine::score_sequences_cached`]).
    pub rows: Vec<Vec<BoundedSimilarity>>,
    /// Wall time of the whole pass (dirty-slot automaton compiles plus
    /// scoring), in nanoseconds.
    pub nanos: u64,
    /// Slots scored fresh (no valid cached column), ascending.
    pub dirty_slots: Vec<usize>,
    /// Automata compiled — `dirty_slots.len()` under the compiled kernel,
    /// 0 under the interpreted one.
    pub compiles: u64,
}

/// A configured scorer: the thread count plus the similarity shapes the
/// algorithm needs.
///
/// All methods score against *fixed* models ("snapshot" semantics): the
/// caller decides when model updates happen, which keeps every method here
/// trivially parallel and deterministic.
#[derive(Debug, Clone, Copy)]
pub struct ScoreEngine {
    threads: usize,
}

impl ScoreEngine {
    /// An engine using up to `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Scores every sequence in `order` against every cluster model.
    ///
    /// `out[pos][slot]` is the similarity of sequence `order[pos]` to
    /// `clusters[slot]`, all evaluated against the models as passed in.
    ///
    /// Every scoring method takes the corpus as a [`SequenceStore`]: a
    /// resident [`cluseq_seq::SequenceDatabase`] coerces to the trait
    /// object and reads zero-copy, while a [`cluseq_seq::FileStore`]
    /// streams each worker's chunk through that worker's own windowed
    /// reader — the scores are bit-identical either way.
    pub fn score_sequences(
        &self,
        store: &dyn SequenceStore,
        clusters: &[Cluster],
        background: &BackgroundModel,
        order: &[usize],
    ) -> Vec<Vec<SegmentSimilarity>> {
        parallel_map_with(
            order.len(),
            self.threads,
            || store.reader(),
            |reader, pos| {
                let seq = reader.symbols(order[pos]);
                clusters
                    .iter()
                    .map(|cluster| max_similarity_pst(&cluster.pst, background, seq))
                    .collect()
            },
        )
    }

    /// [`score_sequences`](ScoreEngine::score_sequences) plus the wall
    /// time of the whole pass in nanoseconds — the telemetry layer's
    /// `scan_score` phase attribution — with optional per-row metrics:
    /// when `trace` is given, each worker writes `pairs_scored` and a
    /// `score_row` latency observation into its own registry shard,
    /// contention-free. Scores are identical either way — the registry is
    /// write-only here.
    pub fn score_sequences_metered(
        &self,
        store: &dyn SequenceStore,
        clusters: &[Cluster],
        background: &BackgroundModel,
        order: &[usize],
        trace: Option<&TraceSession>,
    ) -> (Vec<Vec<SegmentSimilarity>>, u64) {
        let start = std::time::Instant::now();
        let rows = match trace {
            None => self.score_sequences(store, clusters, background, order),
            Some(trace) => {
                let chunk = plan_chunk(order.len(), self.threads);
                parallel_map_with(
                    order.len(),
                    self.threads,
                    || store.reader(),
                    |reader, pos| {
                        let row_start = std::time::Instant::now();
                        let seq = reader.symbols(order[pos]);
                        let row: Vec<SegmentSimilarity> = clusters
                            .iter()
                            .map(|cluster| max_similarity_pst(&cluster.pst, background, seq))
                            .collect();
                        let shard = trace::shard_for(pos, chunk);
                        trace.add_at(shard, Counter::PairsScored, row.len() as u64);
                        trace.observe(HistKind::ScoreRow, shard, trace::nanos_since(row_start));
                        row
                    },
                )
            }
        };
        (rows, trace::nanos_since(start))
    }

    /// Builds every cluster's [`ClusterAutomaton`] for `kernel`, in slot
    /// order. The compile cost is paid once per frozen model, then
    /// amortized over every sequence scored against it.
    ///
    /// # Panics
    ///
    /// If `kernel` is [`ScanKernel::Interpreted`], which has no automaton.
    pub fn compile_cluster_automata(
        &self,
        clusters: &[Cluster],
        background: &BackgroundModel,
        kernel: ScanKernel,
    ) -> Vec<ClusterAutomaton> {
        assert!(
            kernel.uses_automaton(),
            "the interpreted kernel scans the tree directly"
        );
        parallel_map(clusters.len(), self.threads, |slot| {
            ClusterAutomaton::build(&clusters[slot].pst, background, kernel)
                .expect("automaton-backed kernel")
        })
    }

    /// [`score_sequences`](ScoreEngine::score_sequences) over precompiled
    /// automata, plus wall time, with optional threshold early-exit and
    /// per-worker metrics.
    ///
    /// `out[pos][slot]` is the verdict of sequence `order[pos]` against
    /// `automata[slot]`. With `prune_below = None` every entry is
    /// [`BoundedSimilarity::Exact`] and bit-identical to the interpreted
    /// engine; with `Some(log_t)`, pairs provably below `log_t` may come
    /// back [`BoundedSimilarity::Pruned`] instead (see
    /// [`crate::similarity::max_similarity_compiled_bounded`]).
    ///
    /// The order is split into [`BATCH_LANES`]-wide lane groups and each
    /// group goes to [`ClusterAutomaton::scan_batch`], which picks the
    /// driver per automaton from its table size; per-lane results equal
    /// the single-sequence scan either way. The grouping is fixed, not
    /// thread-dependent, so it is part of the deterministic plan. When
    /// `trace` is given, each worker records `pairs_scored`,
    /// `pairs_pruned` and one `score_row` latency observation per lane
    /// group into its own shard. The kernel argument chooses nothing: the
    /// tables baked into `automata` already fix what is scanned.
    ///
    /// `automata` is generic over [`Borrow`] so both owned
    /// `[ClusterAutomaton]` slices and `[std::sync::Arc<ClusterAutomaton>]`
    /// slices handed out by the model cache score identically.
    #[allow(clippy::too_many_arguments)]
    pub fn score_sequences_automata_metered<A: Borrow<ClusterAutomaton> + Sync>(
        &self,
        store: &dyn SequenceStore,
        automata: &[A],
        order: &[usize],
        prune_below: Option<f64>,
        _kernel: ScanKernel,
        trace: Option<&TraceSession>,
    ) -> (Vec<Vec<BoundedSimilarity>>, u64) {
        let start = std::time::Instant::now();
        let n_groups = order.len().div_ceil(BATCH_LANES);
        let chunk = plan_chunk(n_groups, self.threads);
        let group_rows: Vec<Vec<Vec<BoundedSimilarity>>> = parallel_map_with(
            n_groups,
            self.threads,
            || store.reader(),
            |reader, g| {
                let group_start = std::time::Instant::now();
                let lo = g * BATCH_LANES;
                let hi = (lo + BATCH_LANES).min(order.len());
                // The lane driver needs every lane's symbols alive at
                // once; a reader hands out one slice at a time, so the
                // lanes are copied into an owned arena first.
                let lanes: Vec<Sequence> =
                    (lo..hi).map(|pos| reader.sequence(order[pos])).collect();
                let seqs: Vec<&[Symbol]> = lanes.iter().map(Sequence::symbols).collect();
                let mut rows: Vec<Vec<BoundedSimilarity>> = (lo..hi)
                    .map(|_| Vec::with_capacity(automata.len()))
                    .collect();
                for automaton in automata {
                    let lane_verdicts = automaton.borrow().scan_batch(&seqs, prune_below);
                    for (lane, verdict) in lane_verdicts.into_iter().enumerate() {
                        rows[lane].push(verdict);
                    }
                }
                if let Some(trace) = trace {
                    let shard = trace::shard_for(g, chunk);
                    let scored = (rows.len() * automata.len()) as u64;
                    let pruned: u64 = rows.iter().map(|row| prune_count(row)).sum();
                    trace.add_at(shard, Counter::PairsScored, scored);
                    trace.add_at(shard, Counter::PairsPruned, pruned);
                    trace.observe(HistKind::ScoreRow, shard, trace::nanos_since(group_start));
                }
                rows
            },
        );
        (
            group_rows.into_iter().flatten().collect(),
            trace::nanos_since(start),
        )
    }

    /// A snapshot scoring pass that reuses cached columns for clean
    /// clusters and scores only dirty ones (see [`crate::incremental`]).
    ///
    /// `rows[pos][slot]` is the verdict of sequence `order[pos]` against
    /// `clusters[slot]`: read straight from `cache` when the cluster has a
    /// valid column, computed fresh otherwise. Fresh verdicts use `kernel`
    /// (automata are built here, for dirty slots only) and honor
    /// `prune_below` under the compiled kernel, exactly like the uncached
    /// paths — so with an empty cache the rows are bit-identical to
    /// [`score_sequences_automata_metered`](ScoreEngine::score_sequences_automata_metered)
    /// (or the interpreted equivalent wrapped in
    /// [`BoundedSimilarity::Exact`]). Dirty slots are scored one pair at
    /// a time, which is the lane driver's per-lane arithmetic, so a column
    /// cached by one pass and reused by the next upholds the cache's
    /// replay invariant.
    ///
    /// When `trace` is given, each worker records `pairs_scored` and
    /// `pairs_pruned` for its *fresh* pairs and `pairs_reused` for its
    /// cache hits, into its own shard.
    #[allow(clippy::too_many_arguments)]
    pub fn score_sequences_cached(
        &self,
        store: &dyn SequenceStore,
        clusters: &[Cluster],
        background: &BackgroundModel,
        order: &[usize],
        kernel: ScanKernel,
        prune_below: Option<f64>,
        cache: &SimilarityCache,
        trace: Option<&TraceSession>,
    ) -> CachedScorePass {
        let start = std::time::Instant::now();
        let columns: Vec<Option<&[BoundedSimilarity]>> =
            clusters.iter().map(|c| cache.column(c.id)).collect();
        let dirty_slots: Vec<usize> = columns
            .iter()
            .enumerate()
            .filter_map(|(slot, col)| col.is_none().then_some(slot))
            .collect();
        // Build automata for dirty slots only — clean slots never touch
        // their model, so steady state pays zero compilation.
        let automata: Vec<Option<ClusterAutomaton>> = if kernel.uses_automaton() {
            let _span = trace
                .filter(|_| !dirty_slots.is_empty())
                .map(|t| t.span(Phase::AutomatonCompile));
            parallel_map(clusters.len(), self.threads, |slot| {
                columns[slot].is_none().then(|| {
                    ClusterAutomaton::build(&clusters[slot].pst, background, kernel)
                        .expect("automaton-backed kernel")
                })
            })
        } else {
            clusters.iter().map(|_| None).collect()
        };
        let compiles = automata.iter().flatten().count() as u64;
        let chunk = plan_chunk(order.len(), self.threads);
        let rows = parallel_map_with(
            order.len(),
            self.threads,
            || store.reader(),
            |reader, pos| {
                let row_start = std::time::Instant::now();
                let id = order[pos];
                let seq = reader.symbols(id);
                let mut scratch: Vec<cluseq_seq::Symbol> = Vec::new();
                let mut fresh = 0u64;
                let mut fresh_pruned = 0u64;
                let row: Vec<BoundedSimilarity> = columns
                    .iter()
                    .enumerate()
                    .map(|(slot, col)| match col {
                        Some(col) => col[id],
                        None => {
                            fresh += 1;
                            let verdict = match &automata[slot] {
                                Some(automaton) => automaton.scan_pruned(seq, prune_below),
                                None => BoundedSimilarity::Exact(max_similarity_pst_with_scratch(
                                    &clusters[slot].pst,
                                    background,
                                    seq,
                                    &mut scratch,
                                )),
                            };
                            if verdict.is_pruned() {
                                fresh_pruned += 1;
                            }
                            verdict
                        }
                    })
                    .collect();
                if let Some(trace) = trace {
                    let shard = trace::shard_for(pos, chunk);
                    trace.add_at(shard, Counter::PairsScored, fresh);
                    trace.add_at(shard, Counter::PairsPruned, fresh_pruned);
                    trace.add_at(shard, Counter::PairsReused, row.len() as u64 - fresh);
                    trace.observe(HistKind::ScoreRow, shard, trace::nanos_since(row_start));
                }
                row
            },
        );
        CachedScorePass {
            rows,
            nanos: trace::nanos_since(start),
            dirty_slots,
            compiles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluseq_pst::PstParams;
    use cluseq_seq::SequenceDatabase;

    #[test]
    fn parallel_map_with_matches_parallel_map_for_any_thread_count() {
        for n in [0usize, 1, 3, 7, 64, 100] {
            let serial: Vec<usize> = (0..n).map(|i| i * 3 + 1).collect();
            for threads in [1usize, 2, 4, 8, 200] {
                // State buffers scratch but never changes the output.
                let got = parallel_map_with(n, threads, Vec::<usize>::new, |scratch, i| {
                    scratch.push(i);
                    i * 3 + 1
                });
                assert_eq!(got, serial, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_map_with_initializes_one_state_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        // Serial path: exactly one state.
        parallel_map_with(3, 1, || inits.fetch_add(1, Ordering::SeqCst), |_, i| i);
        assert_eq!(inits.swap(0, Ordering::SeqCst), 1);
        // Parallel path: one per spawned worker.
        parallel_map_with(64, 4, || inits.fetch_add(1, Ordering::SeqCst), |_, i| i);
        assert_eq!(inits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn parallel_map_equals_serial_map() {
        for n in [0usize, 1, 2, 3, 7, 64, 100] {
            let serial: Vec<usize> = (0..n).map(|i| i * i + 1).collect();
            for threads in [1usize, 2, 3, 4, 8, 200] {
                let parallel = parallel_map(n, threads, |i| i * i + 1);
                assert_eq!(parallel, serial, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_map_preserves_float_bits() {
        // A float-heavy function whose result would differ under any
        // reduction reordering; chunked mapping must not reorder anything.
        let f = |i: usize| {
            let mut acc = 0.1f64;
            for k in 0..=i {
                acc = (acc * 1.7 + k as f64).sin();
            }
            acc
        };
        let serial: Vec<u64> = (0..257).map(|i| f(i).to_bits()).collect();
        for threads in [2usize, 5, 16] {
            let parallel: Vec<u64> = parallel_map(257, threads, f)
                .into_iter()
                .map(f64::to_bits)
                .collect();
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn thread_count_is_clamped_not_trusted() {
        assert_eq!(parallel_map(3, 0, |i| i), vec![0, 1, 2]);
        assert_eq!(parallel_map(3, usize::MAX, |i| i), vec![0, 1, 2]);
        assert!(parallel_map(0, 8, |i| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "scoring worker panicked")]
    fn worker_panics_propagate() {
        parallel_map(64, 4, |i| {
            if i == 40 {
                panic!("deliberate");
            }
            i
        });
    }

    fn fixture() -> (SequenceDatabase, BackgroundModel, Vec<Cluster>) {
        let texts = [
            "abababababababab",
            "abababababababab",
            "cccccccccccccccc",
            "cccccccccccccccc",
            "abcabcabcabcabca",
        ];
        let db = SequenceDatabase::from_strs(texts);
        let bg = db.background();
        let params = PstParams::default().with_significance(2);
        let clusters = [0usize, 2]
            .iter()
            .enumerate()
            .map(|(i, &s)| Cluster::from_seed(i, s, db.sequence(s), db.alphabet().len(), params))
            .collect();
        (db, bg, clusters)
    }

    /// Two clusters seeded on long pseudo-random texts over 24 letters,
    /// every context significant, so their automata overflow
    /// [`crate::kernel::LANE_CROSSOVER_BYTES`] and bulk passes run the
    /// lane driver; 19 probes of mixed lengths leave a partial lane group.
    fn large_fixture() -> (SequenceDatabase, BackgroundModel, Vec<Cluster>) {
        let mut x = 0x2545_f491u32;
        let mut text = |len: usize| -> String {
            (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    char::from(b'a' + (x % 24) as u8)
                })
                .collect()
        };
        let mut texts = vec![text(3_000), text(3_000)];
        for i in 0..17 {
            texts.push(match i % 3 {
                0 => texts[0][i * 40..i * 40 + 30 + 7 * i].to_string(),
                1 => texts[1][i * 50..i * 50 + 90].to_string(),
                _ => text(20 + 11 * i),
            });
        }
        let db = SequenceDatabase::from_strs(texts.iter().map(String::as_str));
        let bg = db.background();
        let params = PstParams::default().with_significance(1).with_max_depth(4);
        let clusters = (0..2)
            .map(|s| Cluster::from_seed(s, s, db.sequence(s), db.alphabet().len(), params))
            .collect();
        (db, bg, clusters)
    }

    /// Per-pair reference rows: every sequence of `order` scanned one at a
    /// time through [`ClusterAutomaton::scan_pruned`].
    fn per_pair_rows(
        db: &SequenceDatabase,
        automata: &[ClusterAutomaton],
        order: &[usize],
        prune_below: Option<f64>,
    ) -> Vec<Vec<BoundedSimilarity>> {
        order
            .iter()
            .map(|&id| {
                automata
                    .iter()
                    .map(|a| a.scan_pruned(db.sequence(id).symbols(), prune_below))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn engine_matches_direct_scoring_for_any_thread_count() {
        let (db, bg, clusters) = fixture();
        let order: Vec<usize> = vec![4, 0, 3, 1, 2];
        let direct: Vec<Vec<SegmentSimilarity>> = order
            .iter()
            .map(|&id| {
                clusters
                    .iter()
                    .map(|c| max_similarity_pst(&c.pst, &bg, db.sequence(id).symbols()))
                    .collect()
            })
            .collect();
        for threads in [1usize, 2, 4, 8] {
            let engine = ScoreEngine::new(threads);
            assert_eq!(
                engine.score_sequences(&db, &clusters, &bg, &order),
                direct,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn timed_scoring_returns_identical_rows() {
        let (db, bg, clusters) = fixture();
        let order: Vec<usize> = (0..db.len()).collect();
        let engine = ScoreEngine::new(2);
        let plain = engine.score_sequences(&db, &clusters, &bg, &order);
        let (timed, _nanos) = engine.score_sequences_metered(&db, &clusters, &bg, &order, None);
        assert_eq!(plain, timed);
    }

    #[test]
    fn compiled_engine_matches_interpreted_engine_bit_for_bit() {
        let (db, bg, clusters) = fixture();
        let order: Vec<usize> = vec![4, 0, 3, 1, 2];
        let engine = ScoreEngine::new(3);
        let interpreted = engine.score_sequences(&db, &clusters, &bg, &order);
        let automata = engine.compile_cluster_automata(&clusters, &bg, ScanKernel::Compiled);
        let (fast, _nanos) = engine.score_sequences_automata_metered(
            &db,
            &automata,
            &order,
            None,
            ScanKernel::Compiled,
            None,
        );
        for (pos, row) in fast.iter().enumerate() {
            for (slot, verdict) in row.iter().enumerate() {
                let got = verdict.exact().expect("unpruned scoring is exact");
                let want = interpreted[pos][slot];
                assert_eq!(got.log_sim.to_bits(), want.log_sim.to_bits());
                assert_eq!((got.start, got.end), (want.start, want.end));
            }
        }
    }

    #[test]
    fn compiled_engine_pruning_never_hides_a_join() {
        let (db, bg, clusters) = fixture();
        let order: Vec<usize> = (0..db.len()).collect();
        let engine = ScoreEngine::new(2);
        let exact = engine.score_sequences(&db, &clusters, &bg, &order);
        let automata = engine.compile_cluster_automata(&clusters, &bg, ScanKernel::Compiled);
        let log_t = 0.5f64;
        let (bounded, _) = engine.score_sequences_automata_metered(
            &db,
            &automata,
            &order,
            Some(log_t),
            ScanKernel::Compiled,
            None,
        );
        for (pos, row) in bounded.iter().enumerate() {
            for (slot, verdict) in row.iter().enumerate() {
                match verdict {
                    BoundedSimilarity::Exact(s) => {
                        assert_eq!(s.log_sim.to_bits(), exact[pos][slot].log_sim.to_bits());
                    }
                    BoundedSimilarity::Pruned => {
                        assert!(
                            exact[pos][slot].log_sim < log_t,
                            "pruned pair ({pos},{slot}) actually scores {}",
                            exact[pos][slot].log_sim
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn metered_scoring_is_identical_and_counts_pairs() {
        let (db, bg, clusters) = fixture();
        let order: Vec<usize> = (0..db.len()).collect();
        for threads in [1usize, 4] {
            let engine = ScoreEngine::new(threads);
            let session = TraceSession::in_memory();
            let plain = engine.score_sequences(&db, &clusters, &bg, &order);
            let (metered, _) =
                engine.score_sequences_metered(&db, &clusters, &bg, &order, Some(&session));
            assert_eq!(plain, metered, "threads={threads}");
            let expected = (order.len() * clusters.len()) as u64;
            assert_eq!(session.counter(Counter::PairsScored), expected);
            assert_eq!(session.counter(Counter::PairsPruned), 0);
            let hist = session.shared().hist_counts(HistKind::ScoreRow);
            assert_eq!(hist.iter().sum::<u64>(), order.len() as u64);
        }
    }

    #[test]
    fn batched_engine_is_bit_identical_to_compiled_engine() {
        for (db, bg, clusters) in [fixture(), large_fixture()] {
            let order: Vec<usize> = (0..db.len()).rev().collect();
            let automata =
                ScoreEngine::new(1).compile_cluster_automata(&clusters, &bg, ScanKernel::Compiled);
            for prune_below in [None, Some(0.5)] {
                let want = per_pair_rows(&db, &automata, &order, prune_below);
                for threads in [1usize, 2, 4] {
                    let (rows, _) = ScoreEngine::new(threads).score_sequences_automata_metered(
                        &db,
                        &automata,
                        &order,
                        prune_below,
                        ScanKernel::Compiled,
                        None,
                    );
                    assert_eq!(
                        rows,
                        want,
                        "{} sequences, threads={threads} prune={prune_below:?}",
                        db.len()
                    );
                }
            }
        }
    }

    #[test]
    fn metered_automata_scoring_counts_pairs_under_both_drivers() {
        let mut drivers = Vec::new();
        for (db, bg, clusters) in [fixture(), large_fixture()] {
            let order: Vec<usize> = (0..db.len()).collect();
            let automata =
                ScoreEngine::new(1).compile_cluster_automata(&clusters, &bg, ScanKernel::Compiled);
            let lanes = automata[0].interleaves_lanes();
            assert!(automata.iter().all(|a| a.interleaves_lanes() == lanes));
            drivers.push(lanes);
            for threads in [1usize, 4] {
                let engine = ScoreEngine::new(threads);
                let session = TraceSession::in_memory();
                let (plain, _) = engine.score_sequences_automata_metered(
                    &db,
                    &automata,
                    &order,
                    Some(0.5),
                    ScanKernel::Compiled,
                    None,
                );
                let (metered, _) = engine.score_sequences_automata_metered(
                    &db,
                    &automata,
                    &order,
                    Some(0.5),
                    ScanKernel::Compiled,
                    Some(&session),
                );
                assert_eq!(plain, metered, "lanes={lanes} threads={threads}");
                let expected = (order.len() * clusters.len()) as u64;
                assert_eq!(session.counter(Counter::PairsScored), expected);
                let pruned: u64 = plain.iter().map(|row| prune_count(row)).sum();
                assert_eq!(session.counter(Counter::PairsPruned), pruned);
                let hist = session.shared().hist_counts(HistKind::ScoreRow);
                assert_eq!(
                    hist.iter().sum::<u64>(),
                    order.len().div_ceil(BATCH_LANES) as u64,
                    "one score_row observation per lane group"
                );
            }
        }
        assert_eq!(drivers, [false, true], "both drivers must be covered");
    }

    #[test]
    fn cached_scoring_with_empty_cache_matches_uncached() {
        let (db, bg, clusters) = fixture();
        let order: Vec<usize> = vec![4, 0, 3, 1, 2];
        let empty = SimilarityCache::new(db.len());
        for threads in [1usize, 4] {
            let engine = ScoreEngine::new(threads);
            let automata = engine.compile_cluster_automata(&clusters, &bg, ScanKernel::Compiled);
            for prune_below in [None, Some(0.5)] {
                let pass = engine.score_sequences_cached(
                    &db,
                    &clusters,
                    &bg,
                    &order,
                    ScanKernel::Compiled,
                    prune_below,
                    &empty,
                    None,
                );
                let (want, _) = engine.score_sequences_automata_metered(
                    &db,
                    &automata,
                    &order,
                    prune_below,
                    ScanKernel::Compiled,
                    None,
                );
                assert_eq!(pass.rows, want, "threads={threads} prune={prune_below:?}");
                assert_eq!(pass.dirty_slots, vec![0, 1]);
                assert_eq!(pass.compiles, clusters.len() as u64);
            }
            let pass = engine.score_sequences_cached(
                &db,
                &clusters,
                &bg,
                &order,
                ScanKernel::Interpreted,
                None,
                &empty,
                None,
            );
            let want = engine.score_sequences(&db, &clusters, &bg, &order);
            for (pos, row) in pass.rows.iter().enumerate() {
                for (slot, verdict) in row.iter().enumerate() {
                    assert_eq!(verdict.exact().unwrap(), want[pos][slot]);
                }
            }
            assert_eq!(pass.compiles, 0);
        }
    }

    #[test]
    fn cached_scoring_reuses_columns_and_meters_reuse() {
        let (db, bg, clusters) = fixture();
        let order: Vec<usize> = (0..db.len()).collect();
        let engine = ScoreEngine::new(2);
        let automata = engine.compile_cluster_automata(&clusters, &bg, ScanKernel::Compiled);
        let full = per_pair_rows(&db, &automata, &order, None);

        // Cache cluster 0's column (a deliberately wrong sentinel value so
        // reuse is observable), leave cluster 1 dirty.
        let sentinel = SegmentSimilarity {
            log_sim: 123.0,
            start: 0,
            end: 1,
        };
        let mut cache = SimilarityCache::new(db.len());
        cache.install(
            clusters[0].id,
            vec![BoundedSimilarity::Exact(sentinel); db.len()],
        );

        let session = TraceSession::in_memory();
        let pass = engine.score_sequences_cached(
            &db,
            &clusters,
            &bg,
            &order,
            ScanKernel::Compiled,
            None,
            &cache,
            Some(&session),
        );
        assert_eq!(pass.dirty_slots, vec![1]);
        assert_eq!(pass.compiles, 1);
        for (pos, row) in pass.rows.iter().enumerate() {
            assert_eq!(row[0], BoundedSimilarity::Exact(sentinel), "reused");
            assert_eq!(row[1], full[pos][1], "fresh");
        }
        let n = order.len() as u64;
        assert_eq!(session.counter(Counter::PairsScored), n);
        assert_eq!(session.counter(Counter::PairsReused), n);
        assert_eq!(session.counter(Counter::PairsPruned), 0);
    }

    #[test]
    fn file_backed_store_scores_bit_identically_to_the_database() {
        let dir = std::env::temp_dir().join(format!("cluseq-score-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (name, (db, bg, clusters)) in [("small", fixture()), ("large", large_fixture())] {
            let path = dir.join(format!("{name}.cseq"));
            cluseq_seq::store::write_indexed(&db, &path).unwrap();
            // A tiny window forces slides mid-chunk; scores must not notice.
            let store = cluseq_seq::FileStore::open_windowed(&path, 16).unwrap();
            let order: Vec<usize> = (0..db.len()).rev().collect();
            for threads in [1usize, 3] {
                let engine = ScoreEngine::new(threads);
                let resident = engine.score_sequences(&db, &clusters, &bg, &order);
                let streamed = engine.score_sequences(&store, &clusters, &bg, &order);
                assert_eq!(resident, streamed, "{name} threads={threads}");
                let automata =
                    engine.compile_cluster_automata(&clusters, &bg, ScanKernel::Compiled);
                for prune_below in [None, Some(0.5)] {
                    let score = |store: &dyn SequenceStore| {
                        engine
                            .score_sequences_automata_metered(
                                store,
                                &automata,
                                &order,
                                prune_below,
                                ScanKernel::Compiled,
                                None,
                            )
                            .0
                    };
                    assert_eq!(
                        score(&db),
                        score(&store),
                        "{name} threads={threads} prune={prune_below:?}"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn plan_chunk_matches_parallel_map_layout() {
        // Serial path: single chunk covering everything.
        assert_eq!(plan_chunk(5, 1), 5);
        assert_eq!(plan_chunk(7, 4), 7); // n < 2*threads => serial
        assert_eq!(plan_chunk(0, 4), 1);
        // Parallel path: ceil(n / clamped_threads).
        assert_eq!(plan_chunk(100, 4), 25);
        assert_eq!(plan_chunk(9, 4), 3);
    }

    #[test]
    fn engine_scores_ids_against_one_pst() {
        let (db, bg, clusters) = fixture();
        let ids = [1usize, 2, 4];
        let engine = ScoreEngine::new(4);
        let got = engine.score_sequences(&db, &clusters[..1], &bg, &ids);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(
                got[i],
                vec![max_similarity_pst(
                    &clusters[0].pst,
                    &bg,
                    db.sequence(id).symbols()
                )]
            );
        }
    }
}
