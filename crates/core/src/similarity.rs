//! The CLUSEQ similarity measure and its dynamic program (§2, §4.3).
//!
//! `SIM_S(σ) = max over segments s_j…s_i of σ of P_S(segment) / Pʳ(segment)`
//! where `P_S` predicts under the cluster model and `Pʳ` under the
//! memoryless background. The paper computes it in one scan with the
//! recurrences
//!
//! ```text
//! Xᵢ = P_S(sᵢ | s₁…sᵢ₋₁) / p(sᵢ)
//! Yᵢ = max(Yᵢ₋₁ · Xᵢ, Xᵢ)        (best segment ending at i)
//! Zᵢ = max(Zᵢ₋₁, Yᵢ)             (best segment ending at or before i)
//! ```
//!
//! We work in **log space**: the paper's sequences run to thousands of
//! symbols, and a product of per-symbol ratios around 2 overflows `f64`
//! within a few hundred steps. All scores in this crate are natural
//! logarithms of the paper's similarity values ([`LogSim`]); `SIM ≥ t`
//! becomes `log SIM ≥ ln t`.

use cluseq_pst::{CompiledPst, ConditionalModel, Pst};
use cluseq_seq::{BackgroundModel, Symbol};

/// A similarity score in natural-log space (`ln SIM`).
///
/// `0.0` corresponds to the paper's `SIM = 1` — the boundary where a
/// sequence is no better explained by the cluster than by background noise.
pub type LogSim = f64;

/// The outcome of a similarity evaluation: the best score and the
/// maximizing segment `[start, end)` of the examined sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentSimilarity {
    /// `ln SIM_S(σ)`.
    pub log_sim: LogSim,
    /// Start (inclusive) of the maximizing segment.
    pub start: usize,
    /// End (exclusive) of the maximizing segment.
    pub end: usize,
}

impl SegmentSimilarity {
    /// The similarity in the paper's natural units (`exp` of the log).
    pub fn sim(&self) -> f64 {
        self.log_sim.exp()
    }

    /// Length of the maximizing segment.
    pub fn segment_len(&self) -> usize {
        self.end - self.start
    }
}

/// Computes `SIM_S(σ)` and its maximizing segment via the X/Y/Z dynamic
/// program, in a single scan of `seq`.
///
/// Per the paper, `Xᵢ` conditions on the *full prefix* `s₁…sᵢ₋₁` (the
/// model's longest-significant-suffix lookup truncates it internally);
/// this is what makes the single-scan recurrence exact for the measure the
/// paper evaluates.
///
/// An empty sequence has no non-empty segment: the result carries
/// `log_sim = -∞` and the empty segment `[0, 0)`.
///
/// ```
/// use cluseq_core::max_similarity;
/// use cluseq_pst::{Pst, PstParams};
/// use cluseq_seq::{Alphabet, BackgroundModel, Sequence};
///
/// let alphabet = Alphabet::from_chars("ab".chars());
/// let train = Sequence::parse_str(&alphabet, "abababababab").unwrap();
/// let pst = Pst::from_sequence(2, PstParams::default().with_significance(2), &train);
/// let bg = BackgroundModel::uniform(2);
///
/// // A probe matching the learned alternation scores far above 1 (> 0 in
/// // log space); its maximizing segment covers the whole probe.
/// let probe = Sequence::parse_str(&alphabet, "ababab").unwrap();
/// let sim = max_similarity(&pst, &bg, probe.symbols());
/// assert!(sim.log_sim > 1.0);
/// assert_eq!((sim.start, sim.end), (0, probe.len()));
/// ```
pub fn max_similarity<M: ConditionalModel>(
    model: &M,
    background: &BackgroundModel,
    seq: &[Symbol],
) -> SegmentSimilarity {
    let mut best = SegmentSimilarity {
        log_sim: f64::NEG_INFINITY,
        start: 0,
        end: 0,
    };
    // Y-state: best chain ending at the current position, and its start.
    let mut y = f64::NEG_INFINITY;
    let mut y_start = 0usize;

    for i in 0..seq.len() {
        let p_model = model.predict(&seq[..i], seq[i]);
        debug_assert!(
            background.prob(seq[i]) > 0.0,
            "background probabilities must be positive"
        );
        // ln Xᵢ; a raw model probability of 0 (no smoothing) gives -∞,
        // which correctly voids any chain through position i.
        let x = p_model.ln() - background.ln_prob(seq[i]);

        // Yᵢ = max(Yᵢ₋₁·Xᵢ, Xᵢ) — extend the chain or restart at i.
        let extended = y + x;
        if extended >= x {
            y = extended;
        } else {
            y = x;
            y_start = i;
        }

        // Zᵢ = max(Zᵢ₋₁, Yᵢ).
        if y > best.log_sim {
            best = SegmentSimilarity {
                log_sim: y,
                start: y_start,
                end: i + 1,
            };
        }
    }
    best
}

/// [`max_similarity`] specialized to a [`Pst`] via its incremental
/// [scanner](cluseq_pst::ContextScanner) — the paper's auxiliary-link O(l)
/// variant. Produces bit-identical results to the generic version (the
/// scanner is exact, falling back to per-position walks after pruning);
/// only the per-position prediction cost changes.
///
/// This is the path the clustering driver uses: the similarity scan is the
/// dominant cost of CLUSEQ (every sequence × every cluster × every
/// iteration).
pub fn max_similarity_pst(
    pst: &Pst,
    background: &BackgroundModel,
    seq: &[Symbol],
) -> SegmentSimilarity {
    let mut scratch = Vec::new();
    max_similarity_pst_with_scratch(pst, background, seq, &mut scratch)
}

/// [`max_similarity_pst`] with a caller-supplied scanner scratch buffer.
///
/// The interpreted scanner needs a fallback context buffer after PST
/// pruning breaks the right-link structure; allocating it per (sequence,
/// cluster) pair makes the allocator a hot-loop cost — worst when the
/// incremental cache skips most pairs and the remaining fresh evaluations
/// are interleaved with allocator-free cache hits. Threading one buffer
/// through a whole scan keeps reuse paths allocation-free. Results are
/// bit-identical to [`max_similarity_pst`].
pub fn max_similarity_pst_with_scratch(
    pst: &Pst,
    background: &BackgroundModel,
    seq: &[Symbol],
    scratch: &mut Vec<Symbol>,
) -> SegmentSimilarity {
    let mut best = SegmentSimilarity {
        log_sim: f64::NEG_INFINITY,
        start: 0,
        end: 0,
    };
    let mut y = f64::NEG_INFINITY;
    let mut y_start = 0usize;
    let mut scanner = pst.scanner_with_scratch(std::mem::take(scratch));

    for (i, &sym) in seq.iter().enumerate() {
        let p_model = scanner.predict_and_advance(sym);
        let x = p_model.ln() - background.ln_prob(sym);
        let extended = y + x;
        if extended >= x {
            y = extended;
        } else {
            y = x;
            y_start = i;
        }
        if y > best.log_sim {
            best = SegmentSimilarity {
                log_sim: y,
                start: y_start,
                end: i + 1,
            };
        }
    }
    *scratch = scanner.into_scratch();
    best
}

/// How often [`max_similarity_compiled_bounded`] re-evaluates its prune
/// bound, in symbols. Checking every position would spend more on bound
/// arithmetic than it saves; every 32 symbols the overhead is noise while
/// a hopeless pair is still abandoned almost immediately.
const PRUNE_CHECK_INTERVAL: usize = 32;

/// Safety margin for the early-exit decision. The upper bound is computed
/// with a different (shorter) chain of f64 operations than the DP itself,
/// so the two can disagree by accumulated rounding — at most a few ulps
/// per position, i.e. ≲1e-7 even for million-symbol sequences at the
/// paper's score magnitudes. Requiring the bound to clear the threshold by
/// this much before pruning makes rounding divergence irrelevant while
/// giving up no meaningful pruning power.
const PRUNE_SLACK: f64 = 1e-6;

/// [`max_similarity`] over a [`CompiledPst`]: the same X/Y/Z dynamic
/// program with the per-symbol model interpretation replaced by two array
/// loads (see [`cluseq_pst::compile`]).
///
/// Bit-identical to [`max_similarity_pst`] on the tree the automaton was
/// compiled from: the precomputed ratio table holds the same f64 values
/// the interpreted path computes per symbol, and the DP accumulates them
/// in the same order.
pub fn max_similarity_compiled(compiled: &CompiledPst, seq: &[Symbol]) -> SegmentSimilarity {
    let mut best = SegmentSimilarity {
        log_sim: f64::NEG_INFINITY,
        start: 0,
        end: 0,
    };
    let mut y = f64::NEG_INFINITY;
    let mut y_start = 0usize;
    let mut state = CompiledPst::START;

    for (i, &sym) in seq.iter().enumerate() {
        let (x, next) = compiled.step(state, sym);
        state = next;
        let extended = y + x;
        if extended >= x {
            y = extended;
        } else {
            y = x;
            y_start = i;
        }
        if y > best.log_sim {
            best = SegmentSimilarity {
                log_sim: y,
                start: y_start,
                end: i + 1,
            };
        }
    }
    best
}

/// The outcome of a threshold-bounded similarity evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundedSimilarity {
    /// The scan ran to completion; the similarity is exact and
    /// bit-identical to the unbounded kernels.
    Exact(SegmentSimilarity),
    /// The scan proved mid-sequence that no segment can reach the
    /// threshold and exited early. The (unknown) exact similarity is
    /// strictly below the threshold the caller passed.
    Pruned,
}

impl BoundedSimilarity {
    /// The exact result, if the scan was not pruned.
    pub fn exact(self) -> Option<SegmentSimilarity> {
        match self {
            Self::Exact(s) => Some(s),
            Self::Pruned => None,
        }
    }

    /// Whether the scan early-exited.
    pub fn is_pruned(self) -> bool {
        matches!(self, Self::Pruned)
    }
}

/// How many entries of a scored row were pruned — the per-row kernel
/// early-exit count the tracing layer records at the worker that produced
/// the row.
pub fn prune_count(row: &[BoundedSimilarity]) -> u64 {
    row.iter().filter(|v| v.is_pruned()).count() as u64
}

/// [`max_similarity_compiled`] with threshold early-exit: once no suffix
/// extension can reach `threshold` (in log space), the scan abandons the
/// pair and reports [`BoundedSimilarity::Pruned`].
///
/// The bound: at position `i` with chain value `y` and automaton state
/// `u`, every later chain value is at most
///
/// ```text
/// max(max(y, 0) + best_step(u), 0) + (rem − 1) · max_step_plus
/// ```
///
/// where `rem` is the number of unconsumed symbols — the next position
/// contributes at most `best_step(u)` on top of either the current chain
/// or a restart, and each position after that at most `max_step_plus`
/// (clamped at zero because a chain can always restart). When that bound
/// cannot reach `threshold` (minus the `PRUNE_SLACK` guard of 1e-6) and no prior segment
/// reached it either, no future `Z` update can matter to a caller who only
/// asks "is the similarity ≥ threshold".
///
/// When the scan is *not* pruned the result is exact — identical to
/// [`max_similarity_compiled`] bit for bit, because the bound checks never
/// touch the DP state.
pub fn max_similarity_compiled_bounded(
    compiled: &CompiledPst,
    seq: &[Symbol],
    threshold: f64,
) -> BoundedSimilarity {
    let mut best = SegmentSimilarity {
        log_sim: f64::NEG_INFINITY,
        start: 0,
        end: 0,
    };
    let mut y = f64::NEG_INFINITY;
    let mut y_start = 0usize;
    let mut state = CompiledPst::START;

    for (i, &sym) in seq.iter().enumerate() {
        if i % PRUNE_CHECK_INTERVAL == 0 && best.log_sim < threshold {
            let rem = (seq.len() - i) as f64;
            let bound = (y.max(0.0) + compiled.best_step(state)).max(0.0)
                + (rem - 1.0) * compiled.max_step_plus();
            if bound < threshold - PRUNE_SLACK {
                return BoundedSimilarity::Pruned;
            }
        }
        let (x, next) = compiled.step(state, sym);
        state = next;
        let extended = y + x;
        if extended >= x {
            y = extended;
        } else {
            y = x;
            y_start = i;
        }
        if y > best.log_sim {
            best = SegmentSimilarity {
                log_sim: y,
                start: y_start,
                end: i + 1,
            };
        }
    }
    BoundedSimilarity::Exact(best)
}

/// How many sequences the batched scan paths interleave against one
/// automaton. Eight lanes give the memory system eight independent table
/// loads per position (vs. one dependent chain for the single-sequence
/// scan) while the per-lane DP registers still fit in machine registers /
/// L1. Fixed — not thread-count dependent — so the engine's lane grouping
/// is part of the deterministic plan.
pub const BATCH_LANES: usize = 8;

/// Batched [`max_similarity_compiled`]: scans up to [`BATCH_LANES`] (or
/// any number of) sequences against one automaton, interleaved position by
/// position so the goto/ratio tables stay cache-hot across lanes.
///
/// **Bit-identity.** Each lane performs exactly the operation sequence of
/// the single-sequence scan — same f64 additions and comparisons in the
/// same per-lane order, same prune checks at the same positions — so
/// `out[lane]` is bit-identical to
/// [`max_similarity_compiled_bounded`]`(compiled, seqs[lane], t)` (or to
/// `Exact(`[`max_similarity_compiled`]`)` with `threshold = None`),
/// including *which* lanes prune. Only the cross-lane interleaving — which
/// no lane's arithmetic observes — differs.
///
/// A lane leaves the batch when its sequence is exhausted or its prune
/// bound trips; the scan ends when every lane is done. Empty sequences
/// yield the empty-segment `-∞` verdict, exactly like the single scans.
///
/// More than [`BATCH_LANES`] sequences are processed in chunks of
/// `BATCH_LANES`, grouped by length (see `length_grouped_order`) —
/// invisible per lane, since no lane's arithmetic ever observes another
/// lane; results come back in input order.
pub fn max_similarity_compiled_batch(
    compiled: &CompiledPst,
    seqs: &[&[Symbol]],
    threshold: Option<f64>,
) -> Vec<BoundedSimilarity> {
    let empty = SegmentSimilarity {
        log_sim: f64::NEG_INFINITY,
        start: 0,
        end: 0,
    };
    let mut out = vec![BoundedSimilarity::Exact(empty); seqs.len()];
    for chunk in length_grouped_order(seqs).chunks(BATCH_LANES) {
        // Lanes the chunk scan never writes (empty sequences are born
        // retired) must keep the empty-segment verdict.
        let mut chunk_out = [BoundedSimilarity::Exact(empty); BATCH_LANES];
        let mut lanes: [&[Symbol]; BATCH_LANES] = [&[]; BATCH_LANES];
        for (slot, &idx) in chunk.iter().enumerate() {
            lanes[slot] = seqs[idx];
        }
        compiled_batch_lanes(
            compiled,
            &lanes[..chunk.len()],
            threshold,
            &mut chunk_out[..chunk.len()],
        );
        for (&idx, verdict) in chunk.iter().zip(&chunk_out) {
            out[idx] = *verdict;
        }
    }
    out
}

/// The lane-grouping order for a batched scan: sequence indices sorted by
/// descending length (ties by input order, so the grouping is
/// deterministic); callers chunk it into [`BATCH_LANES`]-sized groups of
/// *similar length*.
///
/// Lanes in a chunk advance in lockstep, so a chunk is only as fast as
/// its length spread allows — once the shortest lane retires, the
/// synchronized fast phase is over and stragglers finish on the
/// guarded path. Sorting makes chunks length-homogeneous. Legal because
/// lanes never interact: each lane's verdict is a pure function of
/// (automaton, sequence, threshold), so per-lane bit-identity survives
/// any grouping.
fn length_grouped_order(seqs: &[&[Symbol]]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..seqs.len()).collect();
    order.sort_by_key(|&idx| (usize::MAX - seqs[idx].len(), idx));
    order
}

/// One ≤[`BATCH_LANES`]-lane chunk of the batched compiled scan. The
/// per-lane DP registers live in fixed-size stack arrays indexed by a
/// constant-bound loop, so the inner loop carries no heap indirection and
/// no data-dependent bounds checks — the eight goto-table loads per
/// position are the only memory traffic that matters, and they are
/// mutually independent. The DP updates are written as value selects
/// (`if c { a } else { b }` expressions over scalars) rather than
/// statement branches: the chain-restart and best-so-far conditions flip
/// on data, so branch prediction can't learn them, but as selects they
/// cost a fixed couple of µops — same comparisons, same values, just no
/// pipeline flushes.
fn compiled_batch_lanes(
    compiled: &CompiledPst,
    seqs: &[&[Symbol]],
    threshold: Option<f64>,
    out: &mut [BoundedSimilarity],
) {
    debug_assert!(seqs.len() <= BATCH_LANES && out.len() == seqs.len());
    let n = seqs.len().min(BATCH_LANES);
    // Per-lane DP registers, structure-of-arrays; lanes past `seqs.len()`
    // (and empty sequences) are born retired. The best-so-far segment is
    // kept as three scalar arrays so its update is three selects, not a
    // conditional struct store.
    let mut state = [CompiledPst::START; BATCH_LANES];
    let mut y = [f64::NEG_INFINITY; BATCH_LANES];
    let mut y_start = [0usize; BATCH_LANES];
    let mut best_y = [f64::NEG_INFINITY; BATCH_LANES];
    let mut best_start = [0usize; BATCH_LANES];
    let mut best_end = [0usize; BATCH_LANES];
    let mut lanes: [&[Symbol]; BATCH_LANES] = [&[]; BATCH_LANES];
    let mut live = [false; BATCH_LANES];
    let mut remaining = 0usize;
    for (lane, seq) in seqs.iter().enumerate() {
        lanes[lane] = seq;
        live[lane] = !seq.is_empty();
        remaining += usize::from(live[lane]);
    }
    let max_step_plus = compiled.max_step_plus();
    let mut i = 0usize;

    // Synchronized fast phase: while every lane is live (so until the
    // shortest sequence ends, or a lane prunes), the inner row needs no
    // live/retirement tests — just `n` independent step+DP updates, which
    // is where the lane interleaving actually earns its ILP. Prune checks
    // run at the same `i % PRUNE_CHECK_INTERVAL == 0` positions as the
    // general loop, *before* that row's steps, so each lane still sees
    // the single-scan operation sequence exactly.
    if remaining == n && n > 0 {
        let min_len = lanes[..n].iter().map(|s| s.len()).min().expect("n > 0");
        while i < min_len {
            if let Some(t) = threshold {
                if i % PRUNE_CHECK_INTERVAL == 0 {
                    for lane in 0..n {
                        if best_y[lane] < t {
                            let rem = (lanes[lane].len() - i) as f64;
                            let bound = (y[lane].max(0.0) + compiled.best_step(state[lane]))
                                .max(0.0)
                                + (rem - 1.0) * max_step_plus;
                            if bound < t - PRUNE_SLACK {
                                out[lane] = BoundedSimilarity::Pruned;
                                live[lane] = false;
                                remaining -= 1;
                            }
                        }
                    }
                    if remaining < n {
                        break;
                    }
                }
            }
            for lane in 0..n {
                let (x, next) = compiled.step(state[lane], lanes[lane][i]);
                state[lane] = next;
                let extended = y[lane] + x;
                let keep = extended >= x;
                let y_new = if keep { extended } else { x };
                let start_new = if keep { y_start[lane] } else { i };
                y[lane] = y_new;
                y_start[lane] = start_new;
                let better = y_new > best_y[lane];
                best_y[lane] = if better { y_new } else { best_y[lane] };
                best_start[lane] = if better { start_new } else { best_start[lane] };
                best_end[lane] = if better { i + 1 } else { best_end[lane] };
            }
            i += 1;
        }
        // Lanes whose sequence ended exactly at `i` retire now, as the
        // single scan would have done right after their final step.
        for lane in 0..n {
            if live[lane] && lanes[lane].len() == i {
                out[lane] = BoundedSimilarity::Exact(SegmentSimilarity {
                    log_sim: best_y[lane],
                    start: best_start[lane],
                    end: best_end[lane],
                });
                live[lane] = false;
            }
        }
    }

    // Straggler lanes finish serially, each a plain single-sequence scan
    // continuing from position `i` with its carried DP registers — the
    // same operations at the same absolute positions (prune checks
    // included) as the single kernel, at the single kernel's speed. A
    // lockstep tail would pay `BATCH_LANES` liveness tests per useful
    // step once most lanes have retired.
    for lane in 0..n {
        if !live[lane] {
            continue;
        }
        let seq = lanes[lane];
        let mut verdict = None;
        for j in i..seq.len() {
            if let Some(t) = threshold {
                if j % PRUNE_CHECK_INTERVAL == 0 && best_y[lane] < t {
                    let rem = (seq.len() - j) as f64;
                    let bound = (y[lane].max(0.0) + compiled.best_step(state[lane])).max(0.0)
                        + (rem - 1.0) * max_step_plus;
                    if bound < t - PRUNE_SLACK {
                        verdict = Some(BoundedSimilarity::Pruned);
                        break;
                    }
                }
            }
            let (x, next) = compiled.step(state[lane], seq[j]);
            state[lane] = next;
            let extended = y[lane] + x;
            let keep = extended >= x;
            let y_new = if keep { extended } else { x };
            let start_new = if keep { y_start[lane] } else { j };
            y[lane] = y_new;
            y_start[lane] = start_new;
            let better = y_new > best_y[lane];
            best_y[lane] = if better { y_new } else { best_y[lane] };
            best_start[lane] = if better { start_new } else { best_start[lane] };
            best_end[lane] = if better { j + 1 } else { best_end[lane] };
        }
        out[lane] = verdict.unwrap_or(BoundedSimilarity::Exact(SegmentSimilarity {
            log_sim: best_y[lane],
            start: best_start[lane],
            end: best_end[lane],
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A mock model backed by an explicit (context, next) → probability
    /// table, keyed on the full context handed to `predict`.
    struct TableModel {
        n: usize,
        table: HashMap<(Vec<u16>, u16), f64>,
    }

    impl TableModel {
        fn new(n: usize, entries: &[(&[u16], u16, f64)]) -> Self {
            let table = entries
                .iter()
                .map(|&(ctx, next, p)| ((ctx.to_vec(), next), p))
                .collect();
            Self { n, table }
        }
    }

    impl ConditionalModel for TableModel {
        fn alphabet_size(&self) -> usize {
            self.n
        }
        fn predict(&self, context: &[Symbol], next: Symbol) -> f64 {
            let key: Vec<u16> = context.iter().map(|s| s.0).collect();
            *self
                .table
                .get(&(key, next.0))
                .unwrap_or_else(|| panic!("no table entry for {context:?} -> {next:?}"))
        }
    }

    fn syms(v: &[u16]) -> Vec<Symbol> {
        v.iter().copied().map(Symbol).collect()
    }

    /// The paper's Table 1 worked example: sequence "bbaa" against the
    /// Figure 1 tree with p(a) = 0.6, p(b) = 0.4. The expected intermediate
    /// values and the final SIM = 2.10 come straight from the table.
    #[test]
    fn paper_table1_bbaa_example() {
        const A: u16 = 0;
        const B: u16 = 1;
        // P(b) = 0.55, P(b|b) = 0.418, P(a|bb) = 0.87, P(a|bba) = 0.406.
        let model = TableModel::new(
            2,
            &[
                (&[], B, 0.55),
                (&[B], B, 0.418),
                (&[B, B], A, 0.87),
                (&[B, B, A], A, 0.406),
            ],
        );
        let bg = BackgroundModel::from_probs(vec![0.6, 0.4]);
        let seq = syms(&[B, B, A, A]);
        let result = max_similarity(&model, &bg, &seq);

        // Exact arithmetic gives 1.375 × 1.045 × 1.45 = 2.0834; the paper
        // displays 2.10 because its table shows intermediates rounded to
        // three significant digits and chains them.
        assert!(
            (result.sim() - 2.0834).abs() < 1e-3,
            "SIM = {}",
            result.sim()
        );
        assert!(
            (result.sim() - 2.10).abs() < 0.02,
            "matches the paper's display"
        );
        // The maximizing segment is "bba" = positions [0, 3).
        assert_eq!((result.start, result.end), (0, 3));
    }

    /// Re-derives the full X/Y/Z rows of Table 1.
    #[test]
    fn paper_table1_intermediate_rows() {
        const A: u16 = 0;
        const B: u16 = 1;
        let probs = [0.55, 0.418, 0.87, 0.406];
        let bg = [0.4, 0.4, 0.6, 0.6]; // p(b), p(b), p(a), p(a)
        let x: Vec<f64> = probs.iter().zip(bg).map(|(p, q)| p / q).collect();
        // The paper's table shows intermediates rounded to 3 significant
        // digits (and chains the rounded values), so compare within 0.02.
        let expected_x = [1.38, 1.05, 1.45, 0.677];
        for (got, want) in x.iter().zip(expected_x) {
            assert!((got - want).abs() < 0.02, "X: got {got}, want {want}");
        }
        let mut y = vec![x[0]];
        let mut z = vec![x[0]];
        for i in 1..4 {
            y.push((y[i - 1] * x[i]).max(x[i]));
            z.push(z[i - 1].max(y[i]));
        }
        let expected_y = [1.38, 1.45, 2.10, 1.42];
        let expected_z = [1.38, 1.45, 2.10, 2.10];
        for i in 0..4 {
            assert!((y[i] - expected_y[i]).abs() < 0.02, "Y[{i}] = {}", y[i]);
            assert!((z[i] - expected_z[i]).abs() < 0.02, "Z[{i}] = {}", z[i]);
        }
        // Consistency between the hand-rolled recurrence and the library.
        let model = TableModel::new(
            2,
            &[
                (&[], B, 0.55),
                (&[B], B, 0.418),
                (&[B, B], A, 0.87),
                (&[B, B, A], A, 0.406),
            ],
        );
        let bgm = BackgroundModel::from_probs(vec![0.6, 0.4]);
        let result = max_similarity(&model, &bgm, &syms(&[B, B, A, A]));
        assert!((result.sim() - z[3]).abs() < 1e-9);
    }

    /// Brute-force reference: SIM over all O(l²) segments, where each
    /// segment is scored with full-prefix conditioning exactly as the DP
    /// does.
    fn brute_force<M: ConditionalModel>(model: &M, bg: &BackgroundModel, seq: &[Symbol]) -> f64 {
        let mut best = f64::NEG_INFINITY;
        for start in 0..seq.len() {
            let mut acc = 0.0;
            for i in start..seq.len() {
                acc += model.predict(&seq[..i], seq[i]).ln() - bg.prob(seq[i]).ln();
                best = best.max(acc);
            }
        }
        best
    }

    /// A deterministic pseudo-model for cross-checking the DP against the
    /// brute force on arbitrary sequences.
    struct HashModel;
    impl ConditionalModel for HashModel {
        fn alphabet_size(&self) -> usize {
            3
        }
        fn predict(&self, context: &[Symbol], next: Symbol) -> f64 {
            let h = context
                .iter()
                .fold(17u64, |a, s| a.wrapping_mul(31).wrapping_add(s.0 as u64))
                .wrapping_mul(131)
                .wrapping_add(next.0 as u64);
            0.05 + 0.9 * ((h % 97) as f64 / 97.0)
        }
    }

    #[test]
    fn dp_matches_brute_force() {
        let bg = BackgroundModel::from_probs(vec![0.5, 0.3, 0.2]);
        let seqs: Vec<Vec<u16>> = vec![
            vec![0],
            vec![0, 1],
            vec![2, 2, 2, 2],
            vec![0, 1, 2, 0, 1, 2, 1, 0],
            vec![1, 0, 0, 2, 1, 1, 1, 0, 2, 2, 0, 1],
        ];
        for raw in seqs {
            let seq = syms(&raw);
            let dp = max_similarity(&HashModel, &bg, &seq);
            let bf = brute_force(&HashModel, &bg, &seq);
            assert!(
                (dp.log_sim - bf).abs() < 1e-9,
                "sequence {raw:?}: dp {} vs brute force {bf}",
                dp.log_sim
            );
            // The reported segment really achieves the reported score.
            let mut acc = 0.0;
            for i in dp.start..dp.end {
                acc += HashModel.predict(&seq[..i], seq[i]).ln() - bg.prob(seq[i]).ln();
            }
            assert!((acc - dp.log_sim).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_sequence_scores_negative_infinity() {
        let bg = BackgroundModel::uniform(2);
        let r = max_similarity(&HashModel, &bg, &[]);
        assert_eq!(r.log_sim, f64::NEG_INFINITY);
        assert_eq!(r.segment_len(), 0);
    }

    #[test]
    fn uniform_model_over_uniform_background_scores_one() {
        struct Uniform;
        impl ConditionalModel for Uniform {
            fn alphabet_size(&self) -> usize {
                4
            }
            fn predict(&self, _c: &[Symbol], _n: Symbol) -> f64 {
                0.25
            }
        }
        let bg = BackgroundModel::uniform(4);
        let seq = syms(&[0, 1, 2, 3, 0, 1]);
        let r = max_similarity(&Uniform, &bg, &seq);
        assert!(r.log_sim.abs() < 1e-12, "ln SIM = 0 means SIM = 1");
    }

    #[test]
    fn zero_probability_voids_chains_through_that_position() {
        // Position 1 is impossible under the model; the best segment must
        // avoid it.
        struct Spiky;
        impl ConditionalModel for Spiky {
            fn alphabet_size(&self) -> usize {
                2
            }
            fn predict(&self, context: &[Symbol], _n: Symbol) -> f64 {
                if context.len() == 1 {
                    0.0
                } else {
                    0.9
                }
            }
        }
        let bg = BackgroundModel::uniform(2);
        let seq = syms(&[0, 0, 0, 0]);
        let r = max_similarity(&Spiky, &bg, &seq);
        assert!(
            r.start >= 2 || r.end <= 1,
            "segment {:?} crosses the void",
            (r.start, r.end)
        );
        assert!(r.log_sim.is_finite());
    }

    #[test]
    fn pst_scan_version_matches_generic_version() {
        use cluseq_pst::{Pst, PstParams};
        let mut pst = Pst::new(
            3,
            PstParams::default().with_significance(2).with_max_depth(4),
        );
        let train = syms(&[0, 1, 2, 0, 1, 2, 0, 0, 1, 1, 2, 2, 0, 1, 2]);
        pst.add_segment(&train);
        let bg = BackgroundModel::from_probs(vec![0.5, 0.3, 0.2]);
        for probe in [
            syms(&[0, 1, 2, 0, 1]),
            syms(&[2, 2, 2]),
            syms(&[1]),
            syms(&[]),
            syms(&[0, 0, 0, 1, 1, 1, 2, 2, 2, 0, 1, 2, 0, 1, 2]),
        ] {
            let generic = max_similarity(&pst, &bg, &probe);
            let scan = max_similarity_pst(&pst, &bg, &probe);
            assert_eq!(generic, scan, "probe {probe:?}");
        }
    }

    #[test]
    fn pst_scan_version_matches_after_pruning() {
        use cluseq_pst::{Pst, PstParams};
        let mut pst = Pst::new(
            3,
            PstParams::default().with_significance(1).with_max_depth(5),
        );
        let train: Vec<Symbol> = (0..200u16).map(|i| Symbol(i * 7 % 3)).collect();
        pst.add_segment(&train);
        pst.prune_to(pst.bytes() / 2);
        let bg = BackgroundModel::uniform(3);
        let probe = syms(&[0, 1, 2, 1, 0, 2, 2, 1, 0, 0]);
        assert_eq!(
            max_similarity(&pst, &bg, &probe),
            max_similarity_pst(&pst, &bg, &probe)
        );
    }

    #[test]
    fn compiled_kernel_is_bit_identical_to_interpreted() {
        use cluseq_pst::{Pst, PstParams};
        let mut pst = Pst::new(
            3,
            PstParams::default().with_significance(2).with_max_depth(4),
        );
        let train = syms(&[0, 1, 2, 0, 1, 2, 0, 0, 1, 1, 2, 2, 0, 1, 2, 0, 1, 2]);
        pst.add_segment(&train);
        let bg = BackgroundModel::from_probs(vec![0.5, 0.3, 0.2]);
        let compiled = cluseq_pst::CompiledPst::compile(&pst, &bg);
        for probe in [
            syms(&[0, 1, 2, 0, 1]),
            syms(&[2, 2, 2]),
            syms(&[1]),
            syms(&[]),
            syms(&[0, 0, 0, 1, 1, 1, 2, 2, 2, 0, 1, 2, 0, 1, 2]),
        ] {
            let interpreted = max_similarity_pst(&pst, &bg, &probe);
            let fast = max_similarity_compiled(&compiled, &probe);
            assert_eq!(
                interpreted.log_sim.to_bits(),
                fast.log_sim.to_bits(),
                "probe {probe:?}"
            );
            assert_eq!((interpreted.start, interpreted.end), (fast.start, fast.end));
        }
    }

    #[test]
    fn bounded_scan_is_exact_when_not_pruned() {
        use cluseq_pst::{CompiledPst, Pst, PstParams};
        let mut pst = Pst::new(
            2,
            PstParams::default().with_significance(2).with_max_depth(3),
        );
        pst.add_segment(&syms(&[0, 1, 0, 1, 0, 1, 0, 1, 0, 1]));
        let bg = BackgroundModel::uniform(2);
        let compiled = CompiledPst::compile(&pst, &bg);
        let probe = syms(&[0, 1, 0, 1, 0, 1]);
        let exact = max_similarity_compiled(&compiled, &probe);
        // A threshold the probe clearly beats: never pruned, identical.
        match max_similarity_compiled_bounded(&compiled, &probe, exact.log_sim - 1.0) {
            BoundedSimilarity::Exact(s) => {
                assert_eq!(s.log_sim.to_bits(), exact.log_sim.to_bits());
                assert_eq!((s.start, s.end), (exact.start, exact.end));
            }
            BoundedSimilarity::Pruned => panic!("a reachable threshold must not prune"),
        }
        assert_eq!(
            max_similarity_compiled_bounded(&compiled, &probe, exact.log_sim - 1.0)
                .exact()
                .map(|s| s.log_sim),
            Some(exact.log_sim)
        );
    }

    #[test]
    fn pruned_pairs_are_truly_below_threshold() {
        use cluseq_pst::{CompiledPst, Pst, PstParams};
        let mut pst = Pst::new(
            2,
            PstParams::default().with_significance(2).with_max_depth(3),
        );
        pst.add_segment(&syms(&[0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]));
        let bg = BackgroundModel::uniform(2);
        let compiled = CompiledPst::compile(&pst, &bg);
        // A long anti-correlated probe: every threshold that prunes it must
        // sit strictly above its exact similarity.
        let probe: Vec<Symbol> = (0..200).map(|i| Symbol((i / 7 % 2) as u16)).collect();
        let exact = max_similarity_compiled(&compiled, &probe);
        let huge = exact.log_sim + 1_000.0;
        let verdict = max_similarity_compiled_bounded(&compiled, &probe, huge);
        assert!(verdict.is_pruned(), "an unreachable threshold must prune");
        // And pruning never lies: whenever *any* threshold prunes, the
        // exact score is below it.
        for k in 0..60 {
            let t = exact.log_sim - 3.0 + k as f64 * 0.2;
            if max_similarity_compiled_bounded(&compiled, &probe, t).is_pruned() {
                assert!(
                    exact.log_sim < t,
                    "pruned at threshold {t} but exact is {}",
                    exact.log_sim
                );
            }
        }
    }

    fn batch_fixture() -> (CompiledPst, Vec<Vec<Symbol>>) {
        use cluseq_pst::{Pst, PstParams};
        let mut pst = Pst::new(
            3,
            PstParams::default().with_significance(2).with_max_depth(4),
        );
        pst.add_segment(&syms(&[
            0, 1, 2, 0, 1, 2, 0, 0, 1, 1, 2, 2, 0, 1, 2, 0, 1, 2,
        ]));
        let bg = BackgroundModel::from_probs(vec![0.5, 0.3, 0.2]);
        let compiled = CompiledPst::compile(&pst, &bg);
        let probes = vec![
            syms(&[0, 1, 2, 0, 1]),
            syms(&[2, 2, 2]),
            syms(&[]),
            (0..150u16).map(|i| Symbol(i * 5 % 3)).collect(),
            syms(&[1]),
            (0..90u16).map(|i| Symbol(i % 3)).collect(),
        ];
        (compiled, probes)
    }

    #[test]
    fn batched_scan_is_bit_identical_to_single_scans() {
        let (compiled, probes) = batch_fixture();
        let slices: Vec<&[Symbol]> = probes.iter().map(Vec::as_slice).collect();
        let batch = max_similarity_compiled_batch(&compiled, &slices, None);
        for (lane, probe) in probes.iter().enumerate() {
            let single = max_similarity_compiled(&compiled, probe);
            let got = batch[lane].exact().expect("unbounded batch is exact");
            assert_eq!(
                got.log_sim.to_bits(),
                single.log_sim.to_bits(),
                "lane {lane}"
            );
            assert_eq!((got.start, got.end), (single.start, single.end));
        }
    }

    #[test]
    fn batched_bounded_scan_matches_single_bounded_scans() {
        let (compiled, probes) = batch_fixture();
        let slices: Vec<&[Symbol]> = probes.iter().map(Vec::as_slice).collect();
        for t in [-5.0, 0.0, 2.0, 50.0, 1e6] {
            let batch = max_similarity_compiled_batch(&compiled, &slices, Some(t));
            for (lane, probe) in probes.iter().enumerate() {
                let single = max_similarity_compiled_bounded(&compiled, probe, t);
                assert_eq!(batch[lane], single, "lane {lane} threshold {t}");
            }
        }
    }

    #[test]
    fn segment_sim_exponentiates() {
        let s = SegmentSimilarity {
            log_sim: 0.0,
            start: 1,
            end: 4,
        };
        assert_eq!(s.sim(), 1.0);
        assert_eq!(s.segment_len(), 3);
    }
}
