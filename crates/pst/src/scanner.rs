//! Incremental context scanning — the paper's "auxiliary links" O(l)
//! similarity optimization (§4.3: *"with the help of some additional
//! structure (e.g., auxiliary links), the computational complexity could
//! be reduced to O(l)"* — mentioned but not described; this is our
//! realization).
//!
//! The naive similarity scan re-locates the prediction node of
//! `s₁…sᵢ₋₁` from the root for every position `i`, costing O(L) each.
//! A [`ContextScanner`] instead carries the prediction node across
//! positions: extending the context by one symbol `s` moves to the node
//! for `(longest significant suffix)·s`, found by walking *up* the parent
//! chain (each parent drops the oldest context symbol) and following a
//! right-extension link. The node depth increases by at most one per
//! position and each parent step decreases it by one, so the total work
//! over a scan is O(l) amortized.
//!
//! **Exactness.** The incremental walk provably finds the same prediction
//! node as the root walk, *provided* the right-link structure is complete
//! (see the correctness note on [`ContextScanner::advance`]). Pruning can
//! remove a node that others extend from; the tree records this
//! ([`Pst::right_links_intact`]) and the scanner transparently falls back
//! to the exact per-position root walk, so results are identical either
//! way — only speed differs.

use cluseq_seq::Symbol;

use crate::node::NodeId;
use crate::tree::Pst;

/// An incremental prediction-node cursor over a [`Pst`].
#[derive(Debug, Clone)]
pub struct ContextScanner<'a> {
    pst: &'a Pst,
    /// Current prediction node (longest significant suffix of the context
    /// consumed so far).
    node: NodeId,
    /// Whether the incremental fast path is usable.
    fast: bool,
    /// Fallback scratch buffer (only maintained when `fast` is false).
    /// Holds a suffix of the consumed symbols whose last `max_depth`
    /// entries are the context window; it is compacted in place only once
    /// it reaches `2 × max_depth`, so the per-symbol cost is one push
    /// (amortized) instead of shifting the whole window every call.
    context: Vec<Symbol>,
}

impl Pst {
    /// Starts a scanner at the empty context.
    pub fn scanner(&self) -> ContextScanner<'_> {
        self.scanner_with_scratch(Vec::new())
    }

    /// Starts a scanner at the empty context, reusing `scratch` as the
    /// fallback buffer so tight scan loops can recycle one allocation
    /// across many scanners (recover it with
    /// [`ContextScanner::into_scratch`]). The buffer is cleared; its
    /// capacity is kept.
    pub fn scanner_with_scratch(&self, mut scratch: Vec<Symbol>) -> ContextScanner<'_> {
        scratch.clear();
        ContextScanner {
            pst: self,
            node: NodeId::ROOT,
            fast: self.right_links_intact(),
            context: scratch,
        }
    }
}

impl<'a> ContextScanner<'a> {
    /// Whether the O(l) incremental path is active (false after pruning).
    pub fn is_fast(&self) -> bool {
        self.fast
    }

    /// The current prediction node.
    pub fn prediction_node(&self) -> NodeId {
        self.node
    }

    /// Resets to the empty context (start of a new sequence).
    pub fn reset(&mut self) {
        self.node = NodeId::ROOT;
        self.context.clear();
    }

    /// Consumes the scanner, returning its scratch buffer for reuse with
    /// [`Pst::scanner_with_scratch`].
    pub fn into_scratch(self) -> Vec<Symbol> {
        self.context
    }

    /// Returns the (smoothed) conditional probability of `next` given the
    /// context consumed so far, then extends the context by `next`.
    ///
    /// Equivalent to `pst.predict(&consumed, next)` followed by pushing
    /// `next` onto the context.
    pub fn predict_and_advance(&mut self, next: Symbol) -> f64 {
        let raw = self
            .pst
            .node(self.node)
            .raw_prob(next)
            .unwrap_or(1.0 / self.pst.alphabet_size() as f64);
        self.advance(next);
        self.pst.smooth(raw)
    }

    /// Extends the context by one symbol, updating the prediction node.
    ///
    /// Correctness of the fast path: let `u` be the prediction node of the
    /// old context (its longest significant suffix). Any significant
    /// suffix of the new context has the form `w·s` where `w` is a
    /// significant suffix of the old context — and every suffix of a
    /// significant segment is itself significant (occurrence counts are
    /// monotone under suffix), so `w` lies on `u`'s parent chain
    /// (including `u` itself and the root). Walking that chain from the
    /// deepest candidate down and taking the first significant
    /// right-extension therefore yields exactly the *longest* significant
    /// suffix of the new context — the same node the root walk finds.
    pub fn advance(&mut self, s: Symbol) {
        if self.fast {
            let mut w = self.node;
            loop {
                if let Some(v) = self.pst.node(w).right_child(s) {
                    if self.pst.is_significant(v) {
                        self.node = v;
                        return;
                    }
                }
                if w == NodeId::ROOT {
                    self.node = NodeId::ROOT;
                    return;
                }
                w = self.pst.node(w).parent;
            }
        } else {
            // Exact fallback: keep a bounded scratch buffer and re-walk the
            // last `max_depth` symbols. Compacting only when the buffer hits
            // twice the window size makes the maintenance O(1) amortized —
            // the old `drain(..excess)` shifted every retained symbol on
            // every call.
            let depth = self.pst.params().max_depth;
            self.context.push(s);
            if self.context.len() >= depth.saturating_mul(2).max(depth + 1) {
                let keep_from = self.context.len() - depth;
                self.context.copy_within(keep_from.., 0);
                self.context.truncate(depth);
            }
            let window_start = self.context.len().saturating_sub(depth);
            self.node = self.pst.prediction_node(&self.context[window_start..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::PstParams;
    use cluseq_seq::{Alphabet, Sequence};

    fn build(text: &str, c: u64) -> (Alphabet, Pst) {
        let alphabet = Alphabet::from_chars("abc".chars());
        let seq = Sequence::parse_str(&alphabet, text).unwrap();
        let mut pst = Pst::new(
            3,
            PstParams::default()
                .with_significance(c)
                .with_max_depth(5)
                .without_smoothing(),
        );
        pst.add_sequence(&seq);
        (alphabet, pst)
    }

    /// The scanner must visit exactly the prediction nodes the root walk
    /// finds, for every prefix of every probe.
    fn assert_scanner_matches_walk(pst: &Pst, probe: &[Symbol]) {
        let mut scanner = pst.scanner();
        for i in 0..probe.len() {
            let walk = pst.prediction_node(&probe[..i]);
            assert_eq!(
                scanner.prediction_node(),
                walk,
                "position {i}: scanner at {:?}, walk at {:?} (label {:?})",
                scanner.prediction_node(),
                walk,
                pst.label(walk),
            );
            scanner.advance(probe[i]);
        }
    }

    #[test]
    fn scanner_tracks_the_root_walk_on_training_data() {
        let (alphabet, pst) = build("abcabcaabbccabcbacbca", 1);
        assert!(pst.right_links_intact());
        let probe = Sequence::parse_str(&alphabet, "abcabcaabbcc").unwrap();
        let symbols: Vec<Symbol> = probe.iter().collect();
        assert_scanner_matches_walk(&pst, &symbols);
    }

    #[test]
    fn scanner_tracks_the_root_walk_on_unseen_data() {
        let (alphabet, pst) = build("abcabcabcabc", 2);
        let probe = Sequence::parse_str(&alphabet, "ccbbaaabcabc").unwrap();
        let symbols: Vec<Symbol> = probe.iter().collect();
        assert_scanner_matches_walk(&pst, &symbols);
    }

    #[test]
    fn predict_and_advance_equals_pointwise_predict() {
        let (alphabet, pst) = build("abcabcaabbcc", 1);
        let probe = Sequence::parse_str(&alphabet, "cabcab").unwrap();
        let symbols: Vec<Symbol> = probe.iter().collect();
        let mut scanner = pst.scanner();
        for i in 0..symbols.len() {
            let expected = pst.raw_predict(&symbols[..i], symbols[i]);
            let got = scanner.predict_and_advance(symbols[i]);
            assert!(
                (got - expected).abs() < 1e-12,
                "position {i}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn scanner_falls_back_after_pruning_and_stays_exact() {
        let (alphabet, mut pst) = build("abcabcaabbccabacbc", 1);
        pst.prune_to(pst.bytes() / 2);
        let scanner = pst.scanner();
        // Pruning in this tree removes extended-from nodes, so the fast
        // path must be off…
        if !pst.right_links_intact() {
            assert!(!scanner.is_fast());
        }
        // …and either way the scanner matches the root walk.
        let probe = Sequence::parse_str(&alphabet, "abcabacbcabc").unwrap();
        let symbols: Vec<Symbol> = probe.iter().collect();
        assert_scanner_matches_walk(&pst, &symbols);
    }

    #[test]
    fn reset_restarts_at_the_root() {
        let (alphabet, pst) = build("abcabc", 1);
        let probe = Sequence::parse_str(&alphabet, "abc").unwrap();
        let mut scanner = pst.scanner();
        for s in probe.iter() {
            scanner.advance(s);
        }
        assert_ne!(scanner.prediction_node(), NodeId::ROOT);
        scanner.reset();
        assert_eq!(scanner.prediction_node(), NodeId::ROOT);
    }

    #[test]
    fn scratch_reuse_preserves_capacity_and_exactness() {
        let (alphabet, mut pst) = build("abcabcabcabcabc", 1);
        pst.prune_to(pst.bytes() * 2 / 3);
        let probe = Sequence::parse_str(&alphabet, "abcabacbcabc").unwrap();
        let symbols: Vec<Symbol> = probe.iter().collect();

        let mut scanner = pst.scanner();
        for &s in &symbols {
            scanner.advance(s);
        }
        let scratch = scanner.into_scratch();
        let capacity = scratch.capacity();

        // Rebuilding from the recycled scratch starts clean and matches the
        // root walk, without having dropped the old allocation.
        let mut reused = pst.scanner_with_scratch(scratch);
        assert_eq!(reused.prediction_node(), NodeId::ROOT);
        assert!(reused.context.is_empty());
        assert!(reused.context.capacity() >= capacity.min(1));
        for (i, &s) in symbols.iter().enumerate() {
            assert_eq!(reused.prediction_node(), pst.prediction_node(&symbols[..i]));
            reused.advance(s);
        }
    }

    #[test]
    fn fallback_scratch_buffer_is_bounded() {
        let (alphabet, mut pst) = build("abcabcabcabcabc", 1);
        pst.prune_to(pst.bytes() * 2 / 3);
        let mut scanner = pst.scanner();
        let depth = pst.params().max_depth;
        let probe = Sequence::parse_str(&alphabet, "abcabcabcabcabcabcabcabc").unwrap();
        for s in probe.iter() {
            scanner.advance(s);
            // The scratch buffer is allowed to run ahead of the window (that
            // is the amortization), but never past twice its size.
            assert!(scanner.context.len() < depth * 2);
        }
    }
}
