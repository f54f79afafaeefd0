//! Compiling a frozen [`Pst`] into a flat scan automaton.
//!
//! The similarity scan (the dominant cost of CLUSEQ) interprets the tree
//! per symbol: a child lookup (two binary searches), an `O(|next|)`
//! successor-count summation, and two `ln()` calls. Once a cluster's PST
//! is frozen for a scan phase, all of that is a pure function of the
//! current prediction node — so it can be precomputed once. A
//! [`CompiledPst`] flattens the tree into structure-of-arrays form:
//!
//! * a dense `states × alphabet` **goto table** in the style of
//!   Aho–Corasick: `goto[u][s]` is the prediction node of the context
//!   `L(u)·s`, with the scanner's fallback suffix walk resolved at compile
//!   time, so advancing the scan is a single array load;
//! * a matching **log-ratio table**: `ratio[u][s] = ln P(s | L(u)) −
//!   ln p_bg(s)`, exactly the `Xᵢ` term of the X/Y/Z dynamic program, so
//!   the hot loop performs zero `ln()` calls;
//! * per-state **achievable-step bounds** (`best_step[u]` and the global
//!   `max_step_plus`) that let a caller prove, mid-scan, that no extension
//!   can still reach a similarity threshold and exit early.
//!
//! **States.** The automaton's states are *strings*: every read-order
//! prefix of every significant node's label (the empty string — the root
//! context — is state 0). The state after scanning `w` is the longest
//! suffix of `w` that is a state string; the node the state predicts from
//! (its *emit node*) is the root walk applied to the state's own string.
//!
//! The state set is deliberately **larger than the significant node set**:
//! the prefix closure can contain strings whose tree node was pruned away
//! or was never significant. That extra memory is what makes the scan a
//! finite automaton at all. Pruning can remove a shallow node (say `⟨1⟩`)
//! while a deeper node that extends it through a *different* subtree
//! (say `⟨1,0⟩`, a child of `⟨0⟩`) survives. After reading `…,1` the
//! interpreted walk finds no node — but one more symbol later it re-reads
//! the window and lands in `⟨1,0⟩`. An automaton whose states were only
//! the surviving nodes would have collapsed `…,1` into the root and lost
//! the `1` forever; the prefix-closure state `⟨1⟩` (emit node: root, so
//! its ratio row is still bit-identical to the interpreted scan) carries
//! it. Because the walk stops at the first missing-or-insignificant
//! child, the walk on the full context and the walk on its longest
//! state-string suffix always agree — every significant label is a state
//! string, so the matched suffix is at least as long as any walk result.
//!
//! **Goto construction.** States are sorted by (length, lexicographic),
//! so every proper prefix of a state precedes it. Each non-root state `v`
//! is registered once, by one binary search over the sorted strings, as
//! the *explicit child* `prefix(v)·last(v)` of its one-shorter prefix. In
//! one pass we then compute classic Aho–Corasick failure links —
//! `fail(u)` is the longest proper suffix of `u` that is a state, via
//! `fail(u) = goto[fail(prefix(u))][last(u)]` on already-completed rows —
//! and dense goto rows: the root's row is the root itself except at its
//! explicit children, and row `u` is a copy of row `fail(u)` (complete,
//! since `fail(u)` is shorter than `u`) with `u`'s explicit children
//! written over it. That is the definition `goto[u][s] = u·s` when that
//! string is a state, else `goto[fail(u)][s]`, entry for entry. The prefix
//! closure is also suffix-closed — drop-oldest commutes with
//! drop-newest, and a significant node's parent is significant because
//! counts are monotone — so the failure chain never leaves the state
//! set. This matches the interpreted scanner exactly, pre- *and*
//! post-prune.
//!
//! **Ratio construction.** A ratio row depends on its emit node only
//! through the node's successor counts, so each row is a copy of one of
//! two rows built once per compile — the `1/|ℑ|` row for a successor-less
//! node, otherwise the row of a never-seen successor (`0/total = +0.0`)
//! — with the node's observed successors written over it. A build thus
//! pays one `ln()` per observed successor, not one per `(state, symbol)`
//! entry.
//!
//! **Bit-identity.** The ratio table is filled with the *same* `f64`
//! expression chain the interpreted path evaluates per symbol —
//! `next_count as f64 / next_total as f64` (or the `1/|ℑ|` fallback for a
//! successor-less node), then [`Pst::smooth`], then `ln()`, minus the
//! cached background log-probability — so a DP over the compiled tables
//! reproduces the interpreted scan bit for bit as long as the consumer
//! keeps the same operation order.

use cluseq_seq::{BackgroundModel, Symbol};

use crate::node::NodeId;
use crate::tree::Pst;

/// A frozen [`Pst`] flattened into dense scan tables. See the [module
/// docs](self) for construction and the bit-identity contract.
#[derive(Debug, Clone)]
pub struct CompiledPst {
    alphabet: usize,
    /// `states × alphabet`, row-major: the next state after consuming a
    /// symbol in a given state.
    goto_table: Vec<u32>,
    /// `states × alphabet`, row-major: `ln P(s | state) − ln p_bg(s)` —
    /// the DP's `ln Xᵢ` term.
    ratio: Vec<f64>,
    /// Per-state `max_s ratio[state][s]` — the best single-step log ratio
    /// achievable from this state.
    best_step: Vec<f64>,
    /// `max(0, max over all states of best_step)` — an upper bound on the
    /// contribution of any one future position, from any state.
    max_step_plus: f64,
}

impl CompiledPst {
    /// The start state: the empty context, i.e. the tree root.
    pub const START: u32 = 0;

    /// Flattens `pst` against `background` (which supplies the denominator
    /// of the ratio table).
    ///
    /// # Panics
    ///
    /// Panics if the alphabet sizes of the tree and the background model
    /// disagree.
    pub fn compile(pst: &Pst, background: &BackgroundModel) -> Self {
        let n = pst.alphabet_size();
        assert_eq!(
            n,
            background.alphabet_size(),
            "PST and background model must share an alphabet"
        );

        // State strings: every read-order prefix of every significant
        // node's label (see module docs for why the closure — not the node
        // set itself — is the state space). Walking the parent chain emits
        // the label oldest-symbol-first directly: `edge(u)` is the oldest
        // symbol of `L(u)` and `parent(u)` labels `L(u)` minus it.
        let mut strings: Vec<Vec<Symbol>> = Vec::new();
        for id in pst.live_node_ids().filter(|&id| pst.is_significant(id)) {
            let mut label = Vec::with_capacity(pst.node(id).depth as usize);
            let mut cur = id;
            while cur != NodeId::ROOT {
                let node = pst.node(cur);
                label.push(node.edge);
                cur = node.parent;
            }
            for k in 0..=label.len() {
                strings.push(label[..k].to_vec());
            }
        }
        // (length, lexicographic) order: deterministic, prefixes first,
        // root (the empty string) as state 0.
        strings.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        strings.dedup();
        debug_assert!(strings[0].is_empty());

        let states = strings.len();
        let find = |s: &[Symbol]| -> Option<u32> {
            strings
                .binary_search_by(|p| p.len().cmp(&s.len()).then_with(|| p.as_slice().cmp(s)))
                .ok()
                .map(|i| i as u32)
        };

        // Every non-root state `v` is the explicit child `prefix(v)·last(v)`
        // of its one-shorter prefix, and the (length, lexicographic) order
        // keeps `prefix` non-decreasing in `v`: each state's explicit
        // children are one contiguous run of later states.
        let mut prefix = vec![0u32; states];
        for v in 1..states {
            let string = &strings[v];
            prefix[v] = find(&string[..string.len() - 1]).expect("state set is prefix-closed");
        }

        // The two rows every ratio row starts from: a successor-less node
        // predicts `1/|ℑ|` for every symbol, and any other node predicts
        // `0/total = +0.0` for a symbol it never saw.
        let row_for = |raw: f64| -> Vec<f64> {
            let ln_p = pst.smooth(raw).ln();
            background.ln_probs().iter().map(|&bg| ln_p - bg).collect()
        };
        let uniform = row_for(1.0 / n as f64);
        let unseen = row_for(0.0);

        let mut fail = vec![0u32; states];
        let mut goto_table = vec![Self::START; states * n];
        let mut ratio = vec![0.0f64; states * n];
        let mut best_step = vec![f64::NEG_INFINITY; states];
        let mut next_child = 1;

        for u in 0..states {
            let string = &strings[u];
            let row = u * n;

            // Aho–Corasick failure link over completed shorter rows;
            // depth-0 and depth-1 states fail to the root.
            if string.len() >= 2 {
                let last = string[string.len() - 1];
                fail[u] = goto_table[fail[prefix[u] as usize] as usize * n + last.index()];
            }

            // Goto: the failure state's completed row (the root's row is
            // all START), overwritten at this state's explicit children.
            if u > 0 {
                let from = fail[u] as usize * n;
                goto_table.copy_within(from..from + n, row);
            }
            while next_child < states && prefix[next_child] as usize == u {
                let last = strings[next_child][string.len()];
                goto_table[row + last.index()] = next_child as u32;
                next_child += 1;
            }

            // The node this state predicts from: the definitional root walk
            // on the state's own string. For states that are genuine
            // significant nodes this is that node; for closure-only states
            // it is whatever shallower node the interpreted scanner would
            // be sitting on.
            let node = pst.node(pst.prediction_node(string));
            let total = node.next_total();
            let ratio_row = &mut ratio[row..row + n];
            if total == 0 {
                ratio_row.copy_from_slice(&uniform);
            } else {
                ratio_row.copy_from_slice(&unseen);
                // The exact expression chain of the interpreted path:
                // `ContextScanner::predict_and_advance` + the similarity DP.
                for &(sym, count) in &node.next {
                    let raw = count as f64 / total as f64;
                    ratio_row[sym.index()] = pst.smooth(raw).ln() - background.ln_prob(sym);
                }
            }
            for &x in ratio_row.iter() {
                if x > best_step[u] {
                    best_step[u] = x;
                }
            }
        }

        let max_step_plus = best_step.iter().fold(0.0f64, |a, &b| a.max(b));

        Self {
            alphabet: n,
            goto_table,
            ratio,
            best_step,
            max_step_plus,
        }
    }

    /// Number of automaton states (the prefix closure of the source
    /// tree's significant node labels).
    pub fn state_count(&self) -> usize {
        self.best_step.len()
    }

    /// Alphabet size shared with the source tree and background model.
    pub fn alphabet_size(&self) -> usize {
        self.alphabet
    }

    /// The DP step from `state` on `sym`: the precomputed
    /// `ln P(sym | state) − ln p_bg(sym)` and the successor state.
    #[inline(always)]
    pub fn step(&self, state: u32, sym: Symbol) -> (f64, u32) {
        let i = state as usize * self.alphabet + sym.index();
        (self.ratio[i], self.goto_table[i])
    }

    /// `max_s ratio[state][s]` — the largest log ratio any single symbol
    /// can contribute from `state`.
    #[inline]
    pub fn best_step(&self, state: u32) -> f64 {
        self.best_step[state as usize]
    }

    /// `max(0, max over all states of best_step)` — no future position can
    /// add more than this to a chain, from anywhere in the automaton.
    #[inline]
    pub fn max_step_plus(&self) -> f64 {
        self.max_step_plus
    }

    /// Heap footprint of the tables, for budget accounting.
    pub fn table_bytes(&self) -> usize {
        self.goto_table.len() * std::mem::size_of::<u32>()
            + self.ratio.len() * std::mem::size_of::<f64>()
            + self.best_step.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::PstParams;
    use cluseq_seq::{Alphabet, Sequence};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The definitional construction: one binary search, one allocation
    /// and one `ln()` per `(state, symbol)` entry. [`CompiledPst::compile`]
    /// must reproduce it entry for entry.
    fn compile_reference(pst: &Pst, background: &BackgroundModel) -> CompiledPst {
        let n = pst.alphabet_size();
        let mut strings: Vec<Vec<Symbol>> = Vec::new();
        for id in pst.live_node_ids().filter(|&id| pst.is_significant(id)) {
            let label = pst.label(id);
            for k in 0..=label.len() {
                strings.push(label[..k].to_vec());
            }
        }
        strings.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        strings.dedup();
        let states = strings.len();
        let find = |s: &[Symbol]| -> Option<u32> {
            strings
                .binary_search_by(|p| p.len().cmp(&s.len()).then_with(|| p.as_slice().cmp(s)))
                .ok()
                .map(|i| i as u32)
        };
        let mut fail = vec![0u32; states];
        let mut goto_table = vec![0u32; states * n];
        let mut ratio = vec![0.0f64; states * n];
        let mut best_step = vec![f64::NEG_INFINITY; states];
        for u in 0..states {
            let string = &strings[u];
            let row = u * n;
            if string.len() >= 2 {
                let prefix = find(&string[..string.len() - 1]).unwrap();
                let last = string[string.len() - 1];
                fail[u] = goto_table[fail[prefix as usize] as usize * n + last.index()];
            }
            let node = pst.node(pst.prediction_node(string));
            let total = node.next_total();
            for s in 0..n {
                let sym = Symbol(s as u16);
                let mut extended = string.clone();
                extended.push(sym);
                goto_table[row + s] = match find(&extended) {
                    Some(v) => v,
                    None if u == 0 => CompiledPst::START,
                    None => goto_table[fail[u] as usize * n + s],
                };
                let raw = if total == 0 {
                    1.0 / n as f64
                } else {
                    node.next_count(sym) as f64 / total as f64
                };
                let x = pst.smooth(raw).ln() - background.ln_prob(sym);
                ratio[row + s] = x;
                if x > best_step[u] {
                    best_step[u] = x;
                }
            }
        }
        let max_step_plus = best_step.iter().fold(0.0f64, |a, &b| a.max(b));
        CompiledPst {
            alphabet: n,
            goto_table,
            ratio,
            best_step,
            max_step_plus,
        }
    }

    /// Demands that `compile` equals [`compile_reference`] in every table
    /// entry, to the bit.
    fn assert_matches_reference(pst: &Pst, background: &BackgroundModel, ctx: &str) {
        let fast = CompiledPst::compile(pst, background);
        let slow = compile_reference(pst, background);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(fast.alphabet, slow.alphabet, "{ctx}");
        assert_eq!(fast.goto_table, slow.goto_table, "{ctx}: goto");
        assert_eq!(bits(&fast.ratio), bits(&slow.ratio), "{ctx}: ratio");
        assert_eq!(
            bits(&fast.best_step),
            bits(&slow.best_step),
            "{ctx}: best_step"
        );
        assert_eq!(
            fast.max_step_plus.to_bits(),
            slow.max_step_plus.to_bits(),
            "{ctx}: max_step_plus"
        );
    }

    fn build(text: &str, c: u64, smoothing: bool) -> (Alphabet, Pst) {
        let alphabet = Alphabet::from_chars("abc".chars());
        let seq = Sequence::parse_str(&alphabet, text).unwrap();
        let mut params = PstParams::default().with_significance(c).with_max_depth(5);
        if !smoothing {
            params = params.without_smoothing();
        }
        let mut pst = Pst::new(3, params);
        pst.add_sequence(&seq);
        (alphabet, pst)
    }

    /// Drives the compiled automaton and the interpreted scanner over the
    /// same probe and demands identical per-position predictions (to the
    /// bit) and matching states.
    fn assert_tracks_scanner(pst: &Pst, probe: &[Symbol]) {
        let bg = BackgroundModel::uniform(pst.alphabet_size());
        let compiled = CompiledPst::compile(pst, &bg);
        let mut scanner = pst.scanner();
        let mut state = CompiledPst::START;
        for (i, &sym) in probe.iter().enumerate() {
            let p = scanner.predict_and_advance(sym);
            let interpreted_x = p.ln() - bg.ln_prob(sym);
            let (x, next) = compiled.step(state, sym);
            assert_eq!(
                x.to_bits(),
                interpreted_x.to_bits(),
                "position {i}: compiled x {x} vs interpreted {interpreted_x}"
            );
            state = next;
        }
    }

    #[test]
    fn compiled_steps_match_the_scanner_on_training_data() {
        let (alphabet, pst) = build("abcabcaabbccabcbacbca", 2, true);
        let probe = Sequence::parse_str(&alphabet, "abcabcaabbcc").unwrap();
        let symbols: Vec<Symbol> = probe.iter().collect();
        assert_tracks_scanner(&pst, &symbols);
    }

    #[test]
    fn compiled_steps_match_the_scanner_on_unseen_data() {
        let (alphabet, pst) = build("abcabcabcabc", 2, true);
        let probe = Sequence::parse_str(&alphabet, "ccbbaaabcabcbb").unwrap();
        let symbols: Vec<Symbol> = probe.iter().collect();
        assert_tracks_scanner(&pst, &symbols);
    }

    #[test]
    fn compiled_steps_match_after_pruning() {
        let (alphabet, mut pst) = build("abcabcaabbccabacbcabcabc", 1, true);
        pst.prune_to(pst.bytes() / 2);
        let probe = Sequence::parse_str(&alphabet, "abcabacbcabcccba").unwrap();
        let symbols: Vec<Symbol> = probe.iter().collect();
        assert_tracks_scanner(&pst, &symbols);
    }

    #[test]
    fn pruning_a_shallow_node_keeps_automaton_memory() {
        // Regression (found by the kernel_equivalence property suite):
        // pruning removed the depth-1 node ⟨1⟩ while the depth-2 node
        // ⟨1,0⟩ — a child of ⟨0⟩, so in a different subtree — survived.
        // An automaton whose states are only surviving nodes collapses
        // the context `…,1` into the root and can never reach ⟨1,0⟩ on
        // the next symbol; the prefix-closure state ⟨1⟩ carries it.
        let to_seq = |v: &[u16]| Sequence::new(v.iter().map(|&s| Symbol(s)).collect());
        let t1 = to_seq(&[
            0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0, 0, 1, 1,
            0, 1, 0, 0, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1,
        ]);
        let t2 = to_seq(&[0, 1, 1, 1, 0, 1, 1, 0, 1, 1, 0, 0, 0, 1, 0]);
        let mut params = PstParams::default().with_max_depth(2).with_significance(2);
        params.smoothing = Some(0.01862098843377047);
        let mut pst = Pst::new(2, params);
        pst.add_sequence(&t1);
        pst.add_sequence(&t2);
        pst.prune_to((pst.bytes() as f64 * 0.5217968466275402) as usize);
        let probe: Vec<Symbol> = to_seq(&[
            0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 1, 0,
            1, 1, 1, 0, 1, 0, 1, 0, 1, 0,
        ])
        .iter()
        .collect();
        assert_tracks_scanner(&pst, &probe);
    }

    #[test]
    fn compiled_steps_match_without_smoothing() {
        let (alphabet, pst) = build("abcabcabcabc", 2, false);
        let probe = Sequence::parse_str(&alphabet, "abcabccba").unwrap();
        let symbols: Vec<Symbol> = probe.iter().collect();
        assert_tracks_scanner(&pst, &symbols);
    }

    #[test]
    fn goto_follows_the_prediction_walk() {
        // Exhaustively check goto against the definitional root walk over
        // every reachable state and symbol.
        let (alphabet, pst) = build("abcabcaabbccabcbacbca", 2, true);
        let bg = BackgroundModel::uniform(3);
        let compiled = CompiledPst::compile(&pst, &bg);
        let probe = Sequence::parse_str(&alphabet, "abcbacbcaabbccabc").unwrap();
        let mut context: Vec<Symbol> = Vec::new();
        let mut state = CompiledPst::START;
        for sym in probe.iter() {
            context.push(sym);
            let window_start = context.len().saturating_sub(pst.params().max_depth);
            let walk = pst.prediction_node(&context[window_start..]);
            let (_, next) = compiled.step(state, sym);
            state = next;
            // The state's depth must match the walk's node depth — and the
            // per-step ratios matching bit-for-bit (other tests) pins the
            // distribution; together the automaton tracks the walk.
            assert_eq!(
                compiled.best_step(state).to_bits(),
                {
                    let node = pst.node(walk);
                    let total = node.next_total();
                    let mut best = f64::NEG_INFINITY;
                    for s in 0..3u16 {
                        let raw = if total == 0 {
                            1.0 / 3.0
                        } else {
                            node.next_count(Symbol(s)) as f64 / total as f64
                        };
                        best = best.max(pst.smooth(raw).ln() - bg.ln_prob(Symbol(s)));
                    }
                    best
                }
                .to_bits()
            );
        }
    }

    #[test]
    fn bounds_dominate_every_step() {
        let (alphabet, pst) = build("abcabcaabbccab", 1, true);
        let bg = BackgroundModel::uniform(3);
        let compiled = CompiledPst::compile(&pst, &bg);
        let probe = Sequence::parse_str(&alphabet, "abcbacbca").unwrap();
        let mut state = CompiledPst::START;
        for sym in probe.iter() {
            let (x, next) = compiled.step(state, sym);
            assert!(x <= compiled.best_step(state));
            assert!(x <= compiled.max_step_plus());
            state = next;
        }
        assert!(compiled.max_step_plus() >= 0.0);
    }

    #[test]
    fn trivial_tree_compiles_to_one_state() {
        // Significance higher than any count: only the root is significant.
        let (_, pst) = build("abc", 1000, true);
        let compiled = CompiledPst::compile(&pst, &BackgroundModel::uniform(3));
        assert_eq!(compiled.state_count(), 1);
        assert_eq!(compiled.alphabet_size(), 3);
        for s in 0..3u16 {
            let (_, next) = compiled.step(CompiledPst::START, Symbol(s));
            assert_eq!(next, CompiledPst::START);
        }
        assert!(compiled.table_bytes() > 0);
    }

    #[test]
    fn compile_matches_the_reference_on_the_fixtures() {
        let bg = BackgroundModel::uniform(3);
        for (text, c, smoothing) in [
            ("abcabcaabbccabcbacbca", 2, true),
            ("abcabcabcabc", 2, true),
            ("abcabcabcabc", 2, false),
            ("abcabcaabbccab", 1, true),
            ("abc", 1000, true),
        ] {
            let (_, pst) = build(text, c, smoothing);
            assert_matches_reference(&pst, &bg, text);
        }
        let (_, mut pruned) = build("abcabcaabbccabacbcabcabc", 1, true);
        pruned.prune_to(pruned.bytes() / 2);
        assert_matches_reference(&pruned, &bg, "pruned fixture");
    }

    #[test]
    fn compile_matches_the_reference_on_an_empty_tree() {
        // The root has no successors: every row is the uniform row.
        for n in [1usize, 2, 7] {
            let pst = Pst::new(n, PstParams::default());
            assert_matches_reference(&pst, &BackgroundModel::uniform(n), "empty");
            let raw = Pst::new(n, PstParams::default().without_smoothing());
            assert_matches_reference(&raw, &BackgroundModel::uniform(n), "empty, raw");
        }
    }

    #[test]
    fn compile_matches_the_reference_on_random_trees() {
        let mut rng = StdRng::seed_from_u64(0x5eed_c0de);
        let mut broken_links = 0;
        let mut most_states = 0;
        for case in 0..60 {
            let n = match case % 4 {
                0 => rng.gen_range(2..=4),
                1 => rng.gen_range(5..=20),
                2 => rng.gen_range(21..=60),
                _ => rng.gen_range(61..=100),
            };
            let depth = rng.gen_range(2..=8);
            let significance = rng.gen_range(1..=10);
            let mut params = PstParams::default()
                .with_max_depth(depth)
                .with_significance(significance);
            if case % 3 == 0 {
                params = params.without_smoothing();
            }
            // Skewed symbols so some contexts repeat and grow significant.
            let hot = rng.gen_range(1..=n.min(6));
            let draw = |rng: &mut StdRng| {
                let s = if rng.gen_bool(0.8) {
                    rng.gen_range(0..hot)
                } else {
                    rng.gen_range(0..n)
                };
                Symbol(s as u16)
            };
            let mut pst = Pst::new(n, params);
            for _ in 0..rng.gen_range(1..=6) {
                let len = rng.gen_range(1..=300);
                let seq: Vec<Symbol> = (0..len).map(|_| draw(&mut rng)).collect();
                pst.add_segment(&seq);
            }
            let probs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..2.0)).collect();
            let total: f64 = probs.iter().sum();
            let bg = BackgroundModel::from_probs(probs.iter().map(|p| p / total).collect());
            let ctx = format!("case {case}: n {n} depth {depth} c {significance}");
            assert_matches_reference(&pst, &bg, &ctx);
            most_states = most_states.max(CompiledPst::compile(&pst, &bg).state_count());
            if case % 2 == 0 {
                // Pruning away nodes with outgoing right links breaks them.
                pst.prune_to(pst.bytes() * rng.gen_range(3..=8) / 10);
                broken_links += usize::from(!pst.right_links_intact());
                assert_matches_reference(&pst, &bg, &format!("{ctx}, pruned"));
            }
        }
        // The sweep must reach deep automata and link-broken trees.
        assert!(most_states > 100, "largest automaton: {most_states} states");
        assert!(
            broken_links > 5,
            "pruned trees with broken links: {broken_links}"
        );
    }
}
