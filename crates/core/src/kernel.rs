//! Kernel dispatch: one handle for "a cluster model, compiled for the
//! automaton scan kernel".
//!
//! The scan call-sites — recluster's serial scan, seeding's farthest-first
//! folds, the final assignment sweep, serve's classifier, and the score
//! engine's snapshot passes — build a [`ClusterAutomaton`] once per frozen
//! model and then scan through a uniform API. There is one table format,
//! exact `f64` ([`CompiledPst`]), and two drivers over it: the
//! single-sequence scan and the eight-lane interleaved scan of
//! [`max_similarity_compiled_batch`]. Serial call-sites (one sequence at a
//! time, models evolving mid-scan) use [`ClusterAutomaton::scan_pruned`];
//! bulk passes hand lane groups to [`ClusterAutomaton::scan_batch`], which
//! picks the driver from the automaton's [table
//! size](ClusterAutomaton::table_bytes). Both drivers perform each lane's
//! arithmetic in the same order, so the choice changes memory behavior,
//! never a result.

use cluseq_pst::{CompiledPst, Pst};
use cluseq_seq::{BackgroundModel, Symbol};

use crate::config::ScanKernel;
use crate::similarity::{
    max_similarity_compiled, max_similarity_compiled_batch, max_similarity_compiled_bounded,
    BoundedSimilarity, SegmentSimilarity,
};

/// Table size above which [`ClusterAutomaton::scan_batch`] interleaves
/// lanes. Below it the tables stay cache-resident, the single-sequence
/// scan is not latency-bound, and the lane driver has little to hide.
/// Read off the committed `BENCH_scan.json`, it lies between `a60_len50`
/// (200,200 table bytes) and `a4_len50_xl` (703,360 bytes): up to the
/// first, the lane driver runs at 0.70–1.28× the single scan's speed, a
/// margin that changes sign between runs; from the second up it wins
/// 2.1–6.6× on all but `a60_len200` (0.96×).
pub const LANE_CROSSOVER_BYTES: usize = 512 * 1024;

/// A cluster's frozen model, compiled for the automaton scan kernel (see
/// the [module docs](self)).
#[derive(Debug, Clone)]
pub enum ClusterAutomaton {
    /// Exact f64 goto and log-ratio tables.
    Exact(CompiledPst),
}

impl ClusterAutomaton {
    /// Compiles `pst` for `kernel`. Returns `None` for
    /// [`ScanKernel::Interpreted`], which scans the tree directly.
    pub fn build(pst: &Pst, background: &BackgroundModel, kernel: ScanKernel) -> Option<Self> {
        kernel
            .uses_automaton()
            .then(|| Self::Exact(CompiledPst::compile(pst, background)))
    }

    /// The compiled tables.
    pub fn tables(&self) -> &CompiledPst {
        match self {
            Self::Exact(compiled) => compiled,
        }
    }

    /// Scores one sequence, unbounded; bit-identical to the interpreted
    /// kernel.
    pub fn scan(&self, seq: &[Symbol]) -> SegmentSimilarity {
        max_similarity_compiled(self.tables(), seq)
    }

    /// Scores one sequence with threshold early-exit (see
    /// [`max_similarity_compiled_bounded`]).
    pub fn scan_bounded(&self, seq: &[Symbol], threshold: f64) -> BoundedSimilarity {
        max_similarity_compiled_bounded(self.tables(), seq, threshold)
    }

    /// [`scan_bounded`](Self::scan_bounded) driven by the caller's choice
    /// of `prune_below`: `None` scans to completion and always yields
    /// [`BoundedSimilarity::Exact`].
    pub fn scan_pruned(&self, seq: &[Symbol], prune_below: Option<f64>) -> BoundedSimilarity {
        match prune_below {
            Some(log_t) => self.scan_bounded(seq, log_t),
            None => BoundedSimilarity::Exact(self.scan(seq)),
        }
    }

    /// Whether [`scan_batch`](Self::scan_batch) runs the interleaved lane
    /// driver: only once the tables exceed [`LANE_CROSSOVER_BYTES`].
    pub fn interleaves_lanes(&self) -> bool {
        self.table_bytes() > LANE_CROSSOVER_BYTES
    }

    /// Scores a batch of sequences. `out[lane]` is bit-identical to
    /// [`scan_pruned`](Self::scan_pruned)`(seqs[lane], threshold)`, prune
    /// verdicts included, whichever driver
    /// [`interleaves_lanes`](Self::interleaves_lanes) picks.
    pub fn scan_batch(&self, seqs: &[&[Symbol]], threshold: Option<f64>) -> Vec<BoundedSimilarity> {
        if self.interleaves_lanes() {
            max_similarity_compiled_batch(self.tables(), seqs, threshold)
        } else {
            seqs.iter()
                .map(|seq| self.scan_pruned(seq, threshold))
                .collect()
        }
    }

    /// Heap footprint of the underlying tables.
    pub fn table_bytes(&self) -> usize {
        self.tables().table_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluseq_pst::PstParams;
    use cluseq_seq::Sequence;

    fn fixture() -> (Pst, BackgroundModel, Vec<Symbol>) {
        let alphabet = cluseq_seq::Alphabet::from_chars("abc".chars());
        let train = Sequence::parse_str(&alphabet, "abcabcaabbccabcbacbca").unwrap();
        let pst = Pst::from_sequence(
            3,
            PstParams::default().with_significance(2).with_max_depth(4),
            &train,
        );
        let probe = Sequence::parse_str(&alphabet, "abcabcaabbcc")
            .unwrap()
            .iter()
            .collect();
        (pst, BackgroundModel::uniform(3), probe)
    }

    /// A model whose tables overflow [`LANE_CROSSOVER_BYTES`]: a pseudo-
    /// random walk over 24 symbols trained with every context significant,
    /// plus probes of mixed lengths, including one the lane driver retires
    /// early and an empty one.
    fn large_fixture() -> (Pst, BackgroundModel, Vec<Vec<Symbol>>) {
        const SYMBOLS: u16 = 24;
        let mut x = 0x9e37_79b9u32;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            Symbol((x % u32::from(SYMBOLS)) as u16)
        };
        let train: Vec<Symbol> = (0..4_000).map(|_| next()).collect();
        let mut pst = Pst::new(
            usize::from(SYMBOLS),
            PstParams::default().with_significance(1).with_max_depth(4),
        );
        pst.add_segment(&train);
        let mut probes: Vec<Vec<Symbol>> = (0..9)
            .map(|i| train[i * 300..i * 300 + 40 + 25 * i].to_vec())
            .collect();
        probes.push((0..150).map(|_| next()).collect());
        probes.push(vec![Symbol(3)]);
        probes.push(Vec::new());
        (pst, BackgroundModel::uniform(usize::from(SYMBOLS)), probes)
    }

    #[test]
    fn interpreted_kernel_builds_no_automaton() {
        let (pst, bg, _) = fixture();
        assert!(ClusterAutomaton::build(&pst, &bg, ScanKernel::Interpreted).is_none());
        let a = ClusterAutomaton::build(&pst, &bg, ScanKernel::Compiled).unwrap();
        assert!(a.table_bytes() > 0);
    }

    #[test]
    fn compiled_and_batched_share_exact_tables() {
        let (pst, bg, probe) = fixture();
        let a = ClusterAutomaton::build(&pst, &bg, ScanKernel::Compiled).unwrap();
        let lanes = max_similarity_compiled_batch(a.tables(), &[&probe], None);
        assert_eq!(lanes, vec![BoundedSimilarity::Exact(a.scan(&probe))]);
        assert_eq!(a.table_bytes(), a.tables().table_bytes());
    }

    #[test]
    fn scan_batch_matches_scan_pruned_per_lane() {
        let (small_pst, small_bg, small_probe) = fixture();
        let small = ClusterAutomaton::build(&small_pst, &small_bg, ScanKernel::Compiled).unwrap();
        assert!(!small.interleaves_lanes());
        let (large_pst, large_bg, large_probes) = large_fixture();
        let large = ClusterAutomaton::build(&large_pst, &large_bg, ScanKernel::Compiled).unwrap();
        assert!(
            large.interleaves_lanes(),
            "{} table bytes must overflow the crossover",
            large.table_bytes()
        );

        let small_probes = vec![small_probe.clone(), small_probe[..5].to_vec(), Vec::new()];
        for (automaton, probes) in [(&small, &small_probes), (&large, &large_probes)] {
            let lanes: Vec<&[Symbol]> = probes.iter().map(Vec::as_slice).collect();
            let best = lanes
                .iter()
                .map(|seq| automaton.scan(seq).log_sim)
                .fold(f64::NEG_INFINITY, f64::max);
            // No threshold, one every lane clears or prunes on its merits,
            // and one no lane can reach, which must prune the long lane.
            let unreachable = best + 1e3;
            for threshold in [None, Some(0.5), Some(unreachable)] {
                let batch = automaton.scan_batch(&lanes, threshold);
                assert_eq!(batch.len(), lanes.len());
                for (lane, seq) in lanes.iter().enumerate() {
                    assert_eq!(
                        batch[lane],
                        automaton.scan_pruned(seq, threshold),
                        "{} table bytes, lane {lane}, threshold {threshold:?}",
                        automaton.table_bytes()
                    );
                }
                if threshold == Some(unreachable) {
                    assert!(batch[0].is_pruned());
                }
            }
        }
    }
}
