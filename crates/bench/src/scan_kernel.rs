//! Shared fixture for the scan-kernel measurements: the Criterion bench
//! (`benches/scan_kernel.rs`) and the JSON trajectory runner
//! (`src/bin/bench_scan.rs`) time the same workloads, so the interactive
//! numbers and the recorded `BENCH_scan.json` trajectory are comparable.
//!
//! Each point on the grid trains one PST from a synthetic workload,
//! compiles it, and measures a full similarity pass over a held-out probe
//! set under both `--scan-kernel`s and both drivers of the compiled
//! tables — interpreted tree walk, single-sequence compiled scan, the
//! lane-interleaved driver, and the driver
//! [`ClusterAutomaton::scan_batch`] selects from the table size.
//! Throughput is reported per probe *symbol*: the scan is a per-symbol
//! loop, so ns/symbol is the number the kernel actually changes.

use std::fmt;

use cluseq_core::{
    max_similarity_compiled, max_similarity_compiled_batch, max_similarity_pst, BoundedSimilarity,
    ClusterAutomaton, ScanKernel,
};
use cluseq_datagen::SyntheticSpec;
use cluseq_pst::{Pst, PstParams};
use cluseq_seq::{BackgroundModel, Symbol};

/// One measured grid point: an alphabet size × an average probe length,
/// plus the model scale (training volume, depth, significance) that sets
/// how large the compiled automaton gets.
#[derive(Debug, Clone, Copy)]
pub struct ScanConfig {
    pub alphabet: usize,
    pub avg_len: usize,
    /// Sequences used to train the PST (the probes are held out on top).
    pub training: usize,
    pub max_depth: usize,
    pub significance: u64,
}

impl ScanConfig {
    /// The original small-model grid point: 40 training sequences, depth
    /// 6, significance 5 — automatons in the hundreds-to-low-thousands of
    /// states, tables L1/L2-resident.
    pub fn small(alphabet: usize, avg_len: usize) -> Self {
        Self {
            alphabet,
            avg_len,
            training: 40,
            max_depth: 6,
            significance: 5,
        }
    }

    /// A large-model grid point: an order of magnitude more training
    /// data, deeper contexts, and a permissive significance cut — the
    /// tens-of-thousands-of-states automatons whose tables overflow cache
    /// and turn the single-sequence scan latency-bound. This is the
    /// regime the lane driver exists for.
    pub fn large(alphabet: usize, avg_len: usize) -> Self {
        Self {
            alphabet,
            avg_len,
            training: 600,
            max_depth: 8,
            significance: 2,
        }
    }

    /// The largest grid point: double `large`'s training volume and two
    /// more context levels — protein-database scale, where the tables
    /// overflow L2 and the scan is pure memory latency.
    pub fn xxl(alphabet: usize, avg_len: usize) -> Self {
        Self {
            alphabet,
            avg_len,
            training: 1200,
            max_depth: 10,
            significance: 2,
        }
    }

    /// The scale suffix for display names: `""`/`_xl`/`_xxl`.
    fn scale_suffix(&self) -> &'static str {
        if self.training > 600 {
            "_xxl"
        } else if self.training > 40 {
            "_xl"
        } else {
            ""
        }
    }
}

impl fmt::Display for ScanConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "a{}_len{}{}",
            self.alphabet,
            self.avg_len,
            self.scale_suffix()
        )
    }
}

/// The measurement grid: small/paper-scale/large alphabets crossed with
/// short and long sequences, at all three model scales. Alphabet size
/// moves the per-node successor summation the interpreted path pays;
/// length moves how deep the scanner sits in the tree on average; model
/// scale moves the tables across the cache hierarchy — the axis the lane
/// driver exists for, and the regime (tens of thousands of states) real
/// clustering runs spend their time in.
pub fn configs() -> Vec<ScanConfig> {
    let mut grid = Vec::new();
    for scale in [ScanConfig::small, ScanConfig::large, ScanConfig::xxl] {
        for &alphabet in &[4usize, 12, 60] {
            for &avg_len in &[50usize, 200] {
                grid.push(scale(alphabet, avg_len));
            }
        }
    }
    grid
}

/// A trained model plus held-out probes, built once per grid point.
pub struct ScanFixture {
    pub pst: Pst,
    pub automaton: ClusterAutomaton,
    pub background: BackgroundModel,
    pub probes: Vec<Vec<Symbol>>,
}

impl ScanFixture {
    pub fn build(cfg: ScanConfig, probe_count: usize) -> Self {
        let db = SyntheticSpec {
            sequences: cfg.training + probe_count,
            clusters: 2,
            avg_len: cfg.avg_len,
            alphabet: cfg.alphabet,
            outlier_fraction: 0.0,
            seed: 71,
        }
        .generate();
        let mut pst = Pst::new(
            cfg.alphabet,
            PstParams::default()
                .with_max_depth(cfg.max_depth)
                .with_significance(cfg.significance),
        );
        let mut probes = Vec::new();
        for (i, seq, _) in db.iter() {
            if i < cfg.training {
                pst.add_sequence(seq);
            } else {
                probes.push(seq.iter().collect());
            }
        }
        let background = db.background();
        let automaton = ClusterAutomaton::build(&pst, &background, ScanKernel::Compiled)
            .expect("the compiled kernel builds an automaton");
        Self {
            pst,
            automaton,
            background,
            probes,
        }
    }

    /// Total probe symbols per full pass — the throughput denominator.
    pub fn symbols(&self) -> usize {
        self.probes.iter().map(Vec::len).sum()
    }

    /// One full interpreted pass; returns a checksum so the work is live.
    pub fn run_interpreted(&self) -> f64 {
        self.probes
            .iter()
            .map(|p| max_similarity_pst(&self.pst, &self.background, p).log_sim)
            .sum()
    }

    /// One full compiled pass over the same probes, one at a time.
    pub fn run_compiled(&self) -> f64 {
        self.probes
            .iter()
            .map(|p| max_similarity_compiled(self.automaton.tables(), p).log_sim)
            .sum()
    }

    /// One full batched pass: the same compiled tables, the whole probe
    /// set handed to the lane-interleaved driver in one call so its
    /// length-grouped chunking can do its job.
    pub fn run_batched(&self) -> f64 {
        let refs: Vec<&[Symbol]> = self.probes.iter().map(Vec::as_slice).collect();
        checksum(max_similarity_compiled_batch(
            self.automaton.tables(),
            &refs,
            None,
        ))
    }

    /// One full pass through [`ClusterAutomaton::scan_batch`]: whichever
    /// of the two compiled drivers the table size selects.
    pub fn run_selected(&self) -> f64 {
        let refs: Vec<&[Symbol]> = self.probes.iter().map(Vec::as_slice).collect();
        checksum(self.automaton.scan_batch(&refs, None))
    }
}

/// Sums an unbounded pass's scores.
fn checksum(verdicts: Vec<BoundedSimilarity>) -> f64 {
    verdicts
        .into_iter()
        .map(|verdict| match verdict {
            BoundedSimilarity::Exact(s) => s.log_sim,
            BoundedSimilarity::Pruned => unreachable!("unbounded scans never prune"),
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_kernels_agree_and_have_probes() {
        let fx = ScanFixture::build(ScanConfig::small(4, 50), 8);
        assert!(fx.symbols() > 0);
        assert_eq!(
            fx.run_interpreted().to_bits(),
            fx.run_compiled().to_bits(),
            "bench fixture must exercise bit-identical kernels"
        );
        assert_eq!(
            fx.run_compiled().to_bits(),
            fx.run_batched().to_bits(),
            "the batched driver must sum the same bits as the compiled scan"
        );
        assert_eq!(
            fx.run_compiled().to_bits(),
            fx.run_selected().to_bits(),
            "the selected driver must sum the same bits as the compiled scan"
        );
    }
}
