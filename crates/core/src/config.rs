//! CLUSEQ parameters.

use serde::{Deserialize, Serialize};

use cluseq_pst::{PruneStrategy, PstParams};

use crate::order::ExaminationOrder;

/// What happens to a cluster that fails the consolidation test (§4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConsolidationMode {
    /// The paper's rule: the covered cluster is dismissed outright.
    Dismiss,
    /// Extension: the covered cluster's model is merged into the retained
    /// cluster it overlaps most, so its statistical evidence survives.
    /// Exposed for the ablation benches.
    MergeIntoCovering,
}

/// How the re-clustering scan applies model updates (§4.2).
///
/// Joins the `rebuild_psts` / [`ExaminationOrder`] family of scan
/// ablations; the default is the paper's rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ScanMode {
    /// The paper's rule: a new join's maximizing segment is inserted into
    /// the cluster model *immediately*, so later sequences in the same
    /// scan are scored against the updated model. Order-dependent by
    /// design (§6.3), and therefore inherently serial.
    #[default]
    Incremental,
    /// Scan variant: every (sequence, cluster) similarity is computed
    /// against the models as they stood at the *start* of the scan — a
    /// pure map, evaluated in parallel by [`crate::score`] — and the
    /// maximizing segments of new joins are absorbed in a sequential
    /// second phase. Results are bit-identical for any thread count.
    Snapshot,
}

impl std::fmt::Display for ScanMode {
    /// Renders the same lowercase token [`FromStr`](std::str::FromStr)
    /// accepts (`incremental` / `snapshot`), so the value round-trips
    /// through config files and run reports.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ScanMode::Incremental => "incremental",
            ScanMode::Snapshot => "snapshot",
        })
    }
}

impl std::str::FromStr for ScanMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "incremental" => Ok(ScanMode::Incremental),
            "snapshot" => Ok(ScanMode::Snapshot),
            other => Err(format!(
                "unknown scan mode {other:?} (expected incremental|snapshot)"
            )),
        }
    }
}

/// Which implementation evaluates the per-symbol similarity DP.
///
/// Both kernels compute the exact same X/Y/Z dynamic program and are
/// **bit-identical** in every outcome: the compiled tables hold the very
/// f64 values the interpreted path computes per symbol, consumed in the
/// same per-sequence order. They differ only in speed and in the
/// `pairs_pruned` telemetry counter, since the automaton can prove
/// mid-scan that a pair cannot reach the threshold and exit early.
///
/// Whether a bulk pass scans one sequence at a time or interleaves
/// [`BATCH_LANES`](crate::similarity::BATCH_LANES) sequences per
/// automaton is not a kernel choice:
/// [`ClusterAutomaton::scan_batch`](crate::ClusterAutomaton::scan_batch)
/// picks the lane driver from the automaton's table size, and its
/// per-lane arithmetic is the single-sequence scan's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ScanKernel {
    /// Walk the PST per symbol via the [context
    /// scanner](cluseq_pst::ContextScanner): child lookups, successor-count
    /// summation, and two `ln()` calls per position.
    Interpreted,
    /// Flatten each frozen PST into a dense goto + log-ratio automaton
    /// ([`cluseq_pst::CompiledPst`]) once per scan phase, making the hot
    /// loop two array loads per symbol with threshold early-exit.
    #[default]
    Compiled,
}

impl ScanKernel {
    /// Every kernel, in the order the CLI documents them.
    pub const ALL: [ScanKernel; 2] = [ScanKernel::Interpreted, ScanKernel::Compiled];

    /// Whether this kernel scans via a precompiled automaton (everything
    /// but [`Interpreted`](Self::Interpreted)) — and therefore supports
    /// threshold early-exit (`prune_below`).
    pub fn uses_automaton(self) -> bool {
        !matches!(self, ScanKernel::Interpreted)
    }
}

impl std::fmt::Display for ScanKernel {
    /// Renders the same lowercase token [`FromStr`](std::str::FromStr)
    /// accepts (`interpreted` / `compiled`), so the value round-trips
    /// through config files and run reports.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ScanKernel::Interpreted => "interpreted",
            ScanKernel::Compiled => "compiled",
        })
    }
}

impl std::str::FromStr for ScanKernel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "interpreted" => Ok(ScanKernel::Interpreted),
            "compiled" => Ok(ScanKernel::Compiled),
            other => Err(format!(
                "unknown scan kernel {other:?} (expected interpreted|compiled; \
                 lane batching is now automatic for large models)"
            )),
        }
    }
}

/// When and where the iteration loop writes crash-recovery checkpoints
/// (see [`crate::checkpoint`]).
///
/// A checkpoint captures the complete loop state after an iteration —
/// cluster models with member lists, the RNG stream position, the
/// threshold trajectory, and accumulated telemetry — so a killed run can
/// be resumed with [`crate::Cluseq::resume`] and finish **bit-identically**
/// to an uninterrupted one. Files are written atomically (temp file +
/// fsync + rename), one per checkpointed iteration, named
/// `cluseq-NNNNNN.ckpt` under `dir`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointPolicy {
    /// Directory receiving checkpoint files (created on first write).
    pub dir: std::path::PathBuf,
    /// Write a checkpoint after every `every` completed iterations
    /// (`1` = every iteration). A final checkpoint is also written when
    /// the loop reaches its fixpoint, regardless of cadence.
    ///
    /// Must be at least 1; [`CheckpointPolicy::new`] enforces this.
    pub every: usize,
}

impl CheckpointPolicy {
    /// A policy writing to `dir` every `every` iterations.
    ///
    /// # Panics
    ///
    /// Panics if `every` is 0.
    pub fn new(dir: impl Into<std::path::PathBuf>, every: usize) -> Self {
        assert!(every >= 1, "checkpoint cadence must be >= 1");
        Self {
            dir: dir.into(),
            every,
        }
    }

    /// The file path of the checkpoint written after `completed`
    /// iterations have finished.
    pub fn path_for(&self, completed: usize) -> std::path::PathBuf {
        self.dir.join(format!("cluseq-{completed:06}.ckpt"))
    }
}

/// Parameters of the CLUSEQ algorithm (`k`, `c`, `t` in the paper, plus the
/// knobs of §4–§5 the paper fixes to stated defaults).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CluseqParams {
    /// `k`: number of clusters generated at the first iteration. The paper
    /// stresses this only sets a starting point — the growth factor and
    /// consolidation adapt the count automatically. Default 1.
    pub initial_clusters: usize,
    /// `c`: the significance threshold for PST nodes *and* the minimum
    /// exclusive membership a cluster must keep to survive consolidation.
    /// The paper's rule of thumb is 30.
    pub significance: u64,
    /// `t`: the initial similarity threshold (natural units, ≥ 1). The
    /// paper's protein experiment deliberately starts from 1.0005 and lets
    /// adjustment find the real value.
    pub initial_threshold: f64,
    /// Whether to adjust `t` toward the histogram valley each iteration
    /// (§4.6). Default true.
    pub adjust_threshold: bool,
    /// Sample size multiplier: `m = sample_factor × k_n` sample sequences
    /// are drawn when generating `k_n` new clusters. The paper uses 5.
    pub sample_factor: usize,
    /// Maximum context length `L` for every cluster's PST.
    pub max_depth: usize,
    /// Per-cluster PST byte budget (paper: 5 MB), or `None` for unbounded.
    pub max_pst_bytes: Option<usize>,
    /// PST pruning strategy when the budget is exceeded.
    pub prune_strategy: PruneStrategy,
    /// Smoothing floor `p_min` (§5.2); `None` disables adjustment.
    pub smoothing: Option<f64>,
    /// Order in which sequences are examined during re-clustering (§6.3).
    pub order: ExaminationOrder,
    /// Histogram resolution for threshold adjustment.
    pub histogram_buckets: usize,
    /// Hard iteration cap (the paper's loop terminates on a fixpoint; the
    /// cap guards degenerate configurations).
    pub max_iterations: usize,
    /// What to do with clusters that fail consolidation: the paper's
    /// dismissal, or the merge extension.
    pub consolidation: ConsolidationMode,
    /// Minimum number of *exclusive* members a cluster must keep to
    /// survive consolidation. `None` (default) follows the paper and uses
    /// the significance threshold `c`; setting it explicitly decouples the
    /// two, which matters at reduced data scales where the statistically
    /// right `c` is small.
    pub min_exclusive: Option<usize>,
    /// Rebuild each cluster's PST from its current members' maximizing
    /// segments at the end of every iteration, instead of only inserting
    /// segments when a sequence first joins. Not in the paper (which only
    /// ever inserts); exposed for the ablation benches. Default false.
    pub rebuild_psts: bool,
    /// How the re-clustering scan applies model updates: the paper's
    /// immediate insertion, or the parallel snapshot-score variant.
    pub scan_mode: ScanMode,
    /// Which similarity-DP implementation every scoring pass uses. The
    /// two kernels are bit-identical in outcome (see [`ScanKernel`]);
    /// compiled is the default and the fast path.
    pub scan_kernel: ScanKernel,
    /// Worker threads for the read-only scoring passes: seed selection,
    /// the final assignment sweep, online scoring, and — under
    /// [`ScanMode::Snapshot`] — the scan's score phase. 1 = serial.
    /// Results are bit-identical for any value (see [`crate::score`]);
    /// under [`ScanMode::Incremental`] the scan itself stays serial
    /// because its PST updates are order-dependent by design (§6.3).
    pub threads: usize,
    /// Reuse cached (sequence, cluster) similarities for clusters whose
    /// model did not change, recompile automata only for dirty clusters,
    /// and delta-encode checkpoints against the previous one (see
    /// [`crate::incremental`]). Clustering output is byte-identical with
    /// the flag on or off; only work skipped (and the `pairs_reused`,
    /// `clusters_dirty`, `pst_recompiles` telemetry) changes. Default
    /// false.
    pub incremental: bool,
    /// Under [`ScanMode::Snapshot`], split each re-clustering scan into
    /// fixed shards of this many examination positions, bounding the
    /// resident verdict matrix to `shard × clusters` instead of
    /// `n × clusters` (the out-of-core engine's scan layer; see
    /// [`crate::recluster`]). Shard boundaries are invisible — results
    /// are bit-identical for any shard size. `None` (default) scans in
    /// one shard. Rejected by [`CluseqParams::validate`] under
    /// [`ScanMode::Incremental`] (already O(1) resident) and with the
    /// incremental engine (its cache is O(n·k) resident, so sharding
    /// would bound nothing).
    pub scan_shard: Option<usize>,
    /// Byte budget, in MiB, for the paged cluster-model cache (see
    /// [`crate::models::ModelCache`]): compiled scan automata are kept
    /// across iterations up to this budget and rebuilt deterministically
    /// on demand, instead of all being recompiled (or all held) every
    /// scan. `None` (default) keeps the pre-existing behaviour — every
    /// scan compiles its own automata and drops them. Output is
    /// bit-identical with any budget.
    pub model_cache_mb: Option<usize>,
    /// Crash-recovery checkpointing (see [`CheckpointPolicy`] and
    /// [`crate::checkpoint`]); `None` (default) writes nothing.
    pub checkpoint: Option<CheckpointPolicy>,
    /// RNG seed (sampling, random examination order).
    pub seed: u64,
}

impl Default for CluseqParams {
    fn default() -> Self {
        Self {
            initial_clusters: 1,
            significance: 30,
            initial_threshold: 1.0005,
            adjust_threshold: true,
            sample_factor: 5,
            max_depth: 12,
            max_pst_bytes: Some(5 * 1024 * 1024),
            prune_strategy: PruneStrategy::Composite,
            smoothing: Some(1e-4),
            order: ExaminationOrder::Fixed,
            histogram_buckets: 100,
            max_iterations: 50,
            consolidation: ConsolidationMode::Dismiss,
            min_exclusive: None,
            rebuild_psts: false,
            scan_mode: ScanMode::Incremental,
            scan_kernel: ScanKernel::Compiled,
            threads: 1,
            incremental: false,
            scan_shard: None,
            model_cache_mb: None,
            checkpoint: None,
            seed: 0xC105E9, // arbitrary fixed default for reproducibility
        }
    }
}

impl CluseqParams {
    /// Sets `k`, the initial cluster count.
    pub fn with_initial_clusters(mut self, k: usize) -> Self {
        self.initial_clusters = k;
        self
    }

    /// Sets `c`, the significance threshold.
    pub fn with_significance(mut self, c: u64) -> Self {
        self.significance = c;
        self
    }

    /// Sets the initial similarity threshold `t` (natural units).
    ///
    /// # Panics
    ///
    /// Panics if `t < 1` — the paper requires `t ≥ 1` for a meaningful
    /// separation between clustered sequences and outliers.
    pub fn with_initial_threshold(mut self, t: f64) -> Self {
        assert!(t >= 1.0, "similarity threshold must be >= 1 (got {t})");
        self.initial_threshold = t;
        self
    }

    /// Enables or disables automatic threshold adjustment.
    pub fn with_threshold_adjustment(mut self, on: bool) -> Self {
        self.adjust_threshold = on;
        self
    }

    /// Sets the sample multiplier (`m = factor × k_n`).
    pub fn with_sample_factor(mut self, factor: usize) -> Self {
        assert!(factor >= 1, "sample factor must be >= 1");
        self.sample_factor = factor;
        self
    }

    /// Sets the PST context-length bound `L`.
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth;
        self
    }

    /// Sets the per-cluster PST byte budget.
    pub fn with_max_pst_bytes(mut self, bytes: usize) -> Self {
        self.max_pst_bytes = Some(bytes);
        self
    }

    /// Removes the per-cluster byte budget.
    pub fn without_pst_limit(mut self) -> Self {
        self.max_pst_bytes = None;
        self
    }

    /// Sets the examination order.
    pub fn with_order(mut self, order: ExaminationOrder) -> Self {
        self.order = order;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the iteration cap.
    pub fn with_max_iterations(mut self, cap: usize) -> Self {
        assert!(cap >= 1, "need at least one iteration");
        self.max_iterations = cap;
        self
    }

    /// Overrides the consolidation exclusive-membership minimum.
    pub fn with_min_exclusive(mut self, min: usize) -> Self {
        self.min_exclusive = Some(min);
        self
    }

    /// The consolidation minimum actually in force.
    pub fn effective_min_exclusive(&self) -> usize {
        self.min_exclusive.unwrap_or(self.significance as usize)
    }

    /// Sets the consolidation mode (dismiss per the paper, or merge).
    pub fn with_consolidation(mut self, mode: ConsolidationMode) -> Self {
        self.consolidation = mode;
        self
    }

    /// Sets the worker-thread count for read-only scoring passes.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Enables the (non-paper) per-iteration PST rebuild ablation.
    pub fn with_pst_rebuild(mut self, on: bool) -> Self {
        self.rebuild_psts = on;
        self
    }

    /// Sets the re-clustering scan mode.
    pub fn with_scan_mode(mut self, mode: ScanMode) -> Self {
        self.scan_mode = mode;
        self
    }

    /// Sets the similarity-DP kernel (interpreted walk or compiled
    /// automaton).
    pub fn with_scan_kernel(mut self, kernel: ScanKernel) -> Self {
        self.scan_kernel = kernel;
        self
    }

    /// Enables or disables the incremental iteration engine (cached
    /// similarities for clean clusters, dirty-only recompiles, delta
    /// checkpoints). See [`crate::incremental`].
    pub fn with_incremental(mut self, on: bool) -> Self {
        self.incremental = on;
        self
    }

    /// Shards the snapshot scan into fixed ranges of `shard` examination
    /// positions (see [`CluseqParams::scan_shard`]).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is 0.
    pub fn with_scan_shard(mut self, shard: usize) -> Self {
        assert!(shard >= 1, "scan shard must be >= 1");
        self.scan_shard = Some(shard);
        self
    }

    /// Removes the scan-shard bound (whole-corpus score phase).
    pub fn without_scan_shard(mut self) -> Self {
        self.scan_shard = None;
        self
    }

    /// Caps the paged model cache at `mb` MiB (see
    /// [`CluseqParams::model_cache_mb`]). `0` is allowed: every automaton
    /// is rebuilt on demand and nothing is retained.
    pub fn with_model_cache_mb(mut self, mb: usize) -> Self {
        self.model_cache_mb = Some(mb);
        self
    }

    /// Disables the paged model cache (automata compiled per scan).
    pub fn without_model_cache(mut self) -> Self {
        self.model_cache_mb = None;
        self
    }

    /// Enables crash-recovery checkpoints: one written to `dir` after
    /// every `every` completed iterations (see [`CheckpointPolicy`]).
    pub fn with_checkpoints(mut self, dir: impl Into<std::path::PathBuf>, every: usize) -> Self {
        self.checkpoint = Some(CheckpointPolicy::new(dir, every));
        self
    }

    /// Disables checkpointing.
    pub fn without_checkpoints(mut self) -> Self {
        self.checkpoint = None;
        self
    }

    /// The PST parameter block derived from these settings.
    pub fn pst_params(&self) -> PstParams {
        let mut p = PstParams::default()
            .with_max_depth(self.max_depth)
            .with_significance(self.significance)
            .with_prune_strategy(self.prune_strategy);
        p = match self.smoothing {
            Some(p_min) => p.with_smoothing(p_min),
            None => p.without_smoothing(),
        };
        p.memory_limit = self.max_pst_bytes;
        p
    }

    /// Validates parameter consistency for an alphabet of `n` symbols.
    pub fn validate(&self, alphabet_size: usize) {
        assert!(
            self.initial_threshold >= 1.0,
            "similarity threshold must be >= 1"
        );
        assert!(self.sample_factor >= 1);
        assert!(
            self.histogram_buckets >= 3,
            "valley detection needs >= 3 buckets"
        );
        assert!(self.max_iterations >= 1);
        if let Some(cp) = &self.checkpoint {
            assert!(cp.every >= 1, "checkpoint cadence must be >= 1");
        }
        if let Some(shard) = self.scan_shard {
            assert!(shard >= 1, "scan shard must be >= 1");
            assert!(
                self.scan_mode == ScanMode::Snapshot,
                "scan sharding requires the snapshot scan mode \
                 (the incremental scan is already O(1) resident)"
            );
            assert!(
                !self.incremental,
                "scan sharding is incompatible with the incremental engine \
                 (its similarity cache is O(n·k) resident, so sharding would \
                 bound nothing)"
            );
        }
        self.pst_params().validate(alphabet_size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let p = CluseqParams::default();
        assert_eq!(p.initial_clusters, 1); // "the default value of k is 1"
        assert_eq!(p.significance, 30); // "c is usually set to >= 30"
        assert_eq!(p.sample_factor, 5); // "we set m = 5 k_n"
        assert_eq!(p.max_pst_bytes, Some(5 * 1024 * 1024)); // "5MB"
        assert_eq!(p.order, ExaminationOrder::Fixed); // "fixed order was used"
        assert!(p.adjust_threshold);
    }

    #[test]
    fn builders_compose_and_validate() {
        let p = CluseqParams::default()
            .with_initial_clusters(10)
            .with_significance(3)
            .with_initial_threshold(2.0)
            .with_sample_factor(3)
            .with_max_depth(6)
            .with_seed(42);
        p.validate(20);
        assert_eq!(p.initial_clusters, 10);
        assert_eq!(p.pst_params().significance, 3);
        assert_eq!(p.pst_params().max_depth, 6);
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn threshold_below_one_is_rejected() {
        CluseqParams::default().with_initial_threshold(0.5);
    }

    #[test]
    fn scan_mode_parses_and_defaults_to_the_paper() {
        assert_eq!(CluseqParams::default().scan_mode, ScanMode::Incremental);
        assert_eq!("incremental".parse(), Ok(ScanMode::Incremental));
        assert_eq!("snapshot".parse(), Ok(ScanMode::Snapshot));
        assert!("Snapshot".parse::<ScanMode>().is_err());
        assert_eq!(
            CluseqParams::default()
                .with_scan_mode(ScanMode::Snapshot)
                .scan_mode,
            ScanMode::Snapshot
        );
    }

    #[test]
    fn scan_mode_display_round_trips_through_from_str() {
        for mode in [ScanMode::Incremental, ScanMode::Snapshot] {
            assert_eq!(mode.to_string().parse(), Ok(mode));
        }
    }

    #[test]
    fn scan_kernel_parses_and_defaults_to_compiled() {
        assert_eq!(CluseqParams::default().scan_kernel, ScanKernel::Compiled);
        assert_eq!("interpreted".parse(), Ok(ScanKernel::Interpreted));
        assert_eq!("compiled".parse(), Ok(ScanKernel::Compiled));
        assert!("Compiled".parse::<ScanKernel>().is_err());
        assert_eq!(
            CluseqParams::default()
                .with_scan_kernel(ScanKernel::Interpreted)
                .scan_kernel,
            ScanKernel::Interpreted
        );
    }

    #[test]
    fn scan_kernel_display_round_trips_through_from_str() {
        for kernel in ScanKernel::ALL {
            assert_eq!(kernel.to_string().parse(), Ok(kernel));
        }
    }

    #[test]
    fn scan_kernel_rejects_unknown_names_listing_the_valid_set() {
        let err = "warp".parse::<ScanKernel>().unwrap_err();
        for token in [
            "warp",
            "interpreted",
            "compiled",
            "lane batching is now automatic",
        ] {
            assert!(err.contains(token), "error {err:?} must mention {token}");
        }
        // The retired driver and table choices get the same answer.
        for removed in ["batched", "quantized"] {
            let err = removed.parse::<ScanKernel>().unwrap_err();
            assert!(err.contains("interpreted|compiled"), "{err}");
            assert!(err.contains("lane batching is now automatic"), "{err}");
        }
    }

    #[test]
    fn scan_kernel_classification_helpers() {
        use ScanKernel::*;
        assert!(!Interpreted.uses_automaton());
        assert!(Compiled.uses_automaton());
    }

    #[test]
    fn checkpoint_policy_builds_and_names_files() {
        let p = CluseqParams::default().with_checkpoints("/tmp/ckpt", 3);
        let policy = p.checkpoint.as_ref().unwrap();
        assert_eq!(policy.every, 3);
        assert_eq!(
            policy.path_for(12),
            std::path::Path::new("/tmp/ckpt/cluseq-000012.ckpt")
        );
        assert!(p.without_checkpoints().checkpoint.is_none());
    }

    #[test]
    #[should_panic(expected = "cadence")]
    fn zero_checkpoint_cadence_is_rejected() {
        CheckpointPolicy::new("x", 0);
    }

    #[test]
    fn scan_shard_requires_the_snapshot_mode() {
        let p = CluseqParams::default()
            .with_scan_mode(ScanMode::Snapshot)
            .with_scan_shard(1024)
            .with_model_cache_mb(64);
        p.validate(20);
        assert_eq!(p.scan_shard, Some(1024));
        assert_eq!(p.model_cache_mb, Some(64));
        assert!(p.clone().without_scan_shard().scan_shard.is_none());
        assert!(p.without_model_cache().model_cache_mb.is_none());
    }

    #[test]
    #[should_panic(expected = "snapshot")]
    fn scan_shard_under_incremental_mode_is_rejected() {
        CluseqParams::default().with_scan_shard(64).validate(20);
    }

    #[test]
    #[should_panic(expected = "incremental engine")]
    fn scan_shard_with_the_incremental_engine_is_rejected() {
        CluseqParams::default()
            .with_scan_mode(ScanMode::Snapshot)
            .with_incremental(true)
            .with_scan_shard(64)
            .validate(20);
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn zero_scan_shard_is_rejected() {
        CluseqParams::default().with_scan_shard(0);
    }

    #[test]
    fn pst_params_inherit_memory_limit() {
        let p = CluseqParams::default().with_max_pst_bytes(1234);
        assert_eq!(p.pst_params().memory_limit, Some(1234));
        let p = p.without_pst_limit();
        assert_eq!(p.pst_params().memory_limit, None);
    }
}
