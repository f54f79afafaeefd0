//! CLUSEQ — efficient and effective sequence clustering
//! (Yang & Wang, ICDE 2003).
//!
//! CLUSEQ groups symbol sequences into (possibly overlapping) clusters by
//! their *sequential* statistical features. Each cluster is modeled by the
//! conditional probability distribution of the next symbol given a
//! preceding segment, held in a [probabilistic suffix tree](cluseq_pst);
//! the similarity of a sequence to a cluster is the largest ratio, over all
//! of its contiguous segments, between the probability of generating the
//! segment under the cluster's model and under a memoryless background
//! model. The algorithm iterates new-cluster generation, re-clustering,
//! and cluster consolidation, adapting both the number of clusters and the
//! similarity threshold automatically.
//!
//! # Quickstart
//!
//! ```
//! use cluseq_core::{Cluseq, CluseqParams};
//! use cluseq_seq::SequenceDatabase;
//!
//! // Two obvious groups: "ab"-repeats and "ba"-prefixed "c"-runs.
//! let texts: Vec<String> = (0..40)
//!     .map(|i| {
//!         if i % 2 == 0 {
//!             "abababababababab".to_string()
//!         } else {
//!             "ccccccccccccccc".to_string()
//!         }
//!     })
//!     .collect();
//! let db = SequenceDatabase::from_strs(texts.iter().map(|s| s.as_str()));
//!
//! let params = CluseqParams::default()
//!     .with_initial_clusters(2)
//!     .with_significance(2)
//!     .with_seed(7);
//! let outcome = Cluseq::new(params).run(&db);
//! assert!(outcome.cluster_count() >= 2);
//! ```
//!
//! To watch a run instead of just reading its end state, pass a
//! [`telemetry::RunObserver`] to [`Cluseq::run_observed`] — the bundled
//! [`telemetry::RunReport`] records per-iteration phase timings, cluster
//! lifecycle counts, threshold trajectory, and model sizes.

#![warn(missing_docs)]

pub mod algorithm;
pub mod checkpoint;
pub mod cluster;
pub mod config;
pub mod consolidate;
pub mod failpoint;
pub mod incremental;
pub mod kernel;
pub mod models;
pub mod online;
pub mod order;
pub mod outcome;
pub mod persist;
pub mod recluster;
pub mod score;
pub mod seeding;
pub mod serve;
pub mod similarity;
pub mod telemetry;
pub mod threshold;
pub mod trace;

pub use algorithm::Cluseq;
pub use checkpoint::Checkpoint;
pub use cluster::Cluster;
pub use config::{CheckpointPolicy, CluseqParams, ConsolidationMode, ScanKernel, ScanMode};
pub use failpoint::{FailPlan, FailingReader, FailingWriter};
pub use incremental::SimilarityCache;
pub use kernel::ClusterAutomaton;
pub use models::ModelCache;
pub use online::{OnlineCluseq, OnlineReport};
pub use order::ExaminationOrder;
pub use outcome::{CluseqOutcome, IterationStats};
pub use recluster::ScanOptions;
pub use score::ScoreEngine;
pub use serve::{ServeConfig, Server, ServerHandle};
pub use similarity::{
    max_similarity, max_similarity_compiled, max_similarity_compiled_batch,
    max_similarity_compiled_bounded, max_similarity_pst, max_similarity_pst_with_scratch,
    prune_count, BoundedSimilarity, LogSim, SegmentSimilarity, BATCH_LANES,
};
pub use telemetry::{
    CheckpointEvent, IterationRecord, NoopObserver, ResumeInfo, RunObserver, RunReport,
};
pub use trace::{TraceConfig, TraceSession};
