//! Probabilistic suffix tree (PST) — the conditional-probability carrier of
//! the CLUSEQ sequence-clustering system (Yang & Wang, ICDE 2003, §3).
//!
//! A PST organizes, for every *significant* segment σ′ observed in a cluster
//! of sequences, the empirical conditional probability distribution
//! `P(s | σ′)` of the next symbol `s` given σ′ as the preceding segment.
//! Two departures from an ordinary suffix tree (both from the paper):
//!
//! 1. the tree is built over **reversed** sequences, so the node for a
//!    context `s_j … s_{i-1}` is reached from the root by reading the
//!    context backwards (`s_{i-1}, s_{i-2}, …`), and the *longest
//!    significant suffix* of any context is found by a single walk that
//!    stops at the significance boundary;
//! 2. each node carries a **probability vector** over next symbols in
//!    addition to its occurrence count.
//!
//! This implementation adds the paper's §5 machinery: a byte-budget with
//! three [pruning strategies](params::PruneStrategy) and the adjusted
//! (smoothed) probability estimation with a minimum probability `p_min`.
//!
//! # Example
//!
//! ```
//! use cluseq_pst::{ConditionalModel, Pst, PstParams};
//! use cluseq_seq::{Alphabet, Sequence};
//!
//! let alphabet = Alphabet::from_chars("ab".chars());
//! let seq = Sequence::parse_str(&alphabet, "ababab").unwrap();
//!
//! let mut pst = Pst::new(alphabet.len(), PstParams::default().with_significance(1));
//! pst.add_sequence(&seq);
//!
//! let a = alphabet.get("a").unwrap();
//! let b = alphabet.get("b").unwrap();
//! // After "a", the next symbol is always "b" in this sequence.
//! assert!(pst.predict(&[a], b) > 0.99);
//! ```

#![warn(missing_docs)]

pub mod compile;
pub mod divergence;
pub mod merge;
pub mod model;
pub mod node;
pub mod params;
pub mod prune;
pub mod render;
pub mod scanner;
pub mod serial;
pub mod stats;
pub mod tree;

pub use compile::CompiledPst;
pub use divergence::{kl_divergence, variational_distance};
pub use model::ConditionalModel;
pub use node::{Node, NodeId};
pub use params::{PruneStrategy, PstParams};
pub use render::RenderOptions;
pub use scanner::ContextScanner;
pub use serial::SerialError;
pub use stats::{PstFootprint, PstStats};
pub use tree::Pst;
