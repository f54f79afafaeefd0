//! The frozen, generation-stamped model a serve daemon answers from.
//!
//! A [`ServeModel`] is immutable once built — queries borrow it through an
//! `Arc` pinned for the duration of one scoring batch, which is the whole
//! hot-swap story: installing a new generation is a pointer swap, and
//! every in-flight batch keeps scoring against the generation it pinned.

use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use cluseq_seq::{SequenceStore, Symbol};

use crate::checkpoint::Checkpoint;
use crate::config::ScanKernel;
use crate::kernel::ClusterAutomaton;
use crate::persist::{SavedCluster, SavedModel};
use crate::serve::protocol::{errcode, ClusterScore, Response};
use crate::similarity::{max_similarity_pst, SegmentSimilarity};

/// One immutable model generation: the persisted classifier, its scan
/// automatons, and the provenance needed to reload it on SIGHUP.
#[derive(Debug)]
pub struct ServeModel {
    /// Monotonic generation id; stamped into every scored response.
    pub generation: u64,
    /// The classifier (clusters + background + threshold).
    pub saved: SavedModel,
    /// Per-cluster scan automatons, slot order; empty when the
    /// interpreted kernel is selected.
    pub automata: Vec<ClusterAutomaton>,
    /// Which kernel [`ServeModel::classify`] dispatches to.
    pub kernel: ScanKernel,
    /// The file this generation was loaded from (SIGHUP reloads it).
    pub source: PathBuf,
}

impl ServeModel {
    /// Loads a model from `path`, sniffing the format from its magic:
    /// `CSEQ` (a [`SavedModel`] snapshot) loads directly; `CCKP` (a
    /// crash-recovery [`Checkpoint`]) additionally needs the training
    /// corpus — checkpoints don't store the background model, so it is
    /// re-derived from `db` after [`Checkpoint::verify_database`] proves
    /// `db` is the corpus the checkpoint was taken on. Any
    /// [`SequenceStore`] works: an in-memory database and a file-backed
    /// store of the same content produce bit-identical background models.
    pub fn load(
        path: &Path,
        db: Option<&dyn SequenceStore>,
        kernel: ScanKernel,
        generation: u64,
    ) -> Result<Self, String> {
        let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
        let mut reader = BufReader::new(file);
        let mut magic = [0u8; 4];
        reader
            .read_exact(&mut magic)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        reader
            .seek(SeekFrom::Start(0))
            .map_err(|e| format!("seek {}: {e}", path.display()))?;
        let saved = match &magic {
            b"CSEQ" => SavedModel::load(&mut reader)
                .map_err(|e| format!("load model {}: {e:?}", path.display()))?,
            b"CCKP" => {
                let db = db.ok_or_else(|| {
                    format!(
                        "{} is a CCKP checkpoint, which stores no background model; \
                         serving from it requires the training database (--data)",
                        path.display()
                    )
                })?;
                let ckpt = Checkpoint::load(&mut reader)
                    .map_err(|e| format!("load checkpoint {}: {e:?}", path.display()))?;
                ckpt.verify_database(db).map_err(|e| e.to_string())?;
                SavedModel {
                    clusters: ckpt
                        .clusters
                        .iter()
                        .map(|c| SavedCluster {
                            id: c.id as u64,
                            seed: c.seed as u64,
                            pst: c.pst.clone(),
                        })
                        .collect(),
                    background: db.background(),
                    log_t: ckpt.log_t,
                }
            }
            other => {
                return Err(format!(
                    "{}: unrecognized model magic {other:02x?} (expected CSEQ or CCKP)",
                    path.display()
                ))
            }
        };
        let automata = if kernel.uses_automaton() {
            saved
                .clusters
                .iter()
                .map(|c| {
                    ClusterAutomaton::build(&c.pst, &saved.background, kernel)
                        .expect("automaton-backed kernel")
                })
                .collect()
        } else {
            Vec::new()
        };
        Ok(Self {
            generation,
            saved,
            automata,
            kernel,
            source: path.to_path_buf(),
        })
    }

    /// Alphabet size the model scores over.
    pub fn alphabet_size(&self) -> usize {
        self.saved.background.alphabet_size()
    }

    /// Checks every symbol of `seq` against the model's alphabet. Scoring
    /// an out-of-range symbol would index past the automaton tables, so
    /// this is the gate every query passes before reaching a kernel.
    pub fn validate(&self, seq: &[Symbol]) -> Result<(), Response> {
        let alphabet = self.alphabet_size();
        match seq.iter().position(|s| s.index() >= alphabet) {
            None => Ok(()),
            Some(at) => Err(Response::Error {
                code: errcode::SYMBOL_RANGE,
                message: format!(
                    "symbol {} at position {at} is outside the model alphabet (size {alphabet})",
                    seq[at].0
                ),
            }),
        }
    }

    /// Scores `seq` against every cluster, best first — the serve-side
    /// twin of [`SavedModel::classify`], dispatching on the configured
    /// kernel. The kernels are bit-identical (the compiled tables hold the
    /// exact f64 values the interpreted walk computes), and the sort is
    /// the same stable descending `total_cmp` everywhere, so rankings
    /// match offline classification bit for bit.
    pub fn classify(&self, seq: &[Symbol]) -> Vec<(usize, SegmentSimilarity)> {
        let mut scored: Vec<(usize, SegmentSimilarity)> = if self.kernel.uses_automaton() {
            self.automata
                .iter()
                .enumerate()
                .map(|(k, automaton)| (k, automaton.scan(seq)))
                .collect()
        } else {
            self.saved
                .clusters
                .iter()
                .enumerate()
                .map(|(k, c)| (k, max_similarity_pst(&c.pst, &self.saved.background, seq)))
                .collect()
        };
        scored.sort_by(|a, b| b.1.log_sim.total_cmp(&a.1.log_sim));
        scored
    }

    /// Answers an ASSIGN query: clusters at or above the stored threshold.
    pub fn assign(&self, seq: &[Symbol]) -> Response {
        if let Err(e) = self.validate(seq) {
            return e;
        }
        Response::Assign {
            generation: self.generation,
            hits: self
                .classify(seq)
                .into_iter()
                .filter(|(_, s)| s.log_sim >= self.saved.log_t)
                .map(|(k, s)| (k as u32, s.log_sim))
                .collect(),
        }
    }

    /// Answers a SCORE query: full per-cluster similarity, best first.
    pub fn score(&self, seq: &[Symbol]) -> Response {
        if let Err(e) = self.validate(seq) {
            return e;
        }
        Response::Score {
            generation: self.generation,
            scores: self
                .classify(seq)
                .into_iter()
                .map(|(k, s)| ClusterScore {
                    slot: k as u32,
                    log_sim: s.log_sim,
                    start: s.start as u32,
                    end: s.end as u32,
                })
                .collect(),
        }
    }

    /// Answers an ANOMALY query: anomalous iff the best similarity over
    /// all clusters falls below `threshold` (the model's stored `ln t`
    /// when no override is given). A model with zero clusters flags
    /// everything.
    pub fn anomaly(&self, seq: &[Symbol], threshold: Option<f64>) -> Response {
        if let Err(e) = self.validate(seq) {
            return e;
        }
        let threshold = threshold.unwrap_or(self.saved.log_t);
        let ranked = self.classify(seq);
        let best = ranked.first();
        let best_log_sim = best.map_or(f64::NEG_INFINITY, |(_, s)| s.log_sim);
        Response::Anomaly {
            generation: self.generation,
            anomalous: best_log_sim < threshold,
            best_log_sim,
            threshold,
            best_slot: best.map(|(k, _)| *k as u32),
        }
    }

    /// Answers an INFO query.
    pub fn info(&self) -> Response {
        Response::Info {
            generation: self.generation,
            clusters: self.saved.cluster_count() as u32,
            alphabet: self.alphabet_size() as u32,
            log_t: self.saved.log_t,
            kernel: match self.kernel {
                ScanKernel::Interpreted => 0,
                ScanKernel::Compiled => 1,
            },
        }
    }
}
