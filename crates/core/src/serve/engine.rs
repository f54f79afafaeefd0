//! The serving core: the live model slot every connection handler
//! answers from.
//!
//! # Design
//!
//! Scoring a query against a frozen generation is a pure function of
//! (model generation, query), so concurrent requests need no coordination
//! beyond pinning one generation each. A connection handler decodes a
//! request, calls [`ServeEngine::answer`] on its own thread — which pins
//! the live model `Arc` for that one query — and writes the response.
//! Every answer is the exact bytes offline scoring produces, whatever the
//! number of concurrent connections.
//!
//! # Hot swap
//!
//! [`ServeEngine::swap`] builds the replacement generation entirely
//! outside the model lock, then installs it with a single `RwLock` write.
//! Requests already holding the old `Arc` finish against the old
//! generation; the next request pins the new one. No request is ever
//! dropped or scored against a half-installed model, and every response
//! carries the generation that actually scored it. A failed load leaves
//! the old generation serving untouched.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use cluseq_seq::{SequenceStore, Symbol};

use crate::serve::model::ServeModel;
use crate::serve::obs::ServeObs;
use crate::serve::protocol::Response;
use crate::trace::{Counter, Gauge};

/// One scoring query, decoded and validated off the wire.
#[derive(Debug, Clone)]
pub enum Work {
    /// ASSIGN: clusters the sequence joins under the stored threshold.
    Assign(Vec<Symbol>),
    /// SCORE: full per-cluster similarity.
    Score(Vec<Symbol>),
    /// ANOMALY: verdict against the stored or overridden threshold.
    Anomaly(Vec<Symbol>, Option<f64>),
}

/// The serving core: the live model slot and what swaps it.
pub struct ServeEngine {
    model: RwLock<Arc<ServeModel>>,
    /// Serializes swaps so two concurrent SWAPs cannot both load against
    /// the same predecessor generation.
    swap_gate: Mutex<()>,
    next_generation: AtomicU64,
    db: Option<Box<dyn SequenceStore + Send>>,
    obs: Option<Arc<ServeObs>>,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("generation", &self.generation())
            .finish_non_exhaustive()
    }
}

impl ServeEngine {
    /// Builds an engine around an initial model.
    ///
    /// `db` is retained for hot-swapping to CCKP checkpoints (which need
    /// the training corpus to re-derive the background model); swaps to
    /// CSEQ snapshots work without it. Any [`SequenceStore`] serves — a
    /// file-backed store keeps the daemon's footprint bounded by the
    /// model, not the corpus.
    pub fn new(
        initial: ServeModel,
        db: Option<Box<dyn SequenceStore + Send>>,
        obs: Option<Arc<ServeObs>>,
    ) -> Self {
        let generation = initial.generation;
        if let Some(o) = &obs {
            o.registry().gauge_set(Gauge::ServeGeneration, generation);
        }
        ServeEngine {
            model: RwLock::new(Arc::new(initial)),
            swap_gate: Mutex::new(()),
            next_generation: AtomicU64::new(generation + 1),
            db,
            obs,
        }
    }

    /// The live model generation.
    pub fn generation(&self) -> u64 {
        self.model.read().expect("model lock poisoned").generation
    }

    /// A pinned handle to the live model.
    pub fn current(&self) -> Arc<ServeModel> {
        Arc::clone(&self.model.read().expect("model lock poisoned"))
    }

    /// Answers one scoring query on the calling thread, against the
    /// generation live when the call pins it.
    pub fn answer(&self, work: &Work) -> Response {
        let model = self.current();
        match work {
            Work::Assign(seq) => model.assign(seq),
            Work::Score(seq) => model.score(seq),
            Work::Anomaly(seq, threshold) => model.anomaly(seq, *threshold),
        }
    }

    /// Atomically replaces the live model with the one at `path`,
    /// returning the new generation and cluster count. On any failure the
    /// previous generation keeps serving, untouched.
    pub fn swap(&self, path: &Path) -> Result<(u64, u32), String> {
        let _gate = self.swap_gate.lock().expect("swap gate poisoned");
        let current = self.current();
        let generation = self.next_generation.fetch_add(1, Ordering::Relaxed);
        // The expensive part — file read, deserialize, PST compilation —
        // happens here, before the write lock, so readers never wait on it.
        let fresh = ServeModel::load(
            path,
            self.db.as_deref().map(|d| d as &dyn SequenceStore),
            current.kernel,
            generation,
        )?;
        let clusters = fresh.saved.cluster_count() as u32;
        *self.model.write().expect("model lock poisoned") = Arc::new(fresh);
        if let Some(o) = &self.obs {
            let t = o.registry();
            t.add(Counter::ServeSwaps, 1);
            t.gauge_set(Gauge::ServeGeneration, generation);
            o.event_serve_swap(generation, clusters);
        }
        Ok((generation, clusters))
    }

    /// Reloads the live model from the file it was originally loaded from
    /// (the SIGHUP action).
    pub fn reload(&self) -> Result<(u64, u32), String> {
        let source = self.current().source.clone();
        self.swap(&source)
    }
}
