//! Crash-safe checkpointing of the iteration loop.
//!
//! A [`Checkpoint`] freezes the complete state of [`crate::Cluseq`]'s
//! iterative loop at an iteration boundary: every cluster model *with its
//! member list*, the RNG stream position, the similarity-threshold
//! trajectory, the growth-factor carryover, and the accumulated telemetry
//! records. [`crate::Cluseq::resume`] rebuilds the loop from a checkpoint
//! and continues it; because every input to the remaining iterations is
//! restored bit-exactly, a resumed run's [`crate::CluseqOutcome`] and its
//! [`crate::telemetry::RunReport::counters_json`] are **byte-identical**
//! to an uninterrupted run's (enforced by `tests/checkpoint_resume.rs`).
//!
//! # Format
//!
//! The same hand-rolled little-endian framing as [`cluseq_pst::serial`],
//! magic `CCKP`, version 4:
//!
//! ```text
//! magic "CCKP" | version u32
//! guard:    sequences u64 | alphabet u32 | digest u64   (FNV-1a, see below)
//! params:   every CluseqParams field, enums as u8 tags, options tagged
//!           (v2 adds the scan_kernel u8 tag after scan_mode; v3 appends
//!           the incremental u8 flag at the end; v4 appends scan_shard
//!           and model_cache_mb as optional u64s after it)
//! store:    u8 tag, 0 = in-memory, 1 = file-backed — which kind of
//!           [`SequenceStore`] the run was clustering (v4). Informational:
//!           the digest guards content, and either store kind resumes the
//!           run bit-identically; the CLI uses this to warn when a resume
//!           switches modes.
//! base:     u64, MAX = self-contained, else the completed-iteration
//!           number of the base checkpoint this delta file references (v3)
//! progress: completed u64 | stable u8 | next_id u64 | log_t f64
//!         | threshold_frozen u8 | rng u64×4 | prev_new u64
//!         | prev_removed u64 | prev_cluster_count u64
//!         | prev_best (u64 len, u64 each, MAX=none)
//! history:  u64 len, IterationStats each
//! clusters: u32 len, (id u64 | tag u8) each; tag 0 = full body
//!           (seed u64 | members u64 len + u64 each | CPST blob),
//!           tag 1 = unchanged since the base checkpoint, body elided
//!           (v1/v2 have no tag byte — every cluster is a full body)
//! records:  u32 len, IterationRecord each (timings included — they are
//!           replayed verbatim into the observer on resume; v2 adds
//!           scan.pairs_pruned u64 after scan.membership_changes; v3 adds
//!           scan.pairs_reused, scan.clusters_dirty, scan.pst_recompiles)
//! cache:    u32 column count, (cluster id u64 | n u64 | n entries) each;
//!           entry tag u8 0 = Exact (log_sim f64 | start u64 | end u64),
//!           1 = Pruned (v3; absent before — loader yields an empty cache)
//! ```
//!
//! Versions 1 through 3 are still readable: the loader threads the
//! header version through the params/record decoders, which default the
//! fields an older writer never produced — `scan_kernel` to
//! [`ScanKernel::Compiled`] (the kernels are bit-identical, so either
//! replays the run exactly), `incremental` to `false`, `pairs_pruned` and
//! the v3 scan counters to 0 (lossless: scan pruning is disabled whenever
//! an iteration is being recorded, and the incremental counters are zero
//! unless the — then nonexistent — incremental engine was on), the
//! similarity cache to empty, and the v4 fields to their no-op defaults
//! (`scan_shard`/`model_cache_mb` unset, store kind
//! [`StoreKind::Memory`] — the only kind older writers had). Writers
//! always emit the current version. Scan-kernel tags 2 and 3 name
//! kernels that were retired without a version bump: tag 2 loads as
//! [`ScanKernel::Compiled`] (same tables, same arithmetic), tag 3 is
//! refused with an error that names the kernel.
//!
//! # Delta checkpoints
//!
//! When the incremental engine is on ([`CluseqParams::incremental`]), the
//! driver writes every checkpoint after the first as a **delta**:
//! clusters untouched since the previous successfully written checkpoint
//! are stored as an id-only reference (tag 1) into that *base* file, named
//! by the base marker. [`Checkpoint::load_path`] resolves the chain —
//! strictly decreasing completed-iteration numbers, so it terminates —
//! by loading the base from its sibling file and splicing the referenced
//! cluster bodies back in; the result is indistinguishable from a
//! self-contained checkpoint. [`Checkpoint::load`] (reader-only, no
//! directory context) refuses delta files with a descriptive error.
//! Everything *except* cluster bodies — records, history, the similarity
//! cache — is always written in full, so only the base chain's cluster
//! sections are ever needed again.
//!
//! The guard digest is FNV-1a over the database's sequence lengths and
//! symbols; [`Checkpoint::verify_database`] refuses to resume against a
//! database that differs from the one the checkpoint was taken on.
//!
//! # Atomicity
//!
//! [`Checkpoint::write_atomic`] writes a temp file in the destination
//! directory, fsyncs it, renames it over the final path, and fsyncs the
//! directory. A crash at *any* byte of the write leaves either the
//! previous complete checkpoint or nothing at the final path — never a
//! partial file. [`Checkpoint::write_atomic_with`] threads a
//! [`FailPlan`] through the same code path so `tests/fault_injection.rs`
//! can prove that claim at every crash point.

use std::collections::BTreeSet;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use cluseq_pst::serial::{
    decode_capacity, read_f64, read_u32, read_u64, read_u8, write_f64, write_u32, write_u64,
    write_u8,
};
use cluseq_pst::{PruneStrategy, Pst, SerialError};
use cluseq_seq::{SequenceStore, StoreKind};

use crate::cluster::Cluster;
use crate::config::{CheckpointPolicy, CluseqParams, ConsolidationMode, ScanKernel, ScanMode};
use crate::failpoint::{FailPlan, FailingWriter};
use crate::order::ExaminationOrder;
use crate::outcome::IterationStats;
use crate::similarity::{BoundedSimilarity, SegmentSimilarity};
use crate::telemetry::{
    ClusterSnapshot, HistogramSnapshot, IterationRecord, PhaseNanos, ScanMetrics, SeedingMetrics,
};

const MAGIC: &[u8; 4] = b"CCKP";

/// A cluster entry as parsed from the clusters section: either a complete
/// body, or (v3 delta files) an id-only reference to the identical cluster
/// in the base checkpoint, resolved by [`Checkpoint::load_path`].
enum ParsedCluster {
    Full(Cluster),
    Unchanged(usize),
}

/// The complete loop state at an iteration boundary. All fields are public
/// so the driver can capture and restore without conversion layers; the
/// serialized layout is the module's contract, not this struct's shape.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The parameters of the checkpointed run. Resume uses *these* — not
    /// whatever the caller happens to hold — so the continuation cannot
    /// drift from the original configuration.
    pub params: CluseqParams,
    /// Sequence count of the database the run was clustering.
    pub db_sequences: usize,
    /// Alphabet size of that database.
    pub db_alphabet: usize,
    /// FNV-1a digest of that database's content ([`db_digest`]).
    pub db_digest: u64,
    /// Which kind of [`SequenceStore`] the run was clustering.
    /// Informational — the digest above guards content, and either store
    /// kind resumes bit-identically — but the CLI uses it to warn when a
    /// resume switches between in-memory and file-backed modes.
    pub store: StoreKind,
    /// Iterations fully completed; resume continues at this index.
    pub completed: usize,
    /// Whether the loop had already reached its fixpoint — resuming a
    /// stable checkpoint skips straight to the final assignment sweep.
    pub stable: bool,
    /// Next cluster id to assign.
    pub next_id: usize,
    /// Current similarity threshold, log-space.
    pub log_t: f64,
    /// Whether threshold adjustment has frozen (§4.6 convergence).
    pub threshold_frozen: bool,
    /// The xoshiro256++ RNG state after `completed` iterations.
    pub rng_state: [u64; 4],
    /// Clusters born in the last completed iteration (growth-factor input).
    pub prev_new: usize,
    /// Clusters dismissed in the last completed iteration.
    pub prev_removed: usize,
    /// Cluster count after the last completed iteration.
    pub prev_cluster_count: usize,
    /// Per-sequence best cluster *slot* from the last scan (the
    /// cluster-based examination order's grouping key).
    pub prev_best: Vec<Option<usize>>,
    /// Per-iteration stats so far (the eventual outcome's `history`).
    pub history: Vec<IterationStats>,
    /// Live clusters: models *and* member lists.
    pub clusters: Vec<Cluster>,
    /// Telemetry records for the completed iterations, replayed into the
    /// observer on resume so a resumed report is complete.
    pub records: Vec<IterationRecord>,
    /// The incremental engine's (sequence, cluster) similarity cache:
    /// one column per clean cluster, sorted by cluster id, each covering
    /// every sequence (see [`crate::incremental::SimilarityCache`]).
    /// Empty when [`CluseqParams::incremental`] is off — resume then
    /// starts with a cold cache, which is correct (just slower).
    pub cache: Vec<(usize, Vec<BoundedSimilarity>)>,
}

impl Checkpoint {
    /// Current checkpoint format version. Version 1 (pre scan-kernel),
    /// version 2 (pre incremental-engine), and version 3 (pre
    /// out-of-core) files remain loadable; see the module docs for the
    /// decode defaults.
    pub const VERSION: u32 = 4;

    // ---- database guard -------------------------------------------------

    /// Checks that `store` holds the database this checkpoint was taken
    /// on. The error names the first mismatching facet. The store *kind*
    /// is deliberately not checked: the digest is content-only, so a run
    /// checkpointed in memory resumes bit-identically from a file-backed
    /// store of the same corpus (and vice versa).
    pub fn verify_database(&self, store: &dyn SequenceStore) -> Result<(), &'static str> {
        if store.len() != self.db_sequences {
            return Err("checkpoint was taken on a database with a different sequence count");
        }
        if store.alphabet().len() != self.db_alphabet {
            return Err("checkpoint was taken on a database with a different alphabet size");
        }
        if db_digest(store) != self.db_digest {
            return Err("checkpoint was taken on a database with different content");
        }
        Ok(())
    }

    // ---- serialization --------------------------------------------------

    /// Serializes a self-contained checkpoint. Use
    /// [`Checkpoint::write_atomic`] for on-disk durability; this raw form
    /// exists for tests and composition.
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        self.save_inner(w, None)
    }

    /// Serializes a **delta** checkpoint against the checkpoint whose
    /// completed-iteration number is `base`: clusters whose id is *not* in
    /// `changed` are written as id-only references into the base file.
    /// The caller guarantees `base < self.completed` and that every live
    /// cluster absent from `changed` is byte-identical in the base chain —
    /// the driver's dirty-cluster tracking provides exactly that. Prefer
    /// [`Checkpoint::write_atomic_delta_traced`] for on-disk writes.
    pub fn save_delta(
        &self,
        w: &mut impl Write,
        base: usize,
        changed: &BTreeSet<usize>,
    ) -> io::Result<()> {
        self.save_inner(w, Some((base, changed)))
    }

    fn save_inner(
        &self,
        w: &mut impl Write,
        delta: Option<(usize, &BTreeSet<usize>)>,
    ) -> io::Result<()> {
        w.write_all(MAGIC)?;
        write_u32(w, Self::VERSION)?;
        write_u64(w, self.db_sequences as u64)?;
        write_u32(w, self.db_alphabet as u32)?;
        write_u64(w, self.db_digest)?;
        save_params(w, &self.params)?;
        write_u8(
            w,
            match self.store {
                StoreKind::Memory => 0,
                StoreKind::File => 1,
            },
        )?;
        write_opt_u64(w, delta.map(|(base, _)| base as u64))?;
        write_u64(w, self.completed as u64)?;
        write_bool(w, self.stable)?;
        write_u64(w, self.next_id as u64)?;
        write_f64(w, self.log_t)?;
        write_bool(w, self.threshold_frozen)?;
        for word in self.rng_state {
            write_u64(w, word)?;
        }
        write_u64(w, self.prev_new as u64)?;
        write_u64(w, self.prev_removed as u64)?;
        write_u64(w, self.prev_cluster_count as u64)?;
        write_u64(w, self.prev_best.len() as u64)?;
        for &slot in &self.prev_best {
            write_opt_u64(w, slot.map(|s| s as u64))?;
        }
        write_u64(w, self.history.len() as u64)?;
        for s in &self.history {
            save_stats(w, s)?;
        }
        write_u32(w, self.clusters.len() as u32)?;
        for c in &self.clusters {
            write_u64(w, c.id as u64)?;
            let unchanged = delta.is_some_and(|(_, changed)| !changed.contains(&c.id));
            if unchanged {
                write_u8(w, 1)?;
                continue;
            }
            write_u8(w, 0)?;
            write_u64(w, c.seed as u64)?;
            write_u64(w, c.members.len() as u64)?;
            for &m in &c.members {
                write_u64(w, m as u64)?;
            }
            c.pst.save(w)?;
        }
        write_u32(w, self.records.len() as u32)?;
        for r in &self.records {
            save_record(w, r)?;
        }
        write_u32(w, self.cache.len() as u32)?;
        for (id, column) in &self.cache {
            write_u64(w, *id as u64)?;
            write_u64(w, column.len() as u64)?;
            for entry in column {
                match entry {
                    BoundedSimilarity::Exact(sim) => {
                        write_u8(w, 0)?;
                        write_f64(w, sim.log_sim)?;
                        write_u64(w, sim.start as u64)?;
                        write_u64(w, sim.end as u64)?;
                    }
                    BoundedSimilarity::Pruned => write_u8(w, 1)?,
                }
            }
        }
        Ok(())
    }

    /// Deserializes a **self-contained** checkpoint, validating every
    /// structural invariant: enum tags, boolean bytes, RNG non-degeneracy,
    /// member-id ranges, and the cross-field length relations. Corruption
    /// yields a descriptive [`SerialError`], never a panic, and hostile
    /// length fields cannot command large allocations (see
    /// [`cluseq_pst::serial::decode_capacity`]).
    ///
    /// A delta checkpoint (one with a base reference) is rejected with a
    /// descriptive error: a bare reader has no directory to resolve the
    /// base chain in. Use [`Checkpoint::load_path`] for files on disk.
    pub fn load(r: &mut impl Read) -> Result<Self, SerialError> {
        let (ckpt, base_ref, clusters) = Self::load_parsed(r)?;
        if base_ref.is_some() {
            return Err(SerialError::Corrupt(
                "delta checkpoint needs its base; load it from its directory via load_path",
            ));
        }
        ckpt.resolve(clusters, None)
    }

    /// Loads a checkpoint from a file, resolving a delta chain when
    /// needed: a base reference is followed to the sibling
    /// `cluseq-NNNNNN.ckpt` file (recursively — completed-iteration
    /// numbers strictly decrease along the chain, so resolution
    /// terminates), the base's database digest is checked against this
    /// file's, and the referenced cluster bodies are spliced back in. The
    /// result is exactly what [`Checkpoint::load`] would return for a
    /// self-contained file of the same state.
    pub fn load_path(path: &Path) -> Result<Self, SerialError> {
        let file = std::fs::File::open(path)?;
        let (ckpt, base_ref, clusters) = Self::load_parsed(&mut io::BufReader::new(file))?;
        let base = match base_ref {
            None => None,
            Some(base_completed) => {
                if base_completed >= ckpt.completed {
                    return Err(SerialError::Corrupt("delta base not older than checkpoint"));
                }
                let dir = path.parent().unwrap_or_else(|| Path::new(""));
                let base_path = dir.join(format!("cluseq-{base_completed:06}.ckpt"));
                let base = Self::load_path(&base_path)?;
                if base.completed != base_completed {
                    return Err(SerialError::Corrupt("delta base completed-count mismatch"));
                }
                if base.db_digest != ckpt.db_digest {
                    return Err(SerialError::Corrupt("delta base database digest mismatch"));
                }
                Some(base)
            }
        };
        ckpt.resolve(clusters, base.as_ref())
    }

    /// Parses the full framing, returning the checkpoint with an *empty*
    /// cluster list, the base reference, and the parsed cluster entries
    /// (full bodies and unchanged-since-base references) for the caller to
    /// resolve.
    #[allow(clippy::type_complexity)]
    fn load_parsed(
        r: &mut impl Read,
    ) -> Result<(Self, Option<usize>, Vec<ParsedCluster>), SerialError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(SerialError::BadMagic);
        }
        let version = read_u32(r)?;
        if !(1..=Self::VERSION).contains(&version) {
            return Err(SerialError::BadVersion(version));
        }
        let db_sequences = read_u64(r)? as usize;
        let db_alphabet = read_u32(r)? as usize;
        if db_sequences == 0 || db_alphabet == 0 {
            return Err(SerialError::Corrupt("empty database guard"));
        }
        let db_digest = read_u64(r)?;
        let params = load_params(r, version)?;
        let store = if version >= 4 {
            match read_u8(r)? {
                0 => StoreKind::Memory,
                1 => StoreKind::File,
                _ => return Err(SerialError::Corrupt("unknown store kind tag")),
            }
        } else {
            StoreKind::Memory
        };
        let base_ref = if version >= 3 {
            read_opt_u64(r)?.map(|b| b as usize)
        } else {
            None
        };
        let completed = read_u64(r)? as usize;
        let stable = read_bool(r)?;
        let next_id = read_u64(r)? as usize;
        let log_t = read_finite_f64(r)?;
        let threshold_frozen = read_bool(r)?;
        let mut rng_state = [0u64; 4];
        for word in &mut rng_state {
            *word = read_u64(r)?;
        }
        if rng_state.iter().all(|&w| w == 0) {
            return Err(SerialError::Corrupt("all-zero rng state"));
        }
        let prev_new = read_u64(r)? as usize;
        let prev_removed = read_u64(r)? as usize;
        let prev_cluster_count = read_u64(r)? as usize;
        let prev_best_len = read_u64(r)? as usize;
        if prev_best_len != db_sequences {
            return Err(SerialError::Corrupt("prev_best length mismatch"));
        }
        let mut prev_best = Vec::with_capacity(decode_capacity(prev_best_len));
        for _ in 0..prev_best_len {
            prev_best.push(read_opt_u64(r)?.map(|s| s as usize));
        }
        let history_len = read_u64(r)? as usize;
        if history_len != completed {
            return Err(SerialError::Corrupt("history length mismatch"));
        }
        let mut history = Vec::with_capacity(decode_capacity(history_len));
        for i in 0..history_len {
            let s = load_stats(r)?;
            if s.iteration != i {
                return Err(SerialError::Corrupt("history iteration numbering"));
            }
            history.push(s);
        }
        let cluster_len = read_u32(r)? as usize;
        if cluster_len != prev_cluster_count {
            return Err(SerialError::Corrupt("cluster count mismatch"));
        }
        let mut clusters = Vec::with_capacity(decode_capacity(cluster_len));
        for _ in 0..cluster_len {
            let id = read_u64(r)? as usize;
            let unchanged = if version >= 3 {
                match read_u8(r)? {
                    0 => false,
                    1 => true,
                    _ => return Err(SerialError::Corrupt("cluster body tag")),
                }
            } else {
                false
            };
            if unchanged {
                if base_ref.is_none() {
                    return Err(SerialError::Corrupt(
                        "unchanged-cluster reference without a base checkpoint",
                    ));
                }
                clusters.push(ParsedCluster::Unchanged(id));
                continue;
            }
            let seed = read_u64(r)? as usize;
            let member_len = read_u64(r)? as usize;
            let mut members = Vec::with_capacity(decode_capacity(member_len));
            for _ in 0..member_len {
                let m = read_u64(r)? as usize;
                if m >= db_sequences {
                    return Err(SerialError::Corrupt("member id out of range"));
                }
                members.push(m);
            }
            let pst = Pst::load(r)?;
            clusters.push(ParsedCluster::Full(Cluster {
                id,
                pst,
                members,
                seed,
            }));
        }
        let record_len = read_u32(r)? as usize;
        if record_len != completed {
            return Err(SerialError::Corrupt("record count mismatch"));
        }
        let mut records = Vec::with_capacity(decode_capacity(record_len));
        for i in 0..record_len {
            let rec = load_record(r, version)?;
            if rec.iteration != i {
                return Err(SerialError::Corrupt("record iteration numbering"));
            }
            records.push(rec);
        }
        let cache = if version >= 3 {
            let column_len = read_u32(r)? as usize;
            let mut cache = Vec::with_capacity(decode_capacity(column_len));
            let mut prev_id = None;
            for _ in 0..column_len {
                let id = read_u64(r)? as usize;
                if prev_id.is_some_and(|p| id <= p) {
                    return Err(SerialError::Corrupt("cache columns not sorted by id"));
                }
                prev_id = Some(id);
                let n = read_u64(r)? as usize;
                if n != db_sequences {
                    return Err(SerialError::Corrupt("cache column length mismatch"));
                }
                let mut column = Vec::with_capacity(decode_capacity(n));
                for _ in 0..n {
                    column.push(match read_u8(r)? {
                        0 => {
                            let log_sim = read_f64(r)?;
                            // -inf is a legitimate similarity (empty
                            // sequence); only NaN marks corruption.
                            if log_sim.is_nan() {
                                return Err(SerialError::Corrupt("NaN cache similarity"));
                            }
                            let start = read_u64(r)? as usize;
                            let end = read_u64(r)? as usize;
                            BoundedSimilarity::Exact(SegmentSimilarity {
                                log_sim,
                                start,
                                end,
                            })
                        }
                        1 => BoundedSimilarity::Pruned,
                        _ => return Err(SerialError::Corrupt("cache entry tag")),
                    });
                }
                cache.push((id, column));
            }
            cache
        } else {
            Vec::new()
        };
        Ok((
            Self {
                params,
                db_sequences,
                db_alphabet,
                db_digest,
                store,
                completed,
                stable,
                next_id,
                log_t,
                threshold_frozen,
                rng_state,
                prev_new,
                prev_removed,
                prev_cluster_count,
                prev_best,
                history,
                clusters: Vec::new(),
                records,
                cache,
            },
            base_ref,
            clusters,
        ))
    }

    /// Fills in the parsed cluster entries: full bodies are taken as-is,
    /// unchanged references are copied out of `base` by cluster id.
    fn resolve(
        mut self,
        parsed: Vec<ParsedCluster>,
        base: Option<&Checkpoint>,
    ) -> Result<Self, SerialError> {
        self.clusters = parsed
            .into_iter()
            .map(|entry| match entry {
                ParsedCluster::Full(c) => Ok(c),
                ParsedCluster::Unchanged(id) => base
                    .ok_or(SerialError::Corrupt(
                        "unchanged-cluster reference without a base checkpoint",
                    ))?
                    .clusters
                    .iter()
                    .find(|c| c.id == id)
                    .cloned()
                    .ok_or(SerialError::Corrupt(
                        "base checkpoint missing a referenced cluster",
                    )),
            })
            .collect::<Result<_, _>>()?;
        Ok(self)
    }

    // ---- atomic file writes ---------------------------------------------

    /// Writes the checkpoint durably and atomically to `path`: serialize
    /// to `path + ".tmp"` in the same directory, fsync the file, rename it
    /// over `path`, fsync the directory. Returns the serialized size.
    ///
    /// A crash (or I/O error) at any point leaves `path` either absent or
    /// holding a previous *complete* checkpoint — never partial data.
    pub fn write_atomic(&self, path: &Path) -> io::Result<u64> {
        self.write_atomic_with(path, &FailPlan::none())
    }

    /// The delta counterpart of [`Checkpoint::write_atomic`]: same
    /// durability protocol, [`Checkpoint::save_delta`] payload.
    pub fn write_atomic_delta(
        &self,
        path: &Path,
        base: usize,
        changed: &BTreeSet<usize>,
    ) -> io::Result<u64> {
        self.write_atomic_delta_with(path, base, changed, &FailPlan::none())
    }

    /// [`Checkpoint::write_atomic`] under a `checkpoint_save` span, with
    /// the write attempt, its outcome, its byte count, and its wall time
    /// recorded in the tracing registry. The write itself is identical.
    pub fn write_atomic_traced(
        &self,
        path: &Path,
        trace: Option<&crate::trace::TraceSession>,
    ) -> io::Result<u64> {
        self.traced_write(path, trace, None)
    }

    /// The delta counterpart of [`Checkpoint::write_atomic_traced`] — the
    /// driver's cadence writes when the incremental engine has a live base.
    pub fn write_atomic_delta_traced(
        &self,
        path: &Path,
        base: usize,
        changed: &BTreeSet<usize>,
        trace: Option<&crate::trace::TraceSession>,
    ) -> io::Result<u64> {
        self.traced_write(path, trace, Some((base, changed)))
    }

    fn traced_write(
        &self,
        path: &Path,
        trace: Option<&crate::trace::TraceSession>,
        delta: Option<(usize, &BTreeSet<usize>)>,
    ) -> io::Result<u64> {
        use crate::trace::{Counter, HistKind, Phase};
        let plan = FailPlan::none();
        let Some(trace) = trace else {
            return self.write_atomic_inner(path, &plan, delta);
        };
        let _span = trace.span(Phase::CheckpointSave);
        let start = std::time::Instant::now();
        let result = self.write_atomic_inner(path, &plan, delta);
        trace.add(Counter::CheckpointWrites, 1);
        trace.observe(
            HistKind::CheckpointWrite,
            0,
            crate::trace::nanos_since(start),
        );
        match &result {
            Ok(bytes) => trace.add(Counter::CheckpointBytes, *bytes),
            Err(_) => trace.add(Counter::CheckpointFailures, 1),
        }
        result
    }

    /// [`Checkpoint::write_atomic`] with fault injection: every byte of
    /// the temp-file write flows through `plan`, and
    /// [`FailPlan::fail_rename`] aborts between the durable temp write and
    /// the rename, leaving the temp file behind exactly as `kill -9`
    /// would. The production path is this function with a no-op plan —
    /// the tests exercise the real writer, not a replica.
    pub fn write_atomic_with(&self, path: &Path, plan: &FailPlan) -> io::Result<u64> {
        self.write_atomic_inner(path, plan, None)
    }

    /// [`Checkpoint::write_atomic_delta`] with fault injection, so the
    /// crash-safety suite can prove the delta writer torn-write-free at
    /// every byte, exactly like the self-contained writer.
    pub fn write_atomic_delta_with(
        &self,
        path: &Path,
        base: usize,
        changed: &BTreeSet<usize>,
        plan: &FailPlan,
    ) -> io::Result<u64> {
        self.write_atomic_inner(path, plan, Some((base, changed)))
    }

    fn write_atomic_inner(
        &self,
        path: &Path,
        plan: &FailPlan,
        delta: Option<(usize, &BTreeSet<usize>)>,
    ) -> io::Result<u64> {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        if let Some(dir) = dir {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = tmp_path(path);
        let written = (|| {
            let file = std::fs::File::create(&tmp)?;
            let mut w = FailingWriter::new(io::BufWriter::new(file), plan.clone());
            self.save_inner(&mut w, delta)?;
            w.flush()?;
            let written = w.written();
            let file = w.into_inner().into_inner().map_err(|e| e.into_error())?;
            file.sync_all()?;
            Ok(written)
        })();
        let written = match written {
            Ok(n) => n,
            Err(e) => {
                // A graceful I/O error cleans up its debris; a real crash
                // would leave the temp file, which loaders ignore by name.
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
        };
        if plan.fail_rename {
            // Simulated crash after the temp file is durable but before
            // it is published: leave it in place, exactly like kill -9.
            return Err(io::Error::other("injected failpoint before rename"));
        }
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = dir {
            // The rename is only durable once the directory entry is; an
            // fsync on the file alone does not cover its new name.
            std::fs::File::open(dir)?.sync_all()?;
        }
        Ok(written)
    }

    /// The newest checkpoint file in `dir` (highest completed-iteration
    /// number in a `cluseq-NNNNNN.ckpt` name). `Ok(None)` when the
    /// directory is missing or holds no checkpoint-named files; temp files
    /// and foreign names are ignored.
    pub fn latest_in(dir: &Path) -> io::Result<Option<PathBuf>> {
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut best: Option<(usize, PathBuf)> = None;
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let Some(completed) = name.to_str().and_then(parse_checkpoint_name) else {
                continue;
            };
            if best.as_ref().map_or(true, |(b, _)| completed > *b) {
                best = Some((completed, entry.path()));
            }
        }
        Ok(best.map(|(_, path)| path))
    }
}

/// The completed-iteration number encoded in a `cluseq-NNNNNN.ckpt` file
/// name, or `None` for any other name.
fn parse_checkpoint_name(name: &str) -> Option<usize> {
    let digits = name.strip_prefix("cluseq-")?.strip_suffix(".ckpt")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// FNV-1a digest of a store's content: sequence count, alphabet size,
/// and every sequence's length and symbols. Labels are excluded — they do
/// not influence clustering — and so is the store *kind*: an in-memory
/// database and a file-backed store of the same corpus digest identically,
/// which is what lets a checkpoint resume across store modes.
pub fn db_digest(store: &dyn SequenceStore) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mix = |hash: &mut u64, v: u64| {
        for b in v.to_le_bytes() {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(&mut hash, store.len() as u64);
    mix(&mut hash, store.alphabet().len() as u64);
    let mut reader = store.reader();
    for i in 0..store.len() {
        let seq = reader.symbols(i);
        mix(&mut hash, seq.len() as u64);
        for sym in seq {
            mix(&mut hash, u64::from(sym.0));
        }
    }
    hash
}

// ---- framing helpers ---------------------------------------------------

fn write_bool(w: &mut impl Write, v: bool) -> io::Result<()> {
    write_u8(w, u8::from(v))
}

/// Booleans must be exactly 0 or 1 — anything else is corruption, and
/// catching it here turns a silent misread into a descriptive error.
fn read_bool(r: &mut impl Read) -> Result<bool, SerialError> {
    match read_u8(r)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(SerialError::Corrupt("boolean flag out of range")),
    }
}

fn write_opt_u64(w: &mut impl Write, v: Option<u64>) -> io::Result<()> {
    // u64::MAX is the none sentinel: no stored quantity approaches it.
    write_u64(w, v.unwrap_or(u64::MAX))
}

fn read_opt_u64(r: &mut impl Read) -> Result<Option<u64>, SerialError> {
    match read_u64(r)? {
        u64::MAX => Ok(None),
        v => Ok(Some(v)),
    }
}

fn read_finite_f64(r: &mut impl Read) -> Result<f64, SerialError> {
    let v = read_f64(r)?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(SerialError::Corrupt("non-finite float"))
    }
}

// ---- params ------------------------------------------------------------

fn save_params(w: &mut impl Write, p: &CluseqParams) -> io::Result<()> {
    write_u64(w, p.initial_clusters as u64)?;
    write_u64(w, p.significance)?;
    write_f64(w, p.initial_threshold)?;
    write_bool(w, p.adjust_threshold)?;
    write_u64(w, p.sample_factor as u64)?;
    write_u64(w, p.max_depth as u64)?;
    write_opt_u64(w, p.max_pst_bytes.map(|b| b as u64))?;
    write_u8(
        w,
        match p.prune_strategy {
            PruneStrategy::SmallestCount => 0,
            PruneStrategy::LongestLabel => 1,
            PruneStrategy::ExpectedVector => 2,
            PruneStrategy::Composite => 3,
        },
    )?;
    write_f64(w, p.smoothing.unwrap_or(f64::NAN))?;
    write_u8(
        w,
        match p.order {
            ExaminationOrder::Fixed => 0,
            ExaminationOrder::Random => 1,
            ExaminationOrder::ClusterBased => 2,
        },
    )?;
    write_u64(w, p.histogram_buckets as u64)?;
    write_u64(w, p.max_iterations as u64)?;
    write_u8(
        w,
        match p.consolidation {
            ConsolidationMode::Dismiss => 0,
            ConsolidationMode::MergeIntoCovering => 1,
        },
    )?;
    write_opt_u64(w, p.min_exclusive.map(|m| m as u64))?;
    write_bool(w, p.rebuild_psts)?;
    write_u8(
        w,
        match p.scan_mode {
            ScanMode::Incremental => 0,
            ScanMode::Snapshot => 1,
        },
    )?;
    // v2 field: absent from v1 files, where the loader defaults it.
    // Writers emit 0 or 1 only; tags 2 and 3 come from older writers (see
    // `load_params`).
    write_u8(
        w,
        match p.scan_kernel {
            ScanKernel::Interpreted => 0,
            ScanKernel::Compiled => 1,
        },
    )?;
    write_u64(w, p.threads as u64)?;
    write_u64(w, p.seed)?;
    match &p.checkpoint {
        Some(policy) => {
            write_bool(w, true)?;
            write_u64(w, policy.every as u64)?;
            // Paths are stored as UTF-8 (lossy): the CLI and tests only
            // ever produce unicode paths, and the policy is advisory —
            // resume may override it anyway.
            let dir = policy.dir.to_string_lossy();
            write_u32(w, dir.len() as u32)?;
            w.write_all(dir.as_bytes())?;
        }
        None => write_bool(w, false)?,
    }
    // v3 field: absent from older files, where the loader defaults it —
    // the incremental engine did not exist, so `false` is the true value.
    write_bool(w, p.incremental)?;
    // v4 fields: same story — older writers had neither scan sharding nor
    // a model-cache budget, so `None` is the true value on old files.
    write_opt_u64(w, p.scan_shard.map(|s| s as u64))?;
    write_opt_u64(w, p.model_cache_mb.map(|m| m as u64))?;
    Ok(())
}

fn load_params(r: &mut impl Read, version: u32) -> Result<CluseqParams, SerialError> {
    let initial_clusters = read_u64(r)? as usize;
    let significance = read_u64(r)?;
    let initial_threshold = read_finite_f64(r)?;
    if initial_threshold < 1.0 {
        return Err(SerialError::Corrupt("initial threshold below 1"));
    }
    let adjust_threshold = read_bool(r)?;
    let sample_factor = read_u64(r)? as usize;
    if sample_factor == 0 {
        return Err(SerialError::Corrupt("zero sample factor"));
    }
    let max_depth = read_u64(r)? as usize;
    let max_pst_bytes = read_opt_u64(r)?.map(|b| b as usize);
    let prune_strategy = match read_u8(r)? {
        0 => PruneStrategy::SmallestCount,
        1 => PruneStrategy::LongestLabel,
        2 => PruneStrategy::ExpectedVector,
        3 => PruneStrategy::Composite,
        _ => return Err(SerialError::Corrupt("prune strategy tag")),
    };
    let smoothing_raw = read_f64(r)?;
    let smoothing = if smoothing_raw.is_nan() {
        None
    } else {
        Some(smoothing_raw)
    };
    let order = match read_u8(r)? {
        0 => ExaminationOrder::Fixed,
        1 => ExaminationOrder::Random,
        2 => ExaminationOrder::ClusterBased,
        _ => return Err(SerialError::Corrupt("examination order tag")),
    };
    let histogram_buckets = read_u64(r)? as usize;
    if histogram_buckets < 3 {
        return Err(SerialError::Corrupt("histogram bucket count below 3"));
    }
    let max_iterations = read_u64(r)? as usize;
    if max_iterations == 0 {
        return Err(SerialError::Corrupt("zero iteration cap"));
    }
    let consolidation = match read_u8(r)? {
        0 => ConsolidationMode::Dismiss,
        1 => ConsolidationMode::MergeIntoCovering,
        _ => return Err(SerialError::Corrupt("consolidation mode tag")),
    };
    let min_exclusive = read_opt_u64(r)?.map(|m| m as usize);
    let rebuild_psts = read_bool(r)?;
    let scan_mode = match read_u8(r)? {
        0 => ScanMode::Incremental,
        1 => ScanMode::Snapshot,
        _ => return Err(SerialError::Corrupt("scan mode tag")),
    };
    // v1 predates the kernel choice; Compiled is safe because the two
    // kernels are bit-identical, so the resumed run replays exactly. Tag 2
    // named the retired `batched` kernel: the compiled tables under a lane
    // driver, the same arithmetic, so it resumes as Compiled. Tag 3 named
    // approximate tables that no longer exist, so its run cannot replay.
    let scan_kernel = if version >= 2 {
        match read_u8(r)? {
            0 => ScanKernel::Interpreted,
            1 | 2 => ScanKernel::Compiled,
            3 => {
                return Err(SerialError::Corrupt(
                    "scan kernel tag 3 names the removed quantized kernel, \
                     whose scores no remaining kernel reproduces",
                ))
            }
            _ => return Err(SerialError::Corrupt("scan kernel tag")),
        }
    } else {
        ScanKernel::Compiled
    };
    let threads = read_u64(r)? as usize;
    if threads == 0 {
        return Err(SerialError::Corrupt("zero thread count"));
    }
    let seed = read_u64(r)?;
    let checkpoint = if read_bool(r)? {
        let every = read_u64(r)? as usize;
        if every == 0 {
            return Err(SerialError::Corrupt("zero checkpoint cadence"));
        }
        let dir_len = read_u32(r)? as usize;
        if dir_len > 64 * 1024 {
            return Err(SerialError::Corrupt("checkpoint dir length"));
        }
        let mut dir = vec![0u8; dir_len];
        r.read_exact(&mut dir)?;
        let dir =
            String::from_utf8(dir).map_err(|_| SerialError::Corrupt("checkpoint dir utf-8"))?;
        Some(CheckpointPolicy::new(dir, every))
    } else {
        None
    };
    let incremental = if version >= 3 { read_bool(r)? } else { false };
    let (scan_shard, model_cache_mb) = if version >= 4 {
        let shard = read_opt_u64(r)?.map(|s| s as usize);
        if shard == Some(0) {
            return Err(SerialError::Corrupt("zero scan shard"));
        }
        (shard, read_opt_u64(r)?.map(|m| m as usize))
    } else {
        (None, None)
    };
    Ok(CluseqParams {
        initial_clusters,
        significance,
        initial_threshold,
        adjust_threshold,
        sample_factor,
        max_depth,
        max_pst_bytes,
        prune_strategy,
        smoothing,
        order,
        histogram_buckets,
        max_iterations,
        consolidation,
        min_exclusive,
        rebuild_psts,
        scan_mode,
        scan_kernel,
        threads,
        incremental,
        scan_shard,
        model_cache_mb,
        checkpoint,
        seed,
    })
}

// ---- iteration stats ----------------------------------------------------

fn save_stats(w: &mut impl Write, s: &IterationStats) -> io::Result<()> {
    write_u64(w, s.iteration as u64)?;
    write_u64(w, s.new_clusters as u64)?;
    write_u64(w, s.removed_clusters as u64)?;
    write_u64(w, s.clusters_at_end as u64)?;
    write_u64(w, s.membership_changes as u64)?;
    write_f64(w, s.log_t)?;
    write_bool(w, s.threshold_moved)
}

fn load_stats(r: &mut impl Read) -> Result<IterationStats, SerialError> {
    Ok(IterationStats {
        iteration: read_u64(r)? as usize,
        new_clusters: read_u64(r)? as usize,
        removed_clusters: read_u64(r)? as usize,
        clusters_at_end: read_u64(r)? as usize,
        membership_changes: read_u64(r)? as usize,
        log_t: read_finite_f64(r)?,
        threshold_moved: read_bool(r)?,
    })
}

// ---- telemetry records --------------------------------------------------

fn save_record(w: &mut impl Write, rec: &IterationRecord) -> io::Result<()> {
    write_u64(w, rec.iteration as u64)?;
    write_u64(w, rec.clusters_at_start as u64)?;
    write_u64(w, rec.seeding.requested as u64)?;
    write_u64(w, rec.seeding.pool as u64)?;
    write_u64(w, rec.seeding.sampled as u64)?;
    write_u64(w, rec.seeding.chosen as u64)?;
    write_u64(w, rec.scan.pairs_scored)?;
    write_u64(w, rec.scan.joins)?;
    write_u64(w, rec.scan.new_joins)?;
    write_u64(w, rec.scan.membership_changes as u64)?;
    // v2 field: absent from v1 files, where the loader defaults it to 0
    // (a recorded iteration never prunes, so 0 is the true count).
    write_u64(w, rec.scan.pairs_pruned)?;
    // v3 fields: absent from older files, where the loader defaults them
    // to 0 (the incremental engine did not exist, so 0 is the true count).
    write_u64(w, rec.scan.pairs_reused)?;
    write_u64(w, rec.scan.clusters_dirty)?;
    write_u64(w, rec.scan.pst_recompiles)?;
    write_u64(w, rec.removed_clusters as u64)?;
    write_u64(w, rec.merged_clusters as u64)?;
    write_u64(w, rec.clusters_at_end as u64)?;
    match &rec.histogram {
        Some(h) => {
            write_bool(w, true)?;
            write_f64(w, h.lo)?;
            write_f64(w, h.hi)?;
            write_u32(w, h.counts.len() as u32)?;
            for &c in &h.counts {
                write_u64(w, c)?;
            }
        }
        None => write_bool(w, false)?,
    }
    match rec.valley {
        Some(v) => {
            write_bool(w, true)?;
            write_f64(w, v)?;
        }
        None => write_bool(w, false)?,
    }
    write_f64(w, rec.log_t_before)?;
    write_f64(w, rec.log_t_after)?;
    write_bool(w, rec.threshold_moved)?;
    write_u32(w, rec.clusters.len() as u32)?;
    for c in &rec.clusters {
        write_u64(w, c.id as u64)?;
        write_u64(w, c.members as u64)?;
        write_u64(w, c.exclusive_members as u64)?;
        write_u64(w, c.pst_nodes as u64)?;
        write_u64(w, c.pst_bytes as u64)?;
        write_u64(w, c.pst_total_count)?;
    }
    write_u64(w, rec.timings.seeding)?;
    write_u64(w, rec.timings.scan_score)?;
    write_u64(w, rec.timings.scan_absorb)?;
    write_u64(w, rec.timings.consolidate)?;
    write_u64(w, rec.timings.threshold)?;
    write_u64(w, rec.timings.total)
}

fn load_record(r: &mut impl Read, version: u32) -> Result<IterationRecord, SerialError> {
    let iteration = read_u64(r)? as usize;
    let clusters_at_start = read_u64(r)? as usize;
    let seeding = SeedingMetrics {
        requested: read_u64(r)? as usize,
        pool: read_u64(r)? as usize,
        sampled: read_u64(r)? as usize,
        chosen: read_u64(r)? as usize,
    };
    let scan = ScanMetrics {
        pairs_scored: read_u64(r)?,
        joins: read_u64(r)?,
        new_joins: read_u64(r)?,
        membership_changes: read_u64(r)? as usize,
        pairs_pruned: if version >= 2 { read_u64(r)? } else { 0 },
        pairs_reused: if version >= 3 { read_u64(r)? } else { 0 },
        clusters_dirty: if version >= 3 { read_u64(r)? } else { 0 },
        pst_recompiles: if version >= 3 { read_u64(r)? } else { 0 },
    };
    let removed_clusters = read_u64(r)? as usize;
    let merged_clusters = read_u64(r)? as usize;
    let clusters_at_end = read_u64(r)? as usize;
    let histogram = if read_bool(r)? {
        let lo = read_finite_f64(r)?;
        let hi = read_finite_f64(r)?;
        let len = read_u32(r)? as usize;
        let mut counts = Vec::with_capacity(decode_capacity(len));
        for _ in 0..len {
            counts.push(read_u64(r)?);
        }
        Some(HistogramSnapshot { lo, hi, counts })
    } else {
        None
    };
    let valley = if read_bool(r)? {
        Some(read_finite_f64(r)?)
    } else {
        None
    };
    let log_t_before = read_finite_f64(r)?;
    let log_t_after = read_finite_f64(r)?;
    let threshold_moved = read_bool(r)?;
    let cluster_len = read_u32(r)? as usize;
    let mut clusters = Vec::with_capacity(decode_capacity(cluster_len));
    for _ in 0..cluster_len {
        clusters.push(ClusterSnapshot {
            id: read_u64(r)? as usize,
            members: read_u64(r)? as usize,
            exclusive_members: read_u64(r)? as usize,
            pst_nodes: read_u64(r)? as usize,
            pst_bytes: read_u64(r)? as usize,
            pst_total_count: read_u64(r)?,
        });
    }
    let timings = PhaseNanos {
        seeding: read_u64(r)?,
        scan_score: read_u64(r)?,
        scan_absorb: read_u64(r)?,
        consolidate: read_u64(r)?,
        threshold: read_u64(r)?,
        total: read_u64(r)?,
    };
    Ok(IterationRecord {
        iteration,
        clusters_at_start,
        seeding,
        scan,
        removed_clusters,
        merged_clusters,
        clusters_at_end,
        histogram,
        valley,
        log_t_before,
        log_t_after,
        threshold_moved,
        clusters,
        timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluseq_seq::SequenceDatabase;

    fn sample_db() -> SequenceDatabase {
        SequenceDatabase::from_strs(["abab", "baba", "abba"])
    }

    /// A structurally consistent checkpoint over [`sample_db`] with one
    /// cluster and one completed iteration.
    fn sample_checkpoint() -> Checkpoint {
        let db = sample_db();
        let params = CluseqParams::default()
            .with_significance(1)
            .with_max_depth(3);
        let cluster = Cluster::from_seed(
            0,
            1,
            db.sequence(1),
            db.alphabet().len(),
            params.pst_params(),
        );
        let stats = IterationStats {
            iteration: 0,
            new_clusters: 1,
            removed_clusters: 0,
            clusters_at_end: 1,
            membership_changes: 1,
            log_t: 0.25,
            threshold_moved: true,
        };
        let record = IterationRecord {
            iteration: 0,
            clusters_at_start: 0,
            seeding: SeedingMetrics {
                requested: 1,
                pool: 3,
                sampled: 3,
                chosen: 1,
            },
            scan: ScanMetrics {
                pairs_scored: 3,
                joins: 1,
                new_joins: 1,
                membership_changes: 1,
                pairs_pruned: 2,
                pairs_reused: 4,
                clusters_dirty: 1,
                pst_recompiles: 1,
            },
            removed_clusters: 0,
            merged_clusters: 0,
            clusters_at_end: 1,
            histogram: Some(HistogramSnapshot {
                lo: -0.5,
                hi: 1.5,
                counts: vec![1, 0, 2],
            }),
            valley: Some(0.25),
            log_t_before: 0.0005,
            log_t_after: 0.25,
            threshold_moved: true,
            clusters: vec![ClusterSnapshot {
                id: 0,
                members: 1,
                exclusive_members: 1,
                pst_nodes: 5,
                pst_bytes: 512,
                pst_total_count: 4,
            }],
            timings: PhaseNanos::default(),
        };
        Checkpoint {
            params,
            db_sequences: db.len(),
            db_alphabet: db.alphabet().len(),
            db_digest: db_digest(&db),
            store: StoreKind::Memory,
            completed: 1,
            stable: false,
            next_id: 1,
            log_t: 0.25,
            threshold_frozen: false,
            rng_state: [1, 2, 3, 4],
            prev_new: 1,
            prev_removed: 0,
            prev_cluster_count: 1,
            prev_best: vec![None, Some(0), None],
            history: vec![stats],
            clusters: vec![cluster],
            records: vec![record],
            cache: vec![(
                0,
                vec![
                    BoundedSimilarity::Exact(SegmentSimilarity {
                        log_sim: 0.5,
                        start: 0,
                        end: 4,
                    }),
                    BoundedSimilarity::Pruned,
                    BoundedSimilarity::Exact(SegmentSimilarity {
                        log_sim: f64::NEG_INFINITY,
                        start: 0,
                        end: 0,
                    }),
                ],
            )],
        }
    }

    fn to_bytes(ckpt: &Checkpoint) -> Vec<u8> {
        let mut buf = Vec::new();
        ckpt.save(&mut buf).unwrap();
        buf
    }

    #[test]
    fn every_scan_kernel_tag_round_trips() {
        for kernel in ScanKernel::ALL {
            let mut ckpt = sample_checkpoint();
            ckpt.params = ckpt.params.with_scan_kernel(kernel);
            let bytes = to_bytes(&ckpt);
            let loaded = Checkpoint::load(&mut bytes.as_slice()).unwrap();
            assert_eq!(loaded.params.scan_kernel, kernel);
        }
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let ckpt = sample_checkpoint();
        let bytes = to_bytes(&ckpt);
        let loaded = Checkpoint::load(&mut bytes.as_slice()).unwrap();
        assert_eq!(to_bytes(&loaded), bytes);
        assert_eq!(loaded.completed, 1);
        assert_eq!(loaded.params, ckpt.params);
        assert_eq!(loaded.history, ckpt.history);
        assert_eq!(loaded.records, ckpt.records);
        assert_eq!(loaded.prev_best, ckpt.prev_best);
        assert_eq!(loaded.rng_state, [1, 2, 3, 4]);
        assert_eq!(loaded.clusters[0].members, ckpt.clusters[0].members);
        assert_eq!(loaded.cache, ckpt.cache);
        assert!(!loaded.params.incremental);
    }

    #[test]
    fn delta_checkpoint_resolves_through_its_base_chain() {
        let dir = std::env::temp_dir().join(format!("cluseq-ckpt-delta-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = sample_checkpoint();
        base.write_atomic(&dir.join("cluseq-000001.ckpt")).unwrap();

        // Iteration 2: the cluster is untouched, so the delta elides it.
        let mut delta = sample_checkpoint();
        delta.completed = 2;
        delta.history.push(delta.history[0]);
        delta.history[1].iteration = 1;
        delta.records.push(delta.records[0].clone());
        delta.records[1].iteration = 1;
        let changed = BTreeSet::new();
        let delta_path = dir.join("cluseq-000002.ckpt");
        delta.write_atomic_delta(&delta_path, 1, &changed).unwrap();

        // A delta is smaller than the same state written self-contained.
        let mut full_bytes = Vec::new();
        delta.save(&mut full_bytes).unwrap();
        assert!(std::fs::metadata(&delta_path).unwrap().len() < full_bytes.len() as u64);

        // load_path splices the base's cluster body back in …
        let resolved = Checkpoint::load_path(&delta_path).unwrap();
        assert_eq!(to_bytes(&resolved), full_bytes);
        assert_eq!(resolved.clusters[0].members, base.clusters[0].members);

        // … while the bare reader refuses the unresolvable file.
        let raw = std::fs::read(&delta_path).unwrap();
        assert!(matches!(
            Checkpoint::load(&mut raw.as_slice()).unwrap_err(),
            SerialError::Corrupt(msg) if msg.contains("delta")
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delta_with_a_changed_cluster_carries_its_body() {
        let dir =
            std::env::temp_dir().join(format!("cluseq-ckpt-delta-chg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = sample_checkpoint();
        base.write_atomic(&dir.join("cluseq-000001.ckpt")).unwrap();

        let mut delta = sample_checkpoint();
        delta.completed = 2;
        delta.history.push(delta.history[0]);
        delta.history[1].iteration = 1;
        delta.records.push(delta.records[0].clone());
        delta.records[1].iteration = 1;
        delta.clusters[0].members = vec![0, 1]; // the cluster changed
        let changed: BTreeSet<usize> = [0].into();
        let delta_path = dir.join("cluseq-000002.ckpt");
        delta.write_atomic_delta(&delta_path, 1, &changed).unwrap();

        let resolved = Checkpoint::load_path(&delta_path).unwrap();
        assert_eq!(resolved.clusters[0].members, vec![0, 1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delta_against_a_missing_or_foreign_base_is_an_error() {
        let dir =
            std::env::temp_dir().join(format!("cluseq-ckpt-delta-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut delta = sample_checkpoint();
        delta.completed = 2;
        delta.history.push(delta.history[0]);
        delta.history[1].iteration = 1;
        delta.records.push(delta.records[0].clone());
        delta.records[1].iteration = 1;
        let delta_path = dir.join("cluseq-000002.ckpt");
        delta
            .write_atomic_delta(&delta_path, 1, &BTreeSet::new())
            .unwrap();

        // No base file at all.
        assert!(Checkpoint::load_path(&delta_path).is_err());

        // A base from a different database is rejected by digest.
        let mut foreign = sample_checkpoint();
        foreign.db_digest ^= 1;
        foreign
            .write_atomic(&dir.join("cluseq-000001.ckpt"))
            .unwrap();
        assert!(matches!(
            Checkpoint::load_path(&delta_path).unwrap_err(),
            SerialError::Corrupt(msg) if msg.contains("digest")
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn database_guard_accepts_the_original_and_names_mismatches() {
        let ckpt = sample_checkpoint();
        ckpt.verify_database(&sample_db()).unwrap();

        let fewer = SequenceDatabase::from_strs(["abab", "baba"]);
        assert!(ckpt
            .verify_database(&fewer)
            .unwrap_err()
            .contains("sequence count"));

        let bigger_alphabet = SequenceDatabase::from_strs(["abab", "baba", "abca"]);
        assert!(ckpt
            .verify_database(&bigger_alphabet)
            .unwrap_err()
            .contains("alphabet"));

        let other_content = SequenceDatabase::from_strs(["abab", "baba", "aabb"]);
        assert!(ckpt
            .verify_database(&other_content)
            .unwrap_err()
            .contains("content"));
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        // Note the digest sees symbol *ids*, which `from_strs` assigns by
        // first appearance — so the swapped pair must not be isomorphic
        // under relabeling (e.g. ["ab","ba"] vs ["ba","ab"] would be).
        let a = db_digest(&SequenceDatabase::from_strs(["aab", "abb"]));
        let b = db_digest(&SequenceDatabase::from_strs(["abb", "aab"]));
        let c = db_digest(&SequenceDatabase::from_strs(["aab", "abb"]));
        assert_ne!(a, b, "sequence order must matter");
        assert_eq!(a, c, "digest must be a pure function of content");
        let d = db_digest(&SequenceDatabase::from_strs(["aab", "aba"]));
        assert_ne!(a, d, "content must matter");
    }

    #[test]
    fn bad_magic_version_and_flags_are_descriptive() {
        assert!(matches!(
            Checkpoint::load(&mut &b"NOPE"[..]).unwrap_err(),
            SerialError::BadMagic
        ));

        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            Checkpoint::load(&mut buf.as_slice()).unwrap_err(),
            SerialError::BadVersion(9)
        ));

        // A boolean byte of 2 is corruption, not truth.
        let ckpt = sample_checkpoint();
        let bytes = to_bytes(&ckpt);
        // `stable` sits right after guard + params + completed; find it by
        // flipping every byte until the loader names the boolean — cheap
        // and layout-independent.
        let mut hit = false;
        for i in 0..bytes.len() {
            let mut evil = bytes.clone();
            evil[i] = 2;
            if let Err(SerialError::Corrupt(msg)) = Checkpoint::load(&mut evil.as_slice()) {
                if msg.contains("boolean") {
                    hit = true;
                    break;
                }
            }
        }
        assert!(hit, "some byte position must trip the boolean validation");
    }

    #[test]
    fn truncation_never_panics() {
        let bytes = to_bytes(&sample_checkpoint());
        for len in 0..bytes.len() {
            assert!(
                Checkpoint::load(&mut &bytes[..len]).is_err(),
                "truncation at {len} must error"
            );
        }
    }

    #[test]
    fn member_ids_are_range_checked() {
        let mut ckpt = sample_checkpoint();
        ckpt.clusters[0].members = vec![99];
        let bytes = to_bytes(&ckpt);
        assert!(matches!(
            Checkpoint::load(&mut bytes.as_slice()).unwrap_err(),
            SerialError::Corrupt("member id out of range")
        ));
    }

    #[test]
    fn write_atomic_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("cluseq-ckpt-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt = sample_checkpoint();
        let path = dir.join("cluseq-000001.ckpt");
        let bytes = ckpt.write_atomic(&path).unwrap();
        assert_eq!(bytes, to_bytes(&ckpt).len() as u64);
        let loaded = Checkpoint::load_path(&path).unwrap();
        assert_eq!(to_bytes(&loaded), to_bytes(&ckpt));
        // No temp debris left behind.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["cluseq-000001.ckpt".to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_in_picks_the_highest_iteration_and_ignores_noise() {
        let dir = std::env::temp_dir().join(format!("cluseq-ckpt-latest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(Checkpoint::latest_in(&dir).unwrap().is_none());
        std::fs::create_dir_all(&dir).unwrap();
        assert!(Checkpoint::latest_in(&dir).unwrap().is_none());
        for name in [
            "cluseq-000002.ckpt",
            "cluseq-000010.ckpt",
            "cluseq-000003.ckpt",
            "cluseq-000010.ckpt.tmp", // torn write debris
            "notes.txt",
            "cluseq-.ckpt",
            "cluseq-12x4.ckpt",
        ] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        let latest = Checkpoint::latest_in(&dir).unwrap().unwrap();
        assert_eq!(latest.file_name().unwrap(), "cluseq-000010.ckpt");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_name_parser_is_strict() {
        assert_eq!(parse_checkpoint_name("cluseq-000042.ckpt"), Some(42));
        assert_eq!(parse_checkpoint_name("cluseq-7.ckpt"), Some(7));
        assert_eq!(parse_checkpoint_name("cluseq-.ckpt"), None);
        assert_eq!(parse_checkpoint_name("cluseq-42.ckpt.tmp"), None);
        assert_eq!(parse_checkpoint_name("cluseq-4a2.ckpt"), None);
        assert_eq!(parse_checkpoint_name("model.cseq"), None);
    }
}
