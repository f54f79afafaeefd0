//! Paged cluster models: lazily-built scan automata behind a
//! byte-budgeted LRU cache.
//!
//! At paper scale the corpus is the dominant memory cost, but the compiled
//! scan tables are the *second* one: the compiled kernel holds
//! `O(nodes × |ℑ|)` table bytes per cluster, and the snapshot scan wants
//! all `k` of them at once. The [`ModelCache`] bounds that: automata are
//! built on first touch, retained up to a configured byte budget, and
//! evicted least-recently-used beyond it. Because
//! [`ClusterAutomaton::build`] is a pure function of `(pst, background,
//! kernel)`, an evicted automaton rebuilds bit-identically on the next
//! touch — eviction can cost time, never correctness.
//!
//! Entries are handed out as [`Arc`]s: a scan that is mid-pass keeps its
//! automata alive even if the cache evicts them concurrently-in-spirit
//! (the cache itself is single-threaded; "eviction" only drops the
//! cache's reference). The budget therefore bounds what the cache *keeps
//! resident across iterations*, while a single pass may transiently pin
//! the automata it is actively scanning with.
//!
//! Invalidation is explicit and caller-driven: the scan knows exactly
//! which clusters absorbed segments (their PSTs changed), consolidation
//! knows which clusters died or merged. There is no fingerprinting — the
//! caller's knowledge is authoritative, mirroring
//! [`crate::incremental::SimilarityCache`].

use std::collections::HashMap;
use std::sync::Arc;

use cluseq_seq::BackgroundModel;

use crate::cluster::Cluster;
use crate::config::ScanKernel;
use crate::kernel::ClusterAutomaton;

/// One resident automaton plus its bookkeeping.
#[derive(Debug)]
struct Entry {
    automaton: Arc<ClusterAutomaton>,
    bytes: usize,
    /// Monotone access tick — strictly increasing, so LRU order is total
    /// and eviction is deterministic.
    last_used: u64,
}

/// An LRU cache of compiled cluster automata, bounded by table bytes.
///
/// Keys are cluster ids (stable across a run, never reused). The cache is
/// kernel-agnostic per entry — a run uses one kernel throughout, and
/// [`ModelCache::clear`] handles the hot-swap case.
#[derive(Debug)]
pub struct ModelCache {
    entries: HashMap<usize, Entry>,
    budget_bytes: usize,
    resident_bytes: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ModelCache {
    /// A cache retaining at most `budget_bytes` of automaton tables
    /// across accesses. A budget of 0 still *works* — every access builds
    /// fresh and nothing is retained — it just degenerates to the
    /// uncached behavior.
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            entries: HashMap::new(),
            budget_bytes,
            resident_bytes: 0,
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// A cache budgeted in mebibytes — the unit the `--model-cache-mb`
    /// flag speaks.
    pub fn with_budget_mb(mb: usize) -> Self {
        Self::new(mb.saturating_mul(1 << 20))
    }

    /// The automaton for `cluster` under `kernel`: the cached copy when
    /// the entry is resident, a fresh deterministic build otherwise.
    /// Returns `None` only for [`ScanKernel::Interpreted`], which has no
    /// automaton.
    ///
    /// The returned [`Arc`] stays valid regardless of later evictions or
    /// invalidations — the cache only ever drops *its own* reference.
    pub fn get_or_build(
        &mut self,
        cluster: &Cluster,
        background: &BackgroundModel,
        kernel: ScanKernel,
    ) -> Option<Arc<ClusterAutomaton>> {
        if !kernel.uses_automaton() {
            return None;
        }
        self.clock += 1;
        if let Some(entry) = self.entries.get_mut(&cluster.id) {
            entry.last_used = self.clock;
            self.hits += 1;
            return Some(Arc::clone(&entry.automaton));
        }
        self.misses += 1;
        let automaton = Arc::new(
            ClusterAutomaton::build(&cluster.pst, background, kernel)
                .expect("automaton-backed kernel"),
        );
        let bytes = automaton.table_bytes();
        self.entries.insert(
            cluster.id,
            Entry {
                automaton: Arc::clone(&automaton),
                bytes,
                last_used: self.clock,
            },
        );
        self.resident_bytes += bytes;
        self.enforce_budget(cluster.id);
        Some(automaton)
    }

    /// Evicts least-recently-used entries until the budget holds. The
    /// just-touched entry `keep` is evicted only as a last resort (when it
    /// alone exceeds the budget) so a hot entry is never thrashed by its
    /// own insertion.
    fn enforce_budget(&mut self, keep: usize) {
        while self.resident_bytes > self.budget_bytes {
            let victim = self
                .entries
                .iter()
                .filter(|(&id, _)| id != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&id, _)| id);
            let victim = match victim {
                Some(id) => id,
                // Only `keep` is left; drop it too if it busts the budget
                // on its own (the caller's Arc keeps it alive for the
                // pass in flight).
                None => keep,
            };
            self.remove(victim);
            self.evictions += 1;
        }
    }

    fn remove(&mut self, id: usize) {
        if let Some(entry) = self.entries.remove(&id) {
            self.resident_bytes -= entry.bytes;
        }
    }

    /// Drops the entry for `id` (a cluster whose PST just changed). No-op
    /// when the entry is not resident.
    pub fn invalidate(&mut self, id: usize) {
        self.remove(id);
    }

    /// Keeps only entries whose cluster id satisfies `live` — called
    /// after consolidation removes or merges clusters.
    pub fn retain_live<F: Fn(usize) -> bool>(&mut self, live: F) {
        let dead: Vec<usize> = self
            .entries
            .keys()
            .copied()
            .filter(|&id| !live(id))
            .collect();
        for id in dead {
            self.remove(id);
        }
    }

    /// Drops everything (e.g. on a kernel change).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.resident_bytes = 0;
    }

    /// Table bytes currently retained by the cache.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// The configured retention budget in bytes.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `id` currently has a resident automaton.
    pub fn contains(&self, id: usize) -> bool {
        self.entries.contains_key(&id)
    }

    /// Lifetime (hits, misses, evictions) — misses equal builds.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluseq_pst::PstParams;
    use cluseq_seq::SequenceDatabase;

    fn fixture(n: usize) -> (SequenceDatabase, BackgroundModel, Vec<Cluster>) {
        let texts: Vec<String> = (0..n)
            .map(|i| {
                let unit = ["ab", "bc", "ca", "abc"][i % 4];
                unit.repeat(8 + i)
            })
            .collect();
        let db = SequenceDatabase::from_strs(texts.iter().map(String::as_str));
        let bg = db.background();
        let params = PstParams::default().with_significance(2);
        let clusters = (0..n)
            .map(|i| Cluster::from_seed(i, i, db.sequence(i), db.alphabet().len(), params))
            .collect();
        (db, bg, clusters)
    }

    #[test]
    fn cached_automata_scan_identically_to_fresh_builds() {
        let (db, bg, clusters) = fixture(4);
        let kernel = ScanKernel::Compiled;
        let mut cache = ModelCache::with_budget_mb(64);
        for cluster in &clusters {
            let cached = cache.get_or_build(cluster, &bg, kernel).unwrap();
            let fresh = ClusterAutomaton::build(&cluster.pst, &bg, kernel).unwrap();
            for probe in 0..db.len() {
                let seq = db.sequence(probe).symbols();
                assert_eq!(
                    cached.scan(seq).log_sim.to_bits(),
                    fresh.scan(seq).log_sim.to_bits(),
                    "cluster={} probe={probe}",
                    cluster.id
                );
            }
        }
    }

    #[test]
    fn interpreted_kernel_gets_no_automaton_and_caches_nothing() {
        let (_db, bg, clusters) = fixture(1);
        let mut cache = ModelCache::with_budget_mb(1);
        assert!(cache
            .get_or_build(&clusters[0], &bg, ScanKernel::Interpreted)
            .is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), (0, 0, 0));
    }

    #[test]
    fn second_touch_is_a_hit_not_a_rebuild() {
        let (_db, bg, clusters) = fixture(2);
        let mut cache = ModelCache::with_budget_mb(64);
        let first = cache
            .get_or_build(&clusters[0], &bg, ScanKernel::Compiled)
            .unwrap();
        let second = cache
            .get_or_build(&clusters[0], &bg, ScanKernel::Compiled)
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second), "hit must reuse the build");
        assert_eq!(cache.stats(), (1, 1, 0));
    }

    #[test]
    fn eviction_is_lru_and_rebuilds_are_invisible() {
        let (_db, bg, clusters) = fixture(3);
        let sizes: Vec<usize> = clusters
            .iter()
            .map(|c| {
                ClusterAutomaton::build(&c.pst, &bg, ScanKernel::Compiled)
                    .unwrap()
                    .table_bytes()
            })
            .collect();
        // Budget for exactly two of the three automata.
        let budget = sizes[0] + sizes[1].max(sizes[2]);
        let mut cache = ModelCache::new(budget);
        let a0 = cache
            .get_or_build(&clusters[0], &bg, ScanKernel::Compiled)
            .unwrap();
        cache.get_or_build(&clusters[1], &bg, ScanKernel::Compiled);
        // Touch 0 again so 1 is the LRU victim when 2 arrives.
        cache.get_or_build(&clusters[0], &bg, ScanKernel::Compiled);
        cache.get_or_build(&clusters[2], &bg, ScanKernel::Compiled);
        assert!(cache.contains(0) && cache.contains(2) && !cache.contains(1));
        assert!(cache.resident_bytes() <= cache.budget_bytes());
        // The rebuilt entry scans bit-identically to the pre-eviction one.
        let rebuilt = cache
            .get_or_build(&clusters[1], &bg, ScanKernel::Compiled)
            .unwrap();
        let reference =
            ClusterAutomaton::build(&clusters[1].pst, &bg, ScanKernel::Compiled).unwrap();
        let probe: Vec<cluseq_seq::Symbol> = (0..8).map(|i| cluseq_seq::Symbol(i % 3)).collect();
        assert_eq!(
            rebuilt.scan(&probe).log_sim.to_bits(),
            reference.scan(&probe).log_sim.to_bits()
        );
        drop(a0);
    }

    #[test]
    fn an_oversized_entry_is_returned_but_not_retained() {
        let (_db, bg, clusters) = fixture(1);
        let mut cache = ModelCache::new(0);
        let arc = cache
            .get_or_build(&clusters[0], &bg, ScanKernel::Compiled)
            .unwrap();
        assert!(arc.table_bytes() > 0, "the caller still gets the build");
        assert!(cache.is_empty(), "0-budget cache retains nothing");
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn invalidate_and_retain_live_drop_entries_and_bytes() {
        let (_db, bg, clusters) = fixture(4);
        let mut cache = ModelCache::with_budget_mb(64);
        for c in &clusters {
            cache.get_or_build(c, &bg, ScanKernel::Compiled);
        }
        assert_eq!(cache.len(), 4);
        cache.invalidate(2);
        assert!(!cache.contains(2));
        cache.retain_live(|id| id == 0);
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(0));
        let expected = ClusterAutomaton::build(&clusters[0].pst, &bg, ScanKernel::Compiled)
            .unwrap()
            .table_bytes();
        assert_eq!(cache.resident_bytes(), expected);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.resident_bytes(), 0);
    }
}
