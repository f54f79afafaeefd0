//! Cluster consolidation (paper §4.5).
//!
//! Heavily-overlapped clusters arise when multiple seeds land in the same
//! true cluster. Consolidation walks the clusters in ascending size order
//! and dismisses any cluster whose *exclusive* membership — members that
//! belong to no other retained cluster — is below a threshold (the paper
//! uses the significance threshold `c`).

use crate::cluster::Cluster;
use crate::config::ConsolidationMode;

/// What [`consolidate`] did: how many clusters were dismissed, and how
/// many of those had their models merged into a covering cluster (always
/// 0 under [`ConsolidationMode::Dismiss`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConsolidationOutcome {
    /// Clusters removed from the pool.
    pub dismissed: usize,
    /// Removed clusters whose PST was folded into an overlapping survivor.
    pub merged: usize,
}

/// Per-cluster exclusive-member counts: for each cluster, how many of its
/// members belong to no *other* cluster in `clusters`. This is the quantity
/// consolidation tests against `min_exclusive`, exposed separately for
/// telemetry snapshots.
pub fn exclusive_member_counts(clusters: &[Cluster], total_sequences: usize) -> Vec<usize> {
    let mut coverage = vec![0u32; total_sequences];
    for c in clusters {
        for &m in &c.members {
            coverage[m] += 1;
        }
    }
    clusters
        .iter()
        .map(|c| c.members.iter().filter(|&&m| coverage[m] == 1).count())
        .collect()
}

/// Dismisses covered clusters in ascending size order (the paper's rule).
///
/// `min_exclusive` is the smallest exclusive-member count a cluster must
/// keep to survive (the paper's `< c` rule).
///
/// A sequence's "coverage" is the number of retained clusters containing
/// it; a member is exclusive to a cluster when its coverage is exactly 1.
/// Removing a cluster immediately returns its members' coverage to the
/// pool, so a larger duplicate examined later is *not* also removed.
///
/// Under [`ConsolidationMode::MergeIntoCovering`] (an extension — the
/// paper always dismisses) a dismissed cluster's model is instead merged
/// into the retained cluster it overlaps most, and that cluster's id is
/// appended to `merge_targets`: its model changed without any scan
/// activity, so the incremental engine must treat it as dirty (see
/// [`crate::incremental`]).
pub fn consolidate(
    clusters: &mut Vec<Cluster>,
    min_exclusive: usize,
    total_sequences: usize,
    mode: ConsolidationMode,
    merge_targets: &mut Vec<usize>,
) -> ConsolidationOutcome {
    if clusters.is_empty() {
        return ConsolidationOutcome::default();
    }
    // coverage[i] = how many retained clusters currently contain seq i.
    let mut coverage = vec![0u32; total_sequences];
    for c in clusters.iter() {
        for &m in &c.members {
            coverage[m] += 1;
        }
    }

    // Examine smallest first; ties broken by higher id first (newest
    // clusters are the most likely duplicates).
    let mut order: Vec<usize> = (0..clusters.len()).collect();
    order.sort_by(|&a, &b| {
        clusters[a]
            .size()
            .cmp(&clusters[b].size())
            .then(clusters[b].id.cmp(&clusters[a].id))
    });

    let mut retain = vec![true; clusters.len()];
    let mut removed = 0usize;
    let mut merged = 0usize;
    for &idx in &order {
        let exclusive = clusters[idx]
            .members
            .iter()
            .filter(|&&m| coverage[m] == 1)
            .count();
        if exclusive < min_exclusive {
            retain[idx] = false;
            removed += 1;
            for &m in &clusters[idx].members {
                coverage[m] -= 1;
            }
            if mode == ConsolidationMode::MergeIntoCovering {
                // Fold the dismissed model into the retained cluster it
                // overlaps most (by shared members).
                let best = (0..clusters.len())
                    .filter(|&j| j != idx && retain[j])
                    .max_by_key(|&j| shared_members(&clusters[idx].members, &clusters[j].members));
                if let Some(target) = best {
                    if shared_members(&clusters[idx].members, &clusters[target].members) > 0 {
                        let source = clusters[idx].pst.clone();
                        clusters[target].pst.merge(&source);
                        merged += 1;
                        merge_targets.push(clusters[target].id);
                    }
                }
            }
        }
    }

    let mut keep_iter = retain.into_iter();
    clusters.retain(|_| keep_iter.next().unwrap());
    ConsolidationOutcome {
        dismissed: removed,
        merged,
    }
}

/// |A ∩ B| for two ascending member lists.
fn shared_members(a: &[usize], b: &[usize]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut shared = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    shared
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluseq_pst::PstParams;
    use cluseq_seq::{Alphabet, Sequence};

    fn make_cluster(id: usize, members: Vec<usize>) -> Cluster {
        let alphabet = Alphabet::from_chars("ab".chars());
        let seq = Sequence::parse_str(&alphabet, "ab").unwrap();
        let mut c = Cluster::from_seed(
            id,
            members.first().copied().unwrap_or(0),
            &seq,
            2,
            PstParams::default().with_significance(1),
        );
        c.members = members;
        c
    }

    /// Consolidates 10 sequences' clusters under `mode`, returning the
    /// outcome and the merge targets.
    fn run(
        clusters: &mut Vec<Cluster>,
        min_exclusive: usize,
        mode: ConsolidationMode,
    ) -> (ConsolidationOutcome, Vec<usize>) {
        let mut merge_targets = Vec::new();
        let out = consolidate(clusters, min_exclusive, 10, mode, &mut merge_targets);
        (out, merge_targets)
    }

    /// Dismiss-mode consolidation, returning the dismissed count.
    fn dismiss(clusters: &mut Vec<Cluster>, min_exclusive: usize) -> usize {
        run(clusters, min_exclusive, ConsolidationMode::Dismiss)
            .0
            .dismissed
    }

    #[test]
    fn duplicate_cluster_is_dismissed() {
        // Two clusters over the same members: the smaller/newer one dies.
        let mut clusters = vec![
            make_cluster(0, vec![0, 1, 2, 3, 4]),
            make_cluster(1, vec![0, 1, 2, 3]),
        ];
        let removed = dismiss(&mut clusters, 2);
        assert_eq!(removed, 1);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].id, 0);
    }

    #[test]
    fn distinct_clusters_survive() {
        let mut clusters = vec![
            make_cluster(0, vec![0, 1, 2]),
            make_cluster(1, vec![3, 4, 5]),
        ];
        let removed = dismiss(&mut clusters, 2);
        assert_eq!(removed, 0);
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn partial_overlap_below_threshold_dies() {
        // Cluster 1 has only one exclusive member (5); threshold 2 kills it.
        let mut clusters = vec![
            make_cluster(0, vec![0, 1, 2, 3, 4]),
            make_cluster(1, vec![3, 4, 5]),
        ];
        let removed = dismiss(&mut clusters, 2);
        assert_eq!(removed, 1);
        assert_eq!(clusters[0].id, 0);
    }

    #[test]
    fn partial_overlap_above_threshold_survives() {
        let mut clusters = vec![
            make_cluster(0, vec![0, 1, 2, 3, 4]),
            make_cluster(1, vec![3, 4, 5, 6]),
        ];
        let removed = dismiss(&mut clusters, 2);
        assert_eq!(removed, 0, "two exclusive members (5, 6) suffice");
    }

    #[test]
    fn removing_a_duplicate_rescues_the_survivor() {
        // Three identical clusters: exactly two die, one survives (its
        // members become exclusive again as the duplicates vanish).
        let mut clusters = vec![
            make_cluster(0, vec![0, 1, 2, 3]),
            make_cluster(1, vec![0, 1, 2, 3]),
            make_cluster(2, vec![0, 1, 2, 3]),
        ];
        let removed = dismiss(&mut clusters, 2);
        assert_eq!(removed, 2);
        assert_eq!(clusters.len(), 1);
    }

    #[test]
    fn empty_cluster_is_always_dismissed() {
        let mut clusters = vec![make_cluster(0, vec![0, 1, 2]), make_cluster(1, vec![])];
        let removed = dismiss(&mut clusters, 1);
        assert_eq!(removed, 1);
        assert_eq!(clusters[0].id, 0);
    }

    #[test]
    fn no_clusters_is_a_noop() {
        let mut clusters: Vec<Cluster> = Vec::new();
        assert_eq!(dismiss(&mut clusters, 2), 0);
    }

    #[test]
    fn merge_mode_folds_the_dismissed_model_into_the_survivor() {
        let mut clusters = vec![
            make_cluster(0, vec![0, 1, 2, 3, 4]),
            make_cluster(1, vec![0, 1, 2, 3]),
        ];
        // Give the doomed duplicate distinctive statistics.
        let alphabet = Alphabet::from_chars("ab".chars());
        let distinctive = Sequence::parse_str(&alphabet, "bbbbbbbb").unwrap();
        clusters[1].pst.add_sequence(&distinctive);
        let survivor_count_before = clusters[0].pst.total_count();
        let doomed_count = clusters[1].pst.total_count();

        let (out, _) = run(&mut clusters, 2, ConsolidationMode::MergeIntoCovering);
        assert_eq!(out.dismissed, 1);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].id, 0);
        assert_eq!(
            clusters[0].pst.total_count(),
            survivor_count_before + doomed_count,
            "the dismissed model's evidence must survive in the merge"
        );
    }

    #[test]
    fn dismiss_mode_discards_the_model() {
        let mut clusters = vec![
            make_cluster(0, vec![0, 1, 2, 3, 4]),
            make_cluster(1, vec![0, 1, 2, 3]),
        ];
        let survivor_count_before = clusters[0].pst.total_count();
        assert_eq!(dismiss(&mut clusters, 2), 1);
        assert_eq!(clusters[0].pst.total_count(), survivor_count_before);
    }

    #[test]
    fn merge_mode_skips_clusters_with_no_overlap() {
        // An empty failing cluster shares nothing; nothing to merge into.
        let mut clusters = vec![make_cluster(0, vec![0, 1, 2]), make_cluster(1, vec![])];
        let before = clusters[0].pst.total_count();
        let (out, _) = run(&mut clusters, 1, ConsolidationMode::MergeIntoCovering);
        assert_eq!(out.dismissed, 1);
        assert_eq!(clusters[0].pst.total_count(), before);
    }

    #[test]
    fn detailed_outcome_counts_merges() {
        // Merge mode reports the surviving cluster that received the
        // dismissed model.
        let mut clusters = vec![
            make_cluster(0, vec![0, 1, 2, 3, 4]),
            make_cluster(1, vec![0, 1, 2, 3]),
        ];
        let (out, merge_targets) = run(&mut clusters, 2, ConsolidationMode::MergeIntoCovering);
        assert_eq!(out.dismissed, 1);
        assert_eq!(out.merged, 1);
        assert_eq!(merge_targets, vec![0]);

        // Dismiss mode never merges.
        let mut clusters = vec![
            make_cluster(0, vec![0, 1, 2, 3, 4]),
            make_cluster(1, vec![0, 1, 2, 3]),
        ];
        let (out, merge_targets) = run(&mut clusters, 2, ConsolidationMode::Dismiss);
        assert_eq!(out.dismissed, 1);
        assert_eq!(out.merged, 0);
        assert!(merge_targets.is_empty());

        // No overlap: dismissed but not merged.
        let mut clusters = vec![make_cluster(0, vec![0, 1, 2]), make_cluster(1, vec![])];
        let (out, _) = run(&mut clusters, 1, ConsolidationMode::MergeIntoCovering);
        assert_eq!(out.dismissed, 1);
        assert_eq!(out.merged, 0);
    }

    #[test]
    fn exclusive_member_counts_match_the_consolidation_rule() {
        let clusters = vec![
            make_cluster(0, vec![0, 1, 2, 3, 4]),
            make_cluster(1, vec![3, 4, 5]),
        ];
        assert_eq!(exclusive_member_counts(&clusters, 10), vec![3, 1]);
        assert_eq!(exclusive_member_counts(&[], 10), Vec::<usize>::new());
    }

    #[test]
    fn smallest_first_order_prefers_large_clusters() {
        // A big cluster and a small one fully inside it: the small one is
        // examined first and dies; the big one keeps all members.
        let mut clusters = vec![
            make_cluster(0, vec![0, 1]),
            make_cluster(1, vec![0, 1, 2, 3, 4, 5]),
        ];
        let removed = dismiss(&mut clusters, 2);
        assert_eq!(removed, 1);
        assert_eq!(clusters[0].id, 1);
    }
}
