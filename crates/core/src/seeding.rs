//! New-cluster seed selection (paper §4.1).
//!
//! To generate `k_n` new clusters, `m = sample_factor × k_n` unclustered
//! sequences are sampled; each sample gets its own probabilistic suffix
//! tree; then a greedy farthest-first pass runs `k_n` steps, each time
//! choosing the remaining sample whose *highest* similarity to any cluster
//! in the current collection (existing clusters plus seeds already chosen)
//! is *lowest* — i.e. the sample least explained by everything so far.

use rand::seq::SliceRandom;
use rand::Rng;

use cluseq_pst::{Pst, PstParams};
use cluseq_seq::{BackgroundModel, SequenceStore};

use crate::cluster::Cluster;
use crate::config::ScanKernel;
use crate::kernel::ClusterAutomaton;
use crate::score::{parallel_map, parallel_map_with};
use crate::similarity::{max_similarity_pst, BoundedSimilarity};
use crate::telemetry::SeedingMetrics;
use crate::trace::{Phase, TraceSession};

/// Selects up to `k_n` seed sequence ids from `unclustered`, with the
/// [`SeedingMetrics`] the telemetry layer records.
///
/// Returns fewer than `k_n` seeds when there are not enough unclustered
/// sequences (or when `k_n` is 0).
///
/// Candidate model building and all candidate scoring are pure reads, run
/// through [`crate::score::parallel_map`] with `threads` workers; the
/// selection itself (and the RNG draw for the sample) is identical for any
/// thread count.
///
/// Under the compiled kernel the candidate scoring runs on prebuilt
/// automata with threshold early-exit against the running farthest-first
/// maxima. Selection is bit-identical to the interpreted path: a pruned
/// pair is provably below the running maximum, so it could never have
/// raised it.
///
/// With a `trace` session, the candidate scoring passes run under nested
/// `seeding_score` spans (the caller holds the surrounding `seeding`
/// span); tracing changes no draw, score, or pick.
#[allow(clippy::too_many_arguments)] // internal driver call, mirrors §4.1's inputs
pub fn select_seeds_detailed(
    store: &dyn SequenceStore,
    background: &BackgroundModel,
    clusters: &[Cluster],
    unclustered: &[usize],
    k_n: usize,
    sample_factor: usize,
    pst_params: PstParams,
    threads: usize,
    kernel: ScanKernel,
    rng: &mut impl Rng,
    trace: Option<&TraceSession>,
) -> (Vec<usize>, SeedingMetrics) {
    let requested = k_n;
    let pool = unclustered.len();
    if k_n == 0 || unclustered.is_empty() {
        return (
            Vec::new(),
            SeedingMetrics {
                requested,
                pool,
                sampled: 0,
                chosen: 0,
            },
        );
    }
    let k_n = k_n.min(unclustered.len());
    let m = (sample_factor * k_n).min(unclustered.len());

    // Sample m candidates without replacement.
    let mut candidates: Vec<usize> = unclustered.to_vec();
    candidates.shuffle(rng);
    candidates.truncate(m);

    // One PST per candidate, used both to score candidates against chosen
    // seeds and (by the caller) to found the new cluster. Each worker
    // reads candidate sequences through its own store reader, so a
    // file-backed store pages candidates in without global state.
    let alphabet_size = store.alphabet().len();
    let candidate_psts: Vec<Pst> = parallel_map_with(
        candidates.len(),
        threads,
        || store.reader(),
        |reader, i| Pst::from_sequence(alphabet_size, pst_params, &reader.sequence(candidates[i])),
    );

    // Existing cluster models are compiled once and reused for every
    // candidate; each picked candidate's model is compiled once below.
    let cluster_automata: Option<Vec<ClusterAutomaton>> = kernel.uses_automaton().then(|| {
        let _span = trace.map(|t| t.span(Phase::AutomatonCompile));
        parallel_map(clusters.len(), threads, |i| {
            ClusterAutomaton::build(&clusters[i].pst, background, kernel)
                .expect("automaton-backed kernel")
        })
    });

    // best_sim[i] = highest similarity of candidate i to any cluster chosen
    // so far (existing clusters first). Farthest-first then only needs to
    // fold in the newest seed each step.
    let score_span = trace.map(|t| t.span(Phase::SeedingScore));
    let mut best_sim: Vec<f64> = parallel_map_with(
        candidates.len(),
        threads,
        || store.reader(),
        |reader, i| {
            let seq = reader.symbols(candidates[i]);
            match &cluster_automata {
                Some(automata) => automata.iter().fold(f64::NEG_INFINITY, |acc, a| {
                    // Early-exit against the running max: a pruned score
                    // is strictly below `acc`, so the fold is unchanged.
                    match a.scan_bounded(seq, acc) {
                        BoundedSimilarity::Exact(sim) => acc.max(sim.log_sim),
                        BoundedSimilarity::Pruned => acc,
                    }
                }),
                None => clusters
                    .iter()
                    .map(|c| max_similarity_pst(&c.pst, background, seq).log_sim)
                    .fold(f64::NEG_INFINITY, f64::max),
            }
        },
    );
    drop(score_span);

    let mut chosen: Vec<usize> = Vec::with_capacity(k_n); // candidate indices
    let mut taken = vec![false; candidates.len()];
    for _ in 0..k_n {
        // The remaining candidate with the LEAST max-similarity.
        let Some(pick) = (0..candidates.len())
            .filter(|&i| !taken[i])
            .min_by(|&a, &b| best_sim[a].total_cmp(&best_sim[b]))
        else {
            break;
        };
        taken[pick] = true;
        chosen.push(pick);

        // Fold the new seed into every remaining candidate's best score.
        let _span = trace.map(|t| t.span(Phase::SeedingScore));
        let pick_automaton = cluster_automata.as_ref().map(|_| {
            let _span = trace.map(|t| t.span(Phase::AutomatonCompile));
            ClusterAutomaton::build(&candidate_psts[pick], background, kernel)
                .expect("automaton-backed kernel")
        });
        let step: Vec<Option<f64>> = parallel_map_with(
            candidates.len(),
            threads,
            || store.reader(),
            |reader, i| {
                if taken[i] {
                    return None;
                }
                let seq = reader.symbols(candidates[i]);
                match &pick_automaton {
                    // A pruned score is strictly below best_sim[i], so it
                    // could not have passed the `sim > best_sim[i]` update.
                    Some(a) => match a.scan_bounded(seq, best_sim[i]) {
                        BoundedSimilarity::Exact(sim) => Some(sim.log_sim),
                        BoundedSimilarity::Pruned => None,
                    },
                    None => {
                        Some(max_similarity_pst(&candidate_psts[pick], background, seq).log_sim)
                    }
                }
            },
        );
        for (i, sim) in step.into_iter().enumerate() {
            if let Some(sim) = sim {
                if sim > best_sim[i] {
                    best_sim[i] = sim;
                }
            }
        }
    }

    let seeds: Vec<usize> = chosen.into_iter().map(|i| candidates[i]).collect();
    let metrics = SeedingMetrics {
        requested,
        pool,
        sampled: m,
        chosen: seeds.len(),
    };
    (seeds, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluseq_seq::SequenceDatabase;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> (SequenceDatabase, BackgroundModel) {
        // Three well-separated behaviours, several sequences each.
        let texts = [
            "abababababababababab",
            "abababababababababab",
            "abababababababababab",
            "cccccccccccccccccccc",
            "cccccccccccccccccccc",
            "cccccccccccccccccccc",
            "aabbaabbaabbaabbaabb",
            "aabbaabbaabbaabbaabb",
        ];
        let db = SequenceDatabase::from_strs(texts);
        let bg = db.background();
        (db, bg)
    }

    fn params() -> PstParams {
        PstParams::default().with_significance(2)
    }

    #[test]
    fn selects_requested_number_of_seeds() {
        let (db, bg) = fixture();
        let mut rng = StdRng::seed_from_u64(3);
        let all: Vec<usize> = (0..db.len()).collect();
        let seeds = select_seeds_detailed(
            &db,
            &bg,
            &[],
            &all,
            3,
            5,
            params(),
            1,
            ScanKernel::Interpreted,
            &mut rng,
            None,
        )
        .0;
        assert_eq!(seeds.len(), 3);
        // All seeds are distinct and drawn from the pool.
        let mut s = seeds.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn farthest_first_spreads_across_behaviours() {
        let (db, bg) = fixture();
        let mut rng = StdRng::seed_from_u64(11);
        let all: Vec<usize> = (0..db.len()).collect();
        // Sample everything (factor large enough) so selection is purely
        // similarity-driven.
        let seeds = select_seeds_detailed(
            &db,
            &bg,
            &[],
            &all,
            3,
            10,
            params(),
            1,
            ScanKernel::Interpreted,
            &mut rng,
            None,
        )
        .0;
        // The three seeds should cover the three behaviours: ab-repeats
        // (ids 0-2), c-runs (3-5), aabb-repeats (6-7).
        let groups: Vec<usize> = seeds
            .iter()
            .map(|&id| match id {
                0..=2 => 0,
                3..=5 => 1,
                _ => 2,
            })
            .collect();
        let mut g = groups.clone();
        g.sort_unstable();
        g.dedup();
        assert_eq!(
            g.len(),
            3,
            "seeds {seeds:?} collapse into groups {groups:?}"
        );
    }

    #[test]
    fn seeds_avoid_existing_clusters() {
        let (db, bg) = fixture();
        let mut rng = StdRng::seed_from_u64(5);
        // An existing cluster already models the ab-repeat behaviour.
        let existing = Cluster::from_seed(0, 0, db.sequence(0), db.alphabet().len(), params());
        let pool: Vec<usize> = (1..db.len()).collect();
        let seeds = select_seeds_detailed(
            &db,
            &bg,
            &[existing],
            &pool,
            1,
            10,
            params(),
            1,
            ScanKernel::Interpreted,
            &mut rng,
            None,
        )
        .0;
        assert_eq!(seeds.len(), 1);
        assert!(
            seeds[0] >= 3,
            "seed {} should come from an unmodeled behaviour",
            seeds[0]
        );
    }

    #[test]
    fn empty_pool_or_zero_k_yields_nothing() {
        let (db, bg) = fixture();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(select_seeds_detailed(
            &db,
            &bg,
            &[],
            &[],
            3,
            5,
            params(),
            1,
            ScanKernel::Interpreted,
            &mut rng,
            None
        )
        .0
        .is_empty());
        let all: Vec<usize> = (0..db.len()).collect();
        assert!(select_seeds_detailed(
            &db,
            &bg,
            &[],
            &all,
            0,
            5,
            params(),
            1,
            ScanKernel::Interpreted,
            &mut rng,
            None
        )
        .0
        .is_empty());
    }

    #[test]
    fn thread_count_does_not_change_selection() {
        let (db, bg) = fixture();
        let all: Vec<usize> = (0..db.len()).collect();
        let existing = Cluster::from_seed(0, 0, db.sequence(0), db.alphabet().len(), params());
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(11);
            select_seeds_detailed(
                &db,
                &bg,
                std::slice::from_ref(&existing),
                &all,
                3,
                10,
                params(),
                threads,
                ScanKernel::Interpreted,
                &mut rng,
                None,
            )
            .0
        };
        let reference = run(1);
        for threads in [2usize, 4, 8] {
            assert_eq!(run(threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn k_larger_than_pool_is_clamped() {
        let (db, bg) = fixture();
        let mut rng = StdRng::seed_from_u64(1);
        let pool = vec![0, 3];
        let seeds = select_seeds_detailed(
            &db,
            &bg,
            &[],
            &pool,
            10,
            5,
            params(),
            1,
            ScanKernel::Interpreted,
            &mut rng,
            None,
        )
        .0;
        assert_eq!(seeds.len(), 2);
    }

    #[test]
    fn detailed_selection_reports_metrics() {
        let (db, bg) = fixture();
        let all: Vec<usize> = (0..db.len()).collect();
        let mut rng = StdRng::seed_from_u64(11);
        let (seeds, metrics) = select_seeds_detailed(
            &db,
            &bg,
            &[],
            &all,
            3,
            2,
            params(),
            1,
            ScanKernel::Interpreted,
            &mut rng,
            None,
        );
        assert_eq!(metrics.requested, 3);
        assert_eq!(metrics.pool, db.len());
        assert_eq!(metrics.sampled, 6);
        assert_eq!(metrics.chosen, 3);
        assert_eq!(seeds.len(), metrics.chosen);
    }

    #[test]
    fn detailed_selection_reports_empty_pool() {
        let (db, bg) = fixture();
        let mut rng = StdRng::seed_from_u64(1);
        let (seeds, metrics) = select_seeds_detailed(
            &db,
            &bg,
            &[],
            &[],
            3,
            5,
            params(),
            1,
            ScanKernel::Interpreted,
            &mut rng,
            None,
        );
        assert!(seeds.is_empty());
        assert_eq!(metrics.requested, 3);
        assert_eq!(metrics.pool, 0);
        assert_eq!(metrics.sampled, 0);
        assert_eq!(metrics.chosen, 0);
    }

    #[test]
    fn compiled_kernel_selects_identical_seeds() {
        let (db, bg) = fixture();
        let all: Vec<usize> = (0..db.len()).collect();
        let existing = Cluster::from_seed(0, 0, db.sequence(0), db.alphabet().len(), params());
        let run = |kernel: ScanKernel| {
            let mut rng = StdRng::seed_from_u64(11);
            let seeds = select_seeds_detailed(
                &db,
                &bg,
                std::slice::from_ref(&existing),
                &all,
                3,
                10,
                params(),
                1,
                kernel,
                &mut rng,
                None,
            )
            .0;
            // Both kernels must consume identical RNG state too.
            (seeds, rng.gen::<u64>())
        };
        let reference = run(ScanKernel::Interpreted);
        assert_eq!(reference, run(ScanKernel::Compiled));
    }
}
