//! **Figure 6** — scalability of CLUSEQ along four axes, plus the
//! out-of-core axis, recorded as `BENCH_fig6.json`.
//!
//! Paper (each axis varied with the others fixed at 100k sequences,
//! 1000 symbols/sequence, 100 distinct symbols, 50 clusters):
//!
//! * (a) response time **linear** in the number of clusters {10..100};
//! * (b) **linear** in the number of sequences {10k..200k};
//! * (c) mildly **super-linear** in the average length {100..2000};
//! * (d) **flat** in the number of distinct symbols.
//!
//! The `outofcore` axis goes beyond the paper: it streams the corpus to
//! disk (never materializing it), clusters it through a file-backed
//! [`FileStore`] with a sharded snapshot scan and a bounded model cache,
//! and records the process's peak RSS next to the corpus size — the
//! engine's resident footprint must stay far below the file. Under
//! `--full` the largest configuration is 10^7 sequences. Configurations
//! run in ascending size so the monotone `VmHWM` reading after each one
//! is an honest per-configuration bound, and `--axis all` runs each axis
//! in a child process of its own, so no axis inherits another's mark.
//! The JSON records the host's `cores`.
//!
//! ```sh
//! cargo run --release -p cluseq-bench --bin fig6_scalability \
//!     [--axis clusters|sequences|length|alphabet|outofcore|all] \
//!     [--scale f] [--full] [--out BENCH_fig6.json]
//! ```

use std::process::Command;
use std::time::Instant;

use cluseq_bench::{flag_value, pct, peak_rss_bytes, print_table, run_and_score, secs, Scale};
use cluseq_core::{Cluseq, CluseqParams, ScanMode};
use cluseq_datagen::SyntheticSpec;
use cluseq_eval::{Confusion, MatchStrategy};
use cluseq_seq::store::FileStore;
use cluseq_seq::{store, SequenceStore};

fn base_spec(scale: &Scale) -> SyntheticSpec {
    SyntheticSpec {
        sequences: scale.count(800, 100_000, 100),
        clusters: scale.count(10, 50, 2),
        avg_len: scale.count(200, 1000, 40),
        alphabet: 100,
        outlier_fraction: 0.05,
        seed: scale.seed,
    }
}

fn run_axis(scale: &Scale, axis: &str, entries: &mut Vec<String>) {
    let base = base_spec(scale);
    let specs: Vec<(String, SyntheticSpec)> = match axis {
        "clusters" => [2usize, 5, 10, 20]
            .iter()
            .map(|&k| {
                (
                    format!("{k} clusters"),
                    SyntheticSpec {
                        clusters: if scale.full { k * 5 } else { k },
                        ..base
                    },
                )
            })
            .collect(),
        "sequences" => [200usize, 400, 800, 1600]
            .iter()
            .map(|&n| {
                (
                    format!("{n} sequences"),
                    SyntheticSpec {
                        sequences: if scale.full { n * 125 } else { n },
                        ..base
                    },
                )
            })
            .collect(),
        "length" => [50usize, 100, 200, 400]
            .iter()
            .map(|&l| {
                (
                    format!("avg len {l}"),
                    SyntheticSpec {
                        avg_len: if scale.full { l * 5 } else { l },
                        ..base
                    },
                )
            })
            .collect(),
        "alphabet" => [25usize, 50, 100, 200]
            .iter()
            .map(|&a| {
                (
                    format!("{a} symbols"),
                    SyntheticSpec {
                        alphabet: a,
                        ..base
                    },
                )
            })
            .collect(),
        other => {
            eprintln!("error: unknown --axis {other:?}");
            std::process::exit(2);
        }
    };

    let mut rows = Vec::new();
    let mut times = Vec::new();
    for (label, spec) in &specs {
        let db = spec.generate();
        let scored = run_and_score(
            &db,
            CluseqParams::default()
                .with_initial_clusters(spec.clusters)
                // Warm start near the converged threshold (the paper's own
                // sensitivity experiments start at the true t); a cold
                // 1.0005 start under heavy noise can deadlock in a
                // contaminated monopoly cluster at this reduced scale —
                // see EXPERIMENTS.md.
                .with_initial_threshold(3000.0)
                .with_significance(10)
                .with_max_depth(6)
                .with_seed(scale.seed),
        );
        // Per-iteration time is the honest scaling signal: total time also
        // reflects how many iterations the threshold adaptation needed,
        // which is a data-hardness effect, not a cost-model one.
        let per_iter = scored.seconds / scored.outcome.iterations.max(1) as f64;
        times.push(per_iter);
        rows.push(vec![
            label.clone(),
            secs(scored.seconds),
            format!("{}", scored.outcome.iterations),
            secs(per_iter),
            format!("{}", scored.clusters),
            pct(scored.accuracy),
        ]);
        entries.push(format!(
            "    {{\"axis\": \"{axis}\", \"workload\": \"{label}\", \
             \"seconds\": {:.4}, \"iterations\": {}, \"per_iter_s\": {per_iter:.4}, \
             \"clusters\": {}, \"accuracy\": {:.4}, \"peak_rss_bytes\": {}}}",
            scored.seconds,
            scored.outcome.iterations,
            scored.clusters,
            scored.accuracy,
            peak_rss_bytes().unwrap_or(0),
        ));
        eprintln!("{label} done ({})", secs(scored.seconds));
    }

    let expected = match axis {
        "clusters" => "linear in the number of clusters",
        "sequences" => "linear in the number of sequences",
        "length" => "mildly super-linear in the average length",
        _ => "nearly flat in the alphabet size",
    };
    print_table(
        &format!("Figure 6 ({axis}): response time — paper shape: {expected}"),
        &[
            "workload",
            "time",
            "iters",
            "time/iter",
            "final clusters",
            "accuracy %",
        ],
        &rows,
    );
    // A crude shape statistic: the ratio of successive time ratios to the
    // corresponding workload ratios (1.0 = perfectly linear).
    if times.len() >= 2 && times[0] > 0.0 {
        let growth = times.last().unwrap() / times[0];
        println!("per-iteration time(last)/time(first) = {growth:.1}x over an 8x (2x for alphabet) workload span");
    }
}

/// The out-of-core axis: corpus streamed to disk, clustered through a
/// [`FileStore`] with a sharded snapshot scan, a frozen threshold (so no
/// O(n) similarity sample is collected), and a bounded model cache. The
/// interesting column is peak RSS vs. file size: resident state is the
/// 16-byte-per-sequence offset index plus O(sequences) assignment
/// bookkeeping, never the symbols.
fn run_outofcore(scale: &Scale, entries: &mut Vec<String>) {
    // Ascending, so each config's VmHWM reading bounds that config.
    let sizes: &[usize] = if scale.full {
        &[100_000, 1_000_000, 10_000_000]
    } else {
        &[1_000, 4_000]
    };
    let dir = std::env::temp_dir().join(format!("fig6-ooc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create corpus dir");

    let mut rows = Vec::new();
    for &n in sizes {
        let spec = SyntheticSpec {
            sequences: n,
            // Under --full the axis trades cluster count (and iterations,
            // below) for reachable wall clock on one core: RSS vs corpus
            // size is the measurement, cluster recovery is not.
            clusters: if scale.full {
                10
            } else {
                scale.count(8, 50, 2)
            },
            // Shorter sequences at paper scale keep the 10^7 corpus near
            // 2 GB on disk; the memory story is what this axis measures.
            avg_len: if scale.full { 100 } else { 200 },
            alphabet: 100,
            outlier_fraction: 0.05,
            seed: scale.seed,
        };
        let path = dir.join(format!("corpus-{n}.cseq"));
        spec.generate_streamed(&path)
            .expect("stream corpus to disk");
        let file_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        let fs = FileStore::open(&path).expect("open streamed corpus");
        let store: &dyn SequenceStore = &fs;
        let params = CluseqParams::default()
            .with_initial_clusters(spec.clusters)
            .with_initial_threshold(3000.0)
            // Frozen threshold: the scan prunes below ln t and collects no
            // similarity histogram, so scan state stays O(shard).
            .with_threshold_adjustment(false)
            .with_significance(10)
            .with_max_depth(6)
            // The scan holds an Arc to every *live* cluster's automaton
            // for the duration of an iteration — the cache budget bounds
            // what survives *between* iterations, not what a scan pins.
            // Bounding the source PSTs bounds the automata: 1 MiB of PST
            // compiles to a few tens of MB of dense tables, so the model
            // tier stays flat as the corpus grows.
            .with_max_pst_bytes(1 << 20)
            .with_scan_mode(ScanMode::Snapshot)
            .with_scan_shard(65_536)
            .with_model_cache_mb(256)
            .with_max_iterations(if scale.full { 2 } else { 4 })
            .with_seed(scale.seed);
        let start = Instant::now();
        let outcome = Cluseq::new(params).run(store);
        let seconds = start.elapsed().as_secs_f64();
        // Read the high-water mark before accuracy scoring allocates its
        // own O(n) label and membership vectors.
        let peak_rss = peak_rss_bytes().unwrap_or(0);
        let labels: Vec<Option<u32>> = (0..store.len()).map(|i| store.label(i)).collect();
        let confusion = Confusion::new(
            &labels,
            &outcome.membership_lists(),
            MatchStrategy::Hungarian,
        );
        let accuracy = confusion.accuracy();
        rows.push(vec![
            format!("{n} sequences"),
            format!("{:.1} MB", file_bytes as f64 / 1e6),
            secs(seconds),
            format!("{}", outcome.iterations),
            format!("{}", outcome.cluster_count()),
            format!("{:.1} MB", peak_rss as f64 / 1e6),
            pct(accuracy),
        ]);
        entries.push(format!(
            "    {{\"axis\": \"outofcore\", \"workload\": \"{n} sequences\", \
             \"store\": \"file\", \"sequences\": {n}, \"file_bytes\": {file_bytes}, \
             \"seconds\": {seconds:.4}, \"iterations\": {}, \"clusters\": {}, \
             \"accuracy\": {accuracy:.4}, \"peak_rss_bytes\": {peak_rss}}}",
            outcome.iterations,
            outcome.cluster_count(),
        ));
        eprintln!(
            "outofcore {n} done ({}, corpus {:.1} MB, peak RSS {:.1} MB)",
            secs(seconds),
            file_bytes as f64 / 1e6,
            peak_rss as f64 / 1e6
        );
        // Reclaim the multi-GB corpora before the next (larger) one.
        drop(fs);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(store::sidecar_path(&path));
    }
    let _ = std::fs::remove_dir_all(&dir);

    print_table(
        "Figure 6 (outofcore): file-backed corpus, bounded resident footprint",
        &[
            "workload",
            "corpus",
            "time",
            "iters",
            "final clusters",
            "peak RSS",
            "accuracy %",
        ],
        &rows,
    );
}

/// Runs one axis in a child process of this binary, with this process's
/// arguments but `--axis axis`, and returns the child's JSON rows.
fn run_axis_in_child(axis: &str, out: &str) -> Vec<String> {
    let part = format!("{out}.{axis}.part");
    let mut args = Vec::new();
    let mut given = std::env::args().skip(1);
    while let Some(arg) = given.next() {
        if arg == "--axis" || arg == "--out" {
            given.next();
        } else {
            args.push(arg);
        }
    }
    let exe = std::env::current_exe().expect("locate this binary");
    let status = Command::new(exe)
        .args(&args)
        .args(["--axis", axis, "--out", &part])
        .status()
        .expect("spawn the axis process");
    if !status.success() {
        eprintln!("error: axis {axis} failed ({status})");
        std::process::exit(1);
    }
    let json = std::fs::read_to_string(&part).unwrap_or_else(|e| panic!("cannot read {part}: {e}"));
    let _ = std::fs::remove_file(&part);
    json.lines()
        .filter(|line| line.trim_start().starts_with("{\"axis\""))
        .map(|line| line.trim_end_matches(',').to_string())
        .collect()
}

fn main() {
    let scale = Scale::from_env();
    let axis = flag_value("--axis").unwrap_or_else(|| "all".into());
    let out = flag_value("--out").unwrap_or_else(|| "BENCH_fig6.json".to_string());
    let mut entries = Vec::new();
    if axis == "all" {
        for a in ["clusters", "sequences", "length", "alphabet", "outofcore"] {
            entries.extend(run_axis_in_child(a, &out));
        }
    } else if axis == "outofcore" {
        run_outofcore(&scale, &mut entries);
    } else {
        run_axis(&scale, &axis, &mut entries);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"fig6_scalability\",\n  \"full\": {},\n  \"cores\": {cores},\n  \
         \"peak_rss_note\": \"VmHWM is a process-wide high-water mark; each axis runs in \
         its own process, configs in ascending size, so each reading bounds its config\",\n  \
         \"configs\": [\n{}\n  ]\n}}\n",
        scale.full,
        entries.join(",\n")
    );
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("wrote {out}");
}
