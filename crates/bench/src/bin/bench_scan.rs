//! Records the scan-kernel perf trajectory as `BENCH_scan.json`.
//!
//! Times the same grid as the `scan_kernel` Criterion bench — the
//! interpreted tree walk, the compiled automaton scanned one sequence at
//! a time, the lane-interleaved driver over the same tables, and the
//! driver `ClusterAutomaton::scan_batch` selects from the table size —
//! per probe symbol, and writes one machine-readable JSON file so
//! successive commits can be compared without parsing Criterion's output
//! directory. Every measurement records its median *and* its sample
//! variance, so a regression can be told apart from a noisy run without
//! re-benching; each config also records its `table_bytes`, which is what
//! the driver choice reads, and the file records the host's `cores`.
//!
//! ```sh
//! cargo run --release -p cluseq-bench --bin bench_scan \
//!     [--quick] [--out BENCH_scan.json]
//! ```
//!
//! `--quick` shrinks the probe set and repetition count to a smoke-test
//! size (CI uses it to prove the harness runs; the numbers are noisy).
//! The target trajectory for the full run: the compiled kernel ≥2× over
//! interpreted, and the selected driver within one standard deviation of
//! the faster of the two compiled drivers on every config.

use std::time::Instant;

use cluseq_bench::scan_kernel::{configs, ScanFixture};
use cluseq_bench::{flag_value, peak_rss_bytes, print_table};
use cluseq_core::kernel::LANE_CROSSOVER_BYTES;

/// Median and sample variance (n−1) of a sample; sorted in place.
fn stats(mut xs: Vec<f64>) -> (f64, f64) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = xs.len();
    let median = if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    };
    let mean = xs.iter().sum::<f64>() / n as f64;
    let var = if n > 1 {
        xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
    } else {
        0.0
    };
    (median, var)
}

/// Median of a sample, discarding the variance.
fn median(xs: Vec<f64>) -> f64 {
    stats(xs).0
}

/// ns/symbol samples for `reps` *interleaved* rounds: each round times
/// one pass of every kernel back to back, so a contention burst on a
/// shared box lands on all kernels of that round instead of skewing
/// whichever kernel owned that stretch of wall clock — the per-kernel
/// medians stay comparable even when the absolute numbers wander. Each
/// round starts one pass later than the last, so no pass always runs on
/// the caches its predecessor warmed.
fn time_rounds(reps: usize, symbols: usize, passes: &[&dyn Fn() -> f64]) -> Vec<Vec<f64>> {
    let mut sink = 0.0;
    let mut samples = vec![Vec::with_capacity(reps); passes.len()];
    for round in 0..reps {
        for offset in 0..passes.len() {
            let kernel = (round + offset) % passes.len();
            let start = Instant::now();
            sink += passes[kernel]();
            samples[kernel].push(start.elapsed().as_nanos() as f64 / symbols as f64);
        }
    }
    assert!(sink.is_finite() || sink.is_nan(), "keep the passes live");
    samples
}

/// The measured passes, in display order; `main` pairs each name with
/// its driver closure over the one shared fixture.
const PASSES: [&str; 4] = ["interpreted", "compiled", "batched", "selected"];

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let out = flag_value("--out").unwrap_or_else(|| "BENCH_scan.json".to_string());
    let (probes, warmup, reps) = if quick { (8, 1, 5) } else { (64, 3, 21) };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut rows = Vec::new();
    let mut entries = Vec::new();
    let mut compiled_speedups = Vec::new();
    let mut batched_speedups = Vec::new();
    let mut selected_speedups = Vec::new();
    let mut within_one_sd = 0usize;
    for cfg in configs() {
        let fx = ScanFixture::build(cfg, probes);
        let symbols = fx.symbols();
        let passes: [&dyn Fn() -> f64; 4] = [
            &|| fx.run_interpreted(),
            &|| fx.run_compiled(),
            &|| fx.run_batched(),
            &|| fx.run_selected(),
        ];
        for _ in 0..warmup {
            for pass in passes {
                pass();
            }
        }
        let measured: Vec<(f64, f64)> = time_rounds(reps, symbols, &passes)
            .into_iter()
            .map(stats)
            .collect();
        let [interp, compiled, batched, selected] = [0, 1, 2, 3].map(|k| measured[k].0);
        let driver = if fx.automaton.interleaves_lanes() {
            "lanes"
        } else {
            "single"
        };
        // The faster compiled driver and its recorded spread: the bar the
        // selected driver is held to.
        let (best, best_var) = if compiled <= batched {
            measured[1]
        } else {
            measured[2]
        };
        if selected - best <= best_var.sqrt() {
            within_one_sd += 1;
        }
        compiled_speedups.push(interp / compiled);
        batched_speedups.push(compiled / batched);
        selected_speedups.push(compiled / selected);
        let table_bytes = fx.automaton.table_bytes();
        rows.push(vec![
            cfg.to_string(),
            fx.automaton.tables().state_count().to_string(),
            format!("{:.2}", table_bytes as f64 / 1e6),
            format!("{interp:.1}"),
            format!("{compiled:.1}"),
            format!("{batched:.1}"),
            format!("{selected:.1}"),
            driver.to_string(),
        ]);
        let per_pass: Vec<String> = PASSES
            .iter()
            .zip(&measured)
            .map(|(name, (med, var))| {
                format!("\"{name}_ns_per_symbol\": {med:.3}, \"{name}_var\": {var:.4}")
            })
            .collect();
        entries.push(format!(
            "    {{\"config\": \"{cfg}\", \"alphabet\": {}, \"avg_len\": {}, \
             \"states\": {}, \"table_bytes\": {table_bytes}, \
             \"selected_driver\": \"{driver}\", {}, \"speedup\": {:.4}, \
             \"batched_speedup_vs_compiled\": {:.4}, \
             \"selected_speedup_vs_compiled\": {:.4}}}",
            cfg.alphabet,
            cfg.avg_len,
            fx.automaton.tables().state_count(),
            per_pass.join(", "),
            interp / compiled,
            compiled / batched,
            compiled / selected,
        ));
    }

    let n_configs = entries.len();
    let median_speedup = median(compiled_speedups);
    let median_batched = median(batched_speedups);
    let median_selected = median(selected_speedups);
    print_table(
        "scan kernel matrix (median ns/symbol)",
        &[
            "config", "states", "table MB", "interp", "compiled", "batched", "selected", "driver",
        ],
        &rows,
    );
    println!(
        "\nmedian speedups across the grid: compiled {median_speedup:.2}x over interpreted \
         (target >= 2x); vs compiled: batched {median_batched:.2}x, selected \
         {median_selected:.2}x; selected driver within one sd of the faster driver on \
         {within_one_sd}/{n_configs} configs (lane crossover {LANE_CROSSOVER_BYTES} table \
         bytes, {cores} cores)"
    );

    let peak_rss = peak_rss_bytes().unwrap_or(0);
    let json = format!(
        "{{\n  \"bench\": \"scan_kernel\",\n  \"unit\": \"ns_per_symbol\",\n  \
         \"quick\": {quick},\n  \"cores\": {cores},\n  \"peak_rss_bytes\": {peak_rss},\n  \
         \"lane_crossover_bytes\": {LANE_CROSSOVER_BYTES},\n  \
         \"median_speedup\": {median_speedup:.4},\n  \
         \"median_batched_speedup_vs_compiled\": {median_batched:.4},\n  \
         \"median_selected_speedup_vs_compiled\": {median_selected:.4},\n  \
         \"selected_within_one_sd\": {within_one_sd},\n  \
         \"configs\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("wrote {out}");
}
