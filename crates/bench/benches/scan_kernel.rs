//! The `--scan-kernel` matrix on the similarity scan: interpreted tree
//! walk, compiled automaton, the lane-interleaved driver over the same
//! tables, and the driver `ClusterAutomaton::scan_batch` selects.
//!
//! Each group member is one grid point of [`cluseq_bench::scan_kernel`]:
//! an alphabet size × average probe length, with throughput in probe
//! symbols so Criterion reports the per-symbol cost the kernel changes.
//! The recorded trajectory variant of this measurement is
//! `cargo run --release -p cluseq-bench --bin bench_scan`, which emits
//! `BENCH_scan.json` from the very same fixtures.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use cluseq_bench::scan_kernel::{configs, ScanFixture};

fn bench_scan_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan_kernel");
    for cfg in configs() {
        let fx = ScanFixture::build(cfg, 32);
        group.throughput(Throughput::Elements(fx.symbols() as u64));
        group.bench_with_input(BenchmarkId::new("interpreted", cfg), &fx, |b, fx| {
            b.iter(|| black_box(fx.run_interpreted()))
        });
        group.bench_with_input(BenchmarkId::new("compiled", cfg), &fx, |b, fx| {
            b.iter(|| black_box(fx.run_compiled()))
        });
        group.bench_with_input(BenchmarkId::new("batched", cfg), &fx, |b, fx| {
            b.iter(|| black_box(fx.run_batched()))
        });
        group.bench_with_input(BenchmarkId::new("selected", cfg), &fx, |b, fx| {
            b.iter(|| black_box(fx.run_selected()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scan_kernel);
criterion_main!(benches);
