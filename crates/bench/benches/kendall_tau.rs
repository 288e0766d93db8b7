//! Microbenchmark: Kendall's tau — the rank-and-score kernel (bench id
//! `knight`; these 1,000-value columns are too wide for its sweep, so
//! it takes the Fenwick tree scored once per `(x, y)` value cell,
//! O(n + c·log g) for `c` distinct cells, O(n log n) at worst) vs the
//! quadratic reference, plus the DP release. Backs the paper's "fast
//! Kendall's tau computation" complexity claim (§4.2).

use dpcopula::kendall::{dp_kendall_tau, kendall_tau, kendall_tau_naive};
use dpmech::Epsilon;
use rngkit::rngs::StdRng;
use rngkit::{Rng, SeedableRng};
use std::hint::black_box;
use testkit::bench::{BenchmarkId, Criterion};
use testkit::{criterion_group, criterion_main};

fn columns(n: usize, seed: u64) -> (Vec<u32>, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<u32> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
    let y: Vec<u32> = x
        .iter()
        .map(|&v| (v + rng.gen_range(0u32..200)) % 1000)
        .collect();
    (x, y)
}

fn bench_kendall(c: &mut Criterion) {
    let mut g = c.benchmark_group("kendall_tau");
    g.sample_size(10);
    for &n in &[1_000usize, 10_000, 100_000] {
        let (x, y) = columns(n, 42);
        g.bench_with_input(BenchmarkId::new("knight", n), &n, |b, _| {
            b.iter(|| black_box(kendall_tau(&x, &y)))
        });
        if n <= 10_000 {
            g.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
                b.iter(|| black_box(kendall_tau_naive(&x, &y)))
            });
        }
        g.bench_with_input(BenchmarkId::new("dp_release", n), &n, |b, _| {
            let eps = Epsilon::new(0.1).unwrap();
            let mut rng = StdRng::seed_from_u64(7);
            b.iter(|| black_box(dp_kendall_tau(&x, &y, eps, &mut rng)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_kendall);
criterion_main!(benches);
