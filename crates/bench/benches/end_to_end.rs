//! Microbenchmark: the complete DPCopula pipeline (margins + correlation
//! + sampling) at 2-D and 8-D, Kendall and MLE flavours.

use datagen::synthetic::{MarginKind, SyntheticSpec};
use dpcopula::mle::PartitionStrategy;
use dpcopula::synthesizer::{CorrelationMethod, DpCopulaConfig};
use dpcopula::SynthesisRequest;
use dpmech::Epsilon;
use rngkit::rngs::StdRng;
use rngkit::{RngCore, SeedableRng};
use std::hint::black_box;
use testkit::bench::{BenchmarkId, Criterion};
use testkit::{criterion_group, criterion_main};

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    for &m in &[2usize, 8] {
        let data = SyntheticSpec {
            records: 10_000,
            dims: m,
            domain: 1000,
            margin: MarginKind::Gaussian,
            ..Default::default()
        }
        .generate();
        let eps = Epsilon::new(1.0).unwrap();
        let domains = data.domains();

        g.bench_with_input(BenchmarkId::new("kendall", m), &m, |b, _| {
            let config = DpCopulaConfig::kendall(eps);
            let mut rng = StdRng::seed_from_u64(6);
            b.iter(|| {
                let request = SynthesisRequest::from_config(data.columns(), &domains, config);
                black_box(request.seed(rng.next_u64()).run().unwrap())
            })
        });

        g.bench_with_input(BenchmarkId::new("mle", m), &m, |b, _| {
            let mut config = DpCopulaConfig::mle(eps);
            config.method = CorrelationMethod::Mle(PartitionStrategy::Fixed(100));
            let mut rng = StdRng::seed_from_u64(7);
            b.iter(|| {
                let request = SynthesisRequest::from_config(data.columns(), &domains, config);
                black_box(request.seed(rng.next_u64()).run().unwrap())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
