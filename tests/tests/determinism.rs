//! Determinism contracts: every stochastic component must be fully
//! reproducible from its seed — the experiment harness depends on it.

use datagen::census::us_census;
use datagen::synthetic::SyntheticSpec;
use dpcopula::synthesizer::DpCopulaConfig;
use dpcopula::SynthesisRequest;
use dphist::privelet::PriveletPlus;
use dphist::RangeCountEstimator;
use dpmech::Epsilon;
use rngkit::rngs::StdRng;
use rngkit::{RngCore, SeedableRng};
use std::collections::HashSet;

#[test]
fn data_generation_is_seed_deterministic() {
    let spec = SyntheticSpec {
        records: 500,
        dims: 3,
        ..Default::default()
    };
    assert_eq!(spec.generate(), spec.generate());
    assert_eq!(us_census(200, 9), us_census(200, 9));
    assert_ne!(us_census(200, 9), us_census(200, 10));
}

#[test]
fn synthesis_is_rng_deterministic() {
    let data = SyntheticSpec {
        records: 800,
        dims: 2,
        domain: 64,
        ..Default::default()
    }
    .generate();
    let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
    let run = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        SynthesisRequest::from_config(data.columns(), &data.domains(), config)
            .seed(rng.next_u64())
            .run()
            .unwrap()
            .0
            .columns
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43));
}

#[test]
fn lazy_privelet_noise_is_seed_stable() {
    let cols = vec![vec![1u32, 2, 3, 4, 5], vec![5u32, 4, 3, 2, 1]];
    let domains = vec![8usize, 8];
    let eps = Epsilon::new(0.5).unwrap();
    let q = [(1u32, 6u32), (0u32, 7u32)];
    let mut a = PriveletPlus::publish(cols.clone(), &domains, eps, 7);
    let mut b = PriveletPlus::publish(cols.clone(), &domains, eps, 7);
    let mut c = PriveletPlus::publish(cols, &domains, eps, 8);
    assert_eq!(a.range_count(&q), b.range_count(&q));
    assert_ne!(a.range_count(&q), c.range_count(&q));
}

const WINDOW: usize = 1_000_000;

fn draw_window(rng: &mut StdRng) -> HashSet<u64> {
    (0..WINDOW).map(|_| rng.next_u64()).collect()
}

/// Per-thread streams derived via `split()` must not overlap: two
/// distinct child streams share no value in a 1e6-draw window (a
/// collision between independent 64-bit streams has probability
/// ~1e12/2^64 ≈ 5e-8; an accidentally shared stream collides on every
/// draw).
#[test]
fn split_streams_do_not_overlap_in_a_million_draws() {
    let mut parent = StdRng::seed_from_u64(0xD1CE);
    let mut a = parent.split();
    let mut b = parent.split();
    let wa = draw_window(&mut a);
    assert_eq!(wa.len(), WINDOW, "split stream repeated a value in-window");
    let overlap = (0..WINDOW).filter(|_| wa.contains(&b.next_u64())).count();
    assert_eq!(overlap, 0, "split streams overlapped {overlap} times");
}

/// `jump()` advances by 2^128 steps: the pre-jump and post-jump windows
/// of the same generator must be disjoint, and the jumped stream must be
/// reproducible.
#[test]
fn jump_separated_streams_do_not_overlap_in_a_million_draws() {
    let mut front = StdRng::seed_from_u64(0xBEEF);
    let mut back = front.clone();
    back.jump();
    let mut back2 = StdRng::seed_from_u64(0xBEEF);
    back2.jump();

    let wf = draw_window(&mut front);
    let overlap = (0..WINDOW)
        .filter(|_| wf.contains(&back.next_u64()))
        .count();
    assert_eq!(overlap, 0, "jump streams overlapped {overlap} times");
    assert_eq!(back2.next_u64(), {
        let mut b = StdRng::seed_from_u64(0xBEEF);
        b.jump();
        b.next_u64()
    });
}
