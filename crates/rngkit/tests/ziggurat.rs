//! Golden tests for the ziggurat normal sampler: moment bounds and
//! sorted-sample quantile pins over 1e6-draw windows, at two distinct
//! seeds so a single lucky stream can't mask a biased table.

use rngkit::rngs::StdRng;
use rngkit::ziggurat::{fill_standard_normal, skip_standard_normals, standard_normal};
use rngkit::SeedableRng;

const N: usize = 1_000_000;

/// Reference standard-normal quantiles (Φ⁻¹), pinned to 6 decimals.
const QUANTILE_PINS: [(f64, f64); 9] = [
    (0.001, -3.090232),
    (0.010, -2.326348),
    (0.050, -1.644854),
    (0.250, -0.674490),
    (0.500, 0.0),
    (0.750, 0.674490),
    (0.950, 1.644854),
    (0.990, 2.326348),
    (0.999, 3.090232),
];

fn window(seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut buf = vec![0.0; N];
    fill_standard_normal(&mut rng, &mut buf);
    buf
}

#[test]
fn moments_match_standard_normal_over_1e6_draws() {
    for seed in [0x5eed_0001u64, 0x5eed_0002] {
        let xs = window(seed);
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let skew = xs.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / n / var.powf(1.5);
        let kurt = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n / (var * var);
        // Sampling error of the mean is ~1/sqrt(1e6) = 1e-3; allow 5σ.
        assert!(mean.abs() < 5e-3, "seed {seed:#x}: mean {mean}");
        assert!((var - 1.0).abs() < 1.5e-2, "seed {seed:#x}: var {var}");
        assert!(skew.abs() < 2e-2, "seed {seed:#x}: skew {skew}");
        assert!((kurt - 3.0).abs() < 5e-2, "seed {seed:#x}: kurtosis {kurt}");
    }
}

#[test]
fn sample_quantiles_match_normal_quantile_pins() {
    for seed in [0xab5_0001u64, 0xab5_0002] {
        let mut xs = window(seed);
        xs.sort_by(|a, b| a.partial_cmp(b).expect("draws are finite"));
        for (p, z) in QUANTILE_PINS {
            let got = xs[((N as f64) * p) as usize];
            // Quantile sampling error scales as sqrt(p(1-p)/n)/φ(z):
            // ~0.002 at the median, ~0.04 at the 0.1% tails. Allow 5σ.
            let tol = if (0.01..=0.99).contains(&p) {
                0.02
            } else {
                0.06
            };
            assert!(
                (got - z).abs() < tol,
                "seed {seed:#x}: quantile({p}) = {got}, want {z}"
            );
        }
    }
}

#[test]
fn tail_mass_beyond_layer_edge_is_correct() {
    // P(|X| > R) for R = 3.654152885361008796 is ~2.58e-4, so a 1e6-draw
    // window expects ~258 tail hits; [150, 400] is a ±6σ Poisson band.
    let xs = window(0x7a11);
    let r = 3.654_152_885_361_009;
    let hits = xs.iter().filter(|x| x.abs() > r).count();
    assert!((150..=400).contains(&hits), "tail hits {hits}");
    // The tail path must actually produce values beyond R (not clip).
    let max = xs.iter().cloned().fold(0.0f64, |a, b| a.max(b.abs()));
    assert!(max > r, "max |x| = {max} never entered the tail");
}

#[test]
fn symmetric_within_sampling_error() {
    let xs = window(0x51de);
    let pos = xs.iter().filter(|x| **x > 0.0).count() as f64;
    let frac = pos / xs.len() as f64;
    assert!((frac - 0.5).abs() < 3e-3, "positive fraction {frac}");
}

#[test]
fn single_draws_match_fill() {
    let mut a = StdRng::seed_from_u64(0xf111);
    let mut b = StdRng::seed_from_u64(0xf111);
    let mut buf = [0.0; 1000];
    fill_standard_normal(&mut a, &mut buf);
    for &v in &buf {
        assert_eq!(v.to_bits(), standard_normal(&mut b).to_bits());
    }
}

#[test]
fn skip_leaves_the_generator_where_the_draws_leave_it() {
    // 200,000 draws pass through thousands of wedge draws and dozens of
    // tail draws.
    for seed in 0..20u64 {
        for n in [0usize, 1, 2, 255, 200_000] {
            let mut drawn = StdRng::seed_from_u64(0x5c1b_0000 + seed);
            let mut skipped = drawn.clone();
            for _ in 0..n {
                standard_normal(&mut drawn);
            }
            skip_standard_normals(&mut skipped, n);
            assert_eq!(drawn, skipped, "seed {seed}, {n} draws");
        }
    }
}
