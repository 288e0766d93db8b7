//! Integration tests for privacy-budget conservation across the composed
//! pipeline (Theorems 3.1, 3.2, 4.1, 4.2 of the paper).

use dpcopula::synthesizer::{DpCopula, DpCopulaConfig};
use dpmech::{BudgetAccountant, BudgetError, Epsilon};
use rngkit::rngs::StdRng;
use rngkit::SeedableRng;

#[test]
fn synthesizer_budget_sums_to_total_for_any_split() {
    let cols = vec![
        (0..500u32).map(|i| i % 50).collect::<Vec<_>>(),
        (0..500u32).map(|i| (i * 3) % 50).collect::<Vec<_>>(),
        (0..500u32).map(|i| (i * 11) % 50).collect::<Vec<_>>(),
    ];
    for eps in [0.1, 1.0, 3.0] {
        for k in [0.5, 1.0, 8.0, 20.0] {
            let mut rng = StdRng::seed_from_u64(1);
            let config = DpCopulaConfig::kendall(Epsilon::new(eps).unwrap()).with_k_ratio(k);
            let out = DpCopula::new(config)
                .synthesize(&cols, &[50, 50, 50], &mut rng)
                .unwrap();
            assert!(
                (out.epsilon_margins + out.epsilon_correlations - eps).abs() < 1e-9,
                "eps={eps} k={k}: {} + {}",
                out.epsilon_margins,
                out.epsilon_correlations
            );
            assert!(
                (out.epsilon_margins / out.epsilon_correlations - k).abs() < 1e-6,
                "ratio mismatch at k={k}"
            );
        }
    }
}

#[test]
fn accountant_simulates_theorem_4_2() {
    // m margins at eps1/m plus C(m,2) coefficients at eps2/C(m,2) must
    // exactly exhaust eps1 + eps2 = eps.
    for m in [2usize, 4, 8, 16] {
        let total = Epsilon::new(1.0).unwrap();
        let (e1, e2) = total.split_ratio(8.0);
        let mut acc = BudgetAccountant::new(total);
        for _ in 0..m {
            acc.spend(e1.divide(m)).unwrap();
        }
        let pairs = m * (m - 1) / 2;
        for _ in 0..pairs {
            acc.spend(e2.divide(pairs)).unwrap();
        }
        assert!(acc.remaining() < 1e-9, "m={m} left {}", acc.remaining());
        // One more microspend must fail.
        assert!(matches!(
            acc.spend(Epsilon::new(1e-3).unwrap()),
            Err(BudgetError::Exhausted { .. })
        ));
    }
}

#[test]
fn hybrid_parallel_composition_costs_once() {
    // Algorithm 6: the per-partition DPCopula runs are on disjoint data.
    // Simulate the accounting: count noise (eps1) + one full per-partition
    // budget (eps - eps1), each spent once whatever the partition count.
    let total = Epsilon::new(1.0).unwrap();
    let eps_counts = total.fraction(0.1);
    let eps_copula = Epsilon::new(total.value() - eps_counts.value()).unwrap();
    let mut acc = BudgetAccountant::new(total);
    acc.spend(eps_counts).unwrap();
    acc.spend(eps_copula).unwrap();
    assert!(acc.remaining() < 1e-12);
}

#[test]
fn noise_scales_inversely_with_budget_end_to_end() {
    // The released correlation coefficient's deviation from truth must
    // shrink as epsilon grows (on average).
    let n = 4_000;
    let x: Vec<u32> = (0..n).collect();
    let y = x.clone();
    let cols = vec![x, y];
    let spread = |eps: f64| -> f64 {
        let mut dev = 0.0;
        for s in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(s);
            let config = DpCopulaConfig::kendall(Epsilon::new(eps).unwrap());
            let out = DpCopula::new(config)
                .synthesize(&cols, &[n as usize, n as usize], &mut rng)
                .unwrap();
            dev += (out.correlation[(0, 1)] - 1.0).abs();
        }
        dev / 10.0
    };
    let tight = spread(0.01);
    let loose = spread(10.0);
    assert!(
        tight > loose,
        "correlation deviation should shrink with budget: {tight} vs {loose}"
    );
}
