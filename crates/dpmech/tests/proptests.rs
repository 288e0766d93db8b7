//! Property-based tests for the DP mechanism layer: budget arithmetic
//! invariants, Laplace distribution identities, and mechanism scaling
//! laws that must hold for arbitrary parameters.
//!
//! Runs on `testkit::prop`: every failure prints the seed that
//! regenerates the counterexample (`TESTKIT_SEED=<seed> cargo test ...`).

use dpmech::{BudgetAccountant, Epsilon, Laplace, LaplaceMechanism};
use rngkit::rngs::StdRng;
use rngkit::SeedableRng;
use testkit::prop::vec;
use testkit::{prop_assert, prop_assert_eq, property_tests};

property_tests! {
    fn split_ratio_conserves_budget(total in 1e-6f64..100.0, k in 1e-3f64..1e3) {
        let eps = Epsilon::new(total).unwrap();
        let (e1, e2) = eps.split_ratio(k);
        prop_assert!((e1.value() + e2.value() - total).abs() < 1e-9 * total);
        prop_assert!((e1.value() / e2.value() - k).abs() / k < 1e-6);
        prop_assert!(e1.value() > 0.0 && e2.value() > 0.0);
    }

    fn divide_partitions_exactly(total in 1e-6f64..10.0, parts in 1usize..1000) {
        let eps = Epsilon::new(total).unwrap();
        let each = eps.divide(parts);
        prop_assert!((each.value() * parts as f64 - total).abs() < 1e-9 * total);
    }

    fn accountant_never_overspends(
        total in 0.1f64..10.0,
        spends in vec(0.001f64..1.0, 1..50),
    ) {
        let mut acc = BudgetAccountant::new(Epsilon::new(total).unwrap());
        for &s in &spends {
            let before = acc.spent();
            match acc.spend(Epsilon::new(s).unwrap()) {
                Ok(()) => prop_assert!(acc.spent() <= acc.total() * (1.0 + 1e-9) + 1e-12),
                Err(_) => prop_assert!(acc.spent() == before), // rejected spends change nothing
            }
        }
        prop_assert!(acc.remaining() >= 0.0);
        prop_assert!((acc.spent() + acc.remaining() - total).abs() < 1e-9);
    }

    fn laplace_quantile_inverts_cdf(mu in -100.0f64..100.0, b in 1e-3f64..100.0, p in 0.001f64..0.999) {
        let l = Laplace::new(mu, b).unwrap();
        prop_assert!((l.cdf(l.quantile(p)) - p).abs() < 1e-9);
    }

    fn laplace_pdf_is_symmetric_and_positive(mu in -10.0f64..10.0, b in 0.01f64..10.0, dx in 0.0f64..20.0) {
        let l = Laplace::new(mu, b).unwrap();
        prop_assert!(l.pdf(mu + dx) > 0.0);
        prop_assert!((l.pdf(mu + dx) - l.pdf(mu - dx)).abs() < 1e-12);
    }

    fn mechanism_scale_is_sensitivity_over_epsilon(eps in 1e-3f64..100.0, sens in 1e-3f64..100.0) {
        let m = LaplaceMechanism::new(Epsilon::new(eps).unwrap(), sens);
        prop_assert!((m.noise_scale() - sens / eps).abs() < 1e-12);
    }

    fn laplace_mechanism_release_vec_preserves_length(
        values in vec(-1e6f64..1e6, 0..64),
        seed in 0u64..50,
    ) {
        let m = LaplaceMechanism::new(Epsilon::new(1.0).unwrap(), 1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let out = m.release_vec(&values, &mut rng);
        prop_assert_eq!(out.len(), values.len());
        prop_assert!(out.iter().all(|v| v.is_finite()));
    }
}
