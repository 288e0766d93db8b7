//! Property-based tests for the DPCopula core: the Kendall fast/naive
//! equivalence, the sensitivity bound of Lemma 4.1 verified empirically,
//! marginal-distribution invariants, and synthesizer output contracts.

use dpcopula::empirical::{pseudo_copula_column, MarginalDistribution, QuantileTable};
use dpcopula::kendall::{kendall_sensitivity, kendall_tau, kendall_tau_naive};
use dpcopula::sampler::CopulaSampler;
use dpcopula::synthesizer::DpCopulaConfig;
use dpcopula::SynthesisRequest;
use dpmech::Epsilon;
use mathkit::correlation::{
    clamp_to_correlation, correlation_from_upper_triangle, repair_positive_definite,
};
use rngkit::rngs::StdRng;
use rngkit::{RngCore, SeedableRng};
use testkit::prop::vec;
use testkit::{prop_assert, prop_assert_eq, property_tests};

property_tests! {
    fn kendall_fast_equals_naive(
        pairs in vec((0u32..20, 0u32..20), 2..120),
    ) {
        let x: Vec<u32> = pairs.iter().map(|&(a, _)| a).collect();
        let y: Vec<u32> = pairs.iter().map(|&(_, b)| b).collect();
        let fast = kendall_tau(&x, &y);
        let slow = kendall_tau_naive(&x, &y);
        prop_assert!((fast - slow).abs() < 1e-12, "fast {fast} slow {slow}");
    }

    fn kendall_is_within_unit_interval(
        pairs in vec((0u32..1000, 0u32..1000), 2..200),
    ) {
        let x: Vec<u32> = pairs.iter().map(|&(a, _)| a).collect();
        let y: Vec<u32> = pairs.iter().map(|&(_, b)| b).collect();
        let t = kendall_tau(&x, &y);
        prop_assert!((-1.0..=1.0).contains(&t));
    }

    /// Lemma 4.1: adding one record changes tau by at most 4/(n+1).
    /// (Empirical spot-check of the proof, on the *larger* dataset's n as
    /// the bound is stated for the neighbouring pair.)
    fn kendall_sensitivity_bound_holds(
        pairs in vec((0u32..15, 0u32..15), 3..60),
        extra in (0u32..15, 0u32..15),
    ) {
        let x: Vec<u32> = pairs.iter().map(|&(a, _)| a).collect();
        let y: Vec<u32> = pairs.iter().map(|&(_, b)| b).collect();
        let t_small = kendall_tau(&x, &y);
        let mut x2 = x.clone();
        let mut y2 = y.clone();
        x2.push(extra.0);
        y2.push(extra.1);
        let t_big = kendall_tau(&x2, &y2);
        let n = x.len();
        prop_assert!(
            (t_small - t_big).abs() <= kendall_sensitivity(n) + 1e-12,
            "delta {} exceeds bound {} at n={n}",
            (t_small - t_big).abs(),
            kendall_sensitivity(n)
        );
    }

    fn pseudo_copula_stays_in_open_unit_interval(
        values in vec(0u32..10_000, 1..200),
    ) {
        let u = pseudo_copula_column(&values);
        prop_assert!(u.iter().all(|&v| v > 0.0 && v < 1.0));
        // Rank order preserved.
        for i in 0..values.len() {
            for j in 0..values.len() {
                if values[i] < values[j] {
                    prop_assert!(u[i] < u[j]);
                }
            }
        }
    }

    fn marginal_distribution_invariants(
        counts in vec(-50.0f64..500.0, 1..100),
        p in 0.0f64..1.0,
    ) {
        let m = MarginalDistribution::from_noisy_histogram(&counts);
        // CDF is monotone and ends at 1.
        let mut prev = 0.0;
        for k in 0..m.domain() as u32 {
            let c = m.cdf(k);
            prop_assert!(c >= prev - 1e-12);
            prev = c;
        }
        prop_assert_eq!(m.cdf(m.domain() as u32 - 1), 1.0);
        // Galois connection of the quantile.
        let k = m.quantile(p);
        prop_assert!(m.cdf(k) >= p - 1e-12);
        prop_assert!((k as usize) < m.domain());
    }

    fn sampler_respects_domains_for_arbitrary_margins(
        hists in vec(vec(0.0f64..100.0, 1..30), 2..4),
        rho in -0.9f64..0.9,
        seed in 0u64..100,
    ) {
        let m = hists.len();
        let pairs: Vec<f64> = vec![rho; m * (m - 1) / 2];
        let mut p = correlation_from_upper_triangle(m, &pairs);
        clamp_to_correlation(&mut p);
        let p = repair_positive_definite(&p);
        let margins: Vec<MarginalDistribution> = hists
            .iter()
            .map(|h| MarginalDistribution::from_noisy_histogram(h))
            .collect();
        let domains: Vec<usize> = margins.iter().map(MarginalDistribution::domain).collect();
        let sampler = CopulaSampler::new(&p, margins).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let cols = sampler.sample_columns(50, &mut rng);
        for (col, &d) in cols.iter().zip(&domains) {
            prop_assert!(col.iter().all(|&v| (v as usize) < d));
        }
    }

    fn quantile_table_is_monotone_and_matches_exact_inversion(
        counts in vec(-50.0f64..500.0, 1..80),
        zs in vec(-9.0f64..9.0, 1..60),
    ) {
        let m = MarginalDistribution::from_noisy_histogram(&counts);
        let table = QuantileTable::new(&m);
        let mut sorted = zs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0u32;
        for (i, &z) in sorted.iter().enumerate() {
            let fast = table.quantile_z(z);
            // Monotone in z.
            if i > 0 {
                prop_assert!(fast >= prev, "z {z}: {fast} < {prev}");
            }
            prev = fast;
            // The guarded lookup is the exact inversion, bit for bit.
            let u = mathkit::special::norm_cdf(z);
            let exact = m.quantile(u);
            let guarded = table.quantile_z_exact(&m, z);
            prop_assert!(guarded == exact, "z {z}: guarded {guarded} vs exact {exact}");
            // The unguarded one is identical except where Phi(z) lands
            // within an ulp of a CDF step, where the two may disagree by
            // that single boundary category.
            if fast != exact {
                prop_assert!(fast.abs_diff(exact) == 1, "z {z}: {fast} vs {exact}");
                let boundary = m.cdf(fast.min(exact));
                prop_assert!(
                    (boundary - u).abs() < 1e-9,
                    "z {z}: non-boundary mismatch {fast} vs {exact}"
                );
            }
        }
    }

    fn synthesizer_output_contract(
        n in 20usize..200,
        domain in 12usize..64,
        eps in 0.1f64..10.0,
        seed in 0u64..50,
    ) {
        let cols: Vec<Vec<u32>> = vec![
            (0..n).map(|i| (i % domain) as u32).collect(),
            (0..n).map(|i| ((i * 7) % domain) as u32).collect(),
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let config = DpCopulaConfig::kendall(Epsilon::new(eps).unwrap());
        let out = SynthesisRequest::from_config(&cols, &[domain, domain], config)
.seed(rng.next_u64())
.run()
.unwrap()
.0;
        prop_assert_eq!(out.columns.len(), 2);
        prop_assert_eq!(out.columns[0].len(), n);
        prop_assert!(out.columns.iter().flatten().all(|&v| (v as usize) < domain));
        // Budget conservation (Theorem 4.2).
        prop_assert!((out.epsilon_margins + out.epsilon_correlations - eps).abs() < 1e-9);
        // Released correlation matrix is a valid correlation matrix.
        prop_assert!(mathkit::correlation::is_correlation_shaped(&out.correlation, 1e-9));
        prop_assert!(mathkit::cholesky::is_positive_definite(&out.correlation));
    }
}
