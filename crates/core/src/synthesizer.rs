//! What a DPCopula run is configured with and what it releases —
//! Algorithm 1 (MLE flavour) and Algorithm 4 (Kendall flavour) of the
//! paper, run by [`crate::SynthesisRequest`].
//!
//! Pipeline (Figure 4):
//!
//! 1. split the total budget `epsilon` into `epsilon_1` (margins) and
//!    `epsilon_2` (correlations) by the ratio `k = eps1/eps2`
//!    (Table 3 default: `k = 8`);
//! 2. publish a DP marginal histogram per attribute with `epsilon_1 / m`
//!    each (EFPA by default, as in the paper);
//! 3. estimate the DP correlation matrix with `epsilon_2` — noisy
//!    Kendall's tau or subsample-and-aggregate MLE;
//! 4. sample synthetic records from the resulting Gaussian copula
//!    (Algorithm 3).

use crate::kendall::SamplingStrategy;
use crate::mle::PartitionStrategy;
use dpmech::Epsilon;
use mathkit::Matrix;

/// Which algorithm estimates the DP correlation matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrelationMethod {
    /// DPCopula-Kendall (Algorithms 4–5).
    Kendall(SamplingStrategy),
    /// DPCopula-MLE (Algorithms 1–2).
    Mle(PartitionStrategy),
    /// Spearman-rho variant — the alternative §3.2 rejects; its larger
    /// sensitivity (`30/(n-1)` vs Kendall's `4/(n+1)`) makes it strictly
    /// noisier, which the `ablation_rank_correlation` experiment
    /// quantifies.
    Spearman,
}

/// Which 1-D DP histogram algorithm publishes the margins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MarginMethod {
    /// EFPA — the paper's choice ("superior to other methods").
    #[default]
    Efpa,
    /// EFPA over the DCT basis — better on skewed margins (extension;
    /// see `dphist::efpa_dct`).
    EfpaDct,
    /// Laplace-per-bin baseline.
    Identity,
    /// Privelet (Haar wavelet).
    Privelet,
    /// P-HP hierarchical partitioning.
    Php,
    /// Hay's hierarchical method with consistency (VLDB 2010).
    Hierarchical,
    /// NoiseFirst (ICDE 2012): Dwork release + DP-optimal merging.
    NoiseFirst,
    /// StructureFirst (ICDE 2012): private boundaries, then noisy counts.
    StructureFirst,
}

impl MarginMethod {
    /// The [`dphist::MarginRegistry`] name this variant resolves to. The
    /// enum is only a typed façade over the registry — publication
    /// behaviour lives with each method's [`dphist::Publish1d`] impl, and
    /// the constructor lives in [`dphist::MarginRegistry::builtin`].
    pub fn registry_name(self) -> &'static str {
        match self {
            MarginMethod::Efpa => "efpa",
            MarginMethod::EfpaDct => "efpa-dct",
            MarginMethod::Identity => "identity",
            MarginMethod::Privelet => "privelet",
            MarginMethod::Php => "php",
            MarginMethod::Hierarchical => "hierarchical",
            MarginMethod::NoiseFirst => "noisefirst",
            MarginMethod::StructureFirst => "structurefirst",
        }
    }
}

/// Configuration of one DPCopula run.
#[derive(Debug, Clone, Copy)]
pub struct DpCopulaConfig {
    /// Total privacy budget `epsilon`.
    pub epsilon: Epsilon,
    /// Budget ratio `k = eps1 / eps2` between margins and correlations
    /// (Table 3 default: 8; Fig 5 shows the method is insensitive for
    /// `k > 1`).
    pub k_ratio: f64,
    /// Correlation estimator.
    pub method: CorrelationMethod,
    /// Margin publication algorithm.
    pub margin: MarginMethod,
    /// Number of synthetic records to emit; `None` reproduces the input
    /// cardinality (what the paper does).
    pub output_records: Option<usize>,
    /// Which sampling hot path emits the records. `Reference` (the
    /// default) keeps the pinned byte-reproducibility contract; `Fast`
    /// trades it for throughput while sampling the same distribution.
    /// Part of the config (not [`crate::EngineOptions`]) because it
    /// changes the released bytes.
    pub sampling_profile: crate::sampler::SamplingProfile,
}

impl DpCopulaConfig {
    /// The paper's default configuration: DPCopula-Kendall with record
    /// sampling, EFPA margins, `k = 8`.
    pub fn kendall(epsilon: Epsilon) -> Self {
        Self {
            epsilon,
            k_ratio: 8.0,
            method: CorrelationMethod::Kendall(SamplingStrategy::Auto),
            margin: MarginMethod::Efpa,
            output_records: None,
            sampling_profile: crate::sampler::SamplingProfile::Reference,
        }
    }

    /// DPCopula-MLE with the paper's partition rule.
    pub fn mle(epsilon: Epsilon) -> Self {
        Self {
            method: CorrelationMethod::Mle(PartitionStrategy::Auto),
            ..Self::kendall(epsilon)
        }
    }

    /// Overrides the budget ratio `k`.
    pub fn with_k_ratio(mut self, k: f64) -> Self {
        assert!(k.is_finite() && k > 0.0, "k must be positive");
        self.k_ratio = k;
        self
    }

    /// Overrides the margin method.
    pub fn with_margin(mut self, margin: MarginMethod) -> Self {
        self.margin = margin;
        self
    }

    /// Overrides the output cardinality.
    pub fn with_output_records(mut self, n: usize) -> Self {
        self.output_records = Some(n);
        self
    }

    /// Overrides the sampling profile.
    pub fn with_profile(mut self, profile: crate::sampler::SamplingProfile) -> Self {
        self.sampling_profile = profile;
        self
    }
}

/// Everything a DPCopula run releases. All fields are differentially
/// private and safe to publish together (their budgets, with a family
/// vote's when the fit selects one, compose to the configured `epsilon`).
#[derive(Debug, Clone)]
pub struct Synthesis {
    /// Synthetic records, column-major.
    pub columns: Vec<Vec<u32>>,
    /// The DP correlation matrix estimator `P~`.
    pub correlation: Matrix,
    /// The DP marginal histograms (noisy counts, pre-normalisation).
    pub noisy_margins: Vec<Vec<f64>>,
    /// Budget actually spent on margins (`epsilon_1`).
    pub epsilon_margins: f64,
    /// Budget actually spent on correlations (`epsilon_2`).
    pub epsilon_correlations: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DpCopulaError;
    use crate::kendall::kendall_tau;
    use crate::SynthesisRequest;
    use mathkit::correlation::equicorrelation;
    use mathkit::dist::MultivariateNormal;
    use rngkit::rngs::StdRng;
    use rngkit::{RngCore, SeedableRng};

    /// One release through the front door, seeded by one draw from `rng`.
    fn synthesize(
        config: DpCopulaConfig,
        columns: &[Vec<u32>],
        domains: &[usize],
        rng: &mut StdRng,
    ) -> Result<Synthesis, DpCopulaError> {
        let request = SynthesisRequest::from_config(columns, domains, config);
        Ok(request.seed(rng.next_u64()).run()?.0)
    }

    /// Gaussian-dependence data with uniform-ish margins on `0..domain`.
    fn test_data(rho: f64, m: usize, n: usize, domain: usize, seed: u64) -> Vec<Vec<u32>> {
        let mvn = MultivariateNormal::new(&equicorrelation(m, rho)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        mvn.sample_columns(&mut rng, n)
            .into_iter()
            .map(|col| {
                col.into_iter()
                    .map(|z| {
                        let u = mathkit::special::norm_cdf(z);
                        ((u * domain as f64) as u32).min(domain as u32 - 1)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn kendall_end_to_end_preserves_shape() {
        let domain = 200;
        let cols = test_data(0.7, 2, 8_000, domain, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let config = DpCopulaConfig::kendall(Epsilon::new(2.0).unwrap());
        let out = synthesize(config, &cols, &[domain, domain], &mut rng).unwrap();

        assert_eq!(out.columns.len(), 2);
        assert_eq!(out.columns[0].len(), 8_000);
        assert!(out.columns.iter().flatten().all(|&v| (v as usize) < domain));

        // Dependence carried over: original tau ~ 2/pi asin(0.7) ~ 0.494.
        let tau_orig = kendall_tau(&cols[0], &cols[1]);
        let tau_synth = kendall_tau(&out.columns[0], &out.columns[1]);
        assert!(
            (tau_orig - tau_synth).abs() < 0.1,
            "orig {tau_orig} synth {tau_synth}"
        );

        // Budget accounting adds up.
        assert!((out.epsilon_margins + out.epsilon_correlations - 2.0).abs() < 1e-9);
        assert!((out.epsilon_margins / out.epsilon_correlations - 8.0).abs() < 1e-6);
    }

    #[test]
    fn mle_end_to_end_runs_with_fixed_partitions() {
        let domain = 100;
        let cols = test_data(0.5, 2, 12_000, domain, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut config = DpCopulaConfig::mle(Epsilon::new(2.0).unwrap());
        config.method = CorrelationMethod::Mle(PartitionStrategy::Fixed(200));
        let out = synthesize(config, &cols, &[domain, domain], &mut rng).unwrap();
        assert!(
            out.correlation[(0, 1)] > 0.2,
            "corr {}",
            out.correlation[(0, 1)]
        );
    }

    #[test]
    fn output_records_override() {
        let cols = test_data(0.3, 2, 1_000, 50, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()).with_output_records(123);
        let out = synthesize(config, &cols, &[50, 50], &mut rng).unwrap();
        assert_eq!(out.columns[0].len(), 123);
    }

    #[test]
    fn single_attribute_works() {
        let cols = vec![(0..500u32).map(|i| i % 40).collect::<Vec<_>>()];
        let mut rng = StdRng::seed_from_u64(7);
        let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
        let out = synthesize(config, &cols, &[40], &mut rng).unwrap();
        assert_eq!(out.correlation, Matrix::identity(1));
        assert_eq!(out.epsilon_correlations, 0.0);
        assert!(out.columns[0].iter().all(|&v| v < 40));
    }

    #[test]
    fn invalid_input_is_rejected() {
        let mut rng = StdRng::seed_from_u64(8);
        let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
        let err = synthesize(config, &[], &[], &mut rng).unwrap_err();
        assert_eq!(err, DpCopulaError::EmptyInput);
    }

    #[test]
    fn margin_method_variants_all_run() {
        let cols = test_data(0.4, 2, 2_000, 64, 9);
        for margin in [
            MarginMethod::Efpa,
            MarginMethod::EfpaDct,
            MarginMethod::Identity,
            MarginMethod::Privelet,
            MarginMethod::Php,
            MarginMethod::Hierarchical,
            MarginMethod::NoiseFirst,
            MarginMethod::StructureFirst,
        ] {
            let mut rng = StdRng::seed_from_u64(10);
            let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap()).with_margin(margin);
            let out = synthesize(config, &cols, &[64, 64], &mut rng).unwrap();
            assert_eq!(out.columns[0].len(), 2_000, "margin {margin:?}");
        }
    }

    #[test]
    fn tighter_budget_degrades_margins() {
        // Compare the noisy margin against the exact histogram: eps=0.01
        // must be farther from truth than eps=10 (on average).
        let cols = test_data(0.0, 2, 5_000, 64, 11);
        let exact: Vec<f64> = {
            let h = dphist::histogram::Histogram1D::from_values(&cols[0], 64);
            h.counts().to_vec()
        };
        let l1 = |eps: f64, seed: u64| -> f64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = DpCopulaConfig::kendall(Epsilon::new(eps).unwrap());
            let out = synthesize(config, &cols, &[64, 64], &mut rng).unwrap();
            out.noisy_margins[0]
                .iter()
                .zip(&exact)
                .map(|(a, b)| (a - b).abs())
                .sum()
        };
        let loose: f64 = (0..5).map(|s| l1(10.0, 100 + s)).sum();
        let tight: f64 = (0..5).map(|s| l1(0.01, 200 + s)).sum();
        assert!(tight > loose, "tight {tight} loose {loose}");
    }
}
