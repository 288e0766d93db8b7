//! Streaming release: synthesize arriving data epoch by epoch (the
//! paper's future-work item on "dynamically evolving datasets"). Each
//! epoch is a disjoint batch, so by parallel composition (Theorem 3.2)
//! the whole stream costs one per-epoch epsilon with respect to any
//! single record; the correlation estimate is smoothed across epochs
//! for free (post-processing).
//!
//! The stream and the evolving synthesizer live here, the one program
//! that runs them: `DriftingStream` yields one batch per epoch whose
//! dependence drifts on a schedule, and `EvolvingSynthesizer` runs one
//! `SynthesisRequest` per epoch and folds each released matrix into an
//! exponential moving average.
//!
//! ```sh
//! cargo run -p dpcopula-examples --release --bin streaming_release
//! ```

use datagen::synthetic::{MarginKind, SyntheticSpec};
use datagen::Dataset;
use dpcopula::empirical::MarginalDistribution;
use dpcopula::kendall::kendall_tau;
use dpcopula::sampler::CopulaSampler;
use dpcopula::{DpCopulaConfig, DpCopulaError, Synthesis, SynthesisRequest};
use dpcopula_examples::heading;
use dpmech::Epsilon;
use mathkit::correlation::repair_positive_definite;
use mathkit::Matrix;
use rngkit::rngs::StdRng;
use rngkit::{RngCore, SeedableRng};

/// Linear drift of the dependence parameter `rho` from `from` to `to`
/// across `epochs` steps, then held.
struct RhoSchedule {
    from: f64,
    to: f64,
    epochs: usize,
}

impl RhoSchedule {
    /// The `rho` for epoch `e`.
    fn rho_at(&self, e: usize) -> f64 {
        if self.epochs <= 1 {
            self.to
        } else {
            let t = (e.min(self.epochs - 1)) as f64 / (self.epochs - 1) as f64;
            self.from + (self.to - self.from) * t
        }
    }
}

/// A deterministic generator of per-epoch batches, all sharing the
/// margins of `base` while the AR(1) dependence follows `schedule`.
struct DriftingStream {
    base: SyntheticSpec,
    schedule: RhoSchedule,
    next_epoch: usize,
}

impl DriftingStream {
    /// `base.records` is the per-epoch batch size; `base.rho` and
    /// `base.seed` are overridden per epoch.
    fn new(base: SyntheticSpec, schedule: RhoSchedule) -> Self {
        Self {
            base,
            schedule,
            next_epoch: 0,
        }
    }

    /// The batch of epoch `e` (idempotent).
    fn batch_at(&self, e: usize) -> Dataset {
        let mut spec = self.base.clone();
        spec.rho = self.schedule.rho_at(e).clamp(-0.999, 0.999);
        spec.seed = self
            .base
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(e as u64 + 1));
        spec.generate()
    }
}

impl Iterator for DriftingStream {
    type Item = Dataset;

    fn next(&mut self) -> Option<Dataset> {
        let d = self.batch_at(self.next_epoch);
        self.next_epoch += 1;
        Some(d)
    }
}

/// Per-epoch DPCopula with cross-epoch correlation smoothing.
struct EvolvingSynthesizer {
    config: DpCopulaConfig,
    /// EMA factor in `(0, 1]`: weight of the *new* epoch's matrix.
    /// 1.0 disables smoothing.
    alpha: f64,
    smoothed: Option<Matrix>,
    epochs: usize,
}

impl EvolvingSynthesizer {
    /// # Panics
    /// Panics unless `alpha` is in `(0, 1]`.
    fn new(config: DpCopulaConfig, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self {
            config,
            alpha,
            smoothed: None,
            epochs: 0,
        }
    }

    /// Processes one epoch: runs DPCopula on the epoch's (disjoint)
    /// records with the full per-epoch budget, seeded by one draw from
    /// `rng`, folds the released correlation matrix into the EMA, and
    /// re-samples the epoch's synthetic records from the smoothed matrix.
    ///
    /// Privacy: each record appears in exactly one epoch, and the EMA is
    /// post-processing on released matrices, so the whole stream satisfies
    /// `epsilon`-DP with the per-epoch `epsilon` (Theorem 3.2).
    fn process_epoch(
        &mut self,
        columns: &[Vec<u32>],
        domains: &[usize],
        rng: &mut StdRng,
    ) -> Result<Synthesis, DpCopulaError> {
        let request = SynthesisRequest::from_config(columns, domains, self.config);
        let (mut release, _) = request.seed(rng.next_u64()).run()?;

        // Fold the epoch's matrix into the moving average.
        let updated = match self.smoothed.take() {
            None => release.correlation.clone(),
            Some(prev) => {
                let m = prev.rows();
                let mut blended = Matrix::zeros(m, m);
                for i in 0..m {
                    for j in 0..m {
                        blended[(i, j)] = self.alpha * release.correlation[(i, j)]
                            + (1.0 - self.alpha) * prev[(i, j)];
                    }
                }
                // Convex combinations of PD correlation matrices are PD,
                // but repair defensively against rounding.
                repair_positive_definite(&blended)
            }
        };
        self.smoothed = Some(updated.clone());
        self.epochs += 1;

        // Resample this epoch's synthetic rows from the smoothed matrix
        // (post-processing: margins stay the epoch's own DP margins).
        let margins = release
            .noisy_margins
            .iter()
            .map(|m| MarginalDistribution::from_noisy_histogram(m))
            .collect();
        let sampler =
            CopulaSampler::new(&updated, margins).expect("repaired matrix is positive definite");
        let n_out = release.columns[0].len();
        release.columns = sampler.sample_columns(n_out, rng);
        release.correlation = updated;
        Ok(release)
    }
}

fn main() {
    let epochs = 6;
    heading("stream with drifting dependence (rho: 0.2 -> 0.8 over 6 epochs)");
    let stream = DriftingStream::new(
        SyntheticSpec {
            records: 4_000,
            dims: 2,
            domain: 256,
            margin: MarginKind::Gaussian,
            rho: 0.2,
            seed: 23,
        },
        RhoSchedule {
            from: 0.2,
            to: 0.8,
            epochs,
        },
    );
    let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
    let mut synthesizer = EvolvingSynthesizer::new(config, 0.4);
    let mut rng = StdRng::seed_from_u64(23);

    println!(
        "{:>5} {:>10} {:>12} {:>14} {:>14}",
        "epoch", "true rho", "epoch tau", "released P01", "synthetic tau"
    );
    for (e, batch) in stream.take(epochs).enumerate() {
        let cols = batch.columns();
        let tau_in = kendall_tau(&cols[0], &cols[1]);
        let out = synthesizer
            .process_epoch(cols, &batch.domains(), &mut rng)
            .expect("epoch synthesis failed");
        let tau_out = kendall_tau(&out.columns[0], &out.columns[1]);
        println!(
            "{:>5} {:>10.2} {:>12.3} {:>14.3} {:>14.3}",
            e,
            0.2 + 0.6 * e as f64 / (epochs - 1) as f64,
            tau_in,
            out.correlation[(0, 1)],
            tau_out
        );
    }
    println!(
        "\nprocessed {} epochs; each record was touched by exactly one DP run,",
        synthesizer.epochs
    );
    println!("so the whole stream satisfies the per-epoch epsilon (parallel composition).");
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathkit::correlation::equicorrelation;
    use mathkit::dist::MultivariateNormal;
    use mathkit::special::norm_cdf;
    use mathkit::stats::pearson;

    fn epoch(rho: f64, n: usize, seed: u64) -> Vec<Vec<u32>> {
        let mvn = MultivariateNormal::new(&equicorrelation(2, rho)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        mvn.sample_columns(&mut rng, n)
            .into_iter()
            .map(|col| {
                col.into_iter()
                    .map(|z| ((norm_cdf(z) * 100.0) as u32).min(99))
                    .collect()
            })
            .collect()
    }

    fn base() -> SyntheticSpec {
        SyntheticSpec {
            records: 4_000,
            dims: 2,
            domain: 200,
            margin: MarginKind::Gaussian,
            rho: 0.0,
            seed: 42,
        }
    }

    /// A stationary stream's schedule.
    fn constant(rho: f64) -> RhoSchedule {
        RhoSchedule {
            from: rho,
            to: rho,
            epochs: 1,
        }
    }

    fn corr(d: &Dataset) -> f64 {
        let a: Vec<f64> = d.columns()[0].iter().map(|&v| f64::from(v)).collect();
        let b: Vec<f64> = d.columns()[1].iter().map(|&v| f64::from(v)).collect();
        pearson(&a, &b)
    }

    fn uniform_margin(domain: usize) -> MarginalDistribution {
        MarginalDistribution::from_noisy_histogram(&vec![1.0; domain])
    }

    #[test]
    fn processes_a_stream_of_epochs() {
        let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
        let mut ev = EvolvingSynthesizer::new(config, 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        for s in 0..4 {
            let cols = epoch(0.6, 2_000, s);
            let out = ev.process_epoch(&cols, &[100, 100], &mut rng).unwrap();
            assert_eq!(out.columns[0].len(), 2_000);
        }
        assert_eq!(ev.epochs, 4);
        let p = ev.smoothed.as_ref().unwrap();
        assert!(p[(0, 1)] > 0.3, "smoothed correlation {}", p[(0, 1)]);
    }

    #[test]
    fn smoothing_reduces_correlation_variance() {
        // With a stationary stream, the smoothed estimate across epochs
        // should wander less than the raw per-epoch estimates.
        let config = DpCopulaConfig::kendall(Epsilon::new(0.4).unwrap());
        let truth = 0.5_f64;
        let mut raw_devs = Vec::new();
        let mut smooth_devs = Vec::new();
        let mut ev = EvolvingSynthesizer::new(config, 0.3);
        let mut rng = StdRng::seed_from_u64(3);
        for s in 0..8 {
            let cols = epoch(truth, 1_500, 100 + s);
            // Raw per-epoch estimate.
            let request = SynthesisRequest::from_config(&cols, &[100, 100], config);
            let (raw, _) = request.seed(rng.next_u64()).run().unwrap();
            raw_devs.push((raw.correlation[(0, 1)] - truth).abs());
            // Smoothed stream.
            let out = ev.process_epoch(&cols, &[100, 100], &mut rng).unwrap();
            smooth_devs.push((out.correlation[(0, 1)] - truth).abs());
        }
        // Skip the burn-in epoch and compare mean deviations.
        let raw_mean: f64 = raw_devs[2..].iter().sum::<f64>() / (raw_devs.len() - 2) as f64;
        let smooth_mean: f64 =
            smooth_devs[2..].iter().sum::<f64>() / (smooth_devs.len() - 2) as f64;
        assert!(
            smooth_mean <= raw_mean * 1.1,
            "smoothed {smooth_mean} should not exceed raw {raw_mean}"
        );
    }

    #[test]
    fn tracks_drifting_dependence() {
        // Dependence drifts from 0.2 to 0.8; the EMA should follow.
        let config = DpCopulaConfig::kendall(Epsilon::new(2.0).unwrap());
        let mut ev = EvolvingSynthesizer::new(config, 0.5);
        let mut rng = StdRng::seed_from_u64(3);
        let mut last = 0.0;
        for (s, rho) in [0.2, 0.4, 0.6, 0.8].iter().enumerate() {
            let cols = epoch(*rho, 3_000, 200 + s as u64);
            let out = ev.process_epoch(&cols, &[100, 100], &mut rng).unwrap();
            last = out.correlation[(0, 1)];
        }
        assert!(last > 0.55, "final smoothed correlation {last}");
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_bad_alpha() {
        let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
        let _ = EvolvingSynthesizer::new(config, 0.0);
    }

    #[test]
    fn evolving_stream_is_structurally_valid_per_epoch() {
        let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
        let mut ev = EvolvingSynthesizer::new(config, 0.5);
        let mut rng = StdRng::seed_from_u64(3);
        let p = equicorrelation(3, 0.4);
        let gen = CopulaSampler::new(
            &p,
            vec![uniform_margin(50), uniform_margin(50), uniform_margin(50)],
        )
        .unwrap();
        for _ in 0..3 {
            let cols = gen.sample_columns(1_500, &mut rng);
            let out = ev.process_epoch(&cols, &[50, 50, 50], &mut rng).unwrap();
            assert_eq!(out.columns.len(), 3);
            assert_eq!(out.columns[0].len(), 1_500);
            assert!(out.columns.iter().flatten().all(|&v| v < 50));
            assert!(mathkit::cholesky::is_positive_definite(&out.correlation));
        }
        assert_eq!(ev.epochs, 3);
    }

    #[test]
    fn schedule_endpoints() {
        let s = RhoSchedule {
            from: 0.1,
            to: 0.9,
            epochs: 5,
        };
        assert!((s.rho_at(0) - 0.1).abs() < 1e-12);
        assert!((s.rho_at(4) - 0.9).abs() < 1e-12);
        assert!((s.rho_at(2) - 0.5).abs() < 1e-12);
        // Held after the last scheduled epoch.
        assert!((s.rho_at(99) - 0.9).abs() < 1e-12);
        assert_eq!(constant(0.3).rho_at(7), 0.3);
    }

    #[test]
    fn stream_is_deterministic_and_advances() {
        let mut s1 = DriftingStream::new(base(), constant(0.5));
        let mut s2 = DriftingStream::new(base(), constant(0.5));
        assert_eq!(s1.next().unwrap(), s2.next().unwrap());
        assert_eq!(s1.next_epoch, 1);
        // Different epochs get different data.
        assert_ne!(s1.next().unwrap(), s2.batch_at(0));
    }

    #[test]
    fn drift_is_visible_in_the_data() {
        let s = DriftingStream::new(
            base(),
            RhoSchedule {
                from: 0.1,
                to: 0.85,
                epochs: 4,
            },
        );
        let first = corr(&s.batch_at(0));
        let last = corr(&s.batch_at(3));
        assert!(first < 0.3, "first-epoch correlation {first}");
        assert!(last > 0.6, "last-epoch correlation {last}");
    }

    #[test]
    fn batches_share_shape() {
        let mut s = DriftingStream::new(base(), constant(0.2));
        let d = s.next().unwrap();
        assert_eq!(d.len(), 4_000);
        assert_eq!(d.dims(), 2);
        assert!(d.columns().iter().flatten().all(|&v| v < 200));
    }
}
