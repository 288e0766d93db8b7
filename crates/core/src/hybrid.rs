//! DPCopula-Hybrid (Algorithm 6): handling small-domain attributes.
//!
//! Kendall's tau (and the copula's continuity assumption) degrade on
//! attributes with fewer than ~10 values (§4.4 of the paper): a binary
//! attribute has almost nothing but ties. The hybrid therefore:
//!
//! 1. partitions the dataset on the small-domain attributes (the cross
//!    product of their values);
//! 2. releases each partition's cardinality with Laplace noise
//!    (`epsilon_1`; partitions are disjoint, so parallel composition
//!    applies);
//! 3. runs plain DPCopula with the remaining `epsilon - epsilon_1` on the
//!    large-domain attributes *within* each partition (again parallel
//!    composition across partitions);
//! 4. concatenates the partitions' synthetic data, re-attaching the
//!    small-domain values.

use crate::error::{validate_budget, validate_columns, DpCopulaError, MIN_MECHANISM_EPSILON};
use crate::synthesizer::DpCopulaConfig;
use crate::SynthesisRequest;
use dpmech::{laplace_noise, Epsilon};
use rngkit::Rng;
use std::collections::HashMap;

/// Domain-size threshold below which an attribute is "small" (the paper
/// uses 10).
pub const SMALL_DOMAIN_THRESHOLD: usize = 10;

/// Configuration of the hybrid synthesizer.
#[derive(Debug, Clone, Copy)]
pub struct HybridConfig {
    /// Configuration of the per-partition DPCopula runs. Its `epsilon` is
    /// the *total* budget; the hybrid carves `count_fraction` out of it
    /// for the partition counts.
    pub base: DpCopulaConfig,
    /// Fraction of the budget spent on noisy partition counts
    /// (`epsilon_1` of Algorithm 6).
    pub count_fraction: f64,
}

impl HybridConfig {
    /// Defaults: 10% of the budget on counts.
    pub fn new(base: DpCopulaConfig) -> Self {
        Self {
            base,
            count_fraction: 0.1,
        }
    }
}

/// Result of a hybrid synthesis.
#[derive(Debug, Clone)]
pub struct HybridSynthesis {
    /// Synthetic records, column-major, in the *original* attribute order
    /// (small-domain attributes included).
    pub columns: Vec<Vec<u32>>,
    /// Number of partitions induced by the small-domain attributes.
    pub partitions: usize,
    /// Indices of the attributes that were treated as small-domain.
    pub small_attributes: Vec<usize>,
}

/// The hybrid synthesizer of Algorithm 6.
#[derive(Debug, Clone, Copy)]
pub struct HybridSynthesizer {
    config: HybridConfig,
}

impl HybridSynthesizer {
    /// Creates the synthesizer.
    pub fn new(config: HybridConfig) -> Self {
        assert!(
            config.count_fraction > 0.0 && config.count_fraction < 1.0,
            "count fraction must be in (0,1)"
        );
        Self { config }
    }

    /// Runs Algorithm 6.
    ///
    /// Each DPCopula run is a [`SynthesisRequest`] seeded by one draw from
    /// `rng`. If no attribute is small-domain this degrades to one plain
    /// run with the full budget (no count noise is spent). Before any draw,
    /// a count budget below [`MIN_MECHANISM_EPSILON`], or a per-partition
    /// plan [`validate_budget`] refuses, is
    /// [`DpCopulaError::BudgetBelowFloor`].
    pub fn synthesize<R: Rng + ?Sized>(
        &self,
        columns: &[Vec<u32>],
        domains: &[usize],
        rng: &mut R,
    ) -> Result<HybridSynthesis, DpCopulaError> {
        validate_columns(columns, domains)?;
        let cfg = &self.config;
        let m = columns.len();

        let (small, large): (Vec<usize>, Vec<usize>) =
            (0..m).partition(|&j| domains[j] < SMALL_DOMAIN_THRESHOLD);

        if small.is_empty() {
            let request = SynthesisRequest::from_config(columns, domains, cfg.base);
            let (out, _) = request.seed(rng.next_u64()).run()?;
            return Ok(HybridSynthesis {
                columns: out.columns,
                partitions: 1,
                small_attributes: Vec::new(),
            });
        }

        let eps_total = cfg.base.epsilon;
        let eps_counts = eps_total.fraction(cfg.count_fraction);
        let eps_copula =
            Epsilon::new(eps_total.value() - eps_counts.value()).map_err(DpCopulaError::from)?;
        // Below the floor a count's Laplace scale is so wide that its
        // release saturates `usize`, and the rows cannot be allocated.
        if eps_counts.value() < MIN_MECHANISM_EPSILON {
            return Err(DpCopulaError::BudgetBelowFloor {
                smallest: eps_counts.value(),
            });
        }
        if !large.is_empty() {
            validate_budget(eps_copula, cfg.base.k_ratio, large.len())?;
        }

        // Group row indices by their small-attribute combination.
        let n = columns[0].len();
        let mut groups: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
        #[allow(clippy::needless_range_loop)] // row indexes several columns
        for row in 0..n {
            let key: Vec<u32> = small.iter().map(|&j| columns[j][row]).collect();
            groups.entry(key).or_default().push(row);
        }
        // Also include empty combinations so their (pure-noise) counts are
        // released, as Algorithm 6 prescribes for all prod|A_i| partitions.
        let mut all_keys: Vec<Vec<u32>> = Vec::new();
        build_keys(&small, domains, &mut Vec::new(), &mut all_keys);

        let mut out_columns: Vec<Vec<u32>> = vec![Vec::new(); m];
        let mut partitions = 0usize;
        for key in all_keys {
            partitions += 1;
            let rows = groups.get(&key).map(Vec::as_slice).unwrap_or(&[]);
            // Step 2: noisy cardinality (sensitivity 1; disjoint partitions
            // => parallel composition, each uses the full eps_counts).
            let noisy = rows.len() as f64 + laplace_noise(rng, 1.0 / eps_counts.value());
            let n_out = noisy.round().max(0.0) as usize;
            if n_out == 0 {
                continue;
            }

            let synth_large: Vec<Vec<u32>> = if large.is_empty() {
                Vec::new()
            } else if rows.len() < 2 {
                // Too few records to fit a copula: emit uniform draws over
                // the large domains (least-informative fallback; the count
                // is still correct).
                large
                    .iter()
                    .map(|&j| {
                        (0..n_out)
                            .map(|_| rng.gen_range(0..domains[j] as u32))
                            .collect()
                    })
                    .collect()
            } else {
                // Step 3: per-partition DPCopula on the large attributes
                // with the remaining budget.
                let part_cols: Vec<Vec<u32>> = large
                    .iter()
                    .map(|&j| rows.iter().map(|&r| columns[j][r]).collect())
                    .collect();
                let part_domains: Vec<usize> = large.iter().map(|&j| domains[j]).collect();
                let mut base = cfg.base;
                base.epsilon = eps_copula;
                base.output_records = Some(n_out);
                let request = SynthesisRequest::from_config(&part_cols, &part_domains, base);
                let (out, _) = request.seed(rng.next_u64()).run()?;
                out.columns
            };

            // Reassemble rows in original attribute order.
            for (slot, &j) in small.iter().enumerate() {
                out_columns[j].extend(std::iter::repeat_n(key[slot], n_out));
            }
            for (slot, &j) in large.iter().enumerate() {
                out_columns[j].extend_from_slice(&synth_large[slot]);
            }
        }

        Ok(HybridSynthesis {
            columns: out_columns,
            partitions,
            small_attributes: small,
        })
    }
}

/// Enumerates the cross product of the small attributes' domains.
fn build_keys(small: &[usize], domains: &[usize], prefix: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
    if prefix.len() == small.len() {
        out.push(prefix.clone());
        return;
    }
    let j = small[prefix.len()];
    for v in 0..domains[j] as u32 {
        prefix.push(v);
        build_keys(small, domains, prefix, out);
        prefix.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpmech::Epsilon;
    use rngkit::rngs::StdRng;
    use rngkit::{RngCore, SeedableRng};

    /// Data with one binary attribute and two large attributes whose
    /// distribution depends on the binary one.
    fn mixed_data(n: usize, seed: u64) -> (Vec<Vec<u32>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gender: Vec<u32> = (0..n).map(|_| u32::from(rng.gen_bool(0.4))).collect();
        let age: Vec<u32> = gender
            .iter()
            .map(|&g| {
                if g == 0 {
                    rng.gen_range(0..50u32)
                } else {
                    rng.gen_range(40..96u32)
                }
            })
            .collect();
        let income: Vec<u32> = age.iter().map(|&a| (a * 10).min(999)).collect();
        (vec![gender, age, income], vec![2, 96, 1000])
    }

    fn base_config(eps: f64) -> DpCopulaConfig {
        DpCopulaConfig::kendall(Epsilon::new(eps).unwrap())
    }

    #[test]
    fn partitions_on_binary_attribute() {
        let (cols, domains) = mixed_data(4_000, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let h = HybridSynthesizer::new(HybridConfig::new(base_config(2.0)));
        let out = h.synthesize(&cols, &domains, &mut rng).unwrap();
        assert_eq!(out.partitions, 2);
        assert_eq!(out.small_attributes, vec![0]);
        assert_eq!(out.columns.len(), 3);
        // Cardinality near the original (noisy counts with eps 0.2).
        let n_out = out.columns[0].len();
        assert!((n_out as f64 - 4_000.0).abs() < 100.0, "n_out {n_out}");
        // Group sizes approximately preserved.
        let g1 = out.columns[0].iter().filter(|&&g| g == 1).count() as f64;
        assert!((g1 / n_out as f64 - 0.4).abs() < 0.05);
    }

    #[test]
    fn per_partition_structure_is_preserved() {
        let (cols, domains) = mixed_data(8_000, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let h = HybridSynthesizer::new(HybridConfig::new(base_config(4.0)));
        let out = h.synthesize(&cols, &domains, &mut rng).unwrap();
        // Within gender 1, ages concentrate in 40..96.
        let ages_g1: Vec<u32> = out.columns[1]
            .iter()
            .zip(&out.columns[0])
            .filter(|(_, &g)| g == 1)
            .map(|(&a, _)| a)
            .collect();
        let mean_g1 = ages_g1.iter().map(|&a| f64::from(a)).sum::<f64>() / ages_g1.len() as f64;
        let ages_g0: Vec<u32> = out.columns[1]
            .iter()
            .zip(&out.columns[0])
            .filter(|(_, &g)| g == 0)
            .map(|(&a, _)| a)
            .collect();
        let mean_g0 = ages_g0.iter().map(|&a| f64::from(a)).sum::<f64>() / ages_g0.len() as f64;
        assert!(
            mean_g1 > mean_g0 + 20.0,
            "group means g1={mean_g1} g0={mean_g0}"
        );
    }

    #[test]
    fn no_small_attributes_degrades_to_plain_dpcopula() {
        let cols = vec![
            (0..1000u32).map(|i| i % 50).collect::<Vec<_>>(),
            (0..1000u32).map(|i| (i * 3) % 50).collect::<Vec<_>>(),
        ];
        let mut rng = StdRng::seed_from_u64(5);
        let h = HybridSynthesizer::new(HybridConfig::new(base_config(1.0)));
        let out = h.synthesize(&cols, &[50, 50], &mut rng).unwrap();
        assert_eq!(out.partitions, 1);
        assert!(out.small_attributes.is_empty());
        assert_eq!(out.columns[0].len(), 1000);
        // It is one plain run, seeded by the generator's first draw.
        let seed = StdRng::seed_from_u64(5).next_u64();
        let request = SynthesisRequest::from_config(&cols, &[50, 50], base_config(1.0));
        assert_eq!(out.columns, request.seed(seed).run().unwrap().0.columns);
    }

    #[test]
    fn all_small_attributes_is_a_noisy_contingency_table() {
        let mut rng = StdRng::seed_from_u64(6);
        let a: Vec<u32> = (0..2000).map(|_| rng.gen_range(0..2)).collect();
        let b: Vec<u32> = (0..2000).map(|_| rng.gen_range(0..3)).collect();
        let cols = vec![a, b];
        let h = HybridSynthesizer::new(HybridConfig::new(base_config(2.0)));
        let out = h.synthesize(&cols, &[2, 3], &mut rng).unwrap();
        assert_eq!(out.partitions, 6);
        // Total cardinality close to 2000.
        let n_out = out.columns[0].len();
        assert!((n_out as f64 - 2000.0).abs() < 150.0, "n_out {n_out}");
    }

    /// The partition counts keep the total cardinality.
    #[test]
    fn geometric_counts_preserve_cardinality() {
        let (cols, domains) = mixed_data(3_000, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let out = HybridSynthesizer::new(HybridConfig::new(base_config(2.0)))
            .synthesize(&cols, &domains, &mut rng)
            .unwrap();
        let n_out = out.columns[0].len();
        assert!((n_out as f64 - 3_000.0).abs() < 100.0, "n_out {n_out}");
    }

    /// Over two binary attributes the counts keep the total and the
    /// first attribute's rate.
    #[test]
    fn barak_counts_are_consistent_and_accurate() {
        let mut rng = StdRng::seed_from_u64(13);
        // Two binary attributes + one large one.
        let n = 6_000;
        let a: Vec<u32> = (0..n).map(|_| u32::from(rng.gen_bool(0.3))).collect();
        let b: Vec<u32> = (0..n).map(|_| u32::from(rng.gen_bool(0.6))).collect();
        let big: Vec<u32> = (0..n as u32).map(|i| i % 200).collect();
        let cols = vec![a.clone(), b, big];
        let out = HybridSynthesizer::new(HybridConfig::new(base_config(2.0)))
            .synthesize(&cols, &[2, 2, 200], &mut rng)
            .unwrap();
        assert_eq!(out.partitions, 4);
        let n_out = out.columns[0].len();
        assert!((n_out as f64 - n as f64).abs() < 150.0, "n_out {n_out}");
        // The a=1 rate should track the data.
        let a1 = out.columns[0].iter().filter(|&&v| v == 1).count() as f64;
        let truth = a.iter().filter(|&&v| v == 1).count() as f64 / n as f64;
        assert!(
            (a1 / n_out as f64 - truth).abs() < 0.05,
            "a1 rate {} vs {truth}",
            a1 / n_out as f64
        );
    }

    /// A ternary small attribute gives three partitions.
    #[test]
    fn barak_falls_back_for_non_binary_small_attributes() {
        let mut rng = StdRng::seed_from_u64(14);
        // A ternary small attribute.
        let n = 2_000;
        let tri: Vec<u32> = (0..n as u32).map(|i| i % 3).collect();
        let big: Vec<u32> = (0..n as u32).map(|i| i % 100).collect();
        let out = HybridSynthesizer::new(HybridConfig::new(base_config(2.0)))
            .synthesize(&[tri, big], &[3, 100], &mut rng)
            .unwrap();
        assert_eq!(out.partitions, 3);
        let n_out = out.columns[0].len();
        assert!((n_out as f64 - n as f64).abs() < 100.0, "n_out {n_out}");
    }

    #[test]
    fn budgets_below_the_floor_are_refused_before_any_draw() {
        let binary: Vec<u32> = (0..600).map(|i| i % 2).collect();
        let ternary: Vec<u32> = (0..600).map(|i| i % 3).collect();
        let mut wide = vec![binary.clone()];
        wide.extend((0..4u32).map(|j| (0..600).map(|i| (i * (j + 1)) % 50).collect()));
        let cases = [
            // All small: at ε = 1e-150 a count's Laplace scale is 1e151,
            // and its release would saturate `usize`.
            (vec![binary, ternary], vec![2, 3], 1e-150),
            // Four large attributes at ε = 3e-119: the counts' 3e-120
            // clears the floor, a pair of the per-partition plan does not.
            (wide, vec![2, 50, 50, 50, 50], 3e-119),
        ];
        for (cols, domains, eps) in &cases {
            for seed in 0..4 {
                let mut rng = StdRng::seed_from_u64(seed);
                let err = HybridSynthesizer::new(HybridConfig::new(base_config(*eps)))
                    .synthesize(cols, domains, &mut rng)
                    .unwrap_err();
                assert!(
                    matches!(err, DpCopulaError::BudgetBelowFloor { .. }),
                    "eps {eps}: {err}"
                );
                let fresh = StdRng::seed_from_u64(seed).next_u64();
                assert_eq!(rng.next_u64(), fresh, "eps {eps}: drew before refusing");
            }
        }
    }

    #[test]
    #[should_panic(expected = "count fraction")]
    fn rejects_bad_count_fraction() {
        let mut cfg = HybridConfig::new(base_config(1.0));
        cfg.count_fraction = 1.5;
        let _ = HybridSynthesizer::new(cfg);
    }
}
