//! Empirical marginal distributions: the probability-integral transform
//! (Equations 2–3 of the paper) and the *inverse* DP marginal CDF used by
//! the sampling step (Algorithm 3, step 2).

use mathkit::special::norm_cdf;
use mathkit::stats::ranks;

/// Pseudo-copula transform of one data column (Equations 2–3):
/// `u_i = rank(x_i) / (n + 1)`, mid-ranks for ties, so every `u_i` lies
/// strictly inside `(0, 1)`.
pub fn pseudo_copula_column(values: &[u32]) -> Vec<f64> {
    let as_f64: Vec<f64> = values.iter().map(|&v| f64::from(v)).collect();
    let n = values.len() as f64;
    ranks(&as_f64).iter().map(|r| r / (n + 1.0)).collect()
}

/// A (possibly noisy) discrete marginal distribution over `0..domain`,
/// built from histogram counts. Negative noisy counts are clamped to zero
/// and the result renormalised — the only post-processing DPCopula needs
/// (free, as it does not touch the data again).
#[derive(Debug, Clone, PartialEq)]
pub struct MarginalDistribution {
    /// Non-decreasing CDF; `cdf[k] = P(X <= k)`, last entry 1.
    cdf: Vec<f64>,
}

impl MarginalDistribution {
    /// Builds the distribution from (noisy) histogram counts.
    ///
    /// If every count is non-positive the distribution falls back to
    /// uniform — the least-informative valid margin.
    ///
    /// # Panics
    /// Panics on an empty histogram.
    pub fn from_noisy_histogram(counts: &[f64]) -> Self {
        assert!(!counts.is_empty(), "empty histogram");
        let clamped: Vec<f64> = counts.iter().map(|&c| c.max(0.0)).collect();
        let total: f64 = clamped.iter().sum();
        let mut cdf = Vec::with_capacity(clamped.len());
        if total <= 0.0 {
            // Uniform fallback.
            let p = 1.0 / clamped.len() as f64;
            let mut acc = 0.0;
            for _ in &clamped {
                acc += p;
                cdf.push(acc);
            }
        } else {
            let mut acc = 0.0;
            for &c in &clamped {
                acc += c / total;
                cdf.push(acc);
            }
        }
        *cdf.last_mut().expect("non-empty") = 1.0;
        Self { cdf }
    }

    /// Domain size.
    pub fn domain(&self) -> usize {
        self.cdf.len()
    }

    /// `P(X <= k)`; 1 beyond the domain.
    pub fn cdf(&self, k: u32) -> f64 {
        let k = k as usize;
        if k >= self.cdf.len() {
            1.0
        } else {
            self.cdf[k]
        }
    }

    /// Probability mass at `k`.
    pub fn pmf(&self, k: u32) -> f64 {
        let k = k as usize;
        if k >= self.cdf.len() {
            return 0.0;
        }
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }

    /// Inverse CDF: the smallest `k` with `cdf(k) >= u` — the
    /// `F~^{-1}(T~)` of Algorithm 3 step 2.
    pub fn quantile(&self, u: f64) -> u32 {
        let u = u.clamp(0.0, 1.0);
        let idx = self.cdf.partition_point(|&c| c < u);
        idx.min(self.cdf.len() - 1) as u32
    }
}

/// Precomputed z-space inverse-CDF table of one margin, the one table of
/// both sampling profiles: maps a standard-normal draw `z` straight to
/// the margin's category, fusing Algorithm 3 steps 2 (`t = Φ(z)`) and 3
/// (`x = F̃⁻¹(t)`) into one table walk with no per-row Φ evaluation.
///
/// Construction: `zcut[k] = Φ⁻¹(cdf[k])` is the z-space threshold below
/// which the sampled category is `<= k`; since Φ is strictly increasing,
/// `smallest k with cdf[k] >= Φ(z)` equals `smallest k with
/// zcut[k] >= z`. A uniform guide grid over `z ∈ [±GUIDE_Z_MAX]` gives
/// the starting index for the (monotone) forward scan, so lookups are
/// O(1) for any realistic z.
///
/// The two lookups differ only in how they treat a `z` whose computed
/// `Φ(z)` could fall on the other side of a CDF step than `z` falls of
/// its cut:
///
/// * [`QuantileTable::quantile_z`] (the fast profile) takes the table's
///   answer everywhere. It matches `margin.quantile(norm_cdf(z))` except
///   on the measure-zero set where `Φ(z)` ties a CDF step within the
///   error of the two special functions.
/// * [`QuantileTable::quantile_z_exact`] (the reference profile) takes
///   it only for `|z| <= 4.5` and more than `GUARD_BAND` away from both
///   cuts around the answer, and otherwise runs the exact inversion
///   itself, so it equals `margin.quantile(norm_cdf(z))` bit for bit
///   (DESIGN.md §11 gives the error argument).
#[derive(Debug, Clone)]
pub struct QuantileTable {
    /// `zcut[k] = Φ⁻¹(cdf[k])`; non-decreasing, last entry forced `+∞`.
    zcut: Vec<f64>,
    /// `guide[g]` = smallest `k` with `zcut[k] >= edge(g)`.
    guide: Vec<u32>,
    z_lo: f64,
    inv_step: f64,
}

/// Guide-grid half-width. Draws beyond |z| = 4.5 (probability ≈ 7e-6
/// per draw) clamp into the first/last slot and still resolve correctly
/// via the forward scan — keeping the grid narrow spends its resolution
/// where the standard-normal mass actually lands, so the scan almost
/// always terminates on its first comparison.
const GUIDE_Z_MAX: f64 = 4.5;

/// Reach of the reference lookup's guard: beyond it the lookup always
/// runs the exact inversion. Within it the normal density is at least
/// φ(4.5) ≈ 1.6e-5, which bounds how far an error in Φ can move a draw
/// in z; a wider reach needs a wider [`GUARD_BAND`].
const GUARD_Z_MAX: f64 = 4.5;

/// Half-width, in z, of the band around each cut inside which the
/// reference lookup does not trust the table. An absolute error of 1e-12
/// in `norm_cdf` (its pinned bound) moves `z` by at most
/// 1e-12 / φ(4.5) ≈ 6e-8 where the density is smallest, and
/// `norm_quantile`'s 1e-12 moves a cut by less still.
const GUARD_BAND: f64 = 1e-6;

impl QuantileTable {
    /// Builds the z-space lookup table for `margin`.
    pub fn new(margin: &MarginalDistribution) -> Self {
        // Guard against cumulative-sum round-up: an intermediate cdf
        // entry one ulp above 1.0 would send Φ⁻¹ to NaN.
        let cdf: Vec<f64> = margin.cdf.iter().map(|c| c.min(1.0)).collect();
        let mut zcut = vec![0.0; cdf.len()];
        mathkit::batch::norm_quantile_slice(&cdf, &mut zcut);
        // cdf ends at exactly 1.0 so the last cut is already +∞; force it
        // anyway so the scan in `quantile_z` always terminates.
        *zcut.last_mut().expect("non-empty margin") = f64::INFINITY;

        let slots = (margin.cdf.len() * 2).clamp(64, 8192);
        let z_lo = -GUIDE_Z_MAX;
        let step = 2.0 * GUIDE_Z_MAX / slots as f64;
        let mut guide = Vec::with_capacity(slots);
        let mut k = 0usize;
        for g in 0..slots {
            // Slot g covers z >= edge(g); slot 0's edge is effectively
            // -∞ (every z below z_lo clamps into it), so its guide entry
            // must stay 0.
            let edge = if g == 0 {
                f64::NEG_INFINITY
            } else {
                z_lo + g as f64 * step
            };
            while zcut[k] < edge {
                k += 1;
            }
            guide.push(k as u32);
        }
        Self {
            zcut,
            guide,
            z_lo,
            inv_step: 1.0 / step,
        }
    }

    /// The category for a standard-normal draw `z`: the smallest `k`
    /// with `Φ(z) <= cdf[k]`. NaN maps to category 0 (matching
    /// `quantile(norm_cdf(NaN).clamp(0,1))`'s behaviour of clamping).
    #[inline]
    pub fn quantile_z(&self, z: f64) -> u32 {
        if z.is_nan() {
            return 0;
        }
        let slot = ((z - self.z_lo) * self.inv_step) as isize;
        let slot = slot.clamp(0, self.guide.len() as isize - 1) as usize;
        let mut k = self.guide[slot] as usize;
        // zcut's last entry is +∞, so this scan always terminates.
        while self.zcut[k] < z {
            k += 1;
        }
        k as u32
    }

    /// The category `margin.quantile(norm_cdf(z))` names, bit for bit,
    /// for any `z` (±∞ and NaN included). `margin` must be the margin
    /// this table was built from.
    ///
    /// Takes the table's answer `k` when `|z| <= 4.5` and `z` lies more
    /// than `GUARD_BAND` from both `zcut[k − 1]` and `zcut[k]`; there no
    /// error within the special functions' bounds can move `Φ(z)` across
    /// a CDF step. Every other `z` runs the exact inversion: 1.9e-4 of
    /// standard normal draws on the released US census margins, 5.7e-5 on
    /// the Brazil ones.
    #[inline]
    pub fn quantile_z_exact(&self, margin: &MarginalDistribution, z: f64) -> u32 {
        debug_assert_eq!(margin.domain(), self.zcut.len(), "table of another margin");
        if z.abs() <= GUARD_Z_MAX {
            let k = self.quantile_z(z) as usize;
            let clear_below = k == 0 || z - self.zcut[k - 1] > GUARD_BAND;
            if clear_below && self.zcut[k] - z > GUARD_BAND {
                return k as u32;
            }
        }
        margin.quantile(norm_cdf(z))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pseudo_copula_is_rank_over_n_plus_1() {
        let u = pseudo_copula_column(&[30, 10, 20]);
        assert_eq!(u, vec![3.0 / 4.0, 1.0 / 4.0, 2.0 / 4.0]);
    }

    #[test]
    fn pseudo_copula_ties_get_midranks() {
        let u = pseudo_copula_column(&[5, 5, 9]);
        assert_eq!(u, vec![1.5 / 4.0, 1.5 / 4.0, 3.0 / 4.0]);
    }

    #[test]
    fn pseudo_copula_stays_in_open_unit_interval() {
        let values: Vec<u32> = (0..1000).collect();
        let u = pseudo_copula_column(&values);
        assert!(u.iter().all(|&v| v > 0.0 && v < 1.0));
    }

    #[test]
    fn marginal_from_clean_histogram() {
        let m = MarginalDistribution::from_noisy_histogram(&[1.0, 3.0, 0.0, 4.0]);
        assert!((m.cdf(0) - 0.125).abs() < 1e-12);
        assert!((m.cdf(1) - 0.5).abs() < 1e-12);
        assert!((m.cdf(2) - 0.5).abs() < 1e-12);
        assert_eq!(m.cdf(3), 1.0);
        assert_eq!(m.cdf(99), 1.0);
        assert!((m.pmf(3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn negative_counts_are_clamped() {
        let m = MarginalDistribution::from_noisy_histogram(&[-5.0, 2.0, 2.0]);
        assert_eq!(m.pmf(0), 0.0);
        assert!((m.pmf(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn all_negative_falls_back_to_uniform() {
        let m = MarginalDistribution::from_noisy_histogram(&[-1.0, -2.0, -3.0, -4.0]);
        for k in 0..4 {
            assert!((m.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn quantile_is_generalised_inverse() {
        let m = MarginalDistribution::from_noisy_histogram(&[1.0, 0.0, 1.0, 2.0]);
        assert_eq!(m.quantile(0.0), 0);
        assert_eq!(m.quantile(0.25), 0);
        assert_eq!(m.quantile(0.26), 2);
        assert_eq!(m.quantile(0.5), 2);
        assert_eq!(m.quantile(0.51), 3);
        assert_eq!(m.quantile(1.0), 3);
        // Galois connection: cdf(quantile(u)) >= u.
        for i in 0..=100 {
            let u = f64::from(i) / 100.0;
            assert!(m.cdf(m.quantile(u)) >= u - 1e-12);
        }
    }

    #[test]
    fn quantile_skips_zero_mass_bins() {
        let m = MarginalDistribution::from_noisy_histogram(&[0.0, 0.0, 5.0]);
        assert_eq!(m.quantile(0.001), 2);
        assert_eq!(m.quantile(0.999), 2);
    }

    #[test]
    #[should_panic(expected = "empty histogram")]
    fn empty_histogram_panics() {
        let _ = MarginalDistribution::from_noisy_histogram(&[]);
    }

    #[test]
    fn quantile_table_matches_exact_inversion_on_z_sweep() {
        let margins = [
            MarginalDistribution::from_noisy_histogram(&[1.0, 3.0, 0.0, 4.0]),
            MarginalDistribution::from_noisy_histogram(&[0.0, 0.0, 5.0]),
            MarginalDistribution::from_noisy_histogram(&[-1.0, -2.0, -3.0]),
            MarginalDistribution::from_noisy_histogram(&[2.0]),
            MarginalDistribution::from_noisy_histogram(
                &(0..1000).map(f64::from).collect::<Vec<_>>(),
            ),
        ];
        for m in &margins {
            let table = QuantileTable::new(m);
            let mut z = -10.0;
            while z <= 10.0 {
                let fast = table.quantile_z(z);
                let exact = m.quantile(norm_cdf(z));
                assert_eq!(fast, exact, "domain {} z {z}", m.domain());
                assert_eq!(
                    table.quantile_z_exact(m, z),
                    exact,
                    "domain {} z {z}",
                    m.domain()
                );
                z += 0.00173;
            }
            // Extremes resolve to the first/last massive category.
            assert_eq!(table.quantile_z(f64::NEG_INFINITY), m.quantile(0.0));
            assert_eq!(table.quantile_z(f64::INFINITY), m.quantile(1.0));
            assert_eq!(table.quantile_z(f64::NAN), 0);
        }
    }

    #[test]
    fn quantile_table_is_monotone_in_z() {
        let m = MarginalDistribution::from_noisy_histogram(&[1.0, 0.5, 0.0, 2.0, 0.25]);
        let table = QuantileTable::new(&m);
        let mut prev = table.quantile_z(-9.0);
        let mut z = -9.0;
        while z <= 9.0 {
            let k = table.quantile_z(z);
            assert!(k >= prev, "z {z}: {k} < {prev}");
            prev = k;
            z += 0.01;
        }
    }

    /// `z` and every double up to `ulps` units in the last place either
    /// side of it, in increasing order.
    fn ulps_around(z: f64, ulps: usize) -> impl Iterator<Item = f64> {
        let start = (0..ulps).fold(z, |z, _| z.next_down());
        std::iter::successors(Some(start), |z| Some(z.next_up())).take(2 * ulps + 1)
    }

    /// The margins the differential test sweeps: the exact and the
    /// released (noisy, Kendall fit at ε = 1) margins of both censuses,
    /// up to 1,020 bins wide, then adversarial ones.
    fn differential_margins() -> Vec<MarginalDistribution> {
        use datagen::census::{brazil_census, us_census};

        let mut margins = Vec::new();
        for data in [us_census(20_000, 7), brazil_census(20_000, 7)] {
            let domains = data.domains();
            for (col, &domain) in data.columns().iter().zip(&domains) {
                let mut counts = vec![0.0; domain];
                for &v in col {
                    counts[v as usize] += 1.0;
                }
                margins.push(MarginalDistribution::from_noisy_histogram(&counts));
            }
            let epsilon = dpmech::Epsilon::new(1.0).unwrap();
            let (model, _) = crate::SynthesisRequest::new(data.columns(), &domains, epsilon)
                .seed(77)
                .fit()
                .unwrap();
            for counts in &model.artifact().margins {
                margins.push(MarginalDistribution::from_noisy_histogram(counts));
            }
        }
        let tail = norm_cdf(-GUARD_Z_MAX);
        // Accumulating these masses overshoots: cdf entry 5 rounds to one
        // ulp above 1.0.
        let overshoot =
            MarginalDistribution::from_noisy_histogram(&[0.3, 3.3, 1.1, 0.2, 0.3, 0.3, 0.0]);
        assert!(overshoot.cdf(5) > 1.0);
        margins.extend([
            MarginalDistribution::from_noisy_histogram(&[0.0, 0.0, 5.0, 0.0, 0.0, 3.0, 0.0]),
            MarginalDistribution::from_noisy_histogram(&[1e-300, 1.0, 1e-300, 1e-300, 2.0, 1e-300]),
            MarginalDistribution::from_noisy_histogram(&[2.0]),
            MarginalDistribution::from_noisy_histogram(&[-1.0, -2.0, -3.0, -4.0]),
            // Cuts at the guard's reach, z ≈ ±4.5.
            MarginalDistribution::from_noisy_histogram(&[tail, 1.0 - 2.0 * tail, tail]),
            overshoot,
        ]);
        margins
    }

    #[test]
    fn guarded_lookup_equals_exact_inversion_bit_for_bit() {
        use mathkit::dist::standard_normal;
        use rngkit::rngs::StdRng;
        use rngkit::SeedableRng;

        let margins = differential_margins();
        let tables: Vec<QuantileTable> = margins.iter().map(QuantileTable::new).collect();
        let check = |j: usize, z: f64| {
            let (m, table) = (&margins[j], &tables[j]);
            assert_eq!(
                table.quantile_z_exact(m, z),
                m.quantile(norm_cdf(z)),
                "margin {j} (domain {}) z {z:e} (bits {:#018x})",
                m.domain(),
                z.to_bits()
            );
        };
        // Random draws: these almost never land within an ulp of a cut.
        let mut rng = StdRng::seed_from_u64(23);
        for i in 0..1_000_000 {
            check(i % margins.len(), standard_normal(&mut rng));
        }
        for (j, table) in tables.iter().enumerate() {
            // Every finite cut, ±128 ulps, and both edges of its band.
            for &cut in table.zcut.iter().filter(|c| c.is_finite()) {
                for z in ulps_around(cut, 128) {
                    check(j, z);
                }
                for edge in [cut - GUARD_BAND, cut + GUARD_BAND] {
                    for z in ulps_around(edge, 8) {
                        check(j, z);
                    }
                }
            }
            // Just inside and outside the guard's reach, and non-finite z.
            for reach in [-GUARD_Z_MAX, GUARD_Z_MAX] {
                for z in ulps_around(reach, 8) {
                    check(j, z);
                }
            }
            for z in [f64::NEG_INFINITY, f64::INFINITY, f64::NAN] {
                check(j, z);
            }
        }
    }
}
