//! Kendall's tau rank correlation: one counting kernel
//! ([`RankedColumn`] + [`concordance_cached`]) that scores each distinct
//! `(x, y)` value cell once, a quadratic reference, the differentially
//! private release of Algorithm 5 (sensitivity `4/(n+1)`, Lemma 4.1),
//! and the record-sampling speed-up of §4.2.
//!
//! Every fit releases its τ matrix through one crate-private kernel over
//! the pooled τ sample: rank each column once, score each attribute
//! pair, add pair `k`'s Laplace noise from `STREAM_KENDALL_NOISE[k]` at
//! the pooled sensitivity, and map `sin(π/2·τ)`. The in-process fit at
//! any shard count, [`crate::distfit::merge_shards`] and
//! [`crate::shard::dp_tau_matrix_sharded`] all call it, so a sharded
//! release is the pooled statistic by construction (DESIGN.md §12), and
//! it is the library's only τ-matrix release.

use crate::engine::{harvest_draws, STREAM_KENDALL_NOISE};
use dpmech::{laplace_noise, Epsilon};
use mathkit::Matrix;
use obskit::MetricsSink;
use rngkit::Rng;
use std::sync::Mutex;

/// Sample Kendall's tau (the `tau_a` of Definition 3.5: tied pairs
/// contribute zero): both columns ranked by [`RankedColumn::new`], then
/// scored by [`concordance_cached`].
///
/// # Panics
/// Panics when the slices differ in length or have fewer than 2 elements.
pub fn kendall_tau(x: &[u32], y: &[u32]) -> f64 {
    concordance_cached(
        &RankedColumn::new(x.to_vec()),
        &RankedColumn::new(y.to_vec()),
    )
    .tau()
}

/// Quadratic reference implementation of Definition 3.5, used as the
/// property-test oracle.
pub fn kendall_tau_naive(x: &[u32], y: &[u32]) -> f64 {
    concordance_naive(x, y).tau()
}

/// The quadratic [`Concordance`]: `sign(x_a − x_b)·sign(y_a − y_b)`
/// summed over every record pair, and `C(n, 2)`.
fn concordance_naive(x: &[u32], y: &[u32]) -> Concordance {
    assert_eq!(x.len(), y.len());
    let n = x.len();
    assert!(n >= 2);
    let mut s: i64 = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = i64::from(x[i]) - i64::from(x[j]);
            let dy = i64::from(y[i]) - i64::from(y[j]);
            s += dx.signum() * dy.signum();
        }
    }
    Concordance {
        s,
        pairs: (n as u64) * (n as u64 - 1) / 2,
    }
}

/// The L1 sensitivity of a pairwise Kendall's tau coefficient,
/// `Delta = 4 / (n + 1)` (Lemma 4.1 of the paper).
pub fn kendall_sensitivity(n: usize) -> f64 {
    4.0 / (n as f64 + 1.0)
}

/// Releases one pairwise Kendall's tau under `epsilon`-DP: the sample
/// coefficient plus `Lap(4 / ((n+1) * epsilon))` (Algorithm 5, step 1).
pub fn dp_kendall_tau<R: Rng + ?Sized>(x: &[u32], y: &[u32], epsilon: Epsilon, rng: &mut R) -> f64 {
    let tau = kendall_tau(x, y);
    tau + laplace_noise(rng, kendall_sensitivity(x.len()) / epsilon.value())
}

/// The paper's record-sampling rule: computing tau on
/// `n_hat > 50 m (m-1) / eps2 - 1` sampled records keeps the (enlarged)
/// Laplace noise small relative to the coefficient scale while making the
/// runtime independent of `n` (§4.2, "Computation complexity").
///
/// With fewer than two attributes there are no pairs to estimate, so the
/// formula degenerates; the function returns the floor of 2 records (the
/// minimum any tau computation needs) instead of evaluating it. A tiny
/// `eps2_total` saturates at `usize::MAX` (every record) rather than
/// wrapping.
pub fn recommended_sample_size(m: usize, eps2_total: f64) -> usize {
    if m <= 1 {
        return 2;
    }
    (((50.0 * (m as f64) * (m as f64 - 1.0) / eps2_total) - 1.0)
        .ceil()
        .max(2.0) as usize)
        .saturating_add(1)
}

/// Cached per-column rank structure for batched tau computation.
///
/// Computing Kendall's tau for every pair `(i, j)` from scratch re-sorts
/// both columns per pair. This cache does the expensive per-column work
/// once — the stable sort order, the tied-group boundaries in that order,
/// dense tie-ranks, and the tied-pair count — so each of the `C(m,2)`
/// pairs runs sort-free through [`concordance_cached`]: in at most 5n
/// steps when the two columns' distinct-value counts multiply to at most
/// `4n`, in O(n + c·log g_y) otherwise, for `c` distinct `(x, y)` value
/// cells and `g_y` distinct y values.
#[derive(Debug, Clone)]
pub struct RankedColumn {
    values: Vec<u32>,
    /// Indices of `values` in ascending value order (stable).
    order: Vec<u32>,
    /// Start offsets of tied runs in `order`, terminated by `n`.
    group_starts: Vec<u32>,
    /// Dense tie-rank per original index: `dense[i] = g` iff `values[i]`
    /// falls in the `g`-th tied run. Compresses the value range to
    /// `0..num_groups` so pair computations can index arrays by rank.
    dense: Vec<u32>,
    /// Number of tied pairs `C(g,2)` summed over tied groups.
    tie_pairs: u64,
}

impl RankedColumn {
    /// Builds the cache, taking ownership of the column values.
    ///
    /// Uses a counting sort when the value range is small relative to the
    /// column length (the common case for categorical attributes),
    /// otherwise a stable comparison sort.
    pub fn new(values: Vec<u32>) -> Self {
        let n = values.len();
        let max = values.iter().copied().max().unwrap_or(0) as usize;
        let order: Vec<u32> = if max < 4 * n.max(16) {
            // Stable counting sort: prefix sums give each value its first
            // slot; scanning indices in order keeps ties in input order.
            let mut starts = vec![0u32; max + 2];
            for &v in &values {
                starts[v as usize + 1] += 1;
            }
            for k in 1..starts.len() {
                starts[k] += starts[k - 1];
            }
            let mut order = vec![0u32; n];
            for (i, &v) in values.iter().enumerate() {
                let slot = &mut starts[v as usize];
                order[*slot as usize] = i as u32;
                *slot += 1;
            }
            order
        } else {
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_by_key(|&i| values[i as usize]);
            order
        };

        let mut group_starts = Vec::new();
        let mut dense = vec![0u32; n];
        let mut tie_pairs = 0u64;
        let mut i = 0usize;
        while i < n {
            group_starts.push(i as u32);
            let v = values[order[i] as usize];
            let mut j = i + 1;
            while j < n && values[order[j] as usize] == v {
                j += 1;
            }
            let rank = (group_starts.len() - 1) as u32;
            for &idx in &order[i..j] {
                dense[idx as usize] = rank;
            }
            let g = (j - i) as u64;
            tie_pairs += g * (g - 1) / 2;
            i = j;
        }
        group_starts.push(n as u32);

        Self {
            values,
            order,
            group_starts,
            dense,
            tie_pairs,
        }
    }

    /// Number of distinct values (tied runs).
    pub fn num_groups(&self) -> usize {
        self.group_starts.len() - 1
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of tied pairs in this column.
    pub fn tie_pairs(&self) -> u64 {
        self.tie_pairs
    }

    /// The raw column values.
    pub fn values(&self) -> &[u32] {
        &self.values
    }
}

/// Integer concordance summary of one column pair over one record set:
/// the numerator `s = n_c - n_d` and the pair count `pairs = C(n, 2)` of
/// Kendall's τ_a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Concordance {
    /// Concordant minus discordant pairs (ties contribute zero).
    pub s: i64,
    /// Total unordered record pairs, `C(n, 2)`.
    pub pairs: u64,
}

impl Concordance {
    /// Kendall's τ_a, `s / pairs`. Up to n = 2^27 (134,217,728) records
    /// both integers sit below 2^53, where `f64` is exact, so this is the
    /// classical `(n_c - n_d) / C(n, 2)` to the bit. A larger sample (say
    /// [`SamplingStrategy::Full`] over a large table) rounds each integer
    /// to the nearest `f64` first, a relative error of at most 2^-53 each.
    ///
    /// # Panics
    /// Panics when `pairs == 0` (τ is undefined below 2 records).
    pub fn tau(&self) -> f64 {
        assert!(self.pairs > 0, "Kendall's tau needs at least one pair");
        self.s as f64 / self.pairs as f64
    }
}

/// The [`Concordance`] of one column pair from the two columns' cached
/// rank structures — the one place the library counts Kendall
/// concordance; each pair needs no sorting at all.
///
/// Discordant pairs have `x_a < x_b` and `y_a > y_b`. The kernel walks
/// x's tied groups in ascending order and, within a group, tallies the
/// records per dense y rank `r`: that is one `(x, y)` value cell holding
/// `c` records. Every record of a cell sees the same earlier groups, so
/// the cell is scored once, adding `c` times the earlier groups' records
/// above `r` discordant pairs and `C(c, 2)` pairs tied in both columns.
/// The group joins the earlier groups only once it is scored, so pairs
/// tied in x count as neither concordant nor discordant.
///
/// How the earlier groups are counted depends on the pair's `g_x·g_y`
/// for `g_x` and `g_y` distinct values:
///
/// * **Sweep**, when `g_x·g_y ≤ 4n`: a plain running count per y rank.
///   Each group is scored in one descending sweep over all `g_y` ranks,
///   summing the count above the cell as it goes: O(n + g_x·g_y) ≤ 5n
///   time and O(g_y) memory.
/// * **Fenwick walk**, otherwise: a Fenwick tree over the y ranks, so a
///   group costs its size plus O(log g_y) per cell, O(n + c·log g_y) in
///   all for `c` distinct cells (at most `min(n, g_x·g_y)`).
///
/// Both count the same integers, so the branch never shows in a release.
///
/// # Panics
/// Panics when the columns differ in length or have fewer than 2 elements.
pub fn concordance_cached(x: &RankedColumn, y: &RankedColumn) -> Concordance {
    let n = x.len();
    assert_eq!(n, y.len(), "kendall_tau length mismatch");
    assert!(n >= 2, "kendall_tau needs at least 2 observations");

    let (n_d, t_xy) = if sweeps(x, y) {
        discordance_by_sweep(x, y)
    } else {
        discordance_by_fenwick(x, y)
    };
    let total = (n as u64) * (n as u64 - 1) / 2;
    let ties = x.tie_pairs + y.tie_pairs - t_xy;
    let n_c = total - n_d - ties;
    Concordance {
        s: n_c as i64 - n_d as i64,
        pairs: total,
    }
}

/// Whether [`concordance_cached`] scores the pair by its sweep: the
/// columns' distinct-value counts multiply to at most `4n`.
fn sweeps(x: &RankedColumn, y: &RankedColumn) -> bool {
    let (gx, gy) = (x.num_groups() as u64, y.num_groups() as u64);
    gx * gy <= 4 * x.len() as u64
}

/// `(n_d, t_xy)` of [`concordance_cached`]'s sweep: the discordant pairs
/// and the pairs tied in both columns, scoring each x group in one
/// descending pass over every dense y rank.
fn discordance_by_sweep(x: &RankedColumn, y: &RankedColumn) -> (u64, u64) {
    let gy = y.num_groups();
    // Per dense y rank: the earlier groups' records, and the current
    // group's cell.
    let mut earlier = vec![0u32; gy];
    let mut cell = vec![0u32; gy];
    let (mut n_d, mut t_xy) = (0u64, 0u64);
    for w in x.group_starts.windows(2) {
        for &idx in &x.order[w[0] as usize..w[1] as usize] {
            cell[y.dense[idx as usize] as usize] += 1;
        }
        // `above` counts the earlier groups' records above rank r; the
        // cell joins `earlier` only after it is scored.
        let mut above = 0u64;
        for (e, c) in earlier.iter_mut().zip(&mut cell).rev() {
            let k = u64::from(std::mem::take(c));
            n_d += k * above;
            t_xy += k * k.saturating_sub(1) / 2;
            above += u64::from(*e);
            *e += k as u32;
        }
    }
    (n_d, t_xy)
}

/// `(n_d, t_xy)` of [`concordance_cached`]'s Fenwick walk: the earlier
/// groups' dense y ranks live in a Fenwick tree, and only the current
/// group's cells are visited.
fn discordance_by_fenwick(x: &RankedColumn, y: &RankedColumn) -> (u64, u64) {
    let gy = y.num_groups();
    // 1-indexed Fenwick tree over dense y ranks of all smaller-x elements.
    let mut fenwick = vec![0u32; gy + 1];
    let prefix = |f: &[u32], mut k: usize| -> u64 {
        let mut s = 0u64;
        while k > 0 {
            s += u64::from(f[k]);
            k &= k - 1;
        }
        s
    };

    let mut n_d = 0u64;
    let mut t_xy = 0u64;
    let mut seen = 0u64;
    // Records per dense y rank within the current x group (its cells),
    // with a touched-list reset so each group costs O(group size) plus
    // O(log g_y) per cell.
    let mut counts = vec![0u32; gy];
    let mut touched: Vec<u32> = Vec::new();
    for w in x.group_starts.windows(2) {
        let (a, b) = (w[0] as usize, w[1] as usize);
        for &idx in &x.order[a..b] {
            let r = y.dense[idx as usize] as usize;
            if counts[r] == 0 {
                touched.push(r as u32);
            }
            counts[r] += 1;
        }
        for &r in &touched {
            let c = u64::from(counts[r as usize]);
            n_d += c * (seen - prefix(&fenwick, r as usize + 1));
            t_xy += c * (c - 1) / 2;
        }
        // The whole group enters the tree only after it is scored, so
        // tied-x pairs never count as discordant.
        for &r in &touched {
            let c = std::mem::take(&mut counts[r as usize]);
            let mut k = r as usize + 1;
            while k <= gy {
                fenwick[k] += c;
                k += k & k.wrapping_neg();
            }
        }
        seen += (b - a) as u64;
        touched.clear();
    }
    (n_d, t_xy)
}

/// How many records to use when computing each pairwise tau.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingStrategy {
    /// Use every record: per pair at most 5n steps when the two columns'
    /// distinct-value counts multiply to at most `4n`, otherwise
    /// O(n + c·log g) for `c` distinct `(x, y)` value cells and `g`
    /// distinct values, at most O(n log n).
    Full,
    /// Use `min(n, recommended_sample_size(m, eps2))` records — the
    /// paper's default for all experiments.
    Auto,
    /// Use at most this many records.
    Fixed(usize),
}

/// The attribute pairs `(i, j)`, `i < j`, of `m` attributes in
/// lexicographic order; pair id `k` indexes this list.
pub(crate) fn pair_ids(m: usize) -> Vec<(usize, usize)> {
    (0..m)
        .flat_map(|i| ((i + 1)..m).map(move |j| (i, j)))
        .collect()
}

/// Ranks every column once, each handed to [`RankedColumn::new`] by
/// value (never copied), one task per column under the `correlation`
/// stage.
pub(crate) fn rank_columns(
    columns: Vec<Vec<u32>>,
    workers: usize,
    sink: &MetricsSink,
) -> Vec<RankedColumn> {
    let columns: Vec<Mutex<Vec<u32>>> = columns.into_iter().map(Mutex::new).collect();
    parkit::par_map_observed(workers, &columns, sink, "correlation", |_, column| {
        let mut column = column.lock().expect("one task per column");
        RankedColumn::new(std::mem::take(&mut *column))
    })
}

/// The [`Concordance`] of every attribute pair of `ranked`, in
/// [`pair_ids`] order, one task per pair under the `correlation` stage.
///
/// # Panics
/// Panics when the columns hold fewer than 2 records.
pub(crate) fn pair_concordances(
    ranked: &[RankedColumn],
    workers: usize,
    sink: &MetricsSink,
) -> Vec<Concordance> {
    let pairs = pair_ids(ranked.len());
    parkit::par_map_observed(workers, &pairs, sink, "correlation", |_, &(i, j)| {
        concordance_cached(&ranked[i], &ranked[j])
    })
}

/// The Kendall-τ release of every fit (Algorithm 5) over `columns`, the
/// pooled τ sample: ranks each column once, scores each pair, adds pair
/// `k`'s Laplace noise from `stream_rng(base_seed, STREAM_KENDALL_NOISE,
/// k)` at sensitivity `4/(n+1)` of the pooled sample size `n` and budget
/// `eps2_total / C(m,2)`, and maps `sin(π/2·τ)`. Returns the **raw**
/// matrix: clamping and the positive-definite repair are the pipeline's
/// next stage ([`crate::engine`]).
///
/// Every stream index is a logical one, so the matrix is bit-identical
/// at any worker count; it depends on the sample's rows, not their
/// order. Fan-outs are recorded under `parkit_*{stage="correlation"}`
/// and the noise draws under `noise_draws_total{stage="correlation"}`.
///
/// # Panics
/// Panics below two columns or two records.
pub(crate) fn dp_tau_matrix(
    columns: Vec<Vec<u32>>,
    eps2_total: Epsilon,
    base_seed: u64,
    workers: usize,
    sink: &MetricsSink,
) -> Matrix {
    let m = columns.len();
    assert!(m >= 2, "a τ matrix needs at least two columns");
    let n = columns[0].len();
    let pairs = pair_ids(m);
    let concordances = pair_concordances(&rank_columns(columns, workers, sink), workers, sink);
    let scale = kendall_sensitivity(n) / eps2_total.divide(pairs.len()).value();
    let mut p = Matrix::identity(m);
    harvest_draws(sink, "correlation", || {
        for (k, (&(i, j), c)) in pairs.iter().zip(&concordances).enumerate() {
            let mut rng = parkit::stream_rng(base_seed, STREAM_KENDALL_NOISE, k as u64);
            let noisy = c.tau() + laplace_noise(&mut rng, scale);
            let r = (std::f64::consts::FRAC_PI_2 * noisy).sin();
            p[(i, j)] = r;
            p[(j, i)] = r;
        }
    });
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathkit::cholesky::is_positive_definite;
    use rngkit::rngs::StdRng;
    use rngkit::seq::SliceRandom;
    use rngkit::SeedableRng;

    #[test]
    fn perfect_concordance_and_discordance() {
        let x: Vec<u32> = (0..50).collect();
        let y = x.clone();
        assert!((kendall_tau(&x, &y) - 1.0).abs() < 1e-12);
        let yr: Vec<u32> = x.iter().rev().cloned().collect();
        assert!((kendall_tau(&x, &yr) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn matches_naive_on_small_cases() {
        let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![1, 2, 3, 4, 5], vec![3, 1, 4, 2, 5]),
            (vec![1, 1, 2, 2], vec![1, 2, 1, 2]),
            (vec![5, 5, 5], vec![1, 2, 3]),
            (vec![1, 2], vec![2, 1]),
            (vec![0, 0, 0, 0], vec![0, 0, 0, 0]),
            (vec![9, 1, 9, 1, 5, 5], vec![2, 2, 7, 7, 7, 1]),
        ];
        for (x, y) in cases {
            let fast = kendall_tau(&x, &y);
            let slow = kendall_tau_naive(&x, &y);
            assert!(
                (fast - slow).abs() < 1e-12,
                "x={x:?} y={y:?}: fast {fast} slow {slow}"
            );
        }
    }

    #[test]
    fn matches_naive_on_random_data() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..30 {
            let n = rng.gen_range(2..200);
            let domain = rng.gen_range(2..20u32);
            let x: Vec<u32> = (0..n).map(|_| rng.gen_range(0..domain)).collect();
            let y: Vec<u32> = (0..n).map(|_| rng.gen_range(0..domain)).collect();
            let fast = kendall_tau(&x, &y);
            let slow = kendall_tau_naive(&x, &y);
            assert!((fast - slow).abs() < 1e-12, "n={n}: {fast} vs {slow}");
        }
    }

    #[test]
    fn sensitivity_formula() {
        assert!((kendall_sensitivity(99) - 0.04).abs() < 1e-12);
        assert!(kendall_sensitivity(10_000) < 0.0005);
    }

    #[test]
    fn dp_tau_concentrates_around_truth_for_large_n() {
        let n = 5_000;
        let x: Vec<u32> = (0..n).collect();
        let y = x.clone();
        let mut rng = StdRng::seed_from_u64(2);
        let eps = Epsilon::new(1.0).unwrap();
        let avg: f64 = (0..50)
            .map(|_| dp_kendall_tau(&x, &y, eps, &mut rng))
            .sum::<f64>()
            / 50.0;
        // Noise scale 4/(5001 * 1) = 0.0008.
        assert!((avg - 1.0).abs() < 0.001, "avg {avg}");
    }

    #[test]
    fn recommended_sample_size_follows_rule() {
        // m=8, eps2=1/9 (k=8 split of eps=1): 50*8*7*9 = 25200.
        let s = recommended_sample_size(8, 1.0 / 9.0);
        assert!((25_190..=25_210).contains(&s), "s={s}");
        assert!(recommended_sample_size(2, 10.0) >= 2);
    }

    #[test]
    fn dp_matrix_is_positive_definite_correlation() {
        let mut rng = StdRng::seed_from_u64(3);
        // Strongly correlated 3 columns.
        let base: Vec<u32> = (0..2000).map(|_| rng.gen_range(0..1000)).collect();
        let cols: Vec<Vec<u32>> = (0..3)
            .map(|j| {
                base.iter()
                    .map(|&v| (v + rng.gen_range(0u32..100) + j) % 1000)
                    .collect()
            })
            .collect();
        // Algorithm 5 end to end: the fit's τ release, clamped and
        // repaired.
        let (model, _) =
            crate::SynthesisRequest::new(&cols, &[1000; 3], Epsilon::new(1.0).unwrap())
                .estimator(crate::CorrelationMethod::Kendall(SamplingStrategy::Full))
                .seed(3)
                .fit()
                .unwrap();
        let p = &model.artifact().correlation;
        assert!(is_positive_definite(p));
        assert!(mathkit::correlation::is_correlation_shaped(p, 1e-9));
        // Strong positive dependence should survive.
        assert!(p[(0, 1)] > 0.5, "p01 = {}", p[(0, 1)]);
    }

    #[test]
    fn cached_tau_matches_plain_implementation_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..40 {
            let n = rng.gen_range(2..300);
            // Mix small domains (counting sort, heavy ties) and large ones
            // (comparison sort, few ties).
            let domain = if rng.gen_range(0..2) == 0 {
                rng.gen_range(2..8u32)
            } else {
                rng.gen_range(1_000..1_000_000u32)
            };
            let x: Vec<u32> = (0..n).map(|_| rng.gen_range(0..domain)).collect();
            let y: Vec<u32> = (0..n).map(|_| rng.gen_range(0..domain)).collect();
            let plain = kendall_tau_naive(&x, &y);
            let cached = concordance_cached(&RankedColumn::new(x), &RankedColumn::new(y)).tau();
            assert_eq!(plain.to_bits(), cached.to_bits(), "n={n} domain={domain}");
        }
    }

    #[test]
    fn tau_of_perfect_orders() {
        let ranked = |v: &[u32]| RankedColumn::new(v.to_vec());
        let up = ranked(&[1, 2, 3, 4]);
        let c = concordance_cached(&up, &up);
        assert_eq!(c, Concordance { s: 6, pairs: 6 });
        assert_eq!(c.tau(), 1.0);
        let c = concordance_cached(&up, &ranked(&[4, 3, 2, 1]));
        assert_eq!(c.tau(), -1.0);
    }

    #[test]
    fn ranked_column_counts_ties() {
        let r = RankedColumn::new(vec![3, 1, 3, 3, 1]);
        // Groups {1,1} and {3,3,3}: C(2,2) + C(3,2) = 1 + 3.
        assert_eq!(r.tie_pairs(), 4);
        assert_eq!(r.len(), 5);
        assert!(!r.is_empty());
    }

    #[test]
    fn recommended_sample_size_guards_degenerate_arity() {
        assert_eq!(recommended_sample_size(0, 1.0), 2);
        assert_eq!(recommended_sample_size(1, 1.0), 2);
    }

    #[test]
    fn recommended_sample_size_saturates_at_tiny_epsilon() {
        // 50·4·3/1e-300 overflows usize; the rule asks for every record.
        assert_eq!(recommended_sample_size(4, 1e-300), usize::MAX);
        assert_eq!(recommended_sample_size(4, 1e-20), usize::MAX);
    }

    /// A column of `n` records in one of the shapes the cell loop treats
    /// differently: constant, binary, a 10⁶ domain (few ties), a domain
    /// of at most 4 (every cell repeats) or a tie-free permutation.
    fn column_of_shape(rng: &mut StdRng, shape: u8, n: usize) -> Vec<u32> {
        match shape {
            0 => vec![rng.gen_range(0..1_000_000); n],
            1 => (0..n).map(|_| rng.gen_range(0..2)).collect(),
            2 => (0..n).map(|_| rng.gen_range(0..1_000_000)).collect(),
            3 => {
                let domain = rng.gen_range(1..=4);
                (0..n).map(|_| rng.gen_range(0..domain)).collect()
            }
            _ => {
                let mut perm: Vec<u32> = (0..n as u32).collect();
                perm.shuffle(rng);
                perm
            }
        }
    }

    /// A column of `n` records holding exactly `g` distinct values
    /// (`1 ≤ g ≤ n`), every one of them at least once, in random order:
    /// `0..g` spread three apart, lifted past `4·max(n, 16)` (so
    /// [`RankedColumn::new`] takes its comparison sort) half the time.
    fn column_with_groups(rng: &mut StdRng, n: usize, g: usize) -> Vec<u32> {
        let lift = if rng.gen_range(0..2) == 0 {
            0
        } else {
            4 * n.max(16) as u32
        };
        let mut column: Vec<u32> = (0..n)
            .map(|i| if i < g { i } else { rng.gen_range(0..g) } as u32)
            .map(|v| lift + 3 * v)
            .collect();
        column.shuffle(rng);
        column
    }

    /// Distinct-value counts `(g_x, g_y)` for `n ≥ 5` records whose
    /// product is below `4n`, exactly `4n`, or above it: both sides of
    /// [`concordance_cached`]'s dispatch and the bound itself.
    fn groups_around_the_bound(rng: &mut StdRng, n: usize) -> (usize, usize) {
        match rng.gen_range(0..3) {
            0 => {
                let gx = rng.gen_range(1..=n);
                (gx, ((4 * n - 1) / gx).clamp(1, n))
            }
            1 => {
                // 4 always qualifies, with cofactor n.
                let gxs: Vec<usize> = (4..=n)
                    .filter(|&g| (4 * n).is_multiple_of(g) && 4 * n / g <= n)
                    .collect();
                let gx = gxs[rng.gen_range(0..gxs.len())];
                (gx, 4 * n / gx)
            }
            _ => {
                let gx = rng.gen_range(5..=n);
                (gx, 4 * n / gx + 1)
            }
        }
    }

    /// `(x, y)`: constant x, binary x against a 10⁶-domain y, both
    /// domains ≤ 4, two tie-free permutations, any mix of shapes, or
    /// columns whose distinct-value counts straddle the sweep's bound;
    /// one case in eight has n = 2. The property also scores `(y, x)`.
    fn concordance_case(rng: &mut StdRng) -> (Vec<u32>, Vec<u32>) {
        let n = if rng.gen_range(0..8) == 0 {
            2
        } else {
            rng.gen_range(2..=400)
        };
        let (sx, sy) = match rng.gen_range(0..7) {
            0 => (0, rng.gen_range(0..5)),
            1 => (1, 2),
            2 => (3, 3),
            3 => (4, 4),
            4 => (rng.gen_range(0..5), rng.gen_range(0..5)),
            _ => {
                let n = rng.gen_range(5..=400);
                let (gx, gy) = groups_around_the_bound(rng, n);
                return (
                    column_with_groups(rng, n, gx),
                    column_with_groups(rng, n, gy),
                );
            }
        };
        (column_of_shape(rng, sx, n), column_of_shape(rng, sy, n))
    }

    testkit::property_tests! {
        fn concordance_cached_matches_the_quadratic_integers(
            case in testkit::prop::Gen::new(concordance_case, |_| Vec::new()),
        ) {
            let (x, y) = case;
            let want = concordance_naive(&x, &y);
            let (rx, ry) = (RankedColumn::new(x), RankedColumn::new(y));
            testkit::prop_assert_eq!(concordance_cached(&rx, &ry), want);
            testkit::prop_assert_eq!(concordance_cached(&ry, &rx), want);
        }
    }

    #[test]
    fn concordance_cases_take_both_branches_and_the_bound() {
        // The property's cases, counted by the branch they take: the
        // sweep, the Fenwick walk, and the sweep at g_x·g_y = 4n exactly.
        let mut rng = StdRng::seed_from_u64(26);
        let (mut sweep, mut fenwick, mut at_bound) = (0, 0, 0);
        for _ in 0..256 {
            let (x, y) = concordance_case(&mut rng);
            let want = concordance_naive(&x, &y);
            let (rx, ry) = (RankedColumn::new(x), RankedColumn::new(y));
            assert_eq!(concordance_cached(&rx, &ry), want);
            assert_eq!(concordance_cached(&ry, &rx), want);
            if sweeps(&rx, &ry) {
                sweep += 1;
            } else {
                fenwick += 1;
            }
            at_bound += usize::from(rx.num_groups() * ry.num_groups() == 4 * rx.len());
        }
        assert!(
            sweep >= 32 && fenwick >= 32 && at_bound >= 8,
            "sweep {sweep}, fenwick {fenwick}, at the bound {at_bound}"
        );
    }

    #[test]
    fn sampling_strategy_reduces_rows_but_preserves_signal() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let x: Vec<u32> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
        let y: Vec<u32> = x.iter().map(|&v| (v / 2) + 1).collect();
        let cols = vec![x, y];
        // Auto samples 100 of the 20,000 rows at ε₂ = 1.
        let p = whole_table_tau(&cols, SamplingStrategy::Auto, 5, 1).unwrap();
        assert!(p[(0, 1)] > 0.8, "p01 = {}", p[(0, 1)]);
    }

    /// The parallel whole-table release: one shard spanning every row.
    fn whole_table_tau(
        cols: &[Vec<u32>],
        strategy: SamplingStrategy,
        seed: u64,
        workers: usize,
    ) -> Result<Matrix, crate::DpCopulaError> {
        let whole = crate::ShardSpec {
            start: 0,
            end: cols.first().map_or(0, Vec::len),
            seed_index: 0,
        };
        crate::shard::dp_tau_matrix_sharded(
            cols,
            &[whole],
            Epsilon::new(1.0).unwrap(),
            strategy,
            seed,
            workers,
            &MetricsSink::off(),
        )
    }

    #[test]
    fn par_tau_matrix_is_worker_count_invariant() {
        let mut rng = StdRng::seed_from_u64(12);
        let cols: Vec<Vec<u32>> = (0..4)
            .map(|_| (0..800).map(|_| rng.gen_range(0..50u32)).collect())
            .collect();
        let tau = |seed, workers| {
            whole_table_tau(&cols, SamplingStrategy::Fixed(300), seed, workers).unwrap()
        };
        let base = tau(99, 1);
        for workers in [2, 7] {
            assert_eq!(tau(99, workers), base, "workers={workers}");
        }
        // Different seed, different matrix.
        assert_ne!(tau(100, 1), base);
    }

    #[test]
    fn par_tau_matrix_rejects_degenerate_inputs() {
        let tau =
            |cols: &[Vec<u32>], workers| whole_table_tau(cols, SamplingStrategy::Full, 1, workers);
        assert_eq!(tau(&[], 1).unwrap_err(), crate::DpCopulaError::EmptyInput);
        assert!(matches!(
            tau(&[vec![1u32], vec![2u32]], 1).unwrap_err(),
            crate::DpCopulaError::TooFewRecords { .. }
        ));
        assert_eq!(tau(&[vec![1u32, 2, 3]], 4).unwrap(), Matrix::identity(1));
    }
}
