//! The sharded fit: how a fit partitions its rows and pools what each
//! shard contributes (DESIGN.md §12).
//!
//! The input rows are partitioned into contiguous disjoint shards
//! ([`shard_specs`]), and the one `RowReducer` of every fit reduces
//! them. Shards release nothing of their own; every mechanism runs once
//! over what the shards pool:
//!
//! * **Margins** — the reducer counts each attribute's values over every
//!   shard into one exact histogram, and the fit publishes each margin
//!   once from it at `ε₁/m`, on the 1-shard stream key
//!   `STREAM_MARGINS[j]`. A sharded fit therefore releases the 1-shard
//!   margins byte for byte.
//! * **Kendall's τ** — each shard draws its proportional share of the
//!   global record sample ([`partition_sample_target`],
//!   [`shard_locals`]); the shares pool, shard-major, into one τ sample,
//!   and the one Kendall kernel of [`crate::kendall`] releases it: one
//!   rank-and-score pass, one Laplace draw per attribute pair at the
//!   pooled sensitivity `4/(n+1)`. Under `Full` sampling that union is
//!   every row, so any shard count releases the unsharded matrix; under
//!   `Auto`/`Fixed` it is a different row set from the unsharded
//!   subsample.
//! * **Budget** — each release is made once over all rows, so the
//!   ledger is the unsharded fit's, whatever the shard count.

use crate::engine::STREAM_KENDALL_SAMPLE;
use crate::error::DpCopulaError;
use crate::kendall::{dp_tau_matrix, recommended_sample_size, SamplingStrategy};
use dpmech::Epsilon;
use mathkit::Matrix;
use obskit::MetricsSink;
use rngkit::seq::SliceRandom;
use std::sync::Mutex;

/// One shard of the fit input: a contiguous row range plus the logical
/// stream index its stochastic work derives under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// First row (inclusive).
    pub start: usize,
    /// One past the last row.
    pub end: usize,
    /// Logical RNG stream index of the shard's share of the Kendall row
    /// subsample, drawn from `stream_rng(base_seed,
    /// STREAM_KENDALL_SAMPLE, seed_index)` — shard 0 of a 1-shard fit
    /// therefore lands on exactly the pre-shard key. No other draw is
    /// keyed by shard.
    pub seed_index: u64,
}

impl ShardSpec {
    /// Number of rows in the shard.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the shard covers no rows (never true for specs produced
    /// by [`shard_specs`]).
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// Partitions `n` rows into `shards` contiguous, disjoint, non-empty
/// shards of near-equal size (the first `n % shards` shards get one
/// extra row), with `seed_index = shard index`.
///
/// # Panics
/// Panics when `shards` is zero or exceeds `n` — the engine validates
/// both with named errors before partitioning.
pub fn shard_specs(n: usize, shards: usize) -> Vec<ShardSpec> {
    assert!(shards >= 1, "shard_specs needs at least one shard");
    assert!(shards <= n, "shard_specs needs at least one row per shard");
    let base = n / shards;
    let extra = n % shards;
    let mut specs = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        specs.push(ShardSpec {
            start,
            end: start + len,
            seed_index: s as u64,
        });
        start += len;
    }
    specs
}

/// Splits a global row-sample target across shards proportionally to
/// their sizes, exactly: shard `s` covering rows `[start, end)` of `n`
/// gets `⌊target·end/n⌋ − ⌊target·start/n⌋` rows, which telescopes to
/// `target` in total, never exceeds the shard's size, and equals
/// `target` itself for a single shard.
pub fn partition_sample_target(target: usize, specs: &[ShardSpec]) -> Vec<usize> {
    let n = specs.last().map(|s| s.end).unwrap_or(0).max(1) as u128;
    let t = target as u128;
    specs
        .iter()
        .map(|s| ((t * s.end as u128) / n - (t * s.start as u128) / n) as usize)
        .collect()
}

/// Orders shard `spec`'s subsample plan for `target` rows by row:
/// `(local_row, slot)` for each sampled row, ascending, its slots
/// numbered from `first_slot` — what lets one pass in row order scatter
/// rows into the pooled sample while touching only the sampled rows.
/// It holds the shard's 4 B/row plan while the plan is drawn, then sorts
/// its 8 B picks by row in time linear in the picks: one counting pass
/// into buckets of a power-of-two run of rows, about one pick each, then
/// a sort of each bucket.
fn plan_picks(
    spec: ShardSpec,
    target: usize,
    first_slot: usize,
    base_seed: u64,
) -> Vec<(u32, u32)> {
    let locals = planned_locals(spec, target, base_seed);
    let shift = (spec.len() / locals.len().max(1)).max(1).ilog2();
    // Bucket b's pick count, then its first index, then its end.
    let mut ends = vec![0u32; (spec.len() >> shift) + 1];
    for &local in &locals {
        ends[(local >> shift) as usize] += 1;
    }
    let mut start = 0;
    for end in &mut ends {
        (*end, start) = (start, start + *end);
    }
    let mut picks = vec![(0, 0); locals.len()];
    for (s, &local) in locals.iter().enumerate() {
        let next = &mut ends[(local >> shift) as usize];
        let slot = u32::try_from(first_slot + s).expect("sample slots fit a u32");
        picks[*next as usize] = (local, slot);
        *next += 1;
    }
    let mut start = 0;
    for &end in &ends {
        if end as usize > start + 1 {
            // Local rows are distinct, so the order is total.
            picks[start..end as usize].sort_unstable();
        }
        start = end as usize;
    }
    picks
}

/// What a [`RowReducer`] hands on: `exact[attribute][bin]` and the
/// pooled τ sample, `sampled[attribute][slot]`.
pub(crate) type Reduced = (Vec<Vec<u64>>, Vec<Vec<u32>>);

/// Domains up to this many values count in [`LANES`] interleaved lane
/// histograms; larger ones count in one lane.
const LANE_DOMAIN_MAX: usize = 1 << 12;

/// Lanes of a small domain's histogram. Consecutive values land in
/// different lanes, so a run of equal values — a skewed binary column —
/// increments four counters in turn instead of waiting on one.
const LANES: usize = 4;

/// Values a lane histogram takes between folds: no `u32` bin can
/// overflow before the next fold.
const FOLD_EVERY: usize = u32::MAX as usize;

/// One attribute's part of a [`RowReducer`]: its exact counts over every
/// shard and its column of the pooled τ sample.
struct ReducedColumn {
    /// [`LANES`], or 1 above [`LANE_DOMAIN_MAX`].
    width: usize,
    /// `lanes[bin * width + lane]` for bins `0..=d`: the counts not yet
    /// folded into `counts`. Bin `d` is the sentinel every out-of-domain
    /// value lands in.
    lanes: Vec<u32>,
    /// Values counted into `lanes` since the last fold.
    pending: usize,
    counts: Vec<u64>,
    sampled: Vec<u32>,
}

impl ReducedColumn {
    fn new(domain: usize, pooled: usize) -> Self {
        let width = if domain <= LANE_DOMAIN_MAX { LANES } else { 1 };
        Self {
            width,
            lanes: vec![0; (domain + 1) * width],
            pending: 0,
            counts: vec![0; domain],
            sampled: vec![0; pooled],
        }
    }

    /// Counts `values` into the lanes, folding first whenever a bin
    /// could otherwise overflow. It stops once the sentinel is hit, so
    /// no fold clears the hit before [`ReducedColumn::out_of_domain`]
    /// reads it.
    fn count(&mut self, values: &[u32]) {
        for part in values.chunks(FOLD_EVERY) {
            if part.len() > FOLD_EVERY - self.pending {
                self.fold();
            }
            match self.width {
                1 => count_into::<1>(&mut self.lanes, part),
                _ => count_into::<LANES>(&mut self.lanes, part),
            }
            self.pending += part.len();
            if self.out_of_domain() {
                return;
            }
        }
    }

    /// Whether a value past the domain has been counted.
    fn out_of_domain(&self) -> bool {
        let sentinel = self.counts.len() * self.width;
        self.lanes[sentinel..].iter().any(|&c| c != 0)
    }

    /// Adds every lane's bins into `counts` and clears the lanes.
    fn fold(&mut self) {
        let bins = self.lanes.chunks_exact(self.width);
        for (count, bin) in self.counts.iter_mut().zip(bins) {
            *count += bin.iter().map(|&c| u64::from(c)).sum::<u64>();
        }
        self.lanes.fill(0);
        self.pending = 0;
    }
}

/// Counts each value into `lanes`, `W` interleaved histograms whose last
/// bin catches every value past the others: value `i` of each run of `W`
/// goes to lane `i`.
fn count_into<const W: usize>(lanes: &mut [u32], values: &[u32]) {
    let (bins, _) = lanes.as_chunks_mut::<W>();
    let top = bins.len() - 1;
    let (runs, tail) = values.as_chunks::<W>();
    for run in runs {
        for (lane, &v) in run.iter().enumerate() {
            bins[(v as usize).min(top)][lane] += 1;
        }
    }
    for (lane, &v) in tail.iter().enumerate() {
        bins[(v as usize).min(top)][lane] += 1;
    }
}

/// The one row loop of every fit: reduces the input rows of some shards
/// to one **exact** histogram per attribute and their pooled Kendall
/// record sample, checking every value against its attribute's domain
/// on the way. The pooled sample is shard-major: shard `s`'s rows, in
/// [`shard_locals`] plan order, fill the slots after the earlier shards'
/// shares.
///
/// Rows arrive column-major in consecutive blocks: a resident input is
/// one [`RowReducer::push`] of all its columns, a [`datagen::RowSource`]
/// one push per block. Attributes are independent, so a large push fans
/// out one task per attribute. Each attribute counts in one pass through
/// `u32` lane histograms with a sentinel bin for out-of-domain values
/// (four interleaved lanes up to a domain of 4,096 values, one above),
/// which persist across pushes and fold into the `u64` counts at
/// [`RowReducer::finish`], or sooner if a lane could overflow. The
/// counts equal what `Histogram1D::from_values` builds on the rows of
/// every shard, so the published margins do not depend on how the input
/// was split into shards, blocks or tasks.
pub(crate) struct RowReducer {
    domains: Vec<usize>,
    specs: Vec<ShardSpec>,
    /// Per shard, [`plan_picks`] of its share of the pooled sample;
    /// empty when the fit takes no τ sample.
    picks: Vec<Vec<(u32, u32)>>,
    /// Per attribute; each push task locks only its own.
    columns: Vec<Mutex<ReducedColumn>>,
    rows: usize,
}

impl RowReducer {
    /// A reducer over the rows of `specs` — every shard of an in-process
    /// fit, in [`shard_specs`] order, or the one shard of a shard worker
    /// — whose first pushed row is row `specs[0].start`. `targets[s]` is shard `s`'s share of the
    /// Kendall subsample ([`partition_sample_target`]); `None` takes no
    /// subsample (one attribute, or an estimator that reads raw rows).
    /// The shards' subsample plans are drawn across `workers` threads.
    pub(crate) fn new(
        domains: &[usize],
        specs: &[ShardSpec],
        targets: Option<&[usize]>,
        base_seed: u64,
        workers: usize,
    ) -> Self {
        let picks: Vec<Vec<(u32, u32)>> = match targets {
            Some(targets) => parkit::par_map(workers, specs, |s, &spec| {
                plan_picks(spec, targets[s], targets[..s].iter().sum(), base_seed)
            }),
            None => Vec::new(),
        };
        let pooled = picks.iter().map(Vec::len).sum();
        let columns = domains
            .iter()
            .map(|&d| Mutex::new(ReducedColumn::new(d, pooled)))
            .collect();
        Self {
            domains: domains.to_vec(),
            specs: specs.to_vec(),
            picks,
            columns,
            rows: 0,
        }
    }

    /// Adds the next block of rows, `columns[j][i]` being row `i`'s value
    /// of attribute `j` — one task per attribute across `workers` threads
    /// when the block is large enough to pay for the fan-out, inline
    /// otherwise. Rows past the last shard are counted by
    /// [`RowReducer::rows`] but not read.
    ///
    /// A block with the wrong number of columns is an
    /// [`DpCopulaError::ArityMismatch`]; an out-of-domain value is a
    /// [`DpCopulaError::ValueOutOfDomain`] naming the block's lowest
    /// offending attribute, then its lowest offending row. After an
    /// error the reducer is spent.
    pub(crate) fn push(
        &mut self,
        columns: &[Vec<u32>],
        workers: usize,
    ) -> Result<(), DpCopulaError> {
        if columns.len() != self.domains.len() {
            return Err(DpCopulaError::ArityMismatch {
                columns: columns.len(),
                domains: self.domains.len(),
            });
        }
        let first = self.specs[0].start + self.rows;
        let len = columns.first().map_or(0, Vec::len);
        // Below this many values a fan-out costs more than it saves.
        let workers = if len * columns.len() < 1 << 18 {
            1
        } else {
            workers
        };
        // The shards cover one run of rows; this block's part of it.
        let read = self.specs[self.specs.len() - 1]
            .end
            .saturating_sub(first)
            .min(len);
        let reduced = parkit::par_map(workers, &self.columns, |j, column| {
            let mut column = column.lock().expect("one task per attribute");
            let values = &columns[j][..read];
            column.count(values);
            if column.out_of_domain() {
                // The sentinel caught a value; the rescan names the first.
                let domain = self.domains[j];
                let value = values.iter().copied().find(|&v| v as usize >= domain);
                let value = value.expect("the sentinel counted an out-of-domain value");
                return Err(DpCopulaError::ValueOutOfDomain {
                    dim: j,
                    value,
                    domain,
                });
            }
            for (spec, picks) in self.specs.iter().zip(&self.picks) {
                // The shard's sampled rows inside this block.
                let (lo, hi) = (spec.start.max(first), spec.end.min(first + read));
                if lo >= hi {
                    continue;
                }
                let (a, b) = (lo - spec.start, hi - spec.start);
                let from = picks.partition_point(|&(local, _)| (local as usize) < a);
                let to = picks.partition_point(|&(local, _)| (local as usize) < b);
                for &(local, slot) in &picks[from..to] {
                    column.sampled[slot as usize] = values[spec.start + local as usize - first];
                }
            }
            Ok(())
        });
        // Results come back in attribute order: the first error is the
        // lowest attribute's.
        reduced.into_iter().collect::<Result<(), _>>()?;
        self.rows += len;
        Ok(())
    }

    /// Rows pushed so far.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// The exact counts and the pooled sample, whose columns are empty
    /// when none was planned.
    pub(crate) fn finish(self) -> Reduced {
        self.columns
            .into_iter()
            .map(|column| {
                let mut column = column.into_inner().expect("one task per attribute");
                column.fold();
                (column.counts, column.sampled)
            })
            .unzip()
    }
}

/// The global Kendall record-sample target for `n` rows of `m`
/// attributes under `strategy` — the pre-shard rule, shared verbatim by
/// the in-process fit and the distributed `fit-shard` path (which must
/// replicate the plan from the *global* row count, not its part's).
pub fn kendall_sample_target(
    m: usize,
    n: usize,
    strategy: SamplingStrategy,
    eps2_total: Epsilon,
) -> usize {
    match strategy {
        SamplingStrategy::Full => n,
        SamplingStrategy::Auto => recommended_sample_size(m, eps2_total.value()).min(n),
        SamplingStrategy::Fixed(k) => k.clamp(2, n),
    }
}

/// The shard's subsample plan: which local rows (0-based within the
/// shard) participate in the τ estimate, in sample order. Shuffles with
/// `stream_rng(base_seed, STREAM_KENDALL_SAMPLE, seed_index)` only when
/// the target truncates the shard — the pre-shard guard that keeps
/// `Full` sampling allocation-order-stable.
pub fn shard_locals(spec: ShardSpec, target: usize, base_seed: u64) -> Vec<usize> {
    planned_locals(spec, target, base_seed)
        .into_iter()
        .map(|local| local as usize)
        .collect()
}

/// [`shard_locals`] as `u32` rows. A truncating plan shuffles a `u32`
/// index array with the `usize` draws a `usize` array takes, so the
/// permutation is the same in half the memory.
fn planned_locals(spec: ShardSpec, target: usize, base_seed: u64) -> Vec<u32> {
    let shard_n = u32::try_from(spec.len()).expect("shard rows fit a u32 plan");
    let mut all: Vec<u32> = (0..shard_n).collect();
    if target < spec.len() {
        let mut rng = parkit::stream_rng(base_seed, STREAM_KENDALL_SAMPLE, spec.seed_index);
        all.shuffle(&mut rng);
        all.truncate(target);
    }
    all
}

/// The sharded DP Kendall-τ estimator end to end: pools every shard's
/// share of the record sample ([`shard_locals`], shard-major) and
/// releases the **raw** (pre-repair) matrix through the one Kendall
/// kernel — the τ half of a sharded fit. Under `SamplingStrategy::Full`
/// the pooled sample is every row, so any shard count releases the same
/// matrix.
///
/// The bare estimator has no domains and publishes no margins, so it
/// picks its sample rows straight from the plan instead of running a
/// fit's `RowReducer`.
pub fn dp_tau_matrix_sharded(
    columns: &[Vec<u32>],
    specs: &[ShardSpec],
    eps2_total: Epsilon,
    strategy: SamplingStrategy,
    base_seed: u64,
    workers: usize,
    sink: &MetricsSink,
) -> Result<Matrix, DpCopulaError> {
    let m = columns.len();
    if m == 0 {
        return Err(DpCopulaError::EmptyInput);
    }
    if m == 1 {
        return Ok(Matrix::identity(1));
    }
    let n = columns[0].len();
    if n < 2 {
        return Err(DpCopulaError::TooFewRecords {
            records: n,
            required: 2,
        });
    }
    let targets = partition_sample_target(kendall_sample_target(m, n, strategy, eps2_total), specs);
    let rows: Vec<usize> = specs
        .iter()
        .zip(&targets)
        .flat_map(|(&spec, &target)| {
            shard_locals(spec, target, base_seed)
                .into_iter()
                .map(move |r| spec.start + r)
        })
        .collect();
    let pooled = columns
        .iter()
        .map(|col| rows.iter().map(|&r| col[r]).collect())
        .collect();
    Ok(dp_tau_matrix(pooled, eps2_total, base_seed, workers, sink))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{publish_margins, STREAM_KENDALL_NOISE, STREAM_MARGINS};
    use crate::kendall::{kendall_sensitivity, kendall_tau_naive};
    use dphist::histogram::Histogram1D;
    use dphist::MarginRegistry;
    use dpmech::laplace_noise;
    use rngkit::rngs::StdRng;
    use rngkit::{Rng, SeedableRng};
    use testkit::prop::Gen;

    fn off() -> MetricsSink {
        MetricsSink::off()
    }

    fn test_columns(m: usize, n: usize, domain: u32, seed: u64) -> Vec<Vec<u32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let base: Vec<u32> = (0..n).map(|_| rng.gen_range(0..domain)).collect();
        (0..m)
            .map(|j| {
                base.iter()
                    .map(|&v| (v + rng.gen_range(0..domain / 4) + j as u32) % domain)
                    .collect()
            })
            .collect()
    }

    /// The sharded τ release rendered independently: the union of every
    /// shard's planned rows, the quadratic τ of each pair, pair `k`'s
    /// Laplace draw at the pooled sensitivity, then `sin(π/2·τ)`.
    fn pooled_oracle(
        columns: &[Vec<u32>],
        specs: &[ShardSpec],
        eps2_total: Epsilon,
        strategy: SamplingStrategy,
        seed: u64,
    ) -> Matrix {
        let (m, n) = (columns.len(), columns[0].len());
        let targets =
            partition_sample_target(kendall_sample_target(m, n, strategy, eps2_total), specs);
        let mut rows = Vec::new();
        for (&spec, &target) in specs.iter().zip(&targets) {
            rows.extend(
                shard_locals(spec, target, seed)
                    .iter()
                    .map(|r| spec.start + r),
            );
        }
        let pooled: Vec<Vec<u32>> = columns
            .iter()
            .map(|col| rows.iter().map(|&r| col[r]).collect())
            .collect();
        let eps_pair = eps2_total.divide(m * (m - 1) / 2);
        let mut p = Matrix::identity(m);
        let mut k = 0;
        for i in 0..m {
            for j in (i + 1)..m {
                let tau = kendall_tau_naive(&pooled[i], &pooled[j]);
                let mut rng = parkit::stream_rng(seed, STREAM_KENDALL_NOISE, k);
                let noisy = tau
                    + laplace_noise(&mut rng, kendall_sensitivity(rows.len()) / eps_pair.value());
                p[(i, j)] = (std::f64::consts::FRAC_PI_2 * noisy).sin();
                p[(j, i)] = p[(i, j)];
                k += 1;
            }
        }
        p
    }

    fn bits(p: &Matrix) -> Vec<u64> {
        p.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// One oracle case: columns over a small, medium or huge domain, a
    /// shard count up to the row count, and `Full` or a `Fixed` target
    /// small enough that some shards sample zero or one row.
    #[derive(Debug, Clone)]
    struct OracleCase {
        columns: Vec<Vec<u32>>,
        shards: usize,
        strategy: SamplingStrategy,
        seed: u64,
        workers: usize,
    }

    fn oracle_case(rng: &mut StdRng) -> OracleCase {
        let m = rng.gen_range(2..=5);
        let n = rng.gen_range(2..=300);
        let domain = [3u32, 50, 1_000_000][rng.gen_range(0..3usize)];
        let shards = rng.gen_range(1..=6usize.min(n));
        let strategy = if rng.gen_range(0..2) == 0 {
            SamplingStrategy::Full
        } else {
            SamplingStrategy::Fixed(rng.gen_range(2..=2 * shards))
        };
        OracleCase {
            columns: (0..m)
                .map(|_| (0..n).map(|_| rng.gen_range(0..domain)).collect())
                .collect(),
            shards,
            strategy,
            seed: rng.gen(),
            workers: rng.gen_range(1..=3),
        }
    }

    testkit::property_tests! {
        fn sharded_tau_is_the_pooled_oracle_bit_for_bit(
            case in Gen::new(oracle_case, |_| Vec::new()),
        ) {
            let n = case.columns[0].len();
            let specs = shard_specs(n, case.shards);
            let eps = Epsilon::new(0.7).unwrap();
            let got = dp_tau_matrix_sharded(
                &case.columns, &specs, eps, case.strategy, case.seed, case.workers, &off(),
            )
            .map_err(|e| e.to_string())?;
            let want = pooled_oracle(&case.columns, &specs, eps, case.strategy, case.seed);
            testkit::prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    /// Exact counts through the fit's reducer, in one push.
    fn exact_counts(cols: &[Vec<u32>], domains: &[usize], specs: &[ShardSpec]) -> Vec<Vec<u64>> {
        let mut reducer = RowReducer::new(domains, specs, None, 0, 1);
        reducer.push(cols, 1).unwrap();
        reducer.finish().0
    }

    /// A column's exact histogram, as the reducer counts it.
    fn histogram(col: &[u32], domain: usize) -> Vec<u64> {
        let hist = Histogram1D::from_values(col, domain);
        hist.counts().iter().map(|&c| c as u64).collect()
    }

    #[test]
    fn reducer_matches_slice_histograms_and_plan_order_at_any_block_split() {
        let cols = test_columns(3, 1_001, 24, 12);
        let domains = [24usize; 3];
        for shards in [1usize, 3] {
            let specs = shard_specs(1_001, shards);
            let targets = partition_sample_target(400, &specs);
            for block in [1usize, 2, 7, 8, 10, 1_001] {
                let mut reducer = RowReducer::new(&domains, &specs, Some(&targets), 5, 2);
                for start in (0..1_001).step_by(block) {
                    let end = (start + block).min(1_001);
                    let part: Vec<Vec<u32>> = cols.iter().map(|c| c[start..end].to_vec()).collect();
                    reducer.push(&part, 2).unwrap();
                }
                assert_eq!(reducer.rows(), 1_001);
                let (exact, sampled) = reducer.finish();
                // One histogram per attribute over every shard's rows.
                for (j, col) in cols.iter().enumerate() {
                    let want = histogram(col, domains[j]);
                    assert_eq!(exact[j], want, "shards={shards} block={block}");
                }
                // Shard-major: shard s's share follows the earlier ones.
                let mut first = 0;
                for (s, spec) in specs.iter().enumerate() {
                    let locals = shard_locals(*spec, targets[s], 5);
                    for (j, col) in cols.iter().enumerate() {
                        let slice = &col[spec.start..spec.end];
                        let plan: Vec<u32> = locals.iter().map(|&r| slice[r]).collect();
                        assert_eq!(
                            sampled[j][first..first + targets[s]],
                            plan[..],
                            "shards={shards} block={block}"
                        );
                    }
                    first += targets[s];
                }
                assert!(sampled.iter().all(|col| col.len() == 400));
            }
        }
    }

    #[test]
    fn lane_histograms_fold_into_the_exact_counts() {
        // Four lanes up to LANE_DOMAIN_MAX, one above; a fold adds every
        // lane's bins to the counts and clears them, so folding between
        // two counts changes nothing.
        for domain in [1usize, 2, 5, LANE_DOMAIN_MAX, LANE_DOMAIN_MAX + 1] {
            let values: Vec<u32> = (0..10_003u32)
                .map(|i| (i * 7 + i / 3) % domain as u32)
                .collect();
            let mut column = ReducedColumn::new(domain, 0);
            assert_eq!(
                column.width,
                if domain <= LANE_DOMAIN_MAX { LANES } else { 1 }
            );
            column.count(&values[..5_001]);
            column.fold();
            column.count(&values[5_001..]);
            assert!(!column.out_of_domain(), "domain {domain}");
            column.fold();
            assert_eq!(column.counts, histogram(&values, domain), "domain {domain}");
            assert!(column.lanes.iter().all(|&c| c == 0));
        }
        // As if billions of values were pending: a count that could
        // overflow a bin folds the earlier ones first.
        let mut column = ReducedColumn::new(3, 0);
        column.count(&[0, 1, 2]);
        column.pending = FOLD_EVERY - 2;
        column.count(&[2, 2, 2]);
        assert_eq!(
            (column.counts.as_slice(), column.pending),
            (&[1, 1, 1][..], 3)
        );
    }

    #[test]
    fn reducer_refuses_blocks_of_the_wrong_arity() {
        let mut reducer = RowReducer::new(&[4, 4], &shard_specs(4, 2), None, 0, 1);
        assert_eq!(
            reducer.push(&[vec![0, 1]], 1).unwrap_err(),
            DpCopulaError::ArityMismatch {
                columns: 1,
                domains: 2
            }
        );
    }

    #[test]
    fn shard_specs_partition_exactly() {
        for (n, shards) in [(10, 1), (10, 3), (7, 7), (1000, 4), (11, 2)] {
            let specs = shard_specs(n, shards);
            assert_eq!(specs.len(), shards);
            assert_eq!(specs[0].start, 0);
            assert_eq!(specs.last().unwrap().end, n);
            for (s, w) in specs.windows(2).enumerate() {
                assert_eq!(w[0].end, w[1].start, "n={n} shards={shards} s={s}");
            }
            for (s, spec) in specs.iter().enumerate() {
                assert!(!spec.is_empty());
                assert_eq!(spec.seed_index, s as u64);
                // Balanced: sizes differ by at most one.
                assert!(spec.len() == n / shards || spec.len() == n / shards + 1);
            }
        }
    }

    #[test]
    fn sample_target_partition_is_exact_and_proportional() {
        for (n, shards, target) in [(100, 1, 37), (100, 4, 37), (11, 3, 11), (5000, 7, 2700)] {
            let specs = shard_specs(n, shards);
            let targets = partition_sample_target(target, &specs);
            assert_eq!(
                targets.iter().sum::<usize>(),
                target,
                "n={n} shards={shards}"
            );
            for (spec, &t) in specs.iter().zip(&targets) {
                assert!(t <= spec.len(), "target share exceeds shard size");
            }
            if shards == 1 {
                assert_eq!(targets, vec![target]);
            }
        }
    }

    #[test]
    fn one_shard_tau_matrix_matches_unsharded_bitwise() {
        // One shard's plan is the pre-shard subsample (stream index 0),
        // so the 1-shard release is the unsharded estimator — under Auto
        // too, which the oracle property does not draw.
        let cols = test_columns(4, 3_000, 50, 5);
        let eps = Epsilon::new(0.5).unwrap();
        for strategy in [
            SamplingStrategy::Full,
            SamplingStrategy::Auto,
            SamplingStrategy::Fixed(700),
        ] {
            let specs = shard_specs(cols[0].len(), 1);
            let sharded =
                dp_tau_matrix_sharded(&cols, &specs, eps, strategy, 42, 2, &off()).unwrap();
            let plain = pooled_oracle(&cols, &specs, eps, strategy, 42);
            assert_eq!(bits(&sharded), bits(&plain), "{strategy:?}");
        }
    }

    #[test]
    fn full_strategy_is_shard_count_invariant_bitwise() {
        // Under Full sampling the merge is exact and the noise stream
        // depends only on the pair id, so ANY shard count releases the
        // identical matrix.
        let cols = test_columns(3, 901, 40, 6);
        let eps = Epsilon::new(1.0).unwrap();
        let one = dp_tau_matrix_sharded(
            &cols,
            &shard_specs(901, 1),
            eps,
            SamplingStrategy::Full,
            7,
            1,
            &off(),
        )
        .unwrap();
        for shards in [2, 3, 5] {
            let many = dp_tau_matrix_sharded(
                &cols,
                &shard_specs(901, shards),
                eps,
                SamplingStrategy::Full,
                7,
                4,
                &off(),
            )
            .unwrap();
            assert_eq!(many, one, "shards={shards}");
        }
    }

    #[test]
    fn sharded_tau_is_worker_count_invariant() {
        let cols = test_columns(4, 1_200, 30, 8);
        let eps = Epsilon::new(1.0).unwrap();
        let tau = |specs: &[ShardSpec], seed, workers| {
            dp_tau_matrix_sharded(
                &cols,
                specs,
                eps,
                SamplingStrategy::Fixed(400),
                seed,
                workers,
                &off(),
            )
            .unwrap()
        };
        for shards in [3, 4] {
            let specs = shard_specs(1_200, shards);
            let base = tau(&specs, 3, 1);
            for workers in [2, 7] {
                assert_eq!(
                    tau(&specs, 3, workers),
                    base,
                    "shards={shards} workers={workers}"
                );
            }
            // A different seed draws a different sample and noise.
            assert_ne!(tau(&specs, 4, 1), base, "shards={shards}");
        }
    }

    #[test]
    fn one_shard_margin_summary_uses_pre_shard_streams() {
        // Attribute j publishes on the pre-shard key `STREAM_MARGINS[j]`
        // from its whole column's counts, at any shard count: publishing
        // the reducer's counts must equal publishing directly.
        let cols = test_columns(3, 500, 16, 10);
        let domains = [16usize, 16, 16];
        let eps_margin = Epsilon::new(0.2).unwrap();
        for shards in [1usize, 3] {
            let exact = exact_counts(&cols, &domains, &shard_specs(500, shards));
            let published = publish_margins(&exact, "efpa", eps_margin, 13, 2, &off());
            for (j, col) in cols.iter().enumerate() {
                let exact = Histogram1D::from_values(col, domains[j]);
                let mut rng = parkit::stream_rng(13, STREAM_MARGINS, j as u64);
                let direct = MarginRegistry::builtin()
                    .publish("efpa", exact.counts(), eps_margin, &mut rng)
                    .unwrap();
                assert_eq!(published[j], direct, "shards={shards} attr {j}");
            }
        }
    }

    #[test]
    fn tiny_shards_fall_back_to_cross_terms_only() {
        // 2 records over 2 shards: each shard samples one record, too few
        // for a τ of its own, so the one pooled pair spans both shards
        // and carries the whole signal — and must not panic.
        let cols = vec![vec![0u32, 1], vec![0u32, 1]];
        let specs = shard_specs(2, 2);
        let p = dp_tau_matrix_sharded(
            &cols,
            &specs,
            Epsilon::new(5.0).unwrap(),
            SamplingStrategy::Full,
            1,
            1,
            &off(),
        )
        .unwrap();
        assert_eq!((p.rows(), p.cols()), (2, 2));
        assert!(p[(0, 1)].is_finite());
    }

    #[test]
    fn sharded_rejects_degenerate_inputs() {
        // The input guards run before the shard plan is read.
        let eps = Epsilon::new(1.0).unwrap();
        let specs = shard_specs(3, 3);
        let tau = |cols: &[Vec<u32>]| {
            dp_tau_matrix_sharded(cols, &specs, eps, SamplingStrategy::Full, 1, 4, &off())
        };
        assert_eq!(tau(&[]).unwrap_err(), DpCopulaError::EmptyInput);
        assert!(matches!(
            tau(&[vec![1u32], vec![2u32]]).unwrap_err(),
            DpCopulaError::TooFewRecords { .. }
        ));
        assert_eq!(tau(&[vec![1u32, 2, 3]]).unwrap(), Matrix::identity(1));
    }
}
