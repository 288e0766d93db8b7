//! The mergeable-summary layer of the sharded fit pipeline.
//!
//! Every fit stage consumes **mergeable summaries** instead of raw
//! columns: the input rows are partitioned into contiguous disjoint
//! shards, each shard independently reduces its rows to a
//! [`ShardSummary`], and the summaries merge into exactly one model
//! (DESIGN.md §12). The single-shard fit is the 1-shard case of this
//! path — not a separate implementation — and reproduces the pre-shard
//! pipeline byte for byte (pinned in `tests/shard_pin.rs`).
//!
//! What merges, and how exactly:
//!
//! * **Margins** — each shard publishes its own noisy histogram per
//!   attribute through the [`MarginRegistry`]; merged counts are the
//!   per-bin sums. Shards hold disjoint rows, so by parallel composition
//!   (Theorem 3.2) the combined cost per attribute is the per-shard
//!   **maximum** `ε₁/m`, not the sum — sharding is privacy-free for the
//!   margins, paying instead with one extra noise term per shard in the
//!   merged histogram.
//! * **Kendall's τ** — each shard draws its proportional share of the
//!   global record sample ([`partition_sample_target`],
//!   [`shard_locals`]); the shares pool, shard-major, into one τ sample,
//!   and the one Kendall kernel of [`crate::kendall`] releases it: one
//!   rank-and-score pass, one Laplace draw per attribute pair at the
//!   pooled sensitivity `4/(n+1)`. The sharded release is therefore the
//!   unsharded mechanism over the union of the shards' samples, exact
//!   by construction, and its cost does not grow with the shard count.
//!   Under `Full` sampling that union is every row, so any shard count
//!   releases the unsharded matrix; under `Auto`/`Fixed` it is a
//!   different row set from the unsharded subsample.
//! * **Budget** — each shard keeps a [`ShardLedger`] of what its own
//!   mechanisms spent. A sharded artifact (format v2) lists every
//!   shard's entries, and `shard_eps_spent_neps` counts them. The
//!   combined entries the artifact reports are written from `ε₁` and
//!   `ε₂` when it is assembled: shards hold disjoint rows, so by parallel
//!   composition the combined cost per label is the per-shard maximum,
//!   which for the identical sub-ledgers of one fit is any one shard's.
//!   The fold's `BudgetAccountant` only checks the total and publishes
//!   the spend series. [`ShardLedger::merge_parallel`] computes the
//!   per-label maximum; the tests hold the sub-ledgers to it.

use crate::engine::{harvest_draws, STREAM_KENDALL_SAMPLE, STREAM_MARGINS};
use crate::error::DpCopulaError;
use crate::kendall::{dp_tau_matrix, recommended_sample_size, SamplingStrategy};
use dphist::MarginRegistry;
use dpmech::{Epsilon, ShardLedger};
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
    /// Logical RNG stream index of the shard: the Kendall row subsample
    /// draws from `stream_rng(base_seed, STREAM_KENDALL_SAMPLE,
    /// seed_index)` and attribute `j`'s margin noise from stream index
    /// `seed_index * m + j` — shard 0 of a 1-shard fit therefore lands
    /// on exactly the pre-shard stream keys.
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

/// Everything one shard contributes to the merged margins and ledger:
/// its noisy margin histograms and its privacy-budget sub-ledger. (Its
/// τ sample pools with the other shards' before the one Kendall pass.)
#[derive(Debug, Clone)]
pub struct ShardSummary {
    /// The rows and stream index this summary covers.
    pub spec: ShardSpec,
    /// Noisy histogram counts, one per attribute (published through the
    /// `MarginRegistry` at the full per-attribute `ε₁/m` — parallel
    /// composition across shards keeps that the combined cost).
    pub noisy_margins: Vec<Vec<f64>>,
    /// The shard's own budget expenditures.
    pub ledger: ShardLedger,
}

/// Orders shard `spec`'s subsample plan for `target` rows by row:
/// `(local_row, slot)` for each sampled row, ascending, its slots
/// numbered from `first_slot` — what lets one pass in row order scatter
/// rows into the pooled sample while touching only the sampled rows.
/// Linear in the shard's size, through a transient 4 B/row slot map.
fn plan_picks(
    spec: ShardSpec,
    target: usize,
    first_slot: usize,
    base_seed: u64,
) -> Vec<(u32, u32)> {
    let mut slots = vec![u32::MAX; spec.len()];
    for (slot, &local) in shard_locals(spec, target, base_seed).iter().enumerate() {
        slots[local] = u32::try_from(first_slot + slot).expect("sample slots fit a u32");
    }
    slots
        .iter()
        .enumerate()
        .filter(|&(_, &slot)| slot != u32::MAX)
        .map(|(local, &slot)| {
            let local = u32::try_from(local).expect("shard rows fit a u32 pick");
            (local, slot)
        })
        .collect()
}

/// What a [`RowReducer`] hands on: `exact[shard][attribute][bin]` and
/// the pooled τ sample, `sampled[attribute][slot]`.
pub(crate) type Reduced = (Vec<Vec<Vec<f64>>>, Vec<Vec<u32>>);

/// One attribute's part of a [`RowReducer`]: its exact counts per shard
/// and its column of the pooled τ sample.
struct ReducedColumn {
    counts: Vec<Vec<u64>>,
    sampled: Vec<u32>,
}

/// The one row loop of every fit: reduces the input rows of some shards
/// to their **exact** histogram counts and their pooled Kendall record
/// sample, checking every value against its attribute's domain on the
/// way. The pooled sample is shard-major: shard `s`'s rows, in
/// [`shard_locals`] plan order, fill the slots after the earlier shards'
/// shares.
///
/// Rows arrive column-major in consecutive blocks: a resident input is
/// one [`RowReducer::push`] of all its columns, a [`datagen::RowSource`]
/// one push per block. Attributes are independent, so a large push fans
/// out one task per attribute. The counts equal what
/// `Histogram1D::from_values` builds on each shard's slice, so the
/// published margins do not depend on how the input was split into
/// blocks or tasks.
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
    /// fit, or the one shard of a shard worker — whose first pushed row
    /// is row `specs[0].start`. `targets[s]` is shard `s`'s share of the
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
            .map(|&d| {
                Mutex::new(ReducedColumn {
                    counts: specs.iter().map(|_| vec![0; d]).collect(),
                    sampled: vec![0; pooled],
                })
            })
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
    /// offending attribute, then its lowest offending row.
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
        let reduced = parkit::par_map(workers, &self.columns, |j, column| {
            let mut column = column.lock().expect("one task per attribute");
            for (s, spec) in self.specs.iter().enumerate() {
                let (lo, hi) = (spec.start.max(first), spec.end.min(first + len));
                if lo >= hi {
                    continue;
                }
                let values = &columns[j][lo - first..hi - first];
                let counts = &mut column.counts[s];
                for &v in values {
                    match counts.get_mut(v as usize) {
                        Some(c) => *c += 1,
                        None => {
                            return Err(DpCopulaError::ValueOutOfDomain {
                                dim: j,
                                value: v,
                                domain: self.domains[j],
                            })
                        }
                    }
                }
                if let Some(picks) = self.picks.get(s) {
                    // The shard's sampled rows inside this block.
                    let (a, b) = (lo - spec.start, hi - spec.start);
                    let from = picks.partition_point(|&(local, _)| (local as usize) < a);
                    let to = picks.partition_point(|&(local, _)| (local as usize) < b);
                    for &(local, slot) in &picks[from..to] {
                        column.sampled[slot as usize] = values[local as usize - a];
                    }
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

    /// The exact counts (as the `f64` histogram bins the margin
    /// mechanisms take) and the pooled sample, whose columns are empty
    /// when none was planned.
    pub(crate) fn finish(self) -> Reduced {
        let shards = self.specs.len();
        let mut exact: Vec<Vec<Vec<f64>>> = vec![Vec::new(); shards];
        let mut sampled = Vec::with_capacity(self.columns.len());
        for column in self.columns {
            let column = column.into_inner().expect("one task per attribute");
            for (shard, counts) in exact.iter_mut().zip(column.counts) {
                shard.push(counts.into_iter().map(|c| c as f64).collect());
            }
            sampled.push(column.sampled);
        }
        (exact, sampled)
    }
}

/// Builds one summary per shard with the margin layer filled in from the
/// exact histogram counts a `RowReducer` gathered
/// (`exact[shard][attribute][bin]`): one noisy histogram per
/// `(shard, attribute)` task, fanned out across `workers` under the
/// `margins` stage, each keyed by stream index `shard * m + attribute`.
pub fn build_margin_summaries_from_counts(
    exact: &[Vec<Vec<f64>>],
    specs: &[ShardSpec],
    margin_name: &str,
    eps_margin: Epsilon,
    base_seed: u64,
    workers: usize,
    sink: &MetricsSink,
) -> Vec<ShardSummary> {
    let m = exact[0].len();
    let tasks: Vec<(usize, usize)> = (0..specs.len())
        .flat_map(|s| (0..m).map(move |j| (s, j)))
        .collect();
    let published: Vec<Vec<f64>> =
        parkit::par_map_observed(workers, &tasks, sink, "margins", |_, &(s, j)| {
            harvest_draws(sink, "margins", || {
                let mut rng = parkit::stream_rng(
                    base_seed,
                    STREAM_MARGINS,
                    specs[s].seed_index * m as u64 + j as u64,
                );
                MarginRegistry::builtin()
                    .publish(margin_name, &exact[s][j], eps_margin, &mut rng)
                    .expect("builtin registry covers every MarginMethod")
            })
        });

    let mut published = published.into_iter();
    specs
        .iter()
        .map(|&spec| {
            let mut ledger = ShardLedger::new();
            for _ in 0..m {
                ledger.spend("margins", eps_margin);
            }
            ShardSummary {
                spec,
                noisy_margins: published.by_ref().take(m).collect(),
                ledger,
            }
        })
        .collect()
}

/// Merges the per-shard noisy margins into the released histograms: the
/// per-bin sum over shards (each shard's histogram counts disjoint rows,
/// so the sums estimate the pooled counts). With one shard this is that
/// shard's histograms unchanged.
pub fn merge_margins(summaries: &[ShardSummary]) -> Vec<Vec<f64>> {
    let mut merged = summaries[0].noisy_margins.clone();
    for summary in &summaries[1..] {
        for (acc, add) in merged.iter_mut().zip(&summary.noisy_margins) {
            for (a, &b) in acc.iter_mut().zip(add) {
                *a += b;
            }
        }
    }
    merged
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
    let shard_n = spec.len();
    if target < shard_n {
        let mut rng = parkit::stream_rng(base_seed, STREAM_KENDALL_SAMPLE, spec.seed_index);
        let mut all: Vec<usize> = (0..shard_n).collect();
        all.shuffle(&mut rng);
        all.truncate(target);
        all
    } else {
        (0..shard_n).collect()
    }
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
    use crate::engine::STREAM_KENDALL_NOISE;
    use crate::kendall::{kendall_sensitivity, kendall_tau_naive};
    use dphist::histogram::Histogram1D;
    use dpmech::{laplace_noise, nano_eps};
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

    /// Exact per-shard counts through the fit's reducer, in one push.
    fn exact_counts(
        cols: &[Vec<u32>],
        domains: &[usize],
        specs: &[ShardSpec],
    ) -> Vec<Vec<Vec<f64>>> {
        let mut reducer = RowReducer::new(domains, specs, None, 0, 1);
        reducer.push(cols, 1).unwrap();
        reducer.finish().0
    }

    #[test]
    fn reducer_matches_slice_histograms_and_plan_order_at_any_block_split() {
        let cols = test_columns(3, 1_001, 24, 12);
        let domains = [24usize; 3];
        for shards in [1usize, 3] {
            let specs = shard_specs(1_001, shards);
            let targets = partition_sample_target(400, &specs);
            for block in [1usize, 7, 1_001] {
                let mut reducer = RowReducer::new(&domains, &specs, Some(&targets), 5, 2);
                for start in (0..1_001).step_by(block) {
                    let end = (start + block).min(1_001);
                    let part: Vec<Vec<u32>> = cols.iter().map(|c| c[start..end].to_vec()).collect();
                    reducer.push(&part, 2).unwrap();
                }
                assert_eq!(reducer.rows(), 1_001);
                let (exact, sampled) = reducer.finish();
                // Shard-major: shard s's share follows the earlier ones.
                let mut first = 0;
                for (s, spec) in specs.iter().enumerate() {
                    let locals = shard_locals(*spec, targets[s], 5);
                    for (j, col) in cols.iter().enumerate() {
                        let slice = &col[spec.start..spec.end];
                        let hist = Histogram1D::from_values(slice, domains[j]);
                        assert_eq!(exact[s][j], hist.counts(), "shards={shards} block={block}");
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
    fn margin_summaries_merge_to_per_bin_sums_and_max_ledger() {
        let cols = test_columns(2, 400, 16, 9);
        let domains = [16usize, 16];
        let eps_margin = Epsilon::new(0.25).unwrap();
        let specs = shard_specs(400, 4);
        let summaries = build_margin_summaries_from_counts(
            &exact_counts(&cols, &domains, &specs),
            &specs,
            "identity",
            eps_margin,
            11,
            2,
            &off(),
        );
        assert_eq!(summaries.len(), 4);
        let merged = merge_margins(&summaries);
        for (j, bins) in merged.iter().enumerate() {
            for (b, &val) in bins.iter().enumerate() {
                let sum: f64 = summaries.iter().map(|s| s.noisy_margins[j][b]).sum();
                assert_eq!(val.to_bits(), sum.to_bits(), "j={j} b={b}");
            }
        }
        // Parallel composition: each shard spent m * eps_margin on the
        // margins label; the combined ledger carries the max, which for
        // identical sub-ledgers equals any one of them — NOT 4x.
        let ledgers: Vec<ShardLedger> = summaries.iter().map(|s| s.ledger.clone()).collect();
        let combined = ShardLedger::merge_parallel(&ledgers);
        let per_shard = 2 * nano_eps(eps_margin);
        assert_eq!(combined.spent_neps("margins"), per_shard);
        for s in &summaries {
            assert_eq!(s.ledger.spent_neps("margins"), per_shard);
        }
    }

    #[test]
    fn one_shard_margin_summary_uses_pre_shard_streams() {
        // With one shard the (shard, attr) stream index is `0 * m + j`,
        // i.e. the pre-shard per-attribute key: publishing through the
        // summary layer must equal publishing directly.
        let cols = test_columns(3, 500, 16, 10);
        let domains = [16usize, 16, 16];
        let eps_margin = Epsilon::new(0.2).unwrap();
        let specs = shard_specs(500, 1);
        let exact = exact_counts(&cols, &domains, &specs);
        let summaries =
            build_margin_summaries_from_counts(&exact, &specs, "efpa", eps_margin, 13, 1, &off());
        let merged = merge_margins(&summaries);
        for (j, col) in cols.iter().enumerate() {
            let exact = Histogram1D::from_values(col, domains[j]);
            let mut rng = parkit::stream_rng(13, STREAM_MARGINS, j as u64);
            let direct = MarginRegistry::builtin()
                .publish("efpa", exact.counts(), eps_margin, &mut rng)
                .unwrap();
            assert_eq!(merged[j], direct, "attr {j}");
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
