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
//! * **Kendall's τ** — each shard carries its within-shard integer
//!   [`Concordance`] per attribute pair plus its (sub)sampled records;
//!   the merge adds the cross-shard concordance corrections
//!   ([`mathkit::concord::cross_concordance`]) and obtains **exactly**
//!   the pooled `S / C(n, 2)`. The Laplace noise is drawn once at merge
//!   time against the pooled sensitivity `4/(n+1)`, so the released
//!   matrix is the same mechanism as the unsharded release. When record
//!   sampling is on (`Auto`/`Fixed`), each shard subsamples its
//!   proportional share of the global target — approximate relative to
//!   the unsharded subsample (a different row set), exact in every other
//!   respect.
//! * **Budget** — each shard keeps a [`ShardLedger`];
//!   [`ShardLedger::merge_parallel`] folds them with the per-label-max
//!   rule into the combined ledger the artifact reports.

use crate::engine::{harvest_draws, STREAM_KENDALL_NOISE, STREAM_KENDALL_SAMPLE, STREAM_MARGINS};
use crate::error::DpCopulaError;
use crate::kendall::{
    concordance_cached, kendall_sensitivity, recommended_sample_size, RankedColumn,
    SamplingStrategy,
};
use dphist::MarginRegistry;
use dpmech::{laplace_noise, Epsilon, ShardLedger};
use mathkit::concord::{cross_concordance, merge, Concordance};
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

/// Everything one shard contributes to the merged fit: its noisy margin
/// histograms, its (sub)sampled records and within-shard concordance
/// summaries for the τ merge, and its privacy-budget sub-ledger.
#[derive(Debug, Clone)]
pub struct ShardSummary {
    /// The rows and stream index this summary covers.
    pub spec: ShardSpec,
    /// Noisy histogram counts, one per attribute (published through the
    /// `MarginRegistry` at the full per-attribute `ε₁/m` — parallel
    /// composition across shards keeps that the combined cost).
    pub noisy_margins: Vec<Vec<f64>>,
    /// The shard's τ record sample, one column per attribute (all shard
    /// rows under `SamplingStrategy::Full`). Empty until
    /// [`fill_tau_from_sampled`].
    pub sampled: Vec<Vec<u32>>,
    /// Within-shard concordance summary per attribute pair (pair ids in
    /// `(i, j)` lexicographic order). Empty until
    /// [`fill_tau_from_sampled`].
    pub within: Vec<Concordance>,
    /// The shard's own budget expenditures.
    pub ledger: ShardLedger,
}

/// Orders shard `spec`'s subsample plan for `target` rows by row:
/// `(local_row, slot)` for each sampled row, ascending — what lets one
/// pass in row order scatter rows into subsample order while touching
/// only the sampled rows. Linear in the shard's size, through a
/// transient 4 B/row slot map.
fn plan_picks(spec: ShardSpec, target: usize, base_seed: u64) -> Vec<(u32, u32)> {
    let mut slots = vec![u32::MAX; spec.len()];
    for (slot, &local) in shard_locals(spec, target, base_seed).iter().enumerate() {
        slots[local] = slot as u32;
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
/// `sampled[shard][attribute][slot]`.
pub(crate) type Reduced = (Vec<Vec<Vec<f64>>>, Vec<Vec<Vec<u32>>>);

/// One attribute's part of a [`RowReducer`]: its exact counts and its
/// subsample column, per shard.
struct ReducedColumn {
    counts: Vec<Vec<u64>>,
    sampled: Vec<Vec<u32>>,
}

/// The one row loop of every fit: reduces the input rows of some shards
/// to their **exact** histogram counts and their Kendall record
/// subsample (in [`shard_locals`] plan order), checking every value
/// against its attribute's domain on the way.
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
    /// Per shard, [`plan_picks`] of its subsample plan; empty when the
    /// fit takes no τ subsample.
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
                plan_picks(spec, targets[s], base_seed)
            }),
            None => Vec::new(),
        };
        let columns = domains
            .iter()
            .map(|&d| {
                Mutex::new(ReducedColumn {
                    counts: specs.iter().map(|_| vec![0; d]).collect(),
                    sampled: picks.iter().map(|p| vec![0; p.len()]).collect(),
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
                    let out = &mut column.sampled[s];
                    for &(local, slot) in &picks[from..to] {
                        out[slot as usize] = values[local as usize - a];
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
    /// mechanisms take) and the subsample, empty when none was planned.
    pub(crate) fn finish(self) -> Reduced {
        let shards = self.specs.len();
        let mut exact: Vec<Vec<Vec<f64>>> = vec![Vec::new(); shards];
        let mut sampled: Vec<Vec<Vec<u32>>> = vec![Vec::new(); self.picks.len()];
        for column in self.columns {
            let column = column.into_inner().expect("one task per attribute");
            for (shard, counts) in exact.iter_mut().zip(column.counts) {
                shard.push(counts.into_iter().map(|c| c as f64).collect());
            }
            for (shard, part) in sampled.iter_mut().zip(column.sampled) {
                shard.push(part);
            }
        }
        (exact, sampled)
    }
}

/// Builds one summary per shard with the margin layer filled in from the
/// exact histogram counts a [`RowReducer`] gathered
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
                sampled: Vec::new(),
                within: Vec::new(),
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

/// Fills the τ layer of each summary: given each shard's sampled columns
/// (in subsample order, as a [`RowReducer`] gathers them), builds the
/// per-(shard, attribute) rank caches and the within-shard
/// [`Concordance`] per attribute pair, and stores both into the
/// summaries. Shards below two sampled records contribute
/// [`Concordance::EMPTY`] and participate only in cross terms.
pub fn fill_tau_from_sampled(
    summaries: &mut [ShardSummary],
    sampled: Vec<Vec<Vec<u32>>>,
    workers: usize,
    sink: &MetricsSink,
) {
    let m = sampled[0].len();
    let sj: Vec<(usize, usize)> = (0..summaries.len())
        .flat_map(|s| (0..m).map(move |j| (s, j)))
        .collect();
    let ranked: Vec<RankedColumn> =
        parkit::par_map_observed(workers, &sj, sink, "correlation", |_, &(s, j)| {
            RankedColumn::new(sampled[s][j].clone())
        });
    let pair_ids: Vec<(usize, usize)> = (0..m)
        .flat_map(|i| ((i + 1)..m).map(move |j| (i, j)))
        .collect();
    let sk: Vec<(usize, usize)> = (0..summaries.len())
        .flat_map(|s| (0..pair_ids.len()).map(move |k| (s, k)))
        .collect();
    let within: Vec<Concordance> =
        parkit::par_map_observed(workers, &sk, sink, "correlation", |_, &(s, k)| {
            if sampled[s][0].len() < 2 {
                Concordance::EMPTY
            } else {
                let (i, j) = pair_ids[k];
                concordance_cached(&ranked[s * m + i], &ranked[s * m + j])
            }
        });

    let pairs = pair_ids.len();
    for (s, (summary, cols)) in summaries.iter_mut().zip(sampled).enumerate() {
        summary.sampled = cols;
        summary.within = within[s * pairs..(s + 1) * pairs].to_vec();
    }
}

/// The cross-shard concordance corrections of a sharded τ estimate: one
/// integer per `(shard s, shard t > s, attribute pair)` combination
/// (none for a single shard).
#[derive(Debug, Clone)]
pub struct CrossTerms {
    tasks: Vec<(usize, usize, usize)>,
    values: Vec<i64>,
}

/// Computes every cross-shard concordance correction, fanned out across
/// `workers` under the `correlation` stage. This is the parallelizable
/// estimation half of the τ merge — its work grows with the shard count
/// (each shard pair scores its pooled records), unlike the serial
/// [`combine_tau`] bookkeeping that follows.
///
/// # Panics
/// Panics when [`fill_tau_from_sampled`] has not populated the summaries.
pub fn cross_concordances(
    summaries: &[ShardSummary],
    workers: usize,
    sink: &MetricsSink,
) -> CrossTerms {
    let m = summaries[0].sampled.len();
    assert!(m >= 2, "cross_concordances needs filled τ summaries");
    let pairs = m * (m - 1) / 2;
    let pair_ids: Vec<(usize, usize)> = (0..m)
        .flat_map(|i| ((i + 1)..m).map(move |j| (i, j)))
        .collect();
    let tasks: Vec<(usize, usize, usize)> = (0..summaries.len())
        .flat_map(|s| ((s + 1)..summaries.len()).map(move |t| (s, t)))
        .flat_map(|(s, t)| (0..pairs).map(move |k| (s, t, k)))
        .collect();
    let values: Vec<i64> =
        parkit::par_map_observed(workers, &tasks, sink, "correlation", |_, &(s, t, k)| {
            let (i, j) = pair_ids[k];
            cross_concordance(
                &summaries[s].sampled[i],
                &summaries[s].sampled[j],
                &summaries[t].sampled[i],
                &summaries[t].sampled[j],
            )
        });
    CrossTerms { tasks, values }
}

/// Folds the within-shard summaries and the [`CrossTerms`] into the
/// **raw** released correlation matrix: per attribute pair, the merge is
/// exactly the pooled `S / C(n, 2)`, then one Laplace draw (stream
/// `STREAM_KENDALL_NOISE`, index = pair id, pooled sensitivity
/// `4/(n+1)`) and the `sin(π/2·τ)` map — the same mechanism as the
/// unsharded release. Clamping and the positive-definite repair remain
/// the pipeline's next stage. Serial: pure integer/float bookkeeping,
/// `O(pairs · shards²)`.
pub fn combine_tau(
    summaries: &[ShardSummary],
    cross: &CrossTerms,
    eps2_total: Epsilon,
    base_seed: u64,
    sink: &MetricsSink,
) -> Matrix {
    let m = summaries[0].sampled.len();
    let pair_ids: Vec<(usize, usize)> = (0..m)
        .flat_map(|i| ((i + 1)..m).map(move |j| (i, j)))
        .collect();
    let eps_pair = eps2_total.divide(pair_ids.len());
    let n_pooled: usize = summaries.iter().map(|s| s.sampled[0].len()).sum();
    let mut p = Matrix::identity(m);
    harvest_draws(sink, "correlation", || {
        let mut within = vec![Concordance::EMPTY; summaries.len()];
        for (k, &(i, j)) in pair_ids.iter().enumerate() {
            for (w, summary) in within.iter_mut().zip(summaries) {
                *w = summary.within[k];
            }
            let mut cross_s = 0i64;
            let mut cross_pairs = 0u64;
            for (&(s, t, kk), &c) in cross.tasks.iter().zip(&cross.values) {
                if kk == k {
                    cross_s += c;
                    cross_pairs +=
                        (summaries[s].sampled[0].len() * summaries[t].sampled[0].len()) as u64;
                }
            }
            let pooled = merge(&within, cross_s, cross_pairs);
            let tau = pooled.tau();
            let mut rng = parkit::stream_rng(base_seed, STREAM_KENDALL_NOISE, k as u64);
            let noisy =
                tau + laplace_noise(&mut rng, kendall_sensitivity(n_pooled) / eps_pair.value());
            let r = (std::f64::consts::FRAC_PI_2 * noisy).sin();
            p[(i, j)] = r;
            p[(j, i)] = r;
        }
    });
    p
}

/// Folds the per-shard sub-ledgers into the combined ledger with the
/// parallel-composition per-label-max rule (shards hold disjoint rows).
pub fn merge_ledgers(summaries: &[ShardSummary]) -> ShardLedger {
    let ledgers: Vec<ShardLedger> = summaries.iter().map(|s| s.ledger.clone()).collect();
    ShardLedger::merge_parallel(&ledgers)
}

/// The sharded DP Kendall-τ estimator end to end: builds bare summaries
/// over `specs`, fills their τ layers, and merges — the sharded
/// counterpart of [`crate::kendall::dp_tau_matrix_par`], returning the
/// same **raw** (pre-repair) matrix. With one shard the result is
/// bit-identical to the unsharded estimator; with any shard count under
/// `SamplingStrategy::Full` it still is, because the merge is exact and
/// the noise stream only depends on the pair id.
///
/// Like `dp_tau_matrix_par`, the bare estimator has no domains and
/// publishes no margins, so it picks its subsample rows straight from
/// the plan instead of running a fit's [`RowReducer`].
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
    let mut summaries: Vec<ShardSummary> = specs
        .iter()
        .map(|&spec| ShardSummary {
            spec,
            noisy_margins: Vec::new(),
            sampled: Vec::new(),
            within: Vec::new(),
            ledger: ShardLedger::new(),
        })
        .collect();
    let targets = partition_sample_target(kendall_sample_target(m, n, strategy, eps2_total), specs);
    let sampled = specs
        .iter()
        .zip(&targets)
        .map(|(&spec, &target)| {
            let locals = shard_locals(spec, target, base_seed);
            columns
                .iter()
                .map(|col| locals.iter().map(|&r| col[spec.start + r]).collect())
                .collect()
        })
        .collect();
    fill_tau_from_sampled(&mut summaries, sampled, workers, sink);
    let cross = cross_concordances(&summaries, workers, sink);
    Ok(combine_tau(&summaries, &cross, eps2_total, base_seed, sink))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kendall::dp_tau_matrix_par;
    use dphist::histogram::Histogram1D;
    use dpmech::nano_eps;
    use rngkit::rngs::StdRng;
    use rngkit::{Rng, SeedableRng};

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
                for (s, spec) in specs.iter().enumerate() {
                    let locals = shard_locals(*spec, targets[s], 5);
                    for (j, col) in cols.iter().enumerate() {
                        let slice = &col[spec.start..spec.end];
                        let hist = Histogram1D::from_values(slice, domains[j]);
                        assert_eq!(exact[s][j], hist.counts(), "shards={shards} block={block}");
                        let plan: Vec<u32> = locals.iter().map(|&r| slice[r]).collect();
                        assert_eq!(sampled[s][j], plan, "shards={shards} block={block}");
                    }
                }
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
            let plain = dp_tau_matrix_par(&cols, eps, strategy, 42, 2, &off()).unwrap();
            assert_eq!(sharded, plain, "{strategy:?}");
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
        let cols = test_columns(3, 1_200, 30, 8);
        let eps = Epsilon::new(1.0).unwrap();
        let specs = shard_specs(1_200, 4);
        let base = dp_tau_matrix_sharded(
            &cols,
            &specs,
            eps,
            SamplingStrategy::Fixed(400),
            3,
            1,
            &off(),
        )
        .unwrap();
        for workers in [2, 7] {
            let p = dp_tau_matrix_sharded(
                &cols,
                &specs,
                eps,
                SamplingStrategy::Fixed(400),
                3,
                workers,
                &off(),
            )
            .unwrap();
            assert_eq!(p, base, "workers={workers}");
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
        let combined = merge_ledgers(&summaries);
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
        // 2 records over 2 shards: both within summaries are EMPTY, the
        // whole τ signal is the single cross pair — and must not panic.
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
        let eps = Epsilon::new(1.0).unwrap();
        assert_eq!(
            dp_tau_matrix_sharded(&[], &[], eps, SamplingStrategy::Full, 1, 1, &off()).unwrap_err(),
            DpCopulaError::EmptyInput
        );
        let one_record = vec![vec![1u32], vec![2u32]];
        assert!(matches!(
            dp_tau_matrix_sharded(
                &one_record,
                &shard_specs(1, 1),
                eps,
                SamplingStrategy::Full,
                1,
                1,
                &off()
            )
            .unwrap_err(),
            DpCopulaError::TooFewRecords { .. }
        ));
    }
}
