//! Sampling DP synthetic data from the fitted copula model — Algorithm 3
//! of the paper.
//!
//! 1. draw `z ~ N(0, P~)` via Cholesky;
//! 2. map to the unit cube: `t_j = Phi(z_j)` (DP pseudo-copula data);
//! 3. map back to the original domains through the inverse DP marginal
//!    CDFs: `x_j = F~_j^{-1}(t_j)`.

use crate::empirical::{MarginalDistribution, QuantileTable};
use crate::error::DpCopulaError;
use mathkit::dist::{standard_normal, MultivariateNormal};
use mathkit::Matrix;
use rngkit::rngs::StdRng;
use rngkit::ziggurat;
use rngkit::Rng;

/// How the sampling hot path trades determinism pinning for speed.
///
/// Both profiles post-process the *same* fitted DP model, so the
/// privacy guarantee is identical; they differ only in which
/// reproducibility contract the emitted bytes satisfy (DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplingProfile {
    /// The pinned path: polar-method normals, per-row Cholesky apply,
    /// then per cell the guarded z-table lookup
    /// ([`QuantileTable::quantile_z_exact`]), which equals scalar Φ then
    /// inverse-CDF search bit for bit. Output is byte-identical to every
    /// release since the determinism contract was introduced, at any
    /// worker count or window split.
    #[default]
    Reference,
    /// The vectorised path: ziggurat normals, blocked Cholesky apply,
    /// and per-margin z-space lookup tables that skip Φ entirely.
    /// Deterministic with *itself* (same seed ⇒ same bytes at any
    /// worker count or window split) but not byte-comparable to
    /// [`SamplingProfile::Reference`]; equality is enforced
    /// distributionally by the statistical-equivalence test tier.
    Fast,
}

impl SamplingProfile {
    /// Stable lower-case label used for CLI flags and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            SamplingProfile::Reference => "reference",
            SamplingProfile::Fast => "fast",
        }
    }
}

/// An absolute row window `[offset, offset + n)` of the synthetic row
/// space keyed by `(base_seed, stream)`, gridded into `chunk`-row chunks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowWindow {
    pub offset: usize,
    pub n: usize,
    pub base_seed: u64,
    pub stream: u64,
    pub chunk: usize,
}

/// The one chunk fan-out behind every sampled window, whatever the
/// copula family, profile or output: splits `window` into its chunks
/// ([`parkit::chunk_windows`]) and runs `task(i, rng, skip, take)` for
/// the window's `i`-th chunk on `stream_rng(base_seed, stream, chunk id)`
/// across `workers` threads (task metrics to `sink` under `stage`). The
/// tasks' outputs come back in chunk order, each made on the worker that
/// drew its chunk.
pub(crate) fn fan_out_chunks<B, F>(
    window: RowWindow,
    workers: usize,
    sink: &obskit::MetricsSink,
    stage: &str,
    task: F,
) -> Vec<B>
where
    B: Send,
    F: Fn(usize, &mut StdRng, usize, usize) -> B + Sync,
{
    let windows = parkit::chunk_windows(window.offset, window.n, window.chunk);
    parkit::par_map_observed(workers, &windows, sink, stage, |i, w| {
        let mut rng = parkit::stream_rng(window.base_seed, window.stream, w.id as u64);
        task(i, &mut rng, w.skip, w.take)
    })
}

/// Concatenates per-chunk column pieces, in order, into `dims` columns
/// of `n` rows.
pub(crate) fn concat_chunks(dims: usize, n: usize, pieces: Vec<Vec<Vec<u32>>>) -> Vec<Vec<u32>> {
    let mut out: Vec<Vec<u32>> = (0..dims).map(|_| Vec::with_capacity(n)).collect();
    for piece in pieces {
        for (col, mut part) in out.iter_mut().zip(piece) {
            col.append(&mut part);
        }
    }
    out
}

/// The row-at-a-time chunk kernel of the Student-t family: burns `skip`
/// records, then keeps `take`, column-major, each drawn by `record` into
/// a `dims`-wide buffer.
pub(crate) fn record_chunk(
    dims: usize,
    skip: usize,
    take: usize,
    mut record: impl FnMut(&mut [u32]),
) -> Vec<Vec<u32>> {
    let mut cols: Vec<Vec<u32>> = (0..dims).map(|_| Vec::with_capacity(take)).collect();
    let mut buf = vec![0u32; dims];
    for _ in 0..skip {
        record(&mut buf);
    }
    for _ in 0..take {
        record(&mut buf);
        for (col, &v) in cols.iter_mut().zip(&buf) {
            col.push(v);
        }
    }
    cols
}

/// A ready-to-sample DP copula model: DP correlation matrix plus DP
/// marginal distributions.
#[derive(Debug, Clone)]
pub struct CopulaSampler {
    mvn: MultivariateNormal,
    margins: Vec<MarginalDistribution>,
    /// z-space inverse-CDF tables, one per margin, read by both
    /// profiles.
    tables: Vec<QuantileTable>,
}

impl CopulaSampler {
    /// Builds the sampler. Fails when the number of margins disagrees
    /// with `p` ([`DpCopulaError::MarginCountMismatch`]) or when `p` is
    /// not positive definite (run it through the repair of Algorithm 5
    /// first).
    pub fn new(p: &Matrix, margins: Vec<MarginalDistribution>) -> Result<Self, DpCopulaError> {
        if p.rows() != margins.len() {
            return Err(DpCopulaError::MarginCountMismatch {
                margins: margins.len(),
                dims: p.rows(),
            });
        }
        let tables = margins.iter().map(QuantileTable::new).collect();
        Ok(Self {
            mvn: MultivariateNormal::new(p)?,
            margins,
            tables,
        })
    }

    /// Number of attributes.
    pub fn dims(&self) -> usize {
        self.margins.len()
    }

    /// Draws `n` synthetic records, returned column-major (one `Vec<u32>`
    /// per attribute) to match the workspace's dataset layout — the
    /// reference chunk kernel on the caller's generator, nothing skipped.
    pub fn sample_columns<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<Vec<u32>> {
        self.sample_chunk_reference(rng, 0, n)
    }

    /// One chunk of a window under `profile`: `skip` rows burned, then
    /// `take` rows kept, column-major.
    pub(crate) fn sample_chunk(
        &self,
        profile: SamplingProfile,
        rng: &mut StdRng,
        skip: usize,
        take: usize,
    ) -> Vec<Vec<u32>> {
        match profile {
            SamplingProfile::Reference => self.sample_chunk_reference(rng, skip, take),
            SamplingProfile::Fast => self.sample_chunk_fast(rng, skip, take),
        }
    }

    /// One chunk of the reference path: `skip` rows burned as `skip · d`
    /// polar normals, then per kept row `d` polar normals, the Cholesky
    /// product and one guarded table lookup per cell, through one `z`
    /// buffer.
    ///
    /// `standard_normal` keeps no spare draw, so a burned row advances the
    /// generator exactly as a drawn one does; neither the product nor the
    /// lookup touches it. The lookup equals `quantile(norm_cdf(z))` bit
    /// for bit, so every row is the pinned reference row.
    fn sample_chunk_reference<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        skip: usize,
        take: usize,
    ) -> Vec<Vec<u32>> {
        let d = self.dims();
        for _ in 0..skip * d {
            standard_normal(rng);
        }
        let mut cols: Vec<Vec<u32>> = (0..d).map(|_| Vec::with_capacity(take)).collect();
        let mut z = vec![0.0; d];
        for _ in 0..take {
            self.mvn.sample_into(rng, &mut z);
            for (col, ((&zj, table), margin)) in cols
                .iter_mut()
                .zip(z.iter().zip(&self.tables).zip(&self.margins))
            {
                col.push(table.quantile_z_exact(margin, zj));
            }
        }
        cols
    }

    /// One chunk of the fast path: ziggurat normals drawn row-major into
    /// a structure-of-arrays batch, one blocked Cholesky apply, then a
    /// z-space table walk per cell — no per-row Φ evaluation at all.
    ///
    /// Normals are consumed in row order (`d` draws per row; skipped
    /// rows advance the generator past exactly `d` draws each, through
    /// `ziggurat::skip_standard_normals`) so any window split of a chunk
    /// sees the same per-row draws — the property the window-stitching
    /// contract rests on.
    ///
    /// The z-matrix lives in a per-thread scratch reused across chunks:
    /// every cell is overwritten before the Cholesky apply reads it, so
    /// the emitted bytes are independent of what a previous chunk (or a
    /// previous model on the same worker thread) left behind.
    fn sample_chunk_fast<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        skip: usize,
        take: usize,
    ) -> Vec<Vec<u32>> {
        thread_local! {
            static FAST_Z: std::cell::RefCell<Vec<Vec<f64>>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        let d = self.dims();
        ziggurat::skip_standard_normals(rng, skip * d);
        FAST_Z.with(|cell| {
            let mut z = cell.borrow_mut();
            z.resize_with(d, Vec::new);
            for col in z.iter_mut() {
                col.resize(take, 0.0);
            }
            for row in 0..take {
                for col in z.iter_mut() {
                    col[row] = ziggurat::standard_normal(rng);
                }
            }
            self.mvn.apply_lower_blocked(&mut z);
            z.iter()
                .zip(&self.tables)
                .map(|(col, table)| col.iter().map(|&v| table.quantile_z(v)).collect())
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kendall::kendall_tau;
    use mathkit::correlation::equicorrelation;
    use rngkit::rngs::StdRng;
    use rngkit::SeedableRng;

    fn uniform_margin(domain: usize) -> MarginalDistribution {
        MarginalDistribution::from_noisy_histogram(&vec![1.0; domain])
    }

    /// A window on the engine's sampling stream, metrics off: the chunk
    /// fan-out over this sampler's kernel, concatenated in chunk order.
    fn window(
        s: &CopulaSampler,
        profile: SamplingProfile,
        offset: usize,
        n: usize,
        seed: u64,
        workers: usize,
        chunk: usize,
    ) -> Vec<Vec<u32>> {
        let window = RowWindow {
            offset,
            n,
            base_seed: seed,
            stream: crate::engine::STREAM_SAMPLER,
            chunk,
        };
        let off = obskit::MetricsSink::off();
        let pieces = fan_out_chunks(window, workers, &off, "sampling", |_, rng, skip, take| {
            s.sample_chunk(profile, rng, skip, take)
        });
        concat_chunks(s.dims(), n, pieces)
    }

    fn reference(
        s: &CopulaSampler,
        offset: usize,
        n: usize,
        seed: u64,
        workers: usize,
        chunk: usize,
    ) -> Vec<Vec<u32>> {
        window(
            s,
            SamplingProfile::Reference,
            offset,
            n,
            seed,
            workers,
            chunk,
        )
    }

    #[test]
    fn output_respects_domains() {
        let margins = vec![uniform_margin(10), uniform_margin(50)];
        let s = CopulaSampler::new(&equicorrelation(2, 0.5), margins).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let cols = s.sample_columns(2_000, &mut rng);
        assert!(cols[0].iter().all(|&v| v < 10));
        assert!(cols[1].iter().all(|&v| v < 50));
    }

    #[test]
    fn margins_are_reproduced() {
        // A skewed margin must be visible in the synthetic output.
        let skew = MarginalDistribution::from_noisy_histogram(&[70.0, 20.0, 10.0]);
        let s =
            CopulaSampler::new(&equicorrelation(2, 0.0), vec![skew, uniform_margin(4)]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let cols = s.sample_columns(30_000, &mut rng);
        let f0 = cols[0].iter().filter(|&&v| v == 0).count() as f64 / 30_000.0;
        let f2 = cols[0].iter().filter(|&&v| v == 2).count() as f64 / 30_000.0;
        assert!((f0 - 0.7).abs() < 0.02, "f0 {f0}");
        assert!((f2 - 0.1).abs() < 0.02, "f2 {f2}");
    }

    #[test]
    fn dependence_survives_the_transform() {
        // tau of a Gaussian copula with rho: tau = 2/pi * asin(rho).
        let rho = 0.8_f64;
        let margins = vec![uniform_margin(1000), uniform_margin(1000)];
        let s = CopulaSampler::new(&equicorrelation(2, rho), margins).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let cols = s.sample_columns(8_000, &mut rng);
        let tau = kendall_tau(&cols[0], &cols[1]);
        let expect = 2.0 / std::f64::consts::PI * rho.asin();
        assert!((tau - expect).abs() < 0.03, "tau {tau} vs {expect}");
    }

    #[test]
    fn independence_produces_near_zero_tau() {
        let margins = vec![uniform_margin(500), uniform_margin(500)];
        let s = CopulaSampler::new(&Matrix::identity(2), margins).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let cols = s.sample_columns(5_000, &mut rng);
        let tau = kendall_tau(&cols[0], &cols[1]);
        assert!(tau.abs() < 0.03, "tau {tau}");
    }

    #[test]
    fn chunked_sampling_is_worker_count_invariant() {
        let margins = vec![uniform_margin(100), uniform_margin(100)];
        let s = CopulaSampler::new(&equicorrelation(2, 0.6), margins).unwrap();
        let base = reference(&s, 0, 5_000, 77, 1, 512);
        for workers in [2, 7] {
            assert_eq!(
                reference(&s, 0, 5_000, 77, workers, 512),
                base,
                "workers={workers}"
            );
        }
        assert_eq!(base[0].len(), 5_000);
        // Statistical sanity: dependence survives chunked sampling too.
        let tau = kendall_tau(&base[0], &base[1]);
        let expect = 2.0 / std::f64::consts::PI * 0.6_f64.asin();
        assert!((tau - expect).abs() < 0.05, "tau {tau} vs {expect}");
    }

    #[test]
    fn chunked_sampling_handles_edge_sizes() {
        let margins = vec![uniform_margin(10)];
        let s = CopulaSampler::new(&Matrix::identity(1), margins).unwrap();
        // n == 0, n < chunk, chunk == 0, workers > chunks.
        assert_eq!(reference(&s, 0, 0, 1, 4, 64), vec![Vec::<u32>::new()]);
        assert_eq!(reference(&s, 0, 5, 1, 4, 64)[0].len(), 5);
        assert_eq!(reference(&s, 0, 3, 1, 16, 0)[0].len(), 3);
    }

    #[test]
    fn window_sampling_splits_seamlessly_at_any_point() {
        let margins = vec![uniform_margin(60), uniform_margin(60)];
        let s = CopulaSampler::new(&equicorrelation(2, 0.4), margins).unwrap();
        let stream = crate::engine::STREAM_SAMPLER;
        let whole = reference(&s, 0, 1_000, 5, 3, 128);
        // A window inside one chunk is `sample_columns` on that chunk's
        // stream: the reference kernel with nothing skipped.
        let mut rng = parkit::stream_rng(5, stream, 0);
        assert_eq!(
            reference(&s, 0, 1_000, 5, 3, 1_000),
            s.sample_columns(1_000, &mut rng)
        );
        // Splits at chunk-aligned and unaligned points both reproduce
        // the one-call bytes.
        for k in [1usize, 127, 128, 129, 500, 999] {
            let head = reference(&s, 0, k, 5, 2, 128);
            let tail = reference(&s, k, 1_000 - k, 5, 7, 128);
            let stitched: Vec<Vec<u32>> = head
                .iter()
                .zip(&tail)
                .map(|(h, t)| h.iter().chain(t).copied().collect())
                .collect();
            assert_eq!(stitched, whole, "split at {k}");
        }
        // An interior window equals the matching slice of the whole.
        let mid = reference(&s, 300, 150, 5, 4, 128);
        for (j, col) in mid.iter().enumerate() {
            assert_eq!(col[..], whole[j][300..450], "column {j}");
        }
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let margins = vec![uniform_margin(4), uniform_margin(4), uniform_margin(4)];
        let err = CopulaSampler::new(&equicorrelation(3, -0.9), margins).unwrap_err();
        assert!(matches!(err, DpCopulaError::NotPositiveDefinite(_)));
    }

    #[test]
    fn margin_count_mismatch_is_an_error_not_a_panic() {
        let err = CopulaSampler::new(&Matrix::identity(2), vec![uniform_margin(4)]).unwrap_err();
        assert_eq!(
            err,
            DpCopulaError::MarginCountMismatch {
                margins: 1,
                dims: 2
            }
        );
        assert!(err.to_string().contains("marginal distribution"));
    }

    #[test]
    fn fast_profile_is_worker_count_invariant_with_itself() {
        let margins = vec![uniform_margin(100), uniform_margin(100)];
        let s = CopulaSampler::new(&equicorrelation(2, 0.6), margins).unwrap();
        let base = window(&s, SamplingProfile::Fast, 0, 5_000, 77, 1, 512);
        for workers in [2, 7] {
            assert_eq!(
                window(&s, SamplingProfile::Fast, 0, 5_000, 77, workers, 512),
                base,
                "workers={workers}"
            );
        }
        assert_eq!(base[0].len(), 5_000);
        // And it draws from the same copula: dependence survives.
        let tau = kendall_tau(&base[0], &base[1]);
        let expect = 2.0 / std::f64::consts::PI * 0.6_f64.asin();
        assert!((tau - expect).abs() < 0.05, "tau {tau} vs {expect}");
    }

    #[test]
    fn fast_profile_window_splits_seamlessly() {
        let margins = vec![uniform_margin(60), uniform_margin(60)];
        let s = CopulaSampler::new(&equicorrelation(2, 0.4), margins).unwrap();
        let fast = SamplingProfile::Fast;
        let whole = window(&s, fast, 0, 1_000, 5, 3, 128);
        for k in [1usize, 127, 128, 129, 500, 999] {
            let head = window(&s, fast, 0, k, 5, 2, 128);
            let tail = window(&s, fast, k, 1_000 - k, 5, 7, 128);
            let stitched: Vec<Vec<u32>> = head
                .iter()
                .zip(&tail)
                .map(|(h, t)| h.iter().chain(t).copied().collect())
                .collect();
            assert_eq!(stitched, whole, "split at {k}");
        }
    }

    #[test]
    fn fast_profile_reproduces_margins() {
        let skew = MarginalDistribution::from_noisy_histogram(&[70.0, 20.0, 10.0]);
        let s =
            CopulaSampler::new(&equicorrelation(2, 0.0), vec![skew, uniform_margin(4)]).unwrap();
        let cols = window(&s, SamplingProfile::Fast, 0, 30_000, 2, 4, 4096);
        let f0 = cols[0].iter().filter(|&&v| v == 0).count() as f64 / 30_000.0;
        let f2 = cols[0].iter().filter(|&&v| v == 2).count() as f64 / 30_000.0;
        assert!((f0 - 0.7).abs() < 0.02, "f0 {f0}");
        assert!((f2 - 0.1).abs() < 0.02, "f2 {f2}");
    }

    #[test]
    fn profile_names_are_stable() {
        assert_eq!(SamplingProfile::Reference.name(), "reference");
        assert_eq!(SamplingProfile::Fast.name(), "fast");
        assert_eq!(SamplingProfile::default(), SamplingProfile::Reference);
    }
}
