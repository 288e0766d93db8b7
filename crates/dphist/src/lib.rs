//! # dphist — differentially private histogram publication
//!
//! The histogram substrate of the DPCopula reproduction. DPCopula itself
//! only needs *one-dimensional* DP marginal histograms (Algorithm 1/4,
//! step 1) — but the paper's evaluation compares against four
//! general-purpose multi-dimensional DP histogram methods, so this crate
//! implements all of them from scratch:
//!
//! * [`histogram`] — plain 1-D / N-D count histograms with range sums;
//! * [`identity`] — the Dwork Laplace-per-bin baseline;
//! * [`efpa`] — EFPA (Ács, Castelluccia, Chen; ICDM 2012): Fourier
//!   perturbation with exponential-mechanism selection of the number of
//!   retained coefficients. This is the method DPCopula uses for its
//!   margins;
//! * [`privelet`] — Privelet / Privelet+ (Xiao, Wang, Gehrke; ICDE 2010):
//!   Haar-wavelet noise with per-level calibration, including a
//!   statistically exact *lazy* multi-dimensional variant that never
//!   materialises the full grid;
//! * [`psd`] — Private Spatial Decomposition, KD-hybrid flavour (Cormode
//!   et al.; ICDE 2012): private-median KD tree with geometric budget
//!   allocation;
//! * [`php`] — P-HP (Ács et al.; ICDM 2012): hierarchical bisection
//!   minimising L1 error through the exponential mechanism;
//! * [`fp`] — Filter Priority (Cormode, Procopiuc, Srivastava, Tran;
//!   ICDT 2012): sparse summaries with threshold filtering.
//!
//! One-dimensional methods implement [`Publish1d`]; multi-dimensional
//! estimators implement [`RangeCountEstimator`].

#![warn(missing_docs)]

pub mod efpa;
pub mod efpa_dct;
pub mod fp;
pub mod hierarchical;
pub mod histogram;
pub mod identity;
pub mod noisefirst;
pub mod php;
pub mod prefix;
pub mod privelet;
pub mod psd;
pub mod registry;
pub mod structurefirst;

pub use histogram::{Histogram1D, HistogramNd};
pub use registry::{MarginCtor, MarginRegistry, RegistryError};

use dpmech::Epsilon;
use rngkit::RngCore;

/// A 1-D DP histogram publication algorithm: consumes exact counts, spends
/// `epsilon`, returns noisy counts of the same length.
///
/// The trait is object-safe (the generator is passed as `&mut dyn
/// RngCore`, which carries the full [`rngkit::Rng`] API through rngkit's
/// blanket impl) so publishers can be boxed and dispatched from the
/// [`registry::MarginRegistry`]. Concrete generators coerce at the call
/// site: `Efpa.publish(&counts, eps, &mut rng)` works for any
/// `rng: impl RngCore`.
pub trait Publish1d {
    /// Publishes a DP version of the exact `counts` under `epsilon`-DP.
    fn publish(&self, counts: &[f64], epsilon: Epsilon, rng: &mut dyn RngCore) -> Vec<f64>;

    /// Human-readable algorithm name for experiment reports.
    fn name(&self) -> &'static str;
}

/// An inclusive per-dimension range `[lo, hi]` on the integer domain of an
/// attribute.
pub type DimRange = (u32, u32);

/// A published multi-dimensional DP structure that can answer range-count
/// queries (one inclusive interval per dimension).
///
/// `range_count` takes `&mut self` because the lazy estimators
/// (Privelet+'s on-demand coefficient noise, FP's false-positive cache)
/// memoise noise draws so repeated queries see a consistent release.
pub trait RangeCountEstimator {
    /// Estimated number of records inside the hyper-rectangle `query`
    /// (one `[lo, hi]` interval per dimension, inclusive).
    fn range_count(&mut self, query: &[DimRange]) -> f64;

    /// Number of dimensions this estimator answers over.
    fn dims(&self) -> usize;
}
