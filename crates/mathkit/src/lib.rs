//! # mathkit — numerical substrate for the DPCopula workspace
//!
//! Everything numerical that the paper reproduction needs and that thin
//! Rust statistics crates do not reliably provide, implemented from scratch:
//!
//! * [`special`] — error function family, normal CDF/quantile (AS241), `ln Γ`;
//! * [`batch`] — slice-in/slice-out Φ and Φ⁻¹ kernels, bit-identical to
//!   [`special`], backing the fast sampling profile;
//! * [`matrix`] — a small dense row-major matrix type;
//! * [`cholesky`] — Cholesky factorisation of symmetric positive-definite matrices;
//! * [`eigen`] — cyclic-Jacobi symmetric eigendecomposition;
//! * [`correlation`] — correlation matrices and the Rousseeuw–Molenberghs
//!   positive-definite repair used by Algorithm 5 of the paper;
//! * [`dist`] — sampling and quantiles for the distributions the evaluation
//!   uses (Gaussian, uniform, Zipf, exponential, gamma, Student-t);
//! * [`fft`] — complex FFT (radix-2 + Bluestein) backing the EFPA histogram
//!   algorithm;
//! * [`dct`] — orthonormal DCT-II / DCT-III backing the DCT flavour of
//!   EFPA;
//! * [`wavelet`] — Haar wavelet transform backing Privelet;
//! * [`stats`] — descriptive statistics and distances (mean, variance,
//!   Pearson, Kolmogorov–Smirnov).
//!
//! The crate is deliberately free of external numerical dependencies so that
//! every algorithmic claim in the reproduction can be audited in one place.

#![warn(missing_docs)]

pub mod batch;
pub mod cholesky;
pub mod correlation;
pub mod dct;
pub mod dist;
pub mod eigen;
pub mod fft;
pub mod matrix;
pub mod special;
pub mod stats;
pub mod wavelet;

pub use matrix::Matrix;
