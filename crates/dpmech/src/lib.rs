//! # dpmech — differential-privacy primitives
//!
//! The mechanisms and accounting that every DP algorithm in this workspace
//! builds on:
//!
//! * [`budget`] — a validated privacy-budget type ([`Epsilon`]) and an
//!   accountant enforcing sequential composition (Theorem 3.1 of the
//!   DPCopula paper);
//! * [`laplace`] — the Laplace distribution and the Laplace mechanism
//!   (Dwork et al., the workhorse of Definition 3.2 / the noisy counts in
//!   Algorithms 2, 5 and 6);
//! * [`exponential`] — the exponential mechanism (McSherry–Talwar), needed
//!   by the EFPA coefficient selection and the private splits of PSD and
//!   P-HP;
//! * [`draws`] — per-thread tallies of primitive noise draws, harvested
//!   by the observability layer into `noise_draws_total{stage,mech}`.
//!
//! All mechanisms are generic over `rngkit::Rng` so experiments can be made
//! deterministic with a seeded generator.

#![warn(missing_docs)]

pub mod budget;
pub mod draws;
pub mod exponential;
pub mod laplace;

pub use budget::{nano_eps, BudgetAccountant, BudgetError, Epsilon};
pub use draws::DrawCounts;
pub use exponential::exponential_mechanism;
pub use laplace::{laplace_noise, Laplace, LaplaceMechanism};
