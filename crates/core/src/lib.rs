//! # dpcopula — differentially private data synthesization via copulas
//!
//! A from-scratch Rust implementation of **DPCopula** (Li, Xiong, Jiang;
//! EDBT 2014): generate differentially private synthetic multi-dimensional
//! data by (1) publishing DP *marginal* histograms per attribute, (2)
//! estimating a DP Gaussian-copula *correlation matrix* capturing the
//! cross-attribute dependence, and (3) sampling synthetic records from the
//! joint model — margins and dependence are privatised separately, which
//! is what lets the method scale to high-dimensional, large-domain data
//! where DP histogram methods drown in noise.
//!
//! Two estimators for the correlation matrix are provided, exactly as in
//! the paper:
//!
//! * **DPCopula-Kendall** (Algorithms 4–5): noisy pairwise Kendall's tau
//!   (sensitivity `4/(n+1)`, Lemma 4.1) mapped through
//!   `P = sin(pi/2 * tau)`;
//! * **DPCopula-MLE** (Algorithms 1–2): subsample-and-aggregate maximum
//!   likelihood on the pseudo-copula data.
//!
//! Entry point: [`SynthesisRequest`] — [`SynthesisRequest::fit`] for a
//! model to save and serve, [`SynthesisRequest::run`] for the fit plus
//! its rows. Small-domain attributes (e.g. binary gender) are handled by
//! [`hybrid::HybridSynthesizer`] (Algorithm 6).
//!
//! ```
//! use dpcopula::SynthesisRequest;
//! use dpmech::Epsilon;
//!
//! // A toy 2-attribute dataset on domains 50 x 50.
//! let col_a: Vec<u32> = (0..500).map(|i| i % 50).collect();
//! let col_b: Vec<u32> = col_a.iter().map(|&v| (v * 7 % 50)).collect();
//!
//! let (synth, _report) =
//!     SynthesisRequest::new(&[col_a, col_b], &[50, 50], Epsilon::new(1.0).unwrap())
//!         .seed(1)
//!         .run()
//!         .unwrap();
//! assert_eq!(synth.columns.len(), 2);
//! assert_eq!(synth.columns[0].len(), 500);
//! ```

#![warn(missing_docs)]

pub mod convergence;
pub mod distfit;
pub mod empirical;
pub mod empirical_copula;
pub mod engine;
pub mod error;
pub mod gaussian;
pub mod hybrid;
pub mod kendall;
pub mod mle;
pub mod model;
pub mod request;
pub mod sampler;
pub mod selection;
pub mod shard;
pub mod spearman;
pub mod synthesizer;
pub mod tcopula;

pub use distfit::{fit_shard, merge_shards};
pub use engine::{EngineOptions, PipelineReport, StageTimings};
pub use error::DpCopulaError;
pub use model::FittedModel;
pub use request::SynthesisRequest;
pub use sampler::SamplingProfile;
pub use shard::ShardSpec;
pub use synthesizer::{CorrelationMethod, DpCopulaConfig, MarginMethod, Synthesis};
