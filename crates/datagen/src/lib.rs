//! # datagen — dataset substrate for the DPCopula evaluation
//!
//! * [`dataset`] — a columnar table type with attribute metadata;
//! * [`margin`] — finite discrete margins defined by probability tables,
//!   the building block of every generator here;
//! * [`synthetic`] — the synthetic data of §5.4: Gaussian *dependence*
//!   combined with Gaussian / uniform / Zipf *margins* over configurable
//!   domains and dimensionalities;
//! * [`census`] — simulated stand-ins for the paper's IPUMS US and Brazil
//!   census extracts, matching Table 2's attribute domains and realistic
//!   marginal shapes (see DESIGN.md §2 for the substitution rationale);
//! * [`io`] — CSV import/export;
//! * [`rowsource`] — streaming block-at-a-time ingestion ([`RowSource`])
//!   with eager-dataset and out-of-core CSV adapters.

#![warn(missing_docs)]

pub mod census;
pub mod dataset;
pub mod io;
pub mod margin;
pub mod rowsource;
pub mod synthetic;

pub use dataset::{Attribute, Dataset};
pub use rowsource::{Block, CsvFileSource, DatasetSource, RowSource, SourceError};
