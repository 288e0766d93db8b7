//! # dpcopula-serve — synthesis as a service
//!
//! The serving layer over the DPCopula fit-once/sample-many split: a
//! dependency-free HTTP/1.1 daemon that keeps `.dpcm` model artifacts
//! hot in an LRU registry, meters fit requests against per-tenant
//! privacy budgets, and streams deterministic synthetic row windows.
//! The crate is a library: `dpcopula-cli serve` is the daemon's one
//! command-line front door, and [`Server::bind`] runs it in-process.
//!
//! The crate is layered bottom-up:
//!
//! * [`json`] — a strict, bounded-depth JSON parser and string escaper
//!   (the workspace takes no dependencies, so the wire format is
//!   handled in-repo like modelstore's codec);
//! * [`http`] — request/response framing over `std::net` with hard
//!   head/body limits, `Expect: 100-continue` support, and spooling of
//!   oversized `text/csv` fit bodies to a private temp file;
//! * [`registry`] — byte-compared LRU cache of decoded
//!   [`FittedModel`]s over a watched artifact directory;
//! * [`budget`] — per-tenant ε admission control on integer nano-ε
//!   counts (fits are metered; sampling is ε-free post-processing and
//!   never gated);
//! * [`server`] — the routing daemon tying it together, one route per
//!   endpoint (a single fit route for the JSON and raw-CSV shapes), with
//!   every request counted and timed through obskit.
//!
//! Wire protocol and concurrency model are documented in DESIGN.md §13.
//!
//! [`FittedModel`]: dpcopula::FittedModel

#![warn(missing_docs)]

pub mod budget;
pub mod http;
pub mod json;
pub mod registry;
pub mod server;

pub use budget::{BudgetGate, GateError, TenantConfigError, DEFAULT_TENANT};
pub use registry::{ModelInfo, ModelRegistry, RegistryError};
pub use server::{ServeConfig, ServeError, Server, ShutdownHandle};
