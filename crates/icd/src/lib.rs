//! ICD — imprecise cycle detection, the first of DoubleChecker's two
//! cooperating analyses (paper §3.2).
//!
//! ICD monitors all program accesses, piggybacking on Octet's state
//! transitions to detect cross-thread dependences soundly but imprecisely.
//! It builds the *imprecise dependence graph* (IDG) over regular and
//! (merged) unary transactions, detects strongly connected components when
//! transactions finish, and — in single-run mode or the second run of
//! multi-run mode — records per-transaction read/write logs (with duplicate
//! elision) so PCD can replay just the transactions in potential cycles.
//!
//! The crate exposes:
//!
//! * [`Icd`] — the analysis itself (hook API driven by `dc-core`'s checker),
//! * [`graph::Graph`] — the IDG with SCC detection and the transaction
//!   collector,
//! * the data types handed to PCD: [`SccReport`], [`TxSnapshot`],
//!   [`LogEntry`], [`Edge`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod graph;
mod icd;
mod pipeline;
mod ring;
pub mod types;

pub use icd::{Icd, IcdConfig, IcdStats};
pub use pipeline::{PipelineError, PipelineMode, SccSink};
pub use types::{Edge, EdgeKind, LogEntry, ReplayConstraint, SccReport, TxId, TxKind, TxSnapshot};
