//! # dmm-trace — analysis, live viewing and replay of simulation traces
//!
//! The simulator emits a JSON-lines trace (one record per line, fixed field
//! order per record type — see [`schema`]). This crate reads those traces
//! back — whole, or incrementally as they grow ([`reader::FollowReader`]) —
//! and turns them into analyses:
//!
//! - [`report::waterfall`]: per-class × per-stage response-time breakdown
//!   from sampled `span` records (where does each class's time go?);
//! - [`report::convergence`]: per-class goal-attainment timeline from
//!   `interval` records (when did the controller settle, how tight?);
//! - [`report::residuals`]: controller explainability — realized
//!   prediction residuals and hyperplane fit residuals (can the fitted
//!   surface be trusted?);
//! - [`report::executor`]: scheduler and sink counters from a metrics
//!   sidecar, and [`report::csv_section`]: machine-readable CSV exports;
//! - [`watch`]: a dependency-free terminal dashboard over the record
//!   stream — live, paced playback, or deterministic `--snapshot` frames;
//! - [`diff::diff`]: structural comparison of two runs, field by field
//!   (the determinism contract made checkable from the outside).
//!
//! The `dmm-trace` binary wraps these as `schema`, `report`, `diff`,
//! `watch` and `replay` subcommands. `replay` leans on `dmm-core` to
//! re-run a recorded configuration (see `dmm_core::replay`); everything
//! else is pure std + the in-house `dmm-obs` JSON. Traces of any size
//! stream line by line.

pub mod diff;
pub mod reader;
pub mod report;
pub mod schema;
pub mod watch;

pub use diff::{diff, DiffReport};
pub use reader::{read_file, read_str, FollowReader, ReadError, Record, Trace};
pub use schema::{
    expected_fields, expected_fields_ext, expected_fields_for, quantile_extension_fields,
    tier_extension_fields, validate_record, RECORD_TYPES, SPAN_STAGE_FIELDS,
};
pub use watch::{snapshot, WatchState};
