//! Observability layer for the MNP reproduction.
//!
//! The paper's whole evaluation is a story of *observed* protocol
//! behaviour — sender-selection order, state-machine residency, active
//! radio time, per-minute message-class counts. This crate generalises the
//! figure-specific hooks into one event stream: the network emits
//! [`ObsEvent`]s (state transitions, TX/RX/drop with loss cause, timer
//! set/fire, sleep/wake, EEPROM writes, segment completion, node failure)
//! and any number of [`Observer`]s consume them in deterministic order.
//!
//! Built-in observers:
//!
//! - [`JsonlLogger`] — a structured JSONL event log with a stable,
//!   byte-reproducible schema;
//! - [`MetricsRegistry`] — per-node and aggregate counters, gauges and
//!   histograms, dumpable as JSON;
//! - [`InvariantMonitor`] — online protocol-safety checking that fails
//!   fast with the offending event context;
//! - [`TimelineExporter`] — per-node state residency as a Chrome trace
//!   (`chrome://tracing` / Perfetto);
//! - [`TimeSeriesSampler`] — ring-buffered snapshots of simulator health
//!   (queue depth, event rate, per-class counters) on a sim-time cadence,
//!   exported as JSONL rows or Perfetto counter tracks.
//!
//! The simulator's *self*-observability — where the kernel's own wall
//! clock goes — lives in [`ProfileReport`], the reporting layer over the
//! span profiler in `mnp_sim::profile`.
//!
//! `mnp_trace::RunTrace` is itself driven as an observer (see
//! [`trace_adapter`]), so the legacy figure metrics and this layer share
//! one hook path.
//!
//! The build environment is offline: all JSON here is hand-rolled (no
//! serde), see the `json` module's docs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod invariants;
mod json;
mod jsonl;
mod metrics;
mod observer;
mod profiler;
mod state_label;
mod timeline;
mod timeseries;
pub mod trace_adapter;

pub use event::{EventKind, LossCause, MsgDetail, ObsEvent};
pub use invariants::InvariantMonitor;
pub use json::push_str_literal;
pub use jsonl::JsonlLogger;
pub use metrics::{Histogram, MetricsRegistry, NodeMetrics};
pub use observer::{Observer, Shared};
pub use profiler::{ProfileReport, ProfileRow, PROFILE_SCHEMA_VERSION};
pub use state_label::StateLabel;
pub use timeline::TimelineExporter;
pub use timeseries::{Sample, TimeSeriesSampler};
