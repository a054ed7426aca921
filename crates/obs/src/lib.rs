//! Observability layer for the parameterized DBT: structured span
//! tracing, per-rule attribution counters, fixed-bucket timing
//! histograms, and machine-readable exporters (JSON report lines and
//! Chrome `trace_event` files).
//!
//! The crate has no dependencies and one build: the clock, the
//! histograms and the telemetry are always real. Spans are recorded
//! only on a thread that holds a [`Capture`] (see [`trace`]); `pdbt run
//! --trace-out` takes one around the run it exports, and everywhere
//! else a span costs one thread-local read.

pub mod counters;
pub mod hist;
pub mod json;
pub mod telemetry;
pub mod trace;

pub use counters::{
    ArtifactCounters, ArtifactSnapshot, Counter, DispatchCounters, FleetCounters, FleetSnapshot,
    PoolCounters, RuleCounters, RuleId, RuleRow, ServerCounters, ServerSnapshot, ShardCounters,
};
pub use hist::Histogram;
pub use telemetry::{
    FlightRecorder, LatencyHists, LatencyRecorder, PhaseNs, RequestSummary, Telemetry,
    TelemetrySnapshot,
};
pub use trace::{capture, now_ns, span, span_with, Capture, Event, SpanGuard};
