//! Observability layer for the parameterized DBT: structured span
//! tracing, per-rule attribution counters, fixed-bucket timing
//! histograms, and machine-readable exporters (JSON report lines and
//! Chrome `trace_event` files).
//!
//! The crate has no dependencies and two build personalities:
//!
//! * With the `enabled` feature (the workspace default, forwarded as the
//!   `obs` feature of `pdbt-core`/`pdbt-runtime`/`pdbt`), spans read a
//!   monotonic clock and land in a thread-local ring buffer, and
//!   [`now_ns`] returns real timestamps.
//! * Without it, [`ENABLED`] is `false`, [`now_ns`] is a `const 0`, and
//!   [`span`] returns an inert guard — every instrumentation site
//!   reduces to straight-line dead code the optimizer removes.
//!
//! Data carriers ([`Histogram`], [`RuleCounters`], [`json::Json`]) are
//! always compiled: they hold the *results* of a run and are needed by
//! the reporting path regardless of whether timing capture is on.

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
pub use trace::{drain_events, scoped, span, Event, ScopeGuard, SpanGuard};

/// Whether timing/tracing capture is compiled in.
pub const ENABLED: bool = cfg!(feature = "enabled");

/// Nanoseconds since the process-wide trace epoch, or 0 when the
/// `enabled` feature is off.
#[inline(always)]
pub fn now_ns() -> u64 {
    trace::now_ns()
}

/// Opens a span with a lazily-built detail string: the closure only
/// runs when recording is compiled in, so callers can format rule keys
/// or addresses without paying for it in disabled builds.
#[inline(always)]
pub fn span_with(name: &'static str, detail: impl FnOnce() -> String) -> SpanGuard {
    if ENABLED {
        span(name).detail(detail())
    } else {
        span(name)
    }
}
