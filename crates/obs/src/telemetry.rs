//! Serving-plane telemetry: request-lifecycle latency histograms and a
//! flight recorder of recent request summaries.
//!
//! The serving daemon stamps every request with phase timestamps
//! (queue wait, translate, execute, reply) and folds them into
//! [`LatencyRecorder`] — a vector of per-worker-slot histogram sets.
//! Workers record into *their own* slot, so the hot path contends only
//! with a snapshot in progress, never with another worker; snapshots
//! merge the slots in index order, the same discipline `pdbt-par` uses
//! for per-worker counters, so a snapshot taken after quiescence is a
//! deterministic function of the requests served, independent of
//! worker interleaving.
//!
//! [`FlightRecorder`] keeps the last [`FlightRecorder::CAPACITY`]
//! request summaries in a fixed ring so a postmortem (panic, drain,
//! or a live `STATS` poll) can show *what the daemon just did* without
//! rerunning anything.

use crate::counters::{Member, ServerSnapshot};
use crate::hist::Histogram;
use crate::json::{TextWriter, ToJson};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Per-request phase durations in nanoseconds. All zero when the `obs`
/// clock is compiled out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseNs {
    /// Accept to dequeue: time spent waiting for a session worker.
    pub queue: u64,
    /// Time inside the translator: the sum over the blocks and the
    /// traces the request translated.
    pub translate: u64,
    /// Dequeue to run completion, minus translate.
    pub execute: u64,
    /// Serializing and writing the response frame.
    pub reply: u64,
}

impl PhaseNs {
    /// End-to-end latency: the sum of every phase.
    pub fn total(&self) -> u64 {
        self.queue
            .saturating_add(self.translate)
            .saturating_add(self.execute)
            .saturating_add(self.reply)
    }
}

impl ToJson for PhaseNs {
    fn emit(&self, out: &mut TextWriter<'_>) {
        out.begin_obj();
        out.field("execute_ns", &self.execute);
        out.field("queue_ns", &self.queue);
        out.field("reply_ns", &self.reply);
        out.field("total_ns", &self.total());
        out.field("translate_ns", &self.translate);
        out.end_obj();
    }
}

/// One completed request, as remembered by the flight recorder.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RequestSummary {
    /// Server-assigned monotone request sequence number.
    pub seq: u64,
    /// Client-supplied request id.
    pub id: u64,
    /// Guest-image partition fingerprint the request ran against.
    pub partition: u64,
    /// Outcome label (`completed`, `budget`, `deadline`, `exec`).
    pub outcome: &'static str,
    /// Phase latencies.
    pub phases: PhaseNs,
    /// Response payload size in bytes.
    pub reply_bytes: u64,
    /// Total faults injected during the run (0 without the `faults`
    /// feature or an armed plan).
    pub injected: u64,
    /// Comma-separated fault sites armed for the run, empty when none.
    pub fault_sites: String,
}

impl ToJson for RequestSummary {
    fn emit(&self, out: &mut TextWriter<'_>) {
        out.begin_obj();
        out.field("fault_sites", &self.fault_sites);
        out.field("id", &self.id);
        out.field("injected", &self.injected);
        out.field("outcome", self.outcome);
        out.field("partition", &hex16(self.partition));
        out.field("phases", &self.phases);
        out.field("reply_bytes", &self.reply_bytes);
        out.field("seq", &self.seq);
        out.end_obj();
    }
}

/// A partition fingerprint as its JSON spells it: 16 hex digits.
fn hex16(fingerprint: u64) -> String {
    format!("{fingerprint:016x}")
}

/// The latency histogram set kept per worker slot (and produced,
/// merged, by snapshots): end-to-end request latency, queue wait, and
/// reply payload size.
#[derive(Clone, Debug)]
pub struct LatencyHists {
    pub request_ns: Histogram,
    pub queue_ns: Histogram,
    pub reply_bytes: Histogram,
}

impl Default for LatencyHists {
    fn default() -> Self {
        LatencyHists {
            request_ns: Histogram::request_ns(),
            queue_ns: Histogram::queue_wait_ns(),
            reply_bytes: Histogram::reply_bytes(),
        }
    }
}

impl LatencyHists {
    pub fn record(&mut self, summary: &RequestSummary) {
        self.request_ns.record(summary.phases.total());
        self.queue_ns.record(summary.phases.queue);
        self.reply_bytes.record(summary.reply_bytes);
    }

    pub fn merge(&mut self, other: &LatencyHists) {
        self.request_ns.merge(&other.request_ns);
        self.queue_ns.merge(&other.queue_ns);
        self.reply_bytes.merge(&other.reply_bytes);
    }
}

impl ToJson for LatencyHists {
    fn emit(&self, out: &mut TextWriter<'_>) {
        out.begin_obj();
        out.field("queue_ns", &self.queue_ns);
        out.field("reply_bytes", &self.reply_bytes);
        out.field("request_ns", &self.request_ns);
        out.end_obj();
    }
}

/// Per-worker-slot latency histograms, merged in slot order on
/// snapshot.
#[derive(Debug)]
pub struct LatencyRecorder {
    slots: Vec<Mutex<LatencyHists>>,
}

impl LatencyRecorder {
    pub fn new(slots: usize) -> Self {
        LatencyRecorder {
            slots: (0..slots.max(1))
                .map(|_| Mutex::new(LatencyHists::default()))
                .collect(),
        }
    }

    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Records into `slot`'s histogram set (wrapped modulo the slot
    /// count, so callers can pass a worker index directly).
    pub fn record(&self, slot: usize, summary: &RequestSummary) {
        let mut h = self.slots[slot % self.slots.len()].lock().unwrap();
        h.record(summary);
    }

    /// Merges every slot in index order into one histogram set. After
    /// quiescence the result is independent of which worker served
    /// which request, because histogram merge is commutative over
    /// bucket counts and the iteration order is fixed.
    pub fn snapshot(&self) -> LatencyHists {
        let mut out = LatencyHists::default();
        for slot in &self.slots {
            out.merge(&slot.lock().unwrap());
        }
        out
    }
}

/// A fixed-size ring of the most recent [`RequestSummary`] values.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    ring: Mutex<VecDeque<RequestSummary>>,
}

impl FlightRecorder {
    /// Summaries retained; old entries fall off the front.
    pub const CAPACITY: usize = 32;

    pub fn record(&self, summary: RequestSummary) {
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == Self::CAPACITY {
            ring.pop_front();
        }
        ring.push_back(summary);
    }

    /// The retained summaries ordered by request sequence number, so
    /// the tail reads chronologically even when workers finished out
    /// of submission order.
    pub fn tail(&self) -> Vec<RequestSummary> {
        let mut out: Vec<_> = self.ring.lock().unwrap().iter().cloned().collect();
        out.sort_by_key(|s| s.seq);
        out
    }
}

/// The telemetry plane attached to one shared translation state:
/// latency recording, the flight recorder, and the request sequence
/// counter.
#[derive(Debug)]
pub struct Telemetry {
    latency: LatencyRecorder,
    flight: FlightRecorder,
    seq: AtomicU64,
    partition: u64,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(1)
    }
}

impl Telemetry {
    pub fn new(slots: usize) -> Self {
        Telemetry::with_partition(slots, 0)
    }

    /// A telemetry plane stamped with the guest-image partition
    /// fingerprint it serves (0 for a standalone, partitionless run).
    pub fn with_partition(slots: usize, partition: u64) -> Self {
        Telemetry {
            latency: LatencyRecorder::new(slots),
            flight: FlightRecorder::default(),
            seq: AtomicU64::new(0),
            partition,
        }
    }

    /// The guest-image partition fingerprint, 0 when standalone.
    pub fn partition(&self) -> u64 {
        self.partition
    }

    /// Claims the next request sequence number (monotone from 1).
    pub fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Folds a completed request into the slot's histograms and the
    /// flight ring.
    pub fn record(&self, slot: usize, summary: RequestSummary) {
        self.latency.record(slot, &summary);
        self.flight.record(summary);
    }

    pub fn latency(&self) -> &LatencyRecorder {
        &self.latency
    }

    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The latency rollup. The flight tail is read on its own
    /// ([`Telemetry::flight`]): only STATS and the drain dump show it.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            partition: self.partition,
            latency: self.latency.snapshot(),
        }
    }
}

/// A point-in-time copy of one telemetry plane's latency histograms.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    pub partition: u64,
    pub latency: LatencyHists,
}

impl TelemetrySnapshot {
    /// One STATS `partitions[]` row's members, into the object `out`
    /// has open: the fingerprint, the partition's `server` counters and
    /// its request-latency rollup, with the caller's `extra` members (in
    /// key order) merged in. Duplicate translation work
    /// (`translate_calls`) is reported server-wide only.
    pub fn emit_partition_fields(
        &self,
        out: &mut TextWriter<'_>,
        server: &ServerSnapshot,
        extra: &[Member<'_>],
    ) {
        let latency = Rollup(&self.latency.request_ns);
        let partition = hex16(self.partition);
        let own: [Member<'_>; 2] = [("latency", &latency), ("partition", &partition)];
        server.emit_section(out, &["translate_calls"], &own, extra);
    }
}

/// A histogram's count and quantiles: a partition's request-latency
/// rollup.
struct Rollup<'a>(&'a Histogram);

impl ToJson for Rollup<'_> {
    fn emit(&self, out: &mut TextWriter<'_>) {
        out.begin_obj();
        out.field("count", &self.0.count());
        out.field("p50", &self.0.p50());
        out.field("p95", &self.0.p95());
        out.field("p99", &self.0.p99());
        out.end_obj();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(seq: u64, total: u64) -> RequestSummary {
        RequestSummary {
            seq,
            id: seq,
            outcome: "completed",
            phases: PhaseNs {
                queue: total / 4,
                translate: total / 4,
                execute: total / 2,
                reply: 0,
            },
            reply_bytes: 512,
            ..RequestSummary::default()
        }
    }

    #[test]
    fn slot_merge_is_independent_of_assignment() {
        // The same 8 requests recorded under two different
        // worker-to-request assignments must snapshot identically.
        let a = LatencyRecorder::new(4);
        let b = LatencyRecorder::new(4);
        for i in 0..8u64 {
            let s = summary(i, 40_000 * (i + 1));
            a.record(i as usize % 4, &s);
            b.record((7 - i) as usize % 4, &s);
        }
        assert_eq!(
            a.snapshot().to_json().to_string(),
            b.snapshot().to_json().to_string()
        );
    }

    #[test]
    fn flight_ring_keeps_the_most_recent_in_seq_order() {
        let f = FlightRecorder::default();
        for seq in 1..=(FlightRecorder::CAPACITY as u64 + 5) {
            // Record mildly out of order in pairs to exercise sorting.
            f.record(summary(seq ^ 1, 1_000));
        }
        let tail = f.tail();
        assert_eq!(tail.len(), FlightRecorder::CAPACITY);
        assert!(tail.windows(2).all(|w| w[0].seq <= w[1].seq));
    }

    #[test]
    fn telemetry_seq_is_monotone_and_record_feeds_both_planes() {
        let t = Telemetry::new(2);
        assert_eq!(t.next_seq(), 1);
        assert_eq!(t.next_seq(), 2);
        t.record(0, summary(1, 100_000));
        t.record(1, summary(2, 200_000));
        assert_eq!(t.snapshot().latency.request_ns.count(), 2);
        assert_eq!(t.flight().tail().len(), 2);
    }
}
