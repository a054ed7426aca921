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

use crate::counters::ServerSnapshot;
use crate::hist::Histogram;
use crate::json::Json;
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

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("queue_ns", Json::from(self.queue)),
            ("translate_ns", Json::from(self.translate)),
            ("execute_ns", Json::from(self.execute)),
            ("reply_ns", Json::from(self.reply)),
            ("total_ns", Json::from(self.total())),
        ])
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
    /// Outcome label (`completed`, `deadline`, `error`, ...).
    pub outcome: String,
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

impl RequestSummary {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seq", Json::from(self.seq)),
            ("id", Json::from(self.id)),
            ("partition", Json::str(format!("{:016x}", self.partition))),
            ("outcome", Json::str(&self.outcome)),
            ("phases", self.phases.to_json()),
            ("reply_bytes", Json::from(self.reply_bytes)),
            ("injected", Json::from(self.injected)),
            ("fault_sites", Json::str(&self.fault_sites)),
        ])
    }
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

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("request_ns", self.request_ns.to_json()),
            ("queue_ns", self.queue_ns.to_json()),
            ("reply_bytes", self.reply_bytes.to_json()),
        ])
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

    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            partition: self.partition,
            latency: self.latency.snapshot(),
            flight: self.flight.tail(),
        }
    }
}

/// A point-in-time copy of one telemetry plane.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    pub partition: u64,
    pub latency: LatencyHists,
    pub flight: Vec<RequestSummary>,
}

impl TelemetrySnapshot {
    /// One `partitions[]` row, the shape the run report (a standalone
    /// engine's single partition) and the daemon's STATS payload share:
    /// the fingerprint, the partition's `server` counters and its
    /// request-latency rollup.
    pub fn partition_pairs(
        &self,
        server: &ServerSnapshot,
    ) -> impl Iterator<Item = (&'static str, Json)> {
        let requests = &self.latency.request_ns;
        let latency = Json::obj([
            ("count", Json::from(requests.count())),
            ("p50", Json::from(requests.p50())),
            ("p95", Json::from(requests.p95())),
            ("p99", Json::from(requests.p99())),
        ]);
        // Duplicate translation work is reported server-wide only. The
        // survivors pass through a fixed-size array so the row keeps an
        // exact size hint (one allocation when collected, like a
        // literal), which `filter` alone would lose.
        let mut kept = server
            .section_pairs()
            .filter(|(key, _)| *key != "translate_calls");
        let counters: [_; ServerSnapshot::FIELDS.len() + 1] =
            std::array::from_fn(|_| kept.next().expect("the section minus one key"));
        counters.into_iter().chain([
            ("partition", Json::str(format!("{:016x}", self.partition))),
            ("latency", latency),
        ])
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("latency", self.latency.to_json()),
            (
                "flight",
                Json::Arr(self.flight.iter().map(|s| s.to_json()).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(seq: u64, total: u64) -> RequestSummary {
        RequestSummary {
            seq,
            id: seq,
            outcome: "completed".into(),
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
    fn telemetry_seq_is_monotone_and_snapshot_carries_both_planes() {
        let t = Telemetry::new(2);
        assert_eq!(t.next_seq(), 1);
        assert_eq!(t.next_seq(), 2);
        t.record(0, summary(1, 100_000));
        t.record(1, summary(2, 200_000));
        let snap = t.snapshot();
        assert_eq!(snap.latency.request_ns.count(), 2);
        assert_eq!(snap.flight.len(), 2);
        let doc = snap.to_json();
        assert!(doc
            .get("latency")
            .and_then(|l| l.get("request_ns"))
            .is_some());
        assert_eq!(
            doc.get("flight").and_then(Json::as_arr).map(|a| a.len()),
            Some(2)
        );
    }
}
