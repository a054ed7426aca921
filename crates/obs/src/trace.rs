//! Span tracing, recorded only under a capture.
//!
//! [`span`] opens a named span. While its thread holds a [`Capture`]
//! (see [`capture`]), the guard records a completed [`Event`] into a
//! thread-local ring buffer when dropped, and [`Capture::finish`]
//! drains it. The buffer holds the most recent [`CAPACITY`] events and
//! counts (rather than grows on) overflow, so tracing a long run has a
//! fixed memory bound.
//!
//! Outside a capture a span reads no clock, runs no detail closure and
//! records nothing: the instrumentation sites in `learn`,
//! `parameterize`, `verify`, `translate_block` and `exec_segment` cost
//! one thread-local read, and no ring fills up that nothing drains.

use crate::json::{TextWriter, ToJson};
use std::cell::{Cell, RefCell};
use std::sync::OnceLock;
use std::time::Instant;

/// A completed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Span name (`translate_block`, `verify`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Optional free-form argument (e.g. the block address or rule key).
    pub detail: Option<Box<str>>,
}

/// Ring capacity in events.
pub const CAPACITY: usize = 1 << 16;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide trace epoch (the first call).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

struct Ring {
    events: Vec<Event>,
    head: usize,
    dropped: u64,
}

thread_local! {
    static RING: RefCell<Ring> = const { RefCell::new(Ring {
        events: Vec::new(),
        head: 0,
        dropped: 0,
    }) };
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
}

#[inline]
fn capturing() -> bool {
    CAPTURING.with(Cell::get)
}

/// Records this thread's spans until the guard finishes or drops.
/// Other threads record nothing unless they take their own capture. A
/// capture taken inside another shares its ring: finishing either
/// drains everything recorded so far.
pub fn capture() -> Capture {
    let prev = CAPTURING.with(|c| c.replace(true));
    Capture { prev }
}

/// An open capture (see [`capture`]). Dropping it unfinished discards
/// what it recorded.
#[must_use = "spans are recorded only while the capture is held"]
pub struct Capture {
    prev: bool,
}

impl Capture {
    /// Ends the capture and returns its events in chronological order
    /// with the count of events lost to ring overflow.
    pub fn finish(self) -> (Vec<Event>, u64) {
        drain()
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        CAPTURING.with(|c| c.set(self.prev));
        if !self.prev {
            drain();
        }
    }
}

fn drain() -> (Vec<Event>, u64) {
    RING.with(|r| {
        let mut r = r.borrow_mut();
        let head = r.head;
        let mut evs = std::mem::take(&mut r.events);
        evs.rotate_left(head);
        r.head = 0;
        (evs, std::mem::take(&mut r.dropped))
    })
}

/// An open span: records its [`Event`] when dropped, if it was opened
/// under a capture that is still held.
pub struct SpanGuard(Option<Event>);

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(ev) = self.0.take() {
            record(ev);
        }
    }
}

fn record(mut ev: Event) {
    if !capturing() {
        return;
    }
    ev.dur_ns = now_ns().saturating_sub(ev.start_ns);
    RING.with(|r| {
        let mut r = r.borrow_mut();
        if r.events.len() < CAPACITY {
            r.events.push(ev);
        } else {
            let head = r.head;
            r.events[head] = ev;
            r.head = (head + 1) % CAPACITY;
            r.dropped += 1;
        }
    });
}

/// Opens a span named `name`.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard(capturing().then(|| Event {
        name,
        start_ns: now_ns(),
        dur_ns: 0,
        detail: None,
    }))
}

/// Opens a span with a lazily-built detail string: the closure runs
/// only under a capture, so callers can format rule keys or addresses
/// without paying for it when nothing records.
#[inline]
pub fn span_with(name: &'static str, detail: impl FnOnce() -> String) -> SpanGuard {
    let mut guard = span(name);
    if let Some(ev) = &mut guard.0 {
        ev.detail = Some(detail().into_boxed_str());
    }
    guard
}

/// One Chrome `trace_event` complete event (`"ph":"X"`). Timestamps
/// are microseconds. A capture holds one thread's spans, so every event
/// is on track 1 (`pid` and `tid`).
impl ToJson for Event {
    fn emit(&self, out: &mut TextWriter<'_>) {
        out.begin_obj();
        if let Some(detail) = &self.detail {
            out.key("args");
            out.begin_obj();
            out.field("detail", &**detail);
            out.end_obj();
        }
        out.field("dur", &(self.dur_ns as f64 / 1e3));
        out.field("name", self.name);
        out.field("ph", "X");
        out.field("pid", &1u64);
        out.field("tid", &1u64);
        out.field("ts", &(self.start_ns as f64 / 1e3));
        out.end_obj();
    }
}

/// Serializes events as a Chrome `trace_event` JSON document (load in
/// `chrome://tracing` or Perfetto).
pub fn export_chrome_trace(events: &[Event]) -> String {
    let mut text = Vec::with_capacity(events.len() * 96 + 32);
    let mut out = TextWriter::new(&mut text);
    out.begin_obj();
    out.key("traceEvents");
    out.arr(events);
    out.end_obj();
    String::from_utf8(text).expect("the writer writes UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_into_ring_in_order() {
        let capture = capture();
        {
            let _a = span("outer");
            let _b = span_with("inner", || "x=1".into());
        }
        let (evs, dropped) = capture.finish();
        assert_eq!(dropped, 0);
        // Guards drop inner-first.
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "inner");
        assert_eq!(evs[0].detail.as_deref(), Some("x=1"));
        assert_eq!(evs[1].name, "outer");
        assert!(evs[1].start_ns <= evs[0].start_ns);
    }

    #[test]
    fn spans_outside_a_capture_record_nothing() {
        let before = span("before_capture");
        let _ = span_with("anything", || panic!("detail built outside a capture"));
        let held = capture();
        drop(before);
        let (evs, dropped) = held.finish();
        assert!(evs.is_empty(), "{evs:?}");
        assert_eq!(dropped, 0);
        // Nor does a span that outlives its capture.
        let held = capture();
        let late = span("late");
        held.finish();
        drop(late);
        assert!(capture().finish().0.is_empty());
    }

    #[test]
    fn chrome_export_is_wellformed_json() {
        let evs = vec![
            Event {
                name: "translate_block",
                start_ns: 1_500,
                dur_ns: 2_000,
                detail: Some("addr=0x1000 \"q\" \\ \n\t\u{1}\u{1f}".into()),
            },
            Event {
                name: "exec_segment",
                start_ns: 4_000_000_007,
                dur_ns: 10,
                detail: None,
            },
        ];
        let s = export_chrome_trace(&evs);
        let doc = crate::json::Json::parse(&s).expect("parses");
        assert_eq!(doc.to_string(), s, "members in key order");
        let arr = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(arr.len(), evs.len());
        for (e, got) in evs.iter().zip(arr) {
            let field = |k: &str| got.get(k).unwrap_or_else(|| panic!("{k} in {got}"));
            assert_eq!(field("name").as_str(), Some(e.name));
            assert_eq!(field("ph").as_str(), Some("X"));
            assert_eq!(field("ts").as_f64(), Some(e.start_ns as f64 / 1e3));
            assert_eq!(field("dur").as_f64(), Some(e.dur_ns as f64 / 1e3));
            assert_eq!(field("pid").as_u64(), Some(1));
            assert_eq!(field("tid").as_u64(), Some(1));
            let detail = got.get("args").and_then(|a| a.get("detail"));
            assert_eq!(detail.and_then(|d| d.as_str()), e.detail.as_deref());
        }
    }
}
