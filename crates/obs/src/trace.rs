//! Ring-buffered structured span tracing.
//!
//! [`span`] opens a named span; the guard records a completed [`Event`]
//! into a thread-local ring buffer when dropped. The buffer holds the
//! most recent [`CAPACITY`] events and counts (rather than grows on)
//! overflow, so tracing a long run has a fixed memory bound.
//!
//! Without the `enabled` feature the guard is a zero-sized type, the
//! clock reads return 0, and the whole module folds away — the
//! instrumentation sites in `learn`, `parameterize`, `verify`,
//! `translate_block` and `exec_segment` cost nothing.

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
    /// Session/request scope the span ran under (see [`scoped`]); 0
    /// when no scope was active.
    pub scope: u64,
}

/// Ring capacity in events.
pub const CAPACITY: usize = 1 << 16;

#[cfg(feature = "enabled")]
mod imp {
    use super::{Event, CAPACITY};
    use std::cell::RefCell;
    use std::sync::OnceLock;
    use std::time::Instant;

    static EPOCH: OnceLock<Instant> = OnceLock::new();

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
        static SCOPE: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Tags every span opened on this thread until the guard drops with
    /// `id` (a session or request identifier). Nested scopes restore
    /// the outer id on drop.
    pub fn scoped(id: u64) -> ScopeGuard {
        let prev = SCOPE.with(|s| s.replace(id));
        ScopeGuard { prev }
    }

    pub struct ScopeGuard {
        prev: u64,
    }

    impl Drop for ScopeGuard {
        fn drop(&mut self) {
            SCOPE.with(|s| s.set(self.prev));
        }
    }

    fn current_scope() -> u64 {
        SCOPE.with(|s| s.get())
    }

    pub struct SpanGuard {
        name: &'static str,
        start_ns: u64,
        detail: Option<Box<str>>,
    }

    impl SpanGuard {
        /// Attaches a free-form detail string to the span.
        pub fn detail(mut self, d: impl Into<String>) -> Self {
            self.detail = Some(d.into().into_boxed_str());
            self
        }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            let dur_ns = now_ns().saturating_sub(self.start_ns);
            let ev = Event {
                name: self.name,
                start_ns: self.start_ns,
                dur_ns,
                detail: self.detail.take(),
                scope: current_scope(),
            };
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
    }

    #[inline]
    pub fn span(name: &'static str) -> SpanGuard {
        SpanGuard {
            name,
            start_ns: now_ns(),
            detail: None,
        }
    }

    /// Drains this thread's buffered events in chronological order and
    /// returns them with the count of events lost to ring overflow.
    pub fn drain_events() -> (Vec<Event>, u64) {
        RING.with(|r| {
            let mut r = r.borrow_mut();
            let head = r.head;
            let mut evs = std::mem::take(&mut r.events);
            evs.rotate_left(head);
            r.head = 0;
            (evs, std::mem::take(&mut r.dropped))
        })
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    use super::Event;

    #[inline(always)]
    pub fn now_ns() -> u64 {
        0
    }

    /// Inert zero-sized guard: construction, `detail` and drop all
    /// compile to nothing.
    pub struct SpanGuard;

    impl SpanGuard {
        #[inline(always)]
        pub fn detail(self, _d: impl Into<String>) -> Self {
            self
        }
    }

    #[inline(always)]
    pub fn span(_name: &'static str) -> SpanGuard {
        SpanGuard
    }

    #[inline(always)]
    pub fn drain_events() -> (Vec<Event>, u64) {
        (Vec::new(), 0)
    }

    /// Inert zero-sized scope guard.
    pub struct ScopeGuard;

    #[inline(always)]
    pub fn scoped(_id: u64) -> ScopeGuard {
        ScopeGuard
    }
}

pub use imp::{drain_events, now_ns, scoped, span, ScopeGuard, SpanGuard};

/// Serializes events as a Chrome `trace_event` JSON document (load in
/// `chrome://tracing` or Perfetto). Timestamps are microseconds. Each
/// distinct event scope (session/request id) becomes its own `pid`
/// track — unscoped events land on pid 1 — so multi-session daemon
/// traces no longer interleave on a single row.
pub fn export_chrome_trace(events: &[Event]) -> String {
    use crate::json::esc;
    let mut out = String::with_capacity(events.len() * 96 + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let pid = if e.scope == 0 { 1 } else { e.scope };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{pid},\"ts\":{}.{:03},\"dur\":{}.{:03}",
            esc(e.name),
            e.start_ns / 1_000,
            e.start_ns % 1_000,
            e.dur_ns / 1_000,
            e.dur_ns % 1_000,
        ));
        if let Some(d) = &e.detail {
            out.push_str(&format!(",\"args\":{{\"detail\":\"{}\"}}", esc(d)));
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(feature = "enabled")]
    fn spans_record_into_ring_in_order() {
        let _ = drain_events();
        {
            let _a = span("outer");
            let _b = span("inner").detail("x=1");
        }
        let (evs, dropped) = drain_events();
        assert_eq!(dropped, 0);
        // Guards drop inner-first.
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "inner");
        assert_eq!(evs[0].detail.as_deref(), Some("x=1"));
        assert_eq!(evs[1].name, "outer");
        assert!(evs[1].start_ns <= evs[0].start_ns);
    }

    #[test]
    #[cfg(not(feature = "enabled"))]
    fn disabled_spans_are_inert() {
        let _g = span("anything").detail("ignored");
        drop(_g);
        let (evs, dropped) = drain_events();
        assert!(evs.is_empty());
        assert_eq!(dropped, 0);
        assert_eq!(now_ns(), 0);
    }

    #[test]
    #[cfg(feature = "enabled")]
    fn scoped_spans_carry_the_session_id() {
        let _ = drain_events();
        {
            let _outer = scoped(7);
            let _a = span("in_scope");
            drop(_a);
            {
                let _inner = scoped(9);
                let _b = span("nested_scope");
            }
            let _c = span("back_in_outer");
        }
        let _d = span("unscoped");
        drop(_d);
        let (evs, _) = drain_events();
        let scope_of = |name: &str| evs.iter().find(|e| e.name == name).unwrap().scope;
        assert_eq!(scope_of("in_scope"), 7);
        assert_eq!(scope_of("nested_scope"), 9);
        assert_eq!(scope_of("back_in_outer"), 7);
        assert_eq!(scope_of("unscoped"), 0);
    }

    #[test]
    fn chrome_export_is_wellformed_json() {
        let evs = vec![
            Event {
                name: "translate_block",
                start_ns: 1_500,
                dur_ns: 2_000,
                detail: Some("addr=0x1000".into()),
                scope: 0,
            },
            Event {
                name: "exec_segment",
                start_ns: 4_000,
                dur_ns: 10,
                detail: None,
                scope: 42,
            },
        ];
        let s = export_chrome_trace(&evs);
        let doc = crate::json::Json::parse(&s).expect("parses");
        let arr = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(
            arr[0].get("name").and_then(|v| v.as_str()),
            Some("translate_block")
        );
        assert_eq!(arr[1].get("ph").and_then(|v| v.as_str()), Some("X"));
        // Unscoped events fall on pid 1; scoped events get their own.
        assert_eq!(arr[0].get("pid").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(arr[1].get("pid").and_then(|v| v.as_u64()), Some(42));
        assert_eq!(arr[1].get("tid").and_then(|v| v.as_u64()), Some(42));
    }
}
