//! Bench-side spans: one record per call into a product layer, kept in
//! memory and handed to the parent when the child ends.
//!
//! These are the benchmark's own spans, recorded around the public
//! calls it makes — not the product's `pdbt_obs` ring, which stays
//! exactly as shipped (compiled in, nothing draining it). Off by
//! default: the end-to-end numbers are measured with [`enable`] never
//! called, where [`span`] is one relaxed atomic load.

use pdbt_obs::json::Json;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

struct Record {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDS: Mutex<Vec<Record>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<(Instant, u64)> = OnceLock::new();

thread_local! {
    /// The innermost open span on this thread: the parent of the next.
    static CURRENT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn epoch() -> &'static (Instant, u64) {
    EPOCH.get_or_init(|| {
        let unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        (Instant::now(), unix)
    })
}

fn now_ns() -> u64 {
    epoch().0.elapsed().as_nanos() as u64
}

/// Starts recording. Called once, before any span, by a traced child.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// How many spans have been recorded so far.
pub fn recorded() -> usize {
    RECORDS.lock().expect("span recorder poisoned").len()
}

/// What recording one span costs, in ns: the mean over 20 000 recorded
/// here and then taken out of the record again.
pub fn cost_ns() -> f64 {
    const SPANS: u32 = 20_000;
    let before = recorded();
    let start = Instant::now();
    for _ in 0..SPANS {
        drop(span("trace.cost"));
    }
    let cost = start.elapsed().as_secs_f64() * 1e9 / f64::from(SPANS);
    RECORDS
        .lock()
        .expect("span recorder poisoned")
        .truncate(before);
    cost
}

/// An open span; records its end when dropped.
pub struct Guard {
    index: Option<usize>,
    outer: Option<usize>,
}

/// Opens a span named after the layer call it wraps.
pub fn span(name: &'static str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard {
            index: None,
            outer: None,
        };
    }
    let outer = CURRENT.get();
    let mut records = RECORDS.lock().expect("span recorder poisoned");
    let index = records.len();
    records.push(Record {
        name,
        start_ns: now_ns(),
        end_ns: 0,
        parent: outer,
    });
    drop(records);
    CURRENT.set(Some(index));
    Guard {
        index: Some(index),
        outer,
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let end = now_ns();
            RECORDS.lock().expect("span recorder poisoned")[index].end_ns = end;
            CURRENT.set(self.outer);
        }
    }
}

/// Every recorded span as `{name, start_ns, end_ns, parent}`, with
/// times on the wall clock (ns since the Unix epoch) so spans from
/// different child processes line up in one `trace.json`. `parent` is
/// an index into this same array, or null.
pub fn drain_json() -> Json {
    let base = epoch().1;
    let records = std::mem::take(&mut *RECORDS.lock().expect("span recorder poisoned"));
    Json::arr(records.into_iter().map(|r| {
        Json::obj([
            ("name", Json::str(r.name)),
            ("start_ns", Json::from(base + r.start_ns)),
            ("end_ns", Json::from(base + r.end_ns)),
            ("parent", r.parent.map_or(Json::Null, Json::from)),
        ])
    }))
}

/// Per-name totals over one child's span array: calls, total time, and
/// self time (a span's duration minus the part its direct children
/// cover). Returns `(name, calls, total_ms, self_ms)` sorted by name.
pub fn fold_self_time(spans: &[Json]) -> Vec<(String, u64, f64, f64)> {
    let dur = |s: &Json| {
        let at = |k| s.get(k).and_then(Json::as_u64).unwrap_or(0);
        at("end_ns").saturating_sub(at("start_ns")) as f64 / 1e6
    };
    let mut child_ms = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.get("parent").and_then(Json::as_u64) {
            if let Some(slot) = child_ms.get_mut(p as usize) {
                *slot += dur(s);
            }
        }
    }
    let mut rows = std::collections::BTreeMap::<String, (u64, f64, f64)>::new();
    for (s, covered) in spans.iter().zip(&child_ms) {
        let name = s.get("name").and_then(Json::as_str).unwrap_or("?");
        let row = rows.entry(name.to_string()).or_default();
        row.0 += 1;
        row.1 += dur(s);
        row.2 += (dur(s) - covered).max(0.0);
    }
    rows.into_iter()
        .map(|(name, (calls, total, own))| (name, calls, total, own))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &str, start: u64, end: u64, parent: Option<u64>) -> Json {
        Json::obj([
            ("name", Json::str(name)),
            ("start_ns", Json::from(start)),
            ("end_ns", Json::from(end)),
            ("parent", parent.map_or(Json::Null, Json::from)),
        ])
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            s("round", 0, 10_000_000, None),
            s("run", 1_000_000, 4_000_000, Some(0)),
            s("run", 5_000_000, 9_000_000, Some(0)),
            s("translate", 1_000_000, 2_000_000, Some(1)),
        ];
        let rows = fold_self_time(&spans);
        assert_eq!(rows.len(), 3);
        let row = |n: &str| rows.iter().find(|r| r.0 == n).unwrap().clone();
        assert_eq!(row("round"), ("round".into(), 1, 10.0, 3.0));
        assert_eq!(row("run"), ("run".into(), 2, 7.0, 6.0));
        assert_eq!(row("translate"), ("translate".into(), 1, 1.0, 1.0));
    }
}
