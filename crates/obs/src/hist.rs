//! Fixed-bucket histograms for latency and size distributions.
//!
//! Buckets are defined by a static slice of inclusive upper bounds; the
//! final bucket is an implicit catch-all. Recording is two array
//! lookups and three adds — cheap enough to live on warm paths — and
//! merging is element-wise, so per-shard histograms can be folded into
//! a run-level one.

use crate::json::{TextWriter, ToJson};
use std::fmt;

/// Upper bounds (ns, inclusive) for translate-latency style
/// distributions: 1us .. 16ms in powers of four.
pub const LATENCY_NS_BOUNDS: &[u64] = &[
    1_000, 4_000, 16_000, 64_000, 256_000, 1_024_000, 4_096_000, 16_384_000,
];

/// Upper bounds (ns, inclusive) for end-to-end request latency:
/// 16us .. ~4s in powers of four. Requests cover accept through reply,
/// so the range sits well above the per-block translate buckets.
pub const REQUEST_NS_BOUNDS: &[u64] = &[
    16_000,
    64_000,
    256_000,
    1_024_000,
    4_096_000,
    16_384_000,
    65_536_000,
    262_144_000,
    1_048_576_000,
    4_194_304_000,
];

/// Upper bounds (ns, inclusive) for queue-wait time: 1us .. ~1s in
/// powers of four. An idle worker dequeues within microseconds; a
/// saturated queue pushes waits toward the top buckets.
pub const QUEUE_WAIT_NS_BOUNDS: &[u64] = &[
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_024_000,
    4_096_000,
    16_384_000,
    65_536_000,
    262_144_000,
    1_048_576_000,
];

/// Upper bounds (bytes, inclusive) for reply payload sizes: 256 B ..
/// 4 MiB in powers of four (the frame codec caps payloads at 16 MiB,
/// the catch-all).
pub const REPLY_BYTES_BOUNDS: &[u64] = &[
    256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304,
];

/// Upper bounds for block-length style distributions (instruction
/// counts; the translator caps blocks at 32 guest instructions).
pub const BLOCK_LEN_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32];

/// Upper bounds for flag-delegation window depth: 0, 1, 2, 3; the
/// catch-all bucket counts memory/environment fallbacks recorded as
/// [`Histogram::FALLBACK`].
pub const DELEG_DEPTH_BOUNDS: &[u64] = &[0, 1, 2, 3];

/// A fixed-bucket histogram with min/max/sum tracking.
#[derive(Clone, Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    counts: Vec<u64>,
    count: u64,
    /// [`Histogram::FALLBACK`] records: in `count` and the catch-all
    /// bucket, but not samples — `sum`, `min`, `max`, the mean and the
    /// quantiles are over `count - fallbacks` real values.
    fallbacks: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Sentinel value routed to the catch-all bucket; used by the
    /// delegation-depth histogram for environment fallbacks. It marks
    /// an event without a magnitude: counted, never a sample.
    pub const FALLBACK: u64 = u64::MAX;

    pub fn new(bounds: &'static [u64]) -> Self {
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            fallbacks: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    pub fn latency_ns() -> Self {
        Self::new(LATENCY_NS_BOUNDS)
    }

    pub fn block_len() -> Self {
        Self::new(BLOCK_LEN_BOUNDS)
    }

    pub fn deleg_depth() -> Self {
        Self::new(DELEG_DEPTH_BOUNDS)
    }

    pub fn request_ns() -> Self {
        Self::new(REQUEST_NS_BOUNDS)
    }

    pub fn queue_wait_ns() -> Self {
        Self::new(QUEUE_WAIT_NS_BOUNDS)
    }

    pub fn reply_bytes() -> Self {
        Self::new(REPLY_BYTES_BOUNDS)
    }

    /// Index of the bucket `v` falls into.
    fn bucket_of(&self, v: u64) -> usize {
        self.bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len())
    }

    pub fn record(&mut self, v: u64) {
        let b = self.bucket_of(v);
        self.counts[b] += 1;
        self.count += 1;
        if v == Self::FALLBACK {
            self.fallbacks += 1;
            return;
        }
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self`. Both sides must share bucket bounds.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bound mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.fallbacks += other.fallbacks;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Real samples: everything recorded except the sentinel.
    fn samples(&self) -> u64 {
        self.count - self.fallbacks
    }

    pub fn mean(&self) -> f64 {
        if self.samples() == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples() as f64
        }
    }

    pub fn min(&self) -> u64 {
        if self.samples() == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Estimate of the `p`-th percentile (0.0..=1.0): linear
    /// interpolation within the bucket whose cumulative count reaches
    /// the rank, clamped to the observed `[min, max]` so a sparse
    /// bucket can't report a value outside the recorded range. The
    /// catch-all bucket interpolates toward the observed max. Ranks
    /// run over real samples only ([`Histogram::FALLBACK`] records
    /// have no magnitude to rank).
    pub fn percentile(&self, p: f64) -> u64 {
        let samples = self.samples();
        if samples == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * samples as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = if i == self.bounds.len() {
                c - self.fallbacks
            } else {
                c
            };
            if c == 0 {
                continue;
            }
            if cum + c >= target {
                let lo = if i == 0 { 0 } else { self.bounds[i - 1] };
                let hi = self.bounds.get(i).copied().unwrap_or(self.max).max(lo);
                let frac = (target - cum) as f64 / c as f64;
                let v = lo as f64 + frac * (hi - lo) as f64;
                return (v.round() as u64).clamp(self.min, self.max);
            }
            cum += c;
        }
        self.max
    }

    /// Median request estimate; see [`Histogram::percentile`].
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Bucket rows as `(label, count)`, catch-all last.
    pub fn buckets(&self) -> Vec<(String, u64)> {
        let mut rows = Vec::with_capacity(self.counts.len());
        let mut lo = 0u64;
        for (i, &b) in self.bounds.iter().enumerate() {
            rows.push((format!("{lo}..={b}"), self.counts[i]));
            lo = b + 1;
        }
        rows.push((
            format!(">{}", self.bounds.last().copied().unwrap_or(0)),
            *self.counts.last().unwrap(),
        ));
        rows
    }

    /// Raw bucket counts (length `bounds.len() + 1`).
    pub fn raw_counts(&self) -> &[u64] {
        &self.counts
    }

    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }
}

/// The report-ready object: bucket shape, totals, and the interpolated
/// p50/p95/p99 quantiles.
impl ToJson for Histogram {
    fn emit(&self, out: &mut TextWriter<'_>) {
        out.begin_obj();
        out.key("bounds");
        out.arr(self.bounds);
        out.field("count", &self.count);
        out.key("counts");
        out.arr(&self.counts);
        out.field("max", &self.max);
        out.field("mean", &self.mean());
        out.field("min", &self.min());
        out.field("p50", &self.p50());
        out.field("p95", &self.p95());
        out.field("p99", &self.p99());
        out.field("sum", &self.sum);
        out.end_obj();
    }
}

impl fmt::Display for Histogram {
    /// A compact ASCII bar chart, one bucket per line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let peak = self.counts.iter().copied().max().unwrap_or(0).max(1);
        for (label, n) in self.buckets() {
            let bar = "#".repeat(((n as f64 / peak as f64) * 40.0).round() as usize);
            writeln!(f, "  {label:>16}  {n:>8}  {bar}")?;
        }
        write!(
            f,
            "  n={} mean={:.1} min={} max={}",
            self.count,
            self.mean(),
            self.min(),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn bucketing_respects_inclusive_bounds() {
        let mut h = Histogram::new(&[10, 100]);
        for v in [0, 10, 11, 100, 101, 5000] {
            h.record(v);
        }
        assert_eq!(h.raw_counts(), &[2, 2, 2]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 5000);
    }

    #[test]
    fn fallback_sentinel_is_counted_but_never_a_sample() {
        let mut h = Histogram::deleg_depth();
        h.record(0);
        h.record(3);
        h.record(Histogram::FALLBACK);
        assert_eq!(h.raw_counts(), &[1, 0, 0, 1, 1]);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 3);
        assert_eq!((h.min(), h.max()), (0, 3));
        assert_eq!(h.mean(), 1.5);
        assert_eq!((h.p50(), h.p99()), (0, 3));

        // Fallbacks alone leave every sample statistic at its empty
        // value, through a merge too.
        let mut only = Histogram::deleg_depth();
        only.record(Histogram::FALLBACK);
        let mut merged = Histogram::deleg_depth();
        merged.merge(&only);
        for h in [&only, &merged] {
            assert_eq!(h.count(), 1);
            assert_eq!((h.min(), h.max(), h.p50(), h.p99()), (0, 0, 0, 0));
            assert_eq!(h.mean(), 0.0);
            assert!(!h.to_json().to_string().contains('-'));
            assert!(h.to_string().ends_with("n=1 mean=0.0 min=0 max=0"));
        }
    }

    #[test]
    fn merge_is_element_wise_and_tracks_extrema() {
        let mut a = Histogram::new(&[10, 100]);
        a.record(5);
        a.record(50);
        let mut b = Histogram::new(&[10, 100]);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.raw_counts(), &[1, 1, 1]);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 500);
        assert_eq!(a.sum(), 555);
    }

    #[test]
    fn percentile_interpolates_within_buckets() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        for _ in 0..90 {
            h.record(7);
        }
        for _ in 0..10 {
            h.record(700);
        }
        // Rank 50 of 100 lands 50/90 into bucket 0..=10 → ~5.6, clamped
        // up to the observed min of 7.
        assert_eq!(h.percentile(0.5), 7);
        // Rank 99 lands 9/10 into bucket 101..=1000 → 910, clamped down
        // to the observed max of 700.
        assert_eq!(h.percentile(0.99), 700);
        assert_eq!(h.p50(), 7);
        assert_eq!(h.p99(), 700);
    }

    #[test]
    fn percentile_is_monotone_in_p_and_bounded_by_extrema() {
        let mut h = Histogram::request_ns();
        for v in [20_000u64, 70_000, 70_000, 300_000, 5_000_000] {
            h.record(v);
        }
        let mut prev = 0;
        for i in 0..=20 {
            let p = i as f64 / 20.0;
            let q = h.percentile(p);
            assert!(q >= prev, "percentile must be monotone in p");
            assert!((h.min()..=h.max()).contains(&q));
            prev = q;
        }
    }

    #[test]
    fn to_json_carries_quantiles() {
        let mut h = Histogram::new(&[10, 100]);
        h.record(5);
        h.record(50);
        let doc = h.to_json();
        assert_eq!(doc.get("count").and_then(Json::as_u64), Some(2));
        assert!(doc.get("p50").is_some());
        assert!(doc.get("p95").is_some());
        assert!(doc.get("p99").is_some());
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = Histogram::latency_ns();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.percentile(0.99), 0);
        let _ = h.to_string();
    }
}
