//! From rounds to numbers: the end-to-end metrics every workload
//! reports, and each workload's own named views of them.
//!
//! Every time a round reports is already scaled to the reference speed
//! by the calibration readings around it (`noise::Calibrator`). A
//! round's value is the median of its passes (or of an operation kind's
//! samples); a headline is the median over rounds, printed with the
//! quartiles over rounds and the sample count. A ratio of exact
//! counts is one number every round agrees on. Tails pool one kind's
//! samples across all rounds and take the highest percentile that still
//! has ten samples beyond it.

use crate::child::RoundResult;
use crate::spec;
use crate::stats::{geomean, median, percentile, quartiles, tail_percentile};
use std::collections::BTreeMap;

/// Every kept round of one workload, plus what the noise guard did.
#[derive(Debug, Default)]
pub struct WorkloadRun {
    pub rounds: Vec<RoundResult>,
    /// Rounds discarded and run again because their calibration read
    /// slow.
    pub rerun: usize,
    /// Operations over every round, discarded ones included: a failure
    /// in a discarded round is still a failure.
    pub attempted: u64,
    pub failed: u64,
}

/// A headline with what is printed beside it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Headline {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    /// Rounds behind a median, or pooled samples behind a tail.
    pub n: usize,
}

impl Headline {
    fn over_rounds(per_round: &[f64]) -> Headline {
        let (q1, q3) = quartiles(per_round);
        Headline {
            value: median(per_round),
            q1,
            q3,
            n: per_round.len(),
        }
    }

    fn exact(value: f64, n: usize) -> Headline {
        Headline {
            value,
            q1: value,
            q3: value,
            n,
        }
    }

    fn scaled(self, k: f64) -> Headline {
        Headline {
            value: self.value * k,
            q1: self.q1 * k,
            q3: self.q3 * k,
            n: self.n,
        }
    }
}

/// Operation kinds are grouped by what precedes the `/` in their name
/// (`first_req/mcf` belongs to `first_req`): kinds are averaged
/// geometrically within a group, then groups across, so twelve images
/// of one step do not outvote a step measured once.
fn group_of(kind: &str) -> &str {
    kind.split('/').next().unwrap_or(kind)
}

/// Geomean over groups of the geomean over the group's kinds of
/// `stat(kind's samples)`. With `only`, just that group.
fn over_kinds(
    ops: &BTreeMap<String, Vec<f64>>,
    only: Option<&str>,
    stat: impl Fn(&[f64]) -> f64,
) -> f64 {
    let mut groups = BTreeMap::<&str, Vec<f64>>::new();
    for (kind, samples) in ops {
        if !samples.is_empty() && only.is_none_or(|g| g == group_of(kind)) {
            groups
                .entry(group_of(kind))
                .or_default()
                .push(stat(samples));
        }
    }
    geomean(&groups.values().map(|g| geomean(g)).collect::<Vec<_>>())
}

impl WorkloadRun {
    fn per_round(&self, f: impl Fn(&RoundResult) -> f64) -> Headline {
        Headline::over_rounds(&self.rounds.iter().map(f).collect::<Vec<_>>())
    }

    /// Median over rounds of the round's median pass wall-clock.
    pub fn pass_ms(&self) -> Headline {
        self.per_round(|r| median(&r.passes_ms))
    }

    /// Median over rounds of the per-kind median latency, averaged over
    /// kinds as [`over_kinds`] does.
    fn op_p50_us(&self, group: Option<&str>) -> Headline {
        self.per_round(|r| over_kinds(&r.ops, group, median))
    }

    /// Each kind's samples pooled over all rounds and read at the
    /// highest percentile that leaves ten of the smallest pool beyond
    /// it: `(percentile, headline)`, `n` the smallest pool. `None`
    /// where the samples support no tail.
    fn op_tail_us(&self) -> Option<(f64, Headline)> {
        let mut pooled = BTreeMap::<String, Vec<f64>>::new();
        for r in &self.rounds {
            for (kind, samples) in &r.ops {
                pooled.entry(kind.clone()).or_default().extend(samples);
            }
        }
        let n = pooled.values().map(Vec::len).min().unwrap_or(0);
        let p = tail_percentile(n)?;
        let value = over_kinds(&pooled, None, |xs| percentile(xs, p));
        Some((p, Headline::exact(value, n)))
    }

    /// A count that every kept round must agree on; `None` when rounds
    /// disagree or none reported it.
    pub fn exact_count(&self, name: &str) -> Option<u64> {
        let mut values = self.rounds.iter().filter_map(|r| r.counts.get(name));
        let first = *values.next()?;
        values.all(|v| *v == first).then_some(first)
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// An exact count as a headline, divided by `per` when given; 0
    /// when rounds disagree on either, which fails the run.
    fn exact(&self, name: &str, per: Option<&str>) -> Headline {
        let count = |name| self.exact_count(name).map(|c| c as f64);
        let value = match per {
            Some(per) => count(name)
                .zip(count(per))
                .map_or(0.0, |(a, b)| a / b.max(1.0)),
            None => count(name).unwrap_or(0.0),
        };
        Headline::exact(value, self.rounds.len())
    }

    /// The end-to-end metrics, each with its `spec::END_TO_END` entry,
    /// in that table's order.
    pub fn end_to_end(&self) -> Vec<(&'static spec::EndToEnd, Headline)> {
        let values = [
            self.pass_ms(),
            self.op_p50_us(None),
            self.exact("host_executed", Some("guest_retired")),
            self.exact("rule_covered", Some("guest_retired")),
            self.exact("rules_instantiated", None),
            Headline::exact(
                self.rounds
                    .iter()
                    .map(|r| r.peak_rss_mb)
                    .fold(0.0, f64::max),
                self.rounds.len(),
            ),
            self.per_round(|r| r.setup_s),
        ];
        spec::END_TO_END.iter().zip(values).collect()
    }

    /// The workload's own names for what it measures: the quantities
    /// the paper, the CLI and later issues talk about, each a view of
    /// the same samples the end-to-end metrics are computed from.
    pub fn views(&self, workload: &str) -> Vec<(&'static str, &'static str, Headline)> {
        let ops_per_pass = |r: &RoundResult| r.ops.values().map(Vec::len).sum::<usize>() as f64;
        let mut out = Vec::new();
        match workload {
            "suite_cold" | "suite_hot" => {
                let guest = self.exact("guest_retired", None).value.max(1.0);
                out.push((
                    "ns_per_guest_inst",
                    "ns",
                    self.pass_ms().scaled(1e6 / guest),
                ));
            }
            "train" => out.push(("train_ms", "ms", self.pass_ms())),
            "serve_small" | "serve_suite" => {
                out.push(("req_p50_us", "us", self.op_p50_us(None)));
                match self.op_tail_us() {
                    Some((99.0, tail)) => out.push(("req_p99_us", "us", tail)),
                    Some((_, tail)) => out.push(("req_p90_us", "us", tail)),
                    None => {}
                }
                out.push((
                    "req_per_s",
                    "1/s",
                    self.per_round(|r| ops_per_pass(r) / (median(&r.passes_ms) / 1e3).max(1e-9)),
                ));
            }
            "boot_fleet" => {
                for (name, group) in [
                    ("ready_ms", "ready"),
                    ("follower_ready_ms", "follower_ready"),
                    ("first_req_ms", "first_req"),
                ] {
                    out.push((name, "ms", self.op_p50_us(Some(group)).scaled(1e-3)));
                }
            }
            _ => {}
        }
        out.push((
            "failed_share",
            "ratio",
            Headline::exact(self.failed_share(), self.attempted as usize),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(pass: f64, ops: &[(&str, &[f64])]) -> RoundResult {
        RoundResult {
            passes_ms: vec![pass, pass * 3.0, pass * 2.0],
            ops: ops
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_vec()))
                .collect(),
            counts: [
                ("guest_retired".to_string(), 1000),
                ("host_executed".to_string(), 2500),
                ("rule_covered".to_string(), 900),
                ("rules_instantiated".to_string(), 77),
            ]
            .into(),
            setup_s: 0.5,
            peak_rss_mb: pass,
            ..RoundResult::default()
        }
    }

    #[test]
    fn a_round_is_its_median_pass_and_a_headline_the_median_round() {
        let run = WorkloadRun {
            rounds: vec![round(1.0, &[]), round(5.0, &[]), round(2.0, &[])],
            ..WorkloadRun::default()
        };
        // Round medians are 2, 10, 4 ms.
        let pass = run.pass_ms();
        assert_eq!((pass.value, pass.n), (4.0, 3));
        assert_eq!((pass.q1, pass.q3), (3.0, 7.0));
        // 4 ms over 1000 guest instructions.
        let views = run.views("suite_hot");
        assert_eq!(views[0].0, "ns_per_guest_inst");
        assert_eq!(views[0].2.value, 4000.0);
        let e2e = run.end_to_end();
        assert_eq!(
            e2e.iter().map(|(m, _)| m.name).collect::<Vec<_>>(),
            [
                "pass_ms",
                "op_p50_us",
                "host_per_guest",
                "rule_coverage",
                "rules_instantiated",
                "peak_rss_mb",
                "setup_s"
            ]
        );
        let values: Vec<f64> = e2e.iter().map(|(_, h)| h.value).collect();
        assert_eq!(values[2..], [2.5, 0.9, 77.0, 5.0, 0.5]);
    }

    #[test]
    fn kinds_average_within_their_group_first() {
        let ops: &[(&str, &[f64])] = &[
            ("ready", &[100.0]),
            ("first_req/a", &[1.0]),
            ("first_req/b", &[4.0]),
            ("first_req/c", &[2.0]),
        ];
        let run = WorkloadRun {
            rounds: vec![round(1.0, ops)],
            ..WorkloadRun::default()
        };
        // first_req group: geomean(1, 4, 2) = 2; with ready: sqrt(200).
        assert!((run.op_p50_us(None).value - 200f64.sqrt()).abs() < 1e-9);
        assert!((run.op_p50_us(Some("first_req")).value - 2.0).abs() < 1e-9);
        assert!((run.op_p50_us(Some("ready")).value - 100.0).abs() < 1e-9);
    }

    #[test]
    fn tails_pool_across_rounds_and_pick_the_supported_percentile() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        let run = |rounds: usize| WorkloadRun {
            rounds: (0..rounds)
                .map(|_| round(1.0, &[("request", &samples)]))
                .collect(),
            ..WorkloadRun::default()
        };
        // Ten per round: ten rounds pool 100, which p90 leaves ten of.
        for rounds in [10, 13] {
            let (p, tail) = run(rounds).op_tail_us().unwrap();
            assert_eq!((p, tail.n), (90.0, 10 * rounds));
            assert!((tail.value - 9.0).abs() <= 0.2, "{}", tail.value);
        }
        let tail_views = |run: &WorkloadRun| {
            let views = run.views("serve_suite");
            let names = views.iter().map(|v| v.0);
            names.filter(|n| n.contains("_p9")).collect::<Vec<_>>()
        };
        assert_eq!(tail_views(&run(10)), ["req_p90_us"]);
        assert_eq!(tail_views(&run(100)), ["req_p99_us"]);
        // Nine rounds pool 90: no tail, and no view that claims one.
        assert_eq!(run(9).op_tail_us(), None);
        assert!(tail_views(&run(9)).is_empty());
    }

    #[test]
    fn a_count_rounds_disagree_on_is_not_exact() {
        let mut run = WorkloadRun {
            rounds: vec![round(1.0, &[]), round(1.0, &[])],
            ..WorkloadRun::default()
        };
        assert_eq!(run.exact_count("guest_retired"), Some(1000));
        run.rounds[1].counts.insert("guest_retired".into(), 999);
        assert_eq!(run.exact_count("guest_retired"), None);
        assert_eq!(run.exact_count("missing"), None);
        // A ratio over a count the rounds disagree on reads 0, which
        // fails the run instead of reporting either round's value.
        assert_eq!(run.end_to_end()[2].1.value, 0.0);
    }
}
