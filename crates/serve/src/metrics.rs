//! Hand-rolled serving metrics: atomic counters, gauges and fixed-bucket
//! latency histograms, rendered in the Prometheus text exposition format.
//!
//! The offline-vendor constraint rules out the `prometheus` crate, and the
//! serving layer's needs are modest: per-operation request/error counters
//! and latency histograms (open/step/step_batch/evaluate/evict/resume),
//! plus residency gauges and eviction/resume/saturation totals for the
//! hub's hot/cold tiering. Everything here is `std::sync::atomic` —
//! recording a sample is a handful of relaxed atomic adds, cheap enough to
//! sit on every request path (benched as `metrics_overhead_*` in
//! `crates/bench`).
//!
//! [`HubMetrics::render`] produces the `/metrics` payload served by
//! `adp-served` (both as the `{"cmd":"metrics"}` JSON reply and the
//! plain-text HTTP shim for curl/Prometheus scrapes). Relaxed ordering
//! means a scrape is not a consistent point-in-time cut across metrics —
//! standard for Prometheus clients; each individual series is monotone.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Histogram bucket upper bounds, in microseconds. Spanning 50µs to 250ms
/// covers everything from a status probe to an evict/resume cycle at paper
/// scale; slower samples land in the implicit `+Inf` bucket.
pub const BUCKET_BOUNDS_US: [u64; 12] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
];

/// The bucket bounds as Prometheus `le` label values (seconds), kept as
/// literals so rendering never goes through float formatting.
const BUCKET_LABELS: [&str; 12] = [
    "0.00005", "0.0001", "0.00025", "0.0005", "0.001", "0.0025", "0.005", "0.01", "0.025", "0.05",
    "0.1", "0.25",
];

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An up/down gauge (e.g. resident session count). Stored as a signed
/// value inside a `u64` cell; reads clamp at zero so a transient
/// decrement-before-increment interleaving can never render as 2⁶⁴.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// The current value, clamped at zero.
    pub fn get(&self) -> u64 {
        let raw = self.0.load(Ordering::Relaxed) as i64;
        raw.max(0) as u64
    }
}

/// A fixed-bucket latency histogram. Buckets store per-interval counts;
/// rendering produces the cumulative form Prometheus expects.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_US.len()],
    /// Samples past the last bound (the `+Inf` bucket).
    overflow: AtomicU64,
    /// Total samples.
    count: AtomicU64,
    /// Sum of all samples, in microseconds (saturating).
    sum_us: AtomicU64,
}

impl Histogram {
    /// Records one latency sample.
    pub fn observe(&self, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        match BUCKET_BOUNDS_US.iter().position(|&bound| us <= bound) {
            Some(idx) => self.buckets[idx].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating: ~584k years of accumulated latency before the sum
        // pins, but a tampered clock must not wrap it.
        let mut current = self.sum_us.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_add(us);
            match self.sum_us.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.sum_us.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Upper bound (seconds) of the bucket containing the `q`-quantile
    /// (0 < q ≤ 1), `None` while empty, `f64::INFINITY` when the quantile
    /// falls in the overflow bucket. Coarse by construction — it answers
    /// "roughly how slow is the p95" from fixed buckets, which is all the
    /// load driver's summary needs.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= target {
                return Some(BUCKET_BOUNDS_US[idx] as f64 / 1e6);
            }
        }
        Some(f64::INFINITY)
    }

    fn render_into(&self, out: &mut String, name: &str, op: &str) {
        use std::fmt::Write;
        let mut cumulative = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "{name}_bucket{{op=\"{op}\",le=\"{}\"}} {cumulative}",
                BUCKET_LABELS[idx]
            );
        }
        cumulative += self.overflow.load(Ordering::Relaxed);
        let _ = writeln!(out, "{name}_bucket{{op=\"{op}\",le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{name}_sum{{op=\"{op}\"}} {}", self.sum_seconds());
        let _ = writeln!(out, "{name}_count{{op=\"{op}\"}} {}", self.count());
    }
}

/// The instrumented hub operations. `Open` covers session establishment
/// and the protocol's `open` status probe; `Evict`/`Resume` are the
/// tiering transitions, timed where they happen (`Resume` inside the
/// touch that needed it, under the shard lock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Session creation and the `open` status probe.
    Open,
    /// One training iteration.
    Step,
    /// Batched stepping.
    StepBatch,
    /// Downstream evaluation.
    Evaluate,
    /// Spilling a resident session cold.
    Evict,
    /// Bringing a cold session back on first touch.
    Resume,
}

impl Op {
    /// Every instrumented operation, in render order.
    pub const ALL: [Op; 6] = [
        Op::Open,
        Op::Step,
        Op::StepBatch,
        Op::Evaluate,
        Op::Evict,
        Op::Resume,
    ];

    /// The `op` label value.
    pub fn label(self) -> &'static str {
        match self {
            Op::Open => "open",
            Op::Step => "step",
            Op::StepBatch => "step_batch",
            Op::Evaluate => "evaluate",
            Op::Evict => "evict",
            Op::Resume => "resume",
        }
    }

    fn index(self) -> usize {
        match self {
            Op::Open => 0,
            Op::Step => 1,
            Op::StepBatch => 2,
            Op::Evaluate => 3,
            Op::Evict => 4,
            Op::Resume => 5,
        }
    }
}

/// One operation's request/error counters and latency histogram.
#[derive(Debug, Default)]
pub struct OpMetrics {
    /// Requests routed through this operation, success or failure.
    pub requests: Counter,
    /// Requests that returned an error.
    pub errors: Counter,
    /// Wall-clock latency (waiting for the shard lock included — that is
    /// what callers feel).
    pub latency: Histogram,
}

/// The hub's whole metric surface; one instance lives inside each
/// `SessionHub`.
#[derive(Debug, Default)]
pub struct HubMetrics {
    ops: [OpMetrics; Op::ALL.len()],
    /// Sessions currently resident (engine in memory).
    pub resident: Gauge,
    /// Sessions currently cold (spilled to disk, resumable on touch).
    pub cold: Gauge,
    /// Evictions since the hub started.
    pub evicted_total: Counter,
    /// Cold-session resumes since the hub started.
    pub resumed_total: Counter,
    /// Creates rejected with `ServeError::Saturated`.
    pub saturated_total: Counter,
    /// Dual-oracle queries answered by the cheap noisy oracle, across the
    /// step, step_batch and run calls this hub served (escalated queries
    /// count under `routed_escalated_total` only).
    pub routed_cheap_total: Counter,
    /// Dual-oracle queries answered directly by the expensive simulated
    /// user.
    pub routed_expensive_total: Counter,
    /// Dual-oracle queries that consulted the cheap oracle first and
    /// escalated to the simulated user.
    pub routed_escalated_total: Counter,
}

impl HubMetrics {
    /// A zeroed metric surface.
    pub fn new() -> Self {
        Self::default()
    }

    /// The named operation's metrics.
    pub fn op(&self, op: Op) -> &OpMetrics {
        &self.ops[op.index()]
    }

    /// Records one completed operation.
    pub fn record(&self, op: Op, latency: Duration, failed: bool) {
        let metrics = self.op(op);
        metrics.requests.inc();
        if failed {
            metrics.errors.inc();
        }
        metrics.latency.observe(latency);
    }

    /// Renders the Prometheus text exposition payload.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(4096);
        out.push_str("# HELP adp_requests_total Hub requests by operation.\n");
        out.push_str("# TYPE adp_requests_total counter\n");
        for op in Op::ALL {
            let _ = writeln!(
                out,
                "adp_requests_total{{op=\"{}\"}} {}",
                op.label(),
                self.op(op).requests.get()
            );
        }
        out.push_str("# HELP adp_errors_total Hub requests that returned an error.\n");
        out.push_str("# TYPE adp_errors_total counter\n");
        for op in Op::ALL {
            let _ = writeln!(
                out,
                "adp_errors_total{{op=\"{}\"}} {}",
                op.label(),
                self.op(op).errors.get()
            );
        }
        out.push_str("# HELP adp_op_latency_seconds Hub request latency by operation.\n");
        out.push_str("# TYPE adp_op_latency_seconds histogram\n");
        for op in Op::ALL {
            self.op(op)
                .latency
                .render_into(&mut out, "adp_op_latency_seconds", op.label());
        }
        out.push_str("# HELP adp_sessions_resident Sessions with an engine in memory.\n");
        out.push_str("# TYPE adp_sessions_resident gauge\n");
        let _ = writeln!(out, "adp_sessions_resident {}", self.resident.get());
        out.push_str("# HELP adp_sessions_cold Sessions spilled cold, resumable on touch.\n");
        out.push_str("# TYPE adp_sessions_cold gauge\n");
        let _ = writeln!(out, "adp_sessions_cold {}", self.cold.get());
        out.push_str("# HELP adp_evictions_total Sessions evicted to their journal checkpoint.\n");
        out.push_str("# TYPE adp_evictions_total counter\n");
        let _ = writeln!(out, "adp_evictions_total {}", self.evicted_total.get());
        out.push_str("# HELP adp_resumes_total Cold sessions resumed on touch.\n");
        out.push_str("# TYPE adp_resumes_total counter\n");
        let _ = writeln!(out, "adp_resumes_total {}", self.resumed_total.get());
        out.push_str(
            "# HELP adp_saturated_total Creates rejected because the hub was saturated.\n",
        );
        out.push_str("# TYPE adp_saturated_total counter\n");
        let _ = writeln!(out, "adp_saturated_total {}", self.saturated_total.get());
        out.push_str("# HELP adp_routed_queries_total Dual-oracle queries by answering oracle.\n");
        out.push_str("# TYPE adp_routed_queries_total counter\n");
        for (label, counter) in [
            ("cheap", &self.routed_cheap_total),
            ("expensive", &self.routed_expensive_total),
            ("escalated", &self.routed_escalated_total),
        ] {
            let _ = writeln!(
                out,
                "adp_routed_queries_total{{oracle=\"{label}\"}} {}",
                counter.get()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_track() {
        let m = HubMetrics::new();
        m.record(Op::Step, Duration::from_micros(80), false);
        m.record(Op::Step, Duration::from_micros(800), true);
        assert_eq!(m.op(Op::Step).requests.get(), 2);
        assert_eq!(m.op(Op::Step).errors.get(), 1);
        assert_eq!(m.op(Op::Step).latency.count(), 2);
        assert_eq!(m.op(Op::Open).requests.get(), 0);

        m.resident.inc();
        m.resident.inc();
        m.resident.dec();
        assert_eq!(m.resident.get(), 1);
        // A transient dec-before-inc interleaving renders as 0, never 2⁶⁴.
        m.cold.dec();
        assert_eq!(m.cold.get(), 0);
        m.cold.inc();
        assert_eq!(m.cold.get(), 0, "recovers once the inc lands");
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_render() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(40)); // ≤ 50µs
        h.observe(Duration::from_micros(60)); // ≤ 100µs
        h.observe(Duration::from_secs(10)); // +Inf
        let mut out = String::new();
        h.render_into(&mut out, "x", "step");
        assert!(
            out.contains("x_bucket{op=\"step\",le=\"0.00005\"} 1"),
            "{out}"
        );
        assert!(
            out.contains("x_bucket{op=\"step\",le=\"0.0001\"} 2"),
            "{out}"
        );
        assert!(out.contains("x_bucket{op=\"step\",le=\"0.25\"} 2"), "{out}");
        assert!(out.contains("x_bucket{op=\"step\",le=\"+Inf\"} 3"), "{out}");
        assert!(out.contains("x_count{op=\"step\"} 3"), "{out}");
        assert_eq!(h.count(), 3);
        assert!(h.sum_seconds() > 10.0);
    }

    #[test]
    fn quantiles_come_from_bucket_bounds() {
        let h = Histogram::default();
        assert_eq!(h.quantile_upper_bound(0.5), None);
        for _ in 0..9 {
            h.observe(Duration::from_micros(200)); // ≤ 250µs
        }
        h.observe(Duration::from_secs(1)); // +Inf
        assert_eq!(h.quantile_upper_bound(0.5), Some(0.00025));
        assert_eq!(h.quantile_upper_bound(1.0), Some(f64::INFINITY));
    }

    #[test]
    fn render_is_prometheus_shaped() {
        let m = HubMetrics::new();
        m.record(Op::Evict, Duration::from_millis(3), false);
        m.evicted_total.inc();
        let text = m.render();
        // One TYPE line per family, families contiguous, all ops present.
        assert_eq!(
            text.matches("# TYPE adp_op_latency_seconds histogram")
                .count(),
            1
        );
        for op in Op::ALL {
            assert!(text.contains(&format!("adp_requests_total{{op=\"{}\"}}", op.label())));
        }
        assert!(text.contains("adp_op_latency_seconds_count{op=\"evict\"} 1"));
        assert!(text.contains("adp_evictions_total 1"));
        assert!(text.contains("adp_sessions_resident 0"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable value in {line:?}"
            );
            assert!(parts.next().is_some(), "no name in {line:?}");
        }
    }
}
