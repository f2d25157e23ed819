//! The benchmark's output: every metric by name with its unit and sample
//! count, per-phase op accounting, correctness checks, and the final
//! one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("wait_p50_ms", "ms"),
    ("wait_p90_ms", "ms"),
    ("wait_tail_ms", "ms"),
    ("evaluate_s", "s"),
    ("test_accuracy", "ratio"),
    ("label_accuracy", "ratio"),
    ("label_coverage", "ratio"),
    ("peak_rss_mb", "MB"),
    ("ok_ops_share", "ratio"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_s", "s"),
    ("core.assemble_s", "s"),
    ("sampling.calls", "count"),
    ("sampling.busy_s", "s"),
    ("querying.calls", "count"),
    ("querying.busy_s", "s"),
    ("querying.lf_yield", "ratio"),
    ("labelpick.calls", "count"),
    ("labelpick.busy_s", "s"),
    ("labelpick.lfs_mean", "count"),
    ("labelpick.selected_mean", "count"),
    ("labelpick.loop_share", "ratio"),
    ("labelmodel.fit_s", "s"),
    ("labelmodel.predict_s", "s"),
    ("al.fit_s", "s"),
    ("al.predict_s", "s"),
    ("inference.aggregate_s", "s"),
    ("inference.downstream_s", "s"),
    ("engine.step_s", "s"),
    ("engine.step_share", "ratio"),
    ("frontend.self_s", "s"),
    ("hub.step_s", "s"),
    ("hub.self_s", "s"),
    ("wal.appends", "count"),
    ("wal.append_s", "s"),
    ("wal.bytes", "B"),
    ("tier.evictions", "count"),
    ("tier.resumes", "count"),
    ("tier.hit_ratio", "ratio"),
    ("tier.spill_s", "s"),
    ("tier.resume_s", "s"),
    ("io.wchar_per_op", "B"),
    ("trace.stage_share", "ratio"),
    ("trace.overhead", "ratio"),
];

struct Metric {
    value: f64,
    unit: &'static str,
    /// How many samples the value summarises, when it summarises any.
    samples: Option<usize>,
}

/// Ops of one phase: attempted, failed (an error reply or a wrong
/// answer) and refused (the system declined, e.g. a saturated hub).
#[derive(Debug, Default, Clone, Copy)]
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
    pub refused: u64,
}

impl Phase {
    /// Counts one op and its outcome. A hub that declines work for lack of
    /// room reports it saturated; that is a refusal, not a failure.
    pub fn record<T, E: std::fmt::Display>(&mut self, result: &Result<T, E>) {
        self.attempted += 1;
        match result {
            Ok(_) => {}
            Err(e) if e.to_string().to_lowercase().contains("saturat") => self.refused += 1,
            Err(_) => self.failed += 1,
        }
    }

    pub fn add(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.refused += other.refused;
    }
}

#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, Metric>,
    pub setup: Phase,
    pub run: Phase,
    pub evaluate: Phase,
    checks: Vec<(String, bool, String)>,
    notes: Vec<String>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

impl Report {
    /// Sets a declared metric; `samples` is the sample count behind it.
    pub fn set(&mut self, name: &'static str, value: f64, samples: Option<usize>) {
        let unit = unit_of(name);
        let previous = self.metrics.insert(
            name,
            Metric {
                value,
                unit,
                samples,
            },
        );
        assert!(previous.is_none(), "metric {name} set twice");
    }

    /// Records a correctness check; any failed check fails the run.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
            && self.metrics.values().all(|m| m.value.is_finite())
    }

    fn total(&self) -> Phase {
        let mut total = self.setup;
        total.add(self.run);
        total.add(self.evaluate);
        total
    }

    /// Share of attempted ops that neither failed nor were refused.
    pub fn ok_share(&self) -> f64 {
        let t = self.total();
        1.0 - (t.failed + t.refused) as f64 / t.attempted.max(1) as f64
    }

    /// Prints the human-readable lines, then the one-line JSON result
    /// carrying the end-to-end (`trace == false`) or per-layer metrics.
    /// Returns whether every check passed.
    pub fn print(&self, trace: bool) -> bool {
        for note in &self.notes {
            println!("# {note}");
        }
        for (name, phase) in [
            ("setup", self.setup),
            ("loop", self.run),
            ("evaluate", self.evaluate),
        ] {
            println!(
                "# phase {name}: attempted={} failed={} refused={}",
                phase.attempted, phase.failed, phase.refused
            );
        }
        for (name, m) in &self.metrics {
            let n = m.samples.map_or(String::new(), |n| format!(" (n={n})"));
            println!("# metric {name} = {} {}{n}", m.value, m.unit);
        }
        for (name, ok, detail) in &self.checks {
            let verdict = if *ok { "ok" } else { "FAILED" };
            println!("# check {name}: {verdict} {detail}");
        }
        let declared = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, _)) in declared.iter().enumerate() {
            let m = self
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was never measured"));
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.unit
            );
        }
        let correct = self.correct();
        let total = self.total();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            total.attempted,
            total.failed + total.refused
        );
        correct
    }
}
