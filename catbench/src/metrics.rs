//! Statistics, process counters and the result line.

use std::fmt::Write as _;

/// Median of `v` (mean of the middle two for an even count); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// The `p`-th percentile (0..=100) of `ns` in µs, by nearest rank.
pub fn percentile_us(ns: &mut [u64], p: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.sort_unstable();
    let rank = ((p / 100.0) * ns.len() as f64).ceil() as usize;
    ns[rank.clamp(1, ns.len()) - 1] as f64 / 1e3
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU time of the whole process so far, in µs.
pub fn cpu_us() -> f64 {
    // Fields 14 and 15 of /proc/self/stat (after the parenthesised
    // command name), in clock ticks of USER_HZ, which Linux fixes at 100
    // for the user-space ABI.
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    // `after` starts at field 3 (state), so field n is at index n - 3.
    (ticks(11) + ticks(12)) / USER_HZ * 1e6
}

/// `(steal, busy)` clock ticks and all ticks of the machine's CPUs so
/// far, from the first line of `/proc/stat`. Steal is time the
/// hypervisor ran other guests while this one wanted the CPU; busy is
/// user plus system time of everything on this machine.
pub fn host_ticks() -> [u64; 3] {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    let at = |i: usize| f.get(i).copied().unwrap_or(0);
    [at(7), at(0) + at(1) + at(2), f.iter().sum()]
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value, when it is a latency percentile.
    pub samples: Option<usize>,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations sent, over every phase that checks its answers.
    pub attempted: u64,
    /// Operations that failed or were answered wrongly.
    pub failed: u64,
    /// Run-level checks that failed (e.g. the catalog size afterwards).
    pub errors: Vec<String>,
    /// Metrics in report order: the ones `BENCHMARK.json` names.
    pub metrics: Vec<Metric>,
    /// Measurements printed in the summary but left out of the result
    /// line, because run-to-run noise on a shared host exceeds any bound
    /// a regression gate could use (see `NOTES.md`).
    pub info: Vec<Metric>,
    /// Facts about the run printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Add a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        });
    }

    /// Add a latency percentile with its sample count, to the result
    /// line or, with `gated` false, to the summary only.
    pub fn put_latency(&mut self, name: &str, value: f64, samples: usize, gated: bool) {
        let m = Metric {
            name: name.into(),
            value,
            unit: "us",
            samples: Some(samples),
        };
        if gated {
            self.metrics.push(m);
        } else {
            self.info.push(m);
        }
    }

    /// Whether every answer and every run-level check was right.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// Human-readable lines: notes, then each metric with its unit.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for n in &self.notes {
            let _ = writeln!(s, "# {n}");
        }
        for e in &self.errors {
            let _ = writeln!(s, "# ERROR {e}");
        }
        for m in self.metrics.iter().chain(&self.info) {
            let _ = match m.samples {
                Some(n) => writeln!(s, "{:<32} {:>14.3} {} (n={n})", m.name, m.value, m.unit),
                None => writeln!(s, "{:<32} {:>14.3} {}", m.name, m.value, m.unit),
            };
        }
        s
    }

    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}
