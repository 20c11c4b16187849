//! The result of one benchmark run: op accounting, checks, and named
//! metrics with units, printed as the final JSON line.

use std::fmt::Write as _;

/// Ops attempted and failed, the problems found, and the metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops run: simulation runs, sweep cells, or requests.
    pub attempted: u64,
    /// Ops that failed a check.
    pub failed: u64,
    /// The first few failure descriptions, for stderr.
    pub problems: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// `(name, samples)` behind the medians, reported on stderr.
    pub samples: Vec<(&'static str, usize)>,
}

impl Outcome {
    /// Counts one op; a failed check counts it as failed.
    pub fn op(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = check {
            self.fail(problem);
        }
    }

    /// Records a failed op that was already counted as attempted.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }

    /// A check that is not an op (setup, cross-checks): failing it marks
    /// the whole run incorrect.
    pub fn check(&mut self, check: Result<(), String>) {
        if let Err(problem) = check {
            self.problems.push(problem);
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Notes how many samples a median rests on.
    pub fn samples(&mut self, name: &'static str, n: usize) {
        self.samples.push((name, n));
    }

    /// Whether every op and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// The final result line.
    pub fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            );
        }
        s.push_str("}}");
        s
    }
}

/// Shortest round-trip rendering; non-finite values (which no metric
/// should produce) become 0 so the line stays valid JSON.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// JSON string literal with the few escapes provenance strings need.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// High-water resident set of process `pid` (`self` for this one), MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome::default();
        o.op(Ok(()));
        o.op(Err("digest".into()));
        o.metric("setup_s", 0.25, "s");
        assert_eq!(
            o.result_json(),
            "{\"correct\":false,\"attempted\":2,\"failed\":1,\"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
        assert_eq!(json_string("a\"b\n"), "\"a\\\"b\\u000a\"");
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb("self").expect("procfs") > 0.0);
    }
}
