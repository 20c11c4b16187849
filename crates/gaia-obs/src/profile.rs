//! Scoped phase timers for self-profiling.
//!
//! A [`Profiler`] aggregates named phases; [`Profiler::phase`] returns a
//! [`TimerGuard`] that records the elapsed wall-clock time when dropped.
//! Phase timings measure real time and are therefore the one explicitly
//! **non-deterministic** output of this crate: they are reported in the
//! per-run phase table and `manifest.json` (already exempt from the
//! byte-identity contract), never in event streams or `metrics.json`.

use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Phase {
    name: &'static str,
    total: Duration,
    count: u64,
}

/// Aggregates scoped phase timings by name, preserving first-use order.
#[derive(Debug, Default)]
pub struct Profiler {
    phases: Mutex<Vec<Phase>>,
}

impl Profiler {
    /// New empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start timing a phase; the elapsed time is recorded when the
    /// returned guard drops. Re-entering the same name accumulates.
    pub fn phase(&self, name: &'static str) -> TimerGuard<'_> {
        TimerGuard {
            profiler: self,
            name,
            start: Instant::now(),
        }
    }

    /// Record `calls` entries of a phase taking `total` together, as if
    /// each had been timed by its own guard. Hot loops time themselves
    /// into local counters and report once, instead of taking the
    /// profiler's lock per call. Zero calls record nothing.
    pub fn add(&self, name: &'static str, total: Duration, calls: u64) {
        if calls == 0 {
            return;
        }
        let mut phases = self.phases.lock().expect("profiler lock");
        if let Some(phase) = phases.iter_mut().find(|p| p.name == name) {
            phase.total += total;
            phase.count += calls;
        } else {
            phases.push(Phase {
                name,
                total,
                count: calls,
            });
        }
    }

    /// `(name, total, calls)` per phase in first-use order.
    pub fn snapshot(&self) -> Vec<(&'static str, Duration, u64)> {
        let phases = self.phases.lock().expect("profiler lock");
        phases.iter().map(|p| (p.name, p.total, p.count)).collect()
    }

    /// Render the phase table, e.g. for stderr:
    ///
    /// ```text
    /// phase            total      calls   mean
    /// load_carbon      12.3ms         1   12.3ms
    /// event_loop       1.204s         1   1.204s
    /// ```
    pub fn table(&self) -> String {
        let snapshot = self.snapshot();
        let name_width = snapshot
            .iter()
            .map(|(name, _, _)| name.len())
            .chain(std::iter::once("phase".len()))
            .max()
            .unwrap_or(5);
        let mut out = format!(
            "{:<name_width$}  {:>10}  {:>7}  {:>10}\n",
            "phase", "total", "calls", "mean"
        );
        for (name, total, count) in snapshot {
            let mean = total / u32::try_from(count.max(1)).unwrap_or(u32::MAX);
            out.push_str(&format!(
                "{name:<name_width$}  {:>10}  {count:>7}  {:>10}\n",
                fmt_duration(total),
                fmt_duration(mean),
            ));
        }
        out
    }

    /// Phase timings as a JSON array (for the manifest's profile block).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, (name, total, count)) in self.snapshot().into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"phase\": \"{name}\", \"total_ms\": {:.3}, \"calls\": {count}}}",
                total.as_secs_f64() * 1000.0
            ));
        }
        out.push(']');
        out
    }
}

fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 1.0 {
        format!("{secs:.3}s")
    } else if secs >= 1e-3 {
        format!("{:.3}ms", secs * 1e3)
    } else {
        format!("{:.1}us", secs * 1e6)
    }
}

/// Records the time since [`Profiler::phase`] when dropped.
#[must_use = "the phase is timed until this guard is dropped"]
#[derive(Debug)]
pub struct TimerGuard<'p> {
    profiler: &'p Profiler,
    name: &'static str,
    start: Instant,
}

impl Drop for TimerGuard<'_> {
    fn drop(&mut self) {
        self.profiler.add(self.name, self.start.elapsed(), 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_and_preserve_order() {
        let prof = Profiler::new();
        {
            let _g = prof.phase("beta");
        }
        {
            let _g = prof.phase("alpha");
        }
        {
            let _g = prof.phase("beta");
        }
        let snap = prof.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, "beta");
        assert_eq!(snap[0].2, 2);
        assert_eq!(snap[1].0, "alpha");
        assert_eq!(snap[1].2, 1);
    }

    #[test]
    fn add_merges_with_guarded_calls() {
        let prof = Profiler::new();
        prof.add("plan", Duration::ZERO, 0);
        assert!(prof.snapshot().is_empty(), "zero calls record nothing");
        {
            let _g = prof.phase("plan");
        }
        let guarded = prof.snapshot()[0].1;
        prof.add("plan", Duration::from_millis(3), 41);
        let snap = prof.snapshot();
        assert_eq!(snap, vec![("plan", guarded + Duration::from_millis(3), 42)]);
    }

    #[test]
    fn guard_records_elapsed_time() {
        let prof = Profiler::new();
        {
            let _g = prof.phase("sleep");
            std::thread::sleep(Duration::from_millis(5));
        }
        let snap = prof.snapshot();
        assert!(snap[0].1 >= Duration::from_millis(4), "{:?}", snap[0].1);
    }

    #[test]
    fn table_and_json_render() {
        let prof = Profiler::new();
        {
            let _g = prof.phase("load");
        }
        let table = prof.table();
        assert!(table.starts_with("phase"), "{table}");
        assert!(table.contains("load"), "{table}");
        let json = prof.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"phase\": \"load\""), "{json}");
        assert!(json.contains("\"calls\": 1"), "{json}");
    }

    #[test]
    fn fmt_duration_scales() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000s");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.000ms");
        assert_eq!(fmt_duration(Duration::from_micros(7)), "7.0us");
    }
}
