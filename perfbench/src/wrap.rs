//! Timing wrappers around the two per-call layer boundaries the engine
//! crosses inside `run_until_idle`: policy planning (`Scheduler`) and
//! trace emission (`Sink`). Both forward every call unchanged.

use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use gaia_obs::{Event, Sink};
use gaia_sim::{Decision, Scheduler, SchedulerContext};
use gaia_workload::Job;

/// Times every `on_arrival` call of the wrapped policy.
pub struct TimedScheduler<'a> {
    inner: &'a mut dyn Scheduler,
    /// Planning calls made so far.
    pub calls: u64,
    /// Wall time spent inside them.
    pub busy: Duration,
}

impl<'a> TimedScheduler<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn Scheduler) -> Self {
        TimedScheduler {
            inner,
            calls: 0,
            busy: Duration::ZERO,
        }
    }
}

impl Scheduler for TimedScheduler<'_> {
    fn on_arrival(&mut self, job: &Job, ctx: &SchedulerContext<'_>) -> Decision {
        let started = Instant::now();
        let decision = self.inner.on_arrival(job, ctx);
        self.busy += started.elapsed();
        self.calls += 1;
        decision
    }
}

/// Counters a [`TimedSink`] shares with its owner, readable while the
/// engine still holds the sink.
#[derive(Debug, Default)]
pub struct EmitStats {
    events: Cell<u64>,
    busy: Cell<Duration>,
}

impl EmitStats {
    /// Events delivered so far.
    pub fn events(&self) -> u64 {
        self.events.get()
    }

    /// Wall time spent delivering them.
    pub fn busy(&self) -> Duration {
        self.busy.get()
    }
}

/// Times every `emit` into the wrapped sink. Inactive exactly when the
/// inner sink is, so wrapping `NullSink` still compiles emission out.
pub struct TimedSink<S: Sink> {
    inner: S,
    stats: Rc<EmitStats>,
}

impl<S: Sink> TimedSink<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedSink {
            inner,
            stats: Rc::default(),
        }
    }

    /// A handle on the wrapper's counters.
    pub fn stats(&self) -> Rc<EmitStats> {
        Rc::clone(&self.stats)
    }

    /// The wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Sink> Sink for TimedSink<S> {
    const ACTIVE: bool = S::ACTIVE;

    fn emit(&mut self, event: &Event) {
        let started = Instant::now();
        self.inner.emit(event);
        let stats = &self.stats;
        stats.busy.set(stats.busy.get() + started.elapsed());
        stats.events.set(stats.events.get() + 1);
    }

    fn sync(&mut self) {
        self.inner.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;
    use gaia_obs::{JsonlSink, NullSink};
    use gaia_sim::Simulation;
    use gaia_workload::synth::TraceFamily;

    #[test]
    fn wrappers_leave_report_digest_and_stream_unchanged() {
        let carbon = scenario::synth_carbon(43);
        let workload = TraceFamily::AlibabaPai.week_long_1k(43);
        let config = scenario::config(&workload, 43);
        let sim = Simulation::new(config, &carbon);

        let mut plain_policy = scenario::policy().build(scenario::queues(&workload));
        let mut plain_sink = JsonlSink::new(Vec::new());
        let plain = sim
            .runner(&workload, &mut plain_policy)
            .sink(&mut plain_sink)
            .execute()
            .expect("valid policy decisions")
            .into_report();
        let plain_bytes = plain_sink.finish().expect("in-memory sink");

        let mut policy = scenario::policy().build(scenario::queues(&workload));
        let mut timed_policy = TimedScheduler::new(&mut policy);
        let mut timed_sink = TimedSink::new(JsonlSink::new(Vec::new()));
        let wrapped = sim
            .runner(&workload, &mut timed_policy)
            .sink(&mut timed_sink)
            .execute()
            .expect("valid policy decisions")
            .into_report();
        assert_eq!(timed_policy.calls, workload.len() as u64);
        let events = timed_sink.stats().events();
        assert!(events > 0);
        let wrapped_bytes = timed_sink.into_inner().finish().expect("in-memory sink");

        assert_eq!(
            scenario::details_digest(&plain),
            scenario::details_digest(&wrapped)
        );
        assert_eq!(plain, wrapped);
        assert_eq!(plain_bytes, wrapped_bytes);
        assert_eq!(
            events,
            wrapped_bytes.iter().filter(|&&b| b == b'\n').count() as u64
        );

        // Wrapping the disabled sink keeps it disabled.
        const { assert!(!<TimedSink<NullSink> as Sink>::ACTIVE) };
    }
}
