//! Behavioural tests of the elastic (variable-width) execution path:
//! the degenerate-plan differential against suspend-resume segments,
//! energy accounting at ideal speedup, spot-eviction abandonment, the
//! invariant audit over elastic runs, and snapshot round-trips of
//! pending elastic state.

use gaia_carbon::{CarbonTrace, PerfectForecaster};
use gaia_obs::NullSink;
use gaia_sim::{
    audit_report, audit_report_faulted, AuditInvariant, ClusterConfig, Decision, ElasticPlan,
    ElasticSegment, EvictionModel, FaultPlan, FaultSpec, OnlineEngine, Scheduler, SchedulerContext,
    SegmentPlan, Simulation,
};
use gaia_time::{Minutes, SimTime};
use gaia_workload::{Job, JobId, WorkloadTrace};

fn job(id: u64, arrival_min: u64, len_min: u64, cpus: u32) -> Job {
    Job::new(
        JobId(id),
        SimTime::from_minutes(arrival_min),
        Minutes::new(len_min),
        cpus,
    )
}

fn slice(start_min: u64, len_min: u64, width: u32, work_milli: u64) -> ElasticSegment {
    ElasticSegment {
        start: SimTime::from_minutes(start_min),
        len: Minutes::new(len_min),
        width,
        work_milli,
    }
}

/// Replies with the same elastic plan for every job.
struct ElasticNow(Vec<ElasticSegment>, bool);
impl Scheduler for ElasticNow {
    fn on_arrival(&mut self, _job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
        let d = Decision::run_elastic(ElasticPlan::new(self.0.clone()));
        if self.1 {
            d.on_spot()
        } else {
            d
        }
    }
}

/// Replies with the same suspend-resume plan for every job.
struct SegmentsNow(Vec<(SimTime, Minutes)>);
impl Scheduler for SegmentsNow {
    fn on_arrival(&mut self, _job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
        Decision::run_segments(SegmentPlan::new(self.0.clone()))
    }
}

#[test]
fn width_one_elastic_plan_matches_the_equivalent_segment_plan() {
    // Two width-1 slices carrying exactly their serial work are the
    // same schedule as a suspend-resume segment plan: every externally
    // observable number must agree.
    let carbon = CarbonTrace::from_hourly(vec![100.0, 400.0, 50.0, 300.0, 80.0]).expect("valid");
    let trace = WorkloadTrace::from_jobs(vec![job(0, 0, 120, 2)]);
    let slices = vec![slice(0, 60, 1, 60_000), slice(120, 60, 1, 60_000)];
    let plan: Vec<(SimTime, Minutes)> = slices.iter().map(|s| (s.start, s.len)).collect();

    let config = ClusterConfig::default();
    let elastic = Simulation::new(config, &carbon)
        .runner(&trace, &mut ElasticNow(slices, false))
        .execute()
        .expect("valid")
        .report;
    let segmented = Simulation::new(config, &carbon)
        .runner(&trace, &mut SegmentsNow(plan))
        .execute()
        .expect("valid")
        .report;

    let (e, s) = (&elastic.jobs[0], &segmented.jobs[0]);
    assert_eq!(e.first_start, s.first_start);
    assert_eq!(e.finish, s.finish);
    assert_eq!(e.waiting, s.waiting);
    assert_eq!(e.completion, s.completion);
    assert_eq!(e.carbon_g, s.carbon_g);
    assert_eq!(e.cost, s.cost);
    assert_eq!(elastic.totals.carbon_g, segmented.totals.carbon_g);
    assert_eq!(elastic.timeline, segmented.timeline);
    for audit in [
        audit_report(&elastic, &config, &carbon),
        audit_report(&segmented, &config, &carbon),
    ] {
        assert!(audit.is_clean(), "{:?}", audit.violations);
    }
}

#[test]
fn ideal_speedup_finishes_early_at_equal_energy() {
    // Width 2 at perfectly linear speedup: half the wall-clock, the
    // same CPU-hours, so the same carbon on a flat trace.
    let carbon = CarbonTrace::constant(100.0, 24).expect("valid");
    let trace = WorkloadTrace::from_jobs(vec![job(0, 0, 120, 1)]);
    let config = ClusterConfig::default();

    let wide = Simulation::new(config, &carbon)
        .runner(
            &trace,
            &mut ElasticNow(vec![slice(0, 60, 2, 120_000)], false),
        )
        .execute()
        .expect("valid")
        .report;
    let plain = Simulation::new(config, &carbon)
        .runner(
            &trace,
            &mut ElasticNow(vec![slice(0, 120, 1, 120_000)], false),
        )
        .execute()
        .expect("valid")
        .report;

    let outcome = &wide.jobs[0];
    assert_eq!(
        outcome.completion,
        Minutes::new(60),
        "2x width halves wall-clock"
    );
    assert_eq!(outcome.waiting, Minutes::ZERO, "full-speed run never waits");
    assert_eq!(outcome.segments[0].width, 2);
    assert_eq!(outcome.segments[0].cpus_used(1), 2);
    assert_eq!(
        outcome.carbon_g, plain.jobs[0].carbon_g,
        "ideal scaling costs no extra energy"
    );
    let audit = audit_report(&wide, &config, &carbon);
    assert!(audit.is_clean(), "{:?}", audit.violations);
}

#[test]
fn price_spike_on_a_wide_slice_audits_clean() {
    // One 2-CPU job runs a single width-2 on-demand slice under a 3×
    // price spike. The engine bills the surcharge on the 4 CPUs the
    // slice occupies; the audit must recompute the same figure (not the
    // job's base 2 CPUs) and still catch a forged one.
    let carbon = CarbonTrace::constant(100.0, 24).expect("valid");
    let trace = WorkloadTrace::from_jobs(vec![job(0, 0, 180, 2)]);
    let config = ClusterConfig::default();
    let schedule = {
        let mut plan = FaultPlan::new();
        plan.push(FaultSpec::PriceSpike {
            start: SimTime::ORIGIN,
            end: SimTime::from_hours(24),
            multiplier: 3.0,
        });
        plan.compile().expect("valid plan")
    };
    let mut report = Simulation::new(config, &carbon)
        .with_faults(&schedule)
        .runner(
            &trace,
            &mut ElasticNow(vec![slice(0, 90, 2, 180_000)], false),
        )
        .execute()
        .expect("valid")
        .report;
    assert_eq!(report.jobs[0].segments[0].cpus_used(2), 4);
    let surcharge = report.degradation.price_surcharge;
    assert!(
        (surcharge - 2.0 * report.totals.cost_on_demand).abs() < 1e-9,
        "surcharge {surcharge} is twice the usage cost at 3×"
    );
    let audit = audit_report_faulted(&report, &config, &carbon, Some(&schedule));
    assert!(audit.is_clean(), "{:?}", audit.violations);

    // The width-blind figure (half the true surcharge) is a forgery.
    report.degradation.price_surcharge = surcharge / 2.0;
    let audit = audit_report_faulted(&report, &config, &carbon, Some(&schedule));
    assert_eq!(audit.violations.len(), 1, "{:?}", audit.violations);
    assert_eq!(audit.violations[0].invariant, AuditInvariant::Degradation);
    assert!(audit.violations[0].detail.contains("price_surcharge"));
}

#[test]
fn sublinear_slices_charge_their_true_occupancy() {
    // Width 3 with sub-linear (Amdahl-ish) work: the slice occupies 3
    // CPUs for its whole wall-clock, so carbon reflects 3 CPU-hours even
    // though only ~2.14 serial-equivalent hours of progress were made.
    let carbon = CarbonTrace::constant(100.0, 24).expect("valid");
    let trace = WorkloadTrace::from_jobs(vec![job(0, 0, 120, 1)]);
    let config = ClusterConfig::default();
    let report = Simulation::new(config, &carbon)
        .runner(
            &trace,
            &mut ElasticNow(
                vec![slice(0, 56, 3, 56 * 2143), slice(60, 1, 1, 1000)],
                false,
            ),
        )
        .execute()
        .expect("valid")
        .report;
    let outcome = &report.jobs[0];
    // 56 min × 3 CPUs + 1 min × 1 CPU at 100 g/kWh, 1 kW/CPU.
    let expected = 100.0 * (56.0 * 3.0 + 1.0) / 60.0;
    assert!(
        (outcome.carbon_g - expected).abs() < 1e-9,
        "{}",
        outcome.carbon_g
    );
    let audit = audit_report(&report, &config, &carbon);
    assert!(audit.is_clean(), "{:?}", audit.violations);
}

#[test]
fn spot_eviction_abandons_the_plan_and_the_job_still_completes() {
    // An always-evict spot market: the elastic plan is abandoned at its
    // first eviction and the job restarts serially on on-demand, so it
    // still finishes, with clean accounting.
    let carbon = CarbonTrace::constant(100.0, 24 * 4).expect("valid");
    let trace = WorkloadTrace::from_jobs(vec![job(0, 0, 180, 1)]);
    let config = ClusterConfig::default().with_eviction(EvictionModel::hourly(1.0));
    let report = Simulation::new(config, &carbon)
        .runner(
            &trace,
            &mut ElasticNow(vec![slice(0, 90, 2, 180_000)], true),
        )
        .execute()
        .expect("valid")
        .report;
    let outcome = &report.jobs[0];
    assert!(
        outcome.evictions >= 1,
        "hourly(1.0) must evict the spot slice"
    );
    assert!(
        outcome.useful_work_milli() >= 180 * 1000,
        "the restart must still cover the job's work"
    );
    assert!(
        outcome.segments.iter().any(|s| !s.is_elastic()),
        "the post-eviction restart runs as a plain serial segment"
    );
    let audit = audit_report(&report, &config, &carbon);
    assert!(audit.is_clean(), "{:?}", audit.violations);
}

#[test]
fn snapshot_round_trips_pending_elastic_state() {
    // Snapshot an engine holding (a) a job mid-flight inside an elastic
    // plan and (b) a job whose elastic plan is still entirely in the
    // future; the restored engine must re-snapshot to identical bytes
    // and finish the runs identically to the original.
    let config = ClusterConfig::default();
    let carbon = CarbonTrace::constant(100.0, 48).expect("valid");
    let forecaster = PerfectForecaster::new(&carbon);
    let mut policy = ElasticNow(
        vec![slice(30, 60, 2, 90_000), slice(180, 30, 1, 30_000)],
        false,
    );

    let mut sink = NullSink;
    let mut engine = OnlineEngine::new(&config, &carbon, &forecaster, &mut sink);
    engine.submit(job(0, 0, 120, 1)).expect("dense id");
    engine.submit(job(1, 10, 120, 1)).expect("dense id");
    engine
        .advance_to(SimTime::from_minutes(40), &mut policy)
        .expect("valid decisions");
    let bytes = engine.snapshot();

    let mut sink2 = NullSink;
    let mut restored =
        OnlineEngine::restore(&config, &carbon, &forecaster, &mut sink2, &bytes).expect("restores");
    assert_eq!(restored.snapshot(), bytes, "restore is a fixed point");

    let end = SimTime::from_hours(12);
    engine.advance_to(end, &mut policy).expect("valid");
    restored.advance_to(end, &mut policy).expect("valid");
    assert_eq!(
        engine.snapshot(),
        restored.snapshot(),
        "original and restored engines evolve identically"
    );
}
