//! Behavioural tests of the simulation engine: starts, work conservation,
//! spot evictions, segment plans, and accounting identities.

use gaia_carbon::CarbonTrace;
use gaia_sim::{
    ClusterConfig, Decision, EvictionModel, PurchaseOption, Scheduler, SchedulerContext,
    SegmentPlan, Simulation,
};
use gaia_time::{Minutes, SimTime};
use gaia_workload::{Job, JobId, WorkloadTrace};

fn flat_carbon(hours: usize) -> CarbonTrace {
    CarbonTrace::constant(100.0, hours).expect("valid")
}

fn job(id: u64, arrival_min: u64, len_min: u64, cpus: u32) -> Job {
    Job::new(
        JobId(id),
        SimTime::from_minutes(arrival_min),
        Minutes::new(len_min),
        cpus,
    )
}

/// Runs every job at arrival (NoWait).
struct RunNow;
impl Scheduler for RunNow {
    fn on_arrival(&mut self, job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
        Decision::run_at(job.arrival)
    }
}

/// Delays every job by a fixed offset.
struct DelayBy(Minutes);
impl Scheduler for DelayBy {
    fn on_arrival(&mut self, job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
        Decision::run_at(job.arrival + self.0)
    }
}

/// Delays by a fixed offset but starts early if reserved capacity frees.
struct DelayOpportunistic(Minutes);
impl Scheduler for DelayOpportunistic {
    fn on_arrival(&mut self, job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
        Decision::run_at(job.arrival + self.0).opportunistic()
    }
}

/// Runs every job on spot at arrival.
struct SpotNow;
impl Scheduler for SpotNow {
    fn on_arrival(&mut self, job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
        Decision::run_at(job.arrival).on_spot()
    }
}

#[test]
fn run_now_has_zero_waiting_and_exact_carbon() {
    let carbon = CarbonTrace::from_hourly(vec![100.0, 300.0, 50.0]).expect("valid");
    let trace = WorkloadTrace::from_jobs(vec![job(0, 0, 120, 1)]);
    let report = Simulation::new(ClusterConfig::default(), &carbon)
        .runner(&trace, &mut RunNow)
        .execute()
        .expect("valid policy decisions")
        .report;
    let outcome = &report.jobs[0];
    assert_eq!(outcome.waiting, Minutes::ZERO);
    assert_eq!(outcome.completion, Minutes::new(120));
    assert_eq!(outcome.first_start, SimTime::ORIGIN);
    // Carbon: hours 0 and 1 -> (100 + 300) g.
    assert!((outcome.carbon_g - 400.0).abs() < 1e-9);
    assert_eq!(outcome.segments.len(), 1);
    assert_eq!(outcome.segments[0].option, PurchaseOption::OnDemand);
}

#[test]
fn reserved_preferred_over_on_demand() {
    let carbon = flat_carbon(24);
    let trace = WorkloadTrace::from_jobs(vec![job(0, 0, 60, 1), job(1, 0, 60, 1)]);
    let config = ClusterConfig::default().with_reserved(1);
    let report = Simulation::new(config, &carbon)
        .runner(&trace, &mut RunNow)
        .execute()
        .expect("valid policy decisions")
        .report;
    let options: Vec<PurchaseOption> = report.jobs.iter().map(|j| j.segments[0].option).collect();
    assert_eq!(options[0], PurchaseOption::Reserved);
    assert_eq!(options[1], PurchaseOption::OnDemand);
    // Reserved frees at 60; a later job reuses it.
    let trace2 = WorkloadTrace::from_jobs(vec![job(0, 0, 60, 1), job(1, 90, 60, 1)]);
    let report2 = Simulation::new(config, &carbon)
        .runner(&trace2, &mut RunNow)
        .execute()
        .expect("valid policy decisions")
        .report;
    assert_eq!(report2.jobs[1].segments[0].option, PurchaseOption::Reserved);
}

#[test]
fn planned_start_is_honored() {
    let carbon = flat_carbon(24);
    let trace = WorkloadTrace::from_jobs(vec![job(0, 0, 60, 1)]);
    let report = Simulation::new(ClusterConfig::default(), &carbon)
        .runner(&trace, &mut DelayBy(Minutes::from_hours(3)))
        .execute()
        .expect("valid policy decisions")
        .report;
    let outcome = &report.jobs[0];
    assert_eq!(outcome.first_start, SimTime::from_hours(3));
    assert_eq!(outcome.waiting, Minutes::from_hours(3));
    assert_eq!(outcome.completion, Minutes::from_hours(4));
}

#[test]
fn opportunistic_waiter_starts_when_reserved_frees() {
    let carbon = flat_carbon(48);
    // Both jobs are delayed by 10 h with opportunistic early start. Job 0
    // (arrival 0) starts at its planned hour 10 on the only reserved CPU
    // and holds it until hour 11. Job 1 (arrival minute 200, planned
    // minute 800) sees the reserved CPU free at minute 660 — *before* its
    // planned start — and begins immediately: work conservation.
    let trace = WorkloadTrace::from_jobs(vec![job(0, 0, 60, 1), job(1, 200, 30, 1)]);
    let config = ClusterConfig::default().with_reserved(1);
    let report = Simulation::new(config, &carbon)
        .runner(&trace, &mut DelayOpportunistic(Minutes::from_hours(10)))
        .execute()
        .expect("valid policy decisions")
        .report;
    let j0 = &report.jobs[0];
    let j1 = &report.jobs[1];
    assert_eq!(j0.first_start, SimTime::from_hours(10));
    assert_eq!(j0.segments[0].option, PurchaseOption::Reserved);
    assert_eq!(j1.first_start, SimTime::from_hours(11));
    assert_eq!(j1.segments[0].option, PurchaseOption::Reserved);
}

#[test]
fn opportunistic_start_prefers_earliest_planned() {
    let carbon = flat_carbon(48);
    // One reserved CPU, occupied by job 0 for 2 hours. Jobs 1 and 2 wait
    // opportunistically; job 2 has the earlier planned start (arrival+5h
    // each, job 1 arrives later... make both arrive, job1 planned later).
    struct PlanAt(Vec<SimTime>);
    impl Scheduler for PlanAt {
        fn on_arrival(&mut self, job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
            Decision::run_at(self.0[job.id.index()]).opportunistic()
        }
    }
    let trace = WorkloadTrace::from_jobs(vec![
        job(0, 0, 120, 1),
        job(1, 10, 60, 1),
        job(2, 20, 60, 1),
    ]);
    let config = ClusterConfig::default().with_reserved(1);
    // Job 0 runs immediately (planned = arrival); job 1 planned at hour
    // 20, job 2 planned at hour 6 (earlier!).
    let mut policy = PlanAt(vec![
        SimTime::ORIGIN,
        SimTime::from_hours(20),
        SimTime::from_hours(6),
    ]);
    let report = Simulation::new(config, &carbon)
        .runner(&trace, &mut policy)
        .execute()
        .expect("valid policy decisions")
        .report;
    // Reserved frees at hour 2: job 2 (earliest planned start) wins it.
    assert_eq!(report.jobs[2].first_start, SimTime::from_hours(2));
    assert_eq!(report.jobs[2].segments[0].option, PurchaseOption::Reserved);
    // Job 1 then picks it up at hour 3 (still before its planned start).
    assert_eq!(report.jobs[1].first_start, SimTime::from_hours(3));
    assert_eq!(report.jobs[1].segments[0].option, PurchaseOption::Reserved);
}

#[test]
fn wide_waiter_does_not_block_narrow_one() {
    let carbon = flat_carbon(48);
    struct PlanAt(Vec<SimTime>);
    impl Scheduler for PlanAt {
        fn on_arrival(&mut self, job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
            Decision::run_at(self.0[job.id.index()]).opportunistic()
        }
    }
    // 2 reserved CPUs. Job 0 uses both for an hour. Job 1 needs 2 CPUs
    // (planned hour 5), job 2 needs 1 CPU (planned hour 6).
    let trace =
        WorkloadTrace::from_jobs(vec![job(0, 0, 60, 2), job(1, 1, 600, 2), job(2, 2, 60, 1)]);
    // Job 0 finishes at hour 1 freeing 2 cpus: job 1 (earlier planned)
    // takes both; job 2 must wait for its own chance.
    let config = ClusterConfig::default().with_reserved(2);
    let mut policy = PlanAt(vec![
        SimTime::ORIGIN,
        SimTime::from_hours(5),
        SimTime::from_hours(6),
    ]);
    let report = Simulation::new(config, &carbon)
        .runner(&trace, &mut policy)
        .execute()
        .expect("valid policy decisions")
        .report;
    assert_eq!(report.jobs[1].first_start, SimTime::from_hours(1));
    // Job 1 runs 10 h on both reserved cpus; job 2's planned start (hour
    // 6) fires first and it falls back to on-demand.
    assert_eq!(report.jobs[2].first_start, SimTime::from_hours(6));
    assert_eq!(report.jobs[2].segments[0].option, PurchaseOption::OnDemand);
}

#[test]
fn spot_run_without_eviction_is_cheap() {
    let carbon = flat_carbon(24);
    let trace = WorkloadTrace::from_jobs(vec![job(0, 0, 120, 1)]);
    let config = ClusterConfig::default(); // eviction: never
    let report = Simulation::new(config, &carbon)
        .runner(&trace, &mut SpotNow)
        .execute()
        .expect("valid policy decisions")
        .report;
    let outcome = &report.jobs[0];
    assert_eq!(outcome.segments[0].option, PurchaseOption::Spot);
    assert_eq!(outcome.evictions, 0);
    // 2 cpu-hours at 20% of 0.0624.
    assert!((report.totals.cost_spot - 2.0 * 0.0624 * 0.2).abs() < 1e-9);
    assert_eq!(report.totals.cost_on_demand, 0.0);
}

#[test]
fn spot_eviction_restarts_and_accounts_lost_work() {
    let carbon = flat_carbon(200);
    let trace = WorkloadTrace::from_jobs(vec![job(0, 0, 240, 1)]);
    // Certain eviction within the first hour.
    let config = ClusterConfig::default()
        .with_eviction(EvictionModel::hourly(1.0))
        .with_seed(3);
    let report = Simulation::new(config, &carbon)
        .runner(&trace, &mut SpotNow)
        .execute()
        .expect("valid policy decisions")
        .report;
    let outcome = &report.jobs[0];
    assert_eq!(outcome.evictions, 1);
    assert_eq!(outcome.segments.len(), 2);
    let lost = &outcome.segments[0];
    let redo = &outcome.segments[1];
    assert_eq!(lost.option, PurchaseOption::Spot);
    assert!(!lost.useful);
    assert!(lost.len() < Minutes::from_hours(1));
    // Restart never uses spot again: full 4-hour rerun on on-demand.
    assert_eq!(redo.option, PurchaseOption::OnDemand);
    assert!(redo.useful);
    assert_eq!(redo.len(), Minutes::new(240));
    // Completion includes the lost work: waiting = completion - length > 0.
    assert!(outcome.waiting > Minutes::ZERO);
    assert_eq!(outcome.completion, outcome.waiting + Minutes::new(240));
    // Carbon includes the lost segment.
    let expected_carbon = 100.0 * (lost.len().as_hours_f64() + 4.0);
    assert!((outcome.carbon_g - expected_carbon).abs() < 1e-6);
}

#[test]
fn evicted_job_restarts_on_reserved_if_free() {
    let carbon = flat_carbon(200);
    let trace = WorkloadTrace::from_jobs(vec![job(0, 0, 240, 1)]);
    let config = ClusterConfig::default()
        .with_eviction(EvictionModel::hourly(1.0))
        .with_reserved(1)
        .with_seed(3);
    let report = Simulation::new(config, &carbon)
        .runner(&trace, &mut SpotNow)
        .execute()
        .expect("valid policy decisions")
        .report;
    assert_eq!(report.jobs[0].segments[1].option, PurchaseOption::Reserved);
}

#[test]
fn segment_plan_executes_each_segment() {
    let carbon = CarbonTrace::from_hourly(vec![100.0, 500.0, 50.0, 500.0, 25.0]).expect("valid");
    struct Suspender;
    impl Scheduler for Suspender {
        fn on_arrival(&mut self, job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
            // Run in hours 0, 2, 4 (the cheap slots), pausing in between.
            assert_eq!(job.length, Minutes::from_hours(3));
            Decision::run_segments(SegmentPlan::new(vec![
                (SimTime::from_hours(0), Minutes::from_hours(1)),
                (SimTime::from_hours(2), Minutes::from_hours(1)),
                (SimTime::from_hours(4), Minutes::from_hours(1)),
            ]))
        }
    }
    let trace = WorkloadTrace::from_jobs(vec![job(0, 0, 180, 1)]);
    let report = Simulation::new(ClusterConfig::default(), &carbon)
        .runner(&trace, &mut Suspender)
        .execute()
        .expect("valid policy decisions")
        .report;
    let outcome = &report.jobs[0];
    assert_eq!(outcome.segments.len(), 3);
    assert!((outcome.carbon_g - 175.0).abs() < 1e-9);
    assert_eq!(outcome.finish, SimTime::from_hours(5));
    assert_eq!(outcome.completion, Minutes::from_hours(5));
    // Waiting = completion - length = 2 h of suspension.
    assert_eq!(outcome.waiting, Minutes::from_hours(2));
}

#[test]
fn segment_plan_uses_reserved_per_segment() {
    let carbon = flat_carbon(24);
    struct TwoPhase;
    impl Scheduler for TwoPhase {
        fn on_arrival(&mut self, job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
            match job.id.0 {
                // Job 0: occupies reserved during hour 1 only.
                0 => Decision::run_at(SimTime::from_hours(1)),
                // Job 1: segments in hour 1 (reserved busy -> on-demand)
                // and hour 3 (reserved free -> reserved).
                _ => Decision::run_segments(SegmentPlan::new(vec![
                    (SimTime::from_hours(1), Minutes::from_hours(1)),
                    (SimTime::from_hours(3), Minutes::from_hours(1)),
                ])),
            }
        }
    }
    let trace = WorkloadTrace::from_jobs(vec![job(0, 0, 60, 1), job(1, 0, 120, 1)]);
    let config = ClusterConfig::default().with_reserved(1);
    let report = Simulation::new(config, &carbon)
        .runner(&trace, &mut TwoPhase)
        .execute()
        .expect("valid policy decisions")
        .report;
    let seg_options: Vec<PurchaseOption> =
        report.jobs[1].segments.iter().map(|s| s.option).collect();
    assert_eq!(
        seg_options,
        vec![PurchaseOption::OnDemand, PurchaseOption::Reserved]
    );
}

#[test]
fn billing_horizon_defaults_to_whole_days() {
    let carbon = flat_carbon(24 * 3);
    let trace = WorkloadTrace::from_jobs(vec![job(0, 0, 90, 1)]);
    let report = Simulation::new(ClusterConfig::default().with_reserved(2), &carbon)
        .runner(&trace, &mut RunNow)
        .execute()
        .expect("valid policy decisions")
        .report;
    assert_eq!(report.totals.billing_horizon, Minutes::from_days(1));
    // Explicit override wins.
    let report2 = Simulation::new(
        ClusterConfig::default()
            .with_reserved(2)
            .with_billing_horizon(Minutes::from_days(7)),
        &carbon,
    )
    .runner(&trace, &mut RunNow)
    .execute()
    .expect("valid policy decisions")
    .report;
    assert_eq!(report2.totals.billing_horizon, Minutes::from_days(7));
    assert!(report2.totals.cost_reserved_prepaid > report.totals.cost_reserved_prepaid);
}

#[test]
fn totals_are_consistent_with_jobs() {
    let carbon = flat_carbon(48);
    let trace = WorkloadTrace::from_jobs(vec![
        job(0, 0, 60, 2),
        job(1, 30, 120, 1),
        job(2, 100, 45, 3),
    ]);
    let config = ClusterConfig::default().with_reserved(2);
    let report = Simulation::new(config, &carbon)
        .runner(&trace, &mut RunNow)
        .execute()
        .expect("valid policy decisions")
        .report;
    let carbon_sum: f64 = report.jobs.iter().map(|j| j.carbon_g).sum();
    assert!((report.totals.carbon_g - carbon_sum).abs() < 1e-9);
    let waiting_sum: Minutes = report.jobs.iter().map(|j| j.waiting).sum();
    assert_eq!(report.totals.total_waiting, waiting_sum);
    assert_eq!(report.totals.jobs, 3);
    // Every job executed exactly its length (no evictions configured).
    for outcome in &report.jobs {
        assert_eq!(outcome.executed(), outcome.job.length);
    }
}

#[test]
fn empty_trace_runs() {
    let carbon = flat_carbon(24);
    let trace = WorkloadTrace::from_jobs(vec![]);
    let report = Simulation::new(ClusterConfig::default(), &carbon)
        .runner(&trace, &mut RunNow)
        .execute()
        .expect("valid policy decisions")
        .report;
    assert!(report.jobs.is_empty());
    assert_eq!(report.totals.jobs, 0);
    assert_eq!(report.makespan(), SimTime::ORIGIN);
}

#[test]
fn context_reports_reserved_state() {
    let carbon = flat_carbon(24);
    struct Checker {
        seen: Vec<(u32, u32)>,
    }
    impl Scheduler for Checker {
        fn on_arrival(&mut self, job: &Job, ctx: &SchedulerContext<'_>) -> Decision {
            self.seen.push((ctx.reserved_free, ctx.reserved_capacity));
            assert_eq!(ctx.now, job.arrival);
            assert_eq!(ctx.forecast.now(), job.arrival);
            Decision::run_at(job.arrival)
        }
    }
    let trace = WorkloadTrace::from_jobs(vec![job(0, 0, 600, 2), job(1, 60, 30, 1)]);
    let mut checker = Checker { seen: vec![] };
    let config = ClusterConfig::default().with_reserved(3);
    Simulation::new(config, &carbon)
        .runner(&trace, &mut checker)
        .execute()
        .expect("valid policy decisions");
    assert_eq!(checker.seen, vec![(3, 3), (1, 3)]);
}

#[test]
#[should_panic(expected = "before its arrival")]
fn rejects_start_before_arrival() {
    let carbon = flat_carbon(24);
    struct Bad;
    impl Scheduler for Bad {
        fn on_arrival(&mut self, _job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
            Decision::run_at(SimTime::ORIGIN)
        }
    }
    let trace = WorkloadTrace::from_jobs(vec![job(0, 60, 30, 1)]);
    Simulation::new(ClusterConfig::default(), &carbon)
        .runner(&trace, &mut Bad)
        .execute()
        .unwrap_or_else(|error| panic!("{error}"));
}

#[test]
#[should_panic(expected = "but the job is")]
fn rejects_incomplete_segment_plan() {
    let carbon = flat_carbon(24);
    struct Bad;
    impl Scheduler for Bad {
        fn on_arrival(&mut self, _job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
            Decision::run_segments(SegmentPlan::new(vec![(
                SimTime::from_hours(1),
                Minutes::new(10),
            )]))
        }
    }
    let trace = WorkloadTrace::from_jobs(vec![job(0, 0, 60, 1)]);
    Simulation::new(ClusterConfig::default(), &carbon)
        .runner(&trace, &mut Bad)
        .execute()
        .unwrap_or_else(|error| panic!("{error}"));
}

#[test]
fn execute_reports_bad_decisions_as_typed_errors() {
    use gaia_sim::{PolicyError, SimError};
    let carbon = flat_carbon(24);

    struct Early;
    impl Scheduler for Early {
        fn on_arrival(&mut self, _job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
            Decision::run_at(SimTime::ORIGIN)
        }
    }
    let trace = WorkloadTrace::from_jobs(vec![job(0, 60, 30, 1)]);
    let err = Simulation::new(ClusterConfig::default(), &carbon)
        .runner(&trace, &mut Early)
        .execute()
        .expect_err("start before arrival must fail");
    assert!(matches!(
        err,
        SimError::Policy(PolicyError::StartBeforeArrival { .. })
    ));

    struct Short;
    impl Scheduler for Short {
        fn on_arrival(&mut self, _job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
            Decision::run_segments(SegmentPlan::new(vec![(
                SimTime::from_hours(1),
                Minutes::new(10),
            )]))
        }
    }
    let trace = WorkloadTrace::from_jobs(vec![job(0, 0, 60, 1)]);
    let err = Simulation::new(ClusterConfig::default(), &carbon)
        .runner(&trace, &mut Short)
        .execute()
        .expect_err("short plan must fail");
    match err {
        SimError::Policy(PolicyError::PlanLengthMismatch {
            planned, length, ..
        }) => {
            assert_eq!(planned, Minutes::new(10));
            assert_eq!(length, Minutes::new(60));
        }
        other => panic!("unexpected error: {other:?}"),
    }
}

#[test]
fn separate_simulations_agree_on_valid_policies() {
    let carbon = flat_carbon(48);
    struct Asap;
    impl Scheduler for Asap {
        fn on_arrival(&mut self, job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
            Decision::run_at(job.arrival)
        }
    }
    let trace = WorkloadTrace::from_jobs(vec![job(0, 0, 600, 2), job(1, 60, 30, 1)]);
    let config = ClusterConfig::default().with_reserved(2);
    let via_run = Simulation::new(config, &carbon)
        .runner(&trace, &mut Asap)
        .execute()
        .expect("valid policy decisions")
        .report;
    let via_try = Simulation::new(config, &carbon)
        .runner(&trace, &mut Asap)
        .execute()
        .expect("valid policy")
        .into_report();
    assert_eq!(via_run, via_try);
}

#[test]
fn checkpointing_banks_progress_across_evictions() {
    use gaia_sim::CheckpointConfig;
    let carbon = flat_carbon(24 * 20);
    // 6-hour job, checkpoints every hour (no overhead for clarity),
    // 50% hourly eviction: attempts rarely survive the full six hours,
    // but hourly checkpoints accumulate progress across them.
    let trace = WorkloadTrace::from_jobs(vec![job(0, 0, 360, 1)]);
    let config = ClusterConfig::default()
        .with_eviction(EvictionModel::hourly(0.5))
        .with_checkpointing(CheckpointConfig {
            interval: Minutes::from_hours(1),
            overhead: Minutes::ZERO,
            max_retries: 1000,
        })
        // Seed chosen so the eviction stream yields many evictions
        // (13 under the vendored StdRng): the banked-progress path must
        // actually be exercised, not skipped by a lucky survival.
        .with_seed(4);
    let report = Simulation::new(config, &carbon)
        .runner(&trace, &mut SpotNow)
        .execute()
        .expect("valid policy decisions")
        .report;
    let outcome = &report.jobs[0];
    // Evicted many times, but progress accumulates: the job finishes on
    // spot instead of falling back to on-demand.
    assert!(outcome.evictions > 1, "evictions {}", outcome.evictions);
    assert!(outcome
        .segments
        .iter()
        .all(|s| s.option == PurchaseOption::Spot));
    // Banked segments are marked useful; zero-progress ones are not.
    assert!(outcome.segments.iter().any(|s| s.useful));
    // Total executed time >= job length (recomputation of tails).
    assert!(outcome.executed() >= Minutes::new(360));
}

#[test]
fn checkpointing_falls_back_after_retry_budget() {
    use gaia_sim::CheckpointConfig;
    let carbon = flat_carbon(24 * 20);
    let trace = WorkloadTrace::from_jobs(vec![job(0, 0, 360, 1)]);
    let config = ClusterConfig::default()
        .with_eviction(EvictionModel::hourly(1.0))
        .with_checkpointing(CheckpointConfig {
            interval: Minutes::from_hours(2), // evicted before each checkpoint
            overhead: Minutes::new(5),
            max_retries: 3,
        })
        .with_seed(3);
    let report = Simulation::new(config, &carbon)
        .runner(&trace, &mut SpotNow)
        .execute()
        .expect("valid policy decisions")
        .report;
    let outcome = &report.jobs[0];
    assert_eq!(outcome.evictions, 3);
    let last = outcome.segments.last().expect("finished");
    assert_eq!(last.option, PurchaseOption::OnDemand);
    assert!(last.useful);
}

#[test]
fn checkpoint_overhead_extends_span_without_evictions() {
    use gaia_sim::CheckpointConfig;
    let carbon = flat_carbon(48);
    let trace = WorkloadTrace::from_jobs(vec![job(0, 0, 240, 1)]);
    let config = ClusterConfig::default().with_checkpointing(CheckpointConfig::every_hours(1, 6));
    let report = Simulation::new(config, &carbon)
        .runner(&trace, &mut SpotNow)
        .execute()
        .expect("valid policy decisions")
        .report;
    let outcome = &report.jobs[0];
    assert_eq!(outcome.evictions, 0);
    // 4 h of work with checkpoints after hours 1, 2, 3: +18 minutes.
    assert_eq!(outcome.completion, Minutes::new(240 + 18));
    assert_eq!(outcome.waiting, Minutes::new(18));
    // Non-spot jobs are unaffected by the checkpoint config.
    let report2 = Simulation::new(config, &carbon)
        .runner(&trace, &mut RunNow)
        .execute()
        .expect("valid policy decisions")
        .report;
    assert_eq!(report2.jobs[0].completion, Minutes::new(240));
}

#[test]
fn startup_overhead_delays_elastic_execution_only() {
    use gaia_sim::InstanceOverheads;
    let carbon = flat_carbon(48);
    let trace = WorkloadTrace::from_jobs(vec![job(0, 0, 120, 1), job(1, 0, 120, 1)]);
    // One reserved CPU: job 0 gets it (no overheads), job 1 spills to
    // on-demand and pays a 5-minute boot plus 3-minute wind-down.
    let config = ClusterConfig::default()
        .with_reserved(1)
        .with_overheads(InstanceOverheads {
            startup: Minutes::new(5),
            teardown: Minutes::new(3),
        });
    let report = Simulation::new(config, &carbon)
        .runner(&trace, &mut RunNow)
        .execute()
        .expect("valid policy decisions")
        .report;
    let reserved_job = &report.jobs[0];
    let od_job = &report.jobs[1];
    assert_eq!(reserved_job.segments[0].option, PurchaseOption::Reserved);
    assert_eq!(reserved_job.completion, Minutes::new(120));
    assert_eq!(reserved_job.waiting, Minutes::ZERO);
    assert_eq!(od_job.segments[0].option, PurchaseOption::OnDemand);
    // Boot delays completion; teardown is billed but does not delay.
    assert_eq!(od_job.completion, Minutes::new(125));
    assert_eq!(od_job.waiting, Minutes::new(5));
    // Billed span covers boot + work + teardown: 128 minutes of carbon.
    assert!((od_job.carbon_g - 100.0 * 128.0 / 60.0).abs() < 1e-9);
    assert!(
        od_job.cost > reserved_job.cost,
        "elastic instance pays for its overheads"
    );
}

#[test]
fn overheads_penalize_fragmented_plans() {
    use gaia_sim::InstanceOverheads;
    let carbon = flat_carbon(48);
    struct TwoSegments;
    impl Scheduler for TwoSegments {
        fn on_arrival(&mut self, _job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
            Decision::run_segments(SegmentPlan::new(vec![
                (SimTime::from_hours(1), Minutes::new(60)),
                (SimTime::from_hours(4), Minutes::new(60)),
            ]))
        }
    }
    let trace = WorkloadTrace::from_jobs(vec![job(0, 0, 120, 1)]);
    let base = ClusterConfig::default();
    let with_oh = base.with_overheads(InstanceOverheads::symmetric(10));
    let clean = Simulation::new(base, &carbon)
        .runner(&trace, &mut TwoSegments)
        .execute()
        .expect("valid policy decisions")
        .report;
    let taxed = Simulation::new(with_oh, &carbon)
        .runner(&trace, &mut TwoSegments)
        .execute()
        .expect("valid policy decisions")
        .report;
    // Two acquisitions, each paying 20 minutes of overhead.
    let extra_cost = taxed.totals.cost_on_demand - clean.totals.cost_on_demand;
    assert!((extra_cost - 2.0 * (20.0 / 60.0) * 0.0624).abs() < 1e-9);
    assert!(taxed.totals.carbon_g > clean.totals.carbon_g);
    // The gap before segment 2 absorbs segment 1's boot delay, so only
    // the final segment's boot stretches completion.
    assert_eq!(
        taxed.jobs[0].completion,
        clean.jobs[0].completion + Minutes::new(10)
    );
}

#[test]
fn deferred_segment_waits_for_boot_shifted_predecessor() {
    use gaia_sim::InstanceOverheads;
    let carbon = flat_carbon(48);
    struct BackToBack;
    impl Scheduler for BackToBack {
        fn on_arrival(&mut self, _job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
            // Adjacent segments: the 30-minute boot pushes the first
            // segment's execution into the second's planned start.
            Decision::run_segments(SegmentPlan::new(vec![
                (SimTime::from_hours(1), Minutes::new(60)),
                (SimTime::from_hours(2), Minutes::new(60)),
            ]))
        }
    }
    let trace = WorkloadTrace::from_jobs(vec![job(0, 0, 120, 1)]);
    let config = ClusterConfig::default().with_overheads(InstanceOverheads {
        startup: Minutes::new(30),
        teardown: Minutes::ZERO,
    });
    let report = Simulation::new(config, &carbon)
        .runner(&trace, &mut BackToBack)
        .execute()
        .expect("valid policy decisions")
        .report;
    let outcome = &report.jobs[0];
    assert_eq!(outcome.segments.len(), 2);
    // Segment 1 executes [1:30, 2:30]; segment 2 defers to 2:30, boots,
    // and executes [3:00, 4:00].
    assert_eq!(outcome.segments[0].end, SimTime::from_minutes(150));
    assert_eq!(outcome.segments[1].start, SimTime::from_minutes(150));
    assert_eq!(outcome.finish, SimTime::from_hours(4));
}

#[test]
fn deterministic_across_runs() {
    let carbon = flat_carbon(24 * 7);
    let jobs: Vec<Job> = (0..50)
        .map(|i| job(i, i * 37 % 2000, 30 + i * 13 % 600, 1 + (i % 3) as u32))
        .collect();
    let trace = WorkloadTrace::from_jobs(jobs);
    let config = ClusterConfig::default()
        .with_reserved(4)
        .with_eviction(EvictionModel::hourly(0.2))
        .with_seed(11);
    let a = Simulation::new(config, &carbon)
        .runner(&trace, &mut SpotNow)
        .execute()
        .expect("valid policy decisions")
        .report;
    let b = Simulation::new(config, &carbon)
        .runner(&trace, &mut SpotNow)
        .execute()
        .expect("valid policy decisions")
        .report;
    assert_eq!(a, b);
}

/// Planning is timed into the engine and reported once per event-loop
/// call, yet the phase table reads as if every plan had its own timer:
/// one `plan` call per job, ahead of `event_loop`, for the batch runner
/// and for an online engine advanced in several steps.
#[test]
fn profiler_plan_row_counts_one_call_per_job() {
    use gaia_carbon::PerfectForecaster;
    use gaia_obs::{NullSink, Profiler};
    use gaia_sim::OnlineEngine;

    let carbon = flat_carbon(48);
    let jobs: Vec<Job> = (0..37).map(|i| job(i, i * 20, 30, 1)).collect();
    let names = |prof: &Profiler| -> Vec<(&'static str, u64)> {
        prof.snapshot()
            .into_iter()
            .map(|(name, _, calls)| (name, calls))
            .collect()
    };

    let prof = Profiler::new();
    Simulation::new(ClusterConfig::default().with_reserved(2), &carbon)
        .with_profiler(&prof)
        .runner(&WorkloadTrace::from_jobs(jobs.clone()), &mut RunNow)
        .execute()
        .expect("valid decisions");
    assert_eq!(names(&prof)[..2], [("plan", 37), ("event_loop", 1)]);

    let prof = Profiler::new();
    let config = ClusterConfig::default().with_reserved(2);
    let forecaster = PerfectForecaster::new(&carbon);
    let mut sink = NullSink;
    let mut engine =
        OnlineEngine::new(&config, &carbon, &forecaster, &mut sink).with_profiler(&prof);
    for job in jobs {
        engine.submit(job).expect("valid submission");
    }
    engine
        .advance_to(SimTime::from_minutes(300), &mut RunNow)
        .expect("valid decisions");
    engine.run_until_idle(&mut RunNow).expect("valid decisions");
    assert_eq!(names(&prof), [("plan", 37), ("event_loop", 2)]);
}
