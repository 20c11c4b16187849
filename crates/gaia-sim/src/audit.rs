//! Post-run invariant audit (the correctness analogue of a sanitizer).
//!
//! [`audit_report`] replays the accounting identities the rest of the
//! stack silently relies on — segment coverage, capacity occupancy,
//! carbon/cost folds, work conservation, and timing consistency — against
//! a completed [`SimReport`] and reports every violation it finds.
//!
//! Design rule: **the audit must never false-positive.** Every check is
//! either valid for all configurations or explicitly gated on the
//! configuration features (instance overheads, checkpointing, capacity
//! caps) that relax it; where event ordering at a shared instant is
//! ambiguous from the segment records alone, the check takes the lenient
//! reading. A reported violation therefore always indicates a real bug in
//! the engine or a policy, never an artifact of the audit itself.

use gaia_carbon::CarbonTrace;
use gaia_fault::FaultSchedule;
use gaia_time::SimTime;
use gaia_workload::JobId;

use crate::account::{segment_carbon, segment_cost, ClusterTotals, JobOutcome};
use crate::config::{CapacityCap, ClusterConfig};
use crate::plan::PurchaseOption;
use crate::report::SimReport;

/// The invariant families the audit enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditInvariant {
    /// Each job's useful segments cover exactly its length, without
    /// overlap.
    SegmentCoverage,
    /// Reserved / elastic occupancy never exceeds configured capacity.
    Occupancy,
    /// Per-job and cluster totals equal the fold of their segments.
    Accounting,
    /// No job runs on-demand while reserved capacity sits idle.
    WorkConservation,
    /// Waiting / completion / segment times are consistent.
    Timing,
    /// Degradation stats in the report are consistent with the fault
    /// schedule the run was given (and identically zero without one).
    Degradation,
}

impl AuditInvariant {
    /// Stable lowercase name, used in reports and manifests.
    pub fn name(&self) -> &'static str {
        match self {
            AuditInvariant::SegmentCoverage => "segment-coverage",
            AuditInvariant::Occupancy => "occupancy",
            AuditInvariant::Accounting => "accounting",
            AuditInvariant::WorkConservation => "work-conservation",
            AuditInvariant::Timing => "timing",
            AuditInvariant::Degradation => "degradation",
        }
    }
}

impl std::fmt::Display for AuditInvariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One broken invariant, localized to a job where possible.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditViolation {
    /// Which invariant family was broken.
    pub invariant: AuditInvariant,
    /// The job involved, if the violation is job-local.
    pub job: Option<JobId>,
    /// Human-readable description with the offending numbers.
    pub detail: String,
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.job {
            Some(job) => write!(f, "[{}] {job}: {}", self.invariant, self.detail),
            None => write!(f, "[{}] {}", self.invariant, self.detail),
        }
    }
}

/// Outcome of auditing one completed run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AuditReport {
    /// Every invariant violation found, in deterministic order.
    pub violations: Vec<AuditViolation>,
    /// Number of elementary checks evaluated (for "audited N things"
    /// reporting; zero checks would itself be suspicious).
    pub checks_run: usize,
}

impl AuditReport {
    /// `true` when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Absolute-plus-tiny-relative tolerance for accounting comparisons.
/// Recomputed folds repeat the engine's own operation order, so equality
/// is near-bitwise; 1e-6 absolute is the contract, the relative term
/// guards year-scale magnitudes.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 + 1e-9 * b.abs()
}

/// Reserved occupancy at one segment-boundary instant, as the
/// work-conservation check reads it.
#[derive(Debug, Clone, Copy)]
struct ReservedStep {
    t: SimTime,
    /// CPUs busy at `t` with closed ends: every segment with
    /// `start <= t`, minus those with `end < t`.
    closed: u64,
    /// CPUs busy just after `t`: segments ending at `t` have left.
    after: u64,
}

struct Auditor<'a> {
    report: &'a SimReport,
    config: &'a ClusterConfig,
    carbon: &'a CarbonTrace,
    faults: Option<&'a FaultSchedule>,
    out: AuditReport,
    /// Time-sorted reserved occupancy, one entry per distinct boundary
    /// instant. Built by the occupancy sweep, read by the
    /// work-conservation check, so the reserved boundaries are sorted
    /// once per audit.
    reserved_steps: Vec<ReservedStep>,
}

/// Audits a completed run against `config` and the true carbon trace.
///
/// Checks (gating noted; defaults — no overheads, no checkpointing — run
/// everything):
///
/// 1. **Segment coverage** — useful segments sum to exactly the job
///    length and never overlap (strict form requires no instance
///    overheads and no checkpointing, which legitimately stretch or
///    re-credit segments; otherwise executed time must still be at least
///    the length).
/// 2. **Occupancy** — reserved occupancy never exceeds
///    `config.reserved_cpus` (always valid: reserved instances have no
///    boot/teardown), and elastic occupancy respects a
///    [`CapacityCap::Static`] cap except for the documented single
///    wider-than-cap job escape.
/// 3. **Accounting** — per-job carbon/cost equal the fold of their
///    segments through the same `account` integrals the engine uses, and
///    [`ClusterTotals`] equals the re-aggregated outcomes, all within
///    1e-6.
/// 4. **Work conservation** — every on-demand segment starts at an
///    instant when reserved capacity was exhausted (the engine always
///    tries reserved first).
/// 5. **Timing** — completion = finish − arrival, completion = waiting +
///    length, completion ≥ length, and every segment is well-formed and
///    starts at or after arrival.
pub fn audit_report(
    report: &SimReport,
    config: &ClusterConfig,
    carbon: &CarbonTrace,
) -> AuditReport {
    audit_report_faulted(report, config, carbon, None)
}

/// [`audit_report`] for a run that (possibly) executed under a fault
/// schedule.
///
/// All five base families apply unchanged — fault effects are designed to
/// never corrupt the accounting identities (price spikes surcharge
/// separately, trace gaps bridge only the policy-visible trace, storms
/// and capacity clamps only reshape legal schedules). A sixth family,
/// [`AuditInvariant::Degradation`], additionally checks that the report's
/// [`DegradationStats`] are consistent with `faults`: zero without a
/// schedule, gap hours matching the schedule, the price surcharge equal
/// to its per-segment recomputation, and no counter touched by a fault
/// kind the schedule does not contain.
///
/// [`DegradationStats`]: crate::DegradationStats
pub fn audit_report_faulted(
    report: &SimReport,
    config: &ClusterConfig,
    carbon: &CarbonTrace,
    faults: Option<&FaultSchedule>,
) -> AuditReport {
    let mut auditor = Auditor::new(report, config, carbon, faults);
    auditor.check_segment_coverage();
    auditor.check_occupancy();
    auditor.check_accounting();
    auditor.check_work_conservation();
    auditor.check_timing();
    auditor.check_degradation();
    auditor.out
}

impl<'a> Auditor<'a> {
    fn new(
        report: &'a SimReport,
        config: &'a ClusterConfig,
        carbon: &'a CarbonTrace,
        faults: Option<&'a FaultSchedule>,
    ) -> Self {
        Auditor {
            report,
            config,
            carbon,
            faults: faults.filter(|f| !f.is_empty()),
            out: AuditReport::default(),
            reserved_steps: Vec::new(),
        }
    }

    fn violation(&mut self, invariant: AuditInvariant, job: Option<JobId>, detail: String) {
        self.out.violations.push(AuditViolation {
            invariant,
            job,
            detail,
        });
    }

    fn tally(&mut self) {
        self.out.checks_run += 1;
    }

    /// Strict per-job segment accounting only holds in the paper's
    /// default mode: boot/teardown stretch segments past the useful work,
    /// and checkpointing re-credits partially-lost segments as useful.
    fn strict_segments(&self) -> bool {
        self.config.overheads.is_none() && self.config.checkpoint.is_none()
    }

    fn check_segment_coverage(&mut self) {
        let strict = self.strict_segments();
        let report = self.report;
        // One scratch buffer for every job's span sort.
        let mut spans: Vec<(SimTime, SimTime)> = Vec::new();
        for outcome in &report.jobs {
            self.tally();
            // Elastic jobs are covered by *work*, not wall time: each
            // slice completes `work_milli` milli-minutes of serial work,
            // and the plan contract is that the useful total reaches the
            // job's serial length.
            if outcome.is_elastic() {
                let work = outcome.useful_work_milli();
                let needed = outcome.job.length.as_minutes() * 1000;
                if work < needed {
                    self.violation(
                        AuditInvariant::SegmentCoverage,
                        Some(outcome.job.id),
                        format!("useful elastic work {work} milli-minutes, job needs {needed}"),
                    );
                }
                self.check_overlaps(outcome, &mut spans);
            } else if strict {
                let useful: gaia_time::Minutes = outcome
                    .segments
                    .iter()
                    .filter(|s| s.useful)
                    .map(|s| s.len())
                    .sum();
                if useful != outcome.job.length {
                    self.violation(
                        AuditInvariant::SegmentCoverage,
                        Some(outcome.job.id),
                        format!(
                            "useful segments cover {useful}, job length is {}",
                            outcome.job.length
                        ),
                    );
                }
                self.check_overlaps(outcome, &mut spans);
            } else if outcome.executed() < outcome.job.length {
                self.violation(
                    AuditInvariant::SegmentCoverage,
                    Some(outcome.job.id),
                    format!(
                        "executed {} in total, less than the job length {}",
                        outcome.executed(),
                        outcome.job.length
                    ),
                );
            }
        }
    }

    /// Sweeps segment boundaries and checks occupancy on every open
    /// interval between events. Interval occupancy is exact (no same-
    /// instant ordering ambiguity), so this cannot false-positive; it
    /// checks the sustained occupancy the capacity contract is about.
    fn check_occupancy(&mut self) {
        self.tally();
        self.sweep_reserved();
        if self.config.overheads.is_none() {
            if let CapacityCap::Static(cap) = self.config.capacity_cap {
                self.tally();
                self.sweep_elastic(cap);
            }
        }
    }

    /// Flags every pair of a job's segments that overlap in time,
    /// sorting the spans in `spans` (a buffer reused across jobs).
    fn check_overlaps(&mut self, outcome: &JobOutcome, spans: &mut Vec<(SimTime, SimTime)>) {
        spans.clear();
        spans.extend(outcome.segments.iter().map(|s| (s.start, s.end)));
        spans.sort_unstable();
        for pair in spans.windows(2) {
            if pair[1].0 < pair[0].1 {
                self.violation(
                    AuditInvariant::SegmentCoverage,
                    Some(outcome.job.id),
                    format!(
                        "segment starting {} overlaps segment ending {}",
                        pair[1].0, pair[0].1
                    ),
                );
            }
        }
    }

    /// Sweeps the reserved segment boundaries in time order, checking
    /// the occupancy after each instant against capacity, and records
    /// the work-conservation reading of the same sweep in
    /// `reserved_steps`.
    fn sweep_reserved(&mut self) {
        let capacity = self.config.reserved_cpus as i64;
        // (time, signed CPUs, well-formed): `+cpus` at a segment's start,
        // `-cpus` at its end. Only the sum over an instant matters, so
        // the order within one instant is free.
        let mut edges: Vec<(SimTime, i64, bool)> = Vec::new();
        for outcome in &self.report.jobs {
            for segment in &outcome.segments {
                if segment.option == PurchaseOption::Reserved {
                    let cpus = segment.cpus_used(outcome.job.cpus) as i64;
                    let ordered = segment.start <= segment.end;
                    edges.push((segment.start, cpus, ordered));
                    edges.push((segment.end, -cpus, ordered));
                }
            }
        }
        edges.sort_unstable_by_key(|edge| edge.0);
        let mut steps = Vec::new();
        // `busy` counts every reserved segment; `held` only well-formed
        // ones (`start <= end`), since a segment ending before it starts
        // never covers an instant under the closed-end reading.
        let mut busy = 0i64;
        let mut held = 0i64;
        for group in edges.chunk_by(|a, b| a.0 == b.0) {
            let t = group[0].0;
            let mut starting = 0i64;
            let mut net = 0i64;
            for &(_, delta, ordered) in group {
                busy += delta;
                if ordered {
                    net += delta;
                    starting += delta.max(0);
                }
            }
            steps.push(ReservedStep {
                t,
                closed: (held + starting) as u64,
                after: (held + net) as u64,
            });
            held += net;
            if busy > capacity {
                self.violation(
                    AuditInvariant::Occupancy,
                    None,
                    format!("{busy} reserved CPUs busy after {t}, capacity is {capacity}"),
                );
            }
        }
        self.reserved_steps = steps;
    }

    /// Reserved CPUs busy at `t` with closed ends, read off the sweep.
    fn reserved_busy_at(&self, t: SimTime) -> u64 {
        let i = self.reserved_steps.partition_point(|step| step.t <= t);
        match i.checked_sub(1).map(|i| self.reserved_steps[i]) {
            None => 0,
            Some(step) if step.t == t => step.closed,
            Some(step) => step.after,
        }
    }

    fn sweep_elastic(&mut self, cap: u32) {
        // (time, is_start, job index, cpus). Elastic slices occupy
        // `width × cpus`, so the CPU count travels with the event instead
        // of being a per-job fact. Only the state after an instant is
        // checked, so the order within one instant is free.
        let mut events: Vec<(SimTime, bool, usize, u32)> = Vec::new();
        for (idx, outcome) in self.report.jobs.iter().enumerate() {
            for segment in &outcome.segments {
                if segment.option != PurchaseOption::Reserved {
                    let cpus = segment.cpus_used(outcome.job.cpus);
                    events.push((segment.start, true, idx, cpus));
                    events.push((segment.end, false, idx, cpus));
                }
            }
        }
        events.sort_unstable_by_key(|event| event.0);
        // Open slices per job, and how many jobs have one open.
        let mut open = vec![0i32; self.report.jobs.len()];
        let mut active = 0usize;
        let mut busy = 0i64;
        for group in events.chunk_by(|a, b| a.0 == b.0) {
            let t = group[0].0;
            for &(_, is_start, idx, cpus) in group {
                let slices = &mut open[idx];
                let was_open = *slices != 0;
                if is_start {
                    *slices += 1;
                    busy += i64::from(cpus);
                } else {
                    *slices -= 1;
                    busy -= i64::from(cpus);
                }
                match (was_open, *slices != 0) {
                    (false, true) => active += 1,
                    (true, false) => active -= 1,
                    _ => {}
                }
            }
            // One job wider than the cap may run alone (the documented
            // anti-deadlock escape); anything else must fit the cap.
            if busy > i64::from(cap) && active > 1 {
                self.violation(
                    AuditInvariant::Occupancy,
                    None,
                    format!(
                        "{busy} elastic CPUs busy across {active} jobs after {t}, cap is {cap}"
                    ),
                );
            }
        }
    }

    fn check_accounting(&mut self) {
        for outcome in &self.report.jobs {
            self.tally();
            let carbon: f64 = outcome
                .segments
                .iter()
                .map(|s| {
                    segment_carbon(
                        self.carbon,
                        &self.config.energy,
                        s.cpus_used(outcome.job.cpus),
                        s.start,
                        s.end,
                    )
                })
                .sum();
            if !close(outcome.carbon_g, carbon) {
                self.violation(
                    AuditInvariant::Accounting,
                    Some(outcome.job.id),
                    format!(
                        "carbon {} g differs from segment fold {carbon} g",
                        outcome.carbon_g
                    ),
                );
            }
            let cost: f64 = outcome
                .segments
                .iter()
                .map(|s| {
                    segment_cost(
                        &self.config.pricing,
                        s.option,
                        s.cpus_used(outcome.job.cpus),
                        s.start,
                        s.end,
                    )
                })
                .sum();
            if !close(outcome.cost, cost) {
                self.violation(
                    AuditInvariant::Accounting,
                    Some(outcome.job.id),
                    format!("cost ${} differs from segment fold ${cost}", outcome.cost),
                );
            }
        }
        self.tally();
        let totals = &self.report.totals;
        let expected =
            ClusterTotals::aggregate(&self.report.jobs, self.config, totals.billing_horizon);
        let fields = [
            ("carbon_g", totals.carbon_g, expected.carbon_g),
            (
                "cost_reserved_prepaid",
                totals.cost_reserved_prepaid,
                expected.cost_reserved_prepaid,
            ),
            (
                "cost_on_demand",
                totals.cost_on_demand,
                expected.cost_on_demand,
            ),
            ("cost_spot", totals.cost_spot, expected.cost_spot),
            (
                "reserved_cpu_hours",
                totals.reserved_cpu_hours,
                expected.reserved_cpu_hours,
            ),
            (
                "on_demand_cpu_hours",
                totals.on_demand_cpu_hours,
                expected.on_demand_cpu_hours,
            ),
            (
                "spot_cpu_hours",
                totals.spot_cpu_hours,
                expected.spot_cpu_hours,
            ),
        ];
        for (name, actual, recomputed) in fields {
            if !close(actual, recomputed) {
                self.violation(
                    AuditInvariant::Accounting,
                    None,
                    format!("totals.{name} = {actual} but re-aggregation gives {recomputed}"),
                );
            }
        }
        if totals.total_waiting != expected.total_waiting
            || totals.total_completion != expected.total_completion
            || totals.evictions != expected.evictions
            || totals.jobs != expected.jobs
        {
            self.violation(
                AuditInvariant::Accounting,
                None,
                format!(
                    "totals counters (waiting {}, completion {}, evictions {}, jobs {}) \
                     differ from re-aggregation (waiting {}, completion {}, evictions {}, jobs {})",
                    totals.total_waiting,
                    totals.total_completion,
                    totals.evictions,
                    totals.jobs,
                    expected.total_waiting,
                    expected.total_completion,
                    expected.evictions,
                    expected.jobs
                ),
            );
        }
    }

    /// The engine always offers reserved capacity first, so an on-demand
    /// segment can only start when the reserved pool cannot hold the job.
    /// Occupancy at the start instant is read with closed ends (a
    /// reserved segment ending exactly then still counts as busy): the
    /// engine may legitimately start blocked work midway through a batch
    /// of same-instant releases, and the lenient reading keeps those
    /// legal interleavings out of the violation list. Each start is one
    /// binary search into the occupancy sweep's `reserved_steps`.
    fn check_work_conservation(&mut self) {
        let capacity = self.report.totals.reserved_capacity as u64;
        let report = self.report;
        for outcome in &report.jobs {
            for segment in &outcome.segments {
                if segment.option != PurchaseOption::OnDemand {
                    continue;
                }
                self.tally();
                let t = segment.start;
                let busy = self.reserved_busy_at(t);
                if busy + segment.cpus_used(outcome.job.cpus) as u64 <= capacity {
                    self.violation(
                        AuditInvariant::WorkConservation,
                        Some(outcome.job.id),
                        format!(
                            "started on-demand at {t} although only {busy}/{capacity} \
                             reserved CPUs were busy"
                        ),
                    );
                }
            }
        }
    }

    /// Degradation stats must be zero without a fault schedule, and
    /// consistent with the schedule when one was injected. Counter checks
    /// are one-sided (a fault kind absent from the schedule cannot have
    /// left a mark); the price surcharge is recomputed exactly from the
    /// segments, so it is checked both ways.
    fn check_degradation(&mut self) {
        self.tally();
        let stats = &self.report.degradation;
        let Some(faults) = self.faults else {
            if !stats.is_clean() {
                self.violation(
                    AuditInvariant::Degradation,
                    None,
                    format!("degradation stats {stats:?} are nonzero without a fault schedule"),
                );
            }
            return;
        };
        if stats.bridged_gap_hours != faults.total_gap_hours() {
            self.violation(
                AuditInvariant::Degradation,
                None,
                format!(
                    "bridged_gap_hours = {} but the schedule's gap union covers {} hours",
                    stats.bridged_gap_hours,
                    faults.total_gap_hours()
                ),
            );
        }
        let mut gated = vec![];
        if !faults.has_storms() && stats.storm_evictions != 0 {
            gated.push(("storm_evictions", stats.storm_evictions));
        }
        if !faults.has_outages() && stats.degraded_decisions != 0 {
            gated.push(("degraded_decisions", stats.degraded_decisions));
        }
        if !faults.has_capacity_drops() && stats.capacity_denials != 0 {
            gated.push(("capacity_denials", stats.capacity_denials));
        }
        for (name, value) in gated {
            self.violation(
                AuditInvariant::Degradation,
                None,
                format!("{name} = {value} but the schedule contains no such fault"),
            );
        }
        if stats.storm_evictions > self.report.totals.evictions {
            self.violation(
                AuditInvariant::Degradation,
                None,
                format!(
                    "storm_evictions = {} exceeds total evictions {}",
                    stats.storm_evictions, self.report.totals.evictions
                ),
            );
        }
        self.tally();
        let surcharge: f64 = self
            .report
            .jobs
            .iter()
            .flat_map(|outcome| outcome.segments.iter().map(move |s| (outcome, s)))
            .map(|(outcome, s)| {
                let multiplier = faults.price_multiplier_at(s.start);
                if multiplier > 1.0 {
                    segment_cost(
                        &self.config.pricing,
                        s.option,
                        s.cpus_used(outcome.job.cpus),
                        s.start,
                        s.end,
                    ) * (multiplier - 1.0)
                } else {
                    0.0
                }
            })
            .sum();
        if !close(stats.price_surcharge, surcharge) {
            self.violation(
                AuditInvariant::Degradation,
                None,
                format!(
                    "price_surcharge = ${} but the per-segment recomputation gives ${surcharge}",
                    stats.price_surcharge
                ),
            );
        }
    }

    fn check_timing(&mut self) {
        let strict = self.strict_segments();
        for outcome in &self.report.jobs {
            self.tally();
            let job = &outcome.job;
            let completion = outcome.finish.saturating_since(job.arrival);
            if outcome.completion != completion {
                self.violation(
                    AuditInvariant::Timing,
                    Some(job.id),
                    format!(
                        "completion {} but finish - arrival is {completion}",
                        outcome.completion
                    ),
                );
            }
            if outcome.is_elastic() {
                // An elastic job finishes its serial work in less wall
                // time than `length`, so the plain identities above do
                // not apply. Instead: waiting is completion minus the
                // useful execution wall (exact in the paper's default
                // mode; boot/teardown make it approximate otherwise).
                if strict {
                    let exec: gaia_time::Minutes = outcome
                        .segments
                        .iter()
                        .filter(|s| s.useful)
                        .map(|s| s.len())
                        .sum();
                    let expected = outcome.completion.saturating_sub(exec);
                    if outcome.waiting != expected {
                        self.violation(
                            AuditInvariant::Timing,
                            Some(job.id),
                            format!(
                                "elastic waiting {} but completion {} - useful \
                                 execution {exec} gives {expected}",
                                outcome.waiting, outcome.completion
                            ),
                        );
                    }
                }
            } else {
                if outcome.completion < job.length {
                    self.violation(
                        AuditInvariant::Timing,
                        Some(job.id),
                        format!(
                            "completion {} is shorter than the job length {}",
                            outcome.completion, job.length
                        ),
                    );
                }
                if outcome.waiting + job.length != outcome.completion {
                    self.violation(
                        AuditInvariant::Timing,
                        Some(job.id),
                        format!(
                            "waiting {} + length {} != completion {}",
                            outcome.waiting, job.length, outcome.completion
                        ),
                    );
                }
            }
            if outcome.first_start < job.arrival {
                self.violation(
                    AuditInvariant::Timing,
                    Some(job.id),
                    format!(
                        "first start {} precedes arrival {}",
                        outcome.first_start, job.arrival
                    ),
                );
            }
            if outcome.finish < outcome.first_start {
                self.violation(
                    AuditInvariant::Timing,
                    Some(job.id),
                    format!(
                        "finish {} precedes first start {}",
                        outcome.finish, outcome.first_start
                    ),
                );
            }
            // The scalar timing columns (`first_start`, `finish`,
            // `waiting`) and the segment records live in different parts
            // of the engine state; corruption that shifts both scalars
            // consistently (the failure the old `saturating_sub` clamp
            // used to swallow) passes every check above. Tie the columns
            // to the segment ground truth. Outside the paper's default
            // mode boot/teardown stretch segments past the useful span,
            // so the exact-equality form only holds in strict mode.
            if strict {
                if let Some(earliest) = outcome.segments.iter().map(|s| s.start).min() {
                    if earliest != outcome.first_start {
                        self.violation(
                            AuditInvariant::Timing,
                            Some(job.id),
                            format!(
                                "first start {} but the earliest segment starts {earliest}",
                                outcome.first_start
                            ),
                        );
                    }
                }
                if let Some(latest) = outcome.segments.iter().map(|s| s.end).max() {
                    if latest != outcome.finish {
                        self.violation(
                            AuditInvariant::Timing,
                            Some(job.id),
                            format!(
                                "finish {} but the last segment ends {latest}",
                                outcome.finish
                            ),
                        );
                    }
                }
            }
            for segment in &outcome.segments {
                if segment.is_empty() {
                    self.violation(
                        AuditInvariant::Timing,
                        Some(job.id),
                        format!(
                            "empty segment [{}, {}] recorded",
                            segment.start, segment.end
                        ),
                    );
                }
                if segment.start < job.arrival {
                    self.violation(
                        AuditInvariant::Timing,
                        Some(job.id),
                        format!(
                            "segment starts {} before arrival {}",
                            segment.start, job.arrival
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::SegmentRecord;
    use crate::config::ClusterConfig;
    use crate::Simulation;
    use gaia_time::Minutes;
    use gaia_workload::{Job, WorkloadTrace};

    fn trace() -> CarbonTrace {
        CarbonTrace::from_hourly((0..48).map(|h| 100.0 + h as f64).collect()).expect("valid")
    }

    fn run_default() -> (SimReport, ClusterConfig, CarbonTrace) {
        let carbon = trace();
        let config = ClusterConfig::default()
            .with_reserved(2)
            .with_billing_horizon(Minutes::from_days(2));
        let jobs = WorkloadTrace::from_jobs(vec![
            Job::new(JobId(0), SimTime::ORIGIN, Minutes::from_hours(2), 2),
            Job::new(JobId(1), SimTime::from_hours(1), Minutes::from_hours(3), 1),
            Job::new(JobId(2), SimTime::from_hours(1), Minutes::new(30), 1),
        ]);
        struct Asap;
        impl crate::Scheduler for Asap {
            fn on_arrival(
                &mut self,
                job: &Job,
                _ctx: &crate::SchedulerContext<'_>,
            ) -> crate::Decision {
                crate::Decision::run_at(job.arrival)
            }
        }
        let report = Simulation::new(config, &carbon)
            .runner(&jobs, &mut Asap)
            .execute()
            .expect("valid decisions")
            .into_report();
        (report, config, carbon)
    }

    #[test]
    fn clean_run_audits_clean() {
        let (report, config, carbon) = run_default();
        let audit = audit_report(&report, &config, &carbon);
        assert!(audit.is_clean(), "{:?}", audit.violations);
        assert!(audit.checks_run > 0);
    }

    #[test]
    fn corrupted_carbon_is_flagged() {
        let (mut report, config, carbon) = run_default();
        report.jobs[0].carbon_g += 1.0;
        let audit = audit_report(&report, &config, &carbon);
        assert!(!audit.is_clean());
        assert!(audit
            .violations
            .iter()
            .any(|v| v.invariant == AuditInvariant::Accounting && v.job == Some(JobId(0))));
        // The stored totals no longer match a re-aggregation of the
        // (corrupted) outcomes either.
        assert!(audit
            .violations
            .iter()
            .any(|v| v.invariant == AuditInvariant::Accounting && v.job.is_none()));
    }

    #[test]
    fn truncated_segments_are_flagged() {
        let (mut report, config, carbon) = run_default();
        let seg = report.jobs[1].segments[0];
        report.jobs[1].segments[0] = SegmentRecord {
            end: seg.end - Minutes::new(10),
            ..seg
        };
        let audit = audit_report(&report, &config, &carbon);
        assert!(audit
            .violations
            .iter()
            .any(|v| v.invariant == AuditInvariant::SegmentCoverage));
    }

    #[test]
    fn overlapping_segments_are_flagged() {
        let (mut report, config, carbon) = run_default();
        let seg = report.jobs[1].segments[0];
        report.jobs[1].segments.push(SegmentRecord {
            start: seg.start,
            end: seg.start + Minutes::new(5),
            option: seg.option,
            useful: false,
            width: 1,
            work_milli: 0,
        });
        let audit = audit_report(&report, &config, &carbon);
        assert!(audit.violations.iter().any(
            |v| v.invariant == AuditInvariant::SegmentCoverage && v.detail.contains("overlaps")
        ));
    }

    #[test]
    fn oversubscribed_reserved_is_flagged() {
        let (mut report, config, carbon) = run_default();
        // Forge a third concurrent reserved segment: capacity is 2.
        let forged = SegmentRecord {
            start: SimTime::ORIGIN,
            end: SimTime::from_hours(1),
            option: PurchaseOption::Reserved,
            useful: false,
            width: 1,
            work_milli: 0,
        };
        report.jobs[2].segments.insert(0, forged);
        let audit = audit_report(&report, &config, &carbon);
        assert!(audit
            .violations
            .iter()
            .any(|v| v.invariant == AuditInvariant::Occupancy));
    }

    #[test]
    fn idle_reserved_on_demand_start_is_flagged() {
        let (mut report, config, carbon) = run_default();
        // Rewrite a reserved segment as on-demand: reserved was idle then.
        let idx = report
            .jobs
            .iter()
            .position(|o| o.segments[0].option == PurchaseOption::Reserved)
            .expect("some job ran reserved");
        report.jobs[idx].segments[0].option = PurchaseOption::OnDemand;
        let audit = audit_report(&report, &config, &carbon);
        assert!(audit
            .violations
            .iter()
            .any(|v| v.invariant == AuditInvariant::WorkConservation));
    }

    #[test]
    fn inconsistent_timing_is_flagged() {
        let (mut report, config, carbon) = run_default();
        report.jobs[0].waiting += Minutes::new(7);
        let audit = audit_report(&report, &config, &carbon);
        assert!(audit
            .violations
            .iter()
            .any(|v| v.invariant == AuditInvariant::Timing && v.job == Some(JobId(0))));
    }

    /// Regression for the silent-saturation bug: shift `finish`,
    /// `completion`, and `waiting` *consistently*, so every pre-existing
    /// timing check still passes (the clamp used to make exactly this
    /// class of corruption self-consistent). Only the column-vs-segment
    /// cross-check can see it.
    #[test]
    fn consistent_column_shift_is_flagged_against_segments() {
        let (mut report, config, carbon) = run_default();
        let outcome = &mut report.jobs[0];
        outcome.finish += Minutes::new(11);
        outcome.completion += Minutes::new(11);
        outcome.waiting += Minutes::new(11);
        let audit = audit_report(&report, &config, &carbon);
        let timing: Vec<_> = audit
            .violations
            .iter()
            .filter(|v| v.invariant == AuditInvariant::Timing)
            .collect();
        assert_eq!(timing.len(), 1, "{timing:?}");
        assert!(timing[0].detail.contains("the last segment ends"));
    }

    #[test]
    fn shifted_first_start_is_flagged_against_segments() {
        let (mut report, config, carbon) = run_default();
        report.jobs[0].first_start += Minutes::new(5);
        let audit = audit_report(&report, &config, &carbon);
        assert!(audit
            .violations
            .iter()
            .any(|v| v.invariant == AuditInvariant::Timing
                && v.detail.contains("the earliest segment starts")));
    }

    #[test]
    fn nonzero_degradation_without_schedule_is_flagged() {
        let (mut report, config, carbon) = run_default();
        report.degradation.degraded_decisions = 3;
        let audit = audit_report(&report, &config, &carbon);
        assert!(audit
            .violations
            .iter()
            .any(|v| v.invariant == AuditInvariant::Degradation));
    }

    #[test]
    fn schedule_gated_counters_are_flagged() {
        use gaia_fault::{FaultPlan, FaultSpec};
        let (mut report, config, carbon) = run_default();
        let schedule = {
            let mut plan = FaultPlan::new();
            plan.push(FaultSpec::ForecastOutage {
                start: SimTime::ORIGIN,
                end: SimTime::from_hours(1),
            });
            plan.compile().expect("valid plan")
        };
        // Outage-only schedule: degraded decisions are legitimate, storm
        // evictions are not.
        report.degradation.degraded_decisions = 2;
        let audit = audit_report_faulted(&report, &config, &carbon, Some(&schedule));
        assert!(audit.is_clean(), "{:?}", audit.violations);
        report.degradation.storm_evictions = 1;
        let audit = audit_report_faulted(&report, &config, &carbon, Some(&schedule));
        assert!(audit
            .violations
            .iter()
            .any(|v| v.invariant == AuditInvariant::Degradation
                && v.detail.contains("storm_evictions")));
    }

    #[test]
    fn forged_price_surcharge_is_flagged() {
        use gaia_fault::{FaultPlan, FaultSpec};
        let (mut report, config, carbon) = run_default();
        let schedule = {
            let mut plan = FaultPlan::new();
            plan.push(FaultSpec::PriceSpike {
                start: SimTime::from_hours(100),
                end: SimTime::from_hours(101),
                multiplier: 3.0,
            });
            plan.compile().expect("valid plan")
        };
        // No segment overlaps the spike window, so the true surcharge is
        // zero; a forged one must be caught.
        let audit = audit_report_faulted(&report, &config, &carbon, Some(&schedule));
        assert!(audit.is_clean(), "{:?}", audit.violations);
        report.degradation.price_surcharge = 12.5;
        let audit = audit_report_faulted(&report, &config, &carbon, Some(&schedule));
        assert!(audit
            .violations
            .iter()
            .any(|v| v.invariant == AuditInvariant::Degradation
                && v.detail.contains("price_surcharge")));
    }

    #[test]
    fn violation_display_is_readable() {
        let v = AuditViolation {
            invariant: AuditInvariant::Accounting,
            job: Some(JobId(4)),
            detail: "off by one gram".into(),
        };
        let text = v.to_string();
        assert!(text.contains("accounting"), "{text}");
        assert!(text.contains("off by one gram"), "{text}");
        let global = AuditViolation {
            invariant: AuditInvariant::Occupancy,
            job: None,
            detail: "too busy".into(),
        };
        assert!(global.to_string().starts_with("[occupancy]"));
    }

    /// The pre-sweep work-conservation check, kept verbatim as the
    /// differential oracle: every on-demand start rescans every reserved
    /// segment.
    fn oracle_work_conservation(report: &SimReport) -> AuditReport {
        let mut out = AuditReport::default();
        let capacity = report.totals.reserved_capacity as u64;
        let mut reserved: Vec<(SimTime, SimTime, u32)> = Vec::new();
        for outcome in &report.jobs {
            for segment in &outcome.segments {
                if segment.option == PurchaseOption::Reserved {
                    reserved.push((
                        segment.start,
                        segment.end,
                        segment.cpus_used(outcome.job.cpus),
                    ));
                }
            }
        }
        for outcome in &report.jobs {
            for segment in &outcome.segments {
                if segment.option != PurchaseOption::OnDemand {
                    continue;
                }
                out.checks_run += 1;
                let t = segment.start;
                let busy: u64 = reserved
                    .iter()
                    .filter(|&&(start, end, _)| start <= t && t <= end)
                    .map(|&(_, _, cpus)| cpus as u64)
                    .sum();
                if busy + segment.cpus_used(outcome.job.cpus) as u64 <= capacity {
                    out.violations.push(AuditViolation {
                        invariant: AuditInvariant::WorkConservation,
                        job: Some(outcome.job.id),
                        detail: format!(
                            "started on-demand at {t} although only {busy}/{capacity} \
                             reserved CPUs were busy"
                        ),
                    });
                }
            }
        }
        out
    }

    /// The pre-sweep reserved occupancy check: a full `(time, delta)` sort.
    fn oracle_sweep_reserved(report: &SimReport, capacity: i64) -> Vec<AuditViolation> {
        let mut violations = Vec::new();
        let mut events: Vec<(SimTime, i64)> = Vec::new();
        for outcome in &report.jobs {
            for segment in &outcome.segments {
                if segment.option == PurchaseOption::Reserved {
                    let cpus = segment.cpus_used(outcome.job.cpus) as i64;
                    events.push((segment.start, cpus));
                    events.push((segment.end, -cpus));
                }
            }
        }
        events.sort();
        let mut busy = 0i64;
        let mut i = 0;
        while i < events.len() {
            let t = events[i].0;
            while i < events.len() && events[i].0 == t {
                busy += events[i].1;
                i += 1;
            }
            if busy > capacity {
                violations.push(AuditViolation {
                    invariant: AuditInvariant::Occupancy,
                    job: None,
                    detail: format!("{busy} reserved CPUs busy after {t}, capacity is {capacity}"),
                });
            }
        }
        violations
    }

    /// The pre-sweep elastic occupancy check, with its `BTreeMap` of
    /// open slices per job.
    fn oracle_sweep_elastic(report: &SimReport, cap: u32) -> Vec<AuditViolation> {
        let mut violations = Vec::new();
        let mut events: Vec<(SimTime, bool, usize, u32)> = Vec::new();
        for (idx, outcome) in report.jobs.iter().enumerate() {
            for segment in &outcome.segments {
                if segment.option != PurchaseOption::Reserved {
                    let cpus = segment.cpus_used(outcome.job.cpus);
                    events.push((segment.start, true, idx, cpus));
                    events.push((segment.end, false, idx, cpus));
                }
            }
        }
        events.sort_by_key(|&(t, is_start, idx, cpus)| (t, is_start, idx, cpus));
        let mut active: std::collections::BTreeMap<usize, u32> = std::collections::BTreeMap::new();
        let mut busy = 0u64;
        let mut i = 0;
        while i < events.len() {
            let t = events[i].0;
            while i < events.len() && events[i].0 == t {
                let (_, is_start, idx, cpus) = events[i];
                if is_start {
                    *active.entry(idx).or_insert(0) += 1;
                    busy += cpus as u64;
                } else {
                    let count = active.get_mut(&idx).expect("balanced segment events");
                    *count -= 1;
                    if *count == 0 {
                        active.remove(&idx);
                    }
                    busy -= cpus as u64;
                }
                i += 1;
            }
            if busy > cap as u64 && active.len() > 1 {
                violations.push(AuditViolation {
                    invariant: AuditInvariant::Occupancy,
                    job: None,
                    detail: format!(
                        "{busy} elastic CPUs busy across {} jobs after {t}, cap is {cap}",
                        active.len()
                    ),
                });
            }
        }
        violations
    }

    /// The sweeps' verdicts on `report`: the reserved occupancy
    /// violations, the work-conservation family, and the elastic
    /// occupancy violations under `cap`.
    fn sweep_verdicts(
        report: &SimReport,
        config: &ClusterConfig,
        carbon: &CarbonTrace,
        cap: u32,
    ) -> (Vec<AuditViolation>, AuditReport, Vec<AuditViolation>) {
        let mut auditor = Auditor::new(report, config, carbon, None);
        auditor.sweep_reserved();
        let reserved = std::mem::take(&mut auditor.out.violations);
        auditor.check_work_conservation();
        let conservation = std::mem::take(&mut auditor.out);
        auditor.sweep_elastic(cap);
        (reserved, conservation, auditor.out.violations)
    }

    fn assert_sweeps_match_oracles(report: &SimReport, config: &ClusterConfig, cap: u32) {
        let carbon = trace();
        let (reserved, conservation, elastic) = sweep_verdicts(report, config, &carbon, cap);
        assert_eq!(
            reserved,
            oracle_sweep_reserved(report, config.reserved_cpus as i64)
        );
        assert_eq!(conservation, oracle_work_conservation(report));
        assert_eq!(elastic, oracle_sweep_elastic(report, cap));
    }

    fn option_strategy() -> impl proptest::strategy::Strategy<Value = PurchaseOption> {
        use proptest::prelude::*;
        prop_oneof![
            Just(PurchaseOption::Reserved),
            Just(PurchaseOption::OnDemand),
            Just(PurchaseOption::Spot),
        ]
    }

    /// `(cpus, [(start, len, option, width)])` per job, on a 16-minute
    /// clock so same-instant boundaries are the common case. Reserved
    /// segments may be empty or even inverted (`len` is then a step
    /// backwards): the engine never records either, but a forged report
    /// may, and the sweeps must read them as the oracles do.
    type RandomJobs = Vec<(u32, Vec<(u64, i64, PurchaseOption, u32)>)>;

    fn report_with(jobs: &RandomJobs, reserved_capacity: u32) -> SimReport {
        let (mut report, _, _) = run_default();
        let template = report.jobs[0].clone();
        report.totals.reserved_capacity = reserved_capacity;
        report.jobs = jobs
            .iter()
            .enumerate()
            .map(|(i, (cpus, segments))| {
                let mut outcome = template.clone();
                outcome.job = Job::new(JobId(i as u64), SimTime::ORIGIN, Minutes::new(60), *cpus);
                outcome.segments = segments
                    .iter()
                    .map(|&(start, len, option, width)| {
                        // Only reserved segments may be degenerate: the
                        // elastic oracle requires every slice to end
                        // after it starts.
                        let len = if option == PurchaseOption::Reserved {
                            len
                        } else {
                            len.max(1)
                        };
                        SegmentRecord {
                            start: SimTime::from_minutes(start),
                            end: SimTime::from_minutes(start.saturating_add_signed(len)),
                            option,
                            useful: true,
                            width,
                            work_milli: 0,
                        }
                    })
                    .collect();
                outcome
            })
            .collect();
        report
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The sweeps agree with the quadratic and `BTreeMap` oracles on
        /// random segment sets: same violations in the same order, with
        /// the same details, and the same check count.
        #[test]
        fn sweeps_match_the_oracles_on_random_segments(
            jobs in proptest::collection::vec(
                (
                    1u32..4,
                    proptest::collection::vec((0u64..16, -2i64..6, option_strategy(), 1u32..4), 0..6),
                ),
                1..8,
            ),
            reserved in 0u32..10,
            cap in 1u32..10,
        ) {
            let report = report_with(&jobs, reserved);
            let config = ClusterConfig::default().with_reserved(reserved);
            assert_sweeps_match_oracles(&report, &config, cap);
        }

        /// Forged option flips on a real engine run: any segment turned
        /// into another pool, checked against the oracles.
        #[test]
        fn sweeps_match_the_oracles_on_forged_option_flips(
            flips in proptest::collection::vec((0usize..3, 0usize..4, option_strategy()), 1..4),
            cap in 1u32..4,
        ) {
            let (mut report, config, _) = run_default();
            for &(job, seg, option) in &flips {
                let segments = &mut report.jobs[job].segments;
                let seg = seg % segments.len();
                segments[seg].option = option;
            }
            assert_sweeps_match_oracles(&report, &config, cap);
        }
    }

    #[test]
    fn reserved_end_at_an_on_demand_start_counts_as_busy() {
        // Job 0 holds both reserved CPUs over [0, 60]; job 1 starts
        // on-demand at 60, the instant job 0 releases. The closed-end
        // reading counts job 0 as still busy, so this is no violation,
        // while a start one minute later is.
        let seg = |start: u64, end: u64, option| SegmentRecord {
            start: SimTime::from_minutes(start),
            end: SimTime::from_minutes(end),
            option,
            useful: true,
            width: 1,
            work_milli: 0,
        };
        let (mut report, config, carbon) = run_default();
        report.jobs.truncate(2);
        report.jobs[0].job.cpus = 2;
        report.jobs[1].job.cpus = 1;
        report.jobs[0].segments = vec![seg(0, 60, PurchaseOption::Reserved)];
        report.jobs[1].segments = vec![seg(60, 90, PurchaseOption::OnDemand)];
        let (_, conservation, _) = sweep_verdicts(&report, &config, &carbon, 1);
        assert!(conservation.is_clean(), "{:?}", conservation.violations);
        assert_eq!(conservation, oracle_work_conservation(&report));

        report.jobs[1].segments = vec![seg(61, 90, PurchaseOption::OnDemand)];
        let (_, conservation, _) = sweep_verdicts(&report, &config, &carbon, 1);
        assert_eq!(conservation.violations.len(), 1);
        assert!(conservation.violations[0]
            .detail
            .contains("only 0/2 reserved CPUs were busy"));
        assert_eq!(conservation, oracle_work_conservation(&report));
    }
}
