//! The reference scenario every run workload replays, the benchmark-seed
//! to program-seed mapping, and the recorded output digests.
//!
//! The scenario mirrors `gaia run --scale year --jobs 100000 --policy
//! carbon-time --res-first --reserved 200 --seed <s>`: a year-long
//! Alibaba-PAI trace in SA-AU under RES-First Carbon-Time with 200
//! reserved CPUs. `cli.run_process_ms` runs that command line and its
//! `--details` digest must equal the in-process one, so the two stay in
//! step.

use gaia_carbon::synth::synthesize_region;
use gaia_carbon::{CarbonTrace, Region};
use gaia_core::catalog::{BasePolicyKind, PolicySpec};
use gaia_sim::{ClusterConfig, EvictionModel, InstanceOverheads, SimReport};
use gaia_time::Minutes;
use gaia_workload::synth::TraceFamily;
use gaia_workload::{QueueSet, WorkloadTrace};

/// Jobs in the year-long reference trace.
pub const JOBS: usize = 100_000;
/// Reserved CPUs in the reference cluster.
pub const RESERVED: u32 = 200;
/// Jobs per cell of the sweep grid.
pub const SWEEP_JOBS: usize = 20_000;

/// Program seeds are `BASE_SEED + seed % SEED_VARIANTS`: benchmark seed 0
/// is the ROADMAP's reference seed 42, and every variant has a recorded
/// digest in `digests.txt`.
pub const BASE_SEED: u64 = 42;
/// Number of distinct program inputs the benchmark seed selects from.
pub const SEED_VARIANTS: u64 = 16;
/// Benchmark seed kept out of tuning: a later speed claim must also hold
/// on it (program seed 53).
pub const HELD_OUT_SEED: u64 = 11;

/// Maps a benchmark `--seed` to the seed the program's inputs use.
pub fn program_seed(seed: u64) -> u64 {
    BASE_SEED + seed % SEED_VARIANTS
}

/// The synthesized inputs of one reference run.
pub struct Inputs {
    /// Hourly SA-AU carbon intensity for a year.
    pub carbon: CarbonTrace,
    /// The 100k-job year-long trace.
    pub workload: WorkloadTrace,
}

/// Carbon half of the inputs (`gaia_carbon::synth::synthesize_region`).
pub fn synth_carbon(program_seed: u64) -> CarbonTrace {
    synthesize_region(Region::SouthAustralia, program_seed)
}

/// Workload half of the inputs (`TraceFamily::year_long`).
pub fn synth_workload(program_seed: u64) -> WorkloadTrace {
    TraceFamily::AlibabaPai.year_long(JOBS, program_seed)
}

/// Both inputs, as `gaia run` loads them.
pub fn synth_inputs(program_seed: u64) -> Inputs {
    Inputs {
        carbon: synth_carbon(program_seed),
        workload: synth_workload(program_seed),
    }
}

/// The cluster `gaia run` builds for the reference command line.
pub fn config(workload: &WorkloadTrace, program_seed: u64) -> ClusterConfig {
    // Contract period: the workload span rounded up to whole days plus
    // two days of slack, as the CLI computes it.
    let span_days = workload
        .nominal_makespan()
        .as_minutes()
        .div_ceil(gaia_time::MINUTES_PER_DAY);
    ClusterConfig::default()
        .with_reserved(RESERVED)
        .with_eviction(EvictionModel::hourly(0.0))
        .with_seed(program_seed)
        .with_billing_horizon(Minutes::from_days(span_days + 2))
        .with_overheads(InstanceOverheads {
            startup: Minutes::new(0),
            teardown: Minutes::new(0),
        })
}

/// The queue set `gaia run` derives from the workload (6 h / 24 h waits).
pub fn queues(workload: &WorkloadTrace) -> QueueSet {
    QueueSet::paper_defaults()
        .with_waits(Minutes::from_hours(6), Minutes::from_hours(24))
        .with_averages_from(workload.jobs())
}

/// RES-First Carbon-Time.
pub fn policy() -> PolicySpec {
    PolicySpec {
        base: BasePolicyKind::CarbonTime,
        res_first: true,
        spot: None,
    }
}

/// The `gaia run` arguments of the reference scenario.
pub fn gaia_run_args(program_seed: u64) -> Vec<String> {
    let mut args: Vec<String> = [
        "run",
        "--scale",
        "year",
        "--jobs",
        "100000",
        "--policy",
        "carbon-time",
        "--res-first",
        "--reserved",
        "200",
        "--seed",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    args.push(program_seed.to_string());
    args
}

/// FNV-1a digest of the report's `write_details_csv` bytes.
pub fn details_digest(report: &SimReport) -> u64 {
    let mut bytes = Vec::with_capacity(report.jobs.len() * 96);
    gaia_sim::output::write_details_csv(&mut bytes, report)
        .expect("writing into a Vec cannot fail");
    gaia_sim::fnv1a(&bytes)
}

/// Which recorded digest a check compares against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigestKind {
    /// `details_digest` of the reference run.
    Run,
    /// FNV-1a of the sweep grid's `scenarios.csv`.
    Sweep,
}

impl DigestKind {
    fn token(self) -> &'static str {
        match self {
            DigestKind::Run => "run",
            DigestKind::Sweep => "sweep",
        }
    }
}

/// Digests recorded by `gaia-perfbench record`, one line per
/// `<kind> <program seed> <digest hex>`.
const RECORDED: &str = include_str!("../digests.txt");

/// The recorded digest for `kind` at `program_seed`, if any.
pub fn recorded_digest(kind: DigestKind, program_seed: u64) -> Option<u64> {
    parse_digests(RECORDED)
        .into_iter()
        .find(|(k, s, _)| *k == kind.token() && *s == program_seed)
        .map(|(_, _, d)| d)
}

fn parse_digests(text: &str) -> Vec<(&str, u64, u64)> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let kind = it.next()?;
            let seed = it.next()?.parse().ok()?;
            let digest = u64::from_str_radix(it.next()?, 16).ok()?;
            Some((kind, seed, digest))
        })
        .collect()
}

/// One digest-table line.
pub fn digest_line(kind: DigestKind, program_seed: u64, digest: u64) -> String {
    format!("{} {program_seed} {digest:016x}", kind.token())
}

/// Compares `actual` with the recorded digest; the error names both.
pub fn check_digest(kind: DigestKind, program_seed: u64, actual: u64) -> Result<(), String> {
    match recorded_digest(kind, program_seed) {
        Some(expected) if expected == actual => Ok(()),
        Some(expected) => Err(format!(
            "{} digest {actual:016x} differs from recorded {expected:016x} (program seed {program_seed})",
            kind.token()
        )),
        None => Err(format!(
            "no recorded {} digest for program seed {program_seed}",
            kind.token()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaia_sim::Simulation;

    #[test]
    fn seeds_map_into_the_recorded_range() {
        assert_eq!(program_seed(0), 42);
        assert_eq!(program_seed(HELD_OUT_SEED), 53);
        for seed in 0..100 {
            let p = program_seed(seed);
            assert!((BASE_SEED..BASE_SEED + SEED_VARIANTS).contains(&p));
            assert!(recorded_digest(DigestKind::Run, p).is_some());
            assert!(recorded_digest(DigestKind::Sweep, p).is_some());
        }
    }

    #[test]
    fn digest_lines_round_trip() {
        let line = digest_line(DigestKind::Sweep, 44, 0xdead_beef);
        assert_eq!(parse_digests(&line), vec![("sweep", 44, 0xdead_beef)]);
    }

    #[test]
    fn digest_check_fires_on_a_perturbed_report() {
        let carbon = synth_carbon(42);
        let workload = TraceFamily::AlibabaPai.week_long_1k(42);
        let mut scheduler = policy().build(queues(&workload));
        let report = Simulation::new(config(&workload, 42), &carbon)
            .runner(&workload, &mut scheduler)
            .execute()
            .expect("valid policy decisions")
            .into_report();
        let digest = details_digest(&report);
        let mut perturbed = report.clone();
        perturbed.jobs[0].carbon_g += 1.0;
        assert_ne!(details_digest(&perturbed), digest);
        let mut moved = report;
        moved.jobs[0].evictions += 1;
        assert_ne!(details_digest(&moved), digest);
        // The check itself fails loudly on the recorded table.
        let recorded = recorded_digest(DigestKind::Run, 42).expect("recorded");
        assert!(check_digest(DigestKind::Run, 42, recorded).is_ok());
        assert!(check_digest(DigestKind::Run, 42, recorded ^ 1).is_err());
        assert!(check_digest(DigestKind::Run, 9999, recorded).is_err());
    }
}
