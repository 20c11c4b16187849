//! Host pace: a fixed reference kernel timed between the benchmark's
//! operations, so that end-to-end times taken in different minutes can
//! be compared.
//!
//! The benchmark host is shared, and its speed drifts by up to 2× over
//! tens of seconds to minutes (NOTES.md, "Noise on this host"). A slow
//! phase can cover a whole run, so neither longer runs nor a low
//! percentile removes it. The benchmark therefore runs `kernel` before
//! every timed operation and after the last one. It reports each
//! operation's wall time multiplied by `NOMINAL_S / k`, where `k` is the
//! mean of the kernel times on either side of the operation: the time the
//! operation would have taken at the pace at which the kernel takes
//! `NOMINAL_S`.
//!
//! The kernel is a small discrete-event simulation owned by the
//! benchmark: a job table, an event heap, a scan over an hourly price
//! table, and one allocation per started job. It slows under the same
//! cache and memory contention as the simulator, which a pure arithmetic
//! loop does not. It never calls the program, so a change to the program
//! does not move it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's median time on the reference host (2 vCPUs), so that
/// times at reference pace read close to wall times there.
pub const NOMINAL_S: f64 = 0.017;

/// Jobs the kernel simulates.
const KERNEL_JOBS: u32 = 40_000;
/// CPUs of the kernel's cluster.
const KERNEL_CPUS: i64 = 200;
const HOURS: usize = 8760;

/// A seeded xorshift stream.
struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Clone, Copy)]
struct KernelJob {
    arrive: u64,
    len: u64,
    cpus: i64,
    cost: f64,
}

/// The reference kernel: first-come first-served jobs on a fixed
/// cluster, each started at the cheapest of the next 12 hours of an
/// hourly price table. Returns a checksum, which is always the same.
pub fn kernel() -> f64 {
    let mut rng = Xorshift(4242);
    let price: Vec<f64> = (0..HOURS)
        .map(|h| 100.0 + ((h * 37) % 500) as f64 + rng.below(50) as f64)
        .collect();
    let mut jobs: Vec<KernelJob> = (0..KERNEL_JOBS as u64)
        .map(|i| KernelJob {
            arrive: i * 13 + rng.below(13),
            len: 5 + rng.below(600),
            cpus: 1 + rng.below(8) as i64,
            cost: 0.0,
        })
        .collect();
    // Events are (minute, kind, job): kind 0 is an arrival, 1 a finish.
    let mut events: BinaryHeap<Reverse<(u64, u8, u32)>> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| Reverse((j.arrive, 0, i as u32)))
        .collect();
    let mut free = KERNEL_CPUS;
    let mut queue = VecDeque::new();
    let mut segments: Vec<Vec<(u64, u64)>> = vec![Vec::new(); jobs.len()];
    while let Some(Reverse((now, kind, id))) = events.pop() {
        if kind == 1 {
            free += jobs[id as usize].cpus;
        } else {
            queue.push_back(id);
        }
        while let Some(&next) = queue.front() {
            let job = &mut jobs[next as usize];
            if job.cpus > free {
                break;
            }
            queue.pop_front();
            let hour = (now / 60) as usize;
            let hours = job.len as usize / 60 + 1;
            job.cost = (0..12)
                .map(|d| {
                    (0..hours)
                        .map(|k| price[(hour + d + k) % HOURS])
                        .sum::<f64>()
                })
                .fold(f64::MAX, f64::min)
                * job.cpus as f64;
            free -= job.cpus;
            segments[next as usize].push((now, now + job.len));
            events.push(Reverse((now + job.len, 1, next)));
        }
    }
    let cost: f64 = jobs.iter().map(|j| j.cost).sum();
    black_box(cost + segments.iter().map(Vec::len).sum::<usize>() as f64)
}

/// One timed operation: its wall time and the kernel tick before it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    tick: usize,
    secs: f64,
}

impl Sample {
    /// The wall time, in seconds.
    pub fn secs(&self) -> f64 {
        self.secs
    }
}

/// The kernel times of one run, and the ticks operations refer to.
#[derive(Debug)]
pub struct Pace {
    ticks: Vec<f64>,
}

impl Pace {
    /// Starts a run with its first kernel tick.
    pub fn start() -> Pace {
        let mut pace = Pace { ticks: Vec::new() };
        pace.tick();
        pace
    }

    /// Times the kernel once, on the calling thread: a kernel on a thread
    /// of its own was woken on whichever CPU was idle, and so measured
    /// that CPU's speed, not the one the operations ran on.
    pub fn tick(&mut self) {
        let started = Instant::now();
        black_box(kernel());
        self.ticks.push(started.elapsed().as_secs_f64());
    }

    /// An operation that took `took` since the last tick. Several
    /// samples may share a tick; `tick` closes them.
    pub fn sample(&self, took: Duration) -> Sample {
        Sample {
            tick: self.ticks.len() - 1,
            secs: took.as_secs_f64(),
        }
    }

    /// `sample`, then a tick.
    pub fn record(&mut self, took: Duration) -> Sample {
        let sample = self.sample(took);
        self.tick();
        sample
    }

    /// Times `f` as one operation, then ticks.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Sample) {
        let started = Instant::now();
        let value = f();
        let sample = self.record(started.elapsed());
        (value, sample)
    }

    /// Each sample's seconds at reference pace.
    pub fn at_reference(&self, samples: &[Sample]) -> Vec<f64> {
        samples
            .iter()
            .map(|s| {
                let before = self.ticks[s.tick];
                let after = self.ticks.get(s.tick + 1).copied().unwrap_or(before);
                s.secs * NOMINAL_S * 2.0 / (before + after)
            })
            .collect()
    }

    /// Kernel ticks taken so far.
    pub fn ticks(&self) -> usize {
        self.ticks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn samples_scale_by_the_mean_of_their_bracketing_ticks() {
        let pace = Pace {
            ticks: vec![NOMINAL_S, 3.0 * NOMINAL_S, 2.0 * NOMINAL_S],
        };
        let samples = [
            Sample { tick: 0, secs: 0.2 },
            Sample { tick: 1, secs: 0.5 },
            Sample { tick: 2, secs: 0.4 },
        ];
        let scaled = pace.at_reference(&samples);
        let expected = [0.1, 0.2, 0.2];
        for (got, want) in scaled.iter().zip(expected) {
            assert!((got - want).abs() < 1e-12, "{got} != {want}");
        }
    }
}
