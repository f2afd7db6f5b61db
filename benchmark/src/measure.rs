//! From timed jobs to the end-to-end timing metrics.
//!
//! On a shared machine interference only ever adds time, and it comes
//! in stretches from milliseconds to seconds. Every workload repeats
//! the same *kinds* of job — a (kernel, machine, scheme) triple, a pool
//! entry, an error class — many times over, so each metric is taken
//! from the quietest the machine has been:
//!
//! * `job_p50_us` and `job_p90_us` are percentiles over the workload's
//!   kinds of job, each kind at the fastest of its executions
//!   ([`Fastest`]);
//! * an offline workload is one thread running one job at a time, so
//!   its `jobs_per_s` and `cpu_us_per_job` come from the same
//!   executions: the round in which every job ran as fast as it ever
//!   did;
//! * a service workload has jobs in flight on two connections, so its
//!   `jobs_per_s` and `cpu_us_per_job` come from the clock: the phase
//!   is cut into short passes and the quietest is the one that served
//!   the most jobs per second.
//!
//! How far apart the passes (rounds or clock windows) were is reported
//! as `harness.pass_spread`. Nothing here grows with the number of jobs
//! measured: `peak_rss_mb` is the system's memory, not the harness's.

use crate::os::peak_rss_mb;
use crate::stats::{median, percentile, range_share};

/// One pass of a measured phase: a round of an offline workload, a
/// clock window of a service workload.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Pass {
    /// Jobs completed.
    pub jobs: u64,
    /// What `jobs_per_s` divides by: Σ job time for a single-threaded
    /// offline workload, the pass's wall time for a service workload.
    pub busy_s: f64,
    /// Process CPU seconds spent during the pass.
    pub cpu_s: f64,
}

impl Pass {
    /// Jobs per second; 0 for an empty pass.
    pub fn jobs_per_s(&self) -> f64 {
        if self.busy_s > 0.0 {
            self.jobs as f64 / self.busy_s
        } else {
            0.0
        }
    }

    /// Process CPU µs per job; 0 for an empty pass.
    pub fn cpu_us_per_job(&self) -> f64 {
        if self.jobs > 0 {
            self.cpu_s * 1e6 / self.jobs as f64
        } else {
            0.0
        }
    }
}

/// The fastest execution of each kind of job.
#[derive(Debug, Clone)]
pub struct Fastest(Vec<Option<(u64, u64)>>);

impl Fastest {
    /// No execution seen yet of any of `kinds` kinds.
    pub fn new(kinds: usize) -> Fastest {
        Fastest(vec![None; kinds])
    }

    /// Records an execution of `kind`: wall and CPU nanoseconds, kept
    /// together when the wall time is the kind's lowest so far.
    pub fn record(&mut self, kind: usize, wall_ns: u64, cpu_ns: u64) {
        match &mut self.0[kind] {
            Some((wall, _)) if *wall <= wall_ns => {}
            slot => *slot = Some((wall_ns, cpu_ns)),
        }
    }

    /// Takes over every kind `other` has seen faster.
    pub fn merge(&mut self, other: &Fastest) {
        for (kind, run) in other.0.iter().enumerate() {
            if let Some((wall, cpu)) = *run {
                self.record(kind, wall, cpu);
            }
        }
    }

    /// Kinds seen so far.
    pub fn kinds(&self) -> usize {
        self.0.iter().flatten().count()
    }

    /// `(p50, p90)` over the kinds' fastest wall times, µs.
    pub fn percentiles_us(&self) -> (f64, f64) {
        let mut walls: Vec<u64> = self.0.iter().flatten().map(|run| run.0).collect();
        walls.sort_unstable();
        (
            percentile(&walls, 50.0) as f64 / 1e3,
            percentile(&walls, 90.0) as f64 / 1e3,
        )
    }

    /// The round in which every job ran as fast as it ever did.
    pub fn quietest_round(&self) -> Pass {
        let runs = || self.0.iter().flatten();
        Pass {
            jobs: self.kinds() as u64,
            busy_s: runs().map(|run| run.0).sum::<u64>() as f64 / 1e9,
            cpu_s: runs().map(|run| run.1).sum::<u64>() as f64 / 1e9,
        }
    }
}

/// Sub-buckets per power of two in [`Latencies`].
const SUB_BUCKETS: u64 = 16;

/// Every job time of a phase in constant memory: count, sum, maximum
/// and a histogram with [`SUB_BUCKETS`] buckets per power of two, which
/// places a percentile within 1/16 of its value.
#[derive(Debug, Clone)]
pub struct Latencies {
    count: u64,
    sum_ns: u64,
    max_ns: u64,
    buckets: Vec<u32>,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            buckets: vec![0; (SUB_BUCKETS * 61) as usize],
        }
    }
}

impl Latencies {
    fn bucket(ns: u64) -> usize {
        if ns < SUB_BUCKETS {
            return ns as usize;
        }
        // `octave` ≥ 4; the four bits below the leading one choose the
        // sub-bucket.
        let octave = u64::from(63 - ns.leading_zeros());
        let sub = (ns >> (octave - 4)) - SUB_BUCKETS;
        ((octave - 3) * SUB_BUCKETS + sub) as usize
    }

    /// Upper edge of bucket `index`, nanoseconds.
    fn upper_edge(index: usize) -> u64 {
        let index = index as u64;
        if index < SUB_BUCKETS {
            return index + 1;
        }
        let octave = index / SUB_BUCKETS + 3;
        let sub = index % SUB_BUCKETS;
        (SUB_BUCKETS + sub + 1) << (octave - 4)
    }

    /// Adds one job time.
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
        self.buckets[Latencies::bucket(ns)] += 1;
    }

    /// Adds every job time of `other`.
    pub fn merge(&mut self, other: &Latencies) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Job times recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean job time, µs; 0 when empty.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Slowest job, µs.
    pub fn max_us(&self) -> f64 {
        self.max_ns as f64 / 1e3
    }

    /// The `p`-th percentile (nearest rank), µs: the upper edge of the
    /// bucket that holds it, capped by the maximum.
    pub fn percentile_us(&self, p: f64) -> f64 {
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count.max(1));
        let mut seen = 0;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += u64::from(n);
            if seen >= rank {
                return Latencies::upper_edge(index).min(self.max_ns) as f64 / 1e3;
            }
        }
        self.max_us()
    }
}

/// A measured phase reduced to what is reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Kinds of job measured.
    pub kinds: usize,
    /// Median over kinds of the fastest job time, µs.
    pub job_p50_us: f64,
    /// 90th percentile over kinds of the fastest job time, µs.
    pub job_p90_us: f64,
    /// Jobs per second of the quietest pass.
    pub jobs_per_s: f64,
    /// Process CPU µs per job of the quietest pass.
    pub cpu_us_per_job: f64,
    /// Passes measured.
    pub passes: usize,
    /// `(max - min) / median` of the passes' `jobs_per_s`.
    pub pass_spread: f64,
    /// Jobs over all passes.
    pub jobs: u64,
    /// Mean job time over all passes, µs (the base of
    /// `trace.overhead_share`).
    pub mean_job_us: f64,
    /// 99th percentile over all jobs, µs.
    pub job_p99_us: f64,
    /// Slowest job, µs.
    pub job_max_us: f64,
}

impl Summary {
    fn new(fastest: &Fastest, quietest: Pass, passes: &[Pass], all: &Latencies) -> Summary {
        let (job_p50_us, job_p90_us) = fastest.percentiles_us();
        let rates: Vec<f64> = passes
            .iter()
            .filter(|p| p.jobs > 0)
            .map(Pass::jobs_per_s)
            .collect();
        Summary {
            kinds: fastest.kinds(),
            job_p50_us,
            job_p90_us,
            jobs_per_s: quietest.jobs_per_s(),
            cpu_us_per_job: quietest.cpu_us_per_job(),
            passes: rates.len(),
            pass_spread: range_share(&rates),
            jobs: all.count(),
            mean_job_us: all.mean_us(),
            job_p99_us: all.percentile_us(99.0),
            job_max_us: all.max_us(),
        }
    }

    /// An offline workload's phase: `rounds` are its passes, and the
    /// quietest pass is the round put together from each job's fastest
    /// execution.
    pub fn offline(fastest: &Fastest, rounds: &[Pass], all: &Latencies) -> Summary {
        Summary::new(fastest, fastest.quietest_round(), rounds, all)
    }

    /// A service workload's phase: `windows` are its passes, cut by the
    /// clock, and the quietest is the one with the highest
    /// `jobs_per_s`.
    pub fn service(fastest: &Fastest, windows: &[Pass], all: &Latencies) -> Summary {
        let quietest = windows
            .iter()
            .copied()
            .max_by(|a, b| a.jobs_per_s().total_cmp(&b.jobs_per_s()))
            .unwrap_or_default();
        Summary::new(fastest, quietest, windows, all)
    }

    /// The end-to-end metrics in table order: this phase's timing, the
    /// median of the set-up runs, the process's peak memory as of now,
    /// and the workload's simulated speed-up.
    pub fn end_to_end(&self, setup_s: &[f64], sim_speedup: f64) -> Vec<(&'static str, f64)> {
        vec![
            ("setup_s", median(setup_s)),
            ("job_p50_us", self.job_p50_us),
            ("job_p90_us", self.job_p90_us),
            ("jobs_per_s", self.jobs_per_s),
            ("cpu_us_per_job", self.cpu_us_per_job),
            ("peak_rss_mb", peak_rss_mb()),
            ("sim_speedup_geomean", sim_speedup),
        ]
    }

    /// What the phase looked like, in one printed line.
    pub fn describe(&self) -> String {
        format!(
            "{} jobs of {} kinds in {} passes: mean {:.1} us, p99 {:.1} us, max {:.1} us, \
             pass spread {:.1} %",
            self.jobs,
            self.kinds,
            self.passes,
            self.mean_job_us,
            self.job_p99_us,
            self.job_max_us,
            self.pass_spread * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quietest_round_takes_each_jobs_fastest_execution() {
        let mut fastest = Fastest::new(3);
        let mut all = Latencies::default();
        let mut rounds = Vec::new();
        // Round 1: job 1 disturbed. Round 2: job 0 disturbed.
        for round in [
            [(0, 100, 90), (1, 900, 500), (2, 300, 290)],
            [(0, 700, 95), (1, 200, 190), (2, 300, 280)],
        ] {
            let mut pass = Pass::default();
            for (job, wall_us, cpu_us) in round {
                fastest.record(job, wall_us * 1000, cpu_us * 1000);
                all.record(wall_us * 1000);
                pass.jobs += 1;
                pass.busy_s += wall_us as f64 / 1e6;
                pass.cpu_s += cpu_us as f64 / 1e6;
            }
            rounds.push(pass);
        }
        let s = Summary::offline(&fastest, &rounds, &all);
        assert_eq!(s.kinds, 3);
        assert_eq!(s.job_p50_us, 200.0);
        assert_eq!(s.job_p90_us, 300.0);
        assert!((s.jobs_per_s - 3.0 / 600e-6).abs() < 1e-6);
        // CPU of the executions kept, not the lowest CPU seen: a tie in
        // wall time keeps the first.
        assert!((s.cpu_us_per_job - (90.0 + 190.0 + 290.0) / 3.0).abs() < 1e-9);
        assert_eq!(s.passes, 2);
        assert_eq!(s.jobs, 6);
        assert_eq!(s.job_max_us, 900.0);
        assert!((s.mean_job_us - 2500.0 / 6.0).abs() < 1e-9);
        // Rounds of 1300 µs and 1200 µs: rates 3/1300 and 3/1200 per µs.
        let (slow, fast) = (3.0 / 1300.0, 3.0 / 1200.0);
        assert!((s.pass_spread - (fast - slow) / ((fast + slow) / 2.0)).abs() < 1e-9);
    }

    #[test]
    fn service_takes_throughput_and_cpu_from_the_quietest_window() {
        let mut fastest = Fastest::new(4);
        fastest.record(0, 80_000, 0);
        fastest.record(1, 95_000, 0);
        let mut other = Fastest::new(4);
        other.record(1, 90_000, 0);
        other.record(3, 70_000, 0);
        fastest.merge(&other);
        let windows = [
            Pass {
                jobs: 800,
                busy_s: 0.1,
                cpu_s: 0.1,
            },
            Pass {
                jobs: 1000,
                busy_s: 0.1,
                cpu_s: 0.09,
            },
            Pass::default(),
        ];
        let s = Summary::service(&fastest, &windows, &Latencies::default());
        assert_eq!(s.kinds, 3);
        assert_eq!((s.job_p50_us, s.job_p90_us), (80.0, 90.0));
        assert!((s.jobs_per_s - 10_000.0).abs() < 1e-9);
        assert!((s.cpu_us_per_job - 90.0).abs() < 1e-9);
        assert_eq!(s.passes, 2);
        assert!((s.pass_spread - 2000.0 / 9000.0).abs() < 1e-12);
    }

    #[test]
    fn latencies_keep_mean_and_maximum_exactly_and_percentiles_within_a_sixteenth() {
        let mut all = Latencies::default();
        assert_eq!(all.mean_us(), 0.0);
        for us in 1..=10_000u64 {
            all.record(us * 1000);
        }
        assert_eq!(all.count(), 10_000);
        assert!((all.mean_us() - 5000.5).abs() < 1e-9);
        assert_eq!(all.max_us(), 10_000.0);
        for p in [50.0, 90.0, 99.0] {
            let exact = p / 100.0 * 10_000.0;
            let got = all.percentile_us(p);
            assert!(
                got >= exact && got <= exact * (1.0 + 1.0 / 16.0) + 1.0,
                "p{p}: {got}"
            );
        }
        assert_eq!(all.percentile_us(100.0), 10_000.0);
        let mut small = Latencies::default();
        small.record(3);
        small.record(5);
        small.merge(&all);
        assert_eq!(small.count(), 10_002);
        // Bucket edges agree with bucket choice.
        for ns in [1u64, 15, 16, 17, 31, 32, 1000, 123_456_789, u64::MAX / 2] {
            let b = Latencies::bucket(ns);
            assert!(Latencies::upper_edge(b) > ns, "{ns}");
            assert!(b == 0 || Latencies::upper_edge(b - 1) <= ns, "{ns}");
        }
    }
}
