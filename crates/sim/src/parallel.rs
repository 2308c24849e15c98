//! Parallel repetition of simulation runs across independent RNG streams,
//! with cross-repetition aggregate statistics.
//!
//! Experiments report means with confidence intervals where single runs
//! are noisy (schedule lengths have coupon-collector tails; stability
//! slopes fluctuate near thresholds). Repetitions use
//! [`dps_core::rng::split_stream`] streams, so repetition `k` is the same
//! regardless of how many repetitions run or on how many threads.
//!
//! [`parallel_map`] is the workspace's one parallel-execution primitive:
//! repetition runs ([`run_repetitions`]) and scenario sweeps build on
//! it.

use crate::runner::{run_simulation, SimulationConfig, SimulationReport};
use crate::stability::{classify_stability, StabilityVerdict};
use crate::stats::Summary;
use dps_core::feasibility::Feasibility;
use dps_core::injection::Injector;
use dps_core::protocol::Protocol;

/// The backlog-slope threshold (as a fraction of the injection rate) the
/// aggregate's per-repetition stability classifications use.
const STABILITY_THRESHOLD: f64 = 0.05;

/// Aggregate statistics over repetitions of the same configuration.
#[derive(Clone, Debug)]
pub struct AggregateReport {
    /// Per-repetition reports, in stream order.
    pub reports: Vec<SimulationReport>,
    /// Per-repetition stability verdicts, index-aligned with `reports`
    /// (classified once at aggregation; the slope threshold is 5% of
    /// the injection rate).
    pub verdicts: Vec<StabilityVerdict>,
    /// Summary of mean backlogs.
    pub mean_backlog: Summary,
    /// Summary of mean latencies (over repetitions with deliveries).
    pub mean_latency: Summary,
    /// Summary of delivery ratios.
    pub delivery_ratio: Summary,
    /// How many repetitions were classified stable.
    pub stable_count: usize,
}

impl AggregateReport {
    /// Builds the aggregate from per-repetition reports.
    pub fn from_reports(reports: Vec<SimulationReport>) -> Self {
        let mean_backlog = Summary::of(
            &reports
                .iter()
                .map(SimulationReport::mean_backlog)
                .collect::<Vec<_>>(),
        );
        let mean_latency = Summary::of(
            &reports
                .iter()
                .map(|r| r.latency_summary().mean)
                .filter(|&l| l > 0.0)
                .collect::<Vec<_>>(),
        );
        let delivery_ratio = Summary::of(
            &reports
                .iter()
                .map(SimulationReport::delivery_ratio)
                .collect::<Vec<_>>(),
        );
        let verdicts: Vec<StabilityVerdict> = reports
            .iter()
            .map(|r| classify_stability(r, STABILITY_THRESHOLD))
            .collect();
        let stable_count = verdicts.iter().filter(|v| v.is_stable()).count();
        AggregateReport {
            reports,
            verdicts,
            mean_backlog,
            mean_latency,
            delivery_ratio,
            stable_count,
        }
    }

    /// The majority stability verdict across repetitions: Stable only if
    /// a *strict* majority of the (non-empty) repetition set is stable,
    /// with the median per-repetition backlog slope attached.
    ///
    /// An empty report set and a set whose repetitions are all
    /// inconclusive yield [`StabilityVerdict::Inconclusive`] — previously
    /// zero reports counted as Stable (`0·2 ≥ 0`), a 50/50 tie counted as
    /// stable, and the reported slopes were `0.0`/`NaN` placeholders.
    pub fn majority_verdict(&self) -> StabilityVerdict {
        if self.reports.is_empty() {
            return StabilityVerdict::Inconclusive;
        }
        let mut slopes: Vec<f64> = self.verdicts.iter().filter_map(|v| v.slope()).collect();
        if slopes.is_empty() {
            return StabilityVerdict::Inconclusive;
        }
        slopes.sort_by(|a, b| a.partial_cmp(b).expect("finite slopes"));
        let median = if slopes.len() % 2 == 1 {
            slopes[slopes.len() / 2]
        } else {
            0.5 * (slopes[slopes.len() / 2 - 1] + slopes[slopes.len() / 2])
        };
        if self.stable_count * 2 > self.reports.len() {
            StabilityVerdict::Stable { slope: median }
        } else {
            StabilityVerdict::Unstable { slope: median }
        }
    }
}

/// Maps `job` over `0..jobs` on up to `threads` OS threads, returning the
/// results in job order.
///
/// Work is handed out through an atomic counter in contiguous *chunks* —
/// each `fetch_add` claims a run of consecutive job indices, and a
/// chunk's results enter the result vector under one lock acquisition —
/// so the per-job dispatch cost (one contended atomic plus one mutex
/// round trip) is amortized away for the many-tiny-jobs workloads the
/// shared-substrate sweeps produce. The chunk size only affects *which
/// thread* computes a job, never *what* the job computes: results are a
/// pure function of the job index, making runs reproducible across
/// thread counts (and chunkings).
pub fn parallel_map<R, F>(jobs: usize, threads: usize, job: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(jobs);
    if threads == 1 {
        return (0..jobs).map(job).collect();
    }
    // Aim for several chunks per thread so stragglers still balance,
    // while long grids hand out whole runs of cells at a time.
    let chunk = jobs.div_ceil(threads * 8).max(1);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: std::sync::Mutex<Vec<(usize, R)>> =
        std::sync::Mutex::new(Vec::with_capacity(jobs));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let start = next.fetch_add(chunk, std::sync::atomic::Ordering::Relaxed);
                if start >= jobs {
                    break;
                }
                let end = (start + chunk).min(jobs);
                let mut batch: Vec<(usize, R)> = Vec::with_capacity(end - start);
                for index in start..end {
                    batch.push((index, job(index)));
                }
                results
                    .lock()
                    .expect("no panics while holding the lock")
                    .append(&mut batch);
            });
        }
    });
    let mut results = results.into_inner().expect("threads joined");
    results.sort_by_key(|(index, _)| *index);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Runs `reps` independent repetitions, spreading them over up to
/// `threads` OS threads. `make_protocol` and `make_injector` build a fresh
/// protocol/injector per repetition (they receive the stream index).
pub fn run_repetitions<P, I, FP, FI, F>(
    make_protocol: FP,
    make_injector: FI,
    phy: &F,
    base: SimulationConfig,
    reps: u64,
    threads: usize,
) -> AggregateReport
where
    P: Protocol,
    I: Injector,
    FP: Fn(u64) -> P + Sync,
    FI: Fn(u64) -> I + Sync,
    F: Feasibility + Sync,
{
    assert!(reps > 0, "need at least one repetition");
    let reports = parallel_map(reps as usize, threads, |rep| {
        let rep = rep as u64;
        let mut protocol = make_protocol(rep);
        let mut injector = make_injector(rep);
        run_simulation(&mut protocol, &mut injector, phy, base.with_stream(rep))
    });
    AggregateReport::from_reports(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_core::dynamic::{DynamicProtocol, FrameConfig};
    use dps_core::feasibility::PerLinkFeasibility;
    use dps_core::ids::LinkId;
    use dps_core::injection::batch::BatchStochasticInjector;
    use dps_core::injection::stochastic::uniform_generators;
    use dps_core::path::RoutePath;
    use dps_core::staticsched::greedy::GreedyPerLink;

    fn setup_pieces() -> (FrameConfig, PerLinkFeasibility) {
        let config = FrameConfig::tuned(&GreedyPerLink::new(), 3, 0.9).unwrap();
        (config, PerLinkFeasibility::new(3))
    }

    fn make_protocol(config: &FrameConfig) -> DynamicProtocol<GreedyPerLink> {
        DynamicProtocol::new(GreedyPerLink::new(), config.clone(), 3)
    }

    fn make_injector() -> BatchStochasticInjector {
        let routes: Vec<_> = (0..3u32)
            .map(|l| RoutePath::single_hop(LinkId(l)).shared())
            .collect();
        BatchStochasticInjector::from(uniform_generators(routes, 0.4).unwrap())
    }

    #[test]
    fn parallel_map_is_order_preserving_and_complete() {
        // Job counts straddling chunk boundaries: exact multiples, a
        // remainder chunk, fewer jobs than threads, and a single job.
        for jobs in [1usize, 3, 7, 16, 23, 64, 97] {
            for threads in [1usize, 2, 3, 8] {
                let got = parallel_map(jobs, threads, |i| i * i);
                let want: Vec<usize> = (0..jobs).map(|i| i * i).collect();
                assert_eq!(got, want, "jobs={jobs} threads={threads}");
            }
        }
        assert!(parallel_map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn repetitions_match_sequential_runs() {
        let (config, phy) = setup_pieces();
        let base = SimulationConfig::new(10 * config.frame_len as u64, 5);
        let aggregate = run_repetitions(
            |_| make_protocol(&config),
            |_| make_injector(),
            &phy,
            base,
            4,
            2,
        );
        assert_eq!(aggregate.reports.len(), 4);
        // Stream 2 of the parallel run equals a sequential stream-2 run.
        let mut protocol = make_protocol(&config);
        let mut injector = make_injector();
        let sequential = run_simulation(&mut protocol, &mut injector, &phy, base.with_stream(2));
        assert_eq!(aggregate.reports[2].injected, sequential.injected);
        assert_eq!(aggregate.reports[2].delivered, sequential.delivered);
    }

    #[test]
    fn aggregate_statistics_cover_all_reps() {
        let (config, phy) = setup_pieces();
        let base = SimulationConfig::new(20 * config.frame_len as u64, 6);
        let aggregate = run_repetitions(
            |_| make_protocol(&config),
            |_| make_injector(),
            &phy,
            base,
            3,
            2,
        );
        assert_eq!(aggregate.mean_backlog.count, 3);
        assert_eq!(
            aggregate.stable_count, 3,
            "low load must be stable everywhere"
        );
        assert!(aggregate.majority_verdict().is_stable());
        assert!(aggregate.delivery_ratio.mean > 0.5);
    }

    fn synthetic_report(series: Vec<(u64, usize)>, injected: u64, slots: u64) -> SimulationReport {
        SimulationReport {
            injected,
            delivered: 0,
            backlog_series: series,
            final_backlog: 0,
            latencies: Vec::new(),
            path_lens: Vec::new(),
            potential: dps_core::potential::PotentialSeries::new(),
            attempts: 0,
            successes: 0,
            slots,
            idle_slots_skipped: 0,
        }
    }

    fn stable_report() -> SimulationReport {
        synthetic_report((0..32).map(|i| (i * 100, 10)).collect(), 3200, 3200)
    }

    fn unstable_report() -> SimulationReport {
        synthetic_report(
            (0..32).map(|i| (i * 100, (i * 50) as usize)).collect(),
            3200,
            3200,
        )
    }

    #[test]
    fn empty_report_set_is_inconclusive_not_stable() {
        let aggregate = AggregateReport::from_reports(Vec::new());
        assert_eq!(aggregate.majority_verdict(), StabilityVerdict::Inconclusive);
    }

    #[test]
    fn tie_is_not_a_majority() {
        let aggregate = AggregateReport::from_reports(vec![stable_report(), unstable_report()]);
        assert_eq!(aggregate.stable_count, 1);
        let verdict = aggregate.majority_verdict();
        assert!(!verdict.is_stable(), "50/50 tie must not count as stable");
        assert!(
            verdict.slope().unwrap().is_finite(),
            "median slope must be a real number, not a placeholder"
        );
    }

    #[test]
    fn majority_verdict_reports_median_slope() {
        let aggregate = AggregateReport::from_reports(vec![
            stable_report(),
            stable_report(),
            unstable_report(),
        ]);
        let verdict = aggregate.majority_verdict();
        assert!(verdict.is_stable());
        // Median of {~0, ~0, 0.5} is the flat repetitions' slope.
        let slope = verdict.slope().unwrap();
        assert!(slope.abs() < 1e-9, "median slope {slope} should be ~0");
    }

    #[test]
    fn all_inconclusive_repetitions_yield_inconclusive() {
        // Too few backlog samples for the classifier to fit a line.
        let short = synthetic_report(vec![(0, 1), (1, 2)], 10, 10);
        let aggregate = AggregateReport::from_reports(vec![short]);
        assert_eq!(aggregate.majority_verdict(), StabilityVerdict::Inconclusive);
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn rejects_zero_reps() {
        let (config, phy) = setup_pieces();
        let base = SimulationConfig::new(100, 7);
        let _ = run_repetitions(
            |_| make_protocol(&config),
            |_| make_injector(),
            &phy,
            base,
            0,
            1,
        );
    }
}
