//! The workspace's one parallel-execution primitive: an order-preserving
//! chunked thread-pool map.
//!
//! [`parallel_map`] lives in `dps-core` so that both the simulation
//! layer (repetition fans, scenario sweeps) and the substrate layer
//! (the tiled SINR slot kernel, which splits a slot's receivers over
//! threads) can share it without a dependency cycle; `dps_sim::parallel`
//! re-exports it under its historical path.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
