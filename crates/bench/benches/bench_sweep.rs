//! Sweep-engine benchmark: the substrate-sharing execution layer.
//!
//! A sweep's dominant workload is many cells over the same topology —
//! only λ and the repetition stream vary — so the engine builds each
//! distinct substrate once and shares it (`Arc`) across all cells and
//! worker threads. This bench drives 4 λ × 4 repetition grids on the
//! `sinr-dense` substrate scaled to m = 1024 twice per thread count —
//! through the sharing [`Sweep`] vs. a per-cell rebuild baseline (each
//! cell's own `Scenario::run_stream`, fanned over the same
//! `parallel_map` pool) — and writes the measured wall-clock and
//! speedup to `BENCH_sweep.json` at the workspace root (override the
//! path with `BENCH_SWEEP_OUT`). CI runs this in fast mode (smaller
//! instance, one measurement run) as a perf harness smoke test; the
//! checked-in file is the baseline, captured in full mode.
//!
//! Two grids split the story:
//!
//! * **`engine`** pairs the m = 1024 SINR topology with the short-frame
//!   greedy protocol, so cells are cheap and the per-cell `O(m²)`
//!   substrate construction (SINR matrix + shared gain table) is the
//!   bulk of every rebuilt cell — the cost the sharing layer removes.
//! * **`two-stage`** runs the preset's real two-stage decay protocol,
//!   whose per-cell frame simulation puts a floor under both modes —
//!   the end-to-end benefit on the full protocol stack.
//!
//! Injection rates sit well below capacity (the bench probes engine
//! overhead, not protocol stability). Decision streams are bit-for-bit
//! identical either way (pinned by the golden integration test).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dps_scenario::{registry, ProtocolConfig, Scenario, ScenarioSpec, Sweep};
use dps_sim::parallel::parallel_map;
use std::time::{Duration, Instant};

const LAMBDAS: [f64; 4] = [0.05, 0.1, 0.15, 0.2];
const REPS: u64 = 4;

/// The benched grids as `(name, spec)`: the `sinr-dense` substrate
/// scaled to `m`, under the engine-isolating greedy protocol and the
/// preset's own two-stage decay protocol.
fn grids(m: usize) -> Vec<(&'static str, ScenarioSpec)> {
    let mut base = registry::spec_for("sinr-dense")
        .expect("preset exists")
        .with_size(m);
    // One frame per cell: the engine's per-cell overhead — substrate
    // construction, dispatch — is the object under test, not the
    // steady-state slot loop (bench_sinr measures that).
    base.run.frames = 1;
    let two_stage = base.clone();
    let mut engine = base;
    engine.protocol = ProtocolConfig::FrameGreedy;
    vec![("engine", engine), ("two-stage", two_stage)]
}

/// Runs the grid once and returns its cell count: through the sharing
/// [`Sweep`] when `shared`, otherwise with every cell rebuilding its
/// topology in its own `Scenario::run_stream`.
fn run_sweep(spec: &ScenarioSpec, shared: bool, threads: usize) -> usize {
    let sweep = Sweep::new(spec.clone())
        .over_lambdas(&LAMBDAS)
        .repetitions(REPS)
        .threads(threads);
    if shared {
        return sweep.run().expect("sweep runs").cells.len();
    }
    let points = sweep.points();
    parallel_map(points.len(), threads, |i| {
        let point = points[i];
        Scenario::from_spec(&spec.clone().with_lambda(point.lambda))
            .expect("cell spec builds")
            .run_stream(point.rep)
            .expect("cell runs")
    })
    .len()
}

/// Median wall-clock of `runs` sweep executions.
fn measure_sweep(spec: &ScenarioSpec, shared: bool, threads: usize, runs: usize) -> Duration {
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = Instant::now();
        let cells = run_sweep(spec, shared, threads);
        samples.push(start.elapsed());
        assert_eq!(cells, LAMBDAS.len() * REPS as usize);
    }
    samples.sort();
    samples[samples.len() / 2]
}

fn bench_sweep_engine(c: &mut Criterion) {
    // Fast mode (CI) shrinks the instance and the number of paired
    // measurement runs so the smoke step stays quick.
    let fast_mode = std::env::var("CRITERION_MEASUREMENT_MS").is_ok();
    let (m, runs) = if fast_mode { (256, 1) } else { (1024, 3) };
    let grids = grids(m);

    let mut group = c.benchmark_group("sweep_engine");
    group.sample_size(10);
    let engine_spec = &grids[0].1;
    for shared in [true, false] {
        let label = if shared { "shared" } else { "rebuilt" };
        group.bench_with_input(BenchmarkId::new(label, m), &shared, |b, &shared| {
            b.iter(|| run_sweep(engine_spec, shared, 1))
        });
    }
    group.finish();

    // Paired measurement for the JSON baseline: 1, 2 and all-cores
    // thread counts, shared vs rebuilt each, per grid.
    let n = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut thread_counts = vec![1usize, 2, n];
    thread_counts.sort_unstable();
    thread_counts.dedup();
    let mut cells = Vec::new();
    for (name, spec) in &grids {
        for &threads in &thread_counts {
            let shared = measure_sweep(spec, true, threads, runs);
            let rebuilt = measure_sweep(spec, false, threads, runs);
            let speedup = rebuilt.as_secs_f64() / shared.as_secs_f64();
            println!(
                "sweep_engine/substrate_sharing/{name}/threads={threads}: {speedup:.2}x \
                 (shared {:.3}s, rebuilt {:.3}s, {} cells)",
                shared.as_secs_f64(),
                rebuilt.as_secs_f64(),
                LAMBDAS.len() * REPS as usize,
            );
            cells.push(format!(
                "    {{\n      \"grid\": \"{name}\",\n      \"m\": {m},\n      \
                 \"threads\": {threads},\n      \"cells\": {},\n      \
                 \"shared_secs\": {:.4},\n      \"rebuilt_secs\": {:.4},\n      \
                 \"speedup\": {:.2}\n    }}",
                LAMBDAS.len() * REPS as usize,
                shared.as_secs_f64(),
                rebuilt.as_secs_f64(),
                speedup
            ));
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"bench_sweep\",\n  \"metric\": \"sinr-dense-substrate sweep \
         wall-clock (4 lambdas x 4 repetitions, 1 frame per cell), shared substrates vs \
         per-cell rebuild; `engine` = short-frame greedy cells isolating per-cell construction, \
         `two-stage` = the preset's full protocol stack\",\n  \"cells\": [\n{}\n  ]\n}}\n",
        cells.join(",\n")
    );
    let path = std::env::var("BENCH_SWEEP_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json").to_string()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("sweep_engine: baseline written to {path}"),
        Err(e) => eprintln!("sweep_engine: could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_sweep_engine);
criterion_main!(benches);
