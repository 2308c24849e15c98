//! Injection-engine benchmark: slot throughput of the batch engine
//! (`BatchStochasticInjector`: skip-ahead calendar / counting batch),
//! the one sampler of the stochastic model.
//!
//! PR 3 measured that two-stage sweep cells over the m = 1024 SINR
//! substrate were floor-limited by a naive per-generator sampler: ~15 µs
//! per *idle* slot spent walking all `m` Bernoulli generators. The batch
//! engine samples each generator's next injecting slot directly
//! (`⌊ln u / ln(1−p)⌋`) and keys it in a min-heap calendar — idle slots
//! cost a heap peek — or, for the dense symmetric workload, draws the
//! slot's Binomial(m, p) count and a Floyd sample of the injecting
//! generators. The speed-ups over the naive sampler are recorded in
//! CHANGES.md and the README; the naive sampler lives in `dps-core`'s
//! tests, as the engine's distributional referee.
//!
//! Three measurements, written to `BENCH_inject.json` at the workspace
//! root (override with `BENCH_INJECT_OUT`):
//!
//! * **idle-sparse** — m generators at a total of 0.1 expected packets
//!   per slot (the idle-slot floor): slots/s on the calendar.
//! * **dense** — the symmetric workload at p = 0.25 (m/4 packets per
//!   slot): slots/s on the counting batch.
//! * **two-stage-cell** — end-to-end `sinr-dense` two-stage sweep cells
//!   (the PR 3 bench_sweep grid: 4 λ × 4 repetitions, 1 frame per cell,
//!   shared substrate): wall-clock.
//!
//! CI runs this in fast mode (smaller m, one measurement run) as a perf
//! harness smoke test; the checked-in file is the PR's baseline,
//! captured in full mode.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dps_core::injection::batch::BatchStochasticInjector;
use dps_core::injection::stochastic::uniform_generators;
use dps_core::injection::Injector;
use dps_core::path::RoutePath;
use dps_core::prelude::LinkId;
use dps_core::rng::split_stream;
use dps_scenario::{registry, Scenario};
use std::sync::Arc;
use std::time::{Duration, Instant};

const LAMBDAS: [f64; 4] = [0.05, 0.1, 0.15, 0.2];
const REPS: u64 = 4;

fn routes(m: usize) -> Vec<Arc<RoutePath>> {
    (0..m as u32)
        .map(|l| RoutePath::single_hop(LinkId(l)).shared())
        .collect()
}

/// Drives `injector` for `slots` slots and returns the wall-clock plus
/// the number of packets emitted (keeps the loop honest under `-O`).
fn drive(injector: &mut dyn Injector, slots: u64, seed: u64) -> (Duration, u64) {
    let mut rng = split_stream(seed, 0);
    let mut buf = Vec::new();
    let mut emitted = 0u64;
    let start = Instant::now();
    for slot in 0..slots {
        injector.inject_into(slot, &mut rng, &mut buf);
        emitted += buf.len() as u64;
    }
    (start.elapsed(), emitted)
}

/// Median slots/s over `runs` drives.
fn measure_slots_per_sec(
    make: &dyn Fn() -> Box<dyn Injector>,
    slots: u64,
    runs: usize,
) -> (f64, u64) {
    let mut samples = Vec::with_capacity(runs);
    let mut emitted = 0;
    for run in 0..runs {
        let mut injector = make();
        let (elapsed, count) = drive(&mut *injector, slots, 1000 + run as u64);
        samples.push(elapsed);
        emitted = count;
    }
    samples.sort();
    let median = samples[samples.len() / 2];
    (slots as f64 / median.as_secs_f64(), emitted)
}

/// One `(name, per-generator p)` micro case over `m` generators.
fn micro_cases(m: usize) -> Vec<(&'static str, f64)> {
    vec![
        // 0.1 expected packets/slot across all m generators: ~90% of
        // slots idle — the floor PR 3 measured.
        ("idle-sparse", 0.1 / m as f64),
        // The dense symmetric workload: m/4 packets per slot.
        ("dense", 0.25),
    ]
}

/// Runs the 4λ × 4 repetition two-stage grid on one shared substrate
/// and returns the median wall-clock over `runs`.
fn measure_two_stage(m: usize, runs: usize) -> Duration {
    let mut base = registry::spec_for("sinr-dense")
        .expect("preset exists")
        .with_size(m);
    base.run.frames = 1;
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let substrate = Scenario::from_spec(&base)
            .expect("valid spec")
            .build_substrate()
            .expect("substrate builds");
        let start = Instant::now();
        let mut cells = 0usize;
        for &lambda in &LAMBDAS {
            let scenario =
                Scenario::from_spec(&base.clone().with_lambda(lambda)).expect("valid spec");
            for rep in 0..REPS {
                let outcome = scenario.run_stream_on(&substrate, rep).expect("cell runs");
                assert!(outcome.report.slots > 0);
                cells += 1;
            }
        }
        assert_eq!(cells, LAMBDAS.len() * REPS as usize);
        samples.push(start.elapsed());
    }
    samples.sort();
    samples[samples.len() / 2]
}

fn bench_injection_engine(c: &mut Criterion) {
    // Fast mode (CI) shrinks the instance and the measurement budget so
    // the smoke step stays quick.
    let fast_mode = std::env::var("CRITERION_MEASUREMENT_MS").is_ok();
    let (m, slots, runs) = if fast_mode {
        (256usize, 20_000u64, 1usize)
    } else {
        (1024, 200_000, 3)
    };

    let mut group = c.benchmark_group("injection_engine");
    group.sample_size(10);
    for (name, p) in micro_cases(m) {
        group.bench_with_input(BenchmarkId::new(format!("batch/{name}"), m), &p, |b, &p| {
            let mut injector =
                BatchStochasticInjector::from(uniform_generators(routes(m), p).unwrap());
            let mut rng = split_stream(3, 0);
            let mut buf = Vec::new();
            let mut slot = 0u64;
            b.iter(|| {
                injector.inject_into(slot, &mut rng, &mut buf);
                slot += 1;
                buf.len()
            })
        });
    }
    group.finish();

    // Median measurement for the JSON baseline.
    let mut cells = Vec::new();
    for (name, p) in micro_cases(m) {
        let routes = routes(m);
        let make = move || -> Box<dyn Injector> {
            Box::new(BatchStochasticInjector::from(
                uniform_generators(routes.clone(), p).unwrap(),
            ))
        };
        let (rate, emitted) = measure_slots_per_sec(&make, slots, runs);
        println!("injection_engine/{name}/m={m}: {rate:.3e} slots/s [{emitted} pkts]");
        cells.push(format!(
            "    {{\n      \"case\": \"{name}\",\n      \"m\": {m},\n      \
             \"expected_per_slot\": {:.4},\n      \"slots\": {slots},\n      \
             \"batch_slots_per_sec\": {rate:.1}\n    }}",
            p * m as f64,
        ));
    }

    let cell = measure_two_stage(m, runs);
    println!(
        "injection_engine/two-stage-cell/m={m}: {:.3}s for {} cells",
        cell.as_secs_f64(),
        LAMBDAS.len() * REPS as usize,
    );
    cells.push(format!(
        "    {{\n      \"case\": \"two-stage-cell\",\n      \"m\": {m},\n      \
         \"cells\": {},\n      \"batch_secs\": {:.4}\n    }}",
        LAMBDAS.len() * REPS as usize,
        cell.as_secs_f64(),
    ));

    let json = format!(
        "{{\n  \"bench\": \"bench_inject\",\n  \"metric\": \"batch injection engine (skip-ahead \
         calendar / counting batch): slots/s for `idle-sparse` = 0.1 expected packets/slot over \
         m generators and `dense` = p=0.25 symmetric workload; wall-clock seconds for \
         `two-stage-cell` = end-to-end sinr-dense two-stage sweep cells (4 lambdas x 4 \
         repetitions, 1 frame per cell, shared substrate)\",\n  \"cells\": [\n{}\n  ]\n}}\n",
        cells.join(",\n")
    );
    let path = std::env::var("BENCH_INJECT_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_inject.json").to_string()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("injection_engine: baseline written to {path}"),
        Err(e) => eprintln!("injection_engine: could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_injection_engine);
criterion_main!(benches);
