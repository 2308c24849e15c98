//! E6 benchmark: SINR kernels — affectance matrix construction, exact
//! feasibility checking — plus the cached-vs-naive slot-throughput
//! baseline of the fast-path engine.
//!
//! The second half drives the exact oracle for one slot of `m/4`
//! simultaneous attempts at `m ∈ {64, 256, 1024}`, once through the
//! cached fast path (`SinrFeasibility::successes`: precomputed
//! signals/margins + gain table, `O(k²)`) and once through the naive
//! referee (`successes_naive` from `crates/sinr/tests/support/referee.rs`:
//! recomputed geometry, `O(k·m)` with `sqrt`/`powf`), and writes the
//! measured slot throughput
//! and speedup to `BENCH_sinr.json` at the workspace root (override the
//! path with `BENCH_SINR_OUT`). CI runs this in fast mode as a perf
//! harness smoke test; the checked-in file is the PR's baseline.

#[path = "../../sinr/tests/support/referee.rs"]
mod referee;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dps_core::feasibility::{Attempt, Feasibility};
use dps_core::ids::{LinkId, PacketId};
use dps_core::rng::split_stream;
use dps_sinr::feasibility::SinrFeasibility;
use dps_sinr::instances::random_instance;
use dps_sinr::matrix::SinrInterference;
use dps_sinr::network::SinrNetwork;
use dps_sinr::params::SinrParams;
use dps_sinr::power::LinearPower;
use referee::successes_naive;
use std::time::{Duration, Instant};

const THROUGHPUT_SIZES: [usize; 3] = [64, 256, 1024];

fn instance(m: usize) -> SinrNetwork {
    let mut rng = split_stream(9, m as u64);
    random_instance(
        m,
        20.0 * (m as f64).sqrt(),
        1.0,
        3.0,
        SinrParams::default_noiseless(),
        &mut rng,
    )
}

fn slot_attempts(m: usize) -> Vec<Attempt> {
    (0..m as u32)
        .step_by(4)
        .map(|l| Attempt {
            link: LinkId(l),
            packet: PacketId(l as u64),
        })
        .collect()
}

fn bench_sinr_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_sinr_kernels");
    group.sample_size(20);
    for &m in &[32usize, 128] {
        let net = instance(m);
        let power = LinearPower::new(net.params().alpha);
        group.bench_with_input(BenchmarkId::new("matrix_build", m), &m, |b, _| {
            b.iter(|| SinrInterference::fixed_power(&net, &power))
        });
        let oracle = SinrFeasibility::new(&net, &power);
        let attempts = slot_attempts(m);
        group.bench_with_input(BenchmarkId::new("feasibility_slot", m), &m, |b, _| {
            b.iter(|| {
                let mut rng = split_stream(10, m as u64);
                oracle.successes(&attempts, &mut rng)
            })
        });
    }
    group.finish();
}

/// Median per-slot wall time over batches filling `budget`.
fn measure_slot<F: FnMut()>(mut slot: F, budget: Duration) -> Duration {
    // Calibrate a batch of ≥ ~200 µs.
    let mut batch = 1u32;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            slot();
        }
        if start.elapsed() >= Duration::from_micros(200) || batch >= 1 << 20 {
            break;
        }
        batch *= 4;
    }
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || samples.len() < 3 {
        let t = Instant::now();
        for _ in 0..batch {
            slot();
        }
        samples.push(t.elapsed() / batch);
        if samples.len() >= 100 {
            break;
        }
    }
    samples.sort();
    samples[samples.len() / 2]
}

fn bench_slot_throughput(c: &mut Criterion) {
    // Reuse the criterion shim's budget knob so CI's fast mode
    // (CRITERION_MEASUREMENT_MS) also bounds the JSON measurement.
    let budget = std::env::var("CRITERION_MEASUREMENT_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or_else(|| Duration::from_millis(300));

    let mut group = c.benchmark_group("e6_sinr_slot_throughput");
    group.sample_size(20);
    let mut cells = Vec::new();
    for &m in &THROUGHPUT_SIZES {
        let net = instance(m);
        let power = LinearPower::new(net.params().alpha);
        let oracle = SinrFeasibility::new(&net, &power);
        let attempts = slot_attempts(m);
        let mut out = Vec::new();

        group.bench_with_input(BenchmarkId::new("cached", m), &m, |b, _| {
            b.iter(|| {
                let mut rng = split_stream(10, m as u64);
                oracle.successes_into(&attempts, &mut out, &mut rng)
            })
        });
        group.bench_with_input(BenchmarkId::new("naive", m), &m, |b, _| {
            b.iter(|| successes_naive(&net, &power, &attempts))
        });

        // Paired measurement for the JSON baseline.
        let mut rng = split_stream(10, m as u64);
        let cached = measure_slot(
            || {
                oracle.successes_into(&attempts, &mut out, &mut rng);
            },
            budget,
        );
        let naive = measure_slot(
            || {
                std::hint::black_box(successes_naive(&net, &power, &attempts));
            },
            budget,
        );
        let per_sec = |d: Duration| 1.0 / d.as_secs_f64();
        let speedup = naive.as_secs_f64() / cached.as_secs_f64();
        println!(
            "e6_sinr_slot_throughput/speedup/{m}: {speedup:.1}x \
             (cached {:.3e} slots/s, naive {:.3e} slots/s)",
            per_sec(cached),
            per_sec(naive)
        );
        cells.push(format!(
            "    {{\n      \"m\": {m},\n      \"attempts_per_slot\": {},\n      \
             \"cached_slots_per_sec\": {:.1},\n      \"naive_slots_per_sec\": {:.1},\n      \
             \"speedup\": {:.2}\n    }}",
            attempts.len(),
            per_sec(cached),
            per_sec(naive),
            speedup
        ));
    }
    group.finish();

    let json = format!(
        "{{\n  \"bench\": \"bench_sinr\",\n  \"metric\": \"exact-oracle slot throughput, \
         k = m/4 attempts per slot\",\n  \"cells\": [\n{}\n  ]\n}}\n",
        cells.join(",\n")
    );
    let path = std::env::var("BENCH_SINR_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sinr.json").to_string()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("e6_sinr_slot_throughput: baseline written to {path}"),
        Err(e) => eprintln!("e6_sinr_slot_throughput: could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_sinr_kernels, bench_slot_throughput);
criterion_main!(benches);
