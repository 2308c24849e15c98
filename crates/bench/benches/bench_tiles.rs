//! Tiled-substrate benchmark: the exact SINR oracle (on-the-fly gain
//! fallback above the dense-table cap) vs the spatially-tiled oracle
//! (near-field panels + far-field tile aggregation) on the same slot.
//!
//! Drives one slot of `m/4` simultaneous attempts at
//! `m ∈ {1024, 4096, 16384}` through both kernels and writes the
//! measured slot throughput and speedup to `BENCH_tiles.json` at the
//! workspace root (override the path with `BENCH_TILES_OUT`). Two tiled
//! cells are reported per size: `ε = 0` (bit-for-bit the exact verdicts
//! — panels are pure speed) and `ε = 10⁻³` (far-field aggregation under
//! the error contract of `dps_sinr::tiles`). CI runs this in fast mode
//! as a perf smoke test; the checked-in file is the PR's baseline.
//!
//! A separate scale section benches `m = 65536` flat (one tile level)
//! against the hierarchical walk (four coarsening levels) on the same
//! leaf grid, with the same in-harness `ε = 0` bit-for-bit assertion at
//! both depths. It
//! also times one tiled rate normalisation `‖W·R‖∞` of a uniform unit
//! load over the hierarchical index (`measure_secs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dps_core::feasibility::{Attempt, Feasibility};
use dps_core::ids::{LinkId, PacketId};
use dps_core::interference::InterferenceModel;
use dps_core::load::LinkLoad;
use dps_core::rng::split_stream;
use dps_sinr::feasibility::SinrFeasibility;
use dps_sinr::instances::random_instance;
use dps_sinr::network::SinrNetwork;
use dps_sinr::params::SinrParams;
use dps_sinr::power::LinearPower;
use dps_sinr::tiles::{PanelCacheMode, TileOptions, TiledInterference, TiledSinrFeasibility};
use std::time::{Duration, Instant};

const SIZES: [usize; 3] = [1024, 4096, 16384];

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

/// Tile resolution scaling with the deployment: √m/4 tiles per side
/// (≈ 16 links per tile — coarse enough that far-field aggregation
/// replaces many per-pair gains per tile), capped at the grid's
/// maximum.
fn grid_for(m: usize) -> usize {
    ((m as f64).sqrt() as usize / 4).clamp(1, dps_sinr::tiles::MAX_TILES_PER_SIDE)
}

/// Panel budget for the bench cells: large enough to panel most of the
/// near field at these sizes (the preset default trades this for
/// memory; the bench reports the substrate at full tilt).
const PANEL_BUDGET: usize = 256 << 20;

fn slot_attempts(m: usize) -> Vec<Attempt> {
    (0..m as u32)
        .step_by(4)
        .map(|l| Attempt {
            link: LinkId(l),
            packet: PacketId(l as u64),
        })
        .collect()
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

fn bench_tiled_slot(c: &mut Criterion) {
    // Reuse the criterion shim's budget knob so CI's fast mode
    // (CRITERION_MEASUREMENT_MS) also bounds the JSON measurement.
    let budget = std::env::var("CRITERION_MEASUREMENT_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or_else(|| Duration::from_millis(300));

    let mut group = c.benchmark_group("tiles_slot_throughput");
    group.sample_size(10);
    let mut cells = Vec::new();
    for &m in &SIZES {
        let net = instance(m);
        let alpha = net.params().alpha;
        let grid = grid_for(m);
        // Above DEFAULT_DENSE_GAIN_LIMIT (1024) the exact oracle computes
        // gains on the fly, as certified cubes at α = 3 — the path the
        // tiles replace.
        let exact = SinrFeasibility::new(&net, &LinearPower::new(alpha));
        let tiled = |epsilon| {
            TiledSinrFeasibility::with_options(
                &net,
                &LinearPower::new(alpha),
                TileOptions::new(grid, epsilon).with_panel_budget(PANEL_BUDGET),
            )
        };
        let tiled_exact = tiled(0.0);
        let tiled_approx = tiled(1e-3);
        let attempts = slot_attempts(m);
        let mut out = Vec::new();

        // Sanity inside the harness: ε = 0 is bit-for-bit exact.
        {
            let rng = split_stream(10, m as u64);
            assert_eq!(
                exact.successes(&attempts, &mut rng.clone()),
                tiled_exact.successes(&attempts, &mut rng.clone()),
                "m = {m}: ε = 0 must match the exact oracle"
            );
        }

        // Criterion smoke entries (only the cheapest pair per size would
        // fit a default run; fast mode bounds these via the shim).
        group.bench_with_input(BenchmarkId::new("exact", m), &m, |b, _| {
            b.iter(|| {
                let mut rng = split_stream(10, m as u64);
                exact.successes_into(&attempts, &mut out, &mut rng)
            })
        });
        group.bench_with_input(BenchmarkId::new("tiled_eps0", m), &m, |b, _| {
            b.iter(|| {
                let mut rng = split_stream(10, m as u64);
                tiled_exact.successes_into(&attempts, &mut out, &mut rng)
            })
        });

        // Paired measurement for the JSON baseline.
        let mut rng = split_stream(10, m as u64);
        let exact_t = measure_slot(
            || {
                exact.successes_into(&attempts, &mut out, &mut rng);
            },
            budget,
        );
        let tiled0_t = measure_slot(
            || {
                tiled_exact.successes_into(&attempts, &mut out, &mut rng);
            },
            budget,
        );
        let tiled3_t = measure_slot(
            || {
                tiled_approx.successes_into(&attempts, &mut out, &mut rng);
            },
            budget,
        );
        let per_sec = |d: Duration| 1.0 / d.as_secs_f64();
        let speedup0 = exact_t.as_secs_f64() / tiled0_t.as_secs_f64();
        let speedup3 = exact_t.as_secs_f64() / tiled3_t.as_secs_f64();
        println!(
            "tiles_slot_throughput/{m} (grid {grid}): exact {:.3e} slots/s, \
             tiled ε=0 {:.3e} slots/s ({speedup0:.1}x), \
             tiled ε=1e-3 {:.3e} slots/s ({speedup3:.1}x), \
             far pairs {}, panels {}",
            per_sec(exact_t),
            per_sec(tiled0_t),
            per_sec(tiled3_t),
            tiled_approx.tiles().far_pairs(),
            tiled_approx.tiles().panel_count(),
        );
        cells.push(format!(
            "    {{\n      \"m\": {m},\n      \"grid\": {grid},\n      \
             \"attempts_per_slot\": {},\n      \
             \"exact_slots_per_sec\": {:.1},\n      \
             \"tiled_eps0_slots_per_sec\": {:.1},\n      \
             \"tiled_eps0_speedup\": {:.2},\n      \
             \"tiled_eps1e3_slots_per_sec\": {:.1},\n      \
             \"tiled_eps1e3_speedup\": {:.2},\n      \
             \"far_pairs\": {},\n      \"panels\": {},\n      \
             \"panel_bytes\": {}\n    }}",
            attempts.len(),
            per_sec(exact_t),
            per_sec(tiled0_t),
            speedup0,
            per_sec(tiled3_t),
            speedup3,
            tiled_approx.tiles().far_pairs(),
            tiled_approx.tiles().panel_count(),
            tiled_approx.tiles().panel_bytes(),
        ));
    }
    group.finish();

    // Hierarchical scale cell: m = 65536 on the flat grid's far-table
    // cap (g = 64), at *megacity density* (side 80·√m — the
    // `sinr-megacity` preset's spacing, four times sparser per area
    // than the small cells). At that spacing the near field shrinks to
    // a few tiles per receiver and the far-field walk dominates: flat
    // (one level) pays one far term per qualified leaf tile pair
    // (thousands per receiver), while the four-level hierarchy walks
    // the same leaf grid from an 8-per-side coarsest level and only
    // descends where the centre-substitution bound forces it,
    // replacing those leaf terms with a few coarse aggregates.
    const HIER_M: usize = 65536;
    const HIER_LEVELS: usize = 4;
    let hier_json = {
        let net = {
            let mut rng = split_stream(9, (HIER_M + 1) as u64);
            random_instance(
                HIER_M,
                80.0 * (HIER_M as f64).sqrt(),
                1.0,
                3.0,
                SinrParams::default_noiseless(),
                &mut rng,
            )
        };
        let alpha = net.params().alpha;
        let grid = grid_for(HIER_M);
        let attempts = slot_attempts(HIER_M);
        let make = |eps: f64, levels: usize| {
            TiledSinrFeasibility::with_options(
                &net,
                &LinearPower::new(alpha),
                TileOptions::new(grid, eps)
                    .with_levels(levels)
                    .with_panel_budget(PANEL_BUDGET)
                    .with_panel_mode(PanelCacheMode::Adaptive),
            )
        };

        // ε = 0 is bit-for-bit exact at every depth.
        // The assert drives a m/16 attempt subset: the exact oracle is
        // O(k²) on-the-fly gains at this size, and the full-k contract is already
        // referee-tested across levels in the tiled
        // contract unit tests (`dps_sinr::tiles::tests::contract`).
        {
            let assert_attempts: Vec<Attempt> = attempts.iter().step_by(4).copied().collect();
            let exact = SinrFeasibility::new(&net, &LinearPower::new(alpha));
            let rng = split_stream(10, HIER_M as u64);
            let reference = exact.successes(&assert_attempts, &mut rng.clone());
            for levels in [1, HIER_LEVELS] {
                assert_eq!(
                    reference,
                    make(0.0, levels).successes(&assert_attempts, &mut rng.clone()),
                    "m = {HIER_M}, levels = {levels}: ε = 0 must match the exact oracle"
                );
            }
        }

        let flat = make(1e-3, 1);
        let hier = make(1e-3, HIER_LEVELS);
        let mut out = Vec::new();
        let mut rng = split_stream(10, HIER_M as u64);
        let flat_t = measure_slot(
            || {
                flat.successes_into(&attempts, &mut out, &mut rng);
            },
            budget,
        );
        let hier_t = measure_slot(
            || {
                hier.successes_into(&attempts, &mut out, &mut rng);
            },
            budget,
        );
        // One rate normalisation, as the stochastic injector runs it at
        // set-up: the tiled measure of a unit load on every link.
        let measure_secs = {
            let model = TiledInterference::with_tiles(hier.shared_tiles().clone());
            let load = LinkLoad::from_links(HIER_M, (0..HIER_M as u32).map(LinkId));
            let start = Instant::now();
            let value = model.measure(&load);
            let secs = start.elapsed().as_secs_f64();
            assert!(value.is_finite() && value >= 1.0, "measure {value}");
            secs
        };
        let per_sec = |d: Duration| 1.0 / d.as_secs_f64();
        let hier_speedup = flat_t.as_secs_f64() / hier_t.as_secs_f64();
        let far_per_level: Vec<String> = (0..HIER_LEVELS)
            .map(|l| hier.tiles().far_pairs_at(l).to_string())
            .collect();
        println!(
            "tiles_slot_throughput/scale m={HIER_M} (grid {grid}, L={HIER_LEVELS}): \
             flat ε=1e-3 {:.3e} slots/s, hier {:.3e} slots/s ({hier_speedup:.2}x), \
             far pairs flat {} vs per-level [{}], \
             unit-load measure {measure_secs:.3} s",
            per_sec(flat_t),
            per_sec(hier_t),
            flat.tiles().far_pairs(),
            far_per_level.join(", "),
        );
        format!(
            "  \"scale\": {{\n    \"m\": {HIER_M},\n    \"side\": {:.0},\n    \
             \"grid\": {grid},\n    \
             \"levels\": {HIER_LEVELS},\n    \"attempts_per_slot\": {},\n    \
             \"flat_eps1e3_slots_per_sec\": {:.2},\n    \
             \"hier_eps1e3_slots_per_sec\": {:.2},\n    \
             \"hier_speedup_vs_flat\": {:.2},\n    \
             \"flat_far_pairs\": {},\n    \"hier_far_pairs_per_level\": [{}],\n    \
             \"measure_secs\": {measure_secs:.3}\n  }}",
            80.0 * (HIER_M as f64).sqrt(),
            attempts.len(),
            per_sec(flat_t),
            per_sec(hier_t),
            hier_speedup,
            flat.tiles().far_pairs(),
            far_per_level.join(", "),
        )
    };

    let json = format!(
        "{{\n  \"bench\": \"bench_tiles\",\n  \"metric\": \"exact on-the-fly fallback vs \
         tiled oracle, k = m/4 attempts per slot\",\n  \"cells\": [\n{}\n  ],\n{}\n}}\n",
        cells.join(",\n"),
        hier_json
    );
    let path = std::env::var("BENCH_TILES_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tiles.json").to_string()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("tiles_slot_throughput: baseline written to {path}"),
        Err(e) => eprintln!("tiles_slot_throughput: could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_tiled_slot);
criterion_main!(benches);
