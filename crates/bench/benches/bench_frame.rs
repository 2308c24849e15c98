//! Frame-protocol bookkeeping benchmark: the Section-4 slot loop on a
//! no-op feasibility oracle.
//!
//! PR 4 removed the injector floor from two-stage sweep cells; ROADMAP
//! names protocol-side frame bookkeeping as the new dominant cost. This
//! bench isolates exactly that: a `DynamicProtocol<GreedyPerLink>` over a
//! line of `m` links with 4-hop routes, driven by a deterministic
//! round-robin arrival pattern against an oracle that acknowledges every
//! attempt without touching the RNG. Every cycle measured here is
//! request building, attempt building, acknowledgement bookkeeping,
//! the main→clean-up rebuild and delivery reporting — no injector
//! sampling, no interference arithmetic.
//!
//! Measurements, written to `BENCH_frame.json` at the workspace root
//! (override with `BENCH_FRAME_OUT`), for m ∈ {64, 256, 1024}:
//!
//! * **slot throughput** of the columnar `Protocol::step` path
//!   (slice arrivals, reused `SlotOutcome`);
//! * the same loop through the legacy `on_slot` shim (owned
//!   `Vec<Packet>` per slot, owned outcome per slot) for reference;
//! * the pre-refactor baseline captured on the `Arc`-per-packet
//!   `ActivePacket`/`FailedPacket` frame loop, hardcoded below.
//!
//! CI runs this in fast mode (smaller slot budget, one measurement run)
//! as a perf-harness smoke test; the checked-in file is the PR baseline,
//! captured in full mode.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dps_core::dynamic::{DynamicProtocol, FrameConfig};
use dps_core::feasibility::{Attempt, Feasibility};
use dps_core::graph::line_network;
use dps_core::ids::{LinkId, PacketId};
use dps_core::packet::Packet;
use dps_core::path::RoutePath;
use dps_core::protocol::{Protocol, SlotOutcome};
use dps_core::rng::split_stream;
use dps_core::staticsched::greedy::GreedyPerLink;
use rand::RngCore;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pre-refactor baseline (slots/s), captured on the seed commit's frame
/// loop (`ActivePacket`/`FailedPacket` owning `Packet`s, per-slot owned
/// arrivals and outcome) with this exact workload on the 1-CPU bench
/// host. `speedup` in the JSON is measured step-path throughput over
/// this number.
const PRE_REFACTOR_SLOTS_PER_SEC: [(usize, f64); 3] =
    [(64, 640_800.0), (256, 68_090.0), (1024, 5_394.0)];

const HOPS: usize = 4;

/// Acknowledges every attempt; consumes no randomness. The no-op
/// physical layer that makes the protocol's own bookkeeping the only
/// measured cost.
struct AllSucceed;

impl Feasibility for AllSucceed {
    fn successes_into(&self, attempts: &[Attempt], out: &mut Vec<bool>, _rng: &mut dyn RngCore) {
        out.clear();
        out.resize(attempts.len(), true);
    }
}

/// The bookkeeping-dense frame geometry: short frames keep the
/// begin-frame/rebuild transitions (the refactored paths) hot relative
/// to idle slots.
fn config(m: usize) -> FrameConfig {
    FrameConfig {
        m,
        lambda: 0.5,
        epsilon: 0.5,
        frame_len: 12,
        j_bound: m as f64,
        main_budget: 6,
        cleanup_budget: 5,
        cleanup_select_prob: (4.0 / m as f64).min(1.0),
        cleanup_bound: 4.0,
    }
}

/// All 4-hop routes on the m-link line: m − 3 distinct `Arc`s, so at
/// m = 1024 the route set does not fit a cache line — the pointer-chase
/// the interned route table removes.
fn routes(m: usize) -> Vec<Arc<RoutePath>> {
    let network = line_network(m);
    (0..=m - HOPS)
        .map(|start| {
            RoutePath::new(
                &network,
                (start..start + HOPS).map(|i| LinkId(i as u32)).collect(),
            )
            .expect("line routes are connected")
            .shared()
        })
        .collect()
}

fn protocol(m: usize) -> DynamicProtocol<GreedyPerLink> {
    DynamicProtocol::new(GreedyPerLink::new(), config(m), m)
}

/// Deterministic round-robin arrivals: `m/32` packets per slot cycling
/// through the route family (≈ 1.5 packets per link per frame, inside
/// the main budget, so steady state has no failures and the active set
/// holds ≈ 4 frames of arrivals in flight).
struct ArrivalPattern {
    routes: Vec<Arc<RoutePath>>,
    per_slot: usize,
    next_route: usize,
    next_id: u64,
}

impl ArrivalPattern {
    fn new(m: usize) -> Self {
        ArrivalPattern {
            routes: routes(m),
            per_slot: (m / 32).max(1),
            next_route: 0,
            next_id: 0,
        }
    }

    fn fill(&mut self, slot: u64, out: &mut Vec<Packet>) {
        out.clear();
        for _ in 0..self.per_slot {
            let route = self.routes[self.next_route].clone();
            self.next_route = (self.next_route + 1) % self.routes.len();
            out.push(Packet::new(PacketId(self.next_id), route, slot));
            self.next_id += 1;
        }
    }
}

/// Drives the frame loop through the legacy owned-`Vec` entry point.
fn drive_shim(m: usize, slots: u64) -> (Duration, u64) {
    let mut protocol = protocol(m);
    let mut pattern = ArrivalPattern::new(m);
    let phy = AllSucceed;
    let mut rng = split_stream(7, 0);
    let mut arrivals = Vec::new();
    let mut delivered = 0u64;
    let start = Instant::now();
    for slot in 0..slots {
        pattern.fill(slot, &mut arrivals);
        let outcome = protocol.on_slot(slot, std::mem::take(&mut arrivals), &phy, &mut rng);
        delivered += outcome.delivered.len() as u64;
    }
    (start.elapsed(), delivered)
}

/// Drives the frame loop through the columnar hot path:
/// `Protocol::step` with a reused arrivals buffer and a reused outcome.
fn drive_hot(m: usize, slots: u64) -> (Duration, u64) {
    let mut protocol = protocol(m);
    let mut pattern = ArrivalPattern::new(m);
    let phy = AllSucceed;
    let mut rng = split_stream(7, 0);
    let mut arrivals = Vec::new();
    let mut outcome = SlotOutcome::empty();
    let mut delivered = 0u64;
    let start = Instant::now();
    for slot in 0..slots {
        pattern.fill(slot, &mut arrivals);
        protocol.step(slot, &arrivals, &phy, &mut rng, &mut outcome);
        delivered += outcome.delivered.len() as u64;
    }
    (start.elapsed(), delivered)
}

/// Median over `runs` measurements of `f`.
fn measure(f: &dyn Fn(usize, u64) -> (Duration, u64), m: usize, slots: u64, runs: usize) -> f64 {
    let mut samples = Vec::with_capacity(runs);
    let mut delivered = 0;
    for _ in 0..runs {
        let (elapsed, d) = f(m, slots);
        samples.push(elapsed);
        delivered = d;
    }
    assert!(delivered > 0, "bench workload must deliver packets");
    samples.sort();
    slots as f64 / samples[samples.len() / 2].as_secs_f64()
}

fn bench_frame_bookkeeping(c: &mut Criterion) {
    let fast_mode = std::env::var("CRITERION_MEASUREMENT_MS").is_ok();
    let (slots, runs) = if fast_mode {
        (20_000u64, 1usize)
    } else {
        (200_000, 3)
    };

    let mut group = c.benchmark_group("frame_bookkeeping");
    group.sample_size(10);
    for m in [64usize, 256, 1024] {
        group.bench_with_input(BenchmarkId::new("step", m), &m, |b, &m| {
            let mut protocol = protocol(m);
            let mut pattern = ArrivalPattern::new(m);
            let phy = AllSucceed;
            let mut rng = split_stream(7, 0);
            let mut arrivals = Vec::new();
            let mut outcome = SlotOutcome::empty();
            let mut slot = 0u64;
            b.iter(|| {
                pattern.fill(slot, &mut arrivals);
                protocol.step(slot, &arrivals, &phy, &mut rng, &mut outcome);
                slot += 1;
                outcome.delivered.len()
            })
        });
    }
    group.finish();

    let mut cells = Vec::new();
    for m in [64usize, 256, 1024] {
        let hot = measure(&drive_hot, m, slots, runs);
        let shim = measure(&drive_shim, m, slots, runs);
        let before = PRE_REFACTOR_SLOTS_PER_SEC
            .iter()
            .find(|&&(bm, _)| bm == m)
            .map(|&(_, v)| v)
            .unwrap_or(0.0);
        let speedup = if before > 0.0 { hot / before } else { 1.0 };
        println!(
            "frame_bookkeeping/m={m}: step {hot:.3e} slots/s, on_slot shim {shim:.3e} slots/s, \
             pre-refactor {before:.3e} slots/s, speedup {speedup:.2}x"
        );
        cells.push(format!(
            "    {{\n      \"m\": {m},\n      \"slots\": {slots},\n      \
             \"step_slots_per_sec\": {hot:.1},\n      \
             \"on_slot_shim_slots_per_sec\": {shim:.1},\n      \
             \"pre_refactor_slots_per_sec\": {before:.1},\n      \
             \"speedup_vs_pre_refactor\": {speedup:.2}\n    }}"
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"bench_frame\",\n  \"metric\": \"frame-protocol bookkeeping slot \
         throughput on a no-op feasibility oracle (line of m links, 4-hop routes, m/32 \
         round-robin arrivals per slot, 12-slot frames); `step` = columnar slice/reused-buffer \
         path, `on_slot_shim` = legacy owned-Vec entry point over the same core, \
         `pre_refactor` = seed frame loop (Arc-owning ActivePacket/FailedPacket), captured \
         once on the 1-CPU bench host (timing noise +/-30%)\",\n  \"cells\": [\n{}\n  ]\n}}\n",
        cells.join(",\n")
    );
    let path = std::env::var("BENCH_FRAME_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_frame.json").to_string()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("frame_bookkeeping: baseline written to {path}"),
        Err(e) => eprintln!("frame_bookkeeping: could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_frame_bookkeeping);
criterion_main!(benches);
