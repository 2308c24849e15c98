//! Property-based equivalence of the event-driven slot-skipping engine
//! and the per-slot reference loop.
//!
//! The fast path in `dps_sim::runner` may only jump over slots that are
//! provably inert, so across *any* specification — sparse or dense,
//! small or large, any seed — the two engines must produce identical
//! `SimulationReport`s (minus the skip diagnostic), identical trace
//! streams, and identical frame-event fingerprints. These properties
//! probe that contract on randomly drawn configurations at both the
//! scenario layer (boxed factories, preset specs) and the raw
//! simulation layer (where the trace and the frame log are visible).

use dps::prelude::*;
use dps_core::dynamic::FrameEvent;
use dps_core::feasibility::PerLinkFeasibility;
use dps_core::ids::LinkId;
use dps_core::injection::batch::BatchStochasticInjector;
use dps_core::injection::stochastic::uniform_generators;
use dps_core::path::RoutePath;
use dps_sim::runner::run_simulation_traced;
use dps_sim::trace::TraceRecorder;
use proptest::prelude::*;

/// Asserts every `SimulationReport` field except the skip diagnostic is
/// bit-for-bit equal between the event-driven and per-slot runs.
fn check_reports(fast: &SimulationReport, slow: &SimulationReport) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.injected, slow.injected);
    prop_assert_eq!(fast.delivered, slow.delivered);
    prop_assert_eq!(&fast.backlog_series, &slow.backlog_series);
    prop_assert_eq!(fast.final_backlog, slow.final_backlog);
    prop_assert_eq!(&fast.latencies, &slow.latencies);
    prop_assert_eq!(&fast.path_lens, &slow.path_lens);
    prop_assert_eq!(fast.potential.samples(), slow.potential.samples());
    prop_assert_eq!(fast.attempts, slow.attempts);
    prop_assert_eq!(fast.successes, slow.successes);
    prop_assert_eq!(fast.slots, slow.slots);
    prop_assert_eq!(slow.idle_slots_skipped, 0u64);
    Ok(())
}

/// FNV-1a digest of a frame-event stream — the "frame fingerprint" the
/// golden tests in `dps-core` pin, recomputed here over both engines.
fn frame_fingerprint(events: &[FrameEvent]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in events {
        eat(e.frame);
        eat(e.active_at_start as u64);
        eat(e.newly_failed as u64);
        eat(e.cleanup_selected as u64);
        eat(e.cleanup_served as u64);
        eat(e.potential_after);
    }
    hash
}

/// A single-hop ring workload at per-link rate `lambda`, ready to run.
fn ring_setup(
    m: usize,
    lambda: f64,
) -> (
    DynamicProtocol<GreedyPerLink>,
    BatchStochasticInjector,
    PerLinkFeasibility,
) {
    let config = FrameConfig::tuned(&GreedyPerLink::new(), m, 0.9).unwrap();
    let protocol = DynamicProtocol::new(GreedyPerLink::new(), config, m);
    let routes: Vec<_> = (0..m as u32)
        .map(|l| RoutePath::single_hop(LinkId(l)).shared())
        .collect();
    let injector = BatchStochasticInjector::new(uniform_generators(routes, lambda).unwrap());
    (protocol, injector, PerLinkFeasibility::new(m))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Scenario layer, sparse regime: the `sparse-ring` preset with a
    /// per-link rate swept over three orders of magnitude (crossing the
    /// batch injector's calendar → dense → counting mode thresholds),
    /// random ring sizes, horizons and seeds.
    #[test]
    fn sparse_preset_reports_match_across_engines(
        rate_exp in 0u32..8,
        nodes in 12usize..48,
        frames in 4u64..12,
        seed in 0u64..10_000,
    ) {
        let lambda = 1e-4 * 3f64.powi(rate_exp as i32);
        let mut spec = registry::spec_for("sparse-ring")
            .unwrap()
            .with_lambda(lambda)
            .with_size(nodes)
            .with_seed(seed);
        spec.run.frames = frames;
        let fast = Scenario::from_spec(&spec).unwrap().run().unwrap();
        spec.run.events = false;
        let slow = Scenario::from_spec(&spec).unwrap().run().unwrap();
        check_reports(&fast.report, &slow.report)?;
    }

    /// Scenario layer, dense regime: `ring-routing` (multi-hop routes,
    /// near-capacity load) must also be transparent — here the engine
    /// mostly degrades to per-slot stepping, and doing so must not
    /// change a single decision either.
    #[test]
    fn dense_preset_reports_match_across_engines(
        lambda in 0.1f64..0.8,
        frames in 4u64..12,
        seed in 0u64..10_000,
    ) {
        let mut spec = registry::spec_for("ring-routing")
            .unwrap()
            .with_lambda(lambda)
            .with_seed(seed);
        spec.run.frames = frames;
        let fast = Scenario::from_spec(&spec).unwrap().run().unwrap();
        spec.run.events = false;
        let slow = Scenario::from_spec(&spec).unwrap().run().unwrap();
        check_reports(&fast.report, &slow.report)?;
    }

    /// Simulation layer: with the trace recorder and the frame log in
    /// view, the expanded fast trace must equal the per-slot trace and
    /// the frame fingerprints must collide, across random sizes, rates
    /// spanning sparse to dense, sampling intervals, and seeds. The
    /// horizon is prime, so for every interval above 1 it is not a
    /// multiple of the interval: the sample replay inside a jump and the
    /// clamp of the last jump to the horizon both meet a partial period.
    #[test]
    fn traces_and_frame_fingerprints_match_across_engines(
        m in 2usize..7,
        rate_exp in 0u32..8,
        sample_every in 1u64..998,
        seed in 0u64..10_000,
    ) {
        let lambda = 1e-4 * 3f64.powi(rate_exp as i32);
        let slots = 20_011u64;
        let cfg = SimulationConfig::new(slots, seed).with_sample_every(sample_every);

        let (mut p1, mut i1, phy1) = ring_setup(m, lambda);
        let mut fast_trace = TraceRecorder::new(slots as usize);
        let fast = run_simulation_traced(
            &mut p1, &mut i1, &phy1, cfg.with_events(true), &mut fast_trace,
        );

        let (mut p2, mut i2, phy2) = ring_setup(m, lambda);
        let mut slow_trace = TraceRecorder::new(slots as usize);
        let slow = run_simulation_traced(
            &mut p2, &mut i2, &phy2, cfg.with_events(false), &mut slow_trace,
        );

        check_reports(&fast, &slow)?;

        let slow_records: Vec<_> = slow_trace.records().copied().collect();
        prop_assert_eq!(fast_trace.expand(), slow_records);

        let fast_frames = p1.take_frame_events();
        let slow_frames = p2.take_frame_events();
        prop_assert_eq!(
            frame_fingerprint(&fast_frames),
            frame_fingerprint(&slow_frames),
            "frame fingerprints diverged at m={} lambda={}",
            m,
            lambda
        );
        prop_assert_eq!(fast_frames, slow_frames);

        // Coverage guard: in the genuinely sparse regime the fast run
        // must actually have exercised the jump machinery.
        if lambda < 1e-3 {
            prop_assert!(
                fast.idle_slots_skipped > 0,
                "sparse run (lambda={}) never skipped a slot",
                lambda
            );
        }
    }
}
