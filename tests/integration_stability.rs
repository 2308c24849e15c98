//! Cross-crate integration tests: the headline qualitative results of the
//! paper, each exercised end to end through the public API of the facade
//! crate.

use dps::prelude::*;
use dps_core::injection::stochastic::uniform_generators;
use dps_core::injection::Injector;
use dps_core::path::RoutePath;
use dps_core::protocol::Protocol;
use dps_core::staticsched::StaticScheduler;
use dps_routing::workloads::RoutingSetup;
use dps_sinr::instances::random_instance;
use dps_sinr::matrix::SinrInterference;

/// Helper: run a dynamic protocol against an injector/oracle and classify.
#[allow(clippy::too_many_arguments)]
fn classify<S: StaticScheduler + Clone + 'static>(
    scheduler: S,
    m: usize,
    num_links: usize,
    lambda_cfg: f64,
    injector: &mut dyn Injector,
    phy: &dyn dps_core::feasibility::Feasibility,
    frames: u64,
    seed: u64,
) -> (dps_sim::runner::SimulationReport, StabilityVerdict) {
    let config = FrameConfig::tuned(&scheduler, m, lambda_cfg).expect("valid config");
    let mut protocol = DynamicProtocol::new(scheduler, config.clone(), num_links);
    let report = run_simulation(
        &mut protocol,
        injector,
        phy,
        SimulationConfig::new(frames * config.frame_len as u64, seed),
    );
    let verdict = classify_stability(&report, 0.05);
    (report, verdict)
}

#[test]
fn routing_stable_below_one_unstable_above() {
    let setup = RoutingSetup::ring(8, 2).unwrap();
    let mut low = BatchStochasticInjector::from(
        uniform_generators(setup.routes.clone(), 0.01)
            .unwrap()
            .scaled_to_rate(&setup.model, 0.6)
            .unwrap(),
    );
    let (report, verdict) = classify(
        GreedyPerLink::new(),
        8,
        8,
        0.9,
        &mut low,
        &setup.feasibility,
        60,
        1,
    );
    assert!(verdict.is_stable(), "{verdict:?}");
    assert_eq!(
        report.delivered + report.final_backlog as u64,
        report.injected,
        "conservation"
    );

    let mut high = BatchStochasticInjector::from(
        uniform_generators(setup.routes.clone(), 0.01)
            .unwrap()
            .scaled_to_rate(&setup.model, 1.5)
            .unwrap(),
    );
    let (_, verdict) = classify(
        GreedyPerLink::new(),
        8,
        8,
        0.95,
        &mut high,
        &setup.feasibility,
        60,
        2,
    );
    assert!(!verdict.is_stable(), "overload must diverge: {verdict:?}");
}

#[test]
fn sinr_linear_power_protocol_is_stable_at_half_rate() {
    let m = 16;
    let params = SinrParams::default_noiseless();
    let mut geo_rng = dps_core::rng::split_stream(11, 0);
    let net = random_instance(m, 80.0, 1.0, 3.0, params, &mut geo_rng);
    let power = LinearPower::new(params.alpha);
    let model = SinrInterference::fixed_power(&net, &power);
    let phy = SinrFeasibility::new(&net, &power);
    let scheduler = TwoStageDecayScheduler::new(m);
    let lambda = 0.5 / scheduler.f_of(m);
    let routes: Vec<_> = net
        .network()
        .link_ids()
        .map(|l| RoutePath::single_hop(l).shared())
        .collect();
    let mut injector = BatchStochasticInjector::from(
        uniform_generators(routes, 0.01)
            .unwrap()
            .scaled_to_rate(&model, lambda)
            .unwrap(),
    );
    let (report, verdict) = classify(scheduler, m, m, lambda, &mut injector, &phy, 20, 3);
    assert!(verdict.is_stable(), "{verdict:?}");
    assert!(report.delivered > 0);
}

#[test]
fn mac_symmetric_threshold_is_between_quarter_and_one() {
    let m = 8;
    let scheduler = SymmetricMacScheduler::new(0.5, 1.0);
    let lambda_max = 1.0 / scheduler.f_of(m); // 1/(1.5e) ≈ 0.245
    let model = CompleteInterference::new(m);
    let phy = SingleChannelFeasibility::new();
    let routes: Vec<_> = (0..m as u32)
        .map(|l| RoutePath::single_hop(dps_core::ids::LinkId(l)).shared())
        .collect();

    let mut below = BatchStochasticInjector::from(
        uniform_generators(routes.clone(), 0.001)
            .unwrap()
            .scaled_to_rate(&model, 0.6 * lambda_max)
            .unwrap(),
    );
    let (_, verdict) = classify(scheduler, m, m, 0.6 * lambda_max, &mut below, &phy, 40, 4);
    assert!(verdict.is_stable(), "below threshold: {verdict:?}");

    // Provision at 70% of capacity: the frame length scales as
    // Θ(overhead/ε²) and Algorithm 2's tail overhead makes near-threshold
    // configurations prohibitively long to simulate.
    let mut above = BatchStochasticInjector::from(
        uniform_generators(routes, 0.001)
            .unwrap()
            .scaled_to_rate(&model, 0.8) // far above 1/e
            .unwrap(),
    );
    let (_, verdict) = classify(scheduler, m, m, 0.7 * lambda_max, &mut above, &phy, 40, 5);
    assert!(!verdict.is_stable(), "above 1/e must diverge: {verdict:?}");
}

#[test]
fn star_instance_separates_global_from_local_clock() {
    let star = star_instance(12);
    let oracle = SinrFeasibility::new(&star.net, &UniformPower::unit());
    let routes: Vec<_> = star
        .short_links
        .iter()
        .chain(std::iter::once(&star.long_link))
        .map(|&l| RoutePath::single_hop(l).shared())
        .collect();
    let model = dps_core::interference::IdentityInterference::new(star.net.num_links());
    let run = |protocol: &mut dyn Protocol, seed: u64| {
        let mut injector = BatchStochasticInjector::from(
            uniform_generators(routes.clone(), 0.01)
                .unwrap()
                .scaled_to_rate(&model, 0.4)
                .unwrap(),
        );
        run_simulation(
            protocol,
            &mut injector,
            &oracle,
            SimulationConfig::new(15_000, seed),
        )
    };
    let mut global = GlobalClockStarProtocol::new(&star);
    let g_report = run(&mut global, 6);
    let mut local = LocalClockAlohaProtocol::new(&star, 0.75);
    let l_report = run(&mut local, 7);
    assert!(classify_stability(&g_report, 0.05).is_stable());
    assert!(!classify_stability(&l_report, 0.05).is_stable());
    assert!(global.long_queue_len() < 100);
    assert!(local.long_queue_len() > 1000);
}

#[test]
fn jammed_network_stays_stable_at_reduced_rate() {
    // A jammer blocking 25% of busy slots (its cycle advances per oracle
    // call, and the protocol calls the oracle only on slots with
    // attempts): the protocol provisioned with enough headroom absorbs
    // it (failures are drained by clean-up phases).
    let setup = RoutingSetup::ring(4, 1).unwrap();
    let jammed = JammedFeasibility::new(setup.feasibility, 8, 2);
    let mut injector = BatchStochasticInjector::from(
        uniform_generators(setup.routes.clone(), 0.01)
            .unwrap()
            .scaled_to_rate(&setup.model, 0.4)
            .unwrap(),
    );
    let (report, verdict) = classify(
        GreedyPerLink::new(),
        4,
        4,
        0.9,
        &mut injector,
        &jammed,
        80,
        9,
    );
    assert!(verdict.is_stable(), "{verdict:?}");
    assert_eq!(
        report.delivered + report.final_backlog as u64,
        report.injected,
        "conservation under jamming"
    );
}

#[test]
fn lossy_network_reduces_but_keeps_stability() {
    // Section 9's extension: random transmission loss, protocol still
    // stable at reduced rate.
    let setup = RoutingSetup::ring(6, 1).unwrap();
    let lossy = LossyFeasibility::new(setup.feasibility, 0.2);
    let mut injector = BatchStochasticInjector::from(
        uniform_generators(setup.routes.clone(), 0.01)
            .unwrap()
            .scaled_to_rate(&setup.model, 0.5)
            .unwrap(),
    );
    let (report, verdict) = classify(
        GreedyPerLink::new(),
        6,
        6,
        0.9,
        &mut injector,
        &lossy,
        60,
        8,
    );
    assert!(verdict.is_stable(), "{verdict:?}");
    // Losses force failures through the clean-up path: the potential
    // machinery must have been exercised.
    assert!(report.potential.max() > 0 || report.delivered > 0);
}
