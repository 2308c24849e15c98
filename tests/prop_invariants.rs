//! Property-based tests (proptest) of the model invariants every proof in
//! the paper leans on.

use dps::prelude::*;
use dps_core::injection::Injector;
use dps_core::interference::{validate, InterferenceModel};
use dps_core::load::LinkLoad;
use dps_core::rng::split_stream;
use dps_core::staticsched::{requests_measure, run_static, Request, StaticScheduler};
use dps_sinr::instances::random_instance;
use dps_sinr::matrix::SinrInterference;
use proptest::prelude::*;

fn arb_load(m: usize) -> impl Strategy<Value = LinkLoad> {
    proptest::collection::vec(0.0f64..5.0, m).prop_map(move |values| {
        let mut load = LinkLoad::new(m);
        for (i, v) in values.into_iter().enumerate() {
            load.set(dps_core::ids::LinkId(i as u32), v);
        }
        load
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every SINR matrix construction satisfies the structural invariants
    /// of the abstract model (unit diagonal, entries in [0, 1]).
    #[test]
    fn sinr_matrices_are_valid_interference_models(seed in 0u64..500) {
        let mut rng = split_stream(seed, 0);
        let params = SinrParams::default_noiseless();
        let net = random_instance(6, 40.0, 1.0, 4.0, params, &mut rng);
        let linear = LinearPower::new(params.alpha);
        let sqrt = SquareRootPower::new(params.alpha);
        prop_assert!(validate(&SinrInterference::fixed_power(&net, &linear)).is_ok());
        prop_assert!(validate(&SinrInterference::fixed_power(&net, &UniformPower::unit())).is_ok());
        prop_assert!(validate(&SinrInterference::monotone_power(&net, &sqrt)).is_ok());
        prop_assert!(validate(&SinrInterference::power_control(&net)).is_ok());
    }

    /// The interference measure is monotone and sub-additive in the load —
    /// the two properties the injection-rate definition relies on.
    #[test]
    fn measure_is_monotone_and_subadditive(
        a in arb_load(6),
        b in arb_load(6),
        seed in 0u64..100,
    ) {
        let mut rng = split_stream(seed, 1);
        let params = SinrParams::default_noiseless();
        let net = random_instance(6, 30.0, 1.0, 3.0, params, &mut rng);
        let model = SinrInterference::fixed_power(&net, &UniformPower::unit());
        let mut sum = a.clone();
        sum.merge(&b);
        let ma = model.measure(&a);
        let mb = model.measure(&b);
        let msum = model.measure(&sum);
        prop_assert!(msum + 1e-9 >= ma.max(mb), "monotone: {msum} vs {ma}, {mb}");
        prop_assert!(msum <= ma + mb + 1e-9, "subadditive: {msum} vs {ma} + {mb}");
    }

    /// Measure scales linearly with the load (it is a linear measure).
    #[test]
    fn measure_is_homogeneous(load in arb_load(5), factor in 0.1f64..4.0) {
        let model = dps_core::interference::CompleteInterference::new(5);
        let mut scaled = load.clone();
        scaled.scale(factor);
        prop_assert!((model.measure(&scaled) - factor * model.measure(&load)).abs() < 1e-6);
    }

    /// Every adversary implementation honours its (w, λ) bound on every
    /// random configuration.
    #[test]
    fn adversaries_are_window_bounded(
        lambda in 0.05f64..1.5,
        w in 4usize..64,
        m in 2usize..10,
        seed in 0u64..100,
    ) {
        let routes: Vec<_> = (0..m as u32)
            .map(|l| dps_core::path::RoutePath::single_hop(dps_core::ids::LinkId(l)).shared())
            .collect();
        let model = dps_core::interference::IdentityInterference::new(m);
        let adversaries: Vec<Box<dyn Injector>> = vec![
            Box::new(SmoothAdversary::new(model, routes.clone(), w, lambda)),
            Box::new(BurstyAdversary::new(model, routes.clone(), w, lambda)),
            Box::new(SingleEdgeAdversary::new(model, routes[0].clone(), w, lambda)),
            Box::new(RoundRobinAdversary::new(model, routes.clone(), w, lambda)),
        ];
        let mut rng = split_stream(seed, 2);
        for mut adv in adversaries {
            let mut validator = WindowValidator::new(model, w);
            for slot in 0..(6 * w as u64) {
                let injected = adv.inject(slot, &mut rng);
                validator.record_slot(injected.iter().map(|p| p.as_ref()));
            }
            prop_assert!(
                validator.is_bounded(lambda),
                "effective rate {} exceeds {lambda}",
                validator.effective_rate()
            );
        }
    }

    /// The stochastic injector's analytic rate matches its empirical rate.
    #[test]
    fn stochastic_rate_matches_empirical(p in 0.01f64..0.5, m in 1usize..6, seed in 0u64..50) {
        let routes: Vec<_> = (0..m as u32)
            .map(|l| dps_core::path::RoutePath::single_hop(dps_core::ids::LinkId(l)).shared())
            .collect();
        let mut injector = BatchStochasticInjector::from(
            dps_core::injection::stochastic::uniform_generators(routes, p).unwrap(),
        );
        let model = dps_core::interference::CompleteInterference::new(m);
        let analytic = injector.rate(&model);
        let mut rng = split_stream(seed, 3);
        let slots = 4000u64;
        let mut count = 0usize;
        for slot in 0..slots {
            count += injector.inject(slot, &mut rng).len();
        }
        let empirical = count as f64 / slots as f64;
        // CompleteInterference rate = expected packets per slot = m·p.
        prop_assert!((analytic - m as f64 * p).abs() < 1e-9);
        let sigma = (m as f64 * p * (1.0 - p) / slots as f64).sqrt();
        prop_assert!(
            (empirical - analytic).abs() < 6.0 * sigma + 0.01,
            "empirical {empirical} vs analytic {analytic}"
        );
    }

    /// Static schedulers serve every request within their declared budget
    /// (the whp guarantee, probed across random instances).
    #[test]
    fn greedy_serves_within_budget(links in proptest::collection::vec(0u32..6, 1..40)) {
        let requests: Vec<Request> = links
            .iter()
            .enumerate()
            .map(|(i, &l)| Request {
                packet: dps_core::ids::PacketId(i as u64),
                link: dps_core::ids::LinkId(l),
            })
            .collect();
        let model = dps_core::interference::IdentityInterference::new(6);
        let i = requests_measure(&model, &requests);
        let scheduler = GreedyPerLink::new();
        let feas = dps_core::feasibility::PerLinkFeasibility::new(6);
        let mut rng = split_stream(1, 4);
        let budget = scheduler.slots_needed(i, requests.len());
        let result = run_static(&scheduler, &requests, i, &feas, budget, &mut rng);
        prop_assert!(result.all_served());
        prop_assert!(result.slots_used as f64 <= i + 1.0);
    }

    /// Conservation: across random rates (including overload), the dynamic
    /// protocol never loses or duplicates a packet.
    #[test]
    fn dynamic_protocol_conserves_packets(lambda in 0.1f64..1.4, seed in 0u64..30) {
        let setup = dps_routing::workloads::RoutingSetup::ring(4, 1).unwrap();
        let config = FrameConfig::tuned(&GreedyPerLink::new(), 4, 0.9).unwrap();
        let mut protocol = DynamicProtocol::new(GreedyPerLink::new(), config.clone(), 4);
        // Two generators per route so per-link rates above 1 stay within
        // the per-generator probability constraint.
        let routes: Vec<_> = setup
            .routes
            .iter()
            .chain(setup.routes.iter())
            .cloned()
            .collect();
        let mut injector = BatchStochasticInjector::from(
            dps_core::injection::stochastic::uniform_generators(routes, 0.01)
                .unwrap()
                .scaled_to_rate(&setup.model, lambda)
                .unwrap(),
        );
        let report = run_simulation(
            &mut protocol,
            &mut injector,
            &setup.feasibility,
            SimulationConfig::new(10 * config.frame_len as u64 + 13, seed),
        );
        prop_assert_eq!(report.delivered + report.final_backlog as u64, report.injected);
    }
}
