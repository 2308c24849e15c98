//! Cross-crate tests of the Section 7.2 conflict-graph results on the
//! node-constrained model (each node sends or receives at most one packet
//! per slot), which the paper singles out as having bounded independence
//! and therefore constant-competitive protocols.

use dps::prelude::*;
use dps_core::graph::ring_network;
use dps_core::injection::stochastic::uniform_generators;

use dps_core::path::RoutePath;
use dps_core::staticsched::StaticScheduler;

#[test]
fn node_constrained_ring_has_small_inductive_independence() {
    let net = ring_network(10);
    let graph = node_constrained(&net);
    let pi = degeneracy_ordering(&graph);
    let rho = rho_for_ordering(&graph, &pi);
    assert!(
        rho <= 2,
        "line graphs have inductive independence <= 2, got {rho}"
    );
}

#[test]
fn node_constrained_dynamic_protocol_is_stable() {
    let m = 10;
    let net = ring_network(m);
    let graph = node_constrained(&net);
    let pi = degeneracy_ordering(&graph);
    let model = ConflictInterference::new(graph.clone(), &pi);
    let phy = IndependentSetFeasibility::new(graph);

    // The substrate-agnostic two-stage scheduler at half its rate.
    let scheduler = TwoStageDecayScheduler::new(m);
    let lambda = 0.5 / scheduler.f_of(m);
    let config = FrameConfig::tuned(&scheduler, m, lambda).expect("valid config");
    let mut protocol = DynamicProtocol::new(scheduler, config.clone(), m);

    let routes: Vec<_> = net
        .link_ids()
        .map(|l| RoutePath::single_hop(l).shared())
        .collect();
    let mut injector = BatchStochasticInjector::from(
        uniform_generators(routes, 0.001)
            .unwrap()
            .scaled_to_rate(&model, lambda)
            .unwrap(),
    );
    let report = run_simulation(
        &mut protocol,
        &mut injector,
        &phy,
        SimulationConfig::new(15 * config.frame_len as u64, 17),
    );
    let verdict = classify_stability(&report, 0.05);
    assert!(verdict.is_stable(), "{verdict:?}");
    assert_eq!(
        report.delivered + report.final_backlog as u64,
        report.injected,
        "conservation"
    );
    assert!(report.delivered > 0);
}

#[test]
fn feasible_slots_are_matchings_under_node_constraints() {
    // Every successful slot under the node-constrained oracle is a
    // matching in the underlying graph: no two successes share a node.
    let net = ring_network(6);
    let graph = node_constrained(&net);
    let phy = IndependentSetFeasibility::new(graph);
    let mut rng = dps_core::rng::split_stream(3, 0);
    use dps_core::feasibility::{Attempt, Feasibility};
    let attempts: Vec<Attempt> = net
        .link_ids()
        .map(|l| Attempt {
            link: l,
            packet: dps_core::ids::PacketId(l.index() as u64),
        })
        .collect();
    let successes = phy.successes(&attempts, &mut rng);
    let winners: Vec<_> = attempts
        .iter()
        .zip(&successes)
        .filter(|(_, &ok)| ok)
        .map(|(a, _)| net.link(a.link))
        .collect();
    for (i, a) in winners.iter().enumerate() {
        for b in &winners[i + 1..] {
            assert!(
                a.src != b.src && a.src != b.dst && a.dst != b.src && a.dst != b.dst,
                "successes must form a matching"
            );
        }
    }
}
