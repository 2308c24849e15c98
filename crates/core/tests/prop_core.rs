//! Property-based tests of the core model invariants.

use dps_core::error::ModelError;
use dps_core::feasibility::{Attempt, Feasibility, PerLinkFeasibility, ThresholdFeasibility};
use dps_core::graph::{line_network, NetworkBuilder};
use dps_core::ids::{LinkId, PacketId};
use dps_core::interference::{
    validate, CompleteInterference, DenseInterference, IdentityInterference, InterferenceModel,
};
use dps_core::load::LinkLoad;
use dps_core::path::RoutePath;
use dps_core::rng::split_stream;
use dps_core::staticsched::greedy::GreedyPerLink;
use dps_core::staticsched::uniform_rate::UniformRateScheduler;
use dps_core::staticsched::{requests_measure, run_static, Request, StaticScheduler};
use dps_core::transform::DenseTransform;
use proptest::prelude::*;
use rand::Rng;
use std::collections::{BTreeMap, VecDeque};

/// The per-link greedy run as first written — one `VecDeque` per link in
/// a `BTreeMap` — kept as the referee for the CSR run of
/// [`GreedyPerLink`]: it states the ordering contract (ascending links,
/// FIFO within a link, non-front acks ignored) as plainly as possible.
struct QueueGreedy {
    queues: BTreeMap<LinkId, VecDeque<usize>>,
    links: Vec<LinkId>,
    remaining: usize,
}

impl QueueGreedy {
    fn new(requests: &[Request]) -> Self {
        let mut queues: BTreeMap<LinkId, VecDeque<usize>> = BTreeMap::new();
        for (idx, req) in requests.iter().enumerate() {
            queues.entry(req.link).or_default().push_back(idx);
        }
        QueueGreedy {
            queues,
            links: requests.iter().map(|r| r.link).collect(),
            remaining: requests.len(),
        }
    }

    fn attempts_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.queues.values().filter_map(|q| q.front().copied()));
    }

    fn ack(&mut self, idx: usize) {
        let Some(link) = self.links.get(idx) else {
            return;
        };
        let queue = self
            .queues
            .get_mut(link)
            .expect("every request has a queue");
        if queue.front() == Some(&idx) {
            queue.pop_front();
            self.remaining -= 1;
        }
    }

    fn is_done(&self) -> bool {
        self.remaining == 0
    }
}

/// The per-link oracle as first written — count each link's attempts in
/// an `O(m)` multiplicity array, succeed iff the count is one — kept as
/// the referee for the packed-key sort of [`PerLinkFeasibility`].
fn per_link_referee(attempts: &[Attempt], num_links: usize) -> Vec<bool> {
    let mut mult = vec![0u32; num_links];
    for a in attempts {
        mult[a.link.index()] += 1;
    }
    attempts.iter().map(|a| mult[a.link.index()] == 1).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The CSR greedy run replays the queue referee step for step over
    /// random request multisets — empty, one crowded link, sparse high
    /// link ids, all-distinct links, dense duplicates — under front,
    /// repeated, non-front and out-of-range acks: identical attempt
    /// sequences and identical `is_done` after every step.
    #[test]
    fn greedy_run_matches_the_queue_referee(
        shape in 0u32..5,
        n in 0usize..400,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = split_stream(seed, 0);
        let links: Vec<u32> = match shape {
            0 => Vec::new(),
            1 => vec![rng.gen_range(0..64u32); n],
            2 => (0..n)
                .map(|_| (1 << 20) - 1 - 4099 * rng.gen_range(0..8u32))
                .collect(),
            3 => (0..n as u32).map(|i| (i * 37) % 1021).collect(),
            _ => (0..n).map(|_| rng.gen_range(0..16u32)).collect(),
        };
        let requests: Vec<Request> = links
            .iter()
            .enumerate()
            .map(|(i, &l)| Request {
                packet: PacketId(i as u64),
                link: LinkId(l),
            })
            .collect();
        let mut by_into = GreedyPerLink::new().instantiate(&requests, 0.0, &mut rng);
        let mut referee = QueueGreedy::new(&requests);
        let (mut got, mut want, mut acks) = (Vec::new(), Vec::new(), Vec::new());
        for step in 0..4 * requests.len() + 4 {
            prop_assert_eq!(by_into.is_done(), referee.is_done(), "step {}", step);
            if referee.is_done() {
                break;
            }
            by_into.attempts_into(&mut rng, &mut got);
            referee.attempts_into(&mut want);
            prop_assert_eq!(&got, &want, "step {}", step);
            acks.clear();
            for &idx in &want {
                match rng.gen_range(0..8u32) {
                    0..=3 => acks.push(idx),
                    4 => acks.extend([idx, idx]),
                    5 => acks.push(rng.gen_range(0..requests.len())),
                    6 => acks.push(requests.len() + rng.gen_range(0..3usize)),
                    _ => {}
                }
            }
            for &idx in &acks {
                by_into.ack(idx);
                referee.ack(idx);
            }
        }
    }

    /// The allocation-free per-link check (sorted packed keys, runs of
    /// length one succeed) agrees with the multiplicity-count referee on
    /// random unsorted link multisets: up to 4096 attempts, ids up to
    /// `num_links − 1`, duplicates forced by narrow id spans.
    #[test]
    fn per_link_successes_into_matches_successes_on_random_multisets(
        num_links in 1usize..5000,
        k in 0usize..4097,
        spread in 1usize..5000,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = split_stream(seed, 1);
        let span = spread.min(num_links);
        let attempts: Vec<Attempt> = (0..k)
            .map(|i| Attempt {
                link: LinkId((num_links - 1 - rng.gen_range(0..span)) as u32),
                packet: PacketId(i as u64),
            })
            .collect();
        let oracle = PerLinkFeasibility::new(num_links);
        let mut out = vec![true; 3];
        oracle.successes_into(&attempts, &mut out, &mut rng);
        prop_assert_eq!(&out, &per_link_referee(&attempts, num_links));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Valid paths on a line are exactly the contiguous ranges.
    #[test]
    fn line_paths_validate_iff_contiguous(
        start in 0usize..6,
        len in 1usize..6,
        skip in 0usize..3,
    ) {
        let net = line_network(8);
        let mut links: Vec<LinkId> = (start..(start + len).min(8))
            .map(|i| LinkId(i as u32))
            .collect();
        let contiguous = RoutePath::new(&net, links.clone());
        prop_assert!(contiguous.is_ok());
        if skip > 0 && links.len() >= 2 {
            // Introduce a gap: must fail with DisconnectedPath.
            let last = links.len() - 1;
            let broken = LinkId((links[last].index() as u32 + 1 + skip as u32).min(7));
            if !net.adjacent(links[last - 1], broken) {
                links[last] = broken;
                let result = RoutePath::new(&net, links);
                let rejected = matches!(
                    result,
                    Err(ModelError::DisconnectedPath { .. }) | Err(ModelError::UnknownLink(_))
                );
                prop_assert!(rejected, "gap must be rejected: {result:?}");
            }
        }
    }

    /// LinkLoad arithmetic: merge then total equals sum of totals; scale is
    /// linear; support never reports zeros.
    #[test]
    fn load_arithmetic(
        a in proptest::collection::vec(0.0f64..10.0, 6),
        b in proptest::collection::vec(0.0f64..10.0, 6),
        factor in 0.0f64..5.0,
    ) {
        let mk = |v: &Vec<f64>| {
            let mut l = LinkLoad::new(6);
            for (i, &x) in v.iter().enumerate() {
                l.set(LinkId(i as u32), x);
            }
            l
        };
        let la = mk(&a);
        let lb = mk(&b);
        let mut merged = la.clone();
        merged.merge(&lb);
        prop_assert!((merged.total() - (la.total() + lb.total())).abs() < 1e-9);
        let mut scaled = la.clone();
        scaled.scale(factor);
        prop_assert!((scaled.total() - factor * la.total()).abs() < 1e-6);
        for (_, v) in scaled.support() {
            prop_assert!(v != 0.0);
        }
    }

    /// Random dense interference matrices constructed via `from_fn` always
    /// validate, and their measure is between congestion and total load.
    #[test]
    fn dense_measure_bounded_by_identity_and_complete(
        entries in proptest::collection::vec(0.0f64..1.0, 25),
        load_v in proptest::collection::vec(0.0f64..4.0, 5),
    ) {
        let m = 5;
        let dense = DenseInterference::from_fn(m, |on, from| {
            entries[on.index() * m + from.index()]
        });
        prop_assert!(validate(&dense).is_ok());
        let mut load = LinkLoad::new(m);
        for (i, &x) in load_v.iter().enumerate() {
            load.set(LinkId(i as u32), x);
        }
        let identity = IdentityInterference::new(m).measure(&load);
        let complete = CompleteInterference::new(m).measure(&load);
        let measured = dense.measure(&load);
        prop_assert!(measured + 1e-9 >= identity, "measure {measured} < congestion {identity}");
        prop_assert!(measured <= complete + 1e-9, "measure {measured} > total {complete}");
    }

    /// Threshold feasibility never lets two packets share a link, and on
    /// the identity model everything else succeeds.
    #[test]
    fn threshold_feasibility_identity_semantics(
        links in proptest::collection::vec(0u32..5, 1..12),
    ) {
        let attempts: Vec<_> = links
            .iter()
            .enumerate()
            .map(|(i, &l)| Attempt {
                link: LinkId(l),
                packet: PacketId(i as u64),
            })
            .collect();
        let oracle = ThresholdFeasibility::new(IdentityInterference::new(5));
        let reference = PerLinkFeasibility::new(5);
        let mut rng1 = split_stream(1, 0);
        let mut rng2 = split_stream(1, 0);
        prop_assert_eq!(
            oracle.successes(&attempts, &mut rng1),
            reference.successes(&attempts, &mut rng2)
        );
    }

    /// Algorithm 1 never serves a request twice and never exceeds its
    /// declared budget by more than the run loop allows.
    #[test]
    fn transform_serves_each_request_at_most_once(
        n in 1usize..60,
        seed in 0u64..50,
    ) {
        let m = 4;
        let requests: Vec<Request> = (0..n)
            .map(|i| Request {
                packet: PacketId(i as u64),
                link: LinkId((i % m) as u32),
            })
            .collect();
        let model = CompleteInterference::new(m);
        let i = requests_measure(&model, &requests);
        let transform = DenseTransform::new(UniformRateScheduler::new(), m).with_chi(6.0);
        let feas = ThresholdFeasibility::new(model);
        let mut rng = split_stream(seed, 5);
        let budget = transform.slots_needed(i, n);
        let result = run_static(&transform, &requests, i, &feas, budget, &mut rng);
        // served_at is Some exactly where served is true, and slots are
        // within the executed range.
        for (idx, served) in result.served.iter().enumerate() {
            prop_assert_eq!(result.served_at[idx].is_some(), *served);
            if let Some(slot) = result.served_at[idx] {
                prop_assert!(slot < result.slots_used);
            }
        }
    }

    /// Networks built from random link lists expose consistent adjacency.
    #[test]
    fn network_adjacency_is_consistent(edges in proptest::collection::vec((0u32..6, 0u32..6), 1..15)) {
        let mut b = NetworkBuilder::new();
        let nodes = b.add_nodes(6);
        for &(s, d) in &edges {
            b.add_link(nodes[s as usize], nodes[d as usize]);
        }
        let net = b.build();
        prop_assert_eq!(net.num_links(), edges.len());
        for node in net.node_ids() {
            for &l in net.outgoing(node) {
                prop_assert_eq!(net.link(l).src, node);
            }
            for &l in net.incoming(node) {
                prop_assert_eq!(net.link(l).dst, node);
            }
        }
        let out_total: usize = net.node_ids().map(|v| net.outgoing(v).len()).sum();
        prop_assert_eq!(out_total, edges.len());
    }

    /// The batch injection engine (skip-ahead calendar or counting
    /// batch, selected from the totals) is distribution-equivalent to
    /// the model's naive per-generator Bernoulli loop: over a long
    /// horizon both hit the analytic expected injection count, each
    /// generator fires at most once per slot, and the selected mode
    /// never changes the support.
    #[test]
    fn batch_injector_matches_naive_distribution(
        m in 1usize..24,
        p in 0.0005f64..0.9,
        seed in 0u64..64,
    ) {
        use dps_core::injection::batch::BatchStochasticInjector;
        use dps_core::injection::stochastic::uniform_generators;
        use dps_core::injection::Injector;
        use rand::Rng;

        let routes: Vec<_> = (0..m as u32)
            .map(|l| RoutePath::single_hop(LinkId(l)).shared())
            .collect();
        let mut batch = BatchStochasticInjector::from(uniform_generators(routes, p).unwrap());

        // Scale the horizon so each generator expects ≥ ~40 injections.
        let slots = ((40.0 / p).ceil() as u64).clamp(2_000, 200_000);
        let expected = m as f64 * p * slots as f64;

        let mut rng_b = split_stream(seed, 0);
        let mut rng_n = split_stream(seed, 1);
        let mut buf = Vec::new();
        let (mut total_b, mut total_n) = (0u64, 0u64);
        for slot in 0..slots {
            batch.inject_into(slot, &mut rng_b, &mut buf);
            prop_assert!(buf.len() <= m, "more packets than generators");
            let mut seen = vec![false; m];
            for route in &buf {
                let g = route.hop(0).unwrap().index();
                prop_assert!(!seen[g], "generator {g} fired twice in slot {slot}");
                seen[g] = true;
            }
            total_b += buf.len() as u64;
            // The naive side: one Bernoulli(p) draw per generator.
            total_n += (0..m).filter(|_| rng_n.gen::<f64>() < p).count() as u64;
        }
        // Both samplers within 6 sigma of the analytic expectation
        // (binomial σ = √(N·p·(1−p)) per generator-slot trial).
        let sigma = (expected * (1.0 - p)).sqrt().max(1.0);
        let tol = 6.0 * sigma;
        prop_assert!(
            (total_b as f64 - expected).abs() < tol,
            "batch total {total_b} vs expected {expected} (tol {tol})"
        );
        prop_assert!(
            (total_n as f64 - expected).abs() < tol,
            "naive total {total_n} vs expected {expected} (tol {tol})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The zero-allocation `Protocol::step` path and the legacy
    /// owned-`Vec` `on_slot` shim are the same protocol: over random
    /// small scenarios (topology size, route length, rate, loss, seed)
    /// both must produce identical `SlotOutcome` streams, identical
    /// backlogs and identical potentials at every slot.
    #[test]
    fn step_and_on_slot_produce_identical_streams(
        num_links in 2usize..6,
        hops in 1usize..4,
        lambda in 0.1f64..0.8,
        loss in 0.0f64..0.6,
        seed in 0u64..512,
    ) {
        use dps_core::dynamic::{DynamicProtocol, FrameConfig};
        use dps_core::feasibility::LossyFeasibility;
        use dps_core::injection::batch::BatchStochasticInjector;
        use dps_core::injection::stochastic::uniform_generators;
        use dps_core::injection::Injector;
        use dps_core::packet::Packet;
        use dps_core::protocol::{Protocol, SlotOutcome};
        use dps_core::staticsched::greedy::GreedyPerLink;

        let hops = hops.min(num_links);
        let network = line_network(num_links);
        let routes: Vec<_> = (0..=num_links - hops)
            .map(|start| {
                RoutePath::new(
                    &network,
                    (start..start + hops).map(|i| LinkId(i as u32)).collect(),
                )
                .unwrap()
                .shared()
            })
            .collect();
        let config = FrameConfig::tuned(&GreedyPerLink::new(), num_links, 0.9).unwrap();
        let mut by_step = DynamicProtocol::new(GreedyPerLink::new(), config.clone(), num_links);
        let mut by_shim = DynamicProtocol::new(GreedyPerLink::new(), config, num_links);
        let phy = LossyFeasibility::new(PerLinkFeasibility::new(num_links), loss);

        let mut injector_a = BatchStochasticInjector::from(
            uniform_generators(routes.clone(), lambda / routes.len() as f64).unwrap(),
        );
        let mut injector_b = injector_a.clone();
        let mut rng_a = split_stream(seed, 0);
        let mut rng_b = split_stream(seed, 0);

        let slots = 200u64;
        let mut next_id = 0u64;
        let mut outcome = SlotOutcome::empty();
        for slot in 0..slots {
            let arrivals: Vec<Packet> = injector_a
                .inject(slot, &mut rng_a)
                .into_iter()
                .map(|path| {
                    let p = Packet::new(PacketId(next_id), path, slot);
                    next_id += 1;
                    p
                })
                .collect();
            // Same injection trace for the shim side, drawn from its own
            // (identically seeded) RNG so downstream draws stay aligned.
            let arrivals_b: Vec<Packet> = injector_b
                .inject(slot, &mut rng_b)
                .into_iter()
                .enumerate()
                .map(|(i, path)| Packet::new(PacketId(next_id - arrivals.len() as u64 + i as u64), path, slot))
                .collect();
            prop_assert_eq!(arrivals.len(), arrivals_b.len());

            by_step.step(slot, &arrivals, &phy, &mut rng_a, &mut outcome);
            let owned = by_shim.on_slot(slot, arrivals_b, &phy, &mut rng_b);

            prop_assert_eq!(&outcome.delivered, &owned.delivered, "slot {}", slot);
            prop_assert_eq!(outcome.attempts, owned.attempts, "slot {}", slot);
            prop_assert_eq!(outcome.successes, owned.successes, "slot {}", slot);
            prop_assert_eq!(by_step.backlog(), by_shim.backlog(), "slot {}", slot);
            prop_assert_eq!(by_step.potential(), by_shim.potential(), "slot {}", slot);
        }
        prop_assert_eq!(by_step.take_frame_events(), by_shim.take_frame_events());
    }
}
