//! Property-based tests tying the affectance abstraction to the exact
//! SINR oracle.

#[path = "support/referee.rs"]
mod referee;
#[path = "support/slack.rs"]
mod slack;

use dps_core::feasibility::{Attempt, Feasibility};
use dps_core::ids::{LinkId, PacketId};
use dps_core::interference::{validate, InterferenceModel};
use dps_core::load::LinkLoad;
use dps_sinr::affectance::{affectance, total_affectance};
use dps_sinr::cache::{SinrCache, DEFAULT_DENSE_GAIN_LIMIT};
use dps_sinr::feasibility::SinrFeasibility;
use dps_sinr::instances::random_instance;
use dps_sinr::matrix::SinrInterference;
use dps_sinr::network::{SinrNetwork, SinrNetworkBuilder};
use dps_sinr::params::SinrParams;
use dps_sinr::power::{
    is_monotone_sublinear, LinearPower, PowerAssignment, SquareRootPower, UniformPower,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use referee::successes_naive;
use std::sync::Arc;

fn attempt(link: LinkId, id: u64) -> Attempt {
    Attempt {
        link,
        packet: PacketId(id),
    }
}

/// The exact oracle over a cache that keeps a dense gain table only up
/// to `dense_limit` links (`0`: always the on-the-fly fallback).
fn with_dense_limit<P: PowerAssignment>(
    net: &SinrNetwork,
    power: &P,
    dense_limit: usize,
) -> SinrFeasibility {
    SinrFeasibility::from_cache(Arc::new(SinrCache::with_dense_limit(
        net,
        power,
        dense_limit,
    )))
}

/// One slot's verdicts from the exact oracle under `dense_limit`, and
/// from the naive referee.
fn fast_and_naive<P: PowerAssignment>(
    net: &SinrNetwork,
    power: P,
    dense_limit: usize,
    attempts: &[Attempt],
) -> (Vec<bool>, Vec<bool>) {
    let naive = successes_naive(net, &power, attempts);
    let oracle = with_dense_limit(net, &power, dense_limit);
    let fast = oracle.successes(attempts, &mut ChaCha12Rng::seed_from_u64(1));
    (fast, naive)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The affectance-sum criterion agrees with the exact SINR inequality:
    /// a transmission succeeds iff the total affectance from the other
    /// transmitters is at most 1 (away from the float boundary).
    #[test]
    fn affectance_sum_equals_sinr_condition(seed in 0u64..400, subset_bits in 0u32..63) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let params = SinrParams::default_noiseless();
        let net = random_instance(6, 30.0, 1.0, 3.0, params, &mut rng);
        let power = LinearPower::new(params.alpha);
        let active: Vec<LinkId> = (0..6u32)
            .filter(|i| subset_bits & (1 << i) != 0)
            .map(LinkId)
            .collect();
        prop_assume!(!active.is_empty());
        let oracle = SinrFeasibility::new(&net, &power);
        let attempts: Vec<Attempt> = active
            .iter()
            .enumerate()
            .map(|(i, &l)| attempt(l, i as u64))
            .collect();
        let mut srng = ChaCha12Rng::seed_from_u64(1);
        let successes = oracle.successes(&attempts, &mut srng);
        for (i, &on) in active.iter().enumerate() {
            let others: Vec<LinkId> = active
                .iter()
                .copied()
                .filter(|&l| l != on)
                .collect();
            let sum = total_affectance(&net, &power, &others, on);
            // Clamping at 1 can only hide mass when already infeasible, so
            // away from the boundary the equivalence is exact.
            if (sum - 1.0).abs() > 1e-6 && others.iter().all(|&o| affectance(&net, &power, o, on) < 1.0 - 1e-9) {
                prop_assert_eq!(
                    successes[i],
                    sum < 1.0,
                    "link {} with affectance sum {}",
                    on,
                    sum
                );
            }
        }
    }

    /// Affectance is scale-invariant for noiseless linear powers: scaling
    /// all coordinates leaves every affectance unchanged.
    #[test]
    fn affectance_scale_invariance(seed in 0u64..200, factor in 0.5f64..4.0) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let params = SinrParams::default_noiseless();
        let base = random_instance(4, 20.0, 1.0, 2.0, params, &mut rng);
        // Rebuild the same instance scaled by `factor`.
        let mut b = SinrNetworkBuilder::new(params);
        for link in base.network().link_ids() {
            let s = base.sender_pos(link);
            let r = base.receiver_pos(link);
            b.add_isolated_link((s.x * factor, s.y * factor), (r.x * factor, r.y * factor));
        }
        let scaled = b.build();
        let power = LinearPower::new(params.alpha);
        for from in base.network().link_ids() {
            for on in base.network().link_ids() {
                let a0 = affectance(&base, &power, from, on);
                let a1 = affectance(&scaled, &power, from, on);
                prop_assert!((a0 - a1).abs() < 1e-9, "{a0} vs {a1}");
            }
        }
    }

    /// All three §6 matrix constructions validate on random geometry, and
    /// the fixed-power measure of a single link's load is exactly 1.
    #[test]
    fn matrices_validate_on_random_geometry(seed in 0u64..300) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let params = SinrParams::default_noiseless();
        let net = random_instance(5, 25.0, 0.5, 4.0, params, &mut rng);
        let lin = LinearPower::new(params.alpha);
        let w = SinrInterference::fixed_power(&net, &lin);
        prop_assert!(validate(&w).is_ok());
        prop_assert!(validate(&SinrInterference::monotone_power(&net, &lin)).is_ok());
        prop_assert!(validate(&SinrInterference::power_control(&net)).is_ok());
        let mut load = LinkLoad::new(5);
        load.set(LinkId(0), 1.0);
        // Row 0 sees exactly its own unit load; other rows see at most 1.
        prop_assert!((w.row_load(LinkId(0), &load) - 1.0).abs() < 1e-12);
        prop_assert!(w.measure(&load) >= 1.0 - 1e-12);
    }

    /// The provided power assignments are monotone sub-linear over any
    /// sampled length set (the §6.1 precondition).
    #[test]
    fn assignments_are_monotone_sublinear(
        lengths in proptest::collection::vec(0.2f64..50.0, 2..12),
        alpha in 2.0f64..5.0,
    ) {
        prop_assert!(is_monotone_sublinear(&UniformPower::unit(), alpha, &lengths));
        prop_assert!(is_monotone_sublinear(&LinearPower::new(alpha), alpha, &lengths));
        prop_assert!(is_monotone_sublinear(&SquareRootPower::new(alpha), alpha, &lengths));
    }

    /// The cached fast-path oracle (precomputed signals/margins + dense
    /// gain table, O(k²) over attempted links) makes bit-for-bit the same
    /// decisions as the naive recomputation (O(k·m), sqrt/powf from
    /// scratch) — on random geometry, with duplicate attempts on one link
    /// mixed in, under both uniform and linear powers and with noise.
    #[test]
    fn cached_oracle_matches_naive_bit_for_bit(
        seed in 0u64..500,
        subset_bits in 1u32..255,
        dup_link in 0u32..8,
        noise_sel in 0u32..3,
    ) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let params = match noise_sel {
            0 => SinrParams::default_noiseless(),
            1 => SinrParams::with_noise(1e-4),
            _ => SinrParams::with_noise(0.05),
        };
        let net = random_instance(8, 35.0, 0.8, 3.5, params, &mut rng);
        let mut attempts: Vec<Attempt> = (0..8u32)
            .filter(|i| subset_bits & (1 << i) != 0)
            .enumerate()
            .map(|(i, l)| attempt(LinkId(l), i as u64))
            .collect();
        // A same-link collision with probability ~1/2, to exercise the
        // multiplicity rule and count-weighted interference.
        if subset_bits & (1 << (dup_link % 8)) != 0 {
            attempts.push(attempt(LinkId(dup_link % 8), 99));
        }
        for power_sel in 0..2 {
            // Dense gain table, then the on-the-fly fallback.
            for (path, limit) in [("dense", DEFAULT_DENSE_GAIN_LIMIT), ("fallback", 0)] {
                let (fast, naive) = if power_sel == 0 {
                    fast_and_naive(&net, UniformPower::unit(), limit, &attempts)
                } else {
                    fast_and_naive(&net, LinearPower::new(params.alpha), limit, &attempts)
                };
                prop_assert_eq!(&fast, &naive, "{} path diverged (power {})", path, power_sel);
            }
        }
    }

    /// The line-network edge case: consecutive links share a node, so a
    /// cross distance of exactly zero occurs — the cached NaN encoding
    /// must reproduce the naive "blocked receiver" verdicts.
    #[test]
    fn cached_oracle_matches_naive_on_shared_nodes(hops in 2usize..7, spacing in 0.5f64..3.0) {
        let net = dps_sinr::instances::line_instance(
            hops, spacing, SinrParams::default_noiseless());
        let power = UniformPower::unit();
        let attempts: Vec<Attempt> = (0..hops as u32)
            .map(|l| attempt(LinkId(l), l as u64))
            .collect();
        let naive = successes_naive(&net, &power, &attempts);
        // The dense table, then on-the-fly cube gains, where a zero
        // cross distance makes a cube of 0 and must fall back.
        for limit in [DEFAULT_DENSE_GAIN_LIMIT, 0] {
            let oracle = with_dense_limit(&net, &power, limit);
            let mut srng = ChaCha12Rng::seed_from_u64(3);
            let fast = oracle.successes(&attempts, &mut srng);
            prop_assert_eq!(&fast, &naive, "dense limit {}", limit);
            let blocked = hops as u64 - 1;
            prop_assert!(limit > 0 || oracle.cache().cube_fallbacks() >= blocked);
        }
    }

    /// The blocked kernel at slot sizes spanning several lane blocks plus
    /// a remainder: on 24-link geometry, every subset of up to 24
    /// attempted links — with duplicate attempts sprinkled in — must
    /// produce bit-for-bit the naive verdicts, through the dense table
    /// (the blocked kernel), through the on-the-fly fallback (the scalar
    /// path), and through a dense-table limit of exactly 24 links.
    #[test]
    fn blocked_kernel_matches_naive_at_multi_lane_widths(
        seed in 0u64..300,
        subset_bits in 1u32..0xff_ffff,
        dup_a in 0u32..24,
        dup_b in 0u32..24,
        noisy in 0u32..2,
    ) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let params = if noisy == 1 {
            SinrParams::with_noise(1e-3)
        } else {
            SinrParams::default_noiseless()
        };
        let net = random_instance(24, 60.0, 0.8, 3.0, params, &mut rng);
        let mut attempts: Vec<Attempt> = (0..24u32)
            .filter(|i| subset_bits & (1 << i) != 0)
            .enumerate()
            .map(|(i, l)| attempt(LinkId(l), i as u64))
            .collect();
        // Two duplicate attempts: multiplicity 2 (and possibly 3) links
        // exercise the count-weighted lanes and the collision rule.
        attempts.push(attempt(LinkId(dup_a), 100));
        attempts.push(attempt(LinkId(dup_b), 101));
        let power = LinearPower::new(params.alpha);
        let oracles = [
            SinrFeasibility::new(&net, &power),
            with_dense_limit(&net, &power, 0),
            with_dense_limit(&net, &power, 24),
        ];
        prop_assert!(oracles[0].cache().is_dense());
        prop_assert!(!oracles[1].cache().is_dense());
        prop_assert!(oracles[2].cache().is_dense());
        let mut srng = ChaCha12Rng::seed_from_u64(5);
        let naive = successes_naive(&net, &power, &attempts);
        for (which, oracle) in oracles.iter().enumerate() {
            let fast = oracle.successes(&attempts, &mut srng);
            prop_assert_eq!(&fast, &naive, "oracle {} diverged", which);
        }
    }

    /// Shared-node (zero cross distance) links mixed with duplicates at
    /// multi-lane widths: the dense kernel's NaN rows must poison exactly
    /// the receivers the naive rule blocks.
    #[test]
    fn blocked_kernel_matches_naive_on_long_shared_node_lines(
        hops in 5usize..20,
        spacing in 0.5f64..3.0,
        dup in 0u32..5,
    ) {
        let net = dps_sinr::instances::line_instance(
            hops, spacing, SinrParams::default_noiseless());
        let power = UniformPower::unit();
        let oracle = SinrFeasibility::new(&net, &power);
        let mut attempts: Vec<Attempt> = (0..hops as u32)
            .map(|l| attempt(LinkId(l), l as u64))
            .collect();
        attempts.push(attempt(LinkId(dup % hops as u32), 99));
        let mut srng = ChaCha12Rng::seed_from_u64(3);
        let fast = oracle.successes(&attempts, &mut srng);
        let naive = successes_naive(&net, &power, &attempts);
        prop_assert_eq!(fast, naive);
    }

    /// Certified cube verdicts at the SINR threshold on the exact path:
    /// random instances with gains on the fly (dense limit 0), where `β`
    /// and `ν` put one receiver's slack at 0, ±1, ±4 and ±64 ulps of its
    /// `powf` sum's threshold. Every verdict must be the naive referee's;
    /// at α = 3 the receiver at slack 0 must fall back to the `powf`
    /// sum, and at α = 2.5 the cube is never used.
    #[test]
    fn cube_verdicts_are_the_naive_verdicts_at_the_threshold(
        seed in 0u64..10_000,
        m in 2usize..14,
        alpha_sel in 0usize..2,
        pick in 0u32..14,
        subset_bits in 0u32..0x4000,
    ) {
        let alpha = [3.0, 2.5][alpha_sel];
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let params = SinrParams::new(alpha, 2.0, 0.0);
        let geometry = random_instance(m, 12.0, 0.8, 3.0, params, &mut rng);
        let power = LinearPower::new(alpha);
        let on = pick % m as u32;
        let attempts: Vec<Attempt> = (0..m as u32)
            .filter(|&l| l == on || subset_bits & (1 << l) != 0)
            .map(|l| attempt(LinkId(l), l as u64))
            .collect();
        // The receiver's `powf` sum, in the oracle's order.
        let base = with_dense_limit(&geometry, &power, 0);
        let sum = attempts
            .iter()
            .filter(|a| a.link.0 != on)
            .fold(0.0, |sum, a| sum + base.cache().gain(a.link, LinkId(on)));
        let signal = base.cache().signal(LinkId(on));
        prop_assume!(sum > 0.0 && sum.is_finite());
        for ulps in [0, 1, -1, 4, -4, 64, -64] {
            let params = slack::params_for_slack(alpha, signal, sum, ulps)
                .expect("a finite positive sum has every slack");
            let net = slack::with_params(&geometry, params);
            let oracle = with_dense_limit(&net, &power, 0);
            let verdicts = oracle.successes(&attempts, &mut ChaCha12Rng::seed_from_u64(1));
            let naive = successes_naive(&net, &power, &attempts);
            prop_assert_eq!(&verdicts, &naive, "ulps {}", ulps);
            let fallbacks = oracle.cache().cube_fallbacks();
            if alpha != 3.0 {
                prop_assert_eq!(fallbacks, 0);
            } else if ulps == 0 {
                prop_assert!(fallbacks >= 1, "the receiver at its threshold must fall back");
            }
        }
    }

    /// Feasibility is monotone under removal: if a set of transmissions
    /// lets link x succeed, removing other transmitters keeps x succeeding
    /// (noise-free SINR has no capture inversions).
    #[test]
    fn success_is_monotone_under_removal(seed in 0u64..200, drop_idx in 0usize..5) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let params = SinrParams::default_noiseless();
        let net = random_instance(6, 40.0, 1.0, 3.0, params, &mut rng);
        let oracle = SinrFeasibility::new(&net, &UniformPower::unit());
        let all: Vec<Attempt> = (0..6u32).map(|l| attempt(LinkId(l), l as u64)).collect();
        let mut srng = ChaCha12Rng::seed_from_u64(2);
        let full = oracle.successes(&all, &mut srng);
        let reduced: Vec<Attempt> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != drop_idx.min(5))
            .map(|(_, &a)| a)
            .collect();
        let after = oracle.successes(&reduced, &mut srng);
        for (i, a) in reduced.iter().enumerate() {
            let before = full[all.iter().position(|b| b.link == a.link).unwrap()];
            if before {
                prop_assert!(after[i], "link {} regressed after removal", a.link);
            }
        }
    }
}
