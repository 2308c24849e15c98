//! Referee suite for the spatially-tiled SINR substrate: the tiled
//! oracle vs the exact one. It reads the kernel's per-receiver sums
//! through the test-only `slot_interference`, so it runs as unit tests.
//!
//! The contract under test ([`crate::tiles`]):
//!
//! * `epsilon = 0`, or any index that far-qualifies no tile pair —
//!   bit-for-bit: verdicts and per-receiver interference sums identical
//!   to the exact oracle (and hence to the naive referee of
//!   `tests/support/referee.rs`), with and without a dense gain table.
//! * `epsilon > 0` — bounded: per-receiver interference within
//!   `epsilon · margin` of the exact sum (for positive margins; a
//!   non-positive margin disqualifies its whole receiver tile from
//!   far-field aggregation, so those receivers stay bit-exact), and
//!   verdicts identical whenever the exact comparison sits outside the
//!   error band.
//! * Zero cross distances (shared nodes) poison both paths with `NaN`
//!   at any epsilon: coincident points share a tile and tiles only
//!   far-qualify at strictly positive centre separation.

#[path = "../../../tests/support/referee.rs"]
pub(super) mod referee;

use crate::cache::{SinrCache, DEFAULT_DENSE_GAIN_LIMIT};
use crate::feasibility::SinrFeasibility;
use crate::instances::{line_instance, random_instance};
use crate::network::{SinrNetwork, SinrNetworkBuilder};
use crate::params::SinrParams;
use crate::power::{LinearPower, PowerAssignment, UniformPower};
use crate::tiles::{PanelCacheMode, TileOptions, TiledSinrCache, TiledSinrFeasibility};
use dps_core::feasibility::{Attempt, Feasibility};
use dps_core::ids::{LinkId, PacketId};
use proptest::prelude::*;
use proptest::TestCaseError;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use referee::successes_naive;
use std::sync::Arc;

fn attempt(link: u32, id: u64) -> Attempt {
    Attempt {
        link: LinkId(link),
        packet: PacketId(id),
    }
}

/// The epsilon lattice the referee pins: exact, tight, loose.
const EPSILONS: [f64; 3] = [0.0, 1e-6, 1e-2];

/// Distinct attempted links with multiplicities, ascending — the shared
/// preamble of both kernels, reproduced independently here.
pub(super) fn dedup(attempts: &[Attempt]) -> Vec<(u32, u32)> {
    let mut active: Vec<(u32, u32)> = attempts.iter().map(|a| (a.link.0, 1)).collect();
    active.sort_unstable_by_key(|&(link, _)| link);
    let mut out: Vec<(u32, u32)> = Vec::new();
    for (link, count) in active {
        match out.last_mut() {
            Some(last) if last.0 == link => last.1 += count,
            _ => out.push((link, count)),
        }
    }
    out
}

/// Runs the full referee for one `(net, power, attempts, options)` cell
/// over a geometry cache that keeps a dense gain table up to
/// `dense_limit` links (`0`: the on-the-fly fallback):
/// naive-vs-cached sanity, interference-sum pinning, and band-aware
/// verdict comparison. An index without far pairs must be bitwise
/// exact at any epsilon.
fn referee_at<P: PowerAssignment + Clone>(
    net: &SinrNetwork,
    power: P,
    attempts: &[Attempt],
    options: TileOptions,
    dense_limit: usize,
) -> Result<(), TestCaseError> {
    let shared = Arc::new(SinrCache::with_dense_limit(net, &power, dense_limit));
    let exact = SinrFeasibility::from_cache(Arc::clone(&shared));
    let tiles = Arc::new(TiledSinrCache::with_options(shared, options));
    let tiled = TiledSinrFeasibility::from_tiles(tiles);
    let eps = options.epsilon;
    // Always true at ε = 0, which qualifies no pair.
    let bitwise = tiled.tiles().far_pairs() == 0;
    let mut srng = ChaCha12Rng::seed_from_u64(7);
    let naive = successes_naive(net, &power, attempts);
    let fast = exact.successes(attempts, &mut srng.clone());
    prop_assert_eq!(&fast, &naive, "exact oracle self-check diverged");
    let tiled_verdicts = tiled.successes(attempts, &mut srng);

    let cache = exact.cache();
    let beta = cache.beta();
    let noise = cache.noise();
    let active = dedup(attempts);
    let tiled_sums = tiled.slot_interference(attempts);
    prop_assert_eq!(tiled_sums.len(), active.len());

    // Exact per-receiver sums, recomputed in kernel order (ascending
    // link index, count-weighted) from the cache's gain expression.
    let mut exact_sums = Vec::with_capacity(active.len());
    for &(on_raw, _) in &active {
        let on = LinkId(on_raw);
        let mut sum = 0.0f64;
        for &(from_raw, count) in &active {
            if from_raw == on_raw {
                continue;
            }
            sum += count as f64 * cache.gain(LinkId(from_raw), on);
        }
        exact_sums.push(sum);
    }

    for (slot, &(on_raw, _)) in active.iter().enumerate() {
        let on = LinkId(on_raw);
        let (tiled_link, tiled_sum) = tiled_sums[slot];
        prop_assert_eq!(tiled_link, on);
        let exact_sum = exact_sums[slot];
        let margin = cache.margin(on);
        if bitwise || margin <= 0.0 || margin.is_nan() {
            // An index without far pairs has nothing to aggregate, and a
            // non-positive (or NaN) margin disqualifies the receiver's
            // tile. Either way the sum must be the exact bits.
            prop_assert_eq!(
                exact_sum.to_bits(),
                tiled_sum.to_bits(),
                "link {} (eps {}, margin {}): {} vs {}",
                on,
                eps,
                margin,
                exact_sum,
                tiled_sum
            );
        } else if exact_sum.is_nan() {
            prop_assert!(
                tiled_sum.is_nan(),
                "link {}: NaN blockage lost by the tiled path",
                on
            );
        } else {
            // |I_tiled − I_exact| ≤ ε·margin, with a relative-rounding
            // slack for the far aggregate's reassociated additions.
            let slack = 1e-12 * exact_sum.abs().max(margin);
            prop_assert!(
                (tiled_sum - exact_sum).abs() <= eps * margin + slack,
                "link {}: |{} - {}| > {}·{}",
                on,
                tiled_sum,
                exact_sum,
                eps,
                margin
            );
        }
    }

    if bitwise {
        prop_assert_eq!(
            &tiled_verdicts,
            &naive,
            "verdicts without far pairs diverged (ε {})",
            eps
        );
    } else {
        // Verdicts must agree whenever the exact comparison clears the
        // error band; inside the band either answer is within contract.
        for (j, a) in attempts.iter().enumerate() {
            let slot = active
                .binary_search_by_key(&a.link.0, |&(link, _)| link)
                .expect("attempted link is active");
            let (_, count) = active[slot];
            if count != 1 {
                prop_assert!(!naive[j] && !tiled_verdicts[j], "collisions fail both");
                continue;
            }
            let on = LinkId(a.link.0);
            let margin = cache.margin(on);
            let exact_sum = exact_sums[slot];
            if exact_sum.is_nan() {
                prop_assert!(!naive[j] && !tiled_verdicts[j], "NaN blocks both");
                continue;
            }
            let band = if margin > 0.0 {
                beta * (eps * margin + 2e-12 * exact_sum.abs().max(margin))
            } else {
                0.0
            };
            let gap = cache.signal(on) - beta * (exact_sum + noise);
            if gap.abs() > band {
                prop_assert_eq!(
                    tiled_verdicts[j],
                    naive[j],
                    "link {} flipped outside the ε-band (gap {}, band {})",
                    on,
                    gap,
                    band
                );
            }
        }
    }
    Ok(())
}

/// The flat single-threaded referee cell — the pre-hierarchy contract —
/// with and without the dense gain table.
fn referee<P: PowerAssignment + Clone>(
    net: &SinrNetwork,
    power: P,
    attempts: &[Attempt],
    grid: usize,
    eps: f64,
) -> Result<(), TestCaseError> {
    for dense_limit in [DEFAULT_DENSE_GAIN_LIMIT, 0] {
        let options = TileOptions::new(grid, eps);
        referee_at(net, power.clone(), attempts, options, dense_limit)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random geometry across the epsilon lattice, subsets with
    /// duplicate attempts mixed in, uniform and linear powers, with and
    /// without noise, with and without the dense gain table, at
    /// `α = 3` (far charges through `d·d·d`) and at `α = 2.5` and `4`
    /// (through `powf`). The one-tile grid and every other index
    /// without far pairs must be bitwise exact at ε > 0 too: the oracle
    /// hands those slots to the exact check.
    #[test]
    fn tiled_oracle_respects_error_contract(
        seed in 0u64..500,
        subset_bits in 1u32..0xff_ffff,
        dup_a in 0u32..24,
        dup_b in 0u32..24,
        grid in 1usize..9,
        eps_sel in 0usize..3,
        noisy in 0u32..2,
        power_sel in 0u32..2,
        levels in 1usize..5,
        dense in 0u32..2,
        alpha_sel in 0usize..3,
    ) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let alpha = [3.0, 2.5, 4.0][alpha_sel];
        let noise = if noisy == 1 { 1e-3 } else { 0.0 };
        let params = SinrParams::new(alpha, 2.0, noise);
        let net = random_instance(24, 120.0, 0.8, 3.0, params, &mut rng);
        let mut attempts: Vec<Attempt> = (0..24u32)
            .filter(|i| subset_bits & (1 << i) != 0)
            .enumerate()
            .map(|(i, l)| attempt(l, i as u64))
            .collect();
        attempts.push(attempt(dup_a, 100));
        attempts.push(attempt(dup_b, 101));
        let options = TileOptions::new(grid, EPSILONS[eps_sel]).with_levels(levels);
        let dense_limit = if dense == 1 { DEFAULT_DENSE_GAIN_LIMIT } else { 0 };
        if power_sel == 0 {
            referee_at(&net, UniformPower::unit(), &attempts, options, dense_limit)?;
        } else {
            let power = LinearPower::new(alpha);
            referee_at(&net, power, &attempts, options, dense_limit)?;
        }
    }

    /// Shared-node lines: zero cross distances at every grid resolution
    /// and epsilon — the NaN blockage rule must survive tiling, and
    /// ε = 0 stays bit-for-bit.
    #[test]
    fn tiled_oracle_preserves_zero_distance_blockage(
        hops in 2usize..20,
        spacing in 0.5f64..3.0,
        dup in 0u32..5,
        grid in 1usize..9,
        eps_sel in 0usize..3,
    ) {
        let net = line_instance(hops, spacing, SinrParams::default_noiseless());
        let mut attempts: Vec<Attempt> = (0..hops as u32)
            .map(|l| attempt(l, l as u64))
            .collect();
        attempts.push(attempt(dup % hops as u32, 99));
        let options = TileOptions::new(grid, EPSILONS[eps_sel]).with_levels(1 + (hops % 3));
        referee_at(&net, UniformPower::unit(), &attempts, options, DEFAULT_DENSE_GAIN_LIMIT)?;
    }

    /// Hierarchical coarsening vs the flat grid vs the naive oracle:
    /// ε = 0 is bit-for-bit at every depth, and every depth
    /// independently honours the ε-band contract. On top of the
    /// per-config referee, all depths must agree bitwise with the flat
    /// sums at ε = 0.
    #[test]
    fn hierarchy_depth_and_threads_preserve_the_contract(
        seed in 0u64..200,
        grid in 4usize..17,
        eps_sel in 0usize..3,
    ) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let params = SinrParams::with_noise(1e-4);
        let net = random_instance(32, 200.0, 0.8, 3.0, params, &mut rng);
        let attempts: Vec<Attempt> = (0..32u32).map(|l| attempt(l, l as u64)).collect();
        let eps = EPSILONS[eps_sel];
        let flat = TiledSinrFeasibility::with_options(
            &net,
            &UniformPower::unit(),
            TileOptions::new(grid, eps),
        );
        let flat_sums = flat.slot_interference(&attempts);
        for levels in [2usize, 4] {
            let options = TileOptions::new(grid, eps).with_levels(levels);
            referee_at(&net, UniformPower::unit(), &attempts, options, DEFAULT_DENSE_GAIN_LIMIT)?;
            if eps == 0.0 {
                let deep = TiledSinrFeasibility::with_options(&net, &UniformPower::unit(), options);
                let deep_sums = deep.slot_interference(&attempts);
                for (&(link_a, sum_a), &(link_b, sum_b)) in flat_sums.iter().zip(&deep_sums) {
                    prop_assert_eq!(link_a, link_b);
                    prop_assert_eq!(
                        sum_a.to_bits(), sum_b.to_bits(),
                        "levels {} diverged at {}", levels, link_a
                    );
                }
            }
        }
    }

    /// Adaptive panel eviction under a one-panel budget must not change
    /// a single bit relative to the fixed build-time panels: the cache
    /// replacement policy is a speed layer, not a semantic one.
    #[test]
    fn adaptive_eviction_is_bitwise_neutral(
        seed in 0u64..200,
        grid in 2usize..9,
        eps_sel in 0usize..3,
        levels in 1usize..4,
    ) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let params = SinrParams::default_noiseless();
        let net = random_instance(16, 80.0, 0.8, 3.0, params, &mut rng);
        let attempts: Vec<Attempt> = (0..16u32).map(|l| attempt(l, l as u64)).collect();
        let eps = EPSILONS[eps_sel];
        let fixed = TiledSinrFeasibility::with_options(
            &net,
            &UniformPower::unit(),
            TileOptions::new(grid, eps).with_levels(levels),
        );
        // Budget fits at most one 4×4 panel, so any second panel evicts.
        let adaptive = TiledSinrFeasibility::with_options(
            &net,
            &UniformPower::unit(),
            TileOptions::new(grid, eps)
                .with_levels(levels)
                .with_panel_mode(PanelCacheMode::Adaptive)
                .with_panel_budget(16 * std::mem::size_of::<f64>()),
        );
        let srng = ChaCha12Rng::seed_from_u64(23);
        for _ in 0..3 {
            prop_assert_eq!(
                fixed.successes(&attempts, &mut srng.clone()),
                adaptive.successes(&attempts, &mut srng.clone())
            );
        }
        let a = fixed.slot_interference(&attempts);
        let b = adaptive.slot_interference(&attempts);
        for ((link_a, sum_a), (link_b, sum_b)) in a.into_iter().zip(b) {
            prop_assert_eq!(link_a, link_b);
            prop_assert_eq!(sum_a.to_bits(), sum_b.to_bits(), "at {}", link_a);
        }
    }

    /// Slots with random active subsets hit resident adaptive panels
    /// again with receiver rows no earlier slot filled. Partially
    /// filled panels must read bitwise like the fixed store: verdicts
    /// and interference sums every slot. Budgets hold one to three of
    /// the largest possible panels, or are unbounded. (The unit test
    /// `tiles::tests::partial_panel_cells_are_the_gain_expression`
    /// compares every filled panel cell with the geometry cache.)
    #[test]
    fn partial_panels_are_bitwise_neutral(
        seed in 0u64..200,
        grid in 2usize..9,
        eps_sel in 1usize..3,
        levels in 1usize..4,
        budget_panels in 1usize..5,
        masks in proptest::collection::vec(1u32..0x1_0000, 4..8),
        dup in 0u32..16,
    ) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let params = SinrParams::default_noiseless();
        let net = random_instance(16, 80.0, 0.8, 3.0, params, &mut rng);
        let eps = EPSILONS[eps_sel];
        let fixed = TiledSinrFeasibility::with_options(
            &net,
            &UniformPower::unit(),
            TileOptions::new(grid, eps).with_levels(levels),
        );
        let tiles = fixed.tiles();
        let largest = |tile_of: &dyn Fn(LinkId) -> u32| {
            let mut count = vec![0usize; tiles.num_tiles()];
            for l in 0..16 {
                count[tile_of(LinkId(l)) as usize] += 1;
            }
            count.into_iter().max().unwrap_or(0)
        };
        let panel_bytes = largest(&|l| tiles.sender_tile_of(l))
            * largest(&|l| tiles.receiver_tile_of(l))
            * std::mem::size_of::<f64>();
        let budget = if budget_panels == 4 {
            usize::MAX
        } else {
            budget_panels * panel_bytes
        };
        let adaptive = TiledSinrFeasibility::with_options(
            &net,
            &UniformPower::unit(),
            TileOptions::new(grid, eps)
                .with_levels(levels)
                .with_panel_mode(PanelCacheMode::Adaptive)
                .with_panel_budget(budget),
        );
        let srng = ChaCha12Rng::seed_from_u64(29);
        for (slot, mask) in masks.iter().enumerate() {
            let mut attempts: Vec<Attempt> = (0..16u32)
                .filter(|l| mask & (1 << l) != 0)
                .map(|l| attempt(l, l as u64))
                .collect();
            if slot % 2 == 1 {
                attempts.push(attempt(dup, 100));
            }
            prop_assert_eq!(
                fixed.successes(&attempts, &mut srng.clone()),
                adaptive.successes(&attempts, &mut srng.clone()),
                "slot {}", slot
            );
            let a = fixed.slot_interference(&attempts);
            let b = adaptive.slot_interference(&attempts);
            for ((link_a, sum_a), (link_b, sum_b)) in a.into_iter().zip(b) {
                prop_assert_eq!(link_a, link_b);
                prop_assert_eq!(sum_a.to_bits(), sum_b.to_bits(), "slot {} at {}", slot, link_a);
            }
        }
    }

    /// Tiny panel budgets must not change a single bit: panels are a
    /// speed layer, not a semantic one. The geometry always far-qualifies
    /// some pair, so every slot goes through the tiled kernel, which
    /// reads the panels: one corner-to-corner link pins the grid to
    /// `[0, side]²`, and every other sender sits on its leaf tile's
    /// centre, its receiver a short hop away. A tile without the corner
    /// sender then has radius 0, so it is far from every receiver tile
    /// it does not overlap.
    #[test]
    fn panel_budget_is_bitwise_neutral(
        seed in 0u64..200,
        budget_cells in 0usize..80,
        grid in 2usize..5,
        eps_sel in 0usize..2,
    ) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let side = 60.0 * grid as f64;
        let mut b = SinrNetworkBuilder::new(SinrParams::default_noiseless());
        b.add_isolated_link((0.0, 0.0), (side, side));
        for _ in 1..12 {
            let col = rng.gen_range(0..grid) as f64;
            let row = rng.gen_range(0..grid) as f64;
            let (sx, sy) = ((col + 0.5) * 60.0, (row + 0.5) * 60.0);
            let angle = rng.gen::<f64>() * std::f64::consts::TAU;
            let len = 0.8 + rng.gen::<f64>() * 2.0;
            b.add_isolated_link((sx, sy), (sx + len * angle.cos(), sy + len * angle.sin()));
        }
        let net = b.build();
        let eps = [1e-3, 1e-2][eps_sel];
        let attempts: Vec<Attempt> = (0..12u32).map(|l| attempt(l, l as u64)).collect();
        let full = TiledSinrFeasibility::new(
            &net, &UniformPower::unit(), grid, eps);
        prop_assert!(full.tiles().far_pairs() > 0, "the geometry must far-qualify a pair");
        let starved = TiledSinrFeasibility::with_options(
            &net,
            &UniformPower::unit(),
            TileOptions::new(grid, eps)
                .with_panel_budget(budget_cells * std::mem::size_of::<f64>()),
        );
        let srng = ChaCha12Rng::seed_from_u64(11);
        prop_assert_eq!(
            full.successes(&attempts, &mut srng.clone()),
            starved.successes(&attempts, &mut srng.clone())
        );
        let a = full.slot_interference(&attempts);
        let b = starved.slot_interference(&attempts);
        for ((link_a, sum_a), (link_b, sum_b)) in a.into_iter().zip(b) {
            prop_assert_eq!(link_a, link_b);
            prop_assert_eq!(sum_a.to_bits(), sum_b.to_bits(), "at {}", link_a);
        }
    }
}

/// The largest referee size: one deterministic m = 256 instance
/// across the full epsilon lattice, everything transmitting plus
/// duplicates.
#[test]
fn referee_at_m_256_across_epsilons() {
    let mut rng = ChaCha12Rng::seed_from_u64(2012);
    let params = SinrParams::with_noise(1e-4);
    let net = random_instance(256, 400.0, 0.8, 3.0, params, &mut rng);
    let mut attempts: Vec<Attempt> = (0..256u32).map(|l| attempt(l, l as u64)).collect();
    attempts.push(attempt(17, 500));
    attempts.push(attempt(200, 501));
    for grid in [1usize, 4, 16] {
        for eps in EPSILONS {
            referee(&net, LinearPower::new(params.alpha), &attempts, grid, eps)
                .unwrap_or_else(|e| panic!("grid {grid}, eps {eps}: {e}"));
        }
    }
}

/// The same m = 256 instance through the hierarchy: every
/// (levels, ε) cell of the lattice refereed at grid 16, which
/// gives the 4-level build genuine 8- and 4-per-side coarse levels.
#[test]
fn referee_at_m_256_across_levels_and_threads() {
    let mut rng = ChaCha12Rng::seed_from_u64(2012);
    let params = SinrParams::with_noise(1e-4);
    let net = random_instance(256, 400.0, 0.8, 3.0, params, &mut rng);
    let mut attempts: Vec<Attempt> = (0..256u32).map(|l| attempt(l, l as u64)).collect();
    attempts.push(attempt(17, 500));
    attempts.push(attempt(200, 501));
    for levels in [2usize, 4] {
        for eps in EPSILONS {
            referee_at(
                &net,
                LinearPower::new(params.alpha),
                &attempts,
                TileOptions::new(16, eps).with_levels(levels),
                DEFAULT_DENSE_GAIN_LIMIT,
            )
            .unwrap_or_else(|e| panic!("levels {levels}, eps {eps}: {e}"));
        }
    }
}
