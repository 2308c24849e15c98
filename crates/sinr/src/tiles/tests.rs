use super::hierarchy::TileLevel;
use super::panels::{PanelRef, PanelStore};
use super::*;
use crate::cache::SinrCache;
use crate::feasibility::SinrFeasibility;
use crate::geom::Point;
use crate::instances::{line_instance, random_instance};
use crate::matrix::SinrInterference;
use crate::network::{SinrNetwork, SinrNetworkBuilder};
use crate::params::SinrParams;
use crate::power::{LinearPower, UniformPower};
use dps_core::feasibility::{Attempt, Feasibility};
use dps_core::ids::{LinkId, PacketId};
use dps_core::interference::InterferenceModel;
use dps_core::load::LinkLoad;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

mod contract;

#[path = "../../tests/support/slack.rs"]
mod slack;

fn attempt(link: u32, packet: u64) -> Attempt {
    Attempt {
        link: LinkId(link),
        packet: PacketId(packet),
    }
}

fn rng() -> ChaCha12Rng {
    ChaCha12Rng::seed_from_u64(1)
}

/// Two tight 4-link clusters `separation` apart — the canonical
/// far-qualifiable geometry.
fn cluster_instance(separation: f64) -> SinrNetwork {
    let mut b = SinrNetworkBuilder::new(SinrParams::default_noiseless());
    for i in 0..4 {
        let x = i as f64 * 0.5;
        b.add_isolated_link((x, 0.0), (x, 1.0));
        b.add_isolated_link((x + separation, 0.0), (x + separation, 1.0));
    }
    b.build()
}

#[test]
fn boundary_points_take_floor_semantics_and_max_edge_clamps() {
    // 2×2 grid over [0, 2]²: tile side 1.
    let senders = [Point::new(0.0, 0.0), Point::new(2.0, 2.0)];
    let receivers = [Point::new(0.5, 0.5), Point::new(1.5, 1.5)];
    let grid = TileGrid::cover(&senders, &receivers, 2);
    assert_eq!(grid.tile_size(), 1.0);
    // Interior boundary: exactly on the x = 1 line goes right,
    // y = 1 goes up.
    assert_eq!(grid.tile_of(&Point::new(1.0, 0.0)), 1);
    assert_eq!(grid.tile_of(&Point::new(0.0, 1.0)), 2);
    assert_eq!(grid.tile_of(&Point::new(1.0, 1.0)), 3);
    // The max corner and edges clamp into the last row/column
    // instead of falling off the grid.
    assert_eq!(grid.tile_of(&Point::new(2.0, 2.0)), 3);
    assert_eq!(grid.tile_of(&Point::new(2.0, 0.0)), 1);
    // Corners of the box.
    assert_eq!(grid.tile_of(&Point::new(0.0, 0.0)), 0);
    assert_eq!(grid.tile_of(&Point::new(0.999, 0.999)), 0);
}

#[test]
fn zero_area_deployment_collapses_to_tile_zero() {
    let p = [Point::new(3.0, -4.0); 5];
    let grid = TileGrid::cover(&p, &p, 4);
    assert_eq!(grid.tile_size(), 1.0);
    for q in &p {
        assert_eq!(grid.tile_of(q), 0);
    }
    // Degenerate 1-D extent still builds square tiles from the max
    // extent.
    let line = [Point::new(0.0, 0.0), Point::new(0.0, 8.0)];
    let grid = TileGrid::cover(&line, &line, 4);
    assert_eq!(grid.tile_size(), 2.0);
    assert_eq!(grid.tile_of(&Point::new(0.0, 0.0)), 0);
    assert_eq!(grid.tile_of(&Point::new(0.0, 8.0)), 12);
}

#[test]
fn grid_rejects_invalid_resolutions() {
    let p = [Point::new(0.0, 0.0)];
    for bad in [0, MAX_TILES_PER_SIDE + 1] {
        let result = std::panic::catch_unwind(|| TileGrid::cover(&p, &p, bad));
        assert!(result.is_err(), "tiles_per_side = {bad} must be rejected");
    }
}

#[test]
fn options_validation_rejects_bad_levels_and_threads() {
    let net = line_instance(3, 2.0, SinrParams::default_noiseless());
    let power = UniformPower::unit();
    for bad_levels in [0, MAX_TILE_LEVELS + 1] {
        let result = std::panic::catch_unwind(|| {
            let options = TileOptions::new(2, 0.0).with_levels(bad_levels);
            TiledSinrFeasibility::with_options(&net, &power, options)
        });
        assert!(result.is_err(), "levels = {bad_levels} must be rejected");
    }
    for bad_threads in [0, MAX_KERNEL_THREADS + 1] {
        let result = std::panic::catch_unwind(|| {
            TiledSinrFeasibility::new(&net, &power, 2, 0.0).kernel_threads(bad_threads)
        });
        assert!(result.is_err(), "threads = {bad_threads} must be rejected");
    }
}

#[test]
fn one_tile_grid_is_bitwise_exact_for_any_epsilon() {
    let mut rng_geo = ChaCha12Rng::seed_from_u64(11);
    let params = SinrParams::with_noise(0.01);
    let net = random_instance(24, 50.0, 1.0, 3.0, params, &mut rng_geo);
    let power = LinearPower::new(params.alpha);
    let exact = SinrFeasibility::new(&net, &power);
    let tiled = TiledSinrFeasibility::new(&net, &power, 1, 0.5);
    // One tile: no pair can satisfy d_min > ρ_S, so nothing is far.
    assert_eq!(tiled.tiles().far_pairs(), 0);
    let attempts: Vec<Attempt> = (0..24).map(|i| attempt(i % 24, i as u64)).collect();
    assert_eq!(
        exact.successes(&attempts, &mut rng()),
        tiled.successes(&attempts, &mut rng())
    );
}

#[test]
fn epsilon_zero_never_qualifies_far_pairs() {
    // Two clusters 10⁴ apart: far-qualifiable in principle, but
    // ε = 0 tolerates no perturbation at all — at any hierarchy depth.
    let net = cluster_instance(10_000.0);
    let zero = TiledSinrFeasibility::with_options(
        &net,
        &UniformPower::unit(),
        TileOptions::new(8, 0.0).with_levels(4),
    );
    assert_eq!(zero.tiles().far_pairs(), 0);
    let loose = TiledSinrFeasibility::new(&net, &UniformPower::unit(), 8, 1e-2);
    assert!(
        loose.tiles().far_pairs() > 0,
        "well-separated clusters must far-qualify under ε = 1e-2"
    );
}

#[test]
fn hierarchy_halves_tiles_per_side_and_stops_at_one() {
    let mut rng_geo = ChaCha12Rng::seed_from_u64(13);
    let params = SinrParams::default_noiseless();
    let net = random_instance(16, 40.0, 1.0, 2.0, params, &mut rng_geo);
    let power = UniformPower::unit();
    let cache = Arc::new(SinrCache::with_dense_limit(&net, &power, 0));
    // Requesting the max depth over an 8-per-side leaf stops once a
    // level reaches one tile per side: 8 → 4 → 2 → 1.
    let tiles = TiledSinrCache::with_options(
        Arc::clone(&cache),
        TileOptions::new(8, 1e-3).with_levels(MAX_TILE_LEVELS),
    );
    assert_eq!(tiles.num_levels(), 4);
    assert_eq!(
        (0..4)
            .map(|l| tiles.level_tiles_per_side(l))
            .collect::<Vec<_>>(),
        vec![8, 4, 2, 1]
    );
    // Level 0 leaf mapping is the identity; coarser levels merge 2×2
    // blocks row/column-wise.
    for leaf in 0..64u32 {
        assert_eq!(tiles.levels[0].tile_of_leaf(leaf, 8), leaf);
        let (row, col) = (leaf / 8, leaf % 8);
        assert_eq!(
            tiles.levels[1].tile_of_leaf(leaf, 8),
            (row >> 1) * 4 + (col >> 1)
        );
        assert_eq!(tiles.levels[3].tile_of_leaf(leaf, 8), 0);
    }
    // Tile indices past a level's range panic rather than read a
    // bitset row's padding (level 1: 16 tiles in one 64-bit word).
    for (s, r) in [(16, 0), (0, 16)] {
        let probe = std::panic::AssertUnwindSafe(|| tiles.is_far_at(1, s, r));
        assert!(std::panic::catch_unwind(probe).is_err(), "({s}, {r})");
    }
    // Level centres at shift 0 are bit-for-bit the leaf grid's.
    for tile in 0..64u32 {
        let a = tiles.levels[0].center(tile);
        let b = tiles.grid().center(tile);
        assert_eq!(a.x.to_bits(), b.x.to_bits());
        assert_eq!(a.y.to_bits(), b.y.to_bits());
    }
}

#[test]
fn hierarchical_far_aggregation_matches_exact_verdicts() {
    // Two tight clusters 500 apart on a 16-per-side grid, 3 levels:
    // the cross-cluster charge lands on a coarse level (one term per
    // cluster instead of one per occupied leaf tile), and with margins
    // far from the decision boundary the verdicts match the exact
    // oracle.
    let mut b = SinrNetworkBuilder::new(SinrParams::default_noiseless());
    for i in 0..6 {
        let x = i as f64 * 3.0;
        b.add_isolated_link((x, 0.0), (x, 1.0));
        b.add_isolated_link((x + 500.0, 0.0), (x + 500.0, 1.0));
    }
    let net = b.build();
    let exact = SinrFeasibility::new(&net, &UniformPower::unit());
    let hier = TiledSinrFeasibility::with_options(
        &net,
        &UniformPower::unit(),
        TileOptions::new(16, 1e-2).with_levels(3),
    );
    let coarse_far: usize = (1..hier.tiles().num_levels())
        .map(|l| hier.tiles().far_pairs_at(l))
        .sum();
    assert!(
        coarse_far > 0,
        "separated clusters must far-qualify at a coarse level"
    );
    let attempts: Vec<Attempt> = (0..12).map(|i| attempt(i, i as u64)).collect();
    assert_eq!(
        exact.successes(&attempts, &mut rng()),
        hier.successes(&attempts, &mut rng())
    );
    // The walk charged far terms at a coarse level, not only the leaf.
    let diag = hier.tiles().diagnostics();
    assert!(
        diag.far_terms_per_level[1..].iter().sum::<u64>() > 0,
        "far charges should land above the leaf: {diag:?}"
    );
}

/// The spread `p·(1/a^α − 1/b^α)` of level pair `(s, r)` by `powf`
/// (or, with `cube`, by `d·d·d`), with the receiver tile's margin;
/// `None` where the pair cannot qualify at any ε.
fn pair_spread(
    level: &TileLevel,
    (s, r): (usize, usize),
    cube: bool,
    alpha: f64,
) -> Option<(f64, f64)> {
    let margin = level.tile_min_margin[r];
    if level.sender_count[s] == 0
        || level.receiver_count[r] == 0
        || margin <= 0.0
        || !margin.is_finite()
    {
        return None;
    }
    let d_min = level.center(s as u32).distance(&level.center(r as u32)) - level.receiver_radius[r];
    let rho_s = level.sender_radius[s];
    if d_min <= rho_s {
        return None;
    }
    let pow = |d: f64| if cube { d * d * d } else { d.powf(alpha) };
    let spread = level.tile_max_power[s] * (1.0 / pow(d_min - rho_s) - 1.0 / pow(d_min + rho_s));
    Some((spread, margin))
}

/// The far-qualification rule decided by `powf` alone, one byte per
/// pair, sender-major (`table[s·T + r]`): the referee of the bitsets
/// `build_levels` stores. Returns the table and its pair count.
fn powf_far_table(level: &TileLevel, alpha: f64, epsilon: f64, m: usize) -> (Vec<u8>, usize) {
    let t = level.tiles_per_side * level.tiles_per_side;
    let mut table = vec![0u8; t * t];
    let mut pairs = 0;
    if epsilon > 0.0 && level.tiles_per_side <= MAX_FAR_TABLE_SIDE {
        for s in 0..t {
            for r in 0..t {
                let Some((spread, margin)) = pair_spread(level, (s, r), false, alpha) else {
                    continue;
                };
                if spread <= epsilon * margin / m as f64 {
                    table[s * t + r] = 1;
                    pairs += 1;
                }
            }
        }
    }
    (table, pairs)
}

/// Every level's far bitset against the `powf` byte table: the same
/// pairs and counts, stored at bit `s % 64` of word `r·⌈T/64⌉ + s/64`.
fn assert_far_tables_match(tiles: &TiledSinrCache) -> Result<(), TestCaseError> {
    let (alpha, m, eps) = (tiles.cache().alpha(), tiles.num_links(), tiles.epsilon());
    for (l, level) in tiles.levels.iter().enumerate() {
        let t = level.tiles_per_side * level.tiles_per_side;
        let (table, pairs) = powf_far_table(level, alpha, eps, m);
        prop_assert_eq!(level.far_pairs, pairs, "level {}", l);
        if level.far.is_empty() {
            prop_assert_eq!(pairs, 0, "level {} has far pairs but no table", l);
            continue;
        }
        let words = t.div_ceil(64);
        prop_assert_eq!(level.far.len(), t * words, "level {}", l);
        for s in 0..t {
            for r in 0..t {
                let bit = level.far[r * words + s / 64] >> (s % 64) & 1;
                let want = table[s * t + r];
                prop_assert_eq!(bit, want as u64, "level {} pair ({}, {})", l, s, r);
                prop_assert_eq!(tiles.is_far_at(l, s as u32, r as u32), want != 0);
            }
        }
    }
    Ok(())
}

/// Pairs whose `powf` spread lies within a few ulps of the budget: for
/// pairs where the cube and `powf` spreads differ in their last bits,
/// `ε` is stepped ulp by ulp across the value that puts the budget on
/// the `powf` spread. Somewhere in each sweep the cube alone would
/// decide a pair the other way; the tables must still be the `powf`
/// tables.
#[test]
fn far_tables_hold_at_the_budget_boundary() {
    let mut rng_geo = ChaCha12Rng::seed_from_u64(41);
    let params = SinrParams::with_noise(1e-4);
    let net = random_instance(64, 400.0, 0.8, 3.0, params, &mut rng_geo);
    let cache = Arc::new(SinrCache::new(&net, &LinearPower::new(params.alpha)));
    let options = |eps: f64| TileOptions::new(16, eps).with_levels(3);
    let stats = TiledSinrCache::with_options(Arc::clone(&cache), options(1e-2));
    let mut candidates = Vec::new();
    for (l, level) in stats.levels.iter().enumerate() {
        let t = level.tiles_per_side * level.tiles_per_side;
        for pair in (0..t).flat_map(|s| (0..t).map(move |r| (s, r))) {
            let spreads = [true, false].map(|cube| pair_spread(level, pair, cube, 3.0));
            if let [Some((cube, _)), Some((powf, margin))] = spreads {
                if cube != powf && powf > 0.0 {
                    candidates.push((l, pair, cube, powf, margin));
                }
            }
        }
    }
    assert!(
        candidates.len() >= 8,
        "the instance must offer pairs whose cube and powf spreads differ"
    );
    let mut cube_would_flip = 0;
    for &(l, pair, cube, powf, margin) in candidates.iter().step_by(candidates.len() / 8) {
        let eps0 = powf * 64.0 / margin;
        for k in -12i64..=12 {
            let eps = f64::from_bits(eps0.to_bits().wrapping_add_signed(k));
            let budget = eps * margin / 64.0;
            if (cube <= budget) != (powf <= budget) {
                cube_would_flip += 1;
            }
            let tiles = TiledSinrCache::with_options(Arc::clone(&cache), options(eps));
            assert_far_tables_match(&tiles)
                .unwrap_or_else(|e| panic!("level {l} pair {pair:?}, eps {eps:e}: {e}"));
        }
    }
    assert!(cube_would_flip > 0, "no sweep crossed the cube-powf gap");
}

/// With no far pair the oracle runs the exact check and the measure the
/// trait default, so no path reads a panel: at ε = 0 the fixed store
/// stays empty under any budget, and the verdicts are the exact
/// oracle's bits.
#[test]
fn epsilon_zero_builds_no_panels_and_judges_exactly() {
    let mut rng_geo = ChaCha12Rng::seed_from_u64(7);
    let params = SinrParams::default_noiseless();
    let net = random_instance(16, 40.0, 1.0, 2.0, params, &mut rng_geo);
    let power = UniformPower::unit();
    let exact = SinrFeasibility::new(&net, &power);
    let options = TileOptions::new(2, 0.0)
        .with_levels(2)
        .with_panel_budget(usize::MAX);
    let tiled = TiledSinrFeasibility::with_options(&net, &power, options);
    let tiles = tiled.tiles();
    assert_eq!(tiles.far_pairs(), 0);
    assert_eq!(tiles.panel_count(), 0);
    assert_eq!(tiles.panel_bytes(), 0);
    assert_eq!(tiles.panel_cells_filled(), 0);
    let slots: Vec<Vec<Attempt>> = vec![
        (0..16).map(|i| attempt(i, i as u64)).collect(),
        (0..16).step_by(3).map(|i| attempt(i, i as u64)).collect(),
        vec![attempt(2, 0), attempt(9, 1), attempt(2, 2)],
    ];
    for attempts in &slots {
        assert_eq!(
            exact.successes(attempts, &mut rng()),
            tiled.successes(attempts, &mut rng())
        );
    }
    let all = exact.successes(&slots[0], &mut rng());
    assert!(all.contains(&true) && all.contains(&false));
    let diag = tiles.diagnostics();
    assert_eq!((diag.panel_hits, diag.panel_misses), (0, 0));
    assert_eq!(diag.panel_resident_bytes, 0);
}

#[test]
fn panel_budget_boundary_controls_allocation_but_not_bits() {
    // The lattice far-qualifies tile pairs, so the fixed store panels
    // the near leaf pairs only.
    let mut rng_geo = ChaCha12Rng::seed_from_u64(7);
    let net = lattice_instance(&mut rng_geo, 4, 12, 3.0);
    let m = net.num_links() as u32;
    let power = UniformPower::unit();
    let cache = Arc::new(SinrCache::with_dense_limit(&net, &power, 0));
    let budget = |bytes: usize| TileOptions::new(4, 1e-2).with_panel_budget(bytes);
    let full = TiledSinrCache::with_options(Arc::clone(&cache), budget(usize::MAX));
    assert!(full.far_pairs() > 0, "the lattice must far-qualify a pair");
    let near = |tiles: &TiledSinrCache, from: LinkId, on: LinkId| {
        !tiles.is_far(tiles.sender_tile_of(from), tiles.receiver_tile_of(on))
    };
    // Every near (S, R) pair panelled under an unlimited budget: one
    // cell per (sender, receiver) link pair whose leaf tiles are near.
    let near_cells = (0..m)
        .flat_map(|from| (0..m).map(move |on| (LinkId(from), LinkId(on))))
        .filter(|&(from, on)| near(&full, from, on))
        .count();
    assert!(near_cells < (m * m) as usize, "far pairs hold no cells");
    assert_eq!(full.panel_bytes(), near_cells * 8);
    // One byte below the full requirement: allocation stops at the
    // first pair that no longer fits (build work is bounded by the
    // budget, not by the tile-pair count).
    let trimmed = TiledSinrCache::with_options(Arc::clone(&cache), budget(full.panel_bytes() - 1));
    assert!(trimmed.panel_count() < full.panel_count());
    assert!(trimmed.panel_bytes() < full.panel_bytes());
    // Zero budget: no panels at all.
    let none = TiledSinrCache::with_options(Arc::clone(&cache), budget(0));
    assert_eq!(none.panel_count(), 0);
    assert_eq!(none.panel_bytes(), 0);
    // Budget is a speed knob only: every resident panel cell is a near
    // pair's, bitwise the flat cache expression.
    let reference = SinrCache::new(&net, &power);
    for (tiles, cells) in [
        (&full, near_cells),
        (&trimmed, trimmed.panel_bytes() / 8),
        (&none, 0),
    ] {
        let visited = tiles.for_each_panel_gain(|from, on, gain| {
            assert!(near(tiles, from, on), "{from} on {on} is far");
            if from != on {
                assert_eq!(gain.to_bits(), reference.gain(from, on).to_bits());
            }
        });
        assert_eq!(visited, cells);
    }
}

#[test]
fn adaptive_panels_evict_under_tiny_budget_without_changing_verdicts() {
    // Two clusters far enough apart that cross-cluster pairs are far:
    // a slot resolves only the transmitting cluster's near panel. A
    // budget that holds one panel forces the cache to evict cluster
    // A's panel when a B-only slot arrives (and vice versa); verdicts
    // must not move, since panels are bit-identical to the on-the-fly
    // expression. Within one slot the working set is pinned, so a
    // both-clusters slot admits one panel and refuses the other
    // instead of churning.
    let net = cluster_instance(10_000.0);
    // cluster_instance interleaves: even links cluster A, odd cluster B.
    let cluster_a: Vec<Attempt> = (0..4).map(|i| attempt(2 * i, i as u64)).collect();
    let cluster_b: Vec<Attempt> = (0..4).map(|i| attempt(2 * i + 1, 10 + i as u64)).collect();
    let both: Vec<Attempt> = (0..8).map(|i| attempt(i, 20 + i as u64)).collect();
    let fixed = TiledSinrFeasibility::new(&net, &UniformPower::unit(), 8, 1e-2);
    assert!(fixed.tiles().far_pairs() > 0);
    let adaptive = TiledSinrFeasibility::with_options(
        &net,
        &UniformPower::unit(),
        TileOptions::new(8, 1e-2)
            .with_panel_mode(PanelCacheMode::Adaptive)
            // One 4×4 panel is 128 bytes: room for exactly one of the
            // two clusters' panels at a time.
            .with_panel_budget(4 * 4 * 8),
    );
    for attempts in [&cluster_a, &cluster_b, &cluster_a, &both, &both] {
        assert_eq!(
            fixed.successes(attempts, &mut rng()),
            adaptive.successes(attempts, &mut rng())
        );
    }
    let diag = adaptive.tiles().diagnostics();
    assert!(diag.panel_misses > 0, "refills expected: {diag:?}");
    assert!(diag.panel_evictions > 0, "evictions expected: {diag:?}");
    assert!(diag.panel_resident_bytes <= 4 * 4 * 8);
    assert!(diag.panel_high_water_bytes <= 4 * 4 * 8);
}

#[test]
fn adaptive_row_fill_is_copy_on_write() {
    // Sweeps share one substrate across threads, so a panel some
    // caller's plan still holds must never change under it: filling a
    // further row of a held panel fills a copy.
    let net = cluster_instance(10_000.0);
    let cache = Arc::new(SinrCache::new(&net, &UniformPower::unit()));
    let tiles = TiledSinrCache::with_options(
        Arc::clone(&cache),
        TileOptions::new(8, 1e-2)
            .with_panel_mode(PanelCacheMode::Adaptive)
            .with_panel_budget(usize::MAX),
    );
    // Cluster A (even links) shares one sender and one receiver tile.
    let (s, r) = (
        tiles.sender_tile_of(LinkId(0)),
        tiles.receiver_tile_of(LinkId(0)),
    );
    let members = |start: &[u32], links: &[u32], tile: u32| -> Vec<u32> {
        links[start[tile as usize] as usize..start[tile as usize + 1] as usize].to_vec()
    };
    let s_links = members(&tiles.senders_start, &tiles.senders_links, s);
    let r_links = members(&tiles.receivers_start, &tiles.receivers_links, r);
    assert_eq!((s_links.len(), r_links.len()), (4, 4));
    let expected = |row: usize| -> Vec<u64> {
        s_links
            .iter()
            .map(|&from| {
                crate::cache::raw_gain(
                    cache.sender_positions(),
                    cache.receiver_positions(),
                    cache.tx_powers(),
                    cache.alpha(),
                    from as usize,
                    r_links[row] as usize,
                )
                .to_bits()
            })
            .collect()
    };
    let bits = |data: &[f64], row: usize| -> Vec<u64> {
        data[row * 4..][..4].iter().map(|g| g.to_bits()).collect()
    };
    let PanelStore::Adaptive(store) = &tiles.panels else {
        panic!("an adaptive index has an adaptive store")
    };
    let PanelRef::Owned(first) = tiles.resolve_adaptive(store, s, r, [0]) else {
        panic!("an unbounded adaptive store admits every pair")
    };
    assert_eq!(bits(&first, 0), expected(0));
    let PanelRef::Owned(second) = tiles.resolve_adaptive(store, s, r, [1]) else {
        panic!("the pair stays resident")
    };
    assert!(
        !Arc::ptr_eq(&first, &second),
        "a held panel is copied, not filled"
    );
    assert_eq!(bits(&first, 0), expected(0));
    assert_eq!(bits(&second, 0), expected(0));
    assert_eq!(bits(&second, 1), expected(1));
    assert_eq!(tiles.panel_cells_filled(), 8);
    let diag = tiles.diagnostics();
    assert_eq!((diag.panel_misses, diag.panel_hits), (1, 1));
}

#[test]
fn kernel_threads_do_not_change_verdicts() {
    let mut rng_geo = ChaCha12Rng::seed_from_u64(17);
    let params = SinrParams::with_noise(1e-4);
    // Dense enough that every slot below mixes successes and failures,
    // so a verdict landing on the wrong receiver cannot go unnoticed.
    let net = random_instance(64, 40.0, 1.0, 2.0, params, &mut rng_geo);
    let power = LinearPower::new(params.alpha);
    for epsilon in [0.0, 1e-2] {
        let base = TiledSinrFeasibility::with_options(
            &net,
            &power,
            TileOptions::new(16, epsilon).with_levels(3),
        );
        if epsilon > 0.0 {
            assert!(
                base.tiles().far_pairs() > 0,
                "the instance must exercise the far path"
            );
        }
        // Every link at once (in scrambled order), plus slots with fewer
        // receivers than threads (1, 3) and a count that is not a
        // multiple of either thread count (5).
        let mut slots: Vec<Vec<Attempt>> =
            vec![(0..64).map(|i| attempt(i * 13 % 64, i as u64)).collect()];
        slots.extend([1u32, 3, 5].map(|k| (0..k).map(|i| attempt(i, i as u64)).collect()));
        for attempts in slots.iter().filter(|a| a.len() > 1) {
            let verdicts = base.successes(attempts, &mut rng());
            assert!(verdicts.contains(&true) && verdicts.contains(&false));
        }
        for threads in [2, 4] {
            let threaded = TiledSinrFeasibility::with_options(
                &net,
                &power,
                TileOptions::new(16, epsilon).with_levels(3),
            )
            .kernel_threads(threads);
            assert_eq!(threaded.threads(), threads);
            for attempts in &slots {
                assert_eq!(
                    base.successes(attempts, &mut rng()),
                    threaded.successes(attempts, &mut rng()),
                    "threads = {threads}, epsilon = {epsilon}, k = {}",
                    attempts.len()
                );
            }
        }
    }
}

#[test]
fn shared_node_zero_distances_stay_exact() {
    // Consecutive line links put senders on receivers: NaN gains.
    // Those pairs always share a tile, so they can never be far —
    // the blockage rule survives any epsilon and any hierarchy depth.
    let net = line_instance(6, 1.0, SinrParams::default_noiseless());
    let exact = SinrFeasibility::new(&net, &UniformPower::unit());
    for eps in [0.0, 1e-2, 0.5] {
        let tiled = TiledSinrFeasibility::with_options(
            &net,
            &UniformPower::unit(),
            TileOptions::new(4, eps).with_levels(3),
        );
        let attempts: Vec<Attempt> = (0..6).map(|i| attempt(i, i as u64)).collect();
        assert_eq!(
            exact.successes(&attempts, &mut rng()),
            tiled.successes(&attempts, &mut rng()),
            "eps = {eps}"
        );
    }
}

/// The same blockage through certified cube gains: a shared-node line
/// next to a far cluster, gains on the fly and no panels, so the line's
/// near terms are cubes and a zero cross distance makes a cube of `0`.
/// Each blocked receiver must fall back and fail, as the naive referee
/// says, on the tiled kernel at ε > 0 (with far pairs) and on the exact
/// path alike.
#[test]
fn zero_cross_distances_block_through_cube_gains() {
    let mut b = SinrNetworkBuilder::new(SinrParams::default_noiseless());
    let line: Vec<_> = (0..7).map(|i| b.add_node((i as f64, 0.0))).collect();
    for pair in line.windows(2) {
        b.add_link(pair[0], pair[1]);
    }
    for i in 0..4 {
        let x = 500.0 + i as f64 * 3.0;
        b.add_isolated_link((x, 0.0), (x, 1.0));
    }
    let net = b.build();
    let power = UniformPower::unit();
    let attempts: Vec<Attempt> = (0..10).map(|i| attempt(i, i as u64)).collect();
    let naive = contract::referee::successes_naive(&net, &power, &attempts);
    // Link `i + 1` sends from link `i`'s receiver, for `i` in 0..5.
    assert_eq!(naive[..6], [false, false, false, false, false, true]);
    for eps in [0.0, 1e-2, 0.5] {
        let cache = Arc::new(SinrCache::with_dense_limit(&net, &power, 0));
        let options = TileOptions::new(8, eps).with_levels(2).with_panel_budget(0);
        let tiled = TiledSinrFeasibility::from_tiles(Arc::new(TiledSinrCache::with_options(
            cache, options,
        )));
        assert_eq!(tiled.tiles().far_pairs() > 0, eps > 0.0, "eps = {eps}");
        assert_eq!(tiled.successes(&attempts, &mut rng()), naive, "eps = {eps}");
        assert!(
            tiled.tiles().cache().cube_fallbacks() >= 5,
            "eps = {eps}: every blocked receiver falls back"
        );
    }
}

#[test]
fn far_aggregation_flips_no_verdict_on_well_separated_clusters() {
    // Two tight clusters 500 apart: the far path aggregates the
    // other cluster, and with margins far from the decision
    // boundary the verdicts match the exact oracle.
    let mut b = SinrNetworkBuilder::new(SinrParams::default_noiseless());
    for i in 0..6 {
        let x = i as f64 * 3.0;
        b.add_isolated_link((x, 0.0), (x, 1.0));
        b.add_isolated_link((x + 500.0, 0.0), (x + 500.0, 1.0));
    }
    let net = b.build();
    let exact = SinrFeasibility::new(&net, &UniformPower::unit());
    let tiled = TiledSinrFeasibility::new(&net, &UniformPower::unit(), 8, 1e-2);
    assert!(tiled.tiles().far_pairs() > 0);
    let attempts: Vec<Attempt> = (0..12).map(|i| attempt(i, i as u64)).collect();
    assert_eq!(
        exact.successes(&attempts, &mut rng()),
        tiled.successes(&attempts, &mut rng())
    );
}

#[test]
fn tiled_interference_matches_fixed_power_matrix_bitwise() {
    let mut rng_geo = ChaCha12Rng::seed_from_u64(21);
    let params = SinrParams::with_noise(0.001);
    let net = random_instance(10, 30.0, 1.0, 3.0, params, &mut rng_geo);
    let power = LinearPower::new(params.alpha);
    let cache = Arc::new(SinrCache::with_dense_limit(&net, &power, 0));
    let lazy = TiledInterference::with_tiles(Arc::new(TiledSinrCache::with_options(
        Arc::clone(&cache),
        TileOptions::new(2, 0.0),
    )));
    let dense = SinrInterference::fixed_power_with_cache(&net, &cache);
    dps_core::interference::validate(&lazy).unwrap();
    for on in 0..10u32 {
        for from in 0..10u32 {
            assert_eq!(
                lazy.weight(LinkId(on), LinkId(from)).to_bits(),
                dense.weight(LinkId(on), LinkId(from)).to_bits(),
                "W[{on}][{from}]"
            );
        }
    }
}

#[test]
fn slot_interference_reports_kernel_sums() {
    let mut rng_geo = ChaCha12Rng::seed_from_u64(31);
    let params = SinrParams::default_noiseless();
    let net = random_instance(8, 25.0, 1.0, 2.0, params, &mut rng_geo);
    let tiled = TiledSinrFeasibility::new(&net, &UniformPower::unit(), 2, 0.0);
    let attempts: Vec<Attempt> = (0..8).map(|i| attempt(i, i as u64)).collect();
    let sums = tiled.slot_interference(&attempts);
    assert_eq!(sums.len(), 8);
    let beta = tiled.tiles().cache().beta();
    let noise = tiled.tiles().cache().noise();
    let verdicts = tiled.successes(&attempts, &mut rng());
    for ((link, interference), ok) in sums.into_iter().zip(verdicts) {
        let expect = tiled.tiles().cache().signal(link) >= beta * (interference + noise);
        assert_eq!(expect, ok, "verdict of {link} disagrees with its sum");
    }
}

#[test]
fn diagnostics_count_slots_and_walk_activity() {
    let net = cluster_instance(10_000.0);
    let tiled = TiledSinrFeasibility::with_options(
        &net,
        &UniformPower::unit(),
        TileOptions::new(8, 1e-2).with_levels(2),
    );
    let attempts: Vec<Attempt> = (0..8).map(|i| attempt(i, i as u64)).collect();
    for _ in 0..3 {
        let _ = tiled.successes(&attempts, &mut rng());
    }
    let diag = tiled.tiles().diagnostics();
    assert_eq!(diag.slots, 3);
    assert_eq!(diag.level_tiles_per_side.len(), tiled.tiles().num_levels());
    assert_eq!(
        diag.tiles_visited_per_level.len(),
        tiled.tiles().num_levels()
    );
    assert!(
        diag.tiles_visited_per_level.iter().sum::<u64>() > 0,
        "the walk must visit occupied tiles: {diag:?}"
    );
    assert!(
        diag.far_terms_per_level.iter().sum::<u64>() > 0,
        "cross-cluster charges must be far terms: {diag:?}"
    );
    assert!(diag.near_terms > 0, "own-cluster groups are near: {diag:?}");
    assert!(diag.panel_hits + diag.panel_misses > 0);
}

/// The rate measure walks the same pyramid as the slot kernel, but
/// its walk is set-up work, not slot work: measuring loads on a
/// far-qualifying index leaves every kernel diagnostic where the slots
/// put it.
#[test]
fn rate_measure_leaves_the_kernel_diagnostics_alone() {
    let tiled = TiledSinrFeasibility::with_options(
        &cluster_instance(10_000.0),
        &UniformPower::unit(),
        TileOptions::new(8, 1e-2).with_levels(2),
    );
    let tiles = tiled.shared_tiles();
    assert!(tiles.far_pairs() > 0, "the clusters must far-qualify");
    let attempts: Vec<Attempt> = (0..8).map(|i| attempt(i, i as u64)).collect();
    let _ = tiled.successes(&attempts, &mut rng());
    let model = TiledInterference::with_tiles(Arc::clone(tiles));
    let before = tiles.diagnostics();
    assert!(before.tiles_visited_per_level.iter().sum::<u64>() > 0);
    let mut sparse = LinkLoad::new(8);
    sparse.set(LinkId(1), 0.5);
    sparse.set(LinkId(6), 2.0);
    for load in [
        LinkLoad::from_links(8, (0..8u32).map(LinkId)),
        LinkLoad::from_links(8, (0..8u32).step_by(2).map(LinkId)),
        sparse,
    ] {
        assert!(model.measure(&load) > 0.0);
        assert_eq!(tiles.diagnostics(), before);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Far bitsets against the `powf` byte table on random instances:
    /// `α = 3` (cube with fallback) and `α = 2.5` (`powf`), 1–3 levels,
    /// three ε, uniform and linear powers, grids from 2 to 20 per side
    /// (one to seven words per bitset row).
    #[test]
    fn far_bitsets_are_the_powf_tables(
        seed in 0u64..10_000,
        m in 16usize..96,
        grid in 2usize..21,
        levels in 1usize..4,
        eps_sel in 0usize..3,
        alpha_sel in 0usize..2,
        linear in 0u32..2,
    ) {
        let alpha = [3.0, 2.5][alpha_sel];
        let eps = [1e-6, 1e-3, 1e-2][eps_sel];
        let mut rng_geo = ChaCha12Rng::seed_from_u64(seed);
        let params = SinrParams::new(alpha, 2.0, 1e-4);
        let net = random_instance(m, 30.0 * grid as f64, 0.8, 3.0, params, &mut rng_geo);
        let cache = if linear == 1 {
            SinrCache::new(&net, &LinearPower::new(alpha))
        } else {
            SinrCache::new(&net, &UniformPower::unit())
        };
        let tiles = TiledSinrCache::with_options(
            Arc::new(cache),
            TileOptions::new(grid, eps).with_levels(levels),
        );
        assert_far_tables_match(&tiles)?;
    }

    /// Slots with random active subsets fill adaptive panels one
    /// receiver row at a time, under budgets of 32 or 128 cells or none.
    /// Afterwards every filled cell of every resident panel is bitwise
    /// the geometry cache's gain, and with no budget (nothing evicted)
    /// the walk meets every cell ever filled.
    #[test]
    fn partial_panel_cells_are_the_gain_expression(
        seed in 0u64..200,
        grid in 2usize..9,
        eps_sel in 0usize..2,
        levels in 1usize..4,
        budget_sel in 0usize..3,
        masks in proptest::collection::vec(1u32..0x1_0000, 4..8),
    ) {
        let mut rng_geo = ChaCha12Rng::seed_from_u64(seed);
        let params = SinrParams::default_noiseless();
        let net = random_instance(16, 80.0, 0.8, 3.0, params, &mut rng_geo);
        let cache = Arc::new(SinrCache::new(&net, &UniformPower::unit()));
        let budget = [32 * 8, 128 * 8, usize::MAX][budget_sel];
        let tiles = Arc::new(TiledSinrCache::with_options(
            Arc::clone(&cache),
            TileOptions::new(grid, [1e-6, 1e-2][eps_sel])
                .with_levels(levels)
                .with_panel_mode(PanelCacheMode::Adaptive)
                .with_panel_budget(budget),
        ));
        let oracle = TiledSinrFeasibility::from_tiles(Arc::clone(&tiles));
        for mask in &masks {
            let attempts: Vec<Attempt> = (0..16u32)
                .filter(|l| mask & (1 << l) != 0)
                .map(|l| attempt(l, l as u64))
                .collect();
            oracle.successes(&attempts, &mut rng());
        }
        let visited = tiles.for_each_panel_gain(|from, on, gain| {
            if from != on {
                assert_eq!(gain.to_bits(), cache.gain(from, on).to_bits(), "{from} on {on}");
            }
        });
        let filled = tiles.panel_cells_filled() as usize;
        prop_assert!(visited <= filled);
        if budget == usize::MAX {
            prop_assert_eq!(visited, filled);
        }
    }
}

/// A lattice instance on a `grid × grid` leaf grid of 60-wide tiles at
/// path-loss exponent `alpha`. One corner-to-corner link pins the grid
/// to `[0, 60·grid]²`. Every other link's sender sits on the centre of
/// one of `groups` random leaf tiles, one to three links per tile, with
/// its receiver 0.8–2.8 away: some receivers share a leaf tile and some
/// are alone in one. A leaf tile without the corner sender has sender
/// radius 0, so it far-qualifies for every receiver tile it does not
/// overlap, at any `α`.
fn lattice_instance(rng: &mut ChaCha12Rng, grid: usize, groups: usize, alpha: f64) -> SinrNetwork {
    let side = 60.0 * grid as f64;
    let mut b = SinrNetworkBuilder::new(SinrParams::new(alpha, 2.0, 1e-6));
    b.add_isolated_link((0.0, 0.0), (side, side));
    for _ in 0..groups {
        let col = rng.gen_range(0..grid) as f64;
        let row = rng.gen_range(0..grid) as f64;
        let (sx, sy) = ((col + 0.5) * 60.0, (row + 0.5) * 60.0);
        for _ in 0..rng.gen_range(1..4) {
            let angle = rng.gen::<f64>() * std::f64::consts::TAU;
            let len = 0.8 + rng.gen::<f64>() * 2.0;
            b.add_isolated_link((sx, sy), (sx + len * angle.cos(), sy + len * angle.sin()));
        }
    }
    b.build()
}

/// One term of the referee walk.
#[derive(Clone, Copy, Debug, PartialEq)]
enum WalkTerm {
    /// Charge the subtree under `tile` of hierarchy `level`.
    Far { level: usize, tile: u32 },
    /// Sum leaf tile `tile`'s senders exactly.
    Near { tile: u32 },
}

/// The plain recursive walk for receiver leaf tile `r_leaf` over the
/// sender leaf tiles in `occupied`. Every coarsest-level tile above an
/// occupied leaf is visited in ascending order; a tile that its level's
/// table marks far for the receiver's tile at that level is one far
/// term, otherwise its 2×2 children are visited in ascending tile
/// order, and a leaf that is not far is a near group.
fn referee_walk(tiles: &TiledSinrCache, occupied: &BTreeSet<u32>, r_leaf: u32) -> Vec<WalkTerm> {
    fn visit(
        tiles: &TiledSinrCache,
        occupied: &BTreeSet<u32>,
        r_leaf: u32,
        (level, tile): (usize, u32),
        out: &mut Vec<WalkTerm>,
    ) {
        let g0 = tiles.grid().tiles_per_side();
        let this = &tiles.levels[level];
        if !occupied
            .iter()
            .any(|&leaf| this.tile_of_leaf(leaf, g0) == tile)
        {
            return;
        }
        if this.is_far(tile, this.tile_of_leaf(r_leaf, g0)) {
            out.push(WalkTerm::Far { level, tile });
        } else if level == 0 {
            out.push(WalkTerm::Near { tile });
        } else {
            let (side, below) = (
                this.tiles_per_side as u32,
                tiles.levels[level - 1].tiles_per_side as u32,
            );
            let (row, col) = (tile / side, tile % side);
            for r in [2 * row, 2 * row + 1].into_iter().filter(|&r| r < below) {
                for c in [2 * col, 2 * col + 1].into_iter().filter(|&c| c < below) {
                    visit(tiles, occupied, r_leaf, (level - 1, r * below + c), out);
                }
            }
        }
    }
    let top = tiles.levels.len() - 1;
    let side = tiles.levels[top].tiles_per_side as u32;
    let mut out = Vec::new();
    for tile in 0..side * side {
        visit(tiles, occupied, r_leaf, (top, tile), &mut out);
    }
    out
}

/// The summed transmission weight `Σ count·p` under `tile` of
/// hierarchy `level`: a leaf adds its active senders in ascending link
/// order, a coarse tile its occupied children's weights in ascending
/// tile order.
fn subtree_weight(tiles: &TiledSinrCache, active: &[(u32, u32)], level: usize, tile: u32) -> f64 {
    let g0 = tiles.grid().tiles_per_side();
    let p = tiles.cache().tx_powers();
    if level == 0 {
        return active
            .iter()
            .filter(|&&(link, _)| tiles.sender_tile_of(LinkId(link)) == tile)
            .fold(0.0, |w, &(link, count)| w + count as f64 * p[link as usize]);
    }
    let below = &tiles.levels[level - 1];
    let children: BTreeSet<u32> = active
        .iter()
        .map(|&(link, _)| tiles.sender_tile_of(LinkId(link)))
        .filter(|&leaf| tiles.levels[level].tile_of_leaf(leaf, g0) == tile)
        .map(|leaf| below.tile_of_leaf(leaf, g0))
        .collect();
    children.into_iter().fold(0.0, |w, child| {
        w + subtree_weight(tiles, active, level - 1, child)
    })
}

/// The interference at active link `on` from the referee walk: a far
/// term charges its subtree weight (less `on`'s own power when `on`'s
/// sender lies under it) as `W / d(centre, receiver)^α` through
/// `pow_alpha`; a near term adds `count · gain` over its leaf's active
/// senders other than `on`, in ascending link order.
fn referee_sum(tiles: &TiledSinrCache, active: &[(u32, u32)], on: u32) -> f64 {
    let cache = tiles.cache();
    let alpha = cache.alpha();
    let g0 = tiles.grid().tiles_per_side();
    let occupied: BTreeSet<u32> = active
        .iter()
        .map(|&(link, _)| tiles.sender_tile_of(LinkId(link)))
        .collect();
    let receiver = cache.receiver_positions()[on as usize];
    let own_leaf = tiles.sender_tile_of(LinkId(on));
    let mut sum = 0.0;
    for term in referee_walk(tiles, &occupied, tiles.receiver_tile_of(LinkId(on))) {
        match term {
            WalkTerm::Far { level, tile } => {
                let this = &tiles.levels[level];
                let mut weight = subtree_weight(tiles, active, level, tile);
                if this.tile_of_leaf(own_leaf, g0) == tile {
                    weight -= cache.tx_powers()[on as usize];
                }
                let d = this.center(tile).distance(&receiver);
                let path_loss = if alpha == 3.0 {
                    pow_alpha::<true>(d, alpha)
                } else {
                    pow_alpha::<false>(d, alpha)
                };
                sum += weight / path_loss;
            }
            WalkTerm::Near { tile } => {
                for &(from, count) in active {
                    if from != on && tiles.sender_tile_of(LinkId(from)) == tile {
                        sum += count as f64 * cache.gain(LinkId(from), LinkId(on));
                    }
                }
            }
        }
    }
    sum
}

/// The walk counters one slot adds, from the referee walk of each
/// distinct receiver leaf tile of `active`: per level, the tiles
/// examined and the far terms, then the near terms. A walk examines an
/// occupied tile exactly when none of its strict ancestors is one of
/// the walk's far terms (it examines every occupied coarsest tile and
/// descends from every examined tile that is not far).
fn referee_counts(tiles: &TiledSinrCache, active: &[(u32, u32)]) -> (Vec<u64>, Vec<u64>, u64) {
    let g0 = tiles.grid().tiles_per_side();
    let depth = tiles.num_levels();
    let occupied: BTreeSet<u32> = active
        .iter()
        .map(|&(link, _)| tiles.sender_tile_of(LinkId(link)))
        .collect();
    let r_tiles: BTreeSet<u32> = active
        .iter()
        .map(|&(link, _)| tiles.receiver_tile_of(LinkId(link)))
        .collect();
    let (mut visited, mut far, mut near) = (vec![0; depth], vec![0; depth], 0);
    for &r in &r_tiles {
        let mut far_terms = BTreeSet::new();
        for term in referee_walk(tiles, &occupied, r) {
            match term {
                WalkTerm::Far { level, tile } => {
                    far[level] += 1;
                    far_terms.insert((level, tile));
                }
                WalkTerm::Near { .. } => near += 1,
            }
        }
        for (level, count) in visited.iter_mut().enumerate() {
            // One occupied leaf under each occupied tile of `level`.
            let under: BTreeMap<u32, u32> = occupied
                .iter()
                .map(|&leaf| (tiles.levels[level].tile_of_leaf(leaf, g0), leaf))
                .collect();
            *count += under
                .values()
                .filter(|&&leaf| {
                    (level + 1..depth).all(|up| {
                        !far_terms.contains(&(up, tiles.levels[up].tile_of_leaf(leaf, g0)))
                    })
                })
                .count() as u64;
        }
    }
    (visited, far, near)
}

/// The fixed store's placements as the build makes them, recomputed
/// here: near leaf pairs in row-major `(S, R)` order over the occupied
/// tiles, each `|S|·|R|` cells at the next arena offset, stopping at
/// the first that no longer fits `budget_cells`. Returns
/// `((s, r), offset, cells)` in build order.
fn fixed_placements(
    tiles: &TiledSinrCache,
    budget_cells: usize,
) -> Vec<((u32, u32), usize, usize)> {
    let t = tiles.num_tiles();
    let count = |start: &[u32], tile: usize| (start[tile + 1] - start[tile]) as usize;
    let mut placed = Vec::new();
    let mut used = 0;
    for s in (0..t).filter(|&s| count(&tiles.senders_start, s) > 0) {
        for r in (0..t).filter(|&r| count(&tiles.receivers_start, r) > 0) {
            if tiles.is_far(s as u32, r as u32) {
                continue;
            }
            let cells = count(&tiles.senders_start, s) * count(&tiles.receivers_start, r);
            if used + cells > budget_cells {
                return placed;
            }
            placed.push(((s as u32, r as u32), used, cells));
            used += cells;
        }
    }
    placed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The kernel's per-receiver sums against the plain recursive
    /// walk, bit for bit, over a sequence of slots: α ∈ {3, 2.5}, 1–3
    /// levels, fixed panels under ample, one-panel-ish and zero
    /// budgets, adaptive panels under zero, small and ample budgets.
    /// The lattice geometry far-qualifies pairs at every α, so every
    /// slot runs the tiled kernel. Each slot also adds exactly the
    /// walk's tiles examined and far terms per level, and its near
    /// terms, to the diagnostics.
    #[test]
    fn kernel_sums_are_the_recursive_walk_bitwise(
        seed in 0u64..10_000,
        grid in 2usize..9,
        levels in 1usize..4,
        alpha_sel in 0usize..2,
        eps_sel in 0usize..2,
        panels_sel in 0usize..6,
        masks in proptest::collection::vec(0u64..u64::MAX, 3..6),
    ) {
        let mut rng_geo = ChaCha12Rng::seed_from_u64(seed);
        let alpha = [3.0, 2.5][alpha_sel];
        let net = lattice_instance(&mut rng_geo, grid, 4 + grid * grid / 2, alpha);
        let m = net.num_links() as u32;
        let (mode, budget) = [
            (PanelCacheMode::Fixed, usize::MAX),
            (PanelCacheMode::Fixed, 64 * 8),
            (PanelCacheMode::Fixed, 0),
            (PanelCacheMode::Adaptive, usize::MAX),
            (PanelCacheMode::Adaptive, 64 * 8),
            (PanelCacheMode::Adaptive, 0),
        ][panels_sel];
        let options = TileOptions::new(grid, [1e-3, 1e-2][eps_sel])
            .with_levels(levels)
            .with_panel_mode(mode)
            .with_panel_budget(budget);
        let power = LinearPower::new(alpha);
        let oracle = TiledSinrFeasibility::with_options(&net, &power, options);
        let tiles = oracle.tiles();
        prop_assert!(tiles.far_pairs() > 0, "the lattice must far-qualify a pair");
        for (slot, &mask) in masks.iter().enumerate() {
            let mut attempts: Vec<Attempt> = (0..m)
                .filter(|&l| l == 0 || mask >> (l % 64) & 1 == 1)
                .map(|l| attempt(l, l as u64))
                .collect();
            attempts.push(attempt((mask % m as u64) as u32, 1_000));
            let active = contract::dedup(&attempts);
            let before = tiles.diagnostics();
            let sums = oracle.slot_interference(&attempts);
            let after = tiles.diagnostics();
            let delta = |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(a, b)| a - b).collect::<Vec<u64>>();
            let (visited, far, near) = referee_counts(tiles, &active);
            prop_assert_eq!(
                delta(&after.tiles_visited_per_level, &before.tiles_visited_per_level),
                visited
            );
            prop_assert_eq!(delta(&after.far_terms_per_level, &before.far_terms_per_level), far);
            prop_assert_eq!(after.near_terms - before.near_terms, near);
            prop_assert_eq!(sums.len(), active.len());
            for (&(link, sum), &(on, _)) in sums.iter().zip(&active) {
                prop_assert_eq!(link, LinkId(on));
                let want = referee_sum(tiles, &active, on);
                prop_assert_eq!(
                    sum.to_bits(), want.to_bits(),
                    "slot {} link {}: kernel {} vs walk {}", slot, on, sum, want
                );
            }
        }
    }

    /// The fixed store's receiver-major CSR against the build order,
    /// under budgets of zero, one panel, a cut in the middle of a
    /// sender row, and ample: for every tile pair the lookup returns
    /// exactly the arena offset the build wrote, or no panel. Driven
    /// slots then add exactly the hits and misses that the recursive
    /// walk's near groups count against those placements.
    #[test]
    fn fixed_panel_lookup_is_the_build_order(
        seed in 0u64..10_000,
        grid in 2usize..9,
        levels in 1usize..4,
        budget_sel in 0usize..4,
        masks in proptest::collection::vec(0u64..u64::MAX, 3..6),
    ) {
        let mut rng_geo = ChaCha12Rng::seed_from_u64(seed);
        let net = lattice_instance(&mut rng_geo, grid, 4 + grid * grid / 2, 3.0);
        let m = net.num_links() as u32;
        let options = TileOptions::new(grid, 1e-2).with_levels(levels);
        let power = LinearPower::new(3.0);
        let cache = Arc::new(SinrCache::new(&net, &power));
        let full = TiledSinrCache::with_options(Arc::clone(&cache), options.with_panel_budget(usize::MAX));
        let all = fixed_placements(&full, usize::MAX);
        // Each cut stops the build at panel `k`, with slack just short
        // of its cells: a build that skipped it and went on would place
        // a smaller later panel. One panel: `k = 1`. A cut in the middle
        // of a row: a `k` whose sender row already placed a panel.
        let mid_row: Vec<usize> = (1..all.len()).filter(|&k| all[k - 1].0 .0 == all[k].0 .0).collect();
        let cut = match budget_sel {
            1 if all.len() > 1 => Some(1),
            2 => mid_row.get(mid_row.len() / 2).copied(),
            _ => None,
        };
        let budget_cells = match (budget_sel, cut) {
            (0, _) => 0,
            (1 | 2, Some(k)) => all[k].1 + all[k].2 - 1,
            _ => usize::MAX,
        };
        let budget = budget_cells.saturating_mul(std::mem::size_of::<f64>());
        let tiles = Arc::new(TiledSinrCache::with_options(cache, options.with_panel_budget(budget)));
        let placed = fixed_placements(&tiles, budget_cells);
        if let Some(k) = cut {
            prop_assert_eq!(placed.len(), k);
            prop_assert_eq!(&placed[..], &all[..k]);
        }
        let offsets: BTreeMap<(u32, u32), usize> = placed.iter().map(|&(key, at, _)| (key, at)).collect();
        prop_assert_eq!(tiles.panel_count(), offsets.len());
        let PanelStore::Fixed(fixed) = &tiles.panels else {
            panic!("a fixed index has a fixed store")
        };
        let t = tiles.num_tiles() as u32;
        for r in 0..t {
            let row = fixed.row(r);
            for s in 0..t {
                prop_assert_eq!(row.find(s), offsets.get(&(s, r)).copied(), "pair ({}, {})", s, r);
            }
        }

        let oracle = TiledSinrFeasibility::from_tiles(Arc::clone(&tiles));
        prop_assert!(tiles.far_pairs() > 0, "the lattice must far-qualify a pair");
        for &mask in &masks {
            let attempts: Vec<Attempt> = (0..m)
                .filter(|&l| l == 0 || mask >> (l % 64) & 1 == 1)
                .map(|l| attempt(l, l as u64))
                .collect();
            let active = contract::dedup(&attempts);
            let occupied: BTreeSet<u32> = active
                .iter()
                .map(|&(link, _)| tiles.sender_tile_of(LinkId(link)))
                .collect();
            let r_tiles: BTreeSet<u32> = active
                .iter()
                .map(|&(link, _)| tiles.receiver_tile_of(LinkId(link)))
                .collect();
            let (mut hits, mut misses) = (0, 0);
            for &r in &r_tiles {
                for term in referee_walk(&tiles, &occupied, r) {
                    if let WalkTerm::Near { tile } = term {
                        if offsets.contains_key(&(tile, r)) {
                            hits += 1;
                        } else {
                            misses += 1;
                        }
                    }
                }
            }
            let before = tiles.diagnostics();
            oracle.successes(&attempts, &mut rng());
            let after = tiles.diagnostics();
            prop_assert_eq!(after.panel_hits - before.panel_hits, hits);
            prop_assert_eq!(after.panel_misses - before.panel_misses, misses);
            prop_assert_eq!(after.near_terms - before.near_terms, hits + misses);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Certified cube verdicts at the SINR threshold. On lattice
    /// instances with far pairs, gains computed on the fly and panels
    /// under zero, small and ample budgets, `β` and `ν` put one
    /// receiver's slack at 0, ±1, ±4 and ±64 ulps of its `powf` sum's
    /// threshold. Every verdict of the slot, at one and two kernel
    /// threads, must be the one the kernel's `powf` sums give. At α = 3
    /// the receiver at slack 0 must fall back to the `powf` sum; at
    /// α = 2.5 the cube is never used.
    #[test]
    fn cube_verdicts_are_the_powf_verdicts_at_the_threshold(
        seed in 0u64..10_000,
        grid in 2usize..7,
        levels in 1usize..4,
        alpha_sel in 0usize..2,
        budget_sel in 0usize..3,
        mask in 0u64..u64::MAX,
        pick in 0usize..1_000,
    ) {
        let alpha = [3.0, 2.5][alpha_sel];
        let mut rng_geo = ChaCha12Rng::seed_from_u64(seed);
        let geometry = lattice_instance(&mut rng_geo, grid, 4 + grid * grid / 2, alpha);
        let power = LinearPower::new(alpha);
        let options = TileOptions::new(grid, 1e-2)
            .with_levels(levels)
            .with_panel_budget([0, 64 * 8, usize::MAX][budget_sel]);
        let oracle_for = |params: SinrParams| {
            let net = slack::with_params(&geometry, params);
            let cache = Arc::new(SinrCache::with_dense_limit(&net, &power, 0));
            TiledSinrFeasibility::from_tiles(Arc::new(TiledSinrCache::with_options(cache, options)))
        };
        let m = geometry.num_links() as u32;
        let attempts: Vec<Attempt> = (0..m)
            .filter(|&l| l == 0 || mask >> (l % 64) & 1 == 1)
            .map(|l| attempt(l, l as u64))
            .collect();
        // One attempt per link, ascending: verdicts are per distinct link.
        let active = contract::dedup(&attempts);
        let on = active[pick % active.len()].0;
        let mut at_zero = false;
        for ulps in [0, 1, -1, 4, -4, 64, -64] {
            // `β` and `ν` move tile margins, and with them far
            // qualification and the sums: settle them against the sum
            // of the index they build.
            let mut params = *geometry.params();
            let mut settled = None;
            for _ in 0..4 {
                let oracle = oracle_for(params);
                let signal = oracle.tiles().cache().signal(LinkId(on));
                let (_, sum) = oracle
                    .slot_interference(&attempts)
                    .into_iter()
                    .find(|&(link, _)| link == LinkId(on))
                    .expect("the receiver is active");
                match slack::params_for_slack(alpha, signal, sum, ulps) {
                    Some(next) if next == params => {
                        settled = Some(oracle);
                        break;
                    }
                    Some(next) => params = next,
                    None => break,
                }
            }
            let Some(oracle) = settled else { continue };
            if oracle.tiles().far_pairs() == 0 {
                continue;
            }
            let cache = oracle.tiles().cache();
            let (beta, noise) = (cache.beta(), cache.noise());
            let want: Vec<bool> = oracle
                .slot_interference(&attempts)
                .iter()
                .zip(&active)
                .map(|(&(link, sum), &(_, count))| {
                    count == 1 && cache.signal(link) >= beta * (sum + noise)
                })
                .collect();
            let before = cache.cube_fallbacks();
            prop_assert_eq!(oracle.successes(&attempts, &mut rng()), want.clone(), "ulps {}", ulps);
            let fallbacks = cache.cube_fallbacks() - before;
            let threaded =
                TiledSinrFeasibility::from_tiles(Arc::clone(oracle.shared_tiles())).kernel_threads(2);
            let verdicts = threaded.successes(&attempts, &mut rng());
            prop_assert_eq!(verdicts, want, "ulps {} at two threads", ulps);
            if alpha != 3.0 {
                prop_assert_eq!(cache.cube_fallbacks(), 0);
            } else if ulps == 0 {
                prop_assert!(fallbacks >= 1, "the receiver at its threshold must fall back");
                at_zero = true;
            }
        }
        prop_assume!(alpha != 3.0 || at_zero);
    }
}
