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
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::sync::Arc;

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
    for bad_levels in [0, MAX_TILE_LEVELS + 1] {
        let net = net.clone();
        let result = std::panic::catch_unwind(move || {
            TiledSinrFeasibility::with_options(
                net,
                UniformPower::unit(),
                TileOptions::new(2, 0.0).with_levels(bad_levels),
            )
        });
        assert!(result.is_err(), "levels = {bad_levels} must be rejected");
    }
    for bad_threads in [0, MAX_KERNEL_THREADS + 1] {
        let net = net.clone();
        let result = std::panic::catch_unwind(move || {
            TiledSinrFeasibility::new(net, UniformPower::unit(), 2, 0.0).kernel_threads(bad_threads)
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
    let exact = SinrFeasibility::new(net.clone(), power);
    let tiled = TiledSinrFeasibility::new(net, power, 1, 0.5);
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
        net.clone(),
        UniformPower::unit(),
        TileOptions::new(8, 0.0).with_levels(4),
    );
    assert_eq!(zero.tiles().far_pairs(), 0);
    let loose = TiledSinrFeasibility::new(net, UniformPower::unit(), 8, 1e-2);
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
    let exact = SinrFeasibility::new(net.clone(), UniformPower::unit());
    let hier = TiledSinrFeasibility::with_options(
        net,
        UniformPower::unit(),
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

#[test]
fn panel_budget_boundary_controls_allocation_but_not_bits() {
    let mut rng_geo = ChaCha12Rng::seed_from_u64(7);
    let params = SinrParams::default_noiseless();
    let net = random_instance(16, 40.0, 1.0, 2.0, params, &mut rng_geo);
    let power = UniformPower::unit();
    let cache = Arc::new(SinrCache::with_dense_limit(&net, &power, 0));
    let full = TiledSinrCache::new(Arc::clone(&cache), 2, 0.0, usize::MAX);
    // Every non-empty (S, R) pair panelled under an unlimited
    // budget; total cells = m² when every tile pair is populated
    // with all members (here Σ|S|·Σ|R| over pairs = m·m).
    assert_eq!(full.panel_bytes(), 16 * 16 * 8);
    // One byte below the full requirement: allocation stops at the
    // first pair that no longer fits (build work is bounded by the
    // budget, not by the tile-pair count).
    let trimmed = TiledSinrCache::new(Arc::clone(&cache), 2, 0.0, full.panel_bytes() - 1);
    assert!(trimmed.panel_count() < full.panel_count());
    assert!(trimmed.panel_bytes() < full.panel_bytes());
    // Zero budget: no panels at all.
    let none = TiledSinrCache::new(Arc::clone(&cache), 2, 0.0, 0);
    assert_eq!(none.panel_count(), 0);
    assert_eq!(none.panel_bytes(), 0);
    // Budget is a speed knob only: gains agree bitwise across all
    // three, and with the flat cache expression.
    let reference = SinrCache::new(&net, &power);
    for from in 0..16u32 {
        for on in 0..16u32 {
            if from == on {
                continue;
            }
            let (f, o) = (LinkId(from), LinkId(on));
            let expect = reference.gain(f, o).to_bits();
            assert_eq!(full.gain(f, o).to_bits(), expect);
            assert_eq!(trimmed.gain(f, o).to_bits(), expect);
            assert_eq!(none.gain(f, o).to_bits(), expect);
        }
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
    let fixed = TiledSinrFeasibility::new(net.clone(), UniformPower::unit(), 8, 1e-2);
    assert!(fixed.tiles().far_pairs() > 0);
    let adaptive = TiledSinrFeasibility::with_options(
        net,
        UniformPower::unit(),
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
fn kernel_threads_do_not_change_verdicts() {
    let mut rng_geo = ChaCha12Rng::seed_from_u64(17);
    let params = SinrParams::with_noise(1e-4);
    // Dense enough that every slot below mixes successes and failures,
    // so a verdict landing on the wrong receiver cannot go unnoticed.
    let net = random_instance(64, 40.0, 1.0, 2.0, params, &mut rng_geo);
    let power = LinearPower::new(params.alpha);
    for epsilon in [0.0, 1e-2] {
        let base = TiledSinrFeasibility::with_options(
            net.clone(),
            power,
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
                net.clone(),
                power,
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
fn approx_bytes_tracks_panel_allocation() {
    let mut rng_geo = ChaCha12Rng::seed_from_u64(3);
    let params = SinrParams::default_noiseless();
    let net = random_instance(12, 30.0, 1.0, 2.0, params, &mut rng_geo);
    let cache = Arc::new(SinrCache::with_dense_limit(&net, &UniformPower::unit(), 0));
    let none = TiledSinrCache::new(Arc::clone(&cache), 3, 0.0, 0);
    let full = TiledSinrCache::new(Arc::clone(&cache), 3, 0.0, usize::MAX);
    // The full store charges its arena plus per-panel bookkeeping
    // overhead on top of what the empty store reports.
    assert!(full.approx_bytes() - none.approx_bytes() >= full.panel_bytes());
    assert!(none.approx_bytes() > 0);
}

#[test]
fn approx_bytes_charges_adaptive_high_water() {
    let net = cluster_instance(10_000.0);
    let adaptive = TiledSinrFeasibility::with_options(
        net,
        UniformPower::unit(),
        TileOptions::new(8, 1e-2)
            .with_panel_mode(PanelCacheMode::Adaptive)
            .with_panel_budget(4 * 4 * 8),
    );
    let before = adaptive.tiles().approx_bytes();
    let attempts: Vec<Attempt> = (0..8).map(|i| attempt(i, i as u64)).collect();
    let _ = adaptive.successes(&attempts, &mut rng());
    // Once panels have been resident the index owns up to the
    // high-water mark even after evictions shrink the resident set.
    assert!(adaptive.tiles().approx_bytes() > before);
    assert_eq!(
        adaptive.tiles().diagnostics().panel_high_water_bytes,
        4 * 4 * 8
    );
}

#[test]
fn shared_node_zero_distances_stay_exact() {
    // Consecutive line links put senders on receivers: NaN gains.
    // Those pairs always share a tile, so they can never be far —
    // the blockage rule survives any epsilon and any hierarchy depth.
    let net = line_instance(6, 1.0, SinrParams::default_noiseless());
    let exact = SinrFeasibility::new(net.clone(), UniformPower::unit());
    for eps in [0.0, 1e-2, 0.5] {
        let tiled = TiledSinrFeasibility::with_options(
            net.clone(),
            UniformPower::unit(),
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
    let exact = SinrFeasibility::new(net.clone(), UniformPower::unit());
    let tiled = TiledSinrFeasibility::new(net, UniformPower::unit(), 8, 1e-2);
    assert!(tiled.tiles().far_pairs() > 0);
    let attempts: Vec<Attempt> = (0..12).map(|i| attempt(i, i as u64)).collect();
    assert_eq!(
        exact.successes(&attempts, &mut rng()),
        tiled.successes(&attempts, &mut rng())
    );
}

#[test]
fn with_tiles_rejects_mismatched_pairing() {
    let params = SinrParams::default_noiseless();
    // Spacing 2: on unit-length links every power assignment
    // coincides at p(1) and the pairing check could not tell them
    // apart.
    let net = line_instance(3, 2.0, params);
    let cache = Arc::new(SinrCache::new(&net, &UniformPower::unit()));
    let tiles = Arc::new(TiledSinrCache::new(cache, 2, 0.0, 0));
    let result = std::panic::catch_unwind(|| {
        TiledSinrFeasibility::with_tiles(net.clone(), LinearPower::new(params.alpha), tiles)
    });
    assert!(result.is_err(), "mismatched power assignment must panic");
}

#[test]
fn tiled_interference_matches_fixed_power_matrix_bitwise() {
    let mut rng_geo = ChaCha12Rng::seed_from_u64(21);
    let params = SinrParams::with_noise(0.001);
    let net = random_instance(10, 30.0, 1.0, 3.0, params, &mut rng_geo);
    let power = LinearPower::new(params.alpha);
    let cache = Arc::new(SinrCache::with_dense_limit(&net, &power, 0));
    let lazy = TiledInterference::new(Arc::clone(&cache));
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
    let tiled = TiledSinrFeasibility::new(net, UniformPower::unit(), 2, 0.0);
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
        net,
        UniformPower::unit(),
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
