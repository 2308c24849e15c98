//! Quadtree-style coarsening levels over the leaf [`TileGrid`]: per-level
//! membership statistics and far-qualification tables.
//!
//! Level `ℓ` merges `2^ℓ × 2^ℓ` leaf tiles into one coarse tile
//! (`g_ℓ = ⌈g/2^ℓ⌉` tiles per side), and its statistics — member radii
//! from the *coarse* centre, max power, min margin — are computed
//! directly from the member links, so a far qualification at level `ℓ`
//! is sound for every leaf descendant simultaneously. Level `0` *is*
//! the leaf grid, centres included ([`TileLevel::center`]).

use super::grid::TileGrid;
use super::{pow_alpha, MAX_FAR_TABLE_SIDE};
use crate::cache::SinrCache;
use crate::geom::Point;

/// One coarsening level: implicit geometry (origin + scaled tile size),
/// per-tile membership statistics, and — at levels coarse enough to
/// afford one — the far-qualification bitset.
#[derive(Debug)]
pub(super) struct TileLevel {
    /// Coarsening shift `ℓ`: one tile covers a `2^ℓ × 2^ℓ` leaf block.
    pub(super) shift: u32,
    /// Tiles per side `g_ℓ = ((g−1) >> ℓ) + 1`.
    pub(super) tiles_per_side: usize,
    origin: Point,
    tile_size: f64,
    /// Senders per tile (occupancy gate for qualification loops).
    pub(super) sender_count: Vec<u32>,
    /// Receivers per tile.
    pub(super) receiver_count: Vec<u32>,
    /// Max sender distance from the tile centre (`0` empty).
    pub(super) sender_radius: Vec<f64>,
    /// Max receiver distance from the tile centre (`0` empty).
    pub(super) receiver_radius: Vec<f64>,
    /// Max transmission power among senders in each tile (`0` empty).
    pub(super) tile_max_power: Vec<f64>,
    /// Min noise-adjusted margin among receivers in each tile
    /// (`+∞` empty).
    pub(super) tile_min_margin: Vec<f64>,
    /// Receiver-major bitset: bit `s % 64` of word
    /// `r·row_words + s/64` is set iff sender tile `s` is far-qualified
    /// for receiver tile `r` at this level. A walk plan serves one
    /// receiver tile, so all its probes read one row of `row_words`
    /// words (512 bytes at `g_ℓ = 64`, a 2 MiB table). Empty when the
    /// level is too fine for a table (`g_ℓ >` [`MAX_FAR_TABLE_SIDE`])
    /// or `ε = 0` — such levels never far-qualify and the walk always
    /// descends.
    pub(super) far: Vec<u64>,
    /// Words per receiver row of `far`: `⌈T/64⌉` (`0` without a table).
    pub(super) row_words: usize,
    /// Number of far-qualified pairs at this level.
    pub(super) far_pairs: usize,
}

impl TileLevel {
    /// The tile of this level containing leaf tile `leaf` (of a leaf
    /// grid with `g0` tiles per side). At `shift = 0` this is the
    /// identity.
    #[inline]
    pub(super) fn tile_of_leaf(&self, leaf: u32, g0: usize) -> u32 {
        let row = leaf as usize / g0;
        let col = leaf as usize % g0;
        ((row >> self.shift) * self.tiles_per_side + (col >> self.shift)) as u32
    }

    /// The geometric centre of `tile` — the same box-centre formula as
    /// [`TileGrid::center`], with the tile side scaled by `2^ℓ`, so the
    /// level-0 centres are bit-for-bit the leaf grid's.
    #[inline]
    pub(super) fn center(&self, tile: u32) -> Point {
        let g = self.tiles_per_side as u32;
        let col = (tile % g) as f64;
        let row = (tile / g) as f64;
        Point::new(
            self.origin.x + (col + 0.5) * self.tile_size,
            self.origin.y + (row + 0.5) * self.tile_size,
        )
    }

    /// Whether sender tile `s` is far-qualified for receiver tile `r`
    /// at this level (always false at levels without a far table).
    #[inline]
    pub(super) fn is_far(&self, s: u32, r: u32) -> bool {
        let s = s as usize;
        !self.far.is_empty() && self.far[r as usize * self.row_words + s / 64] >> (s % 64) & 1 != 0
    }
}

/// Builds the hierarchy: level 0 (the leaf) through at most `requested`
/// levels, stopping early once a level reaches one tile per side
/// (coarser levels would only duplicate it).
pub(super) fn build_levels(
    cache: &SinrCache,
    grid: &TileGrid,
    sender_tile: &[u32],
    receiver_tile: &[u32],
    requested: usize,
    epsilon: f64,
) -> Vec<TileLevel> {
    let g0 = grid.tiles_per_side();
    let m = cache.num_links();
    let alpha = cache.alpha();
    let mut levels: Vec<TileLevel> = Vec::new();
    for shift in 0..requested as u32 {
        if levels.last().is_some_and(|l| l.tiles_per_side == 1) {
            break;
        }
        let g = ((g0 - 1) >> shift) + 1;
        let t = g * g;
        let mut level = TileLevel {
            shift,
            tiles_per_side: g,
            origin: grid.origin(),
            tile_size: grid.tile_size() * (1u64 << shift) as f64,
            sender_count: vec![0; t],
            receiver_count: vec![0; t],
            sender_radius: vec![0.0; t],
            receiver_radius: vec![0.0; t],
            tile_max_power: vec![0.0; t],
            tile_min_margin: vec![f64::INFINITY; t],
            far: Vec::new(),
            row_words: 0,
            far_pairs: 0,
        };
        for (link, &leaf) in sender_tile.iter().enumerate() {
            let tile = level.tile_of_leaf(leaf, g0) as usize;
            let d = level
                .center(tile as u32)
                .distance(&cache.sender_positions()[link]);
            level.sender_count[tile] += 1;
            level.sender_radius[tile] = level.sender_radius[tile].max(d);
            level.tile_max_power[tile] = level.tile_max_power[tile].max(cache.tx_powers()[link]);
        }
        for (link, &leaf) in receiver_tile.iter().enumerate() {
            let tile = level.tile_of_leaf(leaf, g0) as usize;
            let d = level
                .center(tile as u32)
                .distance(&cache.receiver_positions()[link]);
            level.receiver_count[tile] += 1;
            level.receiver_radius[tile] = level.receiver_radius[tile].max(d);
            level.tile_min_margin[tile] = level.tile_min_margin[tile].min(cache.margins()[link]);
        }

        // Far qualification at this level. For sender tile S and
        // receiver tile R with centre distance D, every receiver r ∈ R
        // has d(c_S, r) ≥ D − ρ_R =: d_min, and every sender s ∈ S has
        // |d(s, r) − d(c_S, r)| ≤ ρ_S. Since x ↦ 1/x^α is decreasing
        // and its spread over [d − ρ_S, d + ρ_S] shrinks with d, the
        // per-transmission error of charging s's power from c_S instead
        // of s is at most
        //   P_max(S) · (1/(d_min − ρ_S)^α − 1/(d_min + ρ_S)^α),
        // which must fit the per-transmission budget
        // ε · margin_min(R) / m. Pairs with d_min ≤ ρ_S (possible
        // zero/negative distances) or margin_min ≤ 0 (a comparison that
        // tolerates no perturbation) never qualify. The bound uses this
        // level's own radii and margins, so a qualification here is
        // sound for every leaf descendant of the pair at once.
        // `far_spread_fits` decides each pair. At α = 3 it evaluates
        // the spread with cubes, not `powf`, and hands the pair to
        // `powf` only when the cube spread lies within a window around
        // the budget that bounds the two evaluations' difference; so
        // every decision, and the table, is the `powf` build's. Rows
        // are receiver tiles, so the loop fills one bitset row at a
        // time.
        if epsilon > 0.0 && g <= MAX_FAR_TABLE_SIDE {
            let occ_s: Vec<usize> = (0..t).filter(|&i| level.sender_count[i] > 0).collect();
            let occ_r: Vec<usize> = (0..t).filter(|&i| level.receiver_count[i] > 0).collect();
            let row_words = t.div_ceil(64);
            let mut far = vec![0u64; t * row_words];
            let mut far_pairs = 0usize;
            for &r in &occ_r {
                let margin = level.tile_min_margin[r];
                // NaN margins fail `is_finite`, so `<=` is safe here.
                if margin <= 0.0 || !margin.is_finite() {
                    continue;
                }
                let budget = epsilon * margin / m as f64;
                let center_r = level.center(r as u32);
                let row = &mut far[r * row_words..][..row_words];
                for &s in &occ_s {
                    let rho_s = level.sender_radius[s];
                    let d_min =
                        level.center(s as u32).distance(&center_r) - level.receiver_radius[r];
                    if d_min <= rho_s {
                        continue;
                    }
                    let p_max = level.tile_max_power[s];
                    if far_spread_fits(p_max, d_min - rho_s, d_min + rho_s, alpha, budget) {
                        row[s / 64] |= 1 << (s % 64);
                        far_pairs += 1;
                    }
                }
            }
            level.far = far;
            level.row_words = row_words;
            level.far_pairs = far_pairs;
        }
        levels.push(level);
    }
    levels
}

/// Whether the centre-substitution spread `p·(1/a^α − 1/b^α)` of a
/// sender tile with max power `p`, over cross distances `a ≤ b`, fits
/// `budget` — decided bit for bit as `powf` decides it.
///
/// At `α = 3` the cube decides. Write `x = 1/a³`, `y = 1/b³`, and
/// `u = 2⁻⁵³`. Each cube reciprocal is two multiplications and a
/// division, relative error ≤ 3u; each `powf` reciprocal is a faithful
/// `pow` (≤ 1 ulp, 2u) and a division, ≤ 3u. So the cube and `powf`
/// values of `x − y` differ by at most 6u·(x + y), and the subtraction
/// and the multiplication by `p` round each side by at most 2u·p·x.
/// The two spreads then differ by at most about 10u·p·(x + y). (The
/// spread is a difference of two close terms, so this is not small
/// relative to the spread; it is bounded by the terms' sum.) Where the
/// cube spread lies more than `window = 64u·p·(x + y)` from the budget,
/// a safety factor of six, both spreads fall on the same side of it;
/// otherwise `powf` decides. The bound needs every intermediate normal:
/// `a³` normal and `y` normal make `a·a`, `b·b`, `b³` and `x` normal
/// too, and a normal `window` keeps `p·(x − y)` finite and puts an
/// underflowed product's absolute rounding error (at most `2⁻¹⁰⁷⁵`)
/// under `u·window`. Outside that range `powf` decides as well, so the
/// table is the `powf` table at any input. Other exponents use `powf`.
fn far_spread_fits(p: f64, a: f64, b: f64, alpha: f64, budget: f64) -> bool {
    if alpha == 3.0 {
        let a3 = pow_alpha::<true>(a, alpha);
        let (x, y) = (1.0 / a3, 1.0 / pow_alpha::<true>(b, alpha));
        let spread = p * (x - y);
        let window = 32.0 * f64::EPSILON * p * (x + y);
        if a3.is_normal() && y.is_normal() && window.is_normal() && (spread - budget).abs() > window
        {
            return spread <= budget;
        }
    }
    p * (1.0 / pow_alpha::<false>(a, alpha) - 1.0 / pow_alpha::<false>(b, alpha)) <= budget
}
