//! Quadtree-style coarsening levels over the leaf [`TileGrid`]: per-level
//! membership statistics and far-qualification tables.
//!
//! Level `ℓ` merges `2^ℓ × 2^ℓ` leaf tiles into one coarse tile
//! (`g_ℓ = ⌈g/2^ℓ⌉` tiles per side), and its statistics — member radii
//! from the *coarse* centre, max power, min margin — are computed
//! directly from the member links, so a far qualification at level `ℓ`
//! is sound for every leaf descendant simultaneously. Level `0` *is*
//! the leaf grid; its statistics and far table reproduce the flat
//! index bit-for-bit.

use super::grid::TileGrid;
use super::MAX_FAR_TABLE_SIDE;
use crate::cache::SinrCache;
use crate::geom::Point;

/// One coarsening level: implicit geometry (origin + scaled tile size),
/// per-tile membership statistics, and — at levels coarse enough to
/// afford one — the far-qualification table.
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
    /// `far[s·T + r] != 0` iff sender tile `s` is far-qualified for
    /// receiver tile `r` at this level. Empty when the level is too
    /// fine for a table (`g_ℓ >` [`MAX_FAR_TABLE_SIDE`]) or `ε = 0` —
    /// such levels never far-qualify and the walk always descends.
    pub(super) far: Vec<u8>,
    /// Number of far-qualified pairs at this level.
    pub(super) far_pairs: usize,
}

impl TileLevel {
    /// Total tiles `g_ℓ²`.
    pub(super) fn num_tiles(&self) -> usize {
        self.tiles_per_side * self.tiles_per_side
    }

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
        !self.far.is_empty() && self.far[s as usize * self.num_tiles() + r as usize] != 0
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
        if epsilon > 0.0 && g <= MAX_FAR_TABLE_SIDE {
            let occ_s: Vec<usize> = (0..t).filter(|&i| level.sender_count[i] > 0).collect();
            let occ_r: Vec<usize> = (0..t).filter(|&i| level.receiver_count[i] > 0).collect();
            let mut far = vec![0u8; t * t];
            let mut far_pairs = 0usize;
            for &s in &occ_s {
                let rho_s = level.sender_radius[s];
                let p_max = level.tile_max_power[s];
                for &r in &occ_r {
                    let margin = level.tile_min_margin[r];
                    // NaN margins fail `is_finite`, so `<=` is safe here.
                    if margin <= 0.0 || !margin.is_finite() {
                        continue;
                    }
                    let d_min = level.center(s as u32).distance(&level.center(r as u32))
                        - level.receiver_radius[r];
                    if d_min <= rho_s {
                        continue;
                    }
                    let spread = p_max
                        * (1.0 / (d_min - rho_s).powf(alpha) - 1.0 / (d_min + rho_s).powf(alpha));
                    if spread <= epsilon * margin / m as f64 {
                        far[s * t + r] = 1;
                        far_pairs += 1;
                    }
                }
            }
            level.far = far;
            level.far_pairs = far_pairs;
        }
        levels.push(level);
    }
    levels
}
