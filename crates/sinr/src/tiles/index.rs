//! The tiled spatial index over a [`SinrCache`]: per-link tile
//! assignments and CSR member lists at the leaf, the hierarchy of
//! coarsening levels, the panel store, and the far-walk diagnostics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use super::grid::TileGrid;
use super::hierarchy::{build_levels, TileLevel};
use super::panels::{AdaptivePanels, FixedPanels, PanelRef, PanelStore};
use super::{PanelCacheMode, TileOptions, MAX_TILE_LEVELS};
use crate::cache::{raw_gain, SinrCache};
use dps_core::ids::LinkId;

/// Per-level far-walk counters (relaxed atomics: diagnostics only,
/// never part of a verdict).
#[derive(Debug)]
pub(super) struct WalkCounters {
    /// Slots the tiled kernel has judged.
    pub(super) slots: AtomicU64,
    /// Occupied tiles examined during plan construction, per level.
    pub(super) visited: Vec<AtomicU64>,
    /// Far aggregate terms emitted into walk plans, per level.
    pub(super) far_terms: Vec<AtomicU64>,
    /// Near (exact) groups emitted into walk plans.
    pub(super) near_terms: AtomicU64,
}

/// A point-in-time snapshot of the tiled kernel's far-walk and panel
/// cache activity, exposed by [`TiledSinrCache::diagnostics`] and, via
/// `scenario run --json`, by the scenario runner.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TileDiagnostics {
    /// Slots the tiled kernel has judged.
    pub slots: u64,
    /// Tiles per side at each hierarchy level, leaf first.
    pub level_tiles_per_side: Vec<usize>,
    /// Occupied tiles examined during plan construction, per level.
    pub tiles_visited_per_level: Vec<u64>,
    /// Far aggregate terms emitted into walk plans, per level.
    pub far_terms_per_level: Vec<u64>,
    /// Near (exact) groups emitted into walk plans.
    pub near_terms: u64,
    /// Panel-store hits during plan resolution.
    pub panel_hits: u64,
    /// Panel-store misses during plan resolution.
    pub panel_misses: u64,
    /// Panels evicted by the adaptive store (always `0` for fixed).
    pub panel_evictions: u64,
    /// Panel-data bytes currently resident.
    pub panel_resident_bytes: usize,
    /// High-water mark of resident panel-data bytes.
    pub panel_high_water_bytes: usize,
}

/// Tiled spatial index over a [`SinrCache`]: per-link tile assignments,
/// per-tile membership and summary statistics at every hierarchy level,
/// the per-level far-qualification tables, and the near-field gain
/// panel store.
///
/// Built once per `(network, power, options)` combination and shared
/// behind an [`Arc`] by the tiled oracle ([`super::TiledSinrFeasibility`])
/// and any diagnostics. Not `Clone`: the panel store (adaptive mode)
/// and the diagnostics counters are shared state, and every consumer
/// holds the index behind an `Arc` anyway.
#[derive(Debug)]
pub struct TiledSinrCache {
    pub(super) cache: Arc<SinrCache>,
    pub(super) grid: TileGrid,
    epsilon: f64,

    /// Per-link tile of the *sender* position.
    pub(super) sender_tile: Vec<u32>,
    /// Per-link tile of the *receiver* position.
    pub(super) receiver_tile: Vec<u32>,
    /// Per-link rank within its sender tile's member list.
    pub(super) sender_rank: Vec<u32>,
    /// Per-link rank within its receiver tile's member list.
    pub(super) receiver_rank: Vec<u32>,
    /// CSR starts (length `T+1`) of the per-tile sender member lists.
    pub(super) senders_start: Vec<u32>,
    /// Link ids with sender in each tile, ascending within a tile.
    pub(super) senders_links: Vec<u32>,
    /// CSR starts (length `T+1`) of the per-tile receiver member lists.
    pub(super) receivers_start: Vec<u32>,
    /// Link ids with receiver in each tile, ascending within a tile.
    pub(super) receivers_links: Vec<u32>,

    /// Hierarchy levels, leaf (`shift 0`) first.
    pub(super) levels: Vec<TileLevel>,
    /// Far-qualified pairs summed across levels.
    far_pairs: usize,

    /// Near-field gain panels.
    pub(super) panels: PanelStore,
    /// Far-walk counters.
    pub(super) walk: WalkCounters,
}

impl TiledSinrCache {
    /// Builds the tiled index over an already-built shared cache.
    ///
    /// `options.epsilon` is the per-slot relative error budget: a slot
    /// with at most `m` concurrent transmissions sees its per-receiver
    /// interference perturbed by at most `epsilon · margin(receiver)`,
    /// no matter which hierarchy level each far charge lands on.
    /// `epsilon = 0` disables far-field aggregation entirely (the tiled
    /// oracle then runs the exact oracle's slot check).
    ///
    /// # Panics
    ///
    /// Panics if `options.tiles_per_side` is out of
    /// `1..=`[`super::MAX_TILES_PER_SIDE`], if `options.levels` is out
    /// of `1..=`[`MAX_TILE_LEVELS`], if `options.epsilon` is negative
    /// or non-finite, or if any position is non-finite.
    pub fn with_options(cache: Arc<SinrCache>, options: TileOptions) -> Self {
        let TileOptions {
            tiles_per_side,
            levels: requested_levels,
            epsilon,
            panel_budget_bytes,
            panel_mode,
        } = options;
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "epsilon must be finite and non-negative, got {epsilon}"
        );
        assert!(
            (1..=MAX_TILE_LEVELS).contains(&requested_levels),
            "levels must be in 1..={MAX_TILE_LEVELS}, got {requested_levels}"
        );
        let m = cache.num_links();
        let grid = TileGrid::cover(
            cache.sender_positions(),
            cache.receiver_positions(),
            tiles_per_side,
        );
        let t = grid.num_tiles();

        let sender_tile: Vec<u32> = cache
            .sender_positions()
            .iter()
            .map(|p| grid.tile_of(p))
            .collect();
        let receiver_tile: Vec<u32> = cache
            .receiver_positions()
            .iter()
            .map(|p| grid.tile_of(p))
            .collect();

        // Counting sort into CSR member lists (ascending link ids per
        // tile, since links are visited in ascending order).
        let csr = |tiles: &[u32]| -> (Vec<u32>, Vec<u32>, Vec<u32>) {
            let mut start = vec![0u32; t + 1];
            for &tile in tiles {
                start[tile as usize + 1] += 1;
            }
            for i in 0..t {
                start[i + 1] += start[i];
            }
            let mut cursor = start.clone();
            let mut links = vec![0u32; m];
            let mut rank = vec![0u32; m];
            for (link, &tile) in tiles.iter().enumerate() {
                let at = cursor[tile as usize];
                links[at as usize] = link as u32;
                rank[link] = at - start[tile as usize];
                cursor[tile as usize] += 1;
            }
            (start, links, rank)
        };
        let (senders_start, senders_links, sender_rank) = csr(&sender_tile);
        let (receivers_start, receivers_links, receiver_rank) = csr(&receiver_tile);

        let levels = build_levels(
            &cache,
            &grid,
            &sender_tile,
            &receiver_tile,
            requested_levels,
            epsilon,
        );
        let far_pairs = levels.iter().map(|l| l.far_pairs).sum();

        // Panel store. Fixed mode fills panels for near leaf pairs in
        // row-major (S, R) order over the *occupied* tile lists,
        // stopping at the first panel that no longer fits the budget
        // (so build work is bounded by the budget, not by g⁴), and
        // indexes them receiver-major. Adaptive mode starts empty and
        // fills on demand. With no far pair the oracle runs the exact
        // check and the measure the trait default, so no path reads a
        // panel and none is built.
        let panels = match panel_mode {
            PanelCacheMode::Adaptive => PanelStore::adaptive(panel_budget_bytes),
            PanelCacheMode::Fixed if far_pairs == 0 => {
                PanelStore::Fixed(FixedPanels::new(t, &[], Vec::new()))
            }
            PanelCacheMode::Fixed => {
                let budget_cells = panel_budget_bytes / std::mem::size_of::<f64>();
                let occupied = |start: &[u32]| -> Vec<usize> {
                    (0..t).filter(|&i| start[i] != start[i + 1]).collect()
                };
                let occ_s = occupied(&senders_start);
                let occ_r = occupied(&receivers_start);
                let mut placed = Vec::new();
                let mut arena = Vec::new();
                'alloc: for &s in &occ_s {
                    let s_links =
                        &senders_links[senders_start[s] as usize..senders_start[s + 1] as usize];
                    for &r in &occ_r {
                        if levels[0].is_far(s as u32, r as u32) {
                            continue;
                        }
                        let r_links = &receivers_links
                            [receivers_start[r] as usize..receivers_start[r + 1] as usize];
                        let cells = s_links.len() * r_links.len();
                        if arena.len() + cells > budget_cells {
                            break 'alloc;
                        }
                        let offset = arena.len();
                        placed.push((s as u32, r as u32, offset));
                        arena.resize(offset + cells, 0.0);
                        for (&on, row) in r_links
                            .iter()
                            .zip(arena[offset..].chunks_exact_mut(s_links.len()))
                        {
                            fill_panel_row(&cache, s_links, on, row);
                        }
                    }
                }
                PanelStore::Fixed(FixedPanels::new(t, &placed, arena))
            }
        };

        let walk = WalkCounters {
            slots: AtomicU64::new(0),
            visited: (0..levels.len()).map(|_| AtomicU64::new(0)).collect(),
            far_terms: (0..levels.len()).map(|_| AtomicU64::new(0)).collect(),
            near_terms: AtomicU64::new(0),
        };

        TiledSinrCache {
            cache,
            grid,
            epsilon,
            sender_tile,
            receiver_tile,
            sender_rank,
            receiver_rank,
            senders_start,
            senders_links,
            receivers_start,
            receivers_links,
            levels,
            far_pairs,
            panels,
            walk,
        }
    }

    /// The underlying shared geometry cache.
    pub fn cache(&self) -> &SinrCache {
        &self.cache
    }

    /// The shared handle to the underlying geometry cache.
    pub fn shared_cache(&self) -> &Arc<SinrCache> {
        &self.cache
    }

    /// The leaf tile grid.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// The far-field error knob `ε` the index was built with.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of links covered.
    pub fn num_links(&self) -> usize {
        self.cache.num_links()
    }

    /// Total number of leaf tiles `g²`.
    pub fn num_tiles(&self) -> usize {
        self.grid.num_tiles()
    }

    /// Number of hierarchy levels actually built (requested levels past
    /// the one-tile-per-side point are dropped).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Tiles per side at hierarchy `level` (level `0` is the leaf).
    ///
    /// # Panics
    ///
    /// Panics if `level >= num_levels()`.
    pub fn level_tiles_per_side(&self, level: usize) -> usize {
        self.levels[level].tiles_per_side
    }

    /// Leaf tile of `link`'s sender position.
    pub fn sender_tile_of(&self, link: LinkId) -> u32 {
        self.sender_tile[link.index()]
    }

    /// Leaf tile of `link`'s receiver position.
    pub fn receiver_tile_of(&self, link: LinkId) -> u32 {
        self.receiver_tile[link.index()]
    }

    /// Whether sender tile `s` is far-qualified for receiver tile `r`
    /// at the leaf level.
    ///
    /// # Panics
    ///
    /// Panics if a tile index is out of the leaf grid's range.
    pub fn is_far(&self, s: u32, r: u32) -> bool {
        self.is_far_at(0, s, r)
    }

    /// Whether sender tile `s` is far-qualified for receiver tile `r`
    /// at hierarchy `level` (tile indices are level-local).
    ///
    /// # Panics
    ///
    /// Panics if `level >= num_levels()` or a tile index is out of the
    /// level's range.
    pub fn is_far_at(&self, level: usize, s: u32, r: u32) -> bool {
        let level = &self.levels[level];
        let tiles = level.tiles_per_side * level.tiles_per_side;
        // A bitset row is padded to whole words, so an out-of-range
        // sender tile would otherwise read padding or the next row.
        assert!(
            (s as usize) < tiles && (r as usize) < tiles,
            "tile pair ({s}, {r}) out of range for a level of {tiles} tiles"
        );
        level.is_far(s, r)
    }

    /// Far-qualified tile pairs summed across all levels (`0` iff the
    /// kernel is fully exact, in particular always `0` at
    /// `epsilon = 0`).
    pub fn far_pairs(&self) -> usize {
        self.far_pairs
    }

    /// Far-qualified tile pairs at hierarchy `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= num_levels()`.
    pub fn far_pairs_at(&self, level: usize) -> usize {
        self.levels[level].far_pairs
    }

    /// Number of near-field gain panels currently resident.
    pub fn panel_count(&self) -> usize {
        self.panels.resident_count()
    }

    /// Panel-data bytes currently resident.
    pub fn panel_bytes(&self) -> usize {
        self.panels.resident_bytes()
    }

    /// Panel cells computed from the gain expression so far: the fixed
    /// arena at build, plus every receiver row the adaptive store has
    /// filled on demand.
    pub fn panel_cells_filled(&self) -> u64 {
        self.panels.counters().cells_filled.load(Ordering::Relaxed)
    }

    /// A snapshot of the far-walk and panel-cache diagnostics.
    pub fn diagnostics(&self) -> TileDiagnostics {
        let counters = self.panels.counters();
        TileDiagnostics {
            slots: self.walk.slots.load(Ordering::Relaxed),
            level_tiles_per_side: self.levels.iter().map(|l| l.tiles_per_side).collect(),
            tiles_visited_per_level: self
                .walk
                .visited
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            far_terms_per_level: self
                .walk
                .far_terms
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            near_terms: self.walk.near_terms.load(Ordering::Relaxed),
            panel_hits: counters.hits.load(Ordering::Relaxed),
            panel_misses: counters.misses.load(Ordering::Relaxed),
            panel_evictions: counters.evictions.load(Ordering::Relaxed),
            panel_resident_bytes: self.panels.resident_bytes(),
            panel_high_water_bytes: self.panels.high_water_bytes(),
        }
    }

    /// Resolves the adaptive store's panel of leaf tile pair `(s, r)`
    /// for the current slot. `rows` are the ranks, within `r`'s
    /// receiver list, of the receivers the slot judges; the store fills
    /// those of them it has not filled yet from the exact gain
    /// expression.
    pub(super) fn resolve_adaptive(
        &self,
        adaptive: &AdaptivePanels,
        s: u32,
        r: u32,
        rows: impl IntoIterator<Item = u32>,
    ) -> PanelRef {
        let s_links = &self.senders_links
            [self.senders_start[s as usize] as usize..self.senders_start[s as usize + 1] as usize];
        let r_links = &self.receivers_links[self.receivers_start[r as usize] as usize
            ..self.receivers_start[r as usize + 1] as usize];
        adaptive.resolve((s, r), s_links.len(), r_links.len(), rows, |row, out| {
            fill_panel_row(&self.cache, s_links, r_links[row], out)
        })
    }
}

#[cfg(test)]
impl TiledSinrCache {
    /// Calls `visit(from, on, gain)` for every filled cell of every
    /// resident panel: the fixed arena's whole blocks, the adaptive
    /// store's filled rows. Returns the number of cells visited.
    pub(crate) fn for_each_panel_gain(&self, mut visit: impl FnMut(LinkId, LinkId, f64)) -> usize {
        let span = |start: &[u32], tile: u32| {
            start[tile as usize] as usize..start[tile as usize + 1] as usize
        };
        let mut cells = 0;
        self.panels.for_each_resident(|(s, r), data, filled| {
            let s_links = &self.senders_links[span(&self.senders_start, s)];
            let r_links = &self.receivers_links[span(&self.receivers_start, r)];
            for (row, &on) in r_links.iter().enumerate().filter(|&(row, _)| filled(row)) {
                let gains = &data[row * s_links.len()..][..s_links.len()];
                for (&from, &gain) in s_links.iter().zip(gains) {
                    visit(LinkId(from), LinkId(on), gain);
                    cells += 1;
                }
            }
        });
        cells
    }
}

/// Writes receiver `on`'s panel row: the raw gain from every link of
/// `s_links` (a sender tile's member list), in member order.
fn fill_panel_row(cache: &SinrCache, s_links: &[u32], on: u32, out: &mut [f64]) {
    for (cell, &from) in out.iter_mut().zip(s_links) {
        *cell = raw_gain(
            cache.sender_positions(),
            cache.receiver_positions(),
            cache.tx_powers(),
            cache.alpha(),
            from as usize,
            on as usize,
        );
    }
}
