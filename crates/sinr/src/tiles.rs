//! Spatially-tiled SINR substrate: hierarchical far-field tile
//! aggregation, panel-blocked near-field gain storage with fixed or
//! adaptive residency, and an optionally threaded slot kernel for
//! metro- to megacity-scale instances.
//!
//! The exact oracle ([`crate::feasibility::SinrFeasibility`]) judges a
//! slot in `O(k²)` pairwise gain evaluations; beyond the dense-table
//! limit every evaluation recomputes `p/d^α` from endpoint positions.
//! Kesselheim's analysis rests on geometric locality of affectance —
//! distant senders contribute negligible interference — and this module
//! exploits exactly that structure:
//!
//! * **Tiling.** [`TileGrid`] buckets every link into a uniform
//!   `g × g` grid of square tiles covering the deployment's bounding
//!   box (a link has *two* tiles: one for its sender position, one for
//!   its receiver position).
//! * **Hierarchy.** Above the leaf grid sit up to
//!   [`MAX_TILE_LEVELS`] quadtree-style coarsening levels (each level
//!   merges 2×2 tiles of the level below). Far qualification runs
//!   independently at every level with that level's centres, radii,
//!   powers and margins, and the slot kernel charges each far region at
//!   the *coarsest* level that qualifies — so the far-field walk visits
//!   `O(occupied tiles at the coarsest qualifying level)` instead of
//!   `O(occupied leaf tiles)`, and leaf grids up to
//!   [`MAX_TILES_PER_SIDE`]` = 1024` per side stay cheap to walk: fine
//!   leaf grids keep panels small while coarse levels keep the walk
//!   short.
//! * **One walk.** The slot kernel and the `‖W·R‖∞` measure share one
//!   occupied-tile pyramid (the `pyramid` submodule): the caller lists
//!   its occupied leaf tiles with their weights (`Σ count·p` per slot,
//!   `Σ rate·p` per load), one coarsening aggregates them up the
//!   hierarchy, and one depth-first walk per receiver leaf tile reports
//!   each far charge and near leaf in ascending tile order. Only the
//!   kernel adds the walk's counts to [`TileDiagnostics`].
//! * **Far-field aggregation.** A tile pair `(S, R)` at any level is
//!   *far* when replacing every sender `s ∈ S` by the tile centre `c_S`
//!   perturbs the interference any receiver in `R` sees by at most
//!   `ε·margin/m` per transmission (an analytic worst-case bound from
//!   tile centres, radii, powers and margins — see
//!   [`TiledSinrCache::is_far`]). The slot kernel then charges far
//!   tiles one aggregated term `W_S/d(c_S, r)^α` instead of one term
//!   per sender, and the total approximation error at a receiver with
//!   `k ≤ m` concurrent transmissions stays within `ε·margin`
//!   regardless of which levels the charges land on (each transmission
//!   is charged exactly once, at exactly one level).
//!   Each level keeps its qualifications as a receiver-major bitset:
//!   bit `(r, s)` sits in word `r·⌈T/64⌉ + s/64` of a `T`-tile level,
//!   so a walk plan's probes for one receiver tile read one row (512
//!   bytes at 64 tiles per side).
//! * **One path-loss power.** The module's own `d^α` terms (far
//!   qualification, far charges and the `‖W·R‖∞` measure's near field)
//!   go through one helper, `pow_alpha`: `d·d·d` at `α = 3`, `powf`
//!   otherwise. Qualification at `α = 3` falls back to `powf` for pairs
//!   whose cube spread lies within a rounding-error window of the
//!   budget, so every table is the `powf` build's, bit for bit. Far
//!   charges through the cube differ from `powf` by rounding only, far
//!   inside the `ε·margin` contract. The slot kernel's un-panelled near
//!   terms are gains on the fly; without a dense gain table at `α = 3`
//!   they are certified cubes (the cache's `CubeSum`), which decide a
//!   verdict unless its slack lies inside their rounding window, where
//!   the `powf` sum decides instead, so verdicts keep the `powf` sum's
//!   bits.
//! * **Panels.** Near tile pairs store their pairwise gains as small
//!   dense *panels* (one `|S|×|R|` block per leaf pair); an index with
//!   no far pair reads none and builds none. Under
//!   [`PanelCacheMode::Fixed`] panels are allocated once at build time
//!   in deterministic row-major tile order within a byte budget and
//!   indexed receiver-major, like the far bitsets: each receiver tile
//!   holds its panels' sender tiles ascending, which a walk plan
//!   fetches once and searches per near term; under
//!   [`PanelCacheMode::Adaptive`] they live in a touch-count LRU cache
//!   that evicts the stalest pairs when the budget overflows, so the
//!   resident set tracks the *active* tiles of a long run. There the
//!   block is allocated on admission and rows are filled on demand:
//!   a slot fills, from the exact gain expression, only the receiver
//!   rows it judges. Panel entries are
//!   produced by the *same* floating-point expression as the flat dense
//!   table and the naive oracle ([`crate::cache`]'s `raw_gain`), so
//!   panel hits, misses, refills and evictions are all bit-for-bit
//!   interchangeable.
//! * **Parallel slot kernel.** [`TiledSinrFeasibility`] can fan the
//!   per-receiver interference accumulation across worker threads
//!   ([`dps_core::parallel::parallel_map`], re-exported as
//!   `dps_sim::parallel::parallel_map`): the active receivers are
//!   split into contiguous chunks, every receiver's accumulation order
//!   is independent of the split, and `parallel_map` returns the
//!   verdicts in receiver order — so verdicts are bit-for-bit
//!   identical at any thread count.
//!
//! **Exactness knob.** `epsilon = 0` disables far-field aggregation
//! entirely: no tile pair qualifies as far at any level. An index with
//! no far pair (at `epsilon = 0`, or on geometry where nothing
//! qualifies) has nothing for the tiled kernel to do, so the oracle
//! hands each slot to the exact check the flat oracle runs, and the
//! verdicts are bit-for-bit identical — property-tested in
//! `tiles::tests::contract` across level and thread counts, with and
//! without a dense gain table. `epsilon > 0` trades a bounded verdict
//! perturbation for `O(active tiles at the coarsest qualifying level)`
//! far-field work.
//!
//! Zero cross distances (a sender on top of another link's receiver)
//! can never be far-qualified — coincident points always share a tile
//! at every level, and a tile pair qualifies only when the centre
//! distance strictly exceeds both radii — so the `NaN`-poisoning
//! blockage rule of the exact oracle is preserved verbatim.

mod grid;
mod hierarchy;
mod index;
mod kernel;
mod measure;
mod panels;
mod pyramid;

#[cfg(test)]
mod tests;

pub use grid::TileGrid;
pub use index::{TileDiagnostics, TiledSinrCache};
pub use kernel::{TiledInterference, TiledSinrFeasibility};
pub use panels::PanelCacheMode;

/// Default byte budget for near-field gain panels (`8 MiB`, matching
/// [`crate::cache::DEFAULT_DENSE_GAIN_BUDGET_BYTES`]). Under
/// [`PanelCacheMode::Fixed`] panels are allocated in deterministic tile
/// order until the next one would exceed the budget; under
/// [`PanelCacheMode::Adaptive`] the budget bounds the resident set.
/// Un-panelled pairs fall back to on-the-fly evaluation of the same
/// expression.
pub const DEFAULT_PANEL_BUDGET_BYTES: usize = 8 << 20;

/// Largest supported leaf grid resolution (tiles per side). The
/// hierarchical far walk only ever consults far tables at levels coarse
/// enough for one ([`MAX_FAR_TABLE_SIDE`]), so the leaf grid is bounded
/// by per-tile bookkeeping memory (`O(g²)` summary floats), not by a
/// far table's `g⁴` bits.
pub const MAX_TILES_PER_SIDE: usize = 1024;

/// Coarsest side length at which a level still materializes its
/// far-qualification table: `64⁴` bits (2 MiB) is the largest table a
/// single level may hold. Finer levels carry no table and never
/// far-qualify — their tiles always descend (or fall to the near path).
pub const MAX_FAR_TABLE_SIDE: usize = 64;

/// Most coarsening levels a tiled index may stack (including the leaf
/// level). Eight levels coarsen a `1024`-side leaf grid down to `8`
/// tiles per side; building more would only duplicate the coarsest.
pub const MAX_TILE_LEVELS: usize = 8;

/// Most worker threads the slot kernel will fan receiver shards over.
pub const MAX_KERNEL_THREADS: usize = 64;

/// `d^α`, the one path-loss power of the tiled substrate's own terms
/// (far qualification, far charges, the measure's near field). `CUBE`
/// is set by callers exactly when `α = 3`; it selects `d·d·d` at
/// compile time, and `powf` serves every other exponent.
#[inline(always)]
fn pow_alpha<const CUBE: bool>(d: f64, alpha: f64) -> f64 {
    if CUBE {
        d * d * d
    } else {
        d.powf(alpha)
    }
}

/// Build options for [`TiledSinrCache::with_options`] /
/// [`TiledSinrFeasibility::with_options`]: leaf resolution, hierarchy
/// depth, far-field error knob, and the panel cache's budget and
/// residency mode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TileOptions {
    /// Leaf tiles per side, `1..=`[`MAX_TILES_PER_SIDE`].
    pub tiles_per_side: usize,
    /// Hierarchy depth including the leaf level,
    /// `1..=`[`MAX_TILE_LEVELS`]; `1` is the flat (single-level) index.
    /// Levels past the one-tile-per-side point are dropped silently.
    pub levels: usize,
    /// Per-slot relative far-field error budget; `0` keeps the kernel
    /// bit-for-bit exact.
    pub epsilon: f64,
    /// Byte budget for near-field gain panels.
    pub panel_budget_bytes: usize,
    /// Residency policy of the panel store.
    pub panel_mode: PanelCacheMode,
}

impl TileOptions {
    /// Flat single-level options at the given resolution and epsilon,
    /// with the default panel budget and fixed panels.
    pub fn new(tiles_per_side: usize, epsilon: f64) -> Self {
        TileOptions {
            tiles_per_side,
            epsilon,
            ..TileOptions::default()
        }
    }

    /// Sets the hierarchy depth.
    pub fn with_levels(mut self, levels: usize) -> Self {
        self.levels = levels;
        self
    }

    /// Sets the panel byte budget.
    pub fn with_panel_budget(mut self, bytes: usize) -> Self {
        self.panel_budget_bytes = bytes;
        self
    }

    /// Sets the panel residency mode.
    pub fn with_panel_mode(mut self, mode: PanelCacheMode) -> Self {
        self.panel_mode = mode;
        self
    }
}

impl Default for TileOptions {
    fn default() -> Self {
        TileOptions {
            tiles_per_side: 16,
            levels: 1,
            epsilon: 0.0,
            panel_budget_bytes: DEFAULT_PANEL_BUDGET_BYTES,
            panel_mode: PanelCacheMode::Fixed,
        }
    }
}
