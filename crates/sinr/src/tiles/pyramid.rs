//! The occupied-tile pyramid and its far-field walk, shared by the slot
//! kernel (active senders weighted by `count·p`) and the `‖W·R‖∞`
//! measure (loaded senders weighted by `rate·p`).
//!
//! The caller lists its occupied leaf tiles with their weights;
//! [`Pyramid::build`] coarsens them up the hierarchy, and
//! [`Pyramid::walk`] runs one depth-first walk per receiver leaf tile,
//! reporting each examined tile as a far charge or a near leaf. Both
//! callers therefore aggregate, order and qualify far terms the same
//! way; what they do with a term is theirs.

use super::hierarchy::TileLevel;
use super::MAX_TILE_LEVELS;
use crate::geom::Point;

/// One hierarchy level's occupied tiles: `tiles` ascending, `weight[i]`
/// the summed weight of tile `i`'s subtree, `center[i]` its centre, and
/// above the leaf `children[child_start[i]..child_start[i + 1]]` the
/// indices of its occupied children in the level below, ascending.
#[derive(Default)]
pub(super) struct Occupied {
    pub(super) tiles: Vec<u32>,
    pub(super) weight: Vec<f64>,
    pub(super) center: Vec<Point>,
    child_start: Vec<u32>,
    children: Vec<u32>,
}

impl Occupied {
    fn clear(&mut self) {
        self.tiles.clear();
        self.weight.clear();
        self.center.clear();
        self.child_start.clear();
        self.children.clear();
    }
}

/// One tile the walk examined, as an index into its level's occupied
/// list.
pub(super) enum Visit {
    /// Entry `idx` of level `level` far-qualifies for the receiver:
    /// charge its subtree as one term.
    Far(u8, u32),
    /// Leaf entry `idx` is near the receiver: sum its senders exactly.
    Near(u32),
}

/// The occupied tiles of every hierarchy level, leaf first.
#[derive(Default)]
pub(super) struct Pyramid {
    pub(super) levels: Vec<Occupied>,
    pairs: Vec<(u32, u32)>,
}

impl Pyramid {
    /// Rebuilds the pyramid over `levels` from the occupied leaf tiles
    /// `leaf`, `(tile, weight)` in ascending tile order. Coarse level
    /// `ℓ` maps the occupied tiles of the level below to their parents,
    /// sorted and deduped, with subtree weights summed in child order.
    pub(super) fn build(
        &mut self,
        levels: &[TileLevel],
        leaf: impl IntoIterator<Item = (u32, f64)>,
    ) {
        self.levels.resize_with(levels.len(), Occupied::default);
        let base = &mut self.levels[0];
        base.clear();
        for (tile, weight) in leaf {
            base.tiles.push(tile);
            base.weight.push(weight);
            base.center.push(levels[0].center(tile));
        }
        for l in 1..levels.len() {
            let (done, rest) = self.levels.split_at_mut(l);
            let below = &done[l - 1];
            let (below_side, this_side) = (levels[l - 1].tiles_per_side, levels[l].tiles_per_side);
            self.pairs.clear();
            self.pairs
                .extend(below.tiles.iter().enumerate().map(|(i, &tile)| {
                    let row = tile as usize / below_side;
                    let col = tile as usize % below_side;
                    let parent = ((row >> 1) * this_side + (col >> 1)) as u32;
                    (parent, i as u32)
                }));
            // Parent indices are not monotone in the child's row-major
            // order (a row of children alternates between two parent
            // rows), so sorting is what restores ascending tile order.
            self.pairs.sort_unstable();
            let up = &mut rest[0];
            up.clear();
            for &(parent, child) in &self.pairs {
                if up.tiles.last() != Some(&parent) {
                    up.tiles.push(parent);
                    up.child_start.push(up.children.len() as u32);
                    up.weight.push(0.0);
                    up.center.push(levels[l].center(parent));
                }
                up.children.push(child);
                *up.weight.last_mut().expect("group opened above") += below.weight[child as usize];
            }
            up.child_start.push(up.children.len() as u32);
        }
    }

    /// The far-field walk for receiver leaf tile `r_leaf`: depth first
    /// from the coarsest level, occupied tiles ascending at every level.
    /// A tile that its level far-qualifies for the receiver's tile at
    /// that level is reported [`Visit::Far`]; otherwise a leaf is
    /// reported [`Visit::Near`] and a coarse tile's occupied children
    /// are walked. `visited[ℓ]` counts the tiles examined at level `ℓ`.
    #[inline]
    pub(super) fn walk(
        &self,
        levels: &[TileLevel],
        r_leaf: u32,
        stack: &mut Vec<(u8, u32)>,
        visited: &mut [u64; MAX_TILE_LEVELS],
        mut emit: impl FnMut(Visit),
    ) {
        let r_tile = leaf_ancestors(levels, r_leaf);
        let top = levels.len() - 1;
        stack.clear();
        stack.extend(
            (0..self.levels[top].tiles.len() as u32)
                .rev()
                .map(|j| (top as u8, j)),
        );
        while let Some((l, j)) = stack.pop() {
            let l_us = l as usize;
            visited[l_us] += 1;
            let occ = &self.levels[l_us];
            if levels[l_us].is_far(occ.tiles[j as usize], r_tile[l_us]) {
                emit(Visit::Far(l, j));
            } else if l == 0 {
                emit(Visit::Near(j));
            } else {
                let span =
                    occ.child_start[j as usize] as usize..occ.child_start[j as usize + 1] as usize;
                stack.extend(occ.children[span].iter().rev().map(|&k| (l - 1, k)));
            }
        }
    }
}

/// The tile holding leaf tile `leaf` at every level of `levels` (`0`
/// past the coarsest).
#[inline]
pub(super) fn leaf_ancestors(levels: &[TileLevel], leaf: u32) -> [u32; MAX_TILE_LEVELS] {
    let g0 = levels[0].tiles_per_side;
    let mut tiles = [0u32; MAX_TILE_LEVELS];
    for (tile, level) in tiles.iter_mut().zip(levels) {
        *tile = level.tile_of_leaf(leaf, g0);
    }
    tiles
}
