//! The tiled slot kernel: per-slot active grouping, coarse-level
//! aggregation, per-receiver-tile walk plans, and the (optionally
//! multi-threaded) verdict loop.
//!
//! A slot runs in three phases on the calling thread, then judges:
//!
//! 1. **Grouping.** The active links are bucketed by sender leaf tile
//!    ([`TileGroups`]) and aggregated up the hierarchy
//!    ([`SlotCoarse`]): occupied tiles ascending, subtree weights, and
//!    each tile's centre, so a far charge reads its centre instead of
//!    recomputing it.
//! 2. **Walk plans.** One DFS per distinct receiver leaf tile
//!    ([`SlotPlans`]) emits packed 4-byte [`PlanTerm`]s in DFS order.
//!    Near terms resolve their panels here, before any fan-out: the
//!    fixed store's receiver row is fetched once per plan and searched
//!    per near term, and its hits and misses are counted in locals and
//!    added to the shared counters once per slot; the adaptive store
//!    resolves (and counts) under its lock.
//! 3. **Verdicts.** Each receiver replays its tile's plan, optionally
//!    split over [`parallel_map`] workers.

use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::index::TiledSinrCache;
use super::panels::{PanelRef, PlanPanels};
use crate::cache::SinrCache;
use crate::feasibility::{
    assert_cache_pairing, dedup_attempts, exact_successes_into, verdicts_per_attempt,
};
use crate::geom::Point;
use crate::network::SinrNetwork;
use crate::power::PowerAssignment;
use dps_core::feasibility::{Attempt, Feasibility};
use dps_core::ids::LinkId;
use dps_core::interference::{max_row_load, InterferenceModel};
use dps_core::load::LinkLoad;
use dps_core::parallel::parallel_map;
use rand::RngCore;

use super::{pow_alpha, MAX_KERNEL_THREADS, MAX_TILES_PER_SIDE, MAX_TILE_LEVELS};

/// The active set bucketed by sender leaf tile, rebuilt per slot:
/// `entries` holds `(tile, link, count)` sorted by `(tile, link)`;
/// `touched[i]` is the `i`-th occupied leaf tile (ascending) whose
/// entries span `entries[start[i]..start[i + 1]]`, whose summed
/// transmission weight `Σ count·p` is `weight[i]` and whose centre is
/// `center[i]`.
#[derive(Default)]
pub(super) struct TileGroups {
    pub(super) entries: Vec<(u32, u32, u32)>,
    pub(super) touched: Vec<u32>,
    pub(super) start: Vec<u32>,
    pub(super) weight: Vec<f64>,
    pub(super) center: Vec<Point>,
}

/// One coarse hierarchy level's occupied tiles this slot, aggregated
/// from the level below: `tiles` ascending, `weight[i]` the summed
/// transmission weight of the subtree, `center[i]` the tile's centre,
/// `children[child_start[i]..child_start[i+1]]` the indices into the
/// level below's occupied list (leaf `touched` for the first coarse
/// level).
#[derive(Default)]
pub(super) struct SlotCoarse {
    tiles: Vec<u32>,
    weight: Vec<f64>,
    center: Vec<Point>,
    child_start: Vec<u32>,
    children: Vec<u32>,
}

/// One slot's walk plans, flattened: `keys` holds the distinct receiver
/// leaf tiles (ascending), plan `i`'s terms span
/// `terms[term_start[i]..term_start[i+1]]` and the panels of its near
/// terms, in term order, span `panels[panel_start[i]..panel_start[i+1]]`.
/// Every receiver in the same leaf tile shares one plan — the far walk
/// runs once per occupied receiver tile, not once per receiver.
#[derive(Default)]
pub(super) struct SlotPlans {
    keys: Vec<u32>,
    term_start: Vec<u32>,
    terms: Vec<PlanTerm>,
    panel_start: Vec<u32>,
    panels: Vec<PanelRef>,
}

impl SlotPlans {
    fn clear(&mut self) {
        self.keys.clear();
        self.term_start.clear();
        self.terms.clear();
        self.panel_start.clear();
        self.panels.clear();
    }
}

/// One term of a walk plan, in DFS (ascending tile) emission order,
/// packed into 4 bytes: bit 31 is the near flag, bits 28–30 the
/// hierarchy level and bits 0–27 an index into that level's occupied
/// list this slot. A far term charges the aggregated subtree weight of
/// occupied entry `idx` at `level` from that tile's centre. A near term
/// (always level 0) accumulates leaf group `idx` exactly, through the
/// plan's next panel.
#[derive(Clone, Copy)]
struct PlanTerm(u32);

impl PlanTerm {
    const NEAR: u32 = 1 << 31;
    const LEVEL_SHIFT: u32 = 28;
    const IDX_MASK: u32 = (1 << Self::LEVEL_SHIFT) - 1;

    fn far(level: u8, idx: u32) -> Self {
        PlanTerm(u32::from(level) << Self::LEVEL_SHIFT | idx)
    }

    fn near(group: u32) -> Self {
        PlanTerm(Self::NEAR | group)
    }

    #[inline(always)]
    fn is_near(self) -> bool {
        self.0 & Self::NEAR != 0
    }

    #[inline(always)]
    fn level(self) -> usize {
        (self.0 >> Self::LEVEL_SHIFT & 0b111) as usize
    }

    #[inline(always)]
    fn idx(self) -> usize {
        (self.0 & Self::IDX_MASK) as usize
    }
}

// An occupied index is below its level's tile count, at most
// `MAX_TILES_PER_SIDE²`, and a level fits the three level bits.
const _: () = assert!(MAX_TILES_PER_SIDE * MAX_TILES_PER_SIDE <= PlanTerm::IDX_MASK as usize + 1);
const _: () = assert!(MAX_TILE_LEVELS <= 8);

/// Per-thread slot scratch for the tiled far-field path: distinct links
/// with multiplicity, per-distinct-link verdicts, the per-slot tile
/// grouping and hierarchy bookkeeping (all sized by the *active* set,
/// never by the tile count — sparse slots stay cheap).
#[derive(Default)]
struct TiledSlotScratch {
    active: Vec<(u32, u32)>,
    verdicts: Vec<bool>,
    groups: TileGroups,
    coarse: Vec<SlotCoarse>,
    pairs: Vec<(u32, u32)>,
    plans: SlotPlans,
    stack: Vec<(u8, u32)>,
    receivers: Vec<(u32, u32)>,
}

thread_local! {
    /// Keeps [`TiledSinrFeasibility`] callable through `&self`/`Arc`
    /// across threads while the slot loop stays allocation-free in
    /// steady state.
    static TILED_SLOT_SCRATCH: RefCell<TiledSlotScratch> =
        RefCell::new(TiledSlotScratch::default());
}

/// The tiled accumulative SINR oracle: near-field terms exactly (from
/// panels or on-the-fly gains), far-field regions as one aggregated
/// term each at the coarsest qualifying hierarchy level, within the
/// `ε·margin` error contract of [`TiledSinrCache`]. The per-receiver
/// verdict loop optionally splits the slot's receivers over
/// [`dps_core::parallel::parallel_map`] worker threads; every
/// receiver's accumulation order is independent of the split, so
/// verdicts are bit-for-bit identical at any thread count.
///
/// An index that far-qualifies no tile pair (always the case at
/// `epsilon = 0`) has nothing to aggregate: the oracle then hands every
/// slot to the exact check [`SinrFeasibility`] runs, dense blocked
/// kernel included, so its verdicts are that oracle's bits
/// (property-tested in the `tiles::tests::contract` unit tests).
///
/// [`SinrFeasibility`]: crate::feasibility::SinrFeasibility
#[derive(Clone, Debug)]
pub struct TiledSinrFeasibility<P> {
    net: SinrNetwork,
    power: P,
    tiles: Arc<TiledSinrCache>,
    threads: usize,
}

impl<P: PowerAssignment> TiledSinrFeasibility<P> {
    /// Creates the flat (single-level) tiled oracle, deriving a
    /// geometry cache (the flat dense gain table is materialized only
    /// under [`crate::cache::SinrCache`]'s dense cap, so metro-scale
    /// instances stay `O(m)` — panels and far-field aggregation replace
    /// the table beyond it) and the tiled index under
    /// [`super::DEFAULT_PANEL_BUDGET_BYTES`].
    pub fn new(net: SinrNetwork, power: P, tiles_per_side: usize, epsilon: f64) -> Self {
        Self::with_options(net, power, super::TileOptions::new(tiles_per_side, epsilon))
    }

    /// Creates the tiled oracle from full [`super::TileOptions`] —
    /// hierarchy depth and panel residency included.
    pub fn with_options(net: SinrNetwork, power: P, options: super::TileOptions) -> Self {
        let cache = Arc::new(SinrCache::new(&net, &power));
        let tiles = Arc::new(TiledSinrCache::with_options(cache, options));
        Self::with_tiles(net, power, tiles)
    }

    /// Creates the oracle around an already-built shared tiled index —
    /// the substrate-sharing path. The kernel starts single-threaded;
    /// see [`TiledSinrFeasibility::kernel_threads`].
    ///
    /// # Panics
    ///
    /// Panics if the index's underlying cache was not built for this
    /// `(network, power)` pair: the link count must match and every
    /// link's cached transmission power and signal strength must be
    /// bit-for-bit what `power` produces on `net` (the same pairing
    /// contract as [`crate::feasibility::SinrFeasibility::with_cache`]).
    pub fn with_tiles(net: SinrNetwork, power: P, tiles: Arc<TiledSinrCache>) -> Self {
        assert_cache_pairing("TiledSinrCache", tiles.cache(), &net, &power);
        TiledSinrFeasibility {
            net,
            power,
            tiles,
            threads: 1,
        }
    }

    /// Sets the worker thread count of the slot kernel's per-receiver
    /// verdict loop. `1` (the default) judges inline on the calling
    /// thread; higher counts split the slot's receivers into contiguous
    /// chunks over [`parallel_map`] workers. Verdicts are bit-for-bit
    /// identical at any setting.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is `0` or exceeds [`MAX_KERNEL_THREADS`].
    pub fn kernel_threads(mut self, threads: usize) -> Self {
        assert!(
            (1..=MAX_KERNEL_THREADS).contains(&threads),
            "kernel threads must be in 1..={MAX_KERNEL_THREADS}, got {threads}"
        );
        self.threads = threads;
        self
    }

    /// The configured worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The network the oracle judges.
    pub fn network(&self) -> &SinrNetwork {
        &self.net
    }

    /// The power assignment the oracle judges under.
    pub fn power(&self) -> &P {
        &self.power
    }

    /// The tiled index the oracle judges from.
    pub fn tiles(&self) -> &TiledSinrCache {
        &self.tiles
    }

    /// The shared handle to the tiled index.
    pub fn shared_tiles(&self) -> &Arc<TiledSinrCache> {
        &self.tiles
    }

    /// Buckets the active list by sender leaf tile: entries sorted by
    /// `(tile, link)`, touched tiles ascending with group extents and
    /// summed transmission weights `W_S = Σ count·p`.
    fn group_active_by_tile(&self, active: &[(u32, u32)], groups: &mut TileGroups) {
        groups.entries.clear();
        groups.touched.clear();
        groups.start.clear();
        groups.weight.clear();
        groups.center.clear();
        groups.entries.extend(
            active
                .iter()
                .map(|&(from, count)| (self.tiles.sender_tile[from as usize], from, count)),
        );
        groups
            .entries
            .sort_unstable_by_key(|&(tile, link, _)| (tile, link));
        let tx_power = self.tiles.cache.tx_powers();
        let leaf = &self.tiles.levels[0];
        for (i, &(tile, from, count)) in groups.entries.iter().enumerate() {
            if groups.touched.last() != Some(&tile) {
                groups.touched.push(tile);
                groups.start.push(i as u32);
                groups.weight.push(0.0);
                groups.center.push(leaf.center(tile));
            }
            *groups.weight.last_mut().expect("group opened above") +=
                count as f64 * tx_power[from as usize];
        }
        groups.start.push(groups.entries.len() as u32);
    }

    /// Aggregates the slot's occupied leaf groups up the hierarchy:
    /// coarse level `ℓ` (stored at `coarse[ℓ-1]`) maps the occupied
    /// entries of the level below to their parents, sorted and deduped,
    /// with subtree weights summed in child order — deterministic
    /// regardless of thread count, since this runs before the fan-out.
    fn build_coarse(
        &self,
        groups: &TileGroups,
        coarse: &mut Vec<SlotCoarse>,
        pairs: &mut Vec<(u32, u32)>,
    ) {
        let levels = &self.tiles.levels;
        coarse.resize_with(levels.len().saturating_sub(1), SlotCoarse::default);
        for l in 1..levels.len() {
            let (done, rest) = coarse.split_at_mut(l - 1);
            let (below_tiles, below_weight, below_side): (&[u32], &[f64], usize) = if l == 1 {
                (
                    &groups.touched,
                    &groups.weight,
                    self.tiles.grid.tiles_per_side(),
                )
            } else {
                let below = &done[l - 2];
                (&below.tiles, &below.weight, levels[l - 1].tiles_per_side)
            };
            let this_side = levels[l].tiles_per_side;
            pairs.clear();
            pairs.extend(below_tiles.iter().enumerate().map(|(i, &tile)| {
                let row = tile as usize / below_side;
                let col = tile as usize % below_side;
                let parent = ((row >> 1) * this_side + (col >> 1)) as u32;
                (parent, i as u32)
            }));
            // Parent indices are not monotone in the child's row-major
            // order (a row of children alternates between two parent
            // rows), so sorting is what restores ascending tile order.
            pairs.sort_unstable();
            let up = &mut rest[0];
            up.tiles.clear();
            up.weight.clear();
            up.center.clear();
            up.child_start.clear();
            up.children.clear();
            for &(parent, child) in pairs.iter() {
                if up.tiles.last() != Some(&parent) {
                    up.tiles.push(parent);
                    up.child_start.push(up.children.len() as u32);
                    up.weight.push(0.0);
                    up.center.push(levels[l].center(parent));
                }
                up.children.push(child);
                *up.weight.last_mut().expect("group opened above") += below_weight[child as usize];
            }
            up.child_start.push(up.children.len() as u32);
        }
    }

    /// Builds one walk plan per distinct receiver leaf tile of the
    /// active set: a DFS from the coarsest level that charges each far
    /// subtree at the coarsest qualifying level and descends otherwise,
    /// emitting terms in ascending-tile DFS order. Near terms resolve
    /// their panel here — on the calling thread, before any fan-out —
    /// so the adaptive panel cache's evict/refill order is
    /// deterministic and the parallel verdict loop reads panels
    /// lock-free. A fixed store's row for the plan's receiver tile is
    /// fetched once and searched per near term; its hits and misses are
    /// counted here and added to the shared counters once per slot.
    /// Each adaptive resolution names the receiver rows the slot reads:
    /// `receivers` is rebuilt from the active links' `(receiver tile,
    /// receiver rank)`, sorted, so each plan's rows are one run of it.
    fn build_plans(
        &self,
        active: &[(u32, u32)],
        groups: &TileGroups,
        coarse: &[SlotCoarse],
        plans: &mut SlotPlans,
        stack: &mut Vec<(u8, u32)>,
        receivers: &mut Vec<(u32, u32)>,
    ) {
        let tiles = &*self.tiles;
        let levels = &tiles.levels;
        let g0 = tiles.grid.tiles_per_side();
        tiles.panels.tick();
        plans.clear();
        receivers.clear();
        receivers.extend(active.iter().map(|&(on, _)| {
            (
                tiles.receiver_tile[on as usize],
                tiles.receiver_rank[on as usize],
            )
        }));
        receivers.sort_unstable();

        let mut visited = [0u64; MAX_TILE_LEVELS];
        let mut far_terms = [0u64; MAX_TILE_LEVELS];
        let mut near_terms = 0u64;
        let (mut hits, mut misses) = (0u64, 0u64);
        let top = levels.len() - 1;
        for run in receivers.chunk_by(|a, b| a.0 == b.0) {
            let r_leaf = run[0].0;
            // The receiver tile at every level, once per plan.
            let mut r_tile = [0u32; MAX_TILE_LEVELS];
            for (tile, level) in r_tile.iter_mut().zip(levels) {
                *tile = level.tile_of_leaf(r_leaf, g0);
            }
            let panels = tiles.panels.for_receiver(r_leaf);
            plans.keys.push(r_leaf);
            plans.term_start.push(plans.terms.len() as u32);
            plans.panel_start.push(plans.panels.len() as u32);
            stack.clear();
            if top == 0 {
                for j in (0..groups.touched.len()).rev() {
                    stack.push((0, j as u32));
                }
            } else {
                for j in (0..coarse[top - 1].tiles.len()).rev() {
                    stack.push((top as u8, j as u32));
                }
            }
            while let Some((l, j)) = stack.pop() {
                let l_us = l as usize;
                visited[l_us] += 1;
                if l == 0 {
                    let s = groups.touched[j as usize];
                    if levels[0].is_far(s, r_leaf) {
                        far_terms[0] += 1;
                        plans.terms.push(PlanTerm::far(0, j));
                    } else {
                        near_terms += 1;
                        let panel = match &panels {
                            PlanPanels::Fixed(row) => match row.find(s) {
                                Some(offset) => {
                                    hits += 1;
                                    PanelRef::Arena(offset)
                                }
                                None => {
                                    misses += 1;
                                    PanelRef::None
                                }
                            },
                            PlanPanels::Adaptive(store) => {
                                let rows = run.iter().map(|&(_, rank)| rank);
                                tiles.resolve_adaptive(store, s, r_leaf, rows)
                            }
                        };
                        plans.terms.push(PlanTerm::near(j));
                        plans.panels.push(panel);
                    }
                } else {
                    let occ = &coarse[l_us - 1];
                    let s = occ.tiles[j as usize];
                    if levels[l_us].is_far(s, r_tile[l_us]) {
                        far_terms[l_us] += 1;
                        plans.terms.push(PlanTerm::far(l, j));
                    } else {
                        let span = occ.child_start[j as usize] as usize
                            ..occ.child_start[j as usize + 1] as usize;
                        for k in span.rev() {
                            stack.push((l - 1, occ.children[k]));
                        }
                    }
                }
            }
        }
        plans.term_start.push(plans.terms.len() as u32);
        plans.panel_start.push(plans.panels.len() as u32);

        for (counter, n) in tiles.walk.visited.iter().zip(&visited) {
            counter.fetch_add(*n, Ordering::Relaxed);
        }
        for (counter, n) in tiles.walk.far_terms.iter().zip(&far_terms) {
            counter.fetch_add(*n, Ordering::Relaxed);
        }
        tiles
            .walk
            .near_terms
            .fetch_add(near_terms, Ordering::Relaxed);
        let counters = tiles.panels.counters();
        counters.hits.fetch_add(hits, Ordering::Relaxed);
        counters.misses.fetch_add(misses, Ordering::Relaxed);
    }
}

/// The tiled interference accumulated at distinct active link `on_raw`
/// of a slot whose index far-qualifies some tile pair.
///
/// The kernel replays its receiver tile's walk plan in DFS term
/// order: a far term contributes one aggregated subtree term
/// `W / d(center, r)^α` (with `on`'s own power removed when its sender
/// tile lies under the charged subtree), a near term streams its leaf
/// group's active senders through the tile-pair panel row (contiguous
/// reads) or on-the-fly gains when the pair is un-panelled. At `α = 3`
/// far charges take `d³` as `d·d·d`, which moves far sums from the
/// `powf` ones by rounding only, well inside the `ε·margin` contract.
///
/// A free function over the (fully `Sync`) tiled index rather than a
/// method, so the parallel verdict closure never captures the oracle's
/// power-assignment type parameter.
#[inline]
fn interference_with_plans(
    tiles: &TiledSinrCache,
    on_raw: u32,
    groups: &TileGroups,
    coarse: &[SlotCoarse],
    plans: &SlotPlans,
) -> f64 {
    if tiles.cache.alpha() == 3.0 {
        accumulate::<true>(tiles, on_raw, groups, coarse, plans)
    } else {
        accumulate::<false>(tiles, on_raw, groups, coarse, plans)
    }
}

/// [`interference_with_plans`] with far charges `W / d^α` through
/// `pow_alpha::<CUBE>`.
#[inline(always)]
fn accumulate<const CUBE: bool>(
    tiles: &TiledSinrCache,
    on_raw: u32,
    groups: &TileGroups,
    coarse: &[SlotCoarse],
    plans: &SlotPlans,
) -> f64 {
    let cache = &*tiles.cache;
    let on = LinkId(on_raw);
    let mut interference = 0.0;
    let g0 = tiles.grid.tiles_per_side();
    let r_leaf = tiles.receiver_tile[on_raw as usize];
    let r_rank = tiles.receiver_rank[on_raw as usize] as usize;
    let plan = plans
        .keys
        .binary_search(&r_leaf)
        .expect("every active receiver tile has a plan");
    let terms = &plans.terms[plans.term_start[plan] as usize..plans.term_start[plan + 1] as usize];
    let mut panels =
        plans.panels[plans.panel_start[plan] as usize..plans.panel_start[plan + 1] as usize].iter();
    let arena = tiles.panels.arena();
    let alpha = cache.alpha();
    let receiver = cache.receiver_positions()[on_raw as usize];
    // `on`'s own sender tile at every level.
    let own_leaf = tiles.sender_tile[on_raw as usize];
    let mut own_tile = [0u32; MAX_TILE_LEVELS];
    for (tile, level) in own_tile.iter_mut().zip(&tiles.levels) {
        *tile = level.tile_of_leaf(own_leaf, g0);
    }
    for &term in terms {
        let idx = term.idx();
        if !term.is_near() {
            // Far tiles are geometrically incapable of zero cross
            // distances, so aggregating them never hides a NaN.
            let l = term.level();
            let (s_tile, mut weight, center) = if l == 0 {
                (groups.touched[idx], groups.weight[idx], groups.center[idx])
            } else {
                let occ = &coarse[l - 1];
                (occ.tiles[idx], occ.weight[idx], occ.center[idx])
            };
            if own_tile[l] == s_tile {
                // The exact sum excludes `on`'s own transmission;
                // remove it from the aggregate. Receivers sharing a
                // slot with their own multiplicity > 1 are judged
                // failed before interference is evaluated, so one
                // transmission is exact here.
                weight -= cache.tx_powers()[on_raw as usize];
            }
            let d = center.distance(&receiver);
            interference += weight / pow_alpha::<CUBE>(d, alpha);
            continue;
        }
        let group_entries =
            &groups.entries[groups.start[idx] as usize..groups.start[idx + 1] as usize];
        let s = groups.touched[idx] as usize;
        let s_count = (tiles.senders_start[s + 1] - tiles.senders_start[s]) as usize;
        let row: Option<&[f64]> = match panels.next().expect("one panel per near term") {
            PanelRef::Arena(offset) => Some(&arena[offset + r_rank * s_count..][..s_count]),
            PanelRef::Owned(data) => Some(&data[r_rank * s_count..][..s_count]),
            PanelRef::None => None,
        };
        match row {
            Some(row) => {
                for &(_, from_raw, from_count) in group_entries {
                    if from_raw == on_raw {
                        continue;
                    }
                    interference +=
                        from_count as f64 * row[tiles.sender_rank[from_raw as usize] as usize];
                }
            }
            None => {
                for &(_, from_raw, from_count) in group_entries {
                    if from_raw == on_raw {
                        continue;
                    }
                    interference += from_count as f64 * cache.gain(LinkId(from_raw), on);
                }
            }
        }
    }
    interference
}

impl<P: PowerAssignment> Feasibility for TiledSinrFeasibility<P> {
    fn successes_into(&self, attempts: &[Attempt], out: &mut Vec<bool>, _rng: &mut dyn RngCore) {
        out.clear();
        if attempts.is_empty() {
            return;
        }
        self.tiles.walk.slots.fetch_add(1, Ordering::Relaxed);
        let cache = self.tiles.cache();
        if self.tiles.far_pairs() == 0 {
            // Nothing to aggregate: the exact check, same bits.
            exact_successes_into(cache, attempts, out);
            return;
        }
        let beta = cache.beta();
        let noise = cache.noise();
        TILED_SLOT_SCRATCH.with(|scratch| {
            let TiledSlotScratch {
                active,
                verdicts,
                groups,
                coarse,
                pairs,
                plans,
                stack,
                receivers,
            } = &mut *scratch.borrow_mut();
            dedup_attempts(attempts, active);
            self.group_active_by_tile(active, groups);
            self.build_coarse(groups, coarse, pairs);
            self.build_plans(active, groups, coarse, plans, stack, receivers);
            let tiles: &TiledSinrCache = &self.tiles;
            let judge = |on_raw: u32, count: u32| -> bool {
                if count != 1 {
                    // A shared transmitter collides regardless of SINR.
                    return false;
                }
                let interference = interference_with_plans(tiles, on_raw, groups, coarse, plans);
                cache.signal(LinkId(on_raw)) >= beta * (interference + noise)
            };
            verdicts.clear();
            if self.threads <= 1 {
                verdicts.extend(active.iter().map(|&(on_raw, count)| judge(on_raw, count)));
            } else {
                // Every receiver's accumulation is independent and
                // parallel_map returns verdicts in receiver order, so
                // this is bit-for-bit the single-threaded loop above.
                verdicts.extend(parallel_map(active.len(), self.threads, |at| {
                    let (on_raw, count) = active[at];
                    judge(on_raw, count)
                }));
            }
            verdicts_per_attempt(attempts, active, verdicts, out);
        });
    }
}

#[cfg(test)]
impl<P: PowerAssignment> TiledSinrFeasibility<P> {
    /// The accumulated tiled interference each *distinct* attempted
    /// link sees this slot, in ascending link order — the exact value
    /// the kernel compares against `β·(I + ν)`. The referee tests pin
    /// it bit for bit against a plain recursive walk and within
    /// `ε·margin` of the exact sums.
    pub(crate) fn slot_interference(&self, attempts: &[Attempt]) -> Vec<(LinkId, f64)> {
        let TiledSlotScratch {
            active,
            groups,
            coarse,
            pairs,
            plans,
            stack,
            receivers,
            ..
        } = &mut TiledSlotScratch::default();
        dedup_attempts(attempts, active);
        let far = self.tiles.far_pairs() > 0;
        if far {
            self.group_active_by_tile(active, groups);
            self.build_coarse(groups, coarse, pairs);
            self.build_plans(active, groups, coarse, plans, stack, receivers);
        }
        let cache = self.tiles.cache();
        active
            .iter()
            .map(|&(on_raw, _)| {
                let sum = if far {
                    interference_with_plans(&self.tiles, on_raw, groups, coarse, plans)
                } else {
                    crate::feasibility::exact_interference(cache, active, on_raw)
                };
                (LinkId(on_raw), sum)
            })
            .collect()
    }
}

/// On-demand interference rows over a shared [`SinrCache`]: the
/// `O(1)`-memory companion of
/// [`crate::matrix::SinrInterference::fixed_power`] for metro-scale
/// instances, where materializing the dense `m × m` table is
/// prohibitive (34 GiB at `m = 65536`).
///
/// Entries are bit-for-bit the fixed-power matrix construction:
/// diagonal `1`, off-diagonal `a_p(from, on)` clamped into `[0, 1]`
/// (affectance already lands there, `NaN`s included via the clamp).
///
/// The whole-matrix measure `‖W·R‖∞` routes through the tiled index's
/// far-field aggregation (the `measure` submodule's tiled walk)
/// whenever any tile pair is far-qualified — the trait default's
/// `O(m²)` row walk is what made megacity-scale injection-rate
/// normalization cost hours. With no far pairs (`ε = 0` included) the
/// measure stays the trait default, bit-for-bit.
#[derive(Clone, Debug)]
pub struct TiledInterference {
    cache: Arc<SinrCache>,
    tiles: Arc<TiledSinrCache>,
}

impl TiledInterference {
    /// Wraps a shared tiled index: entries stay the exact on-demand
    /// affectances, the measure routes through the index's far-field
    /// aggregation under its `ε·margin` error contract.
    pub fn with_tiles(tiles: Arc<TiledSinrCache>) -> Self {
        TiledInterference {
            cache: tiles.shared_cache().clone(),
            tiles,
        }
    }

    /// The shared handle to the underlying geometry cache.
    pub fn shared_cache(&self) -> &Arc<SinrCache> {
        &self.cache
    }
}

impl InterferenceModel for TiledInterference {
    fn num_links(&self) -> usize {
        self.cache.num_links()
    }

    fn weight(&self, on: LinkId, from: LinkId) -> f64 {
        if on == from {
            1.0
        } else {
            self.cache.affectance(from, on).clamp(0.0, 1.0)
        }
    }

    fn measure(&self, load: &LinkLoad) -> f64 {
        if self.tiles.far_pairs() > 0 {
            super::measure::measure_with_tiles(&self.tiles, load)
        } else {
            // The trait default's exact row walk, so the ε = 0 path
            // stays bit-for-bit with every other model.
            max_row_load(self, load)
        }
    }
}
