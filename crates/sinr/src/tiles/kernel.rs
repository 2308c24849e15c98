//! The tiled slot kernel: per-slot active grouping, coarse-level
//! aggregation, per-receiver-tile walk plans, and the (optionally
//! multi-threaded) verdict loop.

use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::index::TiledSinrCache;
use super::panels::PanelRef;
use crate::cache::SinrCache;
use crate::feasibility::{assert_cache_pairing, dedup_attempts};
use crate::network::SinrNetwork;
use crate::power::PowerAssignment;
use dps_core::feasibility::{Attempt, Feasibility};
use dps_core::ids::LinkId;
use dps_core::interference::InterferenceModel;
use dps_core::load::LinkLoad;
use dps_core::parallel::parallel_map;
use rand::RngCore;

use super::MAX_KERNEL_THREADS;

/// The active set bucketed by sender leaf tile, rebuilt per slot:
/// `entries` holds `(tile, link, count)` sorted by `(tile, link)`;
/// `touched[i]` is the `i`-th occupied leaf tile (ascending) whose
/// entries span `entries[start[i]..start[i + 1]]` and whose summed
/// transmission weight `Σ count·p` is `weight[i]`.
#[derive(Default)]
pub(super) struct TileGroups {
    pub(super) entries: Vec<(u32, u32, u32)>,
    pub(super) touched: Vec<u32>,
    pub(super) start: Vec<u32>,
    pub(super) weight: Vec<f64>,
}

/// One coarse hierarchy level's occupied tiles this slot, aggregated
/// from the level below: `tiles` ascending, `weight[i]` the summed
/// transmission weight of the subtree, `children[child_start[i]..
/// child_start[i+1]]` the indices into the level below's occupied list
/// (leaf `touched` for the first coarse level).
#[derive(Default)]
pub(super) struct SlotCoarse {
    tiles: Vec<u32>,
    weight: Vec<f64>,
    child_start: Vec<u32>,
    children: Vec<u32>,
}

/// One slot's walk plans, flattened: `keys` holds the distinct receiver
/// leaf tiles (ascending), plan `i`'s terms span
/// `terms[term_start[i]..term_start[i+1]]`. Every receiver in the same
/// leaf tile shares one plan — the far walk runs once per occupied
/// receiver tile, not once per receiver.
#[derive(Default)]
pub(super) struct SlotPlans {
    keys: Vec<u32>,
    term_start: Vec<u32>,
    terms: Vec<PlanTerm>,
}

impl SlotPlans {
    fn clear(&mut self) {
        self.keys.clear();
        self.term_start.clear();
        self.terms.clear();
    }
}

/// One term of a walk plan, in DFS (ascending tile) emission order.
enum PlanTerm {
    /// Charge the aggregated subtree weight of occupied entry `idx` at
    /// hierarchy `level` from that tile's centre.
    Far { level: u8, idx: u32 },
    /// Accumulate leaf group `group` exactly, through `panel` when one
    /// is resident.
    Near { group: u32, panel: PanelRef },
}

/// Per-thread slot scratch for the tiled oracle: distinct links with
/// multiplicity, per-distinct-link verdicts, the per-slot tile grouping
/// and hierarchy bookkeeping (all sized by the *active* set, never by
/// the tile count — sparse slots stay cheap).
struct TiledSlotScratch {
    active: Vec<(u32, u32)>,
    verdicts: Vec<bool>,
    groups: TileGroups,
    coarse: Vec<SlotCoarse>,
    pairs: Vec<(u32, u32)>,
    plans: SlotPlans,
    stack: Vec<(u8, u32)>,
    interference: Vec<f64>,
    lanes: Vec<f64>,
}

thread_local! {
    /// Keeps [`TiledSinrFeasibility`] callable through `&self`/`Arc`
    /// across threads while the slot loop stays allocation-free in
    /// steady state.
    static TILED_SLOT_SCRATCH: RefCell<TiledSlotScratch> = RefCell::new(TiledSlotScratch {
        active: Vec::new(),
        verdicts: Vec::new(),
        groups: TileGroups::default(),
        coarse: Vec::new(),
        pairs: Vec::new(),
        plans: SlotPlans::default(),
        stack: Vec::new(),
        interference: Vec::new(),
        lanes: Vec::new(),
    });
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
/// At `epsilon = 0` this is bit-for-bit [`SinrFeasibility`]'s fallback
/// scalar path (property-tested in `tests/prop_tiles.rs`).
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

    /// Creates the flat tiled oracle with an explicit panel byte budget
    /// (`0` forces every gain onto the on-the-fly path).
    pub fn with_budget(
        net: SinrNetwork,
        power: P,
        tiles_per_side: usize,
        epsilon: f64,
        panel_budget_bytes: usize,
    ) -> Self {
        Self::with_options(
            net,
            power,
            super::TileOptions::new(tiles_per_side, epsilon).with_panel_budget(panel_budget_bytes),
        )
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

    /// The accumulated tiled interference each *distinct* attempted
    /// link sees this slot, in ascending link order — the exact value
    /// the kernel compares against `β·(I + ν)`. Diagnostic/referee
    /// surface: `tests/prop_tiles.rs` pins `|I_tiled − I_exact| ≤
    /// ε·margin` against the naive oracle's sums.
    pub fn slot_interference(&self, attempts: &[Attempt]) -> Vec<(LinkId, f64)> {
        let mut active: Vec<(u32, u32)> = Vec::new();
        dedup_attempts(attempts, &mut active);
        let mut groups = TileGroups::default();
        let mut coarse = Vec::new();
        let mut pairs = Vec::new();
        let mut plans = SlotPlans::default();
        let mut stack = Vec::new();
        self.group_active_by_tile(&active, &mut groups);
        if !groups.touched.is_empty() {
            self.build_coarse(&groups, &mut coarse, &mut pairs);
            self.build_plans(&active, &groups, &coarse, &mut plans, &mut stack);
        }
        active
            .iter()
            .map(|&(on_raw, _)| {
                (
                    LinkId(on_raw),
                    interference_with_plans(&self.tiles, on_raw, &active, &groups, &coarse, &plans),
                )
            })
            .collect()
    }

    /// Buckets the active list by sender leaf tile: entries sorted by
    /// `(tile, link)`, touched tiles ascending with group extents and
    /// summed transmission weights `W_S = Σ count·p`. Skipped entirely
    /// when nothing is far-qualified at any level — the slot kernel
    /// then runs the plain (exact) scalar loop and never reads the
    /// grouping.
    fn group_active_by_tile(&self, active: &[(u32, u32)], groups: &mut TileGroups) {
        groups.entries.clear();
        groups.touched.clear();
        groups.start.clear();
        groups.weight.clear();
        if self.tiles.far_pairs() == 0 {
            return;
        }
        groups.entries.extend(
            active
                .iter()
                .map(|&(from, count)| (self.tiles.sender_tile[from as usize], from, count)),
        );
        groups
            .entries
            .sort_unstable_by_key(|&(tile, link, _)| (tile, link));
        let tx_power = self.tiles.cache.tx_powers();
        for (i, &(tile, from, count)) in groups.entries.iter().enumerate() {
            if groups.touched.last() != Some(&tile) {
                groups.touched.push(tile);
                groups.start.push(i as u32);
                groups.weight.push(0.0);
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
            up.child_start.clear();
            up.children.clear();
            for &(parent, child) in pairs.iter() {
                if up.tiles.last() != Some(&parent) {
                    up.tiles.push(parent);
                    up.child_start.push(up.children.len() as u32);
                    up.weight.push(0.0);
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
    /// lock-free.
    fn build_plans(
        &self,
        active: &[(u32, u32)],
        groups: &TileGroups,
        coarse: &[SlotCoarse],
        plans: &mut SlotPlans,
        stack: &mut Vec<(u8, u32)>,
    ) {
        let tiles = &*self.tiles;
        let levels = &tiles.levels;
        let g0 = tiles.grid.tiles_per_side();
        tiles.panels.tick();
        plans.clear();
        plans.keys.extend(
            active
                .iter()
                .map(|&(on, _)| tiles.receiver_tile[on as usize]),
        );
        plans.keys.sort_unstable();
        plans.keys.dedup();

        let mut visited = vec![0u64; levels.len()];
        let mut far_terms = vec![0u64; levels.len()];
        let mut near_terms = 0u64;
        let top = levels.len() - 1;
        for key_at in 0..plans.keys.len() {
            let r_leaf = plans.keys[key_at];
            plans.term_start.push(plans.terms.len() as u32);
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
                        plans.terms.push(PlanTerm::Far { level: 0, idx: j });
                    } else {
                        near_terms += 1;
                        let panel = tiles.resolve_panel(s, r_leaf);
                        plans.terms.push(PlanTerm::Near { group: j, panel });
                    }
                } else {
                    let occ = &coarse[l_us - 1];
                    let s = occ.tiles[j as usize];
                    let r = levels[l_us].tile_of_leaf(r_leaf, g0);
                    if levels[l_us].is_far(s, r) {
                        far_terms[l_us] += 1;
                        plans.terms.push(PlanTerm::Far { level: l, idx: j });
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
    }
}

/// The tiled interference accumulated at distinct active link `on_raw`.
///
/// With no far-qualified tile pairs (`ε = 0`, or geometry that never
/// qualifies) this is the exact oracle's scalar loop — ascending
/// link order over the shared cache's gains, bit-for-bit.
///
/// Otherwise the kernel replays its receiver tile's walk plan in
/// DFS term order: a far term contributes one aggregated subtree
/// term `W / d(center, r)^α` (with `on`'s own power removed when
/// its sender tile lies under the charged subtree), a near term
/// streams its leaf group's active senders through the tile-pair
/// panel row (contiguous reads) or on-the-fly gains when the pair
/// is un-panelled.
///
/// A free function over the (fully `Sync`) tiled index rather than a
/// method, so the parallel verdict closure never captures the oracle's
/// power-assignment type parameter.
#[inline]
fn interference_with_plans(
    tiles: &TiledSinrCache,
    on_raw: u32,
    active: &[(u32, u32)],
    groups: &TileGroups,
    coarse: &[SlotCoarse],
    plans: &SlotPlans,
) -> f64 {
    {
        let cache = &*tiles.cache;
        let on = LinkId(on_raw);
        let mut interference = 0.0;
        if groups.touched.is_empty() {
            for &(from_raw, from_count) in active {
                if from_raw == on_raw {
                    continue;
                }
                // A NaN gain (coincident endpoints) poisons the sum,
                // failing the comparison — the naive "zero cross
                // distance blocks the receiver" rule.
                interference += from_count as f64 * cache.gain(LinkId(from_raw), on);
            }
            return interference;
        }
        let g0 = tiles.grid.tiles_per_side();
        let r_leaf = tiles.receiver_tile[on_raw as usize];
        let r_rank = tiles.receiver_rank[on_raw as usize] as usize;
        let plan = plans
            .keys
            .binary_search(&r_leaf)
            .expect("every active receiver tile has a plan");
        let terms =
            &plans.terms[plans.term_start[plan] as usize..plans.term_start[plan + 1] as usize];
        let alpha = cache.alpha();
        let receiver = cache.receiver_positions()[on_raw as usize];
        let own_leaf = tiles.sender_tile[on_raw as usize];
        for term in terms {
            match term {
                PlanTerm::Far { level, idx } => {
                    // Far tiles are geometrically incapable of zero
                    // cross distances, so aggregating them never hides
                    // a NaN.
                    let l = *level as usize;
                    let idx = *idx as usize;
                    let (s_tile, mut weight) = if l == 0 {
                        (groups.touched[idx], groups.weight[idx])
                    } else {
                        (coarse[l - 1].tiles[idx], coarse[l - 1].weight[idx])
                    };
                    if tiles.levels[l].tile_of_leaf(own_leaf, g0) == s_tile {
                        // The exact sum excludes `on`'s own
                        // transmission; remove it from the aggregate.
                        // Receivers sharing a slot with their own
                        // multiplicity > 1 are judged failed before
                        // interference is evaluated, so one
                        // transmission is exact here.
                        weight -= cache.tx_powers()[on_raw as usize];
                    }
                    let d = tiles.levels[l].center(s_tile).distance(&receiver);
                    interference += weight / d.powf(alpha);
                }
                PlanTerm::Near { group, panel } => {
                    let i = *group as usize;
                    let group_entries =
                        &groups.entries[groups.start[i] as usize..groups.start[i + 1] as usize];
                    let s = groups.touched[i] as usize;
                    let row: Option<&[f64]> = match panel {
                        PanelRef::Arena(offset) => {
                            let super::panels::PanelStore::Fixed { arena, .. } = &tiles.panels
                            else {
                                unreachable!("arena refs only come from fixed stores")
                            };
                            let s_count =
                                (tiles.senders_start[s + 1] - tiles.senders_start[s]) as usize;
                            Some(&arena[offset + r_rank * s_count..][..s_count])
                        }
                        PanelRef::Owned(data) => {
                            let s_count =
                                (tiles.senders_start[s + 1] - tiles.senders_start[s]) as usize;
                            Some(&data[r_rank * s_count..][..s_count])
                        }
                        PanelRef::None => None,
                    };
                    match row {
                        Some(row) => {
                            for &(_, from_raw, from_count) in group_entries {
                                if from_raw == on_raw {
                                    continue;
                                }
                                interference += from_count as f64
                                    * row[tiles.sender_rank[from_raw as usize] as usize];
                            }
                        }
                        None => {
                            for &(_, from_raw, from_count) in group_entries {
                                if from_raw == on_raw {
                                    continue;
                                }
                                interference +=
                                    from_count as f64 * cache.gain(LinkId(from_raw), on);
                            }
                        }
                    }
                }
            }
        }
        interference
    }
}

impl<P: PowerAssignment> Feasibility for TiledSinrFeasibility<P> {
    fn successes_into(&self, attempts: &[Attempt], out: &mut Vec<bool>, _rng: &mut dyn RngCore) {
        out.clear();
        if attempts.is_empty() {
            return;
        }
        let cache = self.tiles.cache();
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
                interference,
                lanes,
            } = &mut *scratch.borrow_mut();
            dedup_attempts(attempts, active);
            self.group_active_by_tile(active, groups);
            self.tiles.walk.slots.fetch_add(1, Ordering::Relaxed);
            verdicts.clear();
            if groups.touched.is_empty()
                && cache.active_interference_into(active, interference, lanes)
            {
                // No far machinery and a dense gain table: the exact
                // oracle's blocked kernel produced every receiver's
                // accumulated interference, bit-for-bit in the scalar
                // order; only the comparisons remain.
                verdicts.extend(active.iter().zip(interference.iter()).map(
                    |(&(on_raw, count), &interference)| {
                        // A shared transmitter collides regardless of SINR.
                        count == 1 && cache.signal(LinkId(on_raw)) >= beta * (interference + noise)
                    },
                ));
            } else {
                if groups.touched.is_empty() {
                    plans.clear();
                } else {
                    self.build_coarse(groups, coarse, pairs);
                    self.build_plans(active, groups, coarse, plans, stack);
                }
                let tiles: &TiledSinrCache = &self.tiles;
                let judge = |on_raw: u32, count: u32| -> bool {
                    if count != 1 {
                        // A shared transmitter collides regardless of SINR.
                        return false;
                    }
                    let interference =
                        interference_with_plans(tiles, on_raw, active, groups, coarse, plans);
                    cache.signal(LinkId(on_raw)) >= beta * (interference + noise)
                };
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
            }
            out.extend(attempts.iter().map(|a| {
                let slot = active
                    .binary_search_by_key(&a.link.0, |&(link, _)| link)
                    .expect("every attempted link is in the active list");
                verdicts[slot]
            }));
        });
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
/// When built over a tiled index ([`TiledInterference::with_tiles`])
/// the whole-matrix measure `‖W·R‖∞` routes through the index's
/// far-field aggregation (the `measure` submodule's tiled walk)
/// whenever any tile pair is far-qualified — the trait default's
/// `O(m²)` row walk is what
/// made megacity-scale injection-rate normalization cost hours. With
/// no far pairs (`ε = 0` included) the measure stays the trait
/// default, bit-for-bit.
#[derive(Clone, Debug)]
pub struct TiledInterference {
    cache: Arc<SinrCache>,
    tiles: Option<Arc<TiledSinrCache>>,
}

impl TiledInterference {
    /// Wraps a shared geometry cache as an on-demand interference
    /// model (entry-exact, trait-default measure).
    pub fn new(cache: Arc<SinrCache>) -> Self {
        TiledInterference { cache, tiles: None }
    }

    /// Wraps a shared tiled index: entries stay the exact on-demand
    /// affectances, the measure routes through the index's far-field
    /// aggregation under its `ε·margin` error contract.
    pub fn with_tiles(tiles: Arc<TiledSinrCache>) -> Self {
        TiledInterference {
            cache: tiles.shared_cache().clone(),
            tiles: Some(tiles),
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
        match &self.tiles {
            Some(tiles) if tiles.far_pairs() > 0 => super::measure::measure_with_tiles(tiles, load),
            // The trait default's exact row walk, restated so the
            // un-tiled (and ε = 0) paths stay bit-for-bit with every
            // other interference model.
            _ => (0..self.num_links() as u32)
                .map(|e| self.row_load(LinkId(e), load))
                .fold(0.0, f64::max),
        }
    }
}
