//! Near-field gain panel storage: one dense `|S|×|R|` block of raw
//! gains per near leaf tile pair, laid out as one row of `|S|` sender
//! gains per receiver of `R`, under one of two residency policies.
//!
//! * [`PanelCacheMode::Fixed`] — panels are filled once at build time,
//!   in deterministic row-major `(S, R)` tile order, until the next
//!   panel would exceed the byte budget. The store indexes them
//!   receiver-major, in the same shape as the far bitsets: a CSR row
//!   per receiver leaf tile lists its panels' sender tiles ascending,
//!   each with its arena offset. A walk plan serves one receiver tile,
//!   so it fetches that row once and binary-searches it per near term:
//!   no map lookup, no lock and no shared write per resolution.
//! * [`PanelCacheMode::Adaptive`] — panels live in a touch-count LRU
//!   cache: a slot's plan resolution touches the pairs it needs,
//!   missing pairs are admitted, and when the resident bytes overflow
//!   the budget the least-recently touched pairs are evicted (stale
//!   first, then smallest tile key — fully deterministic, O(log n) per
//!   eviction via an ordered eviction queue). The block is allocated on
//!   admission and rows are filled on demand: a slot fills only the
//!   rows of the receivers it judges, from the exact gain expression,
//!   and a per-panel row bitmap records which rows hold gains. Panels
//!   touched by the *current* slot are never evicted: when a slot's
//!   working set outgrows the budget the cache refuses further
//!   admissions for that slot instead of churning — refused pairs fall
//!   back to the on-the-fly path, so a hot resident set stays resident
//!   and thrash degrades to at most one allocation per admitted pair.
//!   Panels are handed to the slot kernel as [`Arc`] clones and later
//!   rows are filled copy-on-write, so neither an eviction nor a fill
//!   can change a panel some caller's plan still reads.
//!
//! Hits and misses land in shared [`PanelCounters`]. The slot kernel
//! counts fixed-store lookups in locals and adds them once per slot;
//! the adaptive store counts each resolution under its lock.
//!
//! Every panel entry is produced by the same floating-point expression
//! as the on-the-fly path, so residency is a speed layer only: hits,
//! misses, refills and evictions are bit-for-bit interchangeable.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Residency policy of the near-field panel store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PanelCacheMode {
    /// Build-time allocation in deterministic tile order within the
    /// byte budget; the resident set never changes afterwards.
    #[default]
    Fixed,
    /// Touch-count LRU evict/refill cache bounded by the byte budget;
    /// the resident set tracks the slots' active tiles.
    Adaptive,
}

/// A slot-duration handle to one tile pair's panel.
#[derive(Clone, Debug)]
pub(super) enum PanelRef {
    /// No panel resident: compute gains on the fly.
    None,
    /// Offset into the fixed store's arena.
    Arena(usize),
    /// Shared ownership of an adaptive-cache panel (outlives eviction
    /// and later row fills, which copy a block still held here).
    Owned(Arc<Vec<f64>>),
}

/// Hit/miss/eviction counters of the panel store (diagnostics only;
/// relaxed atomics, never part of any verdict).
#[derive(Debug, Default)]
pub(super) struct PanelCounters {
    pub(super) hits: AtomicU64,
    pub(super) misses: AtomicU64,
    pub(super) evictions: AtomicU64,
    /// Panel cells computed from the gain expression: the fixed
    /// store's arena at build, every row the adaptive store fills.
    pub(super) cells_filled: AtomicU64,
}

/// The panel store behind [`super::TiledSinrCache`].
#[derive(Debug)]
pub(super) enum PanelStore {
    /// Build-time panels.
    Fixed(FixedPanels),
    /// LRU evict/refill cache.
    Adaptive(AdaptivePanels),
}

/// Build-time panels in one arena, indexed as a receiver-major CSR:
/// the panels of receiver leaf tile `r` are entries
/// `row_start[r]..row_start[r + 1]` of `senders` (sender tiles,
/// ascending) and `offsets` (each panel's first cell in `arena`).
#[derive(Debug)]
pub(super) struct FixedPanels {
    row_start: Vec<u32>,
    senders: Vec<u32>,
    offsets: Vec<usize>,
    arena: Vec<f64>,
    counters: PanelCounters,
}

/// One receiver tile's row of the fixed store.
pub(super) struct FixedRow<'a> {
    senders: &'a [u32],
    offsets: &'a [usize],
}

impl FixedRow<'_> {
    /// The arena offset of sender tile `s`'s panel, if it has one.
    #[inline]
    pub(super) fn find(&self, s: u32) -> Option<usize> {
        self.senders.binary_search(&s).ok().map(|i| self.offsets[i])
    }
}

/// Where one walk plan's near terms find their panels.
pub(super) enum PlanPanels<'a> {
    /// The fixed store's row for the plan's receiver tile.
    Fixed(FixedRow<'a>),
    /// The adaptive store, resolved per near term.
    Adaptive(&'a AdaptivePanels),
}

/// The touch-count LRU evict/refill cache.
#[derive(Debug)]
pub(super) struct AdaptivePanels {
    budget_bytes: usize,
    state: Mutex<AdaptiveState>,
    counters: PanelCounters,
}

/// Mutable state of the adaptive cache (behind the store's mutex).
#[derive(Debug, Default)]
struct AdaptiveState {
    resident: BTreeMap<(u32, u32), PanelSlot>,
    /// Eviction order: `(last_touch, key)` ascending — stalest first,
    /// ties by tile key. Mirrors `resident` exactly.
    queue: BTreeSet<(u64, (u32, u32))>,
    /// Panel-data bytes currently resident (excludes map overhead).
    bytes: usize,
    /// Bytes of panels touched since the last [`PanelStore::tick`] —
    /// the current slot's pinned working set, never evicted.
    pinned_bytes: usize,
    /// High-water mark of `bytes` over the store's lifetime.
    high_water: usize,
    /// Slot clock: advanced once per slot, stamped on every touch.
    clock: u64,
}

#[derive(Debug)]
struct PanelSlot {
    /// The whole `|S|×|R|` block; rows not yet filled hold `0.0`.
    data: Arc<Vec<f64>>,
    /// Bit `i` is set iff receiver row `i` of `data` holds its gains.
    filled: Vec<u64>,
    last_touch: u64,
}

impl PanelSlot {
    fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    fn is_filled(&self, row: usize) -> bool {
        self.filled[row / 64] & (1 << (row % 64)) != 0
    }

    /// Fills every requested row that is not filled yet and returns
    /// the cells filled. Copy-on-write: a block some caller's plan
    /// still holds is cloned first, never mutated.
    fn fill_rows(
        &mut self,
        rows: impl IntoIterator<Item = u32>,
        row_len: usize,
        fill_row: &mut impl FnMut(usize, &mut [f64]),
    ) -> usize {
        let mut cells = 0;
        for row in rows {
            let row = row as usize;
            if self.is_filled(row) {
                continue;
            }
            let data = Arc::make_mut(&mut self.data);
            fill_row(row, &mut data[row * row_len..][..row_len]);
            self.filled[row / 64] |= 1 << (row % 64);
            cells += row_len;
        }
        cells
    }
}

impl FixedPanels {
    /// A fixed store over a prebuilt arena of a `tiles`-tile leaf grid.
    /// `placed` lists every panel as `(sender tile, receiver tile, arena
    /// offset)` in build order, which is sender-major and ascending, so
    /// a stable bucketing by receiver leaves each row's sender tiles
    /// ascending.
    pub(super) fn new(tiles: usize, placed: &[(u32, u32, usize)], arena: Vec<f64>) -> Self {
        let mut row_start = vec![0u32; tiles + 1];
        for &(_, r, _) in placed {
            row_start[r as usize + 1] += 1;
        }
        for i in 0..tiles {
            row_start[i + 1] += row_start[i];
        }
        let mut cursor = row_start.clone();
        let mut senders = vec![0u32; placed.len()];
        let mut offsets = vec![0usize; placed.len()];
        for &(s, r, offset) in placed {
            let at = &mut cursor[r as usize];
            senders[*at as usize] = s;
            offsets[*at as usize] = offset;
            *at += 1;
        }
        let counters = PanelCounters::default();
        counters
            .cells_filled
            .store(arena.len() as u64, Ordering::Relaxed);
        FixedPanels {
            row_start,
            senders,
            offsets,
            arena,
            counters,
        }
    }

    /// The panels of receiver leaf tile `r`.
    #[inline]
    pub(super) fn row(&self, r: u32) -> FixedRow<'_> {
        let span = self.row_start[r as usize] as usize..self.row_start[r as usize + 1] as usize;
        FixedRow {
            senders: &self.senders[span.clone()],
            offsets: &self.offsets[span],
        }
    }
}

impl PanelStore {
    /// An adaptive store with nothing resident yet.
    pub(super) fn adaptive(budget_bytes: usize) -> Self {
        PanelStore::Adaptive(AdaptivePanels {
            budget_bytes,
            state: Mutex::new(AdaptiveState::default()),
            counters: PanelCounters::default(),
        })
    }

    /// The store's hit/miss/eviction counters.
    pub(super) fn counters(&self) -> &PanelCounters {
        match self {
            PanelStore::Fixed(FixedPanels { counters, .. })
            | PanelStore::Adaptive(AdaptivePanels { counters, .. }) => counters,
        }
    }

    /// How a walk plan for receiver leaf tile `r` finds its panels.
    #[inline]
    pub(super) fn for_receiver(&self, r: u32) -> PlanPanels<'_> {
        match self {
            PanelStore::Fixed(fixed) => PlanPanels::Fixed(fixed.row(r)),
            PanelStore::Adaptive(adaptive) => PlanPanels::Adaptive(adaptive),
        }
    }

    /// The fixed store's arena, which [`PanelRef::Arena`] offsets index
    /// (empty for an adaptive store).
    #[inline]
    pub(super) fn arena(&self) -> &[f64] {
        match self {
            PanelStore::Fixed(fixed) => &fixed.arena,
            PanelStore::Adaptive(_) => &[],
        }
    }

    /// Number of panels currently resident.
    pub(super) fn resident_count(&self) -> usize {
        match self {
            PanelStore::Fixed(fixed) => fixed.senders.len(),
            PanelStore::Adaptive(adaptive) => adaptive.lock().resident.len(),
        }
    }

    /// Panel-data bytes currently resident.
    pub(super) fn resident_bytes(&self) -> usize {
        match self {
            PanelStore::Fixed(fixed) => fixed.arena.len() * std::mem::size_of::<f64>(),
            PanelStore::Adaptive(adaptive) => adaptive.lock().bytes,
        }
    }

    /// High-water mark of resident panel-data bytes (for a fixed store
    /// this is just the arena size).
    pub(super) fn high_water_bytes(&self) -> usize {
        match self {
            PanelStore::Fixed(fixed) => fixed.arena.len() * std::mem::size_of::<f64>(),
            PanelStore::Adaptive(adaptive) => adaptive.lock().high_water,
        }
    }

    /// Advances the adaptive slot clock (no-op for fixed stores). Call
    /// once per slot before resolving that slot's panels.
    pub(super) fn tick(&self) {
        if let PanelStore::Adaptive(adaptive) = self {
            let mut state = adaptive.lock();
            state.clock += 1;
            state.pinned_bytes = 0;
        }
    }
}

impl AdaptivePanels {
    fn lock(&self) -> std::sync::MutexGuard<'_, AdaptiveState> {
        self.state.lock().expect("panel lock")
    }

    /// Resolves the panel of tile pair `key` for the current slot,
    /// counting a hit or a miss. The panel has `row_count` receiver
    /// rows of `row_len` sender gains each; `rows` lists the receiver
    /// rows the slot will read. The store allocates the whole block on
    /// admission and fills rows on demand: `fill_row(row, out)` must
    /// write row `row`'s `row_len` raw gains into `out`, and is called
    /// once for each requested row not filled yet — on a miss and on a
    /// hit alike. An admission evicts least-recently touched *stale*
    /// panels — never a panel this slot already touched — when the
    /// budget overflows. If the current slot's pinned working set
    /// leaves too little evictable room (or the panel is larger than
    /// the whole budget), the pair is refused: `fill_row` is never
    /// called and the pair takes the on-the-fly path for this slot
    /// (`PanelRef::None`), so an over-budget working set cannot thrash
    /// the resident panels.
    pub(super) fn resolve(
        &self,
        key: (u32, u32),
        row_len: usize,
        row_count: usize,
        rows: impl IntoIterator<Item = u32>,
        mut fill_row: impl FnMut(usize, &mut [f64]),
    ) -> PanelRef {
        let counters = &self.counters;
        let budget_bytes = self.budget_bytes;
        let mut guard = self.lock();
        let state = &mut *guard;
        let clock = state.clock;
        if let Some(slot) = state.resident.get_mut(&key) {
            if slot.last_touch != clock {
                state.queue.remove(&(slot.last_touch, key));
                state.queue.insert((clock, key));
                slot.last_touch = clock;
                state.pinned_bytes += slot.bytes();
            }
            let cells = slot.fill_rows(rows, row_len, &mut fill_row);
            counters.hits.fetch_add(1, Ordering::Relaxed);
            counters
                .cells_filled
                .fetch_add(cells as u64, Ordering::Relaxed);
            return PanelRef::Owned(Arc::clone(&slot.data));
        }
        counters.misses.fetch_add(1, Ordering::Relaxed);
        let new_bytes = row_len * row_count * std::mem::size_of::<f64>();
        // Admission control: the current slot's touched panels are
        // pinned, so only `bytes - pinned_bytes` is evictable. Refuse
        // rather than churn.
        let needed = (state.bytes + new_bytes).saturating_sub(budget_bytes);
        if new_bytes > budget_bytes || needed > state.bytes - state.pinned_bytes {
            return PanelRef::None;
        }
        let mut slot = PanelSlot {
            data: Arc::new(vec![0.0; row_len * row_count]),
            filled: vec![0; row_count.div_ceil(64)],
            last_touch: clock,
        };
        let cells = slot.fill_rows(rows, row_len, &mut fill_row);
        counters
            .cells_filled
            .fetch_add(cells as u64, Ordering::Relaxed);
        while state.bytes + new_bytes > budget_bytes {
            let &(touch, stalest) = state
                .queue
                .iter()
                .next()
                .expect("admission check guarantees evictable bytes");
            debug_assert!(touch < clock, "current-slot panels are pinned");
            state.queue.remove(&(touch, stalest));
            let evicted = state.resident.remove(&stalest).expect("queue mirrors map");
            state.bytes -= evicted.bytes();
            counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let data = Arc::clone(&slot.data);
        state.resident.insert(key, slot);
        state.queue.insert((clock, key));
        state.bytes += new_bytes;
        state.pinned_bytes += new_bytes;
        state.high_water = state.high_water.max(state.bytes);
        PanelRef::Owned(data)
    }
}

#[cfg(test)]
impl PanelStore {
    /// Calls `visit(key, data, filled)` for every resident panel: the
    /// fixed store's receiver-major rows, the adaptive store's pairs in
    /// ascending tile-pair order. `data` starts at the panel's first
    /// cell and `filled(row)` says whether receiver row `row` holds its
    /// gains (always, for the fixed arena).
    pub(super) fn for_each_resident(
        &self,
        mut visit: impl FnMut((u32, u32), &[f64], &dyn Fn(usize) -> bool),
    ) {
        match self {
            PanelStore::Fixed(fixed) => {
                for r in 0..fixed.row_start.len() as u32 - 1 {
                    let row = fixed.row(r);
                    for (&s, &offset) in row.senders.iter().zip(row.offsets) {
                        visit((s, r), &fixed.arena[offset..], &|_| true);
                    }
                }
            }
            PanelStore::Adaptive(adaptive) => {
                let state = adaptive.lock();
                for (&key, slot) in &state.resident {
                    visit(key, &slot.data, &|row| slot.is_filled(row));
                }
            }
        }
    }
}
