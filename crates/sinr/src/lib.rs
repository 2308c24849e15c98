//! SINR substrate for *Dynamic Packet Scheduling in Wireless Networks*
//! (Kesselheim, PODC 2012), Section 6.
//!
//! In the physical (SINR) interference model, network nodes live in a
//! metric space; a transmission at power `p` is received at distance `d`
//! with strength `p/d^α`, and it succeeds iff its
//! signal-to-interference-plus-noise ratio exceeds a threshold `β`:
//!
//! ```text
//!   p(ℓ)/d(s,r)^α  ≥  β · ( Σ_{ℓ'≠ℓ} p(ℓ')/d(s',r)^α + ν )
//! ```
//!
//! This crate implements everything the paper's Section 6 needs on top of
//! [`dps_core`]:
//!
//! * 2-D geometry and [`network::SinrNetwork`] — node positions attached to
//!   a [`dps_core::graph::Network`];
//! * [`power::PowerAssignment`]s — uniform, linear (`p ∝ d^α`), square-root
//!   (`p ∝ d^{α/2}`), all monotone and (sub-)linear in the paper's sense;
//! * [`affectance`] — the relative interference `a_p(ℓ, ℓ')` of [28, 33];
//! * [`cache::SinrCache`] — precomputed signals, margins and pairwise
//!   gains: the fast path every hot loop (matrix builds, the exact
//!   oracle) judges from, bit-for-bit equivalent to naive recomputation;
//! * [`matrix::SinrInterference`] — the three matrix constructions of
//!   Section 6 (fixed powers, monotone powers, power control), each a
//!   [`dps_core::interference::InterferenceModel`];
//! * [`feasibility::SinrFeasibility`] — the exact accumulative SINR oracle
//!   (the physical ground truth the protocols are validated against);
//! * [`instances`] — random, line and clustered instance generators plus
//!   the **Figure 1 star instance** of the Section 8 lower bound;
//! * [`star`] — the global-clock and local-clock protocols separated by
//!   Theorem 20;
//! * [`scheduler::PowerControlScheduler`] — a centralized scheduler in the
//!   spirit of \[32\] for the power-control case (Corollary 14);
//! * [`tiles`] — the spatially-tiled substrate for metro-scale instances:
//!   near-field gain panels, far-field tile aggregation under an explicit
//!   error knob `ε` (exact and bit-for-bit at `ε = 0`), and an on-demand
//!   `O(1)`-memory interference model.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

// Lets the unit tests include `tests/support/referee.rs`, which names
// this crate as the integration tests see it.
#[cfg(test)]
extern crate self as dps_sinr;

pub mod affectance;
pub mod cache;
pub mod diversity;
pub mod feasibility;
pub mod geom;
pub mod instances;
pub mod matrix;
pub mod network;
pub mod params;
pub mod power;
pub mod scheduler;
pub mod star;
pub mod tiles;

/// Convenience re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::affectance::affectance;
    pub use crate::cache::SinrCache;
    pub use crate::diversity::DiversityScheduler;
    pub use crate::feasibility::SinrFeasibility;
    pub use crate::geom::Point;
    pub use crate::instances::{line_instance, random_instance, star_instance, StarInstance};
    pub use crate::matrix::SinrInterference;
    pub use crate::network::SinrNetwork;
    pub use crate::params::SinrParams;
    pub use crate::power::{LinearPower, PowerAssignment, SquareRootPower, UniformPower};
    pub use crate::scheduler::PowerControlScheduler;
    pub use crate::star::{GlobalClockStarProtocol, LocalClockAlohaProtocol};
    pub use crate::tiles::{TileGrid, TiledInterference, TiledSinrCache, TiledSinrFeasibility};
}
