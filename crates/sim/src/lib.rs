//! Slotted discrete-time simulation engine for dynamic packet scheduling.
//!
//! Drives a [`dps_core::protocol::Protocol`] with an
//! [`dps_core::injection::Injector`] against a
//! [`dps_core::feasibility::Feasibility`] oracle, one slot at a time, and
//! collects the metrics every experiment in this workspace reports:
//! backlog time series, latency statistics by path length, potential
//! samples, and throughput counters.
//!
//! * [`runner`] — the slot loop, its event-driven fast path, and
//!   [`runner::SimulationReport`];
//! * [`parallel`] — repetitions over independent RNG streams, and
//!   [`parallel::parallel_map`], the order-preserving thread-pool map
//!   that repetitions and scenario sweeps share;
//! * [`stats`] — summary statistics and least-squares fits;
//! * [`stability`] — the bounded-vs-growing backlog verdict used for the
//!   stability-threshold experiments;
//! * [`table`] — fixed-width text and CSV rendering of experiment tables.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod parallel;
pub mod runner;
pub mod stability;
pub mod stats;
pub mod table;
pub mod trace;

/// Convenience re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::parallel::{parallel_map, run_repetitions, AggregateReport};
    pub use crate::runner::{run_simulation, SimulationConfig, SimulationReport};
    pub use crate::stability::{classify_stability, StabilityVerdict};
    pub use crate::stats::{linear_fit, quantile, Summary};
    pub use crate::table::Table;
}
