//! **dps** — *Dynamic Packet Scheduling in Wireless Networks* (Thomas
//! Kesselheim, PODC 2012), reproduced as a Rust workspace.
//!
//! This facade crate re-exports every member crate and offers a combined
//! [`prelude`]. The pieces:
//!
//! * [`dps_core`] — the linear-interference-measure model, injection
//!   models, static scheduling algorithms, **Algorithm 1** (the dense
//!   -instance transformation) and the **dynamic frame protocol**;
//! * [`dps_sinr`] — the SINR substrate (geometry, power assignments,
//!   affectance, exact feasibility, the Figure 1 star instance);
//! * [`dps_conflict`] — conflict graphs, inductive independence, protocol
//!   model / distance-2 matching / node constraints;
//! * [`dps_mac`] — the multiple-access channel (Algorithm 2 and
//!   Round-Robin-Withholding);
//! * [`dps_routing`] — packet-routing workloads (`W = identity`);
//! * [`dps_sim`] — the slotted simulation engine, metrics and stability
//!   classification;
//! * [`dps_scenario`] — the unified scenario API: declarative specs
//!   (TOML/JSON), the named-preset registry, and the parallel sweep
//!   driver.
//!
//! # Defining scenarios
//!
//! The scenario layer is the front door: describe a run declaratively and
//! execute it, instead of hand-wiring injector + protocol + feasibility:
//!
//! ```
//! use dps::prelude::*;
//!
//! // From the registry (see `scenario list` for all presets)…
//! let spec = registry::spec_for("ring-routing")?;
//! // …or from TOML/JSON via ScenarioSpec::from_toml / from_json.
//! let outcome = Scenario::from_spec(&spec.with_lambda(0.6))?.run()?;
//! assert!(outcome.verdict.is_stable());
//!
//! // Sweeps spread one spec over a (λ, m, seed, repetition) grid in
//! // parallel; same spec + seed ⇒ identical results on any thread count.
//! let report = Sweep::new(registry::spec_for("ring-routing")?.with_seed(7))
//!     .over_lambdas(&[0.5, 1.3])
//!     .threads(2)
//!     .run()?;
//! assert_eq!(report.cells.len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Each registry preset exercises one paper claim:
//!
//! | Preset | Paper | Substrate family |
//! |--------|-------|------------------|
//! | `ring-routing` | Theorem 3 (§4) | packet routing |
//! | `line-routing`, `grid-routing` | §7 | packet routing |
//! | `routing-sis` | §7 (baseline) | packet routing |
//! | `sinr-linear` | Corollary 12 (§6) | SINR |
//! | `sinr-uniform` | Corollary 13 (§6) | SINR |
//! | `mac-symmetric` | Corollary 16 (§7.1) | multiple-access channel |
//! | `mac-roundrobin` | Corollary 18 (§7.1) | multiple-access channel |
//! | `conflict-coloring` | Theorem 19 (§7.2) | conflict graph |
//! | `conflict-transformed` | §3 + §7.2 | conflict graph |
//! | `adversarial-ring` | Theorem 11 (§5) | packet routing + adversary |
//!
//! # Quickstart
//!
//! Build a protocol from a static algorithm, inject packets, observe
//! stability:
//!
//! ```
//! use dps::prelude::*;
//!
//! // An 8-link ring, identity interference (= packet routing).
//! let setup = dps::dps_routing::workloads::RoutingSetup::ring(8, 2)?;
//!
//! // The paper's transformation: frame protocol around a static algorithm.
//! let config = FrameConfig::tuned(&GreedyPerLink::new(), 8, 0.9)?;
//! let mut protocol = DynamicProtocol::new(GreedyPerLink::new(), config.clone(), 8);
//!
//! // Stochastic injection at rate 0.5 < 1/f(m) = 1.
//! let mut injector = BatchStochasticInjector::from(
//!     dps::dps_core::injection::stochastic::uniform_generators(setup.routes.clone(), 0.05)?
//!         .scaled_to_rate(&setup.model, 0.5)?,
//! );
//!
//! let report = run_simulation(
//!     &mut protocol,
//!     &mut injector,
//!     &setup.feasibility,
//!     SimulationConfig::new(20 * config.frame_len as u64, 7),
//! );
//! assert_eq!(report.delivered + report.final_backlog as u64, report.injected);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub use dps_conflict;
pub use dps_core;
pub use dps_mac;
pub use dps_routing;
pub use dps_scenario;
pub use dps_sim;
pub use dps_sinr;

/// Combined prelude of every member crate.
pub mod prelude {
    pub use dps_conflict::prelude::*;
    pub use dps_core::prelude::*;
    pub use dps_mac::prelude::*;
    pub use dps_routing::prelude::*;
    pub use dps_scenario::prelude::*;
    pub use dps_sim::prelude::*;
    pub use dps_sinr::prelude::*;
}
