//! Unified scenario API for the Kesselheim (PODC 2012) reproduction.
//!
//! Every workload in this workspace — packet routing, SINR, the
//! multiple-access channel, conflict graphs — is the same experiment with
//! different parts plugged in: a **substrate** (network + interference
//! measure + physical feasibility + routes), a **protocol**, and an
//! **injection process**. This crate makes that composition first-class:
//!
//! * object-safe factory traits ([`SubstrateSpec`], [`ProtocolSpec`],
//!   [`InjectorSpec`]) so any combination can be boxed and composed, and
//!   custom components slot in next to the built-in ones;
//! * a serde-backed declarative [`ScenarioSpec`] (TOML and JSON) with a
//!   named-preset [`registry`] covering every substrate of experiments
//!   E1–E11;
//! * a [`Sweep`] builder spreading one spec over a `(λ, m, seed,
//!   repetition)` grid on the `std::thread::scope` parallel runner, with
//!   table/CSV/JSON output;
//! * the `scenario` CLI binary running any preset or spec file.
//!
//! # Defining scenarios
//!
//! Declaratively, from TOML (or JSON — both round-trip):
//!
//! ```
//! use dps_scenario::{Scenario, ScenarioSpec};
//!
//! let spec = ScenarioSpec::from_toml(r#"
//!     name = "ring demo"
//!
//!     [substrate]
//!     kind = "ring-routing"
//!     nodes = 8
//!     hops = 2
//!
//!     [protocol]
//!     kind = "frame-greedy"
//!
//!     [injection]
//!     kind = "stochastic"
//!     lambda = 0.5
//!
//!     [run]
//!     frames = 20
//!     seed = 42
//! "#)?;
//! let outcome = Scenario::from_spec(&spec)?.run()?;
//! assert!(outcome.verdict.is_stable());
//! assert_eq!(
//!     outcome.report.delivered + outcome.report.final_backlog as u64,
//!     outcome.report.injected,
//! );
//! # Ok::<(), dps_scenario::ScenarioError>(())
//! ```
//!
//! Or from the registry, sweeping a parameter:
//!
//! ```no_run
//! use dps_scenario::{registry, Sweep};
//!
//! let report = Sweep::new(registry::spec_for("ring-routing")?)
//!     .over_lambdas(&[0.5, 0.9, 1.3])
//!     .repetitions(4)
//!     .run()?;
//! println!("{}", report.to_table().render());
//! # Ok::<(), dps_scenario::ScenarioError>(())
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod error;
pub mod injector;
pub mod protocol;
pub mod registry;
pub mod scenario;
pub mod spec;
pub mod substrate;
pub mod sweep;

pub use error::ScenarioError;
pub use injector::{InjectorSpec, ValidatingInjector};
pub use protocol::{BuiltProtocol, ProtocolSpec};
pub use scenario::{verdict_cell, Scenario, ScenarioOutcome};
pub use spec::{
    InjectionConfig, InjectionKind, PowerConfig, ProtocolConfig, RunConfig, ScenarioSpec,
    SubstrateConfig,
};
pub use substrate::{single_hop_routes, Substrate, SubstrateSpec};
pub use sweep::{Sweep, SweepCell, SweepPoint, SweepReport};

/// Convenience re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::error::ScenarioError;
    pub use crate::injector::InjectorSpec;
    pub use crate::protocol::{BuiltProtocol, ProtocolSpec};
    pub use crate::registry;
    pub use crate::scenario::{Scenario, ScenarioOutcome};
    pub use crate::spec::{
        InjectionConfig, InjectionKind, ProtocolConfig, RunConfig, ScenarioSpec, SubstrateConfig,
    };
    pub use crate::substrate::{Substrate, SubstrateSpec};
    pub use crate::sweep::{Sweep, SweepReport};
}
