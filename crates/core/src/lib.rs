//! Core model of *Dynamic Packet Scheduling in Wireless Networks*
//! (Thomas Kesselheim, PODC 2012).
//!
//! The paper's central abstraction is a **linear interference measure**: a
//! matrix `W` over the communication links of a network with `W[e][e] = 1`
//! and `W[e][e'] ∈ [0, 1]` quantifying how much a transmission on `e` is
//! disturbed by a simultaneous transmission on `e'`. For a load vector `R`
//! (number of packets per link) the *interference measure* is
//! `I = ‖W·R‖∞ = max_e Σ_e' W[e][e']·R(e')`.
//!
//! On top of this abstraction the crate provides:
//!
//! * the network model ([`graph::Network`], [`path::RoutePath`],
//!   [`packet::Packet`], [`load::LinkLoad`]) — Section 2 of the paper;
//! * interference models ([`interference::InterferenceModel`]) and physical
//!   feasibility oracles ([`feasibility::Feasibility`]);
//! * the two injection models (the stochastic generator set
//!   [`injection::stochastic::StochasticInjector`], sampled by
//!   [`injection::batch::BatchStochasticInjector`], and the
//!   `(w, λ)`-bounded adversaries in [`injection::adversarial`]) — Section 2.1;
//! * step-wise static scheduling algorithms
//!   ([`staticsched::StaticScheduler`]), including the uniform-rate algorithm
//!   of Theorem 19 and a two-stage decay scheduler;
//! * **Algorithm 1**, the transformation making static algorithms scale
//!   linearly in `I` for dense instances ([`transform::DenseTransform`]) —
//!   Section 3;
//! * the **dynamic frame protocol** turning any such static algorithm into a
//!   stable dynamic protocol ([`dynamic::DynamicProtocol`]) — Section 4 —
//!   and its adversarial-injection wrapper
//!   ([`dynamic::AdversarialWrapper`]) — Section 5.
//!
//! # Quick example
//!
//! ```
//! use dps_core::prelude::*;
//! use rand::SeedableRng;
//!
//! // A 4-node line network with 3 links.
//! let mut builder = NetworkBuilder::new();
//! let nodes: Vec<_> = (0..4).map(|_| builder.add_node()).collect();
//! let links: Vec<_> = (0..3)
//!     .map(|i| builder.add_link(nodes[i], nodes[i + 1]))
//!     .collect();
//! let network = builder.max_path_len(3).build();
//!
//! // Packet routing: interference is the identity matrix, so the measure of
//! // a load vector is simply the maximum congestion.
//! let model = IdentityInterference::new(network.num_links());
//! let mut load = LinkLoad::new(network.num_links());
//! load.add(links[0], 2.0);
//! load.add(links[1], 5.0);
//! assert_eq!(model.measure(&load), 5.0);
//!
//! // A path across the whole line, validated against the network.
//! let path = RoutePath::new(&network, links.clone())?;
//! assert_eq!(path.len(), 3);
//! # Ok::<(), dps_core::error::ModelError>(())
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod dynamic;
pub mod error;
pub mod feasibility;
pub mod graph;
pub mod ids;
pub mod injection;
pub mod interference;
pub mod invariants;
pub mod load;
pub mod packet;
pub mod path;
pub mod potential;
pub mod protocol;
pub mod rng;
pub mod route_table;
pub mod staticsched;
pub mod store;
pub mod transform;

/// Convenience re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::dynamic::{AdversarialWrapper, DynamicProtocol, FrameConfig};
    pub use crate::error::ModelError;
    pub use crate::feasibility::{
        Attempt, Feasibility, JammedFeasibility, LossyFeasibility, PerLinkFeasibility,
        SingleChannelFeasibility, ThresholdFeasibility,
    };
    pub use crate::graph::{Link, Network, NetworkBuilder};
    pub use crate::ids::{LinkId, NodeId, PacketId};
    pub use crate::injection::adversarial::{
        BurstyAdversary, RoundRobinAdversary, SingleEdgeAdversary, SmoothAdversary, WindowValidator,
    };
    pub use crate::injection::batch::BatchStochasticInjector;
    pub use crate::injection::stochastic::{GeneratorSpec, StochasticInjector};
    pub use crate::injection::Injector;
    pub use crate::interference::{
        CompleteInterference, DenseInterference, IdentityInterference, InterferenceModel,
    };
    pub use crate::invariants::InvariantViolation;
    pub use crate::load::LinkLoad;
    pub use crate::packet::{DeliveredPacket, Packet};
    pub use crate::path::RoutePath;
    pub use crate::protocol::{Protocol, SlotOutcome};
    pub use crate::route_table::{RouteId, RouteTable};
    pub use crate::staticsched::greedy::GreedyPerLink;
    pub use crate::staticsched::two_stage::TwoStageDecayScheduler;
    pub use crate::staticsched::uniform_rate::UniformRateScheduler;
    pub use crate::staticsched::{
        run_static, Request, StaticAlgorithm, StaticRunResult, StaticScheduler,
    };
    pub use crate::store::{PacketRef, PacketState, PacketStore};
    pub use crate::transform::DenseTransform;
}
