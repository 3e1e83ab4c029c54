//! Cycle-level wormhole-routed k-ary n-cube torus network simulator.
//!
//! This crate implements the interconnection-network substrate of the
//! validation experiments in Johnson, *"The Impact of Communication
//! Locality on Large-Scale Multiprocessor Performance"* (ISCA 1992): a
//! packet-switched torus with separate unidirectional channels in both
//! directions of every dimension, wormhole flow control, deterministic
//! e-cube routing, and a one-cycle base switch delay — the Alewife-style
//! mesh network of the paper's Section 3, plus dateline virtual channels
//! for torus deadlock freedom.
//!
//! # Structure
//!
//! * [`Topology`] — the fabric shapes (the paper's [`Torus`], plus a
//!   mesh, a fat tree and a dragonfly): geometry, link tables, distances,
//!   and [`Topology::route_hop`], the one routing function per fabric
//!   (e-cube with dateline virtual channels on the torus).
//! * [`Fabric`] — routers, links, and network interfaces; advance it one
//!   network cycle at a time with [`Fabric::step`].
//! * [`FabricStats`] — measured `T_m`, `T_h`, `r_m`, and channel
//!   utilization, matching the quantities of the paper's network model.
//! * [`traffic`] — the one open-loop traffic source, drawn on by the
//!   differential fuzzer ([`fuzz`]) and standalone validation.
//! * [`fault`] — deterministic fault injection (drops, corruption,
//!   stalls, link kills) with a conservation-checkable [`FaultLog`].
//!
//! # Quick start
//!
//! ```
//! use commloc_net::{Fabric, FabricConfig, Message, NodeId, Torus};
//!
//! // The paper's 64-node machine: an 8x8 torus.
//! let mut fabric = Fabric::new(Torus::new(2, 8), FabricConfig::default());
//! // A 12-flit message (96 bits over 8-bit channels).
//! fabric.inject(Message::new(NodeId(0), NodeId(10), 12, ()));
//! while fabric.in_flight() > 0 {
//!     fabric.step().unwrap();
//! }
//! let d = fabric.poll_delivery(NodeId(10)).expect("delivered");
//! assert_eq!(d.hops, 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod active;
mod fabric;
pub mod fault;
pub mod fuzz;
mod message;
mod reference;
mod rng;
// Only the retained reference engine uses `Router`s; the optimized
// fabric keeps router state in struct-of-arrays form with 4-byte per-VC
// tables.
mod router;
// Tests of the torus's e-cube routing and dateline classes; the routing
// itself is `Topology::route_hop`.
#[cfg(test)]
mod routing;
mod stats;
mod topology;
pub mod trace;
pub mod traffic;

pub use active::ActiveSet;
pub use fabric::{BoundaryItem, Fabric, FabricConfig, FabricError};
pub use fault::{FaultConfig, FaultEvent, FaultLog, FaultPlan, FaultPlanError};
pub use message::{Delivery, Flit, FlitKind, Message, MessageBreakdown, MessageId};
pub use reference::ReferenceFabric;
pub use rng::DetRng;
pub use stats::{FabricStats, Histogram, LatencyBreakdown, HISTOGRAM_BUCKETS};
pub use topology::{
    Direction, Dragonfly, FatTree, Mesh2D, NodeId, PortStep, Topology, Torus, VcIndex,
    DATELINE_VCS, MAX_NODES,
};
pub use trace::{TraceBuffer, TraceEvent};
