//! # dacapo — Dynamic Configuration of Protocols
//!
//! A Rust reimplementation of the **Da CaPo** flexible protocol system the
//! paper integrates into COOL's transport layer (Sections 5 and 5.1). The
//! architecture follows the paper's three-layer model:
//!
//! * **Layer A** ([`alayer`]) — the application interface. An
//!   [`alayer::AppEndpoint`] is what COOL's `DacapoComChannel` (and the
//!   measuring A-module of Figure 9) talks to.
//! * **Layer C** ([`module`], [`modules`], [`graph`]) — end-to-end protocol
//!   functionality decomposed into **protocol functions** (error detection,
//!   flow control, encryption, …), each realised by exchangeable
//!   **mechanisms** implemented as modules. Modules exchange packet
//!   pointers over message queues, as in the paper's Figure 6 — queues
//!   behind one lock per stack rather than between threads ([`runtime`]):
//!   a send runs the chain on the sender's thread, the connection's one
//!   receive thread runs everything that comes off the wire.
//! * **Layer T** ([`tlayer`]) — generic transport infrastructure: loopback
//!   queues, real TCP (the paper's T module encapsulates TCP), or a
//!   `netsim` link standing in for the ATM testbed.
//!
//! The management plane mirrors Figure 5:
//!
//! * [`config::ConfigurationManager`] maps QoS-derived
//!   [`multe_qos::TransportRequirements`] onto a concrete
//!   [`graph::ModuleGraph`] in real time, optimising over the
//!   [`catalog::MechanismCatalog`];
//! * [`resource::ResourceManager`] performs the unilateral resource
//!   admission (CPU, memory, bandwidth);
//! * [`connection::Connection`] assembles, runs, reconfigures and tears
//!   down the per-connection module stack.
//!
//! ```
//! use dacapo::prelude::*;
//!
//! # fn main() -> Result<(), dacapo::DacapoError> {
//! // A loopback transport pair and a trivial configuration: no modules.
//! let (ta, tb) = loopback_pair();
//! let graph = ModuleGraph::empty();
//! let a = Connection::establish(graph.clone(), ta, &MechanismCatalog::standard())?;
//! let b = Connection::establish(graph, tb, &MechanismCatalog::standard())?;
//!
//! a.endpoint().send(bytes::Bytes::from_static(b"hello dacapo"))?;
//! let got = b.endpoint().recv_timeout(std::time::Duration::from_secs(5))?;
//! assert_eq!(&got[..], b"hello dacapo");
//! # a.close(); b.close();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod alayer;
pub mod catalog;
pub mod config;
pub mod connection;
pub mod error;
pub mod functions;
pub mod graph;
pub mod module;
pub mod modules;
pub mod monitor;
pub mod packet;
pub mod resource;
pub mod runtime;
pub mod stats;
pub mod tlayer;

pub use alayer::AppEndpoint;
pub use catalog::MechanismCatalog;
pub use config::{ConfigGoal, ConfigurationManager};
pub use connection::Connection;
pub use error::DacapoError;
pub use functions::{MechanismId, MechanismProperties, ProtocolFunction};
pub use graph::{ModuleGraph, ProtocolGraph};
pub use module::{Module, Outputs};
pub use monitor::{MonitorConfig, QosEvent, QosMonitor};
pub use packet::{Packet, PacketKind};
pub use resource::{ResourceBudget, ResourceGrant, ResourceManager};
pub use runtime::Sink;
pub use stats::ThroughputMeter;
pub use tlayer::{loopback_pair, LoopbackTransport, NetsimTransport, TcpTransport, Transport};

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::alayer::AppEndpoint;
    pub use crate::catalog::MechanismCatalog;
    pub use crate::config::{ConfigGoal, ConfigurationManager};
    pub use crate::connection::Connection;
    pub use crate::error::DacapoError;
    pub use crate::functions::{MechanismId, MechanismProperties, ProtocolFunction};
    pub use crate::graph::{ModuleGraph, ProtocolGraph};
    pub use crate::module::{Module, Outputs};
    pub use crate::monitor::{MonitorConfig, QosEvent, QosMonitor};
    pub use crate::packet::{Packet, PacketKind};
    pub use crate::resource::{ResourceBudget, ResourceGrant, ResourceManager};
    pub use crate::runtime::Sink;
    pub use crate::stats::ThroughputMeter;
    pub use crate::tlayer::{
        loopback_pair, LoopbackTransport, NetsimTransport, TcpTransport, Transport,
    };
}
