//! # cool-naming — a QoS-aware replica directory, served over the ORB
//!
//! COOL deployments bootstrap object references through a name server;
//! this crate is that service grown into a *replica directory*: servers
//! register an object reference together with the QoS ladder they can
//! offer, and clients resolve by **name + required QoS**, getting back the
//! full candidate replica set ranked by how high a rung of each replica's
//! offered ladder dominates the requirement. The resolved set feeds
//! [`cool_orb::replica::ResolvedStub`], which binds to the best-matching
//! replica, load-balances fresh bindings across equivalent ones and fails
//! over mid-traffic when the active replica dies.
//!
//! The directory is self-hosting: it is a regular servant (`register`,
//! `deregister`, `resolve`, `list`) marshalled over CDR and served over
//! any transport the ORB supports — directory traffic is dogfooded GIOP
//! traffic. Requests carry an explicit byte-order flag
//! octet ahead of the CDR body (0 = big-endian, 1 = little-endian) and
//! replies echo the requester's order, so both byte orders work on the
//! wire.
//!
//! ```no_run
//! use cool_naming::{candidates, DirectoryClient, DirectoryServer};
//! use cool_orb::prelude::*;
//!
//! # fn main() -> Result<(), cool_orb::OrbError> {
//! let orb = Orb::new("registry-host");
//! let server = orb.listen_tcp("127.0.0.1:0")?;
//! let dir_ref = DirectoryServer::serve(&orb, &server)?;
//!
//! // A replica publishes its reference with the QoS it can offer.
//! let offered = vec![QoSSpec::builder().throughput_bps(1_000_000, 0, i32::MAX).build()];
//! let publisher = Orb::new("replica");
//! let dir = DirectoryClient::connect(&publisher, &dir_ref)?;
//! dir.register("media", &server.object_ref("media"), &offered)?;
//!
//! // A client resolves by name + required QoS and binds the whole set.
//! let required = QoSSpec::builder().throughput_bps(64_000, 1_000, 2_000_000).build();
//! let replicas = dir.resolve("media", &required)?;
//! let stub = publisher.bind_resolved(&candidates(&replicas), required, Vec::new())?;
//! # let _ = stub;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod directory;
pub mod ladder;

pub use client::{candidates, directory_ref, DirectoryClient, ReplicaInfo};
pub use directory::{DirectoryServer, DIRECTORY_KEY, NOT_FOUND_REPO_ID};
pub use ladder::{best_rung, rung_dominates, rung_policy};
