//! # netsim — simulated network links for the MULTE reproduction
//!
//! The original MULTE testbed ran over 155 Mbit/s and 2.4 Gbit/s ATM with
//! RSVP-style resource reservation. Neither is available here, so this crate
//! provides the closest synthetic equivalent: point-to-point duplex links
//! with
//!
//! * token-bucket **bandwidth shaping** (transmission time per frame),
//! * configurable **propagation delay** and random **jitter**,
//! * probabilistic **frame loss**, and
//! * an **MTU** that rejects oversized frames.
//!
//! Reservation is not modelled here: bandwidth is admitted against the
//! endsystem's budget by the transport that uses the link
//! (`dacapo::resource`).
//!
//! Links are driven by a [`clock::Clock`], either the real monotonic clock
//! ([`clock::RealClock`]) or a deterministic [`clock::VirtualClock`] that
//! advances instantly — tests and benches can simulate seconds of traffic in
//! microseconds without losing the shaping arithmetic.
//!
//! # Quick example
//!
//! ```
//! use netsim::{LinkSpec, Link};
//! use bytes::Bytes;
//!
//! # fn main() -> Result<(), netsim::NetSimError> {
//! // A 10 Mbit/s link with 1 ms propagation delay, lossless.
//! let spec = LinkSpec::builder()
//!     .bandwidth_bps(10_000_000)
//!     .propagation(std::time::Duration::from_millis(1))
//!     .build()?;
//! let link = Link::virtual_time(spec);
//! let (a, b) = link.endpoints();
//!
//! a.send(bytes::Bytes::from_static(b"hello"))?;
//! let frame = b.recv()?;
//! assert_eq!(&frame[..], b"hello");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod endpoint;
pub mod error;
pub mod link;
pub mod spec;
pub mod stats;

pub use clock::{Clock, RealClock, SharedClock, VirtualClock};
pub use endpoint::Endpoint;
pub use error::NetSimError;
pub use link::Link;
pub use spec::{LinkSpec, LinkSpecBuilder};
pub use stats::LinkStats;
