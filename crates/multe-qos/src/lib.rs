//! # multe-qos — the MULTE QoS model and negotiation engine
//!
//! The paper splits QoS support at the object and message layer into three
//! concerns (Section 4): *(1) object based QoS specification, (2) QoS
//! negotiation between client and object implementation, and (3) QoS
//! negotiation between message layer and transport layer.* This crate
//! implements the first two and the mapping the third starts from,
//! independent of any particular transport (the admission itself is the
//! transport's: `dacapo::resource`):
//!
//! * [`spec::QoSSpec`] — the typed, high-level specification a client
//!   builds and hands to `setQoSParameter`; it marshals to/from the
//!   `QoSParameter` array defined by [`cool_giop::qos`] (Figure 2-ii).
//! * [`policy::ServerPolicy`] + [`negotiation`] — **bilateral** negotiation
//!   between client and object implementation: the server evaluates the
//!   requested ranges against its capabilities and either grants a concrete
//!   operating point or NACKs (the CORBA-exception path of Figure 3-i).
//! * [`mapping`] — derives the transport-level requirements (which protocol
//!   functions a Da CaPo configuration must include, how much bandwidth to
//!   reserve) from a granted QoS.
//!
//! ```
//! use multe_qos::prelude::*;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), multe_qos::QosError> {
//! // Client: "I want 5 Mbit/s, at least 1 Mbit/s, ordered delivery."
//! let spec = QoSSpec::builder()
//!     .throughput_bps(5_000_000, 1_000_000, 10_000_000)
//!     .ordered(true)
//!     .build();
//!
//! // Server: can sustain 8 Mbit/s and supports ordering.
//! let policy = ServerPolicy::builder()
//!     .max_throughput_bps(8_000_000)
//!     .supports_ordering(true)
//!     .build();
//!
//! let granted = policy.negotiate(&spec)?;
//! assert_eq!(granted.throughput_bps(), Some(5_000_000));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod error;
pub mod mapping;
pub mod negotiation;
pub mod policy;
pub mod spec;
pub mod telemetry;

pub use error::QosError;
pub use mapping::TransportRequirements;
pub use negotiation::GrantedQoS;
pub use policy::{ServerPolicy, ServerPolicyBuilder};
pub use spec::{QoSSpec, QoSSpecBuilder, Range, Reliability};

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::error::QosError;
    pub use crate::mapping::TransportRequirements;
    pub use crate::negotiation::GrantedQoS;
    pub use crate::policy::{ServerPolicy, ServerPolicyBuilder};
    pub use crate::spec::{QoSSpec, QoSSpecBuilder, Range, Reliability};
}
