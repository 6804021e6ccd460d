//! # cool-orb — the COOL ORB with flexible QoS support
//!
//! A from-scratch reimplementation of the CORBA 2.0 ORB **COOL 4.1** as
//! described in the paper, including every extension the paper adds:
//!
//! * **Object layer** — [`servant::Servant`] implementations registered
//!   with an [`adapter::ObjectAdapter`]; object references
//!   ([`object::ObjectRef`]) name an object key plus a transport address.
//!   The adapter exists on both client and server side and optimises the
//!   colocated case (a stub bound to a local object dispatches directly,
//!   Section 2).
//! * **QoS specification** — client stubs carry the generated
//!   `set_qos_parameter` method (Section 4.1): call it once for
//!   *QoS-per-binding*, before every invocation for *QoS-per-method*;
//!   never call it and the ORB speaks standard GIOP 1.0.
//! * **Generic message protocol layer** — GIOP (via [`cool_giop`]) and the
//!   proprietary lightweight [`message_layer::cool`] protocol.
//! * **Generic transport protocol layer** — the `_COOL_ComChannel`
//!   hierarchy of the paper's Figure 8: [`transport::TcpComChannel`],
//!   [`transport::ChorusComChannel`] (Chorus IPC) and
//!   [`transport::DacapoComChannel`], each with an associated manager.
//!   Only the Da CaPo channel honours `set_qos` (Section 4.3): TCP and
//!   Chorus IPC reject QoS, exactly as in the paper.
//! * **Invocation modes** — synchronous `call`, one-way `send`, deferred
//!   synchronous `defer`, asynchronous `notify`, and `cancel`
//!   (Section 5.2's `_DacapoComChannel` method list).
//! * **Bilateral negotiation** — the server evaluates `qos_params` from
//!   the extended GIOP Request against the object's
//!   [`multe_qos::ServerPolicy`] and either proceeds or NACKs with a CORBA
//!   user exception (Figure 3); granted values return to the client in a
//!   Reply service context.
//!
//! ```no_run
//! use cool_orb::prelude::*;
//! use bytes::Bytes;
//!
//! # fn main() -> Result<(), cool_orb::OrbError> {
//! // Server: an echo object on a TCP endpoint.
//! let server_orb = Orb::new("server");
//! server_orb.adapter().register_fn("echo-1", |_op, args, _ctx| Ok(args.to_vec()))?;
//! let server = server_orb.listen_tcp("127.0.0.1:0")?;
//! let reference = server.object_ref("echo-1");
//!
//! // Client: bind and invoke.
//! let client_orb = Orb::new("client");
//! let stub = client_orb.bind(&reference)?;
//! let reply = stub.invoke("echo", Bytes::from_static(b"ping"))?;
//! assert_eq!(&reply[..], b"ping");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod adapter;
pub mod binding;
pub mod config;
pub mod error;
pub mod exchange;
mod invoke;
pub mod message_layer;
pub mod object;
pub mod orb;
pub mod replica;
pub mod retry;
pub mod servant;
pub mod server;
pub mod stream;
pub mod transport;

pub use adapter::ObjectAdapter;
pub use binding::{Binding, DeferredReply};
pub use cool_faults::{FaultAction, FaultEngine, FaultPlan, FaultPlanBuilder, PlanSet};
pub use config::{FailoverPolicy, IntrospectPolicy, OrbConfig};
pub use error::OrbError;
pub use exchange::LocalExchange;
pub use object::{ObjectKey, ObjectRef, OrbAddr};
pub use orb::{Orb, Stub};
pub use replica::{ReplicaCandidate, ResolvedStub};
pub use retry::RetryPolicy;
pub use servant::{InvocationCtx, Servant};
pub use server::OrbServer;
pub use stream::{
    handle_stream_open, open_stream, open_stream_named, serve_source, serve_sources, FlowHandle,
    StreamReceiver, StreamSource,
};

/// Convenient glob import for applications.
pub mod prelude {
    pub use crate::adapter::ObjectAdapter;
    pub use crate::binding::{Binding, DeferredReply};
    pub use crate::config::{FailoverPolicy, IntrospectPolicy, OrbConfig};
    pub use cool_faults::{FaultPlan, FaultPlanBuilder, PlanSet};
    pub use crate::error::OrbError;
    pub use crate::exchange::LocalExchange;
    pub use crate::object::{ObjectKey, ObjectRef, OrbAddr};
    pub use crate::orb::{Orb, Stub};
    pub use crate::replica::{ReplicaCandidate, ResolvedStub};
    pub use crate::retry::RetryPolicy;
    pub use crate::servant::{InvocationCtx, Servant};
    pub use crate::server::OrbServer;
    pub use crate::stream::{
        handle_stream_open, open_stream, open_stream_named, serve_source, serve_sources,
        FlowHandle, StreamReceiver, StreamSource,
    };
    pub use multe_qos::prelude::*;
}
