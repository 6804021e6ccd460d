//! # cool-giop — the GIOP message layer of the COOL ORB
//!
//! This crate implements the General Inter-ORB Protocol as used by COOL 4.1
//! plus the QoS extension described in the paper:
//!
//! * **CDR marshalling** ([`cdr`]) — the Common Data Representation with
//!   aligned primitives, strings, sequences and both byte orders.
//! * **The seven GIOP messages** ([`message`]) — `Request`, `Reply`,
//!   `CancelRequest`, `LocateRequest`, `LocateReply`, `CloseConnection`,
//!   `MessageError`, exactly the set in the paper's Figure 2-i.
//! * **The QoS extension** — GIOP version **9.9** (vs standard **1.0**)
//!   signalled in the message header's version field, and a
//!   `qos_params: sequence<QoSParameter>` field added to the `Request`
//!   header (Figure 2-ii). Standard-GIOP peers never see the new field, so
//!   backwards compatibility is preserved: a 1.0 Request is bit-identical
//!   to what an unmodified ORB produces.
//! * **Framing** ([`codec`]) — 12-byte header + body encoding, with an
//!   incremental reader for use over byte-stream transports.
//!
//! ```
//! use cool_giop::prelude::*;
//!
//! # fn main() -> Result<(), cool_giop::GiopError> {
//! // Build a QoS-extended Request carrying one throughput parameter.
//! let qos = QoSParameter::new(ParamKind::Throughput, 5_000_000, 10_000_000, 1_000_000);
//! let request = RequestHeader::builder(1, b"object-key".to_vec(), "get_image")
//!     .response_expected(true)
//!     .qos_params(vec![qos])
//!     .build();
//! let msg = Message::Request { header: request, body: bytes::Bytes::new() };
//!
//! let wire = encode_message(&msg, GiopVersion::QOS_EXTENDED, ByteOrder::Big)?;
//! let decoded = decode_message(&wire)?;
//! assert_eq!(decoded, msg);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod cdr;
pub mod codec;
pub mod error;
pub mod message;
pub mod qos;
pub mod service_context;
pub mod trace;
pub mod version;

pub use cdr::{ByteOrder, Cdr, CdrDecoder, CdrEncoder};
pub use codec::{decode_message, encode_message, join_frames, split_frames, MessageReader};
pub use error::GiopError;
pub use message::{
    LocateReplyHeader, LocateRequestHeader, LocateStatus, Message, MsgType, ReplyHeader,
    ReplyStatus, RequestHeader,
};
pub use qos::{ParamKind, QoSParameter};
pub use service_context::{ServiceContext, ServiceContextList};
pub use trace::{
    ReplyTraceContext, RequestTraceContext, TRACE_REPLY_CONTEXT_ID, TRACE_REQUEST_CONTEXT_ID,
};
pub use version::GiopVersion;

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::cdr::{ByteOrder, Cdr, CdrDecoder, CdrEncoder};
    pub use crate::codec::{decode_message, encode_message, join_frames, split_frames, MessageReader};
    pub use crate::error::GiopError;
    pub use crate::message::{
        LocateReplyHeader, LocateRequestHeader, LocateStatus, Message, MsgType, ReplyHeader,
        ReplyStatus, RequestHeader,
    };
    pub use crate::qos::{ParamKind, QoSParameter};
    pub use crate::service_context::{ServiceContext, ServiceContextList};
    pub use crate::trace::{
        ReplyTraceContext, RequestTraceContext, TRACE_REPLY_CONTEXT_ID, TRACE_REQUEST_CONTEXT_ID,
    };
    pub use crate::version::GiopVersion;
}
