//! Distributed-trace service contexts.
//!
//! Cross-process tracing rides on the standard GIOP service-context list:
//! the client attaches a [`RequestTraceContext`] naming the trace id plus
//! its pre-send timing, and a server that understands the tag echoes a
//! [`ReplyTraceContext`] back with its own stage durations so the client
//! can merge both halves into one record and compute the wire gap.
//!
//! The context data is a little hand-rolled encapsulation: one format
//! version octet followed by big-endian fixed-width fields. A decoder that
//! sees an unknown format version (or a list without the tag at all)
//! returns `None` — unknown tags and future formats are ignored, never an
//! error, so traced and untraced peers interoperate freely.

use crate::service_context::{ServiceContext, ServiceContextList};

/// Service-context id for the request-side trace entry (`"TRq\0"`).
pub const TRACE_REQUEST_CONTEXT_ID: u32 = 0x5452_7100;

/// Service-context id for the reply-side trace entry (`"TRp\0"`).
pub const TRACE_REPLY_CONTEXT_ID: u32 = 0x5452_7000;

/// Format version octet both entries currently carry.
const TRACE_FORMAT_V1: u8 = 1;

/// Client half of a distributed trace, attached to the Request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTraceContext {
    /// Process-unique trace id allocated by the caller for this invocation.
    pub trace_id: u64,
    /// Client wall clock (ns since the Unix epoch) just before the frame
    /// was handed to the transport.
    pub sent_at_ns: u64,
    /// Client-side time spent between invocation start and handing the
    /// encoded frame to the transport, in microseconds.
    pub marshal_us: u32,
}

/// Server half of a distributed trace, echoed on the Reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyTraceContext {
    /// Trace id copied from the inbound [`RequestTraceContext`].
    pub trace_id: u64,
    /// Server wall clock (ns since the Unix epoch) when the request frame
    /// was decoded off the wire.
    pub recv_at_ns: u64,
    /// Server wall clock (ns since the Unix epoch) just before the reply
    /// was handed back to the transport.
    pub sent_at_ns: u64,
    /// Time the request sat in the dispatcher queue, in microseconds.
    pub queue_wait_us: u32,
    /// Time spent in QoS negotiation, in microseconds.
    pub negotiate_us: u32,
    /// Time spent executing the servant, in microseconds.
    pub execute_us: u32,
}

fn take_u64(data: &[u8], at: usize) -> Option<u64> {
    let raw: [u8; 8] = data.get(at..at + 8)?.try_into().ok()?;
    Some(u64::from_be_bytes(raw))
}

fn take_u32(data: &[u8], at: usize) -> Option<u32> {
    let raw: [u8; 4] = data.get(at..at + 4)?.try_into().ok()?;
    Some(u32::from_be_bytes(raw))
}

impl RequestTraceContext {
    /// Length of the encoded context data (one version octet plus the
    /// fixed-width fields) — handy for accounting wire overhead without
    /// re-encoding.
    pub const WIRE_LEN: usize = 1 + 8 + 8 + 4;

    /// Serialises into the opaque context-data bytes on the stack — at
    /// [`WIRE_LEN`](Self::WIRE_LEN) bytes this fits [`ContextData`](crate::service_context::ContextData)'s
    /// inline storage, so attaching a trace context never allocates.
    #[inline]
    pub fn encode(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[0] = TRACE_FORMAT_V1;
        out[1..9].copy_from_slice(&self.trace_id.to_be_bytes());
        out[9..17].copy_from_slice(&self.sent_at_ns.to_be_bytes());
        out[17..21].copy_from_slice(&self.marshal_us.to_be_bytes());
        out
    }

    /// Parses context-data bytes; `None` on unknown format or short data.
    #[inline]
    pub fn decode(data: &[u8]) -> Option<Self> {
        if data.first() != Some(&TRACE_FORMAT_V1) {
            return None;
        }
        Some(RequestTraceContext {
            trace_id: take_u64(data, 1)?,
            sent_at_ns: take_u64(data, 9)?,
            marshal_us: take_u32(data, 17)?,
        })
    }

    /// Wraps the encoded form in a tagged [`ServiceContext`] entry
    /// (inline-stored, no allocation).
    #[inline]
    pub fn to_service_context(&self) -> ServiceContext {
        ServiceContext::new(TRACE_REQUEST_CONTEXT_ID, &self.encode()[..])
    }

    /// Looks the entry up in a service-context list, ignoring every other
    /// tag. `None` when absent or undecodable.
    #[inline]
    pub fn from_list(list: &ServiceContextList) -> Option<Self> {
        list.find(TRACE_REQUEST_CONTEXT_ID)
            .and_then(|c| Self::decode(&c.context_data))
    }
}

impl ReplyTraceContext {
    /// Length of the encoded context data (one version octet plus the
    /// fixed-width fields) — handy for accounting wire overhead without
    /// re-encoding.
    pub const WIRE_LEN: usize = 1 + 8 * 3 + 4 * 3;

    /// Serialises into the opaque context-data bytes on the stack — at
    /// [`WIRE_LEN`](Self::WIRE_LEN) bytes this fits [`ContextData`](crate::service_context::ContextData)'s
    /// inline storage, so attaching a trace context never allocates.
    #[inline]
    pub fn encode(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[0] = TRACE_FORMAT_V1;
        out[1..9].copy_from_slice(&self.trace_id.to_be_bytes());
        out[9..17].copy_from_slice(&self.recv_at_ns.to_be_bytes());
        out[17..25].copy_from_slice(&self.sent_at_ns.to_be_bytes());
        out[25..29].copy_from_slice(&self.queue_wait_us.to_be_bytes());
        out[29..33].copy_from_slice(&self.negotiate_us.to_be_bytes());
        out[33..37].copy_from_slice(&self.execute_us.to_be_bytes());
        out
    }

    /// Parses context-data bytes; `None` on unknown format or short data.
    #[inline]
    pub fn decode(data: &[u8]) -> Option<Self> {
        if data.first() != Some(&TRACE_FORMAT_V1) {
            return None;
        }
        Some(ReplyTraceContext {
            trace_id: take_u64(data, 1)?,
            recv_at_ns: take_u64(data, 9)?,
            sent_at_ns: take_u64(data, 17)?,
            queue_wait_us: take_u32(data, 25)?,
            negotiate_us: take_u32(data, 29)?,
            execute_us: take_u32(data, 33)?,
        })
    }

    /// Wraps the encoded form in a tagged [`ServiceContext`] entry
    /// (inline-stored, no allocation).
    #[inline]
    pub fn to_service_context(&self) -> ServiceContext {
        ServiceContext::new(TRACE_REPLY_CONTEXT_ID, &self.encode()[..])
    }

    /// Looks the entry up in a service-context list, ignoring every other
    /// tag. `None` when absent or undecodable.
    #[inline]
    pub fn from_list(list: &ServiceContextList) -> Option<Self> {
        list.find(TRACE_REPLY_CONTEXT_ID)
            .and_then(|c| Self::decode(&c.context_data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> RequestTraceContext {
        RequestTraceContext {
            trace_id: 0xDEAD_BEEF_0042_1234,
            sent_at_ns: 1_700_000_000_123_456_789,
            marshal_us: 37,
        }
    }

    fn rep() -> ReplyTraceContext {
        ReplyTraceContext {
            trace_id: 0xDEAD_BEEF_0042_1234,
            recv_at_ns: 1_700_000_000_223_456_789,
            sent_at_ns: 1_700_000_000_323_456_789,
            queue_wait_us: 12,
            negotiate_us: 3,
            execute_us: 450,
        }
    }

    #[test]
    fn request_round_trip() {
        let ctx = req();
        assert_eq!(ctx.encode().len(), RequestTraceContext::WIRE_LEN);
        assert_eq!(RequestTraceContext::decode(&ctx.encode()), Some(ctx));
    }

    #[test]
    fn reply_round_trip() {
        let ctx = rep();
        assert_eq!(ctx.encode().len(), ReplyTraceContext::WIRE_LEN);
        assert_eq!(ReplyTraceContext::decode(&ctx.encode()), Some(ctx));
    }

    #[test]
    fn found_among_unknown_tags() {
        let list: ServiceContextList = [
            ServiceContext::new(0x4242_4242, vec![1, 2, 3]),
            req().to_service_context(),
            ServiceContext::new(0, vec![]),
        ]
        .into_iter()
        .collect();
        assert_eq!(RequestTraceContext::from_list(&list), Some(req()));
        assert_eq!(ReplyTraceContext::from_list(&list), None);
    }

    #[test]
    fn unknown_format_version_is_ignored() {
        let mut data = req().encode();
        data[0] = 9; // a future format this decoder does not know
        assert_eq!(RequestTraceContext::decode(&data), None);
        let list: ServiceContextList = [ServiceContext::new(TRACE_REQUEST_CONTEXT_ID, &data[..])]
            .into_iter()
            .collect();
        assert_eq!(RequestTraceContext::from_list(&list), None);
    }

    #[test]
    fn short_data_is_ignored() {
        let data = req().encode();
        assert_eq!(RequestTraceContext::decode(&data[..data.len() - 1]), None);
        assert_eq!(ReplyTraceContext::decode(&[]), None);
    }
}
