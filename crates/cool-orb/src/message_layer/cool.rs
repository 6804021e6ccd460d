//! The proprietary COOL message protocol.
//!
//! COOL 4.1 supported its own lightweight message protocol next to GIOP in
//! the generic message layer (Section 2, Figure 1). Compared to GIOP it
//! drops service contexts, principals and byte-order negotiation — a small
//! fixed big-endian format intended for trusted same-vendor endpoints. It
//! carries **no QoS parameters**: QoS support is exactly the GIOP 9.9
//! extension, so this protocol exists to exercise the generic message
//! layer's ability to host multiple protocols.
//!
//! Frame layout (big-endian):
//!
//! ```text
//! magic "COOL" | u8 msg_type | u32 request_id | type-specific payload
//! msg_type 0 = Request:   u16 key_len, key, u16 op_len, op, u8 oneway, u32 args_len, args
//! msg_type 1 = Reply:     u32 body_len, body
//! msg_type 2 = Exception: u16 kind_len, kind, u16 detail_len, detail
//! ```

use super::{Event, InboundReply, InboundRequest, ReplyFormat};
use crate::error::OrbError;
use bytes::{BufMut, Bytes, BytesMut};
use cool_giop::GiopError;

/// Magic prefix of every COOL-protocol frame.
pub const MAGIC: &[u8; 4] = b"COOL";

/// A message of the proprietary COOL protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoolMessage {
    /// Method invocation.
    Request {
        /// Correlation id.
        request_id: u32,
        /// Target object key.
        object_key: Vec<u8>,
        /// Operation name.
        operation: String,
        /// Whether no reply is expected.
        one_way: bool,
        /// Marshalled in-parameters.
        args: Bytes,
    },
    /// Successful result.
    Reply {
        /// Correlation id.
        request_id: u32,
        /// Marshalled results.
        body: Bytes,
    },
    /// Failure result.
    Exception {
        /// Correlation id.
        request_id: u32,
        /// Stable error tag (mirrors the GIOP system-exception kinds).
        kind: String,
        /// Human-readable detail.
        detail: String,
    },
}

impl CoolMessage {
    /// The correlation id.
    pub fn request_id(&self) -> u32 {
        match self {
            CoolMessage::Request { request_id, .. }
            | CoolMessage::Reply { request_id, .. }
            | CoolMessage::Exception { request_id, .. } => *request_id,
        }
    }

    /// Encodes the message into a frame.
    ///
    /// # Errors
    ///
    /// [`OrbError::Marshal`] with [`GiopError::LengthOverflow`] if a field
    /// is longer than its length prefix can say: 65 535 bytes for the key,
    /// operation, kind and detail, 4 GiB for args and body.
    pub fn encode(&self) -> Result<Bytes, OrbError> {
        match self {
            CoolMessage::Request {
                request_id,
                object_key,
                operation,
                one_way,
                args,
            } => request_frame(*request_id, object_key, operation, *one_way, args),
            CoolMessage::Reply { request_id, body } => {
                frame(1, *request_id, |buf| put_long(buf, body))
            }
            CoolMessage::Exception {
                request_id,
                kind,
                detail,
            } => frame(2, *request_id, |buf| {
                put_short(buf, kind.as_bytes())?;
                put_short(buf, detail.as_bytes())
            }),
        }
    }

    /// Decodes a frame.
    ///
    /// # Errors
    ///
    /// [`OrbError::Protocol`] for malformed frames.
    pub fn decode(frame: &[u8]) -> Result<Self, OrbError> {
        let mut r = Reader { buf: frame, pos: 0 };
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(OrbError::Protocol(format!("bad cool magic {magic:?}")));
        }
        let msg_type = r.u8()?;
        let request_id = r.u32()?;
        let msg = match msg_type {
            0 => {
                let key_len = r.u16()? as usize;
                let object_key = r.take(key_len)?.to_vec();
                let op_len = r.u16()? as usize;
                let operation = String::from_utf8(r.take(op_len)?.to_vec())
                    .map_err(|e| OrbError::Protocol(format!("bad operation name: {e}")))?;
                let one_way = r.u8()? != 0;
                let args_len = r.u32()? as usize;
                let args = Bytes::copy_from_slice(r.take(args_len)?);
                CoolMessage::Request {
                    request_id,
                    object_key,
                    operation,
                    one_way,
                    args,
                }
            }
            1 => {
                let body_len = r.u32()? as usize;
                let body = Bytes::copy_from_slice(r.take(body_len)?);
                CoolMessage::Reply { request_id, body }
            }
            2 => {
                let kind_len = r.u16()? as usize;
                let kind = String::from_utf8(r.take(kind_len)?.to_vec())
                    .map_err(|e| OrbError::Protocol(format!("bad exception kind: {e}")))?;
                let detail_len = r.u16()? as usize;
                let detail = String::from_utf8(r.take(detail_len)?.to_vec())
                    .map_err(|e| OrbError::Protocol(format!("bad exception detail: {e}")))?;
                CoolMessage::Exception {
                    request_id,
                    kind,
                    detail,
                }
            }
            other => return Err(OrbError::Protocol(format!("unknown cool msg type {other}"))),
        };
        if r.pos != frame.len() {
            return Err(OrbError::Protocol(format!(
                "trailing garbage: {} bytes",
                frame.len() - r.pos
            )));
        }
        Ok(msg)
    }
}

/// A frame of `msg_type` for `request_id`, its payload written by `payload`.
fn frame(
    msg_type: u8,
    request_id: u32,
    payload: impl FnOnce(&mut BytesMut) -> Result<(), OrbError>,
) -> Result<Bytes, OrbError> {
    let mut buf = BytesMut::with_capacity(32);
    buf.put_slice(MAGIC);
    buf.put_u8(msg_type);
    buf.put_u32(request_id);
    payload(&mut buf)?;
    Ok(buf.freeze())
}

/// The Request frame [`CoolMessage::encode`] writes, from borrowed parts.
pub(super) fn request_frame(
    request_id: u32,
    object_key: &[u8],
    operation: &str,
    one_way: bool,
    args: &[u8],
) -> Result<Bytes, OrbError> {
    frame(0, request_id, |buf| {
        put_short(buf, object_key)?;
        put_short(buf, operation.as_bytes())?;
        buf.put_u8(one_way as u8);
        put_long(buf, args)
    })
}

/// Writes `field` behind its length as a `u16`.
fn put_short(buf: &mut BytesMut, field: &[u8]) -> Result<(), OrbError> {
    let len = u16::try_from(field.len()).map_err(|_| too_long(field, u16::MAX.into()))?;
    buf.put_u16(len);
    buf.put_slice(field);
    Ok(())
}

/// Writes `field` behind its length as a `u32`.
fn put_long(buf: &mut BytesMut, field: &[u8]) -> Result<(), OrbError> {
    let len = u32::try_from(field.len()).map_err(|_| too_long(field, u32::MAX.into()))?;
    buf.put_u32(len);
    buf.put_slice(field);
    Ok(())
}

fn too_long(field: &[u8], limit: u64) -> OrbError {
    OrbError::Marshal(GiopError::LengthOverflow {
        declared: field.len() as u64,
        limit,
    })
}

/// What a COOL frame means.
pub(super) fn event(frame: &[u8]) -> Event {
    let reply = |request_id, result| Event::Reply {
        request_id,
        trace: None,
        reply: InboundReply::Cool(result),
    };
    match CoolMessage::decode(frame) {
        Ok(CoolMessage::Request {
            request_id,
            object_key,
            operation,
            one_way,
            args,
        }) => Event::Request(InboundRequest {
            request_id,
            object_key: Bytes::from(object_key),
            operation: operation.into(),
            args,
            qos_params: Vec::new(),
            one_way,
            trace: None,
            reply_format: ReplyFormat::Cool,
        }),
        // The format has no room for granted QoS.
        Ok(CoolMessage::Reply { request_id, body }) => reply(request_id, Ok((body, None))),
        Ok(CoolMessage::Exception {
            request_id,
            kind,
            detail,
        }) => reply(request_id, Err(super::error_of(&kind, detail))),
        Err(_) => Event::Malformed,
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], OrbError> {
        if self.pos + n > self.buf.len() {
            return Err(OrbError::Protocol(format!(
                "cool frame truncated: wanted {n} bytes at offset {}",
                self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, OrbError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, OrbError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, OrbError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let msg = CoolMessage::Request {
            request_id: 42,
            object_key: b"obj".to_vec(),
            operation: "render".into(),
            one_way: false,
            args: Bytes::from_static(b"\x01\x02"),
        };
        assert_eq!(CoolMessage::decode(&msg.encode().unwrap()).unwrap(), msg);
        assert_eq!(msg.request_id(), 42);
    }

    #[test]
    fn reply_and_exception_round_trip() {
        let reply = CoolMessage::Reply {
            request_id: 1,
            body: Bytes::from_static(b"ok"),
        };
        assert_eq!(
            CoolMessage::decode(&reply.encode().unwrap()).unwrap(),
            reply
        );
        let exc = CoolMessage::Exception {
            request_id: 2,
            kind: "ObjectNotFound".into(),
            detail: "ghost".into(),
        };
        assert_eq!(CoolMessage::decode(&exc.encode().unwrap()).unwrap(), exc);
    }

    #[test]
    fn malformed_frames_rejected() {
        assert!(CoolMessage::decode(b"JUNK").is_err());
        assert!(CoolMessage::decode(b"COOL").is_err());
        let mut frame = CoolMessage::Reply {
            request_id: 1,
            body: Bytes::new(),
        }
        .encode()
        .unwrap()
        .to_vec();
        frame.push(0xFF); // trailing garbage
        assert!(CoolMessage::decode(&frame).is_err());
        let truncated = &frame[..frame.len() - 3];
        assert!(CoolMessage::decode(truncated).is_err());
    }

    #[test]
    fn unknown_type_rejected() {
        let mut frame = Vec::from(&MAGIC[..]);
        frame.push(9);
        frame.extend_from_slice(&0u32.to_be_bytes());
        assert!(CoolMessage::decode(&frame).is_err());
    }
}
