//! GIOP framing: the 12-byte message header plus body.
//!
//! Wire layout of the header (Figure 2-i):
//!
//! ```text
//! offset 0  char magic[4]      = "GIOP"
//! offset 4  Version            = major, minor   (1.0 or 9.9)
//! offset 6  boolean byte_order = 0 big / 1 little
//! offset 7  octet message_type
//! offset 8  unsigned long message_size          (body bytes that follow)
//! ```
//!
//! Entry points:
//! * [`Message::encode_into`] — appends header + CDR body to one
//!   caller-owned buffer (size patched in place, no body copy);
//!   [`new_frame`] writes a frame from any body — the ORB's, from
//!   borrowed parts — into a buffer sized once, and [`encode_message`] is
//!   it for a [`Message`]. One private routine writes every header,
//! * [`Message::decode_frame`] — the one decoder: Request/Reply bodies,
//!   object keys and operation names come back as `Bytes`-slice views
//!   into the shared frame, not copies,
//! * [`join_frames`] / [`split_frames`] — several messages in one transport
//!   frame: GIOP frames are self-delimiting, so a receiver can always split
//!   them,
//! * [`parse_header`] — the fixed 12-byte header alone, which
//!   `decode_frame` and `split_frames` read first; a reader that has read
//!   it hands it to [`Message::decode_headed`] rather than read it twice.

use crate::cdr::{ByteOrder, Cdr, CdrDecoder, CdrEncoder};
use crate::error::GiopError;
use crate::message::{
    request_header_len_bound, LocateReplyHeader, LocateRequestHeader, Message, MsgType,
    ReplyHeader, RequestHeader,
};
use crate::version::GiopVersion;
use bytes::{BufMut, Bytes, BytesMut};
use cool_telemetry::allocs::record_buffer_alloc;

/// The 4-byte GIOP magic.
pub const MAGIC: [u8; 4] = *b"GIOP";

/// Size of the fixed GIOP header.
pub const HEADER_LEN: usize = 12;

/// Upper bound on `message_size` the reader will accept (guards allocation
/// against corrupt streams); generous for 64 KiB experiment payloads.
pub const MAX_MESSAGE_SIZE: u32 = 256 * 1024 * 1024;

/// Appends one complete wire frame to `buf`: the 12-byte GIOP header,
/// then the CDR body `body` writes into the same buffer, then
/// `message_size` patched in place once the body length is known — no
/// intermediate body buffer, no copy. The one writer of a GIOP header:
/// [`Message::encode_into`] and [`new_frame`] — so every frame — come
/// through here. On error `buf` is rolled back to its prior length.
fn write_frame(
    buf: &mut BytesMut,
    version: GiopVersion,
    order: ByteOrder,
    msg_type: MsgType,
    body: impl FnOnce(&mut CdrEncoder) -> Result<(), GiopError>,
) -> Result<(), GiopError> {
    let start = buf.len();
    buf.put_slice(&MAGIC);
    buf.put_slice(&[version.major, version.minor, order.flag(), msg_type.code()]);
    buf.put_slice(&[0u8; 4]); // message_size, patched below

    // Hand the buffer to the CDR encoder; its base offset makes body
    // alignment identical to a standalone encapsulation.
    let mut enc = CdrEncoder::append_to(std::mem::take(buf), order);
    let encoded = body(&mut enc);
    let body_len = enc.len();
    *buf = enc.into_inner();
    if let Err(e) = encoded {
        buf.truncate(start);
        return Err(e);
    }
    let size = body_len as u32;
    let size_bytes = match order {
        ByteOrder::Big => size.to_be_bytes(),
        ByteOrder::Little => size.to_le_bytes(),
    };
    buf[start + 8..start + 12].copy_from_slice(&size_bytes);
    Ok(())
}

/// A fresh frame: one buffer sized for the header and `body_len_bound`
/// body bytes — an upper bound on what `body` writes, so the buffer never
/// grows — holding the 12-byte GIOP header and the CDR body `body` writes
/// after it, `message_size` patched in. One recorded buffer allocation.
///
/// # Errors
///
/// Whatever `body` returns.
#[expect(
    clippy::missing_inline_in_public_items,
    reason = "generic: instantiated in its caller's crate"
)]
pub fn new_frame(
    version: GiopVersion,
    order: ByteOrder,
    msg_type: MsgType,
    body_len_bound: usize,
    body: impl FnOnce(&mut CdrEncoder) -> Result<(), GiopError>,
) -> Result<Bytes, GiopError> {
    record_buffer_alloc();
    let mut frame = BytesMut::with_capacity(HEADER_LEN + body_len_bound);
    write_frame(&mut frame, version, order, msg_type, body)?;
    debug_assert!(
        frame.len() <= HEADER_LEN + body_len_bound,
        "a {msg_type:?} body outgrew its bound of {body_len_bound} bytes"
    );
    Ok(frame.freeze())
}

impl Message {
    /// Appends this message as one complete wire frame to `buf`: header
    /// and CDR body in the same buffer, `message_size` patched in place —
    /// no intermediate body buffer, no copy. On error `buf` is rolled back
    /// to its prior length.
    ///
    /// # Errors
    ///
    /// [`GiopError::QosOnStandardGiop`] if a Request carries QoS
    /// parameters but `version` is GIOP 1.0.
    #[inline]
    pub fn encode_into(
        &self,
        version: GiopVersion,
        order: ByteOrder,
        buf: &mut BytesMut,
    ) -> Result<(), GiopError> {
        write_frame(buf, version, order, self.msg_type(), |enc| {
            self.encode_body(enc, version)
        })
    }

    fn encode_body(&self, enc: &mut CdrEncoder, version: GiopVersion) -> Result<(), GiopError> {
        match self {
            Message::Request { header, body } => {
                header.encode(enc, version)?;
                enc.put_raw(body);
            }
            Message::Reply { header, body } => {
                header.encode(enc);
                enc.put_raw(body);
            }
            Message::CancelRequest { request_id } => enc.put_u32(*request_id),
            Message::LocateRequest(h) => h.encode(enc),
            Message::LocateReply(h) => h.encode(enc),
            Message::CloseConnection | Message::MessageError => {}
        }
        Ok(())
    }

    /// An upper bound on the body bytes [`Message::encode_body`] writes.
    fn body_len_bound(&self) -> usize {
        match self {
            Message::Request { header: h, body } => {
                request_header_len_bound(
                    &h.service_context,
                    &h.object_key,
                    &h.operation,
                    &h.qos_params,
                    &h.requesting_principal,
                ) + body.len()
            }
            Message::Reply { header, body } => header.encoded_len_bound() + body.len(),
            Message::CancelRequest { .. } => 4,
            Message::LocateRequest(h) => 4 + 4 + h.object_key.len(),
            Message::LocateReply(_) => 8,
            Message::CloseConnection | Message::MessageError => 0,
        }
    }

    /// Decodes one complete frame held in shared storage, returning the
    /// message together with the version and byte order it was marshalled
    /// under. Request/Reply bodies, object keys and operation names come
    /// back as views into `frame` — no copy.
    ///
    /// # Errors
    ///
    /// Any [`GiopError`] describing the malformation; notably
    /// [`GiopError::SizeMismatch`] if the buffer length disagrees with the
    /// header's `message_size`.
    #[inline]
    pub fn decode_frame(frame: &Bytes) -> Result<(Message, GiopVersion, ByteOrder), GiopError> {
        Message::decode_headed(parse_header(frame)?, frame)
    }

    /// [`Message::decode_frame`] for a frame whose header the caller has
    /// already read with [`parse_header`]: the header is not read again.
    ///
    /// # Errors
    ///
    /// As [`Message::decode_frame`], [`GiopError::SizeMismatch`] included.
    #[inline]
    pub fn decode_headed(
        header: FrameHeader,
        frame: &Bytes,
    ) -> Result<(Message, GiopVersion, ByteOrder), GiopError> {
        let body_len = frame.len().saturating_sub(HEADER_LEN);
        if body_len != header.message_size as usize {
            return Err(GiopError::SizeMismatch {
                announced: header.message_size as usize,
                actual: body_len,
            });
        }
        let msg = decode_body(header, frame)?;
        Ok((msg, header.version, header.order))
    }
}

/// Encodes a complete message into a fresh wire frame ([`new_frame`]),
/// sized once from the message's parts.
///
/// # Errors
///
/// [`GiopError::QosOnStandardGiop`] if a Request carries QoS parameters but
/// `version` is GIOP 1.0.
#[inline]
pub fn encode_message(
    msg: &Message,
    version: GiopVersion,
    order: ByteOrder,
) -> Result<Bytes, GiopError> {
    new_frame(
        version,
        order,
        msg.msg_type(),
        msg.body_len_bound(),
        |enc| msg.encode_body(enc, version),
    )
}

/// Parsed GIOP frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Protocol version announced by the frame.
    pub version: GiopVersion,
    /// Byte order of the body (and of `message_size`).
    pub order: ByteOrder,
    /// Message type discriminant.
    pub msg_type: MsgType,
    /// Number of body bytes following the header.
    pub message_size: u32,
}

/// Parses the fixed 12-byte header.
///
/// # Errors
///
/// [`GiopError::Underflow`], [`GiopError::BadMagic`],
/// [`GiopError::UnsupportedVersion`], [`GiopError::InvalidBool`],
/// [`GiopError::InvalidEnum`] or [`GiopError::LengthOverflow`] depending on
/// which field is malformed.
#[inline]
pub fn parse_header(buf: &[u8]) -> Result<FrameHeader, GiopError> {
    if buf.len() < HEADER_LEN {
        return Err(GiopError::Underflow {
            needed: HEADER_LEN,
            remaining: buf.len(),
        });
    }
    let magic = [buf[0], buf[1], buf[2], buf[3]];
    if magic != MAGIC {
        return Err(GiopError::BadMagic(magic));
    }
    let version = GiopVersion::from_wire(buf[4], buf[5])?;
    let order = ByteOrder::from_flag(buf[6])?;
    let msg_type = MsgType::from_code(buf[7])?;
    let size_bytes = [buf[8], buf[9], buf[10], buf[11]];
    let message_size = match order {
        ByteOrder::Big => u32::from_be_bytes(size_bytes),
        ByteOrder::Little => u32::from_le_bytes(size_bytes),
    };
    if message_size > MAX_MESSAGE_SIZE {
        return Err(GiopError::LengthOverflow {
            declared: message_size as u64,
            limit: MAX_MESSAGE_SIZE as u64,
        });
    }
    Ok(FrameHeader {
        version,
        order,
        msg_type,
        message_size,
    })
}

/// Decodes the body of `frame`, whose header `header` has been parsed and
/// whose length has been checked. The undecoded tail of a Request/Reply
/// body (operation parameters / results) is a slice of `frame`.
fn decode_body(header: FrameHeader, frame: &Bytes) -> Result<Message, GiopError> {
    let mut dec = CdrDecoder::new(&frame[HEADER_LEN..], header.order);
    Ok(match header.msg_type {
        MsgType::Request => {
            let header = RequestHeader::decode(&mut dec, frame, header.version)?;
            Message::Request {
                header,
                body: frame.slice(HEADER_LEN + dec.position()..),
            }
        }
        MsgType::Reply => {
            let header = ReplyHeader::decode(&mut dec)?;
            Message::Reply {
                header,
                body: frame.slice(HEADER_LEN + dec.position()..),
            }
        }
        MsgType::CancelRequest => Message::CancelRequest {
            request_id: dec.get_u32()?,
        },
        MsgType::LocateRequest => {
            Message::LocateRequest(LocateRequestHeader::decode(&mut dec, frame)?)
        }
        MsgType::LocateReply => Message::LocateReply(LocateReplyHeader::decode(&mut dec)?),
        MsgType::CloseConnection => Message::CloseConnection,
        MsgType::MessageError => Message::MessageError,
    })
}

/// Coalesces whole GIOP frames into one transport frame. Zero frames give
/// an empty buffer, a single frame passes through without copying.
///
/// GIOP frames self-delimit (`message_size` in the fixed header), so the
/// receiver needs no extra framing to take the batch apart — see
/// [`split_frames`].
#[inline]
pub fn join_frames(frames: &[Bytes]) -> Bytes {
    match frames {
        [] => Bytes::new(),
        [single] => single.clone(),
        many => {
            record_buffer_alloc();
            let total = many.iter().map(Bytes::len).sum();
            let mut buf = BytesMut::with_capacity(total);
            for frame in many {
                buf.put_slice(frame);
            }
            buf.freeze()
        }
    }
}

/// Splits a (possibly batched) transport frame back into whole GIOP
/// frames, each a zero-copy view of the input. The inverse of
/// [`join_frames`]; a non-batched frame yields exactly itself.
///
/// Each item is `Err` when the remaining bytes are not a valid frame
/// prefix (bad header, or a truncated final frame); iteration ends after
/// the first error.
#[inline]
pub fn split_frames(batch: &Bytes) -> FrameIter {
    FrameIter {
        rest: Some(batch.clone()),
    }
}

/// Iterator over the whole frames of a batched transport frame.
#[derive(Debug)]
pub struct FrameIter {
    /// What is left to split: `None` once the last frame was handed out
    /// or an error ended the iteration.
    rest: Option<Bytes>,
}

impl Iterator for FrameIter {
    type Item = Result<Bytes, GiopError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let rest = self.rest.as_mut().filter(|rest| !rest.is_empty())?;
        let header = match parse_header(rest) {
            Ok(h) => h,
            Err(e) => {
                self.rest = None;
                return Some(Err(e));
            }
        };
        let total = HEADER_LEN + header.message_size as usize;
        if rest.len() < total {
            let actual = rest.len() - HEADER_LEN;
            self.rest = None;
            return Some(Err(GiopError::SizeMismatch {
                announced: header.message_size as usize,
                actual,
            }));
        }
        if rest.len() == total {
            // The frame fills what is left, as a frame of one message
            // does: hand the batch itself over rather than a slice of it.
            return std::mem::take(&mut self.rest).map(Ok);
        }
        Some(Ok(rest.split_to(total)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::{ParamKind, QoSParameter};

    fn sample_request(qos: bool) -> Message {
        let mut b = RequestHeader::builder(11, b"object-1".to_vec(), "render");
        if qos {
            b = b.qos_params(vec![QoSParameter::new(ParamKind::Jitter, 10, 50, 0)]);
        }
        Message::Request {
            header: b.build(),
            body: Bytes::from_static(b"\x00\x01\x02\x03"),
        }
    }

    #[test]
    fn frame_round_trip_all_message_types() {
        let messages = vec![
            sample_request(false),
            Message::Reply {
                header: ReplyHeader::new(11, crate::message::ReplyStatus::NoException),
                body: Bytes::from_static(b"result"),
            },
            Message::CancelRequest { request_id: 4 },
            Message::LocateRequest(LocateRequestHeader {
                request_id: 5,
                object_key: Bytes::from_static(b"k"),
            }),
            Message::LocateReply(LocateReplyHeader {
                request_id: 5,
                locate_status: crate::message::LocateStatus::ObjectHere,
            }),
            Message::CloseConnection,
            Message::MessageError,
        ];
        for msg in messages {
            for order in [ByteOrder::Big, ByteOrder::Little] {
                let frame = encode_message(&msg, GiopVersion::STANDARD, order).unwrap();
                let (decoded, v, o) = Message::decode_frame(&frame).unwrap();
                assert_eq!(decoded, msg);
                assert_eq!(v, GiopVersion::STANDARD);
                assert_eq!(o, order);
            }
        }
    }

    #[test]
    fn qos_request_round_trips_under_9_9() {
        let msg = sample_request(true);
        let frame = encode_message(&msg, GiopVersion::QOS_EXTENDED, ByteOrder::Big).unwrap();
        let (decoded, v, _) = Message::decode_frame(&frame).unwrap();
        assert_eq!(v, GiopVersion::QOS_EXTENDED);
        assert_eq!(decoded, msg);
    }

    #[test]
    fn qos_request_rejected_under_1_0() {
        let msg = sample_request(true);
        assert_eq!(
            encode_message(&msg, GiopVersion::STANDARD, ByteOrder::Big).unwrap_err(),
            GiopError::QosOnStandardGiop
        );
    }

    #[test]
    fn header_wire_layout() {
        let frame = encode_message(
            &Message::CloseConnection,
            GiopVersion::QOS_EXTENDED,
            ByteOrder::Big,
        )
        .unwrap();
        assert_eq!(&frame[0..4], b"GIOP");
        assert_eq!(frame[4], 9); // major
        assert_eq!(frame[5], 9); // minor
        assert_eq!(frame[6], 0); // big endian
        assert_eq!(frame[7], MsgType::CloseConnection.code());
        assert_eq!(&frame[8..12], &[0, 0, 0, 0]); // empty body
        assert_eq!(frame.len(), HEADER_LEN);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = encode_message(
            &Message::MessageError,
            GiopVersion::STANDARD,
            ByteOrder::Big,
        )
        .unwrap()
        .to_vec();
        frame[0] = b'X';
        assert!(matches!(
            Message::decode_frame(&Bytes::from(frame)),
            Err(GiopError::BadMagic(_))
        ));
    }

    #[test]
    fn unknown_version_rejected() {
        let mut frame = encode_message(
            &Message::MessageError,
            GiopVersion::STANDARD,
            ByteOrder::Big,
        )
        .unwrap()
        .to_vec();
        frame[4] = 2;
        assert!(matches!(
            Message::decode_frame(&Bytes::from(frame)),
            Err(GiopError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn size_mismatch_rejected() {
        let msg = sample_request(false);
        let mut frame = encode_message(&msg, GiopVersion::STANDARD, ByteOrder::Big)
            .unwrap()
            .to_vec();
        frame.push(0); // trailing garbage
        assert!(matches!(
            Message::decode_frame(&Bytes::from(frame)),
            Err(GiopError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn hostile_message_size_rejected() {
        let mut frame = encode_message(
            &Message::MessageError,
            GiopVersion::STANDARD,
            ByteOrder::Big,
        )
        .unwrap()
        .to_vec();
        frame[8..12].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            parse_header(&frame),
            Err(GiopError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn encode_into_matches_contiguous_encoder() {
        let messages = vec![
            sample_request(false),
            Message::Reply {
                header: ReplyHeader::new(11, crate::message::ReplyStatus::NoException),
                body: Bytes::from_static(b"result"),
            },
            Message::CancelRequest { request_id: 4 },
            Message::CloseConnection,
        ];
        for msg in &messages {
            for order in [ByteOrder::Big, ByteOrder::Little] {
                let legacy = encode_message(msg, GiopVersion::STANDARD, order).unwrap();
                let mut buf = BytesMut::new();
                msg.encode_into(GiopVersion::STANDARD, order, &mut buf)
                    .unwrap();
                assert_eq!(&buf[..], &legacy[..]);
            }
        }
    }

    #[test]
    fn encode_into_appends_after_existing_content() {
        let msg = sample_request(false);
        let solo = encode_message(&msg, GiopVersion::STANDARD, ByteOrder::Big).unwrap();
        let mut buf = BytesMut::new();
        buf.put_slice(b"prefix!");
        msg.encode_into(GiopVersion::STANDARD, ByteOrder::Big, &mut buf)
            .unwrap();
        assert_eq!(&buf[..7], &b"prefix!"[..]);
        assert_eq!(&buf[7..], &solo[..]);
    }

    #[test]
    fn encode_into_rolls_back_on_error() {
        let msg = sample_request(true); // QoS params under GIOP 1.0 must fail
        let mut buf = BytesMut::new();
        buf.put_slice(b"keep me");
        assert_eq!(
            msg.encode_into(GiopVersion::STANDARD, ByteOrder::Big, &mut buf)
                .unwrap_err(),
            GiopError::QosOnStandardGiop
        );
        assert_eq!(&buf[..], &b"keep me"[..]);
    }

    #[test]
    fn decode_frame_returns_zero_copy_body_views() {
        let msg = sample_request(false);
        let frame = encode_message(&msg, GiopVersion::STANDARD, ByteOrder::Big).unwrap();
        let (decoded, v, o) = Message::decode_frame(&frame).unwrap();
        assert_eq!(decoded, msg);
        assert_eq!(v, GiopVersion::STANDARD);
        assert_eq!(o, ByteOrder::Big);
        let body = match decoded {
            Message::Request { body, .. } => body,
            other => panic!("expected request, got {other:?}"),
        };
        // The body view points into the original frame storage: its bytes
        // occupy the frame's tail at the same address.
        assert_eq!(&body[..], &frame[frame.len() - body.len()..]);
        assert_eq!(
            body.as_ref().as_ptr(),
            frame[frame.len() - body.len()..].as_ptr()
        );
    }

    #[test]
    fn join_and_split_round_trip() {
        let m1 = sample_request(false);
        let m2 = Message::CancelRequest { request_id: 99 };
        let m3 = Message::Reply {
            header: ReplyHeader::new(11, crate::message::ReplyStatus::NoException),
            body: Bytes::from_static(b"ok"),
        };
        let frames = vec![
            encode_message(&m1, GiopVersion::STANDARD, ByteOrder::Big).unwrap(),
            encode_message(&m2, GiopVersion::STANDARD, ByteOrder::Little).unwrap(),
            encode_message(&m3, GiopVersion::QOS_EXTENDED, ByteOrder::Big).unwrap(),
        ];
        let batch = join_frames(&frames);
        assert_eq!(batch.len(), frames.iter().map(Bytes::len).sum::<usize>());
        let split: Vec<Bytes> = split_frames(&batch).collect::<Result<_, _>>().unwrap();
        assert_eq!(split, frames);
        let decoded: Vec<Message> = split
            .iter()
            .map(|f| Message::decode_frame(f).unwrap().0)
            .collect();
        assert_eq!(decoded, vec![m1, m2, m3]);
    }

    #[test]
    fn join_frames_degenerate_cases() {
        assert!(join_frames(&[]).is_empty());
        let solo = encode_message(
            &Message::CancelRequest { request_id: 7 },
            GiopVersion::STANDARD,
            ByteOrder::Big,
        )
        .unwrap();
        let joined = join_frames(std::slice::from_ref(&solo));
        // Single-frame joins share storage with the input — no copy.
        assert_eq!(joined.as_ref().as_ptr(), solo.as_ref().as_ptr());
        assert_eq!(joined, solo);
    }

    #[test]
    fn split_frames_hands_a_lone_frame_over_and_still_splits_a_batch() {
        let f1 = encode_message(
            &Message::CancelRequest { request_id: 1 },
            GiopVersion::STANDARD,
            ByteOrder::Big,
        )
        .unwrap();
        let f2 = encode_message(
            &sample_request(false),
            GiopVersion::STANDARD,
            ByteOrder::Big,
        )
        .unwrap();

        let mut lone = split_frames(&f2);
        let frame = lone.next().unwrap().unwrap();
        assert_eq!((frame.as_ptr(), frame.len()), (f2.as_ptr(), f2.len()));
        assert!(lone.next().is_none());

        let batch = join_frames(&[f1.clone(), f2.clone()]);
        let split: Vec<Bytes> = split_frames(&batch).map(Result::unwrap).collect();
        assert_eq!(split, [f1.clone(), f2]);
        assert_eq!(split[0].as_ptr(), batch.as_ptr());
        assert_eq!(split[1].as_ptr(), batch[f1.len()..].as_ptr());
    }

    #[test]
    fn a_body_that_ends_inside_padding_is_an_error_not_a_panic() {
        // A request body of contexts (4), id (4), response flag and padding
        // (4), key length (4) and a 1-byte key stops at offset 17, where
        // the operation's length wants padding up to 20.
        let msg = Message::Request {
            header: RequestHeader::builder(1, b"k".to_vec(), "op").build(),
            body: Bytes::new(),
        };
        let frame = encode_message(&msg, GiopVersion::STANDARD, ByteOrder::Big).unwrap();
        let mut cut = frame[..HEADER_LEN + 17].to_vec();
        cut[8..12].copy_from_slice(&17u32.to_be_bytes());
        assert!(matches!(
            Message::decode_frame(&Bytes::from(cut)),
            Err(GiopError::Underflow { .. })
        ));
    }

    #[test]
    fn split_frames_reports_truncated_tail() {
        let f1 = encode_message(
            &Message::CancelRequest { request_id: 1 },
            GiopVersion::STANDARD,
            ByteOrder::Big,
        )
        .unwrap();
        let f2 = encode_message(
            &sample_request(false),
            GiopVersion::STANDARD,
            ByteOrder::Big,
        )
        .unwrap();
        let mut joined = join_frames(&[f1.clone(), f2]).to_vec();
        joined.truncate(joined.len() - 3); // clip the final frame
        let batch = Bytes::from(joined);
        let mut iter = split_frames(&batch);
        assert_eq!(iter.next().unwrap().unwrap(), f1);
        assert!(matches!(
            iter.next(),
            Some(Err(GiopError::SizeMismatch { .. }))
        ));
        assert!(iter.next().is_none()); // poisoned after first error
    }
}
