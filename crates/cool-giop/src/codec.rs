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
//! * [`Message::encode_into`] / [`Message::decode_frame`] — the zero-copy
//!   path: encode appends header + CDR body to one caller-owned buffer
//!   (size patched in place, no body copy); decode returns `Bytes`-slice
//!   views into the shared frame instead of fresh `Vec<u8>`s,
//! * [`encode_message`] / [`decode_message`] for whole in-memory frames
//!   (thin wrappers over the above),
//! * [`join_frames`] / [`split_frames`] — several messages in one transport
//!   frame: GIOP frames are self-delimiting, so a receiver can always split
//!   them,
//! * [`MessageReader`] for incremental decoding from a byte stream
//!   (TCP-like transports deliver arbitrary chunks),
//! * [`read_message`] / [`write_message`] blocking helpers over
//!   [`std::io::Read`]/[`std::io::Write`].

use crate::cdr::{ByteOrder, CdrDecode, CdrDecoder, CdrEncode, CdrEncoder};
use crate::error::GiopError;
use crate::message::{
    LocateReplyHeader, LocateRequestHeader, Message, MsgType, ReplyHeader, RequestHeader,
};
use crate::version::GiopVersion;
use bytes::{BufMut, Bytes, BytesMut};
use cool_telemetry::allocs::record_buffer_alloc;
use std::io::{Read, Write};

/// The 4-byte GIOP magic.
pub const MAGIC: [u8; 4] = *b"GIOP";

/// Size of the fixed GIOP header.
pub const HEADER_LEN: usize = 12;

/// Upper bound on `message_size` the reader will accept (guards allocation
/// against corrupt streams); generous for 64 KiB experiment payloads.
pub const MAX_MESSAGE_SIZE: u32 = 256 * 1024 * 1024;

impl Message {
    /// Appends this message as one complete wire frame to `buf`: the
    /// 12-byte GIOP header and the CDR body are written into the same
    /// buffer, with `message_size` patched in place once the body length
    /// is known. This is the single-encode path — no intermediate body
    /// buffer, no copy. On error `buf` is rolled back to its prior length.
    ///
    /// # Errors
    ///
    /// [`GiopError::QosOnStandardGiop`] if a Request carries QoS
    /// parameters but `version` is GIOP 1.0.
    pub fn encode_into(
        &self,
        version: GiopVersion,
        order: ByteOrder,
        buf: &mut BytesMut,
    ) -> Result<(), GiopError> {
        let start = buf.len();
        buf.put_slice(&MAGIC);
        buf.put_slice(&[version.major, version.minor, order.flag(), self.msg_type().code()]);
        buf.put_slice(&[0u8; 4]); // message_size, patched below
        // Hand the buffer to the CDR encoder; its base offset makes body
        // alignment identical to a standalone encapsulation.
        let mut enc = CdrEncoder::append_to(std::mem::take(buf), order);
        let encoded = (|| {
            match self {
                Message::Request { header, body } => {
                    header.encode(&mut enc, version)?;
                    enc.put_raw(body);
                }
                Message::Reply { header, body } => {
                    header.encode(&mut enc);
                    enc.put_raw(body);
                }
                Message::CancelRequest { request_id } => enc.put_u32(*request_id),
                Message::LocateRequest(h) => h.encode(&mut enc),
                Message::LocateReply(h) => h.encode(&mut enc),
                Message::CloseConnection | Message::MessageError => {}
            }
            Ok(())
        })();
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

    /// Decodes one complete frame held in shared storage, returning the
    /// message together with the version and byte order it was marshalled
    /// under. Request/Reply bodies come back as `Bytes` views into
    /// `frame` — no copy.
    ///
    /// # Errors
    ///
    /// Any [`GiopError`] describing the malformation; notably
    /// [`GiopError::SizeMismatch`] if the buffer length disagrees with the
    /// header's `message_size`.
    pub fn decode_frame(frame: &Bytes) -> Result<(Message, GiopVersion, ByteOrder), GiopError> {
        let header = parse_header(frame)?;
        let body = &frame[HEADER_LEN..];
        if body.len() != header.message_size as usize {
            return Err(GiopError::SizeMismatch {
                announced: header.message_size as usize,
                actual: body.len(),
            });
        }
        let msg = decode_body_with(header, body, |pos| frame.slice(HEADER_LEN + pos..))?;
        Ok((msg, header.version, header.order))
    }
}

/// Encodes a complete message into a wire frame (legacy contiguous API: a
/// fresh buffer per frame). Thin wrapper over [`Message::encode_into`].
///
/// # Errors
///
/// [`GiopError::QosOnStandardGiop`] if a Request carries QoS parameters but
/// `version` is GIOP 1.0.
pub fn encode_message(
    msg: &Message,
    version: GiopVersion,
    order: ByteOrder,
) -> Result<Bytes, GiopError> {
    record_buffer_alloc();
    let mut frame = BytesMut::with_capacity(HEADER_LEN + 64);
    msg.encode_into(version, order, &mut frame)?;
    Ok(frame.freeze())
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

/// Decodes a frame body. `rest` materialises the undecoded tail of the
/// body (operation parameters / results) given its body-relative offset —
/// a shared-storage slice on the zero-copy paths, a copy on the legacy
/// slice-only paths.
// lint: allow(A003, shared decode core for decode_message/decode_frame; its encode counterpart is Message::encode_into)
fn decode_body_with(
    header: FrameHeader,
    body: &[u8],
    rest: impl FnOnce(usize) -> Bytes,
) -> Result<Message, GiopError> {
    let mut dec = CdrDecoder::new(body, header.order);
    Ok(match header.msg_type {
        MsgType::Request => {
            let req = RequestHeader::decode(&mut dec, header.version)?;
            Message::Request {
                header: req,
                body: rest(dec.position()),
            }
        }
        MsgType::Reply => {
            let rep = ReplyHeader::decode(&mut dec)?;
            Message::Reply {
                header: rep,
                body: rest(dec.position()),
            }
        }
        MsgType::CancelRequest => Message::CancelRequest {
            request_id: dec.get_u32()?,
        },
        MsgType::LocateRequest => Message::LocateRequest(LocateRequestHeader::decode(&mut dec)?),
        MsgType::LocateReply => Message::LocateReply(LocateReplyHeader::decode(&mut dec)?),
        MsgType::CloseConnection => Message::CloseConnection,
        MsgType::MessageError => Message::MessageError,
    })
}

fn decode_body(header: FrameHeader, body: &[u8]) -> Result<Message, GiopError> {
    decode_body_with(header, body, |pos| {
        record_buffer_alloc();
        Bytes::copy_from_slice(&body[pos..])
    })
}

/// Decodes one complete frame, returning the message together with the
/// version and byte order it was marshalled under.
///
/// # Errors
///
/// Any [`GiopError`] describing the malformation; notably
/// [`GiopError::SizeMismatch`] if the buffer length disagrees with the
/// header's `message_size`.
// lint: allow(A003, asymmetric by design - encoding takes version and order as arguments so only the decode side needs to report them back)
pub fn decode_message_ext(frame: &[u8]) -> Result<(Message, GiopVersion, ByteOrder), GiopError> {
    let header = parse_header(frame)?;
    let body = &frame[HEADER_LEN..];
    if body.len() != header.message_size as usize {
        return Err(GiopError::SizeMismatch {
            announced: header.message_size as usize,
            actual: body.len(),
        });
    }
    let msg = decode_body(header, body)?;
    Ok((msg, header.version, header.order))
}

/// Decodes one complete frame into a [`Message`].
///
/// # Errors
///
/// See [`decode_message_ext`].
pub fn decode_message(frame: &[u8]) -> Result<Message, GiopError> {
    decode_message_ext(frame).map(|(msg, _, _)| msg)
}

/// Incremental frame decoder for byte-stream transports.
///
/// Feed arbitrary chunks with [`MessageReader::feed`]; complete messages
/// pop out of [`MessageReader::next_message`].
///
/// ```
/// use cool_giop::prelude::*;
///
/// # fn main() -> Result<(), cool_giop::GiopError> {
/// let frame = encode_message(&Message::CloseConnection, GiopVersion::STANDARD, ByteOrder::Big)?;
/// let mut reader = MessageReader::new();
/// // Feed the frame one byte at a time: no message until the last byte.
/// for (i, byte) in frame.iter().enumerate() {
///     reader.feed(&[*byte]);
///     let ready = reader.next_message()?;
///     if i + 1 < frame.len() {
///         assert!(ready.is_none());
///     } else {
///         assert_eq!(ready, Some(Message::CloseConnection));
///     }
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct MessageReader {
    buf: BytesMut,
}

impl MessageReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        MessageReader {
            buf: BytesMut::new(),
        }
    }

    /// Appends raw bytes received from the transport.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Attempts to decode the next complete message.
    ///
    /// Returns `Ok(None)` if more bytes are needed.
    ///
    /// # Errors
    ///
    /// Any [`GiopError`] if the buffered prefix is not a valid frame; the
    /// reader is then poisoned for further use on this stream (GIOP has no
    /// resynchronisation points).
    pub fn next_message(&mut self) -> Result<Option<Message>, GiopError> {
        self.next_message_ext()
            .map(|opt| opt.map(|(msg, _, _)| msg))
    }

    /// Like [`MessageReader::next_message`] but also reports version and
    /// byte order.
    ///
    /// # Errors
    ///
    /// See [`MessageReader::next_message`].
    pub fn next_message_ext(
        &mut self,
    ) -> Result<Option<(Message, GiopVersion, ByteOrder)>, GiopError> {
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let header = parse_header(&self.buf)?;
        let total = HEADER_LEN + header.message_size as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        // Freeze the frame into shared storage so the body view needs no
        // copy; the split moves the buffered prefix, it does not clone it.
        let frame = self.buf.split_to(total).freeze();
        let (msg, version, order) = Message::decode_frame(&frame)?;
        Ok(Some((msg, version, order)))
    }
}

/// Coalesces whole GIOP frames into one transport frame. Zero frames give
/// an empty buffer, a single frame passes through without copying.
///
/// GIOP frames self-delimit (`message_size` in the fixed header), so the
/// receiver needs no extra framing to take the batch apart — see
/// [`split_frames`].
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
pub fn split_frames(batch: &Bytes) -> FrameIter {
    FrameIter {
        // lint: allow(L007, Bytes::clone is a refcount bump, not a copy)
        rest: batch.clone(),
        poisoned: false,
    }
}

/// Iterator over the whole frames of a batched transport frame.
#[derive(Debug)]
pub struct FrameIter {
    rest: Bytes,
    poisoned: bool,
}

impl Iterator for FrameIter {
    type Item = Result<Bytes, GiopError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.poisoned || self.rest.is_empty() {
            return None;
        }
        let header = match parse_header(&self.rest) {
            Ok(h) => h,
            Err(e) => {
                self.poisoned = true;
                return Some(Err(e));
            }
        };
        let total = HEADER_LEN + header.message_size as usize;
        if self.rest.len() < total {
            self.poisoned = true;
            return Some(Err(GiopError::SizeMismatch {
                announced: header.message_size as usize,
                actual: self.rest.len() - HEADER_LEN,
            }));
        }
        Some(Ok(self.rest.split_to(total)))
    }
}

/// Errors from the blocking I/O helpers.
#[derive(Debug)]
pub enum IoCodecError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The stream carried malformed GIOP.
    Giop(GiopError),
}

impl std::fmt::Display for IoCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoCodecError::Io(e) => write!(f, "giop transport i/o error: {e}"),
            IoCodecError::Giop(e) => write!(f, "giop protocol error: {e}"),
        }
    }
}

impl std::error::Error for IoCodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoCodecError::Io(e) => Some(e),
            IoCodecError::Giop(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for IoCodecError {
    fn from(e: std::io::Error) -> Self {
        IoCodecError::Io(e)
    }
}

impl From<GiopError> for IoCodecError {
    fn from(e: GiopError) -> Self {
        IoCodecError::Giop(e)
    }
}

/// Blocking read of exactly one message from a byte stream.
///
/// A mutable reference works as the reader: `read_message(&mut stream)`.
///
/// # Errors
///
/// [`IoCodecError::Io`] for transport failures (including EOF mid-frame),
/// [`IoCodecError::Giop`] for malformed frames.
pub fn read_message<R: Read>(mut r: R) -> Result<(Message, GiopVersion, ByteOrder), IoCodecError> {
    let mut header_buf = [0u8; HEADER_LEN];
    r.read_exact(&mut header_buf)?;
    let header = parse_header(&header_buf)?;
    record_buffer_alloc();
    let mut body = vec![0u8; header.message_size as usize];
    r.read_exact(&mut body)?;
    // Move the freshly read body into shared storage so Request/Reply
    // payload views borrow from it instead of copying again.
    let body = Bytes::from(body);
    let msg = decode_body_with(header, &body, |pos| body.slice(pos..))?;
    Ok((msg, header.version, header.order))
}

/// Blocking write of one message to a byte stream.
///
/// A mutable reference works as the writer: `write_message(&mut stream, …)`.
///
/// # Errors
///
/// [`IoCodecError::Giop`] if the message cannot be marshalled under
/// `version`, [`IoCodecError::Io`] for transport failures.
pub fn write_message<W: Write>(
    mut w: W,
    msg: &Message,
    version: GiopVersion,
    order: ByteOrder,
) -> Result<(), IoCodecError> {
    let frame = encode_message(msg, version, order)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Convenience: marshal a value into a standalone CDR body (used for
/// operation parameters and results).
pub fn encode_body<T: CdrEncode>(value: &T, order: ByteOrder) -> Bytes {
    let mut enc = CdrEncoder::new(order);
    value.encode(&mut enc);
    enc.into_bytes()
}

/// Convenience: unmarshal a value from a standalone CDR body.
///
/// # Errors
///
/// Any [`GiopError`] from malformed input.
// lint: allow(A003, the encode counterpart is `encode_body` - the `_as` suffix only marks the turbofish-friendly decode direction)
pub fn decode_body_as<T: CdrDecode>(body: &[u8], order: ByteOrder) -> Result<T, GiopError> {
    let mut dec = CdrDecoder::new(body, order);
    T::decode(&mut dec)
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
                object_key: b"k".to_vec(),
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
                let (decoded, v, o) = decode_message_ext(&frame).unwrap();
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
        let (decoded, v, _) = decode_message_ext(&frame).unwrap();
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
            decode_message(&frame),
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
            decode_message(&frame),
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
            decode_message(&frame),
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
    fn reader_handles_fragmented_and_coalesced_frames() {
        let m1 = sample_request(false);
        let m2 = Message::CancelRequest { request_id: 99 };
        let f1 = encode_message(&m1, GiopVersion::STANDARD, ByteOrder::Big).unwrap();
        let f2 = encode_message(&m2, GiopVersion::STANDARD, ByteOrder::Little).unwrap();

        let mut combined = f1.to_vec();
        combined.extend_from_slice(&f2);

        let mut reader = MessageReader::new();
        // Feed in three ragged chunks.
        let third = combined.len() / 3;
        reader.feed(&combined[..third]);
        let mut out = Vec::new();
        while let Some(m) = reader.next_message().unwrap() {
            out.push(m);
        }
        reader.feed(&combined[third..2 * third]);
        while let Some(m) = reader.next_message().unwrap() {
            out.push(m);
        }
        reader.feed(&combined[2 * third..]);
        while let Some(m) = reader.next_message().unwrap() {
            out.push(m);
        }
        assert_eq!(out, vec![m1, m2]);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn io_helpers_round_trip_over_a_pipe() {
        let msg = sample_request(true);
        let mut buf = Vec::new();
        write_message(&mut buf, &msg, GiopVersion::QOS_EXTENDED, ByteOrder::Little).unwrap();
        let (decoded, v, o) = read_message(&buf[..]).unwrap();
        assert_eq!(decoded, msg);
        assert_eq!(v, GiopVersion::QOS_EXTENDED);
        assert_eq!(o, ByteOrder::Little);
    }

    #[test]
    fn read_message_reports_truncation_as_io_error() {
        let msg = sample_request(false);
        let frame = encode_message(&msg, GiopVersion::STANDARD, ByteOrder::Big).unwrap();
        let truncated = &frame[..frame.len() - 2];
        assert!(matches!(read_message(truncated), Err(IoCodecError::Io(_))));
    }

    #[test]
    fn body_helpers_round_trip() {
        let body = encode_body(&0xDEAD_BEEFu32, ByteOrder::Big);
        assert_eq!(
            decode_body_as::<u32>(&body, ByteOrder::Big).unwrap(),
            0xDEAD_BEEF
        );
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
                msg.encode_into(GiopVersion::STANDARD, order, &mut buf).unwrap();
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
        msg.encode_into(GiopVersion::STANDARD, ByteOrder::Big, &mut buf).unwrap();
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
        assert_eq!(body.as_ref().as_ptr(), frame[frame.len() - body.len()..].as_ptr());
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
    fn split_frames_reports_truncated_tail() {
        let f1 = encode_message(
            &Message::CancelRequest { request_id: 1 },
            GiopVersion::STANDARD,
            ByteOrder::Big,
        )
        .unwrap();
        let f2 = encode_message(&sample_request(false), GiopVersion::STANDARD, ByteOrder::Big)
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
