//! GIOP 1.0 (and 9.9) frames written out byte by byte.
//!
//! Each vector is laid out by hand from CORBA 2.0 §12.4 and the paper's
//! Figure 2, not produced by this crate's encoder: the 12-byte header
//! (magic, version, byte-order flag, message type, `message_size` in the
//! message's own order), then the CDR body, every primitive aligned to its
//! size. All alignments here are 4 bytes, and the header is 12 bytes, so
//! an offset counted from the first body byte (the comments' offsets) is
//! aligned exactly when the same offset counted from the magic is.
//!
//! Each vector must come out of `decode_frame` as the events written beside
//! it, alone and batched with all the others in one transport frame.

use super::tests::{events, Seen};
use super::ReplyFormat;
use crate::error::{OrbError, QOS_NACK_REPO_ID};
use bytes::Bytes;
use cool_giop::prelude::*;
use multe_qos::{GrantedQoS, QosError};

const V1_0: GiopVersion = GiopVersion::STANDARD;
const V9_9: GiopVersion = GiopVersion::QOS_EXTENDED;
const BE: ByteOrder = ByteOrder::Big;
const LE: ByteOrder = ByteOrder::Little;

/// Request, 1.0, big-endian: no service context, id 5, a reply expected,
/// an empty key, operation `op`, no principal, arguments `AA BB`. A key of
/// 0 bytes leaves the operation's length aligned as it is.
const REQ_KEY0: &[u8] = &[
    b'G', b'I', b'O', b'P', 1, 0, 0, 0, 0, 0, 0, 30, // Request, 30 body bytes
    0, 0, 0, 0, // 0: service_context, no entry
    0, 0, 0, 5, // 4: request_id
    1, 0, 0, 0, // 8: response_expected, 3 bytes of padding
    0, 0, 0, 0, // 12: object_key, 0 bytes
    0, 0, 0, 3, b'o', b'p', 0, // 16: operation, length counting its NUL
    0, // 23: padding
    0, 0, 0, 0, // 24: requesting_principal, empty
    0xAA, 0xBB, // 28: arguments
];

/// The same with a 1-byte key: 3 bytes of padding before the operation.
const REQ_KEY1: &[u8] = &[
    b'G', b'I', b'O', b'P', 1, 0, 0, 0, 0, 0, 0, 34, //
    0, 0, 0, 0, //
    0, 0, 0, 5, //
    1, 0, 0, 0, //
    0, 0, 0, 1, b'a', // 12: object_key "a"
    0, 0, 0, // 17: padding
    0, 0, 0, 3, b'o', b'p', 0, // 20: operation
    0, // 27: padding
    0, 0, 0, 0, // 28: principal
    0xAA, 0xBB, // 32: arguments
];

/// A 2-byte key: 2 bytes of padding.
const REQ_KEY2: &[u8] = &[
    b'G', b'I', b'O', b'P', 1, 0, 0, 0, 0, 0, 0, 34, //
    0, 0, 0, 0, //
    0, 0, 0, 5, //
    1, 0, 0, 0, //
    0, 0, 0, 2, b'a', b'b', // 12: object_key "ab"
    0, 0, // 18: padding
    0, 0, 0, 3, b'o', b'p', 0, // 20: operation
    0, //
    0, 0, 0, 0, //
    0xAA, 0xBB, //
];

/// A 3-byte key: 1 byte of padding.
const REQ_KEY3: &[u8] = &[
    b'G', b'I', b'O', b'P', 1, 0, 0, 0, 0, 0, 0, 34, //
    0, 0, 0, 0, //
    0, 0, 0, 5, //
    1, 0, 0, 0, //
    0, 0, 0, 3, b'a', b'b', b'c', // 12: object_key "abc"
    0,    // 19: padding
    0, 0, 0, 3, b'o', b'p', 0, // 20: operation
    0, //
    0, 0, 0, 0, //
    0xAA, 0xBB, //
];

/// A 4-byte key: the operation follows it with no padding.
const REQ_KEY4: &[u8] = &[
    b'G', b'I', b'O', b'P', 1, 0, 0, 0, 0, 0, 0, 34, //
    0, 0, 0, 0, //
    0, 0, 0, 5, //
    1, 0, 0, 0, //
    0, 0, 0, 4, b'a', b'b', b'c', b'd', // 12: object_key "abcd"
    0, 0, 0, 3, b'o', b'p', 0, // 20: operation
    0, //
    0, 0, 0, 0, //
    0xAA, 0xBB, //
];

/// The 3-byte-key request little-endian: flag 1, and every `unsigned long`,
/// `message_size` included, least significant byte first.
const REQ_KEY3_LE: &[u8] = &[
    b'G', b'I', b'O', b'P', 1, 0, 1, 0, 34, 0, 0, 0, //
    0, 0, 0, 0, //
    5, 0, 0, 0, //
    1, 0, 0, 0, //
    3, 0, 0, 0, b'a', b'b', b'c', //
    0,    //
    3, 0, 0, 0, b'o', b'p', 0, //
    0, //
    0, 0, 0, 0, //
    0xAA, 0xBB, //
];

/// Request, 1.0, big-endian, carrying the request trace context: id
/// `"TRq\0"`, 21 bytes of data (format 1, then trace id, send stamp and
/// marshal time, big-endian in either byte order).
const REQ_TRACE: &[u8] = &[
    b'G', b'I', b'O', b'P', 1, 0, 0, 0, 0, 0, 0, 72, //
    0, 0, 0, 1, // 0: one service context
    0x54, 0x52, 0x71, 0x00, // 4: context_id
    0, 0, 0, 21, // 8: context_data, 21 bytes
    1,  // 12: format
    1, 2, 3, 4, 5, 6, 7, 8, // 13: trace_id
    0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, // 21: sent_at_ns
    0x21, 0x22, 0x23, 0x24, // 29: marshal_us
    0, 0, 0, // 33: padding
    0, 0, 0, 9, // 36: request_id
    1, 0, 0, 0, // 40: response_expected, padding
    0, 0, 0, 3, b's', b'v', b'c', // 44: object_key "svc"
    0,    // 51: padding
    0, 0, 0, 5, b'e', b'c', b'h', b'o', 0, // 52: operation "echo"
    0, 0, 0, // 61: padding
    0, 0, 0, 0, // 64: principal
    0xDE, 0xAD, 0xBE, 0xEF, // 68: arguments
];

/// Request, 9.9, little-endian, one-way, with two QoS parameters: the
/// `qos_params` sequence lies between the operation and the principal
/// (Figure 2-ii), each parameter four 4-byte fields (type, request, max,
/// min).
const REQ_QOS_LE: &[u8] = &[
    b'G', b'I', b'O', b'P', 9, 9, 1, 0, 78, 0, 0, 0, //
    0, 0, 0, 0, // 0: no service context
    7, 0, 0, 0, // 4: request_id
    0, 0, 0, 0, // 8: no response expected, padding
    1, 0, 0, 0, b'k', // 12: object_key "k"
    0, 0, 0, // 17: padding
    10, 0, 0, 0, b'g', b'e', b't', b'_', b'i', b'm', b'a', b'g', b'e', 0, // 20: operation
    0, 0, // 34: padding
    2, 0, 0, 0, // 36: two parameters
    1, 0, 0, 0, // 40: throughput
    0x40, 0x4B, 0x4C, 0x00, // 44: request 5 000 000
    0x80, 0x96, 0x98, 0x00, // 48: max 10 000 000
    0x40, 0x42, 0x0F, 0x00, // 52: min 1 000 000
    2, 0, 0, 0, // 56: latency
    100, 0, 0, 0, // 60: request 100
    0xE8, 0x03, 0, 0, // 64: max 1000
    0, 0, 0, 0, // 68: min 0
    0, 0, 0, 0, // 72: principal
    1, 2, // 76: arguments
];

/// Request, 9.9, big-endian, with no QoS parameter: the sequence is there,
/// a count of 0. No arguments.
const REQ_QOS_EMPTY: &[u8] = &[
    b'G', b'I', b'O', b'P', 9, 9, 0, 0, 0, 0, 0, 32, //
    0, 0, 0, 0, //
    0, 0, 0, 1, // 4: request_id
    1, 0, 0, 0, //
    0, 0, 0, 0, // 12: empty key
    0, 0, 0, 2, b'm', 0, // 16: operation "m"
    0, 0, // 22: padding
    0, 0, 0, 0, // 24: qos_params, none
    0, 0, 0, 0, // 28: principal
];

/// Reply, 1.0, big-endian, `NO_EXCEPTION`, the result `"ok"`.
const REPLY_OK: &[u8] = &[
    b'G', b'I', b'O', b'P', 1, 0, 0, 1, 0, 0, 0, 14, //
    0, 0, 0, 0, // 0: no service context
    0, 0, 0, 11, // 4: request_id
    0, 0, 0, 0, // 8: NO_EXCEPTION
    b'o', b'k', // 12: result
];

/// Reply, 1.0, little-endian, `NO_EXCEPTION`, with the granted-QoS context
/// (id `"QOS\0"`, 0x514F5300): six fields, each a presence octet and, when
/// present, a big-endian value; here a throughput of 64 000 alone.
const REPLY_GRANTED_LE: &[u8] = &[
    b'G', b'I', b'O', b'P', 1, 0, 1, 1, 34, 0, 0, 0, //
    1, 0, 0, 0, // 0: one service context
    0x00, 0x53, 0x4F, 0x51, // 4: context_id
    10, 0, 0, 0, // 8: context_data, 10 bytes
    1, 0x00, 0x00, 0xFA, 0x00, // 12: throughput 64 000
    0, 0, 0, 0, 0, // 17: latency, jitter, reliability, ordered, encrypted
    0, 0, // 22: padding
    11, 0, 0, 0, // 24: request_id
    0, 0, 0, 0, // 28: NO_EXCEPTION
    b'o', b'k', // 32: result
];

/// Reply, 1.0, big-endian, `NO_EXCEPTION`, echoing the reply trace context
/// (id `"TRp\0"`, 37 bytes: format 1, trace id, receive and send stamps,
/// queue wait, negotiation and execution times).
const REPLY_TRACE: &[u8] = &[
    b'G', b'I', b'O', b'P', 1, 0, 0, 1, 0, 0, 0, 61, //
    0, 0, 0, 1, // 0: one service context
    0x54, 0x52, 0x70, 0x00, // 4: context_id
    0, 0, 0, 37, // 8: context_data, 37 bytes
    1,  // 12: format
    1, 2, 3, 4, 5, 6, 7, 8, // 13: trace_id
    0, 0, 0, 0, 0, 0, 0x10, 0x00, // 21: recv_at_ns
    0, 0, 0, 0, 0, 0, 0x20, 0x00, // 29: sent_at_ns
    0, 0, 0, 3, // 37: queue_wait_us
    0, 0, 0, 4, // 41: negotiate_us
    0, 0, 0, 5, // 45: execute_us
    0, 0, 0, // 49: padding
    0, 0, 0, 9, // 52: request_id
    0, 0, 0, 0,    // 56: NO_EXCEPTION
    b'!', // 60: result
];

/// Reply, 1.0, big-endian, `USER_EXCEPTION`: the exception's repository id,
/// then its members.
const REPLY_USER: &[u8] = &[
    b'G', b'I', b'O', b'P', 1, 0, 0, 1, 0, 0, 0, 35, //
    0, 0, 0, 0, //
    0, 0, 0, 12, // 4: request_id
    0, 0, 0, 1, // 8: USER_EXCEPTION
    0, 0, 0, 16, // 12: repository id, 16 bytes with its NUL
    b'I', b'D', b'L', b':', b'a', b'p', b'p', b'/', b'B', b'a', b'd', b':', b'1', b'.', b'0', 0,
    b'w', b'h', b'y', // 32: members
];

/// The same user exception, little-endian.
const REPLY_USER_LE: &[u8] = &[
    b'G', b'I', b'O', b'P', 1, 0, 1, 1, 35, 0, 0, 0, //
    0, 0, 0, 0, //
    12, 0, 0, 0, //
    1, 0, 0, 0, //
    16, 0, 0, 0, //
    b'I', b'D', b'L', b':', b'a', b'p', b'p', b'/', b'B', b'a', b'd', b':', b'1', b'.', b'0', 0,
    b'w', b'h', b'y', //
];

/// Reply, 1.0, big-endian: the paper's QoS NACK, a `USER_EXCEPTION` whose
/// members are a reason code and a message (Figure 3-i).
const REPLY_NACK: &[u8] = &[
    b'G', b'I', b'O', b'P', 1, 0, 0, 1, 0, 0, 0, 69, //
    0, 0, 0, 0, //
    0, 0, 0, 14, // 4: request_id
    0, 0, 0, 1, // 8: USER_EXCEPTION
    0, 0, 0, 30, // 12: "IDL:multe/QosNotSupported:1.0", 30 bytes with its NUL
    b'I', b'D', b'L', b':', b'm', b'u', b'l', b't', b'e', b'/', b'Q', b'o', b's', b'N', b'o', b't',
    b'S', b'u', b'p', b'p', b'o', b'r', b't', b'e', b'd', b':', b'1', b'.', b'0', 0, 0,
    0, // 46: padding
    0, 0, 0, 4, // 48: reason code
    0, 0, 0, 13, // 52: message, 13 bytes with its NUL
    b'n', b'o', b' ', b'b', b'a', b'n', b'd', b'w', b'i', b'd', b't', b'h', 0,
];

/// Reply, 1.0, big-endian, `SYSTEM_EXCEPTION`: kind and detail, two
/// strings, the second aligned.
const REPLY_SYSTEM: &[u8] = &[
    b'G', b'I', b'O', b'P', 1, 0, 0, 1, 0, 0, 0, 42, //
    0, 0, 0, 0, //
    0, 0, 0, 13, // 4: request_id
    0, 0, 0, 2, // 8: SYSTEM_EXCEPTION
    0, 0, 0, 15, // 12: "ObjectNotFound", 15 bytes with its NUL
    b'O', b'b', b'j', b'e', b'c', b't', b'N', b'o', b't', b'F', b'o', b'u', b'n', b'd', 0,
    0, // 31: padding
    0, 0, 0, 6, b'g', b'h', b'o', b's', b't', 0, // 32: "ghost"
];

/// The same system exception under 9.9, little-endian.
const REPLY_SYSTEM_LE: &[u8] = &[
    b'G', b'I', b'O', b'P', 9, 9, 1, 1, 42, 0, 0, 0, //
    0, 0, 0, 0, //
    13, 0, 0, 0, //
    2, 0, 0, 0, //
    15, 0, 0, 0, //
    b'O', b'b', b'j', b'e', b'c', b't', b'N', b'o', b't', b'F', b'o', b'u', b'n', b'd', 0,
    0, //
    6, 0, 0, 0, b'g', b'h', b'o', b's', b't', 0, //
];

/// CancelRequest for request 42.
const CANCEL: &[u8] = &[
    b'G', b'I', b'O', b'P', 1, 0, 0, 2, 0, 0, 0, 4, //
    0, 0, 0, 42, //
];
const CANCEL_LE: &[u8] = &[
    b'G', b'I', b'O', b'P', 1, 0, 1, 2, 4, 0, 0, 0, //
    42, 0, 0, 0, //
];

/// LocateRequest 43 for the key `"k1"`.
const LOCATE: &[u8] = &[
    b'G', b'I', b'O', b'P', 1, 0, 0, 3, 0, 0, 0, 10, //
    0, 0, 0, 43, //
    0, 0, 0, 2, b'k', b'1', //
];
const LOCATE_LE: &[u8] = &[
    b'G', b'I', b'O', b'P', 1, 0, 1, 3, 10, 0, 0, 0, //
    43, 0, 0, 0, //
    2, 0, 0, 0, b'k', b'1', //
];

/// LocateReply 43: `OBJECT_HERE` big-endian, `OBJECT_FORWARD` little-endian.
const LOCATE_REPLY: &[u8] = &[
    b'G', b'I', b'O', b'P', 1, 0, 0, 4, 0, 0, 0, 8, //
    0, 0, 0, 43, //
    0, 0, 0, 1, //
];
const LOCATE_REPLY_LE: &[u8] = &[
    b'G', b'I', b'O', b'P', 1, 0, 1, 4, 8, 0, 0, 0, //
    43, 0, 0, 0, //
    2, 0, 0, 0, //
];

/// The two messages that are all header.
const CLOSE: &[u8] = &[b'G', b'I', b'O', b'P', 1, 0, 0, 5, 0, 0, 0, 0];
const CLOSE_LE: &[u8] = &[b'G', b'I', b'O', b'P', 1, 0, 1, 5, 0, 0, 0, 0];
const ERROR: &[u8] = &[b'G', b'I', b'O', b'P', 1, 0, 0, 6, 0, 0, 0, 0];
const ERROR_LE: &[u8] = &[b'G', b'I', b'O', b'P', 9, 9, 1, 6, 0, 0, 0, 0];

fn giop(version: GiopVersion, order: ByteOrder) -> String {
    format!("{:?}", ReplyFormat::Giop { version, order })
}

/// The `op` request of [`REQ_KEY0`] and its siblings, with `key`.
fn op_request(key: &[u8], order: ByteOrder) -> Seen {
    Seen::Request {
        id: 5,
        key: key.to_vec(),
        op: "op".into(),
        args: vec![0xAA, 0xBB],
        qos: Vec::new(),
        one_way: false,
        trace: None,
        format: giop(V1_0, order),
    }
}

fn ok(id: u32, body: &[u8], granted: Option<GrantedQoS>) -> Seen {
    Seen::Reply {
        id,
        trace: None,
        result: Ok((body.to_vec(), granted)),
    }
}

fn failed(id: u32, err: OrbError) -> Seen {
    Seen::Reply {
        id,
        trace: None,
        result: Err(format!("{err:?}")),
    }
}

/// Every vector with the one event it stands for.
fn vectors() -> Vec<(&'static [u8], Seen)> {
    let mut granted = GrantedQoS::best_effort();
    granted.set_throughput(64_000);
    let user = || OrbError::UserException {
        repo_id: "IDL:app/Bad:1.0".into(),
        body: b"why".to_vec(),
    };
    let missing = || OrbError::ObjectNotFound("ghost".into());
    assert_eq!(&REPLY_NACK[28..57], QOS_NACK_REPO_ID.as_bytes());
    let nack = OrbError::QosNotSupported(QosError::Rejected("no bandwidth".into()));
    let locate = |order| Seen::Locate {
        id: 43,
        key: b"k1".to_vec(),
        format: giop(V1_0, order),
    };
    vec![
        (REQ_KEY0, op_request(b"", BE)),
        (REQ_KEY1, op_request(b"a", BE)),
        (REQ_KEY2, op_request(b"ab", BE)),
        (REQ_KEY3, op_request(b"abc", BE)),
        (REQ_KEY4, op_request(b"abcd", BE)),
        (REQ_KEY3_LE, op_request(b"abc", LE)),
        (
            REQ_TRACE,
            Seen::Request {
                id: 9,
                key: b"svc".to_vec(),
                op: "echo".into(),
                args: vec![0xDE, 0xAD, 0xBE, 0xEF],
                qos: Vec::new(),
                one_way: false,
                trace: Some(RequestTraceContext {
                    trace_id: 0x0102_0304_0506_0708,
                    sent_at_ns: 0x1112_1314_1516_1718,
                    marshal_us: 0x2122_2324,
                }),
                format: giop(V1_0, BE),
            },
        ),
        (
            REQ_QOS_LE,
            Seen::Request {
                id: 7,
                key: b"k".to_vec(),
                op: "get_image".into(),
                args: vec![1, 2],
                qos: vec![
                    QoSParameter::new(ParamKind::Throughput, 5_000_000, 10_000_000, 1_000_000),
                    QoSParameter::new(ParamKind::Latency, 100, 1000, 0),
                ],
                one_way: true,
                trace: None,
                format: giop(V9_9, LE),
            },
        ),
        (
            REQ_QOS_EMPTY,
            Seen::Request {
                id: 1,
                key: Vec::new(),
                op: "m".into(),
                args: Vec::new(),
                qos: Vec::new(),
                one_way: false,
                trace: None,
                format: giop(V9_9, BE),
            },
        ),
        (REPLY_OK, ok(11, b"ok", None)),
        (REPLY_GRANTED_LE, ok(11, b"ok", Some(granted))),
        (
            REPLY_TRACE,
            Seen::Reply {
                id: 9,
                trace: Some(ReplyTraceContext {
                    trace_id: 0x0102_0304_0506_0708,
                    recv_at_ns: 0x1000,
                    sent_at_ns: 0x2000,
                    queue_wait_us: 3,
                    negotiate_us: 4,
                    execute_us: 5,
                }),
                result: Ok((b"!".to_vec(), None)),
            },
        ),
        (REPLY_USER, failed(12, user())),
        (REPLY_USER_LE, failed(12, user())),
        (REPLY_NACK, failed(14, nack)),
        (REPLY_SYSTEM, failed(13, missing())),
        (REPLY_SYSTEM_LE, failed(13, missing())),
        (CANCEL, Seen::Cancel(42)),
        (CANCEL_LE, Seen::Cancel(42)),
        (LOCATE, locate(BE)),
        (LOCATE_LE, locate(LE)),
        (LOCATE_REPLY, Seen::Unexpected),
        (LOCATE_REPLY_LE, Seen::Unexpected),
        (CLOSE, Seen::Closing),
        (CLOSE_LE, Seen::Closing),
        (ERROR, Seen::Unexpected),
        (ERROR_LE, Seen::Unexpected),
    ]
}

/// Each vector's header announces the body it carries, and the vector
/// decodes, alone in its transport frame, to exactly its event.
#[test]
fn each_hand_written_frame_is_its_event() {
    for (bytes, expected) in vectors() {
        let size: [u8; 4] = bytes[8..12].try_into().unwrap();
        let size = match bytes[6] {
            0 => u32::from_be_bytes(size),
            _ => u32::from_le_bytes(size),
        };
        assert_eq!(size as usize, bytes.len() - 12, "{expected:?}");
        let frame = Bytes::from_static(bytes);
        assert_eq!(events(&frame), vec![expected]);
    }
}

/// All the vectors in one transport frame, and each adjacent pair: the
/// same events, in wire order, as the frames one by one.
#[test]
fn batched_frames_are_the_same_events() {
    let all = vectors();
    let batch: Vec<u8> = all.iter().flat_map(|(bytes, _)| bytes.to_vec()).collect();
    let expected: Vec<Seen> = all.into_iter().map(|(_, seen)| seen).collect();
    assert_eq!(events(&Bytes::from(batch)), expected);

    for pair in vectors().windows(2) {
        let frame = Bytes::from([pair[0].0, pair[1].0].concat());
        let lone: Vec<Seen> = pair
            .iter()
            .flat_map(|(bytes, _)| events(&Bytes::from_static(bytes)))
            .collect();
        assert_eq!(events(&frame), lone);
    }
}
