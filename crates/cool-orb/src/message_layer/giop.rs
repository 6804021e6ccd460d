//! The GIOP half of the message layer: Request/Reply construction and
//! interpretation, inbound frames as protocol-neutral events, plus the QoS
//! reply service context.
//!
//! The paper returns results *"within a standard Reply message with the
//! requested QoS"* — the concrete granted values ride back in a service
//! context entry (id [`QOS_CONTEXT_ID`]) so the client learns its granted
//! operating point without any change to the Reply header format.

use super::{Event, InboundReply, InboundRequest, ReplyFormat};
use crate::error::{OrbError, QOS_NACK_REPO_ID};
use bytes::Bytes;
use cool_giop::prelude::*;
use multe_qos::{GrantedQoS, QosError, Reliability};

/// Service context id carrying granted QoS values in Replies (`"QOS\0"`).
pub const QOS_CONTEXT_ID: u32 = 0x514F_5300;

/// Builds the Request frame for an invocation, optionally attaching the
/// distributed-trace service context (see `cool_giop::trace`).
///
/// # Errors
///
/// [`OrbError::Marshal`] if encoding fails.
#[allow(clippy::too_many_arguments)]
pub fn make_request(
    request_id: u32,
    object_key: &[u8],
    operation: &str,
    args: Bytes,
    qos_params: Vec<QoSParameter>,
    response_expected: bool,
    trace: Option<&RequestTraceContext>,
    order: ByteOrder,
) -> Result<Bytes, OrbError> {
    let version = if qos_params.is_empty() {
        GiopVersion::STANDARD
    } else {
        GiopVersion::QOS_EXTENDED
    };
    let mut builder = RequestHeader::builder(request_id, object_key.to_vec(), operation)
        .response_expected(response_expected)
        .qos_params(qos_params);
    if let Some(trace) = trace {
        builder = builder.service_context([trace.to_service_context()].into_iter().collect());
    }
    let msg = Message::Request {
        header: builder.build(),
        body: args,
    };
    encode_message(&msg, version, order).map_err(OrbError::from)
}

/// Builds the Reply carrying a dispatch result: the body with the granted
/// QoS and the server half of a distributed trace in service contexts, or
/// the exception the error travels as — the QoS NACK and a servant-raised
/// user exception as `UserException`, everything else as the
/// `SystemException` of the message layer's one error table.
///
/// # Errors
///
/// [`OrbError::Marshal`] if encoding fails.
pub fn make_reply(
    request_id: u32,
    result: Result<(Bytes, GrantedQoS), OrbError>,
    trace: Option<&ReplyTraceContext>,
    version: GiopVersion,
    order: ByteOrder,
) -> Result<Bytes, OrbError> {
    let mut header = ReplyHeader::new(request_id, ReplyStatus::NoException);
    let body = match result {
        Ok((body, granted)) => {
            if !granted.is_best_effort() {
                header
                    .service_context
                    .push(ServiceContext::new(QOS_CONTEXT_ID, encode_granted(&granted)));
            }
            if let Some(trace) = trace {
                header.service_context.push(trace.to_service_context());
            }
            body
        }
        Err(err) => {
            let mut enc = CdrEncoder::new(order);
            header.reply_status = match err {
                // Figure 3-i: "NACK … with the standard CORBA exception
                // mechanism".
                OrbError::QosNotSupported(reason) => {
                    enc.put_string(QOS_NACK_REPO_ID);
                    enc.put_u32(reason.code());
                    enc.put_string(&reason.to_string());
                    ReplyStatus::UserException
                }
                OrbError::UserException { repo_id, body } => {
                    enc.put_string(&repo_id);
                    enc.put_raw(&body);
                    ReplyStatus::UserException
                }
                other => {
                    let (kind, detail) = super::exception_of(&other);
                    enc.put_string(kind);
                    enc.put_string(&detail);
                    ReplyStatus::SystemException
                }
            };
            enc.into_bytes()
        }
    };
    encode_message(&Message::Reply { header, body }, version, order).map_err(OrbError::from)
}

/// Interprets a Reply body according to its status, returning the result
/// body and any granted QoS from the service context.
///
/// # Errors
///
/// Maps exception replies onto the corresponding [`OrbError`].
pub fn interpret_reply(
    header: &ReplyHeader,
    body: &Bytes,
    order: ByteOrder,
) -> Result<(Bytes, Option<GrantedQoS>), OrbError> {
    match header.reply_status {
        ReplyStatus::NoException => {
            let granted = header
                .service_context
                .find(QOS_CONTEXT_ID)
                .and_then(|sc| decode_granted(&sc.context_data));
            Ok((body.clone(), granted))
        }
        ReplyStatus::UserException => {
            let mut dec = CdrDecoder::new(body, order);
            let repo_id = dec.get_string().map_err(OrbError::from)?;
            if repo_id == QOS_NACK_REPO_ID {
                let _code = dec.get_u32().map_err(OrbError::from)?;
                let message = dec.get_string().map_err(OrbError::from)?;
                Err(OrbError::QosNotSupported(QosError::Rejected(message)))
            } else {
                Err(OrbError::UserException {
                    repo_id,
                    body: dec.get_rest().to_vec(),
                })
            }
        }
        ReplyStatus::SystemException => {
            let mut dec = CdrDecoder::new(body, order);
            let kind = dec.get_string().map_err(OrbError::from)?;
            let detail = dec.get_string().map_err(OrbError::from)?;
            Err(super::error_of(&kind, detail))
        }
        ReplyStatus::LocationForward => {
            Err(OrbError::Protocol("unexpected location forward".into()))
        }
    }
}

/// A message that is all header — `CancelRequest`, `CloseConnection`,
/// `MessageError` — as a big-endian GIOP 1.0 frame.
pub(super) fn bodyless(msg: &Message) -> Option<Bytes> {
    encode_message(msg, GiopVersion::STANDARD, ByteOrder::Big).ok()
}

/// What one GIOP frame of an inbound batch means.
pub(super) fn event(frame: Result<Bytes, GiopError>) -> Event {
    let Ok((msg, version, order)) = frame.and_then(|f| Message::decode_frame(&f)) else {
        return Event::Malformed;
    };
    let reply_format = ReplyFormat::Giop { version, order };
    match msg {
        Message::Request { header, body } => Event::Request(InboundRequest {
            request_id: header.request_id,
            trace: RequestTraceContext::from_list(&header.service_context),
            object_key: header.object_key,
            operation: header.operation,
            args: body,
            qos_params: header.qos_params,
            one_way: !header.response_expected,
            reply_format,
        }),
        Message::CancelRequest { request_id } => Event::Cancel(request_id),
        Message::LocateRequest(h) => Event::Locate {
            request_id: h.request_id,
            object_key: h.object_key,
            reply_format,
        },
        Message::Reply { header, body } => Event::Reply {
            request_id: header.request_id,
            trace: ReplyTraceContext::from_list(&header.service_context),
            reply: InboundReply::Giop(header, body, order),
        },
        Message::CloseConnection => Event::Closing,
        Message::MessageError | Message::LocateReply(_) => Event::Unexpected,
    }
}

/// Encodes granted QoS values for the reply service context.
///
/// Layout: 6 optional fields, each `present (1 byte)` + `u32 BE value`.
pub fn encode_granted(granted: &GrantedQoS) -> Vec<u8> {
    let mut buf = Vec::with_capacity(30);
    let fields: [Option<u32>; 6] = [
        granted.throughput_bps(),
        granted.latency_us(),
        granted.jitter_us(),
        granted.reliability().map(|r| r.level()),
        granted.ordered().map(|b| b as u32),
        granted.encrypted().map(|b| b as u32),
    ];
    for field in fields {
        match field {
            Some(v) => {
                buf.push(1);
                buf.extend_from_slice(&v.to_be_bytes());
            }
            None => buf.push(0),
        }
    }
    buf
}

/// Decodes a granted-QoS service context; `None` on malformed data.
pub fn decode_granted(buf: &[u8]) -> Option<GrantedQoS> {
    let mut granted = GrantedQoS::best_effort();
    let mut pos = 0usize;
    let mut read = |buf: &[u8]| -> Option<Option<u32>> {
        if pos >= buf.len() {
            return None;
        }
        let present = buf[pos];
        pos += 1;
        if present == 0 {
            Some(None)
        } else {
            if pos + 4 > buf.len() {
                return None;
            }
            let v = u32::from_be_bytes(buf[pos..pos + 4].try_into().ok()?);
            pos += 4;
            Some(Some(v))
        }
    };
    if let Some(v) = read(buf)? {
        granted.set_throughput(v);
    }
    if let Some(v) = read(buf)? {
        granted.set_latency(v);
    }
    if let Some(v) = read(buf)? {
        granted.set_jitter(v);
    }
    if let Some(v) = read(buf)? {
        granted.set_reliability(Reliability::from_level(v));
    }
    if let Some(v) = read(buf)? {
        granted.set_ordered(v != 0);
    }
    if let Some(v) = read(buf)? {
        granted.set_encrypted(v != 0);
    }
    Some(granted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use multe_qos::{QoSSpec, ServerPolicy};

    fn sample_granted() -> GrantedQoS {
        let spec = QoSSpec::builder()
            .throughput_bps(1_000_000, 0, i32::MAX)
            .reliability(Reliability::Checked)
            .ordered(true)
            .build();
        ServerPolicy::permissive().negotiate(&spec).unwrap()
    }

    #[test]
    fn granted_round_trip() {
        let g = sample_granted();
        assert_eq!(decode_granted(&encode_granted(&g)), Some(g));
        let empty = GrantedQoS::best_effort();
        assert_eq!(decode_granted(&encode_granted(&empty)), Some(empty));
    }

    #[test]
    fn decode_granted_rejects_truncation() {
        let g = sample_granted();
        let buf = encode_granted(&g);
        assert!(decode_granted(&buf[..buf.len() - 1]).is_none());
        assert!(decode_granted(&[]).is_none());
    }

    #[test]
    fn request_and_reply_frames_round_trip() {
        let frame = make_request(
            7,
            b"obj",
            "op",
            Bytes::from_static(b"args"),
            vec![],
            true,
            None,
            ByteOrder::Big,
        )
        .unwrap();
        let (msg, version, _) = cool_giop::codec::decode_message_ext(&frame).unwrap();
        assert_eq!(version, GiopVersion::STANDARD);
        match msg {
            Message::Request { header, body } => {
                assert_eq!(header.request_id, 7);
                assert_eq!(header.operation, "op");
                assert_eq!(&body[..], b"args");
            }
            other => panic!("unexpected {other:?}"),
        }

        let granted = sample_granted();
        let reply = make_reply(
            7,
            Ok((Bytes::from_static(b"result"), granted.clone())),
            None,
            GiopVersion::STANDARD,
            ByteOrder::Big,
        )
        .unwrap();
        let (msg, _, order) = cool_giop::codec::decode_message_ext(&reply).unwrap();
        match msg {
            Message::Reply { header, body } => {
                let (out, g) = interpret_reply(&header, &body, order).unwrap();
                assert_eq!(&out[..], b"result");
                assert_eq!(g, Some(granted));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn qos_request_uses_version_9_9() {
        let qos = vec![QoSParameter::new(ParamKind::Throughput, 1, 2, 0)];
        let frame =
            make_request(1, b"k", "m", Bytes::new(), qos, true, None, ByteOrder::Little).unwrap();
        let (_, version, _) = cool_giop::codec::decode_message_ext(&frame).unwrap();
        assert_eq!(version, GiopVersion::QOS_EXTENDED);
    }

    #[test]
    fn trace_contexts_ride_request_and_reply() {
        let req_trace = RequestTraceContext {
            trace_id: 99,
            sent_at_ns: 1_000,
            marshal_us: 4,
        };
        let frame = make_request(
            11,
            b"obj",
            "op",
            Bytes::new(),
            vec![],
            true,
            Some(&req_trace),
            ByteOrder::Big,
        )
        .unwrap();
        let (msg, _, _) = cool_giop::codec::decode_message_ext(&frame).unwrap();
        match msg {
            Message::Request { header, .. } => {
                assert_eq!(
                    RequestTraceContext::from_list(&header.service_context),
                    Some(req_trace)
                );
            }
            other => panic!("unexpected {other:?}"),
        }

        let rep_trace = ReplyTraceContext {
            trace_id: 99,
            recv_at_ns: 2_000,
            sent_at_ns: 3_000,
            queue_wait_us: 1,
            negotiate_us: 2,
            execute_us: 3,
        };
        let granted = sample_granted();
        let reply = make_reply(
            11,
            Ok((Bytes::new(), granted.clone())),
            Some(&rep_trace),
            GiopVersion::STANDARD,
            ByteOrder::Big,
        )
        .unwrap();
        let (msg, _, order) = cool_giop::codec::decode_message_ext(&reply).unwrap();
        match msg {
            Message::Reply { header, body } => {
                assert_eq!(
                    ReplyTraceContext::from_list(&header.service_context),
                    Some(rep_trace)
                );
                // The QoS context still decodes next to the trace entry.
                let (_, g) = interpret_reply(&header, &body, order).unwrap();
                assert_eq!(g, Some(granted));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
