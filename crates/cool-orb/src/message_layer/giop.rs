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
/// distributed-trace service context (see `cool_giop::trace`): the header
/// is encoded from the borrowed parts straight into a frame sized for
/// them.
///
/// # Errors
///
/// [`OrbError::Marshal`] if encoding fails.
#[expect(
    clippy::too_many_arguments,
    reason = "the parts of a Request, each borrowed, plus trace and byte order"
)]
#[inline]
pub fn make_request(
    request_id: u32,
    object_key: &[u8],
    operation: &str,
    args: impl AsRef<[u8]>,
    qos_params: impl AsRef<[QoSParameter]>,
    response_expected: bool,
    trace: Option<&RequestTraceContext>,
    order: ByteOrder,
) -> Result<Bytes, OrbError> {
    let (args, qos) = (args.as_ref(), qos_params.as_ref());
    let version = if qos.is_empty() {
        GiopVersion::STANDARD
    } else {
        GiopVersion::QOS_EXTENDED
    };
    let contexts: ServiceContextList = trace
        .map(RequestTraceContext::to_service_context)
        .into_iter()
        .collect();
    let bound = request_header_len_bound(&contexts, object_key, operation, qos, &[]) + args.len();
    new_frame(version, order, MsgType::Request, bound, |enc| {
        encode_request_header(
            enc,
            version,
            &contexts,
            request_id,
            response_expected,
            object_key,
            operation,
            qos,
            &[],
        )?;
        enc.put_raw(args);
        Ok(())
    })
    .map_err(OrbError::from)
}

/// Builds the Reply carrying a dispatch result: the body with the granted
/// QoS and the server half of a distributed trace in service contexts, or
/// the exception the error travels as — the QoS NACK and a servant-raised
/// user exception as `UserException`, everything else as the
/// `SystemException` of the message layer's one error table. The body is
/// written straight into a frame sized for it.
///
/// # Errors
///
/// [`OrbError::Marshal`] if encoding fails.
#[inline]
pub fn make_reply(
    request_id: u32,
    result: Result<(&[u8], &GrantedQoS), &OrbError>,
    trace: Option<&ReplyTraceContext>,
    version: GiopVersion,
    order: ByteOrder,
) -> Result<Bytes, OrbError> {
    let mut header = ReplyHeader::new(request_id, ReplyStatus::NoException);
    let exception;
    let body = match result {
        Ok((body, granted)) => {
            if !granted.is_best_effort() {
                header
                    .service_context
                    .push(ServiceContext::new(QOS_CONTEXT_ID, encode_granted(granted)));
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
                    enc.put_string(repo_id);
                    enc.put_raw(body);
                    ReplyStatus::UserException
                }
                other => {
                    let (kind, detail) = super::exception_of(other);
                    enc.put_string(kind);
                    enc.put_string(&detail);
                    ReplyStatus::SystemException
                }
            };
            exception = enc.into_bytes();
            &exception[..]
        }
    };
    let bound = header.encoded_len_bound() + body.len();
    new_frame(version, order, MsgType::Reply, bound, |enc| {
        header.encode(enc);
        enc.put_raw(body);
        Ok(())
    })
    .map_err(OrbError::from)
}

/// Interprets a Reply body according to its status, returning the result
/// body and any granted QoS from the service context.
///
/// # Errors
///
/// Maps exception replies onto the corresponding [`OrbError`].
#[inline]
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

/// What one decoded GIOP message means.
pub(super) fn event(decoded: Result<(Message, GiopVersion, ByteOrder), GiopError>) -> Event {
    let Ok((msg, version, order)) = decoded else {
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
    use crate::message_layer::{decode_frame, Event};
    use multe_qos::{QoSSpec, ServerPolicy};
    use std::time::Duration;

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
        let (msg, version, _) = Message::decode_frame(&frame).unwrap();
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
            Ok((&b"result"[..], &granted)),
            None,
            GiopVersion::STANDARD,
            ByteOrder::Big,
        )
        .unwrap();
        let (msg, _, order) = Message::decode_frame(&reply).unwrap();
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
        let frame = make_request(
            1,
            b"k",
            "m",
            Bytes::new(),
            qos,
            true,
            None,
            ByteOrder::Little,
        )
        .unwrap();
        let (_, version, _) = Message::decode_frame(&frame).unwrap();
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
        let (msg, _, _) = Message::decode_frame(&frame).unwrap();
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
            Ok((&[][..], &granted)),
            Some(&rep_trace),
            GiopVersion::STANDARD,
            ByteOrder::Big,
        )
        .unwrap();
        let (msg, _, order) = Message::decode_frame(&reply).unwrap();
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

    /// The four-parameter QoS request the benchmark's probes encode.
    fn qos4() -> Vec<QoSParameter> {
        QoSSpec::builder()
            .throughput_bps(1_000_000, 0, i32::MAX)
            .reliability(Reliability::Checked)
            .ordered(true)
            .latency(
                Duration::from_millis(10),
                Duration::ZERO,
                Duration::from_secs(1),
            )
            .build()
            .to_params()
    }

    /// `make_request` encodes from borrowed parts; a `Message::Request`
    /// holding the same parts is the reference. The two are byte-identical
    /// in every row, and the decoded key and operation are the inputs.
    #[test]
    fn make_request_is_byte_identical_to_the_message_path() {
        let trace = RequestTraceContext {
            trace_id: 42,
            sent_at_ns: 7_000,
            marshal_us: 3,
        };
        for order in [ByteOrder::Big, ByteOrder::Little] {
            for qos in [Vec::new(), qos4()] {
                for trace in [None, Some(&trace)] {
                    for key in [&b""[..], b"svc"] {
                        for size in [0, 64, 16 * 1024] {
                            let row = format!(
                                "{order:?}, {} qos, trace {}, key {key:?}, {size} B",
                                qos.len(),
                                trace.is_some()
                            );
                            let args = Bytes::from(vec![0xA5; size]);
                            let frame = make_request(
                                9,
                                key,
                                "render",
                                args.clone(),
                                &qos[..],
                                true,
                                trace,
                                order,
                            )
                            .unwrap();
                            let mut header = RequestHeader::builder(9, key.to_vec(), "render")
                                .qos_params(qos.clone());
                            if let Some(trace) = trace {
                                header = header.service_context(
                                    [trace.to_service_context()].into_iter().collect(),
                                );
                            }
                            let msg = Message::Request {
                                header: header.build(),
                                body: args,
                            };
                            let version = if qos.is_empty() {
                                GiopVersion::STANDARD
                            } else {
                                GiopVersion::QOS_EXTENDED
                            };
                            let reference = encode_message(&msg, version, order).unwrap();
                            assert_eq!(frame, reference, "{row}");
                            let (decoded, _, _) = Message::decode_frame(&frame).unwrap();
                            let Message::Request { header, .. } = &decoded else {
                                panic!("{row}: not a request");
                            };
                            assert_eq!(&header.object_key[..], key, "{row}");
                            assert_eq!(header.operation, "render", "{row}");
                            assert_eq!(decoded, msg, "{row}");
                        }
                    }
                }
            }
        }
    }

    /// `make_reply` writes the result or the exception straight into the
    /// frame; a `Message::Reply` whose body was marshalled on its own is
    /// the reference, for success, QoS NACK, user and system exception.
    #[test]
    fn make_reply_is_byte_identical_to_the_message_path() {
        let granted = sample_granted();
        let trace = ReplyTraceContext {
            trace_id: 42,
            recv_at_ns: 1,
            sent_at_ns: 2,
            queue_wait_us: 3,
            negotiate_us: 4,
            execute_us: 5,
        };
        let nack = QosError::Rejected("too fast".into());
        let nack_error = OrbError::QosNotSupported(nack.clone());
        let user = OrbError::UserException {
            repo_id: "IDL:app/Bad:1.0".into(),
            body: b"why".to_vec(),
        };
        let system = OrbError::ObjectNotFound("ghost".into());
        for version in [GiopVersion::STANDARD, GiopVersion::QOS_EXTENDED] {
            for order in [ByteOrder::Big, ByteOrder::Little] {
                let standalone = |fill: &dyn Fn(&mut CdrEncoder)| {
                    let mut enc = CdrEncoder::new(order);
                    fill(&mut enc);
                    enc.into_bytes()
                };
                // What the dispatch ended in; the reference reply's status
                // and its body, marshalled on its own.
                let rows = [
                    (
                        Ok((&b"result"[..], &granted)),
                        ReplyStatus::NoException,
                        Bytes::from_static(b"result"),
                    ),
                    (
                        Err(&nack_error),
                        ReplyStatus::UserException,
                        standalone(&|enc| {
                            enc.put_string(QOS_NACK_REPO_ID);
                            enc.put_u32(nack.code());
                            enc.put_string(&nack.to_string());
                        }),
                    ),
                    (
                        Err(&user),
                        ReplyStatus::UserException,
                        standalone(&|enc| {
                            enc.put_string("IDL:app/Bad:1.0");
                            enc.put_raw(b"why");
                        }),
                    ),
                    (
                        Err(&system),
                        ReplyStatus::SystemException,
                        standalone(&|enc| {
                            enc.put_string("ObjectNotFound");
                            enc.put_string("ghost");
                        }),
                    ),
                ];
                for (result, status, body) in rows {
                    let row = format!("{version:?} {order:?} {status:?}");
                    let mut header = ReplyHeader::new(3, status);
                    if result.is_ok() {
                        header.service_context.push(ServiceContext::new(
                            QOS_CONTEXT_ID,
                            encode_granted(&granted),
                        ));
                        header.service_context.push(trace.to_service_context());
                    }
                    let frame = make_reply(3, result, Some(&trace), version, order).unwrap();
                    let reference =
                        encode_message(&Message::Reply { header, body }, version, order).unwrap();
                    assert_eq!(frame, reference, "{row}");
                }
            }
        }
    }

    /// A Request whose operation is not a CDR string — invalid UTF-8, or
    /// no nul terminator — is malformed, as it was before the operation
    /// became a view of the frame.
    #[test]
    fn a_request_with_a_bad_operation_is_malformed() {
        let frame = make_request(
            1,
            b"svc",
            "op",
            Bytes::new(),
            Vec::new(),
            true,
            None,
            ByteOrder::Big,
        )
        .unwrap();
        // Header 12, empty contexts 4, id 4, flag 1 + pad 3, key 4 + 3,
        // pad 1, then the operation's length (3) and "op\0".
        let op = 12 + 4 + 4 + 4 + 4 + 3 + 1 + 4;
        assert_eq!(&frame[op..op + 3], b"op\0");
        for (at, byte) in [(op, 0xFF), (op + 2, b'x')] {
            let mut bad = frame.to_vec();
            bad[at] = byte;
            let mut events = Vec::new();
            decode_frame(&Bytes::from(bad), |event| {
                events.push(matches!(event, Event::Malformed));
                true
            });
            assert_eq!(events, vec![true], "byte {at} set to {byte:#x}");
        }
    }
}
