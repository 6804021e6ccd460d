//! Property-based tests: CDR and GIOP round-trips over arbitrary values.

use bytes::Bytes;
use cool_giop::prelude::*;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;

/// Counts the bytes each thread asks the allocator for, then defers to the
/// system allocator, so a property can bound what one decode reserves. The
/// count is per thread: tests running beside it do not land in it.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns what it returned with the bytes it allocated.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

fn arb_order() -> impl Strategy<Value = ByteOrder> {
    prop_oneof![Just(ByteOrder::Big), Just(ByteOrder::Little)]
}

fn arb_qos_param() -> impl Strategy<Value = QoSParameter> {
    (any::<u32>(), any::<u32>(), any::<i32>(), any::<i32>()).prop_map(
        |(param_type, request_value, max_value, min_value)| QoSParameter {
            param_type,
            request_value,
            max_value,
            min_value,
        },
    )
}

fn arb_service_context_list() -> impl Strategy<Value = ServiceContextList> {
    proptest::collection::vec(
        (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..32)),
        0..4,
    )
    .prop_map(|entries| {
        entries
            .into_iter()
            .map(|(id, data)| ServiceContext::new(id, data))
            .collect()
    })
}

fn arb_request_header() -> impl Strategy<Value = RequestHeader> {
    (
        arb_service_context_list(),
        any::<u32>(),
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 0..64),
        "[a-zA-Z_][a-zA-Z0-9_]{0,24}",
        proptest::collection::vec(arb_qos_param(), 0..8),
        proptest::collection::vec(any::<u8>(), 0..16),
    )
        .prop_map(|(sc, id, resp, key, op, qos, principal)| RequestHeader {
            service_context: sc,
            request_id: id,
            response_expected: resp,
            object_key: key.into(),
            operation: op.into(),
            qos_params: qos,
            requesting_principal: principal,
        })
}

fn arb_reply_status() -> impl Strategy<Value = ReplyStatus> {
    prop_oneof![
        Just(ReplyStatus::NoException),
        Just(ReplyStatus::UserException),
        Just(ReplyStatus::SystemException),
        Just(ReplyStatus::LocationForward)
    ]
}

fn arb_reply_header() -> impl Strategy<Value = ReplyHeader> {
    (arb_service_context_list(), any::<u32>(), arb_reply_status()).prop_map(
        |(service_context, request_id, reply_status)| ReplyHeader {
            service_context,
            request_id,
            reply_status,
        },
    )
}

fn arb_locate_request() -> impl Strategy<Value = LocateRequestHeader> {
    (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..32)).prop_map(
        |(request_id, object_key)| LocateRequestHeader {
            request_id,
            object_key: object_key.into(),
        },
    )
}

fn arb_locate_reply() -> impl Strategy<Value = LocateReplyHeader> {
    (
        any::<u32>(),
        prop_oneof![
            Just(LocateStatus::UnknownObject),
            Just(LocateStatus::ObjectHere),
            Just(LocateStatus::ObjectForward)
        ],
    )
        .prop_map(|(request_id, locate_status)| LocateReplyHeader {
            request_id,
            locate_status,
        })
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            arb_request_header(),
            proptest::collection::vec(any::<u8>(), 0..128)
        )
            .prop_map(|(header, body)| Message::Request {
                header,
                body: Bytes::from(body)
            }),
        (
            any::<u32>(),
            arb_reply_status(),
            proptest::collection::vec(any::<u8>(), 0..128)
        )
            .prop_map(|(id, status, body)| Message::Reply {
                header: ReplyHeader::new(id, status),
                body: Bytes::from(body),
            }),
        any::<u32>().prop_map(|request_id| Message::CancelRequest { request_id }),
        arb_locate_request().prop_map(Message::LocateRequest),
        arb_locate_reply().prop_map(Message::LocateReply),
        Just(Message::CloseConnection),
        Just(Message::MessageError),
    ]
}

/// Version that can legally carry the message: QoS-bearing Requests demand
/// GIOP 9.9.
fn legal_version(msg: &Message) -> GiopVersion {
    match msg {
        Message::Request { header, .. } if !header.qos_params.is_empty() => {
            GiopVersion::QOS_EXTENDED
        }
        _ => GiopVersion::STANDARD,
    }
}

/// Encodes `value` under both byte orders and decodes it back: the decoder
/// must return the value and consume exactly what the encoder wrote.
fn cdr_round_trip<T: Cdr + PartialEq + Debug>(value: T) {
    for order in [ByteOrder::Big, ByteOrder::Little] {
        let mut enc = CdrEncoder::new(order);
        value.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = CdrDecoder::new(&bytes, order);
        assert_eq!(T::decode(&mut dec).unwrap(), value, "{order:?}");
        assert!(
            dec.is_exhausted(),
            "{order:?}: {} bytes left",
            dec.remaining()
        );
    }
}

proptest! {
    /// Every `Cdr` impl in the crate reads back what it writes, under Big
    /// and Little byte order alike — and so does `LocateRequestHeader`,
    /// whose decode takes the frame its key is a view of.
    #[test]
    fn every_cdr_impl_round_trips_both_orders(
        octet in any::<u8>(),
        flag in any::<bool>(),
        ushort in any::<u16>(),
        ulong in any::<u32>(),
        ulonglong in any::<u64>(),
        short in any::<i16>(),
        long in any::<i32>(),
        longlong in any::<i64>(),
        float in any::<f32>(),
        double in any::<f64>(),
        string in "[a-zA-Z0-9 _é€]{0,24}",
        qos in arb_qos_param(),
        reply in arb_reply_header(),
        locate_request in arb_locate_request(),
        locate_reply in arb_locate_reply(),
        context in (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..32)),
        contexts in arb_service_context_list(),
    ) {
        cdr_round_trip(octet);
        cdr_round_trip(flag);
        cdr_round_trip(ushort);
        cdr_round_trip(ulong);
        cdr_round_trip(ulonglong);
        cdr_round_trip(short);
        cdr_round_trip(long);
        cdr_round_trip(longlong);
        cdr_round_trip(float);
        cdr_round_trip(double);
        cdr_round_trip(string);
        cdr_round_trip(qos);
        cdr_round_trip(reply);
        for order in [ByteOrder::Big, ByteOrder::Little] {
            let mut enc = CdrEncoder::new(order);
            locate_request.encode(&mut enc);
            let bytes = enc.into_bytes();
            let mut dec = CdrDecoder::new(&bytes, order);
            let decoded = LocateRequestHeader::decode(&mut dec, &bytes).unwrap();
            prop_assert_eq!(&decoded, &locate_request);
            prop_assert!(dec.is_exhausted());
        }
        cdr_round_trip(locate_reply);
        cdr_round_trip(ServiceContext::new(context.0, context.1));
        cdr_round_trip(contexts);
    }

    /// Every message round-trips bit-exactly through encode/decode under
    /// both byte orders.
    #[test]
    fn message_round_trip(msg in arb_message(), order in arb_order()) {
        let version = legal_version(&msg);
        let frame = encode_message(&msg, version, order).unwrap();
        let (decoded, v, o) = Message::decode_frame(&frame).unwrap();
        prop_assert_eq!(decoded, msg);
        prop_assert_eq!(v, version);
        prop_assert_eq!(o, order);
    }

    /// QoS-bearing requests also round-trip under GIOP 9.9 regardless of
    /// parameter contents.
    #[test]
    fn qos_request_round_trip(header in arb_request_header(), order in arb_order()) {
        let msg = Message::Request { header, body: Bytes::new() };
        let frame = encode_message(&msg, GiopVersion::QOS_EXTENDED, order).unwrap();
        let (decoded, _, _) = Message::decode_frame(&frame).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    /// A GIOP 9.9 Request carrying a *non-empty* `qos_params` list —
    /// the paper's QoS extension, never expressible in GIOP 1.0 —
    /// round-trips bit-exactly under Big and Little byte order alike,
    /// and the decoder reports back exactly the version and order the
    /// frame was marshalled under.
    #[test]
    fn nonempty_qos_params_round_trip_both_orders(
        header in arb_request_header(),
        qos in proptest::collection::vec(arb_qos_param(), 1..8),
        body in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let header = RequestHeader { qos_params: qos, ..header };
        prop_assert!(!header.qos_params.is_empty());
        let msg = Message::Request { header, body: Bytes::from(body) };
        for order in [ByteOrder::Big, ByteOrder::Little] {
            let frame = encode_message(&msg, GiopVersion::QOS_EXTENDED, order).unwrap();
            let (decoded, v, o) = Message::decode_frame(&frame).unwrap();
            prop_assert_eq!(&decoded, &msg);
            prop_assert_eq!(v, GiopVersion::QOS_EXTENDED);
            prop_assert_eq!(o, order);
        }
    }

    /// Arbitrary byte garbage never panics the decoder — it errors or, by
    /// astronomical luck, parses.
    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::decode_frame(&Bytes::from(bytes));
    }

    /// Arbitrary bytes never panic the batch splitter: every frame it
    /// yields is a sub-slice of the input, in order and without gaps, and
    /// iteration stops after the first error.
    #[test]
    fn split_frames_never_panics_and_stops_at_the_first_error(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        frames in proptest::collection::vec((arb_message(), arb_order()), 0..3),
    ) {
        // Valid frames ahead of the garbage, so the splitter gets past the
        // first header as often as not.
        let mut input = Vec::new();
        for (m, o) in &frames {
            input.extend_from_slice(&encode_message(m, legal_version(m), *o).unwrap());
        }
        let valid = input.len();
        input.extend_from_slice(&bytes);
        let input = Bytes::from(input);
        let (mut offset, mut failed) = (0, false);
        let mut iter = split_frames(&input);
        for item in iter.by_ref() {
            let Ok(frame) = item else {
                failed = true;
                break;
            };
            prop_assert_eq!(frame.as_ptr(), input[offset..].as_ptr());
            prop_assert!(offset + frame.len() <= input.len());
            offset += frame.len();
        }
        prop_assert!(iter.next().is_none(), "an item after the first error or the end");
        prop_assert!(offset >= valid, "a valid frame was not split off");
        prop_assert!(failed || offset == input.len(), "bytes left over without an error");
    }

    /// Truncating a valid frame anywhere yields an error, never a wrong
    /// message or a panic.
    #[test]
    fn truncation_always_detected(msg in arb_message(), cut in 0usize..100) {
        let frame = encode_message(&msg, legal_version(&msg), ByteOrder::Big).unwrap();
        if frame.len() > 12 {
            // Cut somewhere strictly inside the frame.
            let cut = 1 + cut % (frame.len() - 1);
            prop_assert!(Message::decode_frame(&frame.slice(..cut)).is_err());
        }
    }

    /// The header parser agrees with the encoder for every message.
    #[test]
    fn parse_header_inverts_encode(msg in arb_message(), order in arb_order()) {
        let version = legal_version(&msg);
        let frame = encode_message(&msg, version, order).unwrap();
        let h = cool_giop::codec::parse_header(&frame).unwrap();
        prop_assert_eq!(h.version, version);
        prop_assert_eq!(h.order, order);
        prop_assert_eq!(h.msg_type, msg.msg_type());
        prop_assert_eq!(h.message_size as usize, frame.len() - cool_giop::codec::HEADER_LEN);
    }

    /// The zero-copy split encoder (`Message::encode_into` writing header
    /// and body into one shared buffer) is byte-identical to a reference
    /// contiguous encoding — body marshalled standalone, header assembled
    /// by hand, the two concatenated — for every message under both byte
    /// orders.
    #[test]
    fn encode_into_matches_reference_contiguous_encoding(
        msg in arb_message(),
        order in arb_order(),
        prefix in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let version = legal_version(&msg);

        // Reference: standalone CDR body, then a hand-built 12-byte header.
        let mut enc = CdrEncoder::new(order);
        match &msg {
            Message::Request { header, body } => {
                header.encode(&mut enc, version).unwrap();
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
        let body = enc.into_bytes();
        let mut reference = Vec::with_capacity(12 + body.len());
        reference.extend_from_slice(b"GIOP");
        reference.extend_from_slice(&[version.major, version.minor, order.flag(), msg.msg_type().code()]);
        match order {
            ByteOrder::Big => reference.extend_from_slice(&(body.len() as u32).to_be_bytes()),
            ByteOrder::Little => reference.extend_from_slice(&(body.len() as u32).to_le_bytes()),
        }
        reference.extend_from_slice(&body);

        // Split encoder, appending after arbitrary pre-existing content.
        let mut buf = bytes::BytesMut::new();
        buf.extend_from_slice(&prefix);
        msg.encode_into(version, order, &mut buf).unwrap();
        prop_assert_eq!(&buf[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&buf[prefix.len()..], &reference[..]);
    }

    /// Batching frames with `join_frames` and taking them apart again with
    /// `split_frames` yields the same message sequence as decoding each
    /// frame unbatched, for any mix of messages and byte orders.
    #[test]
    fn batched_then_split_decodes_to_same_sequence(
        specs in proptest::collection::vec((arb_message(), arb_order()), 0..6),
    ) {
        let frames: Vec<Bytes> = specs
            .iter()
            .map(|(m, o)| encode_message(m, legal_version(m), *o).unwrap())
            .collect();
        let unbatched: Vec<Message> = frames
            .iter()
            .map(|f| Message::decode_frame(f).unwrap().0)
            .collect();

        let batch = join_frames(&frames);
        let split: Vec<Bytes> = split_frames(&batch)
            .collect::<Result<_, _>>()
            .unwrap();
        prop_assert_eq!(&split, &frames);
        let rebatched: Vec<Message> = split
            .iter()
            .map(|f| Message::decode_frame(f).unwrap().0)
            .collect();
        prop_assert_eq!(rebatched, unbatched);
    }

    /// A request whose service-context list mixes a real trace entry with
    /// arbitrary unknown-tag entries re-encodes byte-identically: decode
    /// preserves every entry (order, tags and payloads) even for tags the
    /// implementation knows nothing about.
    #[test]
    fn service_contexts_reencode_byte_identically(
        unknown in proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..32)),
            0..5,
        ),
        trace_at in proptest::option::of(0usize..5),
        trace_id in any::<u64>(),
        sent_at_ns in any::<u64>(),
        marshal_us in any::<u32>(),
        order in arb_order(),
    ) {
        let mut entries: Vec<ServiceContext> = unknown
            .into_iter()
            // Steer clear of the real trace tags so `find` is unambiguous.
            .filter(|(id, _)| *id != TRACE_REQUEST_CONTEXT_ID && *id != TRACE_REPLY_CONTEXT_ID)
            .map(|(id, data)| ServiceContext::new(id, data))
            .collect();
        if let Some(at) = trace_at {
            let ctx = RequestTraceContext { trace_id, sent_at_ns, marshal_us };
            entries.insert(at.min(entries.len()), ctx.to_service_context());
        }
        let list: ServiceContextList = entries.into_iter().collect();
        let header = RequestHeader::builder(7, b"key".to_vec(), "op")
            .service_context(list)
            .build();
        let msg = Message::Request { header, body: Bytes::from_static(b"body") };

        let frame = encode_message(&msg, GiopVersion::STANDARD, order).unwrap();
        let (decoded, _, _) = Message::decode_frame(&frame).unwrap();
        prop_assert_eq!(&decoded, &msg);
        let reencoded = encode_message(&decoded, GiopVersion::STANDARD, order).unwrap();
        prop_assert_eq!(reencoded, frame);
    }

    /// Service contexts decoded on their own, from bytes that start as a
    /// well-formed list and are then cut short, given another entry count
    /// or followed by garbage: the decoders never panic, reserve no more
    /// than the input can hold (an entry takes at least 8 bytes, and only a
    /// payload too long to sit inline takes heap, at most its own bytes),
    /// and fail only with an underflow or a length overflow.
    #[test]
    fn service_contexts_decode_arbitrary_bytes(
        entries in proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..64)),
            0..16,
        ),
        tiny in any::<bool>(),
        count_override in proptest::option::of(any::<u32>()),
        cut in any::<usize>(),
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
        order in arb_order(),
    ) {
        // Tiny payloads pack the most entries into the fewest bytes, where
        // a list grown by doubling would reserve past what the bytes hold.
        let list: ServiceContextList = entries
            .into_iter()
            .map(|(id, mut data)| {
                if tiny {
                    data.truncate(3);
                }
                ServiceContext::new(id, data)
            })
            .collect();
        let mut enc = CdrEncoder::new(order);
        list.encode(&mut enc);
        let mut input = enc.into_bytes().to_vec();
        if let Some(count) = count_override {
            let count = match order {
                ByteOrder::Big => count.to_be_bytes(),
                ByteOrder::Little => count.to_le_bytes(),
            };
            input[..4].copy_from_slice(&count);
        }
        input.truncate(cut % (input.len() + 1));
        input.extend_from_slice(&garbage);

        let holds = input.len() / 8;
        let bound = holds * std::mem::size_of::<ServiceContext>() + input.len();
        let (decoded, reserved) =
            allocated_by(|| ServiceContextList::decode(&mut CdrDecoder::new(&input, order)));
        prop_assert!(reserved <= bound, "{reserved} B reserved for {} input bytes", input.len());
        match decoded {
            Ok(decoded) => prop_assert!(decoded.len() <= holds),
            Err(e) => prop_assert!(
                matches!(e, GiopError::Underflow { .. } | GiopError::LengthOverflow { .. }),
                "{e:?}"
            ),
        }

        let (one, reserved) =
            allocated_by(|| ServiceContext::decode(&mut CdrDecoder::new(&input, order)));
        prop_assert!(reserved <= input.len(), "{reserved} B reserved for {} input bytes", input.len());
        if let Err(e) = one {
            prop_assert!(
                matches!(e, GiopError::Underflow { .. } | GiopError::LengthOverflow { .. }),
                "{e:?}"
            );
        }
    }

    /// Trace-context extraction finds the trace entry wherever it sits in
    /// the list and ignores unknown tags entirely — a list without the
    /// trace tag yields `None`, never a misparse of someone else's data.
    #[test]
    fn trace_decode_ignores_unknown_tags(
        unknown in proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..32)),
            0..5,
        ),
        trace_at in proptest::option::of(0usize..5),
        trace_id in any::<u64>(),
        recv_at_ns in any::<u64>(),
        sent_at_ns in any::<u64>(),
        queue_wait_us in any::<u32>(),
        negotiate_us in any::<u32>(),
        execute_us in any::<u32>(),
    ) {
        let mut entries: Vec<ServiceContext> = unknown
            .into_iter()
            .filter(|(id, _)| *id != TRACE_REQUEST_CONTEXT_ID && *id != TRACE_REPLY_CONTEXT_ID)
            .map(|(id, data)| ServiceContext::new(id, data))
            .collect();
        let ctx = ReplyTraceContext {
            trace_id,
            recv_at_ns,
            sent_at_ns,
            queue_wait_us,
            negotiate_us,
            execute_us,
        };
        if let Some(at) = trace_at {
            entries.insert(at.min(entries.len()), ctx.to_service_context());
        }
        let list: ServiceContextList = entries.into_iter().collect();
        prop_assert_eq!(ReplyTraceContext::from_list(&list), trace_at.map(|_| ctx));
        // The other direction's tag is never confused for this one.
        prop_assert_eq!(RequestTraceContext::from_list(&list), None);
    }

    /// Arbitrary context data never panics either trace decoder: it
    /// parses exactly when it leads with the format octet and holds every
    /// field, and then reads the fields from the leading `WIRE_LEN` bytes
    /// alone (whatever follows is a later format's and is ignored).
    #[test]
    fn trace_contexts_decode_arbitrary_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..48),
        versioned in any::<bool>(),
    ) {
        let mut data = data;
        let probe = RequestTraceContext { trace_id: 0, sent_at_ns: 0, marshal_us: 0 };
        let format = probe.encode()[0];
        if versioned && !data.is_empty() {
            data[0] = format;
        }
        let v1 = data.first() == Some(&format);

        let request = RequestTraceContext::decode(&data);
        prop_assert_eq!(request.is_some(), v1 && data.len() >= RequestTraceContext::WIRE_LEN);
        if let Some(ctx) = request {
            prop_assert_eq!(&ctx.encode()[..], &data[..RequestTraceContext::WIRE_LEN]);
        }
        let reply = ReplyTraceContext::decode(&data);
        prop_assert_eq!(reply.is_some(), v1 && data.len() >= ReplyTraceContext::WIRE_LEN);
        if let Some(ctx) = reply {
            prop_assert_eq!(&ctx.encode()[..], &data[..ReplyTraceContext::WIRE_LEN]);
        }
    }
}
