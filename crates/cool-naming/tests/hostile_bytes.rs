//! The directory's decoders on hostile bytes: whatever a peer sends, a
//! request is answered or refused with a typed error, never a panic, and
//! nothing is reserved by a count the bytes cannot back.
//!
//! Bodies lead with none, one or two well-formed strings (a name, a uri),
//! so the decoders are reached past their first fields, and go on with
//! noise or with small CDR words, which read as plausible string lengths,
//! ladder and sequence counts. Each is sent with a valid byte-order flag
//! and with an arbitrary leading octet.

use cool_giop::cdr::{ByteOrder, CdrDecoder, CdrEncoder};
use cool_naming::directory::DirectoryServer;
use cool_naming::ladder::{decode_ladder, encode_ladder};
use cool_orb::OrbError;
use multe_qos::QoSSpec;
use proptest::prelude::*;

const OPERATIONS: &[&str] = &["register", "deregister", "resolve", "list", "unbind"];

fn arb_order() -> impl Strategy<Value = ByteOrder> {
    prop_oneof![Just(ByteOrder::Big), Just(ByteOrder::Little)]
}

/// A body in `order`: up to two well-formed strings, then noise or small
/// CDR words.
fn arb_body(order: ByteOrder) -> impl Strategy<Value = Vec<u8>> {
    (
        0usize..3,
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 0..96),
        proptest::collection::vec(0u32..6, 0..24),
    )
        .prop_map(move |(fields, as_words, noise, words)| {
            let mut enc = CdrEncoder::new(order);
            for field in ["svc", "cool:chorus://a#svc"].iter().take(fields) {
                enc.put_string(field);
            }
            if as_words {
                for w in &words {
                    enc.put_u32(*w);
                }
            }
            let mut body = enc.into_bytes().to_vec();
            if !as_words {
                body.extend_from_slice(&noise);
            }
            body
        })
}

/// The request bytes: a byte-order flag (valid, or any octet) and a body.
fn arb_request() -> impl Strategy<Value = (Vec<u8>, usize)> {
    (arb_order(), any::<bool>(), any::<u8>(), 0..OPERATIONS.len()).prop_flat_map(
        |(order, valid, flag, op)| {
            arb_body(order).prop_map(move |body| {
                let mut args = vec![if valid { order.flag() } else { flag }];
                args.extend_from_slice(&body);
                (args, op)
            })
        },
    )
}

/// A directory already holding one replica, so `resolve` and
/// `deregister` reach past the lookup.
fn seeded() -> DirectoryServer {
    let dir = DirectoryServer::default();
    let mut enc = CdrEncoder::new(ByteOrder::Big);
    enc.put_string("svc");
    enc.put_string("cool:chorus://a#svc");
    encode_ladder(&mut enc, &[QoSSpec::best_effort()]);
    let mut args = vec![ByteOrder::Big.flag()];
    args.extend_from_slice(&enc.into_bytes());
    dir.dispatch("register", &args).expect("seed registers");
    dir
}

proptest! {
    /// Every operation, and an unknown one, on arbitrary bodies with and
    /// without a valid flag: a reply that echoes the request's flag, or a
    /// typed error. An unknown operation is refused as unknown, whatever
    /// its body.
    #[test]
    fn dispatch_answers_or_refuses_hostile_requests(
        requests in proptest::collection::vec(arb_request(), 1..32),
    ) {
        let dir = seeded();
        for (args, op) in requests {
            let operation = OPERATIONS[op];
            match dir.dispatch(operation, &args) {
                Ok(reply) => prop_assert_eq!(reply.first(), args.first()),
                Err(OrbError::OperationUnknown { operation: named, .. }) => {
                    prop_assert_eq!(named.as_str(), operation)
                }
                Err(_) => {}
            }
            // The directory still serves a well-formed request afterwards.
            let list = dir.dispatch("list", &[ByteOrder::Big.flag()]);
            prop_assert!(list.is_ok(), "{:?}", list);
        }
    }

    /// `decode_ladder` on arbitrary bytes: a ladder or a typed error, and
    /// what it decodes is backed by the bytes (every rung costs at least
    /// its four-byte parameter count).
    #[test]
    fn decode_ladder_errs_or_decodes_what_the_bytes_hold(
        bodies in proptest::collection::vec(
            (arb_order(), arb_order().prop_flat_map(arb_body)),
            1..32,
        ),
    ) {
        for (order, body) in bodies {
            let mut dec = CdrDecoder::new(&body, order);
            if let Ok(ladder) = decode_ladder(&mut dec) {
                prop_assert!(
                    4 + 4 * ladder.len() <= body.len(),
                    "{} rungs from {} bytes",
                    ladder.len(),
                    body.len()
                );
            }
        }
    }
}
