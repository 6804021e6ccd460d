//! Property-based tests at the ORB layer: the COOL message protocol and
//! the granted-QoS service-context codec.

use bytes::Bytes;
use cool_orb::message_layer::cool::CoolMessage;
use cool_orb::message_layer::giop::{decode_granted, encode_granted};
use multe_qos::{GrantedQoS, Reliability};
use proptest::prelude::*;

fn arb_cool_message() -> impl Strategy<Value = CoolMessage> {
    prop_oneof![
        (
            any::<u32>(),
            proptest::collection::vec(any::<u8>(), 0..64),
            "[a-zA-Z_][a-zA-Z0-9_]{0,20}",
            any::<bool>(),
            proptest::collection::vec(any::<u8>(), 0..256),
        )
            .prop_map(|(request_id, object_key, operation, one_way, args)| {
                CoolMessage::Request {
                    request_id,
                    object_key,
                    operation,
                    one_way,
                    args: Bytes::from(args),
                }
            }),
        (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..256)).prop_map(
            |(request_id, body)| CoolMessage::Reply {
                request_id,
                body: Bytes::from(body)
            }
        ),
        (any::<u32>(), "[A-Za-z]{1,24}", "[ -~]{0,64}").prop_map(|(request_id, kind, detail)| {
            CoolMessage::Exception {
                request_id,
                kind,
                detail,
            }
        }),
    ]
}

fn arb_granted() -> impl Strategy<Value = GrantedQoS> {
    (
        proptest::option::of(any::<u32>()),
        proptest::option::of(any::<u32>()),
        proptest::option::of(any::<u32>()),
        proptest::option::of(0u32..3),
        proptest::option::of(any::<bool>()),
        proptest::option::of(any::<bool>()),
    )
        .prop_map(|(tp, lat, jit, rel, ord, enc)| {
            let mut g = GrantedQoS::best_effort();
            if let Some(v) = tp {
                g.set_throughput(v);
            }
            if let Some(v) = lat {
                g.set_latency(v);
            }
            if let Some(v) = jit {
                g.set_jitter(v);
            }
            if let Some(v) = rel {
                g.set_reliability(Reliability::from_level(v));
            }
            if let Some(v) = ord {
                g.set_ordered(v);
            }
            if let Some(v) = enc {
                g.set_encrypted(v);
            }
            g
        })
}

proptest! {
    /// Every COOL-protocol message round-trips bit-exactly.
    #[test]
    fn cool_protocol_round_trip(msg in arb_cool_message()) {
        let frame = msg.encode().unwrap();
        prop_assert_eq!(CoolMessage::decode(&frame).unwrap(), msg);
    }

    /// Truncating a COOL frame anywhere is detected, never mis-parsed.
    #[test]
    fn cool_protocol_truncation_detected(msg in arb_cool_message(), cut in 0usize..64) {
        let frame = msg.encode().unwrap();
        if frame.len() > 1 {
            let cut = 1 + cut % (frame.len() - 1);
            prop_assert!(CoolMessage::decode(&frame[..cut]).is_err());
        }
    }

    /// Arbitrary garbage never panics the COOL decoder.
    #[test]
    fn cool_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = CoolMessage::decode(&bytes);
    }

    /// The granted-QoS service-context codec is the identity for every
    /// combination of granted dimensions.
    #[test]
    fn granted_context_round_trip(granted in arb_granted()) {
        let encoded = encode_granted(&granted);
        prop_assert_eq!(decode_granted(&encoded), Some(granted));
    }
}
