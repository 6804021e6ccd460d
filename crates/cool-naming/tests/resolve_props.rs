//! Property tests for the directory's QoS-ladder matching.
//!
//! The pinned contract (satellite of the failover PR): `resolve(name,
//! required)` returns a replica **iff** some rung of its offered ladder
//! dominates `required`, where dominance is the server-side capability
//! clipping of `ServerPolicy::negotiate`. The oracle below re-implements
//! that arithmetic independently (it never calls `rung_dominates`), and
//! every case is pushed through the real wire encoding in **both** byte
//! orders, so the property also pins the flag-octet framing and the CDR
//! ladder codec.

use cool_giop::cdr::{ByteOrder, CdrDecoder, CdrEncoder};
use cool_naming::directory::DirectoryServer;
use cool_naming::ladder::encode_ladder;
use multe_qos::prelude::*;
use proptest::prelude::*;

/// Independent dominance oracle: mirrors the negotiation rules without
/// touching `cool_naming::ladder`.
fn oracle_dominates(offered: &QoSSpec, required: &QoSSpec) -> bool {
    if let Some(r) = required.throughput() {
        let capability = offered.throughput().map(|o| o.requested).unwrap_or(0);
        let offer = r.requested.min(capability);
        if (offer as i64) < r.min as i64 {
            return false;
        }
    }
    if let Some(r) = required.latency() {
        match offered.latency() {
            Some(floor) => {
                if r.requested.max(floor.requested) as i64 > r.max as i64 {
                    return false;
                }
            }
            None => return false,
        }
    }
    if let Some(r) = required.jitter() {
        match offered.jitter() {
            Some(floor) => {
                if r.requested.max(floor.requested) as i64 > r.max as i64 {
                    return false;
                }
            }
            None => return false,
        }
    }
    if let Some(wanted) = required.reliability() {
        let capability = offered.reliability().unwrap_or(Reliability::BestEffort);
        if capability < wanted {
            return false;
        }
    }
    if required.ordered() == Some(true) && offered.ordered() != Some(true) {
        return false;
    }
    if required.encrypted() == Some(true) && offered.encrypted() != Some(true) {
        return false;
    }
    true
}

/// Always-consistent range (requested inside `[min, max]`).
fn arb_range() -> impl Strategy<Value = (u32, i32, i32)> {
    (0i32..=i32::MAX, 0i32..=i32::MAX)
        .prop_map(|(a, b)| (a.min(b), a.max(b)))
        .prop_flat_map(|(min, max)| (min..=max).prop_map(move |req| (req as u32, min, max)))
}

fn arb_reliability() -> impl Strategy<Value = Reliability> {
    prop_oneof![
        Just(Reliability::BestEffort),
        Just(Reliability::Checked),
        Just(Reliability::Reliable),
    ]
}

fn arb_spec() -> impl Strategy<Value = QoSSpec> {
    (
        proptest::option::of(arb_range()),
        proptest::option::of(arb_range()),
        proptest::option::of(arb_range()),
        proptest::option::of(arb_reliability()),
        proptest::option::of(any::<bool>()),
        proptest::option::of(any::<bool>()),
    )
        .prop_map(|(tp, lat, jit, rel, ord, enc)| {
            let mut b = QoSSpec::builder();
            if let Some((req, min, max)) = tp {
                b = b.throughput_bps(req, min, max);
            }
            if let Some((req, min, max)) = lat {
                b = b.latency(
                    std::time::Duration::from_micros(req as u64),
                    std::time::Duration::from_micros(min as u64),
                    std::time::Duration::from_micros(max as u64),
                );
            }
            if let Some((req, min, max)) = jit {
                b = b.jitter(
                    std::time::Duration::from_micros(req as u64),
                    std::time::Duration::from_micros(min as u64),
                    std::time::Duration::from_micros(max as u64),
                );
            }
            if let Some(r) = rel {
                b = b.reliability(r);
            }
            if let Some(o) = ord {
                b = b.ordered(o);
            }
            if let Some(e) = enc {
                b = b.encrypted(e);
            }
            b.build()
        })
}

fn arb_ladder() -> impl Strategy<Value = Vec<QoSSpec>> {
    proptest::collection::vec(arb_spec(), 0..3)
}

fn frame(order: ByteOrder, enc: CdrEncoder) -> Vec<u8> {
    let body = enc.into_bytes();
    let mut out = Vec::with_capacity(1 + body.len());
    out.push(order.flag());
    out.extend_from_slice(&body);
    out
}

/// Registers `ladders` as replicas of `name` and resolves `required`,
/// returning `(uri, best_rung)` pairs, all through the wire encoding.
fn resolve_on_the_wire(
    order: ByteOrder,
    ladders: &[Vec<QoSSpec>],
    required: &QoSSpec,
) -> Vec<(String, u32)> {
    let dir = DirectoryServer::default();
    for (i, ladder) in ladders.iter().enumerate() {
        let mut enc = CdrEncoder::new(order);
        enc.put_string("svc");
        enc.put_string(&format!("cool:chorus://replica-{i}#svc"));
        encode_ladder(&mut enc, ladder);
        dir.dispatch("register", &frame(order, enc))
            .expect("register");
    }
    let mut enc = CdrEncoder::new(order);
    enc.put_string("svc");
    enc.put_seq(&required.to_params());
    let reply = dir
        .dispatch("resolve", &frame(order, enc))
        .expect("resolve");
    assert_eq!(reply[0], order.flag(), "reply echoes the request order");
    let mut dec = CdrDecoder::new(&reply[1..], order);
    let count = dec.get_u32().expect("count");
    let mut out = Vec::new();
    for _ in 0..count {
        let uri = dec.get_string().expect("uri");
        let rung = dec.get_u32().expect("rung");
        // Drain the echoed ladder so the stream stays aligned.
        let rungs = dec.get_u32().expect("ladder len");
        for _ in 0..rungs {
            let _: Vec<cool_giop::QoSParameter> = dec.get_seq().expect("rung params");
        }
        out.push((uri, rung));
    }
    out
}

proptest! {
    /// A replica comes back iff some rung of its offered ladder dominates
    /// the requirement (per the independent oracle), its reported
    /// `best_rung` is the first such rung, and the result is identical in
    /// both wire byte orders.
    #[test]
    fn resolve_returns_a_replica_iff_some_rung_dominates(
        ladders in proptest::collection::vec(arb_ladder(), 1..4),
        required in arb_spec(),
    ) {
        let big = resolve_on_the_wire(ByteOrder::Big, &ladders, &required);
        let little = resolve_on_the_wire(ByteOrder::Little, &ladders, &required);
        prop_assert_eq!(&big, &little, "byte order must not change the result");

        for (i, ladder) in ladders.iter().enumerate() {
            let uri = format!("cool:chorus://replica-{i}#svc");
            let expected = ladder.iter().position(|rung| oracle_dominates(rung, &required));
            let got = big.iter().find(|(u, _)| *u == uri).map(|(_, rung)| *rung);
            prop_assert_eq!(
                got,
                expected.map(|r| r as u32),
                "replica {} ladder {:?} required {:?}",
                i,
                ladder,
                &required
            );
        }
        // Ranking: best rungs first.
        for pair in big.windows(2) {
            prop_assert!(pair[0].1 <= pair[1].1, "results ranked by best rung");
        }
    }
}
