//! QoS-ladder dominance and its wire encoding.
//!
//! A replica's *offered ladder* is an ordered list of [`QoSSpec`]s, best
//! rung first, each describing an operating point the replica is prepared
//! to grant. A rung **dominates** a required spec exactly when a server
//! whose capabilities equal the rung's requested values would grant the
//! requirement under the bilateral negotiation rules of
//! [`ServerPolicy::negotiate`] — the directory's match predicate is the
//! same arithmetic the real server runs at invocation time, so a replica
//! the directory returns will not NACK the requirement it was matched
//! against (it may still NACK a *stronger* preferred spec, which is what
//! the client's own degradation ladder is for).

use cool_giop::cdr::{CdrDecoder, CdrEncoder};
use cool_giop::{GiopError, QoSParameter};
use multe_qos::{QoSSpec, ServerPolicy};

/// The server policy equivalent to one offered rung: each declared
/// dimension becomes a capability at the rung's requested value, and
/// undeclared dimensions stay unsupported (the restrictive baseline).
pub fn rung_policy(offered: &QoSSpec) -> ServerPolicy {
    let mut builder = ServerPolicy::builder();
    if let Some(r) = offered.throughput() {
        builder = builder.max_throughput_bps(r.requested);
    }
    if let Some(r) = offered.latency() {
        builder = builder.min_latency_us(r.requested);
    }
    if let Some(r) = offered.jitter() {
        builder = builder.min_jitter_us(r.requested);
    }
    if let Some(rel) = offered.reliability() {
        builder = builder.max_reliability(rel);
    }
    if offered.ordered() == Some(true) {
        builder = builder.supports_ordering(true);
    }
    if offered.encrypted() == Some(true) {
        builder = builder.supports_encryption(true);
    }
    builder.build()
}

/// Whether `offered` can serve `required`: the rung's policy grants the
/// requirement. Invalid required ranges dominate nothing.
pub fn rung_dominates(offered: &QoSSpec, required: &QoSSpec) -> bool {
    rung_policy(offered).negotiate(required).is_ok()
}

/// Index of the best (lowest) rung of `ladder` dominating `required`,
/// or `None` when no rung does.
pub fn best_rung(ladder: &[QoSSpec], required: &QoSSpec) -> Option<usize> {
    ladder
        .iter()
        .position(|rung| rung_dominates(rung, required))
}

/// Encodes a ladder: a rung count, then each rung as its wire-format
/// parameter sequence (Figure 2-ii).
pub fn encode_ladder(enc: &mut CdrEncoder, ladder: &[QoSSpec]) {
    enc.put_u32(ladder.len() as u32);
    for rung in ladder {
        enc.put_seq(&rung.to_params());
    }
}

/// Decodes a ladder written by [`encode_ladder`].
///
/// # Errors
///
/// [`GiopError`] on a truncated or malformed stream.
pub fn decode_ladder(dec: &mut CdrDecoder<'_>) -> Result<Vec<QoSSpec>, GiopError> {
    let count = dec.get_u32()?;
    // Reserve only what the bytes can back: every rung costs at least its
    // four-byte parameter count, whatever the count claims.
    let mut rungs = Vec::with_capacity((count as usize).min(dec.remaining() / 4));
    for _ in 0..count {
        let params: Vec<QoSParameter> = dec.get_seq()?;
        rungs.push(QoSSpec::from_params(&params));
    }
    Ok(rungs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_giop::cdr::ByteOrder;
    use multe_qos::Reliability;

    fn throughput(requested: u32, min: i32, max: i32) -> QoSSpec {
        QoSSpec::builder()
            .throughput_bps(requested, min, max)
            .build()
    }

    #[test]
    fn throughput_dominance_follows_negotiation() {
        let offered = throughput(1_000_000, 0, i32::MAX);
        // Clipped offer 64k meets the 1k minimum.
        assert!(rung_dominates(
            &offered,
            &throughput(64_000, 1_000, 2_000_000)
        ));
        // Clipped offer 1M falls short of a 2M minimum.
        assert!(!rung_dominates(
            &offered,
            &throughput(4_000_000, 2_000_000, 8_000_000)
        ));
        // A rung with no throughput capability offers 0, which still meets
        // a non-positive minimum — the exact clipping rule servers apply.
        assert!(rung_dominates(
            &QoSSpec::best_effort(),
            &throughput(64_000, 0, 2_000_000)
        ));
        assert!(!rung_dominates(
            &QoSSpec::best_effort(),
            &throughput(64_000, 1, 2_000_000)
        ));
    }

    #[test]
    fn bool_and_reliability_dimensions_gate_dominance() {
        let plain = QoSSpec::best_effort();
        let ordered = QoSSpec::builder().ordered(true).build();
        assert!(!rung_dominates(&plain, &ordered));
        assert!(rung_dominates(&ordered, &ordered));

        let reliable = QoSSpec::builder()
            .reliability(Reliability::Reliable)
            .build();
        let checked = QoSSpec::builder().reliability(Reliability::Checked).build();
        assert!(rung_dominates(&reliable, &checked));
        assert!(!rung_dominates(&checked, &reliable));
    }

    #[test]
    fn best_rung_returns_first_dominating_index() {
        let ladder = vec![
            throughput(2_000_000, 0, i32::MAX),
            throughput(64_000, 0, i32::MAX),
        ];
        // A modest requirement is met by rung 0 already.
        assert_eq!(
            best_rung(&ladder, &throughput(64_000, 1_000, 2_000_000)),
            Some(0)
        );
        // A requirement above both rungs matches nothing.
        assert_eq!(
            best_rung(&ladder, &throughput(8_000_000, 4_000_000, i32::MAX)),
            None
        );
        assert_eq!(best_rung(&[], &throughput(1, 0, 1)), None);
    }

    #[test]
    fn ladder_round_trips_in_both_byte_orders() {
        let ladder = vec![
            QoSSpec::builder()
                .throughput_bps(1_000_000, 800_000, 2_000_000)
                .ordered(true)
                .build(),
            QoSSpec::builder()
                .throughput_bps(64_000, 1_000, 64_000)
                .reliability(Reliability::Checked)
                .build(),
        ];
        for order in [ByteOrder::Big, ByteOrder::Little] {
            let mut enc = CdrEncoder::new(order);
            encode_ladder(&mut enc, &ladder);
            let bytes = enc.into_bytes();
            let mut dec = CdrDecoder::new(&bytes, order);
            let back = decode_ladder(&mut dec).expect("decode");
            assert_eq!(back, ladder, "{order:?}");
        }
    }
}
