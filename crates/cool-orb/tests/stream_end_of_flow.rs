//! End of flow: when the source closes a stream, the receiver gets every
//! frame already sent and then `Closed` — at once, not when its receive
//! timeout expires. The flow's data channel is a Da CaPo connection in
//! every case; the control call that opens it runs over Da CaPo or Chorus.

use bytes::Bytes;
use cool_orb::prelude::*;
use multe_qos::Reliability;
use std::sync::Arc;
use std::time::{Duration, Instant};

const FRAMES: u32 = 400;

/// A source that sends `FRAMES` numbered 1 KiB frames and closes the flow.
fn counting_source_orb(exchange: &LocalExchange) -> Arc<Orb> {
    let orb = Orb::with_exchange("flow-server", exchange.clone());
    let policy = ServerPolicy::builder()
        .max_throughput_bps(10_000_000)
        .max_reliability(Reliability::Reliable)
        .supports_ordering(true)
        .build();
    serve_source(
        &orb,
        "camera",
        policy,
        |flow: FlowHandle, _granted: &GrantedQoS| {
            for n in 0..FRAMES {
                let mut frame = vec![(n % 251) as u8; 1024];
                frame[..4].copy_from_slice(&n.to_be_bytes());
                if flow.send(Bytes::from(frame)).is_err() {
                    return;
                }
            }
            flow.close();
        },
    )
    .unwrap();
    orb
}

fn receiver_sees_the_tail_then_closed(listen: fn(&Orb) -> OrbServer, reliability: Reliability) {
    let exchange = LocalExchange::new();
    let server_orb = counting_source_orb(&exchange);
    let server = listen(&server_orb);
    let client_orb = Orb::with_exchange("flow-client", exchange);
    let qos = QoSSpec::builder()
        .throughput_bps(4_000_000, 0, i32::MAX)
        .reliability(reliability)
        .ordered(true)
        .build();
    let receiver = open_stream(&client_orb, &server.object_ref("camera"), qos).unwrap();

    // Far longer than the test may take: running into it is the failure.
    let timeout = Duration::from_secs(30);
    for n in 0..FRAMES {
        let frame = receiver
            .recv(timeout)
            .unwrap_or_else(|e| panic!("frame {n} of {FRAMES} lost: {e}"));
        assert_eq!(u32::from_be_bytes(frame[..4].try_into().unwrap()), n);
    }
    let start = Instant::now();
    let end = receiver.recv(timeout);
    assert!(matches!(end, Err(OrbError::Closed)), "got {end:?}");
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "end of flow took {:?} to arrive",
        start.elapsed()
    );
    server.close();
}

fn over_dacapo(orb: &Orb) -> OrbServer {
    orb.listen_dacapo("flow-control").unwrap()
}

fn over_chorus(orb: &Orb) -> OrbServer {
    orb.listen_chorus("flow-control").unwrap()
}

#[test]
fn checked_flow_opened_over_dacapo_ends_with_closed() {
    receiver_sees_the_tail_then_closed(over_dacapo, Reliability::Checked);
}

#[test]
fn checked_flow_opened_over_chorus_ends_with_closed() {
    receiver_sees_the_tail_then_closed(over_chorus, Reliability::Checked);
}

#[test]
fn reliable_flow_opened_over_chorus_ends_with_closed() {
    receiver_sees_the_tail_then_closed(over_chorus, Reliability::Reliable);
}
