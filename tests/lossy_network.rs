//! The whole stack on the paper's network: ORB invocations over a Da CaPo
//! transport running on a *lossy* simulated link. Without reliability QoS,
//! GIOP requests and replies are lost and calls time out; negotiating
//! reliability installs an ARQ configuration below GIOP and every call
//! succeeds — the end-to-end payoff the MULTE architecture promises.

use bytes::Bytes;
use multe::netsim::LinkSpec;
use multe::orb::prelude::*;
use multe::qos::{QoSSpec, Reliability};
use std::time::Duration;

fn lossy_exchange(loss: f64, seed: u64) -> LocalExchange {
    let exchange = LocalExchange::new();
    exchange.set_dacapo_link(Some(
        LinkSpec::builder()
            .bandwidth_bps(100_000_000)
            .propagation(Duration::from_micros(200))
            .loss_rate(loss)
            .seed(seed)
            .build()
            .unwrap(),
    ));
    exchange
}

#[test]
fn reliable_qos_survives_a_lossy_link() {
    let exchange = lossy_exchange(0.10, 41);
    let server_orb = Orb::with_exchange("lossy-server", exchange.clone());
    server_orb
        .adapter()
        .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
        .unwrap();
    let server = server_orb.listen_dacapo("lossy-endpoint").unwrap();
    let client_orb = Orb::with_exchange("lossy-client", exchange);
    let stub = client_orb.bind(&server.object_ref("echo")).unwrap();
    stub.set_timeout(Duration::from_secs(10));

    // Negotiate reliability: Da CaPo configures go-back-N + CRC below GIOP.
    stub.set_qos_parameter(
        QoSSpec::builder()
            .reliability(Reliability::Reliable)
            .ordered(true)
            .build(),
    )
    .unwrap();

    // Every invocation must succeed despite 10 % frame loss.
    for i in 0..30u8 {
        let reply = stub.invoke("echo", Bytes::from(vec![i; 64])).unwrap();
        assert_eq!(reply[0], i);
        assert_eq!(reply.len(), 64);
    }
    server.close();
}

#[test]
fn best_effort_on_a_lossy_link_loses_invocations() {
    // Control experiment: the same link, no QoS -> some calls lose their
    // Request or Reply frame and time out. (If this ever stops failing,
    // the reliable-QoS test above would be vacuous.)
    let exchange = lossy_exchange(0.25, 99);
    let server_orb = Orb::with_exchange("be-server", exchange.clone());
    server_orb
        .adapter()
        .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
        .unwrap();
    let server = server_orb.listen_dacapo("be-endpoint").unwrap();
    let client_orb = Orb::with_exchange("be-client", exchange);
    let stub = client_orb.bind(&server.object_ref("echo")).unwrap();
    stub.set_timeout(Duration::from_millis(400));

    let mut failures = 0;
    let mut successes = 0;
    for i in 0..40u8 {
        match stub.invoke("echo", Bytes::from(vec![i; 64])) {
            Ok(_) => successes += 1,
            Err(OrbError::Timeout { .. }) => failures += 1,
            Err(other) => panic!("unexpected failure mode: {other:?}"),
        }
    }
    assert!(
        failures > 0,
        "a 25%-lossy link must lose some best-effort calls"
    );
    assert!(successes > 0, "but not all of them");
    server.close();
}

#[test]
fn shaped_link_bounds_orb_throughput() {
    // A narrow 2 Mbit/s link: bulk invocations cannot exceed the wire.
    let exchange = LocalExchange::new();
    exchange.set_dacapo_link(Some(
        LinkSpec::builder()
            .bandwidth_bps(2_000_000)
            .propagation(Duration::from_micros(100))
            .build()
            .unwrap(),
    ));
    let server_orb = Orb::with_exchange("narrow-server", exchange.clone());
    server_orb
        .adapter()
        .register_fn("sink", |_op, _args, _ctx| Ok(Vec::new()))
        .unwrap();
    let server = server_orb.listen_dacapo("narrow-endpoint").unwrap();
    let client_orb = Orb::with_exchange("narrow-client", exchange);
    let stub = client_orb.bind(&server.object_ref("sink")).unwrap();
    stub.set_timeout(Duration::from_secs(30));

    let payload = Bytes::from(vec![0u8; 8 * 1024]); // 64 kbit per call
    let calls = 10;
    let start = std::time::Instant::now();
    for _ in 0..calls {
        stub.invoke("put", payload.clone()).unwrap();
    }
    let elapsed = start.elapsed();
    let bits = (payload.len() * calls * 8) as f64;
    let observed_bps = bits / elapsed.as_secs_f64();
    assert!(
        observed_bps < 2_500_000.0,
        "observed {observed_bps:.0} bps through a 2 Mbit/s link"
    );
    server.close();
}

#[test]
fn fragmentation_survives_renegotiation() {
    // A link that carries 1500-byte frames: the connection is established
    // with a fragmentation module below GIOP, and every reconfiguration of
    // it (Section 4.1: QoS changes "have to be reflected in
    // reconfigurations of the transport connection") must configure for
    // the same link, or an 8 KiB call no longer fits the wire.
    let exchange = LocalExchange::new();
    exchange.set_dacapo_link(Some(LinkSpec::builder().mtu(1500).build().unwrap()));
    let server_orb = Orb::with_exchange("mtu-server", exchange.clone());
    server_orb
        .adapter()
        .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
        .unwrap();
    let server = server_orb.listen_dacapo("mtu-endpoint").unwrap();
    let client_orb = Orb::with_exchange("mtu-client", exchange);
    let stub = client_orb.bind(&server.object_ref("echo")).unwrap();
    stub.set_timeout(Duration::from_secs(2));

    let echo_8k = |when: &str| {
        let reply = stub
            .invoke("echo", Bytes::from(vec![7u8; 8 * 1024]))
            .unwrap_or_else(|e| panic!("8 KiB echo {when}: {e:?}"));
        assert_eq!(reply.len(), 8 * 1024, "{when}");
    };
    echo_8k("as established");
    stub.set_qos_parameter(
        QoSSpec::builder()
            .reliability(Reliability::Checked)
            .ordered(true)
            .build(),
    )
    .unwrap();
    echo_8k("after set_qos_parameter");
    stub.clear_qos().unwrap();
    echo_8k("after clear_qos");
    server.close();
}
