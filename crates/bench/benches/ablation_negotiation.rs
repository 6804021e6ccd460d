//! Ablation A: where does QoS negotiation cost go?
//!
//! * `negotiate_only` — the pure bilateral rule evaluation
//!   (`ServerPolicy::negotiate`), no ORB involved;
//! * `per_binding` — QoS set once, invocation after invocation reuses the
//!   grant (the paper's recommended pattern for stable requirements);
//! * `per_method` — `set_qos_parameter` before *every* invocation
//!   (Section 4.1's per-method granularity) over TCP, where changing QoS
//!   costs only the header bytes;
//! * `dacapo_establish` — full connection establishment with QoS:
//!   configuration + admission + stack build on both sides (what a QoS
//!   *change* costs on the Da CaPo transport when the protocol graph must
//!   be renegotiated).

use bytes::Bytes;
use cool_orb::prelude::*;
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Duration;

fn bench_negotiation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_negotiation");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(20);

    // Pure bilateral negotiation.
    let policy = ServerPolicy::builder()
        .max_throughput_bps(10_000_000)
        .min_latency_us(100)
        .max_reliability(Reliability::Reliable)
        .supports_ordering(true)
        .supports_encryption(true)
        .build();
    let spec = QoSSpec::builder()
        .throughput_bps(5_000_000, 1_000_000, 20_000_000)
        .latency(
            Duration::from_millis(5),
            Duration::ZERO,
            Duration::from_millis(50),
        )
        .reliability(Reliability::Reliable)
        .ordered(true)
        .encrypted(true)
        .build();
    group.bench_function("negotiate_only", |b| {
        b.iter(|| policy.negotiate(&spec).expect("feasible"))
    });

    // ORB-level: per-binding vs per-method QoS over TCP.
    let exchange = LocalExchange::new();
    let server_orb = Orb::with_exchange("abl-server", exchange.clone());
    server_orb
        .adapter()
        .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
        .expect("register");
    let server = server_orb.listen_tcp("127.0.0.1:0").expect("listen");
    let client_orb = Orb::with_exchange("abl-client", exchange.clone());
    let stub = client_orb.bind(&server.object_ref("echo")).expect("bind");
    let payload = Bytes::from(vec![1u8; 128]);
    let qos = QoSSpec::builder()
        .throughput_bps(1_000_000, 0, i32::MAX)
        .ordered(true)
        .build();

    // Colocated fast path (paper Section 2: the Object Adapter optimises
    // colocated scenarios): same servant, no message or transport layer.
    let coloc_ref = server.object_ref("echo");
    let coloc_stub = server_orb.bind(&coloc_ref).expect("colocated bind");
    assert!(coloc_stub.is_colocated());
    group.bench_function("colocated_invocation", |b| {
        b.iter(|| coloc_stub.invoke("echo", payload.clone()).expect("call"))
    });

    stub.set_qos_parameter(qos.clone()).expect("set qos");
    group.bench_function("per_binding", |b| {
        b.iter(|| stub.invoke("echo", payload.clone()).expect("call"))
    });

    group.bench_function("per_method", |b| {
        b.iter(|| {
            stub.set_qos_parameter(qos.clone()).expect("set qos");
            stub.invoke("echo", payload.clone()).expect("call")
        })
    });

    // Da CaPo connection establishment with QoS (configuration +
    // admission + threaded stack build, both sides).
    let requirements = multe_qos::TransportRequirements {
        error_detection: true,
        retransmission: true,
        sequencing: true,
        encryption: true,
        bandwidth_bps: Some(1_000_000),
        ..Default::default()
    };
    let dacapo_exchange = LocalExchange::new();
    let accepted: Arc<std::sync::Mutex<Vec<_>>> = Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = accepted.clone();
    dacapo_exchange
        .listen_dacapo(
            "abl-establish",
            Arc::new(move |_, chan| {
                sink.lock().expect("lock").push(chan);
                Ok(())
            }),
        )
        .expect("listen");
    group.sample_size(10);
    group.bench_function("dacapo_establish", |b| {
        b.iter(|| {
            let chan = dacapo_exchange
                .connect_dacapo("abl-establish", &requirements)
                .expect("connect");
            chan.close();
            // Drop the matching server half too, releasing its grant.
            if let Some(server_half) = accepted.lock().expect("lock").pop() {
                server_half.close();
            }
        })
    });

    group.finish();
    server.close();
}

criterion_group!(benches, bench_negotiation);
criterion_main!(benches);
