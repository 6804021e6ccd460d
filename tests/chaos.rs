//! Chaos end-to-end: a seeded fault plan over a long invocation run.
//!
//! A client ORB runs 1000 sequential calls against a chorus-transport
//! echo server while the fault plan of DESIGN.md §8 (1% drop, 0.1%
//! corrupt, one mid-run sever) mangles its outbound frames. The server's
//! QoS policy NACKs the client's preferred spec, so the first invocation
//! also exercises the graceful-degradation ladder. Every call must
//! succeed, degrade, or fail *attributed* — and never hang — and with
//! the retry policy on, the mid-run sever must heal through at least one
//! automatic reconnect. Rerunning the same seed must inject bit-identical
//! fault counts (the whole point of the deterministic engine). After the
//! run, every telemetry name but the replication ones is in the client's
//! or the server's Prometheus render.

use bytes::Bytes;
use multe::orb::prelude::*;
use multe::telemetry::flight::event as flight_event;
use multe::telemetry::{names, Registry};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 0xC0A0_5EED;
const CALLS: u32 = 1000;
/// Frame count after which the engine severs the link — far enough in
/// that the QoS negotiation is long settled, early enough that hundreds
/// of calls still follow the reconnect.
const SEVER_AFTER: u64 = 400;
/// Per-call deadline. Every failure mode is bounded by it, so the whole
/// run is provably hang-free.
const CALL_TIMEOUT: Duration = Duration::from_millis(200);

/// The names only a replicated binding and a directory emit:
/// `tests/failover_chaos.rs` runs that scenario and checks them there.
const REPLICATION: &[&str] = &[
    names::FAILOVERS_TOTAL,
    names::REPLICA_EVICTIONS_TOTAL,
    names::REPLICA_READMISSIONS_TOTAL,
    names::BREAKER_STATE,
    names::REPLICAS_HEALTHY,
    names::RESOLVE_LATENCY_US,
];

/// What one chaos run produced, for cross-run determinism checks.
#[derive(Debug, PartialEq)]
struct FaultCounts {
    total: u64,
    drop: u64,
    corrupt: u64,
    sever: u64,
}

struct ChaosRun {
    ok: u32,
    ok_in_last_100: u32,
    attributed_failures: u32,
    degradation_steps: usize,
    retries: u64,
    reconnects: u64,
    qos_degradations: u64,
    faults: FaultCounts,
    /// Request ids of calls that surfaced as timeouts — each must be
    /// attributable to an injected fault in the flight recorder.
    timed_out_ids: Vec<u32>,
    registry: Arc<Registry>,
    /// The client's and the server's Prometheus renders, after the run.
    rendered: String,
}

/// Dumps the flight recorder to `chaos-flight.json` while the thread is
/// unwinding, so a red chaos run leaves behind the event log naming every
/// injected fault and the request ids it hit. A green run writes nothing.
struct FlightDump(Arc<Registry>);

impl Drop for FlightDump {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("chaos-flight.json");
            if std::fs::write(&path, self.0.flight().to_json()).is_ok() {
                eprintln!("chaos: flight recorder dumped to {}", path.display());
            }
        }
    }
}

fn seeded_plan(seed: u64) -> FaultPlan {
    FaultPlan::builder()
        .seed(seed)
        .drop_rate(0.01)
        .corrupt_rate(0.001)
        .sever_after(Some(SEVER_AFTER))
        .build()
        .expect("valid chaos plan")
}

fn run_chaos(seed: u64) -> ChaosRun {
    let registry = Arc::new(Registry::new());
    let _dump = FlightDump(Arc::clone(&registry));
    let exchange = LocalExchange::new();

    // Server: an echo object whose policy caps throughput at 64 kbit/s,
    // so the client's preferred spec below draws a NACK. Its own registry
    // keeps its flight events out of the client's ring.
    let server_registry = Arc::new(Registry::new());
    let server_config = OrbConfig {
        telemetry: Some(Arc::clone(&server_registry)),
        ..OrbConfig::default()
    };
    let server_orb = Orb::with_exchange_and_config("chaos-server", exchange.clone(), server_config);
    server_orb
        .adapter()
        .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
        .expect("register echo");
    assert!(server_orb.adapter().set_policy(
        &ObjectKey::from("echo"),
        ServerPolicy::builder().max_throughput_bps(64_000).build(),
    ));
    let server = server_orb.listen_chorus("chaos-endpoint").expect("listen");

    // Client: retry + fault plan + telemetry, all through OrbConfig.
    let config = OrbConfig {
        call_timeout: CALL_TIMEOUT,
        telemetry: Some(Arc::clone(&registry)),
        retry: Some(RetryPolicy {
            max_attempts: 4,
            initial_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
            jitter: 0.2,
            seed,
            budget: Duration::from_secs(2),
        }),
        fault_plans: Some(Arc::new(PlanSet::default().with_default(seeded_plan(seed)))),
        ..OrbConfig::default()
    };
    let client_orb = Orb::with_exchange_and_config("chaos-client", exchange, config);
    let stub = client_orb.bind(&server.object_ref("echo")).expect("bind");

    // Preferred QoS (1 Mbit/s, at least 800 kbit/s) is infeasible against
    // the 64 kbit/s policy; the first ladder rung still is (min 128k);
    // the second fits. The first invocation must walk both rungs.
    stub.set_qos_parameter(
        QoSSpec::builder()
            .throughput_bps(1_000_000, 800_000, 2_000_000)
            .build(),
    )
    .expect("client-side spec install");
    stub.set_qos_ladder(vec![
        QoSSpec::builder()
            .throughput_bps(256_000, 128_000, 512_000)
            .build(),
        QoSSpec::builder()
            .throughput_bps(64_000, 1_000, 64_000)
            .build(),
    ]);

    let mut ok = 0u32;
    let mut ok_in_last_100 = 0u32;
    let mut attributed_failures = 0u32;
    let mut timed_out_ids = Vec::new();
    for i in 0..CALLS {
        let started = Instant::now();
        let result = stub.invoke("echo", Bytes::from(i.to_be_bytes().to_vec()));
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "call {i} took {elapsed:?}: the run must never hang"
        );
        match result {
            Ok(_) => {
                ok += 1;
                if i >= CALLS - 100 {
                    ok_in_last_100 += 1;
                }
            }
            // Attributed failure modes: a dropped request surfaces as a
            // timeout carrying its request id (at-most-once forbids a
            // blind replay), a sever as Transport/Closed until the
            // reconnect lands, an exhausted ladder as the QoS NACK.
            Err(OrbError::Timeout(t)) => {
                attributed_failures += 1;
                if let Some(id) = t.request_id() {
                    timed_out_ids.push(id);
                }
            }
            Err(OrbError::Transport(_))
            | Err(OrbError::Closed)
            | Err(OrbError::QosNotSupported(_))
            | Err(OrbError::RetriesExhausted { .. }) => attributed_failures += 1,
            Err(other) => panic!("unattributed failure at call {i}: {other:?}"),
        }
    }

    let degradation_steps = stub.degradation_steps().len();
    server.close();
    client_orb.shutdown();

    let snap = registry.snapshot();
    let kind = |k: &str| {
        snap.counter(&format!("{}{{kind=\"{k}\"}}", names::FAULTS_INJECTED_TOTAL))
            .unwrap_or(0)
    };
    ChaosRun {
        ok,
        ok_in_last_100,
        attributed_failures,
        degradation_steps,
        retries: snap.counter(names::RETRIES_TOTAL).unwrap_or(0),
        reconnects: snap.counter(names::RECONNECTS_TOTAL).unwrap_or(0),
        qos_degradations: snap.counter(names::QOS_DEGRADATIONS_TOTAL).unwrap_or(0),
        faults: FaultCounts {
            total: snap.counter(names::FAULTS_INJECTED_TOTAL).unwrap_or(0),
            drop: kind("drop"),
            corrupt: kind("corrupt"),
            sever: kind("sever"),
        },
        timed_out_ids,
        rendered: snap.render_prometheus() + &server_registry.render_prometheus(),
        registry,
    }
}

#[test]
fn chaos_run_degrades_heals_and_attributes_every_failure() {
    let run = run_chaos(SEED);
    // Any assertion failure below dumps the event log to chaos-flight.json.
    let _dump = FlightDump(Arc::clone(&run.registry));

    assert_eq!(
        run.ok + run.attributed_failures,
        CALLS,
        "every call accounted for"
    );
    assert!(
        run.ok > CALLS - 100,
        "under ~1% loss the vast majority of calls succeed: {} ok",
        run.ok
    );
    assert!(
        run.ok_in_last_100 > 0,
        "calls keep succeeding after the mid-run sever (the reconnect healed the binding)"
    );

    // The sever fired exactly once and the retry machinery healed it.
    assert_eq!(run.faults.sever, 1, "{:?}", run.faults);
    assert!(run.reconnects >= 1, "at least one automatic reconnect");
    assert!(run.retries >= 1, "the sever-hit call was retried");

    // The NACKed preferred spec walked the ladder: the infeasible first
    // rung, then the feasible second.
    assert_eq!(run.degradation_steps, 2, "both ladder rungs consumed");
    assert_eq!(run.qos_degradations, 2);

    // The plan actually injected drops (1% over ~1000 frames).
    assert!(run.faults.drop >= 1, "{:?}", run.faults);
    assert_eq!(
        run.faults.total,
        run.faults.drop + run.faults.corrupt + run.faults.sever,
        "every injected fault is one of the planned kinds: {:?}",
        run.faults
    );

    // The flight recorder attributes every timed-out request to the
    // fault that killed it: a request can only vanish here because the
    // engine dropped or corrupted its frame, and the recorder logged
    // that with the GIOP request id at injection time.
    let events = run.registry.flight().events();
    assert!(
        run.timed_out_ids.len() as u64 <= run.faults.drop + run.faults.corrupt,
        "more timeouts than lossy faults: {:?} vs {:?}",
        run.timed_out_ids,
        run.faults
    );
    for id in &run.timed_out_ids {
        assert!(
            events
                .iter()
                .any(|e| e.kind == flight_event::FAULT_INJECTED && e.request_id == Some(*id)),
            "timed-out request {id} has no fault_injected flight event; events: {events:?}"
        );
    }
    // The reconnect that healed the sever also left its mark.
    assert!(
        events.iter().any(|e| e.kind == flight_event::RECONNECT),
        "reconnect must be on the flight record: {events:?}"
    );
    assert!(
        events.iter().any(|e| e.kind == flight_event::QOS_DEGRADE),
        "ladder steps must be on the flight record: {events:?}"
    );
    assert_eq!(run.registry.flight().dropped(), 0, "ring must not wrap");

    let missing: Vec<&str> = names::ALL
        .iter()
        .copied()
        .filter(|name| !REPLICATION.contains(name))
        .filter(|name| !run.rendered.contains(&format!("# TYPE {name} ")))
        .collect();
    assert!(
        missing.is_empty(),
        "emitted by no run of this scenario: {missing:?}"
    );
}

#[test]
fn same_seed_injects_bit_identical_fault_counts() {
    let first = run_chaos(SEED);
    let second = run_chaos(SEED);
    assert_eq!(
        first.faults, second.faults,
        "the fault sequence is a pure function of the plan seed"
    );
    assert_eq!(first.degradation_steps, second.degradation_steps);
}
