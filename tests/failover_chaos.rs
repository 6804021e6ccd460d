//! Failover chaos end-to-end: a replicated service under fault load with
//! replicas killed and restarted mid-run.
//!
//! Three chorus-transport echo replicas register offered QoS ladders with
//! a directory service that is itself served over the ORB; the client
//! resolves by name + required QoS and binds the resulting candidate set
//! as one [`ResolvedStub`]. Mid-run the active replica is killed: pending
//! traffic must fail over transparently, the dead replica must trip its
//! circuit breaker and be evicted, and — once restarted under the same
//! name — be re-admitted by the background prober. Every call in every
//! phase must succeed, degrade, or fail *attributed*, and never hang.
//!
//! A separate test pins determinism: with the prober off and a seeded
//! per-target fault plan, two identical runs inject bit-identical fault
//! counts.

use bytes::Bytes;
use multe::naming::{candidates, DirectoryClient, DirectoryServer};
use multe::orb::prelude::*;
use multe::telemetry::flight::event as flight_event;
use multe::telemetry::{names, Registry};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 0xFA11_0FEE;
/// Per-call hang bound: every failure mode must surface well inside it.
const HANG_BOUND: Duration = Duration::from_secs(5);

fn preferred() -> QoSSpec {
    QoSSpec::builder()
        .throughput_bps(1_000_000, 800_000, 2_000_000)
        .build()
}

fn mid() -> QoSSpec {
    QoSSpec::builder()
        .throughput_bps(256_000, 100_000, 500_000)
        .build()
}

fn low() -> QoSSpec {
    QoSSpec::builder()
        .throughput_bps(64_000, 1_000, 64_000)
        .build()
}

/// What the client tells the directory it minimally needs: satisfied by
/// every replica's offered ladder, so all three come back as candidates.
fn required_floor() -> QoSSpec {
    QoSSpec::builder()
        .throughput_bps(64_000, 1_000, 2_000_000)
        .build()
}

/// One echo replica under `name`, with `policy` governing what QoS it
/// grants.
fn spawn_replica(
    exchange: &LocalExchange,
    name: &str,
    policy: ServerPolicy,
) -> (Arc<Orb>, OrbServer) {
    let orb = Orb::with_exchange(&format!("replica-{name}"), exchange.clone());
    orb.adapter()
        .register_fn("svc", |_op, args, _ctx| Ok(args.to_vec()))
        .expect("register servant");
    orb.adapter().set_policy(&"svc".into(), policy);
    let server = orb.listen_chorus(name).expect("listen");
    (orb, server)
}

/// Dumps the flight recorder while unwinding, so a red run leaves the
/// event log naming every failover, eviction and injected fault behind.
struct FlightDump(Arc<Registry>);

impl Drop for FlightDump {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let path =
                std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("failover-flight.json");
            if std::fs::write(&path, self.0.flight().to_json()).is_ok() {
                eprintln!(
                    "failover_chaos: flight recorder dumped to {}",
                    path.display()
                );
            }
        }
    }
}

struct Accounting {
    ok: u32,
    attributed: u32,
}

/// Runs `count` calls against the resolved stub, enforcing the full
/// accounting contract: every call succeeds or fails attributed inside
/// the hang bound.
fn run_calls(resolved: &ResolvedStub, count: u32, phase: &str, acc: &mut Accounting) {
    for i in 0..count {
        let started = Instant::now();
        let result = resolved.invoke("echo", Bytes::from(i.to_be_bytes().to_vec()));
        let elapsed = started.elapsed();
        assert!(
            elapsed < HANG_BOUND,
            "{phase} call {i} took {elapsed:?}: the hang bound is broken"
        );
        match result {
            Ok(body) => {
                assert_eq!(&body[..], &i.to_be_bytes()[..], "{phase} call {i} echo");
                acc.ok += 1;
            }
            Err(OrbError::Timeout { .. })
            | Err(OrbError::Transport(_))
            | Err(OrbError::Closed)
            | Err(OrbError::QosNotSupported(_))
            | Err(OrbError::RetriesExhausted { .. }) => acc.attributed += 1,
            Err(other) => panic!("{phase} call {i} failed unattributed: {other:?}"),
        }
    }
}

/// Polls `probe` every 10 ms until it holds or `deadline` passes.
fn wait_for(deadline: Duration, what: &str, mut probe: impl FnMut() -> bool) {
    let started = Instant::now();
    while !probe() {
        assert!(
            started.elapsed() < deadline,
            "timed out after {deadline:?} waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn client_config(registry: Arc<Registry>, fault_plans: Option<Arc<PlanSet>>) -> OrbConfig {
    OrbConfig {
        call_timeout: Duration::from_millis(150),
        telemetry: Some(registry),
        retry: Some(RetryPolicy {
            max_attempts: 3,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
            budget: Duration::from_secs(1),
            ..RetryPolicy::default()
        }),
        fault_plans,
        failover: FailoverPolicy {
            probe_period: Duration::from_millis(20),
            probe_timeout: Duration::from_millis(50),
            suspect_threshold: 2,
            readmit_backoff: Duration::from_millis(100),
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(80),
        },
        ..OrbConfig::default()
    }
}

#[test]
fn replicated_service_survives_kill_and_restart_under_faults() {
    let exchange = LocalExchange::new();

    // Three replicas: a and c grant anything, b caps throughput at the
    // lowest rung so a failover onto it must walk the degradation ladder.
    let mut servers: HashMap<String, (Arc<Orb>, OrbServer)> = HashMap::new();
    let mut to_register: Vec<(ObjectRef, Vec<QoSSpec>)> = Vec::new();
    for (name, policy, offered) in [
        (
            "rep-a",
            ServerPolicy::permissive(),
            vec![preferred(), mid(), low()],
        ),
        (
            "rep-b",
            ServerPolicy::builder().max_throughput_bps(64_000).build(),
            vec![low()],
        ),
        (
            "rep-c",
            ServerPolicy::permissive(),
            vec![preferred(), mid(), low()],
        ),
    ] {
        let (orb, server) = spawn_replica(&exchange, name, policy);
        to_register.push((server.object_ref("svc"), offered));
        servers.insert(format!("chorus://{name}"), (orb, server));
    }

    // The directory itself is an ORB object: registrations and resolves
    // are GIOP traffic like any other call.
    let dir_orb = Orb::with_exchange("directory-host", exchange.clone());
    let dir_server = dir_orb
        .listen_chorus("directory")
        .expect("directory listen");
    let directory_ref = DirectoryServer::serve(&dir_orb, &dir_server).expect("serve directory");

    let registry = Arc::new(Registry::new());
    let _dump = FlightDump(Arc::clone(&registry));
    // Fault load on one replica: seeded delays (inside the call timeout,
    // so they add jitter without changing outcomes), one refused dial and
    // one mid-run sever — the reconnect/failover paths must absorb all
    // three kinds.
    let plans = PlanSet::default().set(
        "chorus://rep-c",
        FaultPlan::builder()
            .seed(SEED)
            .delay(0.05, Duration::from_millis(5))
            .refuse_connects(1)
            .sever_after(Some(200))
            .build()
            .expect("valid plan"),
    );
    let client = Orb::with_exchange_and_config(
        "client",
        exchange.clone(),
        client_config(Arc::clone(&registry), Some(Arc::new(plans))),
    );

    let dir_client = DirectoryClient::connect(&client, &directory_ref).expect("connect directory");
    for (reference, offered) in &to_register {
        dir_client
            .register("echo-service", reference, offered)
            .expect("register replica");
    }

    let replicas = dir_client
        .resolve("echo-service", &required_floor())
        .expect("resolve");
    assert_eq!(replicas.len(), 3, "all replicas satisfy the floor");

    let resolved = client
        .bind_resolved(&candidates(&replicas), preferred(), vec![mid(), low()])
        .expect("bind resolved");

    let mut acc = Accounting {
        ok: 0,
        attributed: 0,
    };

    // Phase 1: steady state.
    run_calls(&resolved, 150, "steady", &mut acc);
    assert!(acc.ok >= 1, "steady phase produced no successful calls");

    // Phase 2: kill the replica actually serving traffic.
    let active = resolved
        .active_replica()
        .expect("an active replica after traffic")
        .addr
        .to_string();
    let (_dead_orb, dead_server) = servers.remove(&active).expect("active maps to a server");
    dead_server.close();
    run_calls(&resolved, 150, "after-kill", &mut acc);

    let snap = registry.snapshot();
    assert!(
        snap.counter(names::FAILOVERS_TOTAL).unwrap_or(0) >= 1,
        "killing the active replica must cause at least one failover"
    );

    // The prober keeps hammering the corpse: breaker opens, then the
    // replica is evicted from rotation.
    wait_for(Duration::from_secs(3), "breaker-open + eviction", || {
        let snap = registry.snapshot();
        snap.counter(names::REPLICA_EVICTIONS_TOTAL).unwrap_or(0) >= 1
            && registry
                .flight()
                .to_json()
                .contains(flight_event::BREAKER_OPEN)
    });

    // Phase 3: restart under the same name; the prober re-admits it.
    let name = active.trim_start_matches("chorus://").to_string();
    let policy = if name == "rep-b" {
        ServerPolicy::builder().max_throughput_bps(64_000).build()
    } else {
        ServerPolicy::permissive()
    };
    let revived = spawn_replica(&exchange, &name, policy);
    servers.insert(active.clone(), revived);
    wait_for(Duration::from_secs(3), "re-admission", || {
        registry
            .snapshot()
            .counter(names::REPLICA_READMISSIONS_TOTAL)
            .unwrap_or(0)
            >= 1
    });

    let ok_before_final = acc.ok;
    run_calls(&resolved, 100, "after-restart", &mut acc);
    assert!(
        acc.ok > ok_before_final,
        "calls after re-admission must succeed again"
    );

    // The names only this scenario emits (`tests/chaos.rs` checks the
    // rest of `names::ALL`) are in the client's render.
    let rendered = registry.render_prometheus();
    let missing: Vec<&str> = [
        names::FAILOVERS_TOTAL,
        names::REPLICA_EVICTIONS_TOTAL,
        names::REPLICA_READMISSIONS_TOTAL,
        names::BREAKER_STATE,
        names::REPLICAS_HEALTHY,
        names::RESOLVE_LATENCY_US,
    ]
    .into_iter()
    .filter(|name| !rendered.contains(&format!("# TYPE {name} ")))
    .collect();
    assert!(
        missing.is_empty(),
        "emitted by no run of this scenario: {missing:?}"
    );

    resolved.close();
    for (_, (_, server)) in servers {
        server.close();
    }
    dir_server.close();
    client.shutdown();
}

/// One prober-free run against a single faulty replica, returning the
/// injected (drop, delay) fault counts.
fn deterministic_run(seed: u64) -> (u64, u64, u32, u32) {
    let exchange = LocalExchange::new();
    let (_orb, server) = spawn_replica(&exchange, "det-a", ServerPolicy::permissive());
    let registry = Arc::new(Registry::new());
    let plans = PlanSet::default().set(
        "chorus://det-a",
        FaultPlan::builder()
            .seed(seed)
            .drop_rate(0.05)
            .delay(0.2, Duration::from_millis(2))
            .build()
            .expect("valid plan"),
    );
    let mut config = client_config(Arc::clone(&registry), Some(Arc::new(plans)));
    // No background prober: its probe frames would race the call stream
    // and perturb the per-frame fault schedule.
    config.failover.probe_period = Duration::ZERO;
    let client = Orb::with_exchange_and_config("client", exchange, config);
    let resolved = client
        .bind_resolved(
            &[ReplicaCandidate {
                reference: server.object_ref("svc"),
                match_rung: 0,
            }],
            QoSSpec::best_effort(),
            Vec::new(),
        )
        .expect("bind");
    let mut acc = Accounting {
        ok: 0,
        attributed: 0,
    };
    run_calls(&resolved, 200, "deterministic", &mut acc);
    resolved.close();
    server.close();
    client.shutdown();
    let snap = registry.snapshot();
    let kind = |k: &str| {
        snap.counter(&format!("{}{{kind=\"{k}\"}}", names::FAULTS_INJECTED_TOTAL))
            .unwrap_or(0)
    };
    (kind("drop"), kind("delay"), acc.ok, acc.attributed)
}

/// Same seed, same call stream, prober off → bit-identical fault counts.
#[test]
fn per_target_fault_schedule_is_deterministic() {
    let first = deterministic_run(SEED);
    let second = deterministic_run(SEED);
    assert_eq!(first, second, "seeded per-target runs must match exactly");
    assert!(
        first.0 + first.1 > 0,
        "the plan must actually inject faults: {first:?}"
    );
}
