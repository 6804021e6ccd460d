//! `replica_failover`: the only workload that leaves the fast path. Three
//! Chorus replicas are registered in a directory; one caller invokes
//! through the resolved binding while the active replica is killed (and
//! later restarted) on a seeded schedule, between calls. All in-process
//! Chorus ports.

use super::orb_config;
use crate::harness::{Meter, Tracing, WindowResult, Workload, WARMUP_OPS};
use crate::host;
use crate::payload::{op_of, stamped};
use crate::rng::{KillSchedule, Rng};
use crate::stats;
use crate::trace::{self, Recorder};
use crate::yard::Pace;
use cool_naming::{candidates, DirectoryClient, DirectoryServer};
use cool_orb::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

const OBJECT: &str = "svc";
const REPLICAS: usize = 3;
const KILL_PERIOD: Duration = Duration::from_millis(500);

/// Retry and failover thresholds as in `bench --bin failover`: the
/// production defaults (quarter-second probes, one-second re-admission)
/// would leave killed replicas out for most of a 500 ms kill period.
fn client_config(tracing: Option<&Tracing>) -> OrbConfig {
    OrbConfig {
        call_timeout: Duration::from_millis(150),
        retry: Some(RetryPolicy {
            max_attempts: 3,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
            budget: Duration::from_secs(1),
            ..RetryPolicy::default()
        }),
        failover: FailoverPolicy {
            probe_period: Duration::from_millis(20),
            probe_timeout: Duration::from_millis(50),
            suspect_threshold: 2,
            readmit_backoff: Duration::from_millis(100),
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(80),
        },
        ..orb_config(tracing)
    }
}

struct Replica {
    name: String,
    orb: Arc<Orb>,
    /// `None` while the replica is down.
    server: Option<OrbServer>,
}

pub struct ReplicaFailover {
    exchange: LocalExchange,
    server_config: OrbConfig,
    replicas: Vec<Replica>,
    directory_orb: Arc<Orb>,
    directory_server: OrbServer,
    client_orb: Arc<Orb>,
    stub: Arc<ResolvedStub>,
    template: Vec<u8>,
    next_op: u64,
    /// The kill schedule runs on the workload's own clock, the time spent
    /// inside windows so far, so that kills keep their period however the
    /// runner cuts the time into windows.
    schedule: KillSchedule,
    /// Offset on that clock of the next kill, and how long it lasts.
    next_event: (Duration, Duration),
    /// What earlier windows put on that clock.
    metered: Duration,
    recorder: Option<Arc<Recorder>>,
}

fn start_replica(
    exchange: &LocalExchange,
    config: &OrbConfig,
    name: &str,
    recorder: Option<Arc<Recorder>>,
) -> Result<(Arc<Orb>, OrbServer), String> {
    let orb =
        Orb::with_exchange_and_config(&format!("ledger-{name}"), exchange.clone(), config.clone());
    orb.adapter()
        .register_fn(OBJECT, move |_operation, args, _ctx| {
            let _span = trace::enter(recorder.as_deref(), "servant", op_of(args).unwrap_or(0));
            Ok(args.to_vec())
        })
        .map_err(|e| format!("register servant: {e}"))?;
    let server = orb
        .listen_chorus(name)
        .map_err(|e| format!("listen {name}: {e}"))?;
    Ok((orb, server))
}

/// How a call that did not verify ended.
enum CallError {
    /// An error that names its cause, as a call that meets a killed replica
    /// may end (the set `tests/failover_chaos.rs` accepts).
    Attributed(String),
    /// A wrong reply, or an error no failover explains.
    Wrong(String),
}

impl ReplicaFailover {
    fn call(&mut self) -> (Instant, usize, Result<(), CallError>) {
        let op = self.next_op;
        self.next_op += 1;
        let payload = stamped(&self.template, op);
        let issued = Instant::now();
        let span = trace::enter(self.recorder.as_deref(), "call", op);
        let reply = self.stub.invoke("echo", payload.clone());
        drop(span);
        let verdict = match reply {
            Ok(reply) if reply == payload => Ok(()),
            Ok(_) => Err(CallError::Wrong(
                "echo reply differs from the request".to_owned(),
            )),
            Err(
                e @ (OrbError::Timeout { .. }
                | OrbError::Transport(_)
                | OrbError::Closed
                | OrbError::QosNotSupported(_)
                | OrbError::RetriesExhausted { .. }),
            ) => Err(CallError::Attributed(e.to_string())),
            Err(e) => Err(CallError::Wrong(e.to_string())),
        };
        (issued, payload.len(), verdict)
    }

    /// Closes the replica serving traffic; returns its index.
    fn kill_active(&mut self) -> Option<usize> {
        let active = self.stub.active_replica()?;
        let index = self
            .replicas
            .iter()
            .position(|r| r.name == active.addr.target())?;
        let server = self.replicas[index].server.take()?;
        server.close();
        self.replicas[index].orb.shutdown();
        Some(index)
    }

    fn restart(&mut self, index: usize) {
        let name = self.replicas[index].name.clone();
        match start_replica(
            &self.exchange,
            &self.server_config,
            &name,
            self.recorder.clone(),
        ) {
            Ok((orb, server)) => {
                self.replicas[index].orb = orb;
                self.replicas[index].server = Some(server);
            }
            Err(why) => eprintln!("ledger: restart of {name} failed: {why}"),
        }
    }
}

impl Workload for ReplicaFailover {
    const PACE: Pace = Pace::Handoffs;

    fn setup(seed: u64, tracing: Option<&Tracing>) -> Result<Self, String> {
        let exchange = LocalExchange::new();
        let server_config = orb_config(tracing);
        let recorder = tracing.map(|t| Arc::clone(&t.recorder));

        let directory_orb = Orb::with_exchange_and_config(
            "ledger-directory",
            exchange.clone(),
            server_config.clone(),
        );
        let directory_server = directory_orb
            .listen_chorus("directory")
            .map_err(|e| format!("listen: {e}"))?;
        let directory_ref = DirectoryServer::serve(&directory_orb, &directory_server)
            .map_err(|e| format!("serve directory: {e}"))?;

        let offered = [QoSSpec::best_effort()];
        let mut replicas = Vec::new();
        for i in 0..REPLICAS {
            let name = format!("replica-{i}");
            let (orb, server) = start_replica(&exchange, &server_config, &name, recorder.clone())?;
            DirectoryClient::connect(&orb, &directory_ref)
                .and_then(|dir| dir.register(OBJECT, &server.object_ref(OBJECT), &offered))
                .map_err(|e| format!("register {name}: {e}"))?;
            replicas.push(Replica {
                name,
                orb,
                server: Some(server),
            });
        }

        let client_orb = Orb::with_exchange_and_config(
            "ledger-client",
            exchange.clone(),
            client_config(tracing),
        );
        let required = QoSSpec::best_effort();
        let resolved = {
            let _span = trace::enter(recorder.as_deref(), "resolve", 0);
            DirectoryClient::connect(&client_orb, &directory_ref)
                .and_then(|dir| dir.resolve(OBJECT, &required))
                .map_err(|e| format!("resolve: {e}"))?
        };
        if resolved.len() != REPLICAS {
            return Err(format!(
                "directory resolved {} replicas, expected {REPLICAS}",
                resolved.len()
            ));
        }
        let stub = {
            let _span = trace::enter(recorder.as_deref(), "bind", 0);
            client_orb
                .bind_resolved(&candidates(&resolved), required, Vec::new())
                .map_err(|e| format!("bind resolved: {e}"))?
        };

        let mut schedule = KillSchedule::new(seed, KILL_PERIOD);
        let mut me = ReplicaFailover {
            exchange,
            server_config,
            replicas,
            directory_orb,
            directory_server,
            client_orb,
            stub,
            template: Rng::lane(seed, 0x04).bytes(64),
            next_op: 1,
            next_event: schedule.next_event(),
            schedule,
            metered: Duration::ZERO,
            recorder,
        };
        for _ in 0..WARMUP_OPS {
            if let Err(CallError::Attributed(why) | CallError::Wrong(why)) = me.call().2 {
                return Err(format!("warm-up: {why}"));
            }
        }
        Ok(me)
    }

    fn run(&mut self, window: Duration) -> WindowResult {
        let mut restart_due: Option<(Duration, usize)> = None;
        let mut killed_at: Option<Instant> = None;
        let mut blackouts_ns: Vec<u64> = Vec::new();

        let cpu_before = host::cpu_time();
        let mut meter = Meter::start(window);
        while meter.open() {
            let elapsed = self.metered + meter.elapsed();
            if let Some((due, index)) = restart_due {
                if elapsed >= due {
                    self.restart(index);
                    restart_due = None;
                }
            }
            let (next_kill, down_for) = self.next_event;
            if elapsed >= next_kill && restart_due.is_none() {
                if let Some(index) = self.kill_active() {
                    killed_at = Some(Instant::now());
                    restart_due = Some((elapsed + down_for, index));
                }
                self.next_event = self.schedule.next_event();
            }
            let (issued, bytes, verdict) = self.call();
            match verdict {
                Ok(()) => {
                    meter.completed(issued, bytes);
                    if let Some(at) = killed_at.take() {
                        blackouts_ns.push(at.elapsed().as_nanos() as u64);
                    }
                }
                Err(CallError::Attributed(why)) => meter.failed_attributed(issued, &why),
                Err(CallError::Wrong(why)) => meter.failed(issued, &why),
            }
        }
        if let Some((_, index)) = restart_due {
            self.restart(index);
        }
        self.metered += window;

        let mut result = WindowResult::collect(vec![meter], cpu_before);
        blackouts_ns.sort_unstable();
        if let Some(max) = blackouts_ns.last() {
            result
                .layer
                .push(("cool-orb.replica.kills", blackouts_ns.len() as f64));
            result.layer.push((
                "cool-orb.replica.blackout_p50_ms",
                stats::percentile(&blackouts_ns, 50.0) as f64 / 1e6,
            ));
            result
                .layer
                .push(("cool-orb.replica.blackout_max_ms", *max as f64 / 1e6));
        }
        result
    }

    fn teardown(self) -> u64 {
        self.stub.close();
        self.client_orb.shutdown();
        for replica in self.replicas {
            if let Some(server) = replica.server {
                server.close();
            }
            replica.orb.shutdown();
        }
        self.directory_server.close();
        self.directory_orb.shutdown();
        0
    }
}
