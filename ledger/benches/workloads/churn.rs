//! `qos_churn`: the paper's flexibility claim as a workload. One op binds a
//! Da CaPo endpoint, sets a QoS, calls, sets another QoS (per-method QoS,
//! so the transport reconfigures), calls again and shuts the binding down.
//! Da CaPo's in-process transport, no netsim shaping.

use super::orb_config;
use crate::harness::{Meter, Tracing, WindowResult, Workload, HANG_BOUND};
use crate::host;
use crate::payload::{op_of, stamped};
use crate::rng::{Rng, SpecOrder};
use crate::trace::{self, Recorder};
use crate::yard::Pace;
use cool_orb::prelude::*;
use multe_qos::Reliability;
use std::sync::Arc;
use std::time::{Duration, Instant};

const OBJECT: &str = "svc";
const ENDPOINT: &str = "churn";

/// The warm-up asks for every spec of the table once, in table order, two
/// a cycle. A cycle takes ~100 ms (each stack teardown waits out Da CaPo's
/// 25 ms `shutdown_grace`), so the usual 2 000 warm-up ops would take
/// minutes; and how long a cycle takes depends on its two specs, so a
/// seeded warm-up would make `setup_s` a property of the seed.
fn warmup_pairs(specs: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..specs).step_by(2).map(move |i| (i, (i + 1) % specs))
}

/// The server's end of a Da CaPo connection is not released when the
/// client closes its end: module threads and admission grants stay until
/// `OrbServer::close`. Restarting the listener this often keeps the
/// workload inside the 155 Mbit/s admission budget and the thread count
/// bounded. See README.md, "Findings".
const RESTART_SERVER_EVERY: u64 = 16;

/// One entry of the spec table: the spec to ask for, the fallback ladder
/// under it, and the grant the server must end up giving.
struct SpecCase {
    spec: QoSSpec,
    ladder: Vec<QoSSpec>,
    expect: GrantedQoS,
}

fn server_policy() -> ServerPolicy {
    ServerPolicy::builder()
        .max_throughput_bps(10_000_000)
        .min_latency_us(100)
        .min_jitter_us(10)
        .max_reliability(Reliability::Reliable)
        .supports_ordering(true)
        .supports_encryption(true)
        .build()
}

/// Eight feasible specs, then one whose first rung the server NACKs
/// (it wants at least 11 Mbit/s from a 10 Mbit/s server) so the stub's
/// ladder steps down exactly one rung. Bandwidths stay small: both ends of
/// a connection reserve against one 155 Mbit/s budget, and the previous
/// cycle's server end may still hold its share when the next cycle binds.
fn spec_table() -> Result<Vec<SpecCase>, String> {
    let b = QoSSpec::builder;
    let ms = Duration::from_millis;
    let feasible = vec![
        b().throughput_bps(1_000_000, 0, i32::MAX).build(),
        b().reliability(Reliability::Checked).build(),
        b().ordered(true).build(),
        b().throughput_bps(2_000_000, 0, i32::MAX)
            .reliability(Reliability::Checked)
            .build(),
        b().reliability(Reliability::Reliable).build(),
        b().encrypted(true).build(),
        b().reliability(Reliability::Checked)
            .ordered(true)
            .latency(ms(10), Duration::ZERO, ms(1000))
            .build(),
        b().throughput_bps(4_000_000, 0, i32::MAX)
            .ordered(true)
            .encrypted(true)
            .build(),
    ];
    let nacked = b().throughput_bps(12_000_000, 11_000_000, i32::MAX).build();
    let fallback = b()
        .throughput_bps(5_000_000, 0, i32::MAX)
        .reliability(Reliability::Checked)
        .build();

    let policy = server_policy();
    let mut table = Vec::new();
    for spec in feasible {
        let expect = policy
            .negotiate(&spec)
            .map_err(|e| format!("spec table: {spec:?} is not feasible: {e}"))?;
        table.push(SpecCase {
            spec,
            ladder: Vec::new(),
            expect,
        });
    }
    let rungs = [nacked.clone(), fallback.clone()];
    match policy.negotiate_ladder(&rungs) {
        Ok((1, expect)) => table.push(SpecCase {
            spec: nacked,
            ladder: vec![fallback],
            expect,
        }),
        other => {
            return Err(format!(
                "spec table: the NACK spec must land on rung 1, got {other:?}"
            ))
        }
    }
    Ok(table)
}

pub struct QosChurn {
    server_orb: Arc<Orb>,
    server: OrbServer,
    client_orb: Arc<Orb>,
    reference: ObjectRef,
    table: Vec<SpecCase>,
    order: SpecOrder,
    template: Vec<u8>,
    next_cycle: u64,
    recorder: Option<Arc<Recorder>>,
}

impl QosChurn {
    /// `set_qos_parameter(case)` then one verified 256-byte echo.
    fn call_with(&self, stub: &Stub, case: &SpecCase, op: u64) -> Result<(), String> {
        let recorder = self.recorder.as_deref();
        {
            let _span = trace::enter(recorder, "set_qos", op);
            stub.set_qos_parameter(case.spec.clone())
                .map_err(|e| format!("set qos: {e}"))?;
            stub.set_qos_ladder(case.ladder.clone());
        }
        let payload = stamped(&self.template, op);
        let reply = {
            let _span = trace::enter(recorder, "call", op);
            stub.invoke("echo", payload.clone())
                .map_err(|e| format!("invoke: {e}"))?
        };
        if reply != payload {
            return Err("echo reply differs from the request".to_owned());
        }
        let granted = stub.last_granted();
        if granted.as_ref() != Some(&case.expect) {
            return Err(format!("granted {granted:?}, expected {:?}", case.expect));
        }
        Ok(())
    }

    fn cycle(&mut self) -> Result<(), String> {
        let (first, second) = self.order.next_pair();
        self.cycle_of(first, second)
    }

    fn cycle_of(&mut self, first: usize, second: usize) -> Result<(), String> {
        let op = self.next_cycle * 2;
        self.next_cycle += 1;
        let recorder = self.recorder.as_deref();
        let stub = {
            let _span = trace::enter(recorder, "bind", op);
            self.client_orb
                .bind(&self.reference)
                .map_err(|e| format!("bind: {e}"))?
        };
        stub.set_timeout(HANG_BOUND);
        let outcome = self
            .call_with(&stub, &self.table[first], op)
            .and_then(|()| self.call_with(&stub, &self.table[second], op + 1));
        {
            let _span = trace::enter(recorder, "shutdown", op);
            self.client_orb.shutdown();
        }
        outcome
    }

    fn restart_server(&mut self) -> Result<(), String> {
        let _span = trace::enter(
            self.recorder.as_deref(),
            "server.restart",
            self.next_cycle * 2,
        );
        self.server.close();
        self.server = self
            .server_orb
            .listen_dacapo(ENDPOINT)
            .map_err(|e| format!("listen again: {e}"))?;
        Ok(())
    }
}

impl Workload for QosChurn {
    /// 3 ms of CPU in a 100 ms cycle; the rest is Da CaPo's 25 ms
    /// `shutdown_grace`, four times.
    const PACE: Pace = Pace::Timers;

    fn setup(seed: u64, tracing: Option<&Tracing>) -> Result<Self, String> {
        let exchange = LocalExchange::new();
        let config = orb_config(tracing);
        let server_orb =
            Orb::with_exchange_and_config("ledger-churn-server", exchange.clone(), config.clone());
        let recorder = tracing.map(|t| Arc::clone(&t.recorder));
        let servant_recorder = recorder.clone();
        let echo =
            move |_op: &str, args: &[u8], _ctx: &InvocationCtx| -> Result<Vec<u8>, OrbError> {
                let _span = trace::enter(
                    servant_recorder.as_deref(),
                    "servant",
                    op_of(args).unwrap_or(0),
                );
                Ok(args.to_vec())
            };
        server_orb
            .adapter()
            .register_with_policy(
                OBJECT,
                Arc::new(cool_orb::servant::FnServant::new(echo)),
                server_policy(),
            )
            .map_err(|e| format!("register servant: {e}"))?;
        let server = server_orb
            .listen_dacapo(ENDPOINT)
            .map_err(|e| format!("listen: {e}"))?;
        let reference = server.object_ref(OBJECT);
        let client_orb = Orb::with_exchange_and_config("ledger-churn-client", exchange, config);
        let table = spec_table()?;
        let mut me = QosChurn {
            server_orb,
            server,
            client_orb,
            reference,
            order: SpecOrder::new(seed, table.len()),
            table,
            template: Rng::lane(seed, 0x03).bytes(256),
            next_cycle: 0,
            recorder,
        };
        for (first, second) in warmup_pairs(me.table.len()) {
            me.cycle_of(first, second)?;
        }
        Ok(me)
    }

    fn run(&mut self, window: Duration) -> WindowResult {
        let cpu_before = host::cpu_time();
        let mut meter = Meter::start(window);
        // Threads the server has gathered since its listener last started;
        // a restart reclaims them, so they are counted before each one.
        let mut threads_floor = host::thread_count();
        let mut leaked = 0;
        while meter.open() {
            let issued = Instant::now();
            match self.cycle() {
                // Two 256-byte payloads delivered and verified per cycle.
                Ok(()) => meter.completed(issued, 2 * self.template.len()),
                Err(why) => meter.failed(issued, &why),
            }
            if self.next_cycle.is_multiple_of(RESTART_SERVER_EVERY) {
                leaked += host::thread_count().saturating_sub(threads_floor);
                if let Err(why) = self.restart_server() {
                    meter.failed(Instant::now(), &why);
                    break;
                }
                threads_floor = host::thread_count();
            }
        }
        leaked += host::thread_count().saturating_sub(threads_floor);
        let mut result = WindowResult::collect(vec![meter], cpu_before);
        result.layer.push(("dacapo.threads_leaked", leaked as f64));
        result
    }

    fn teardown(self) -> u64 {
        self.client_orb.shutdown();
        self.server.close();
        self.server_orb.shutdown();
        0
    }
}
