//! `rpc_small` and `rpc_load`: the same layers used two ways. Both cross
//! the kernel's loopback TCP between a server ORB and a client ORB in this
//! process.

use super::{orb_config, qos4_spec};
use crate::harness::{Meter, Tracing, WindowResult, Workload, HANG_BOUND, WARMUP_OPS};
use crate::host;
use crate::payload::{op_of, stamped};
use crate::rng::{LoadMix, OpKind, Rng, LOAD_SIZES};
use crate::trace::{self, Recorder, SpanGuard};
use crate::yard::Pace;
use bytes::Bytes;
use cool_orb::prelude::*;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const OBJECT: &str = "svc";

/// One-way arrivals as the servant saw them: how many, and the XOR of
/// their op ids.
#[derive(Default)]
struct Notes {
    count: AtomicU64,
    fold: AtomicU64,
}

/// A server ORB with the benchmark's servant (`echo` returns its argument,
/// `note` is the one-way sink) and a client ORB, joined by loopback TCP.
struct Pair {
    server_orb: Arc<Orb>,
    server: OrbServer,
    client_orb: Arc<Orb>,
    reference: ObjectRef,
    notes: Arc<Notes>,
    recorder: Option<Arc<Recorder>>,
}

impl Pair {
    fn new(tracing: Option<&Tracing>) -> Result<Self, String> {
        let exchange = LocalExchange::new();
        let config = orb_config(tracing);
        let server_orb =
            Orb::with_exchange_and_config("ledger-server", exchange.clone(), config.clone());
        let notes = Arc::new(Notes::default());
        let recorder = tracing.map(|t| Arc::clone(&t.recorder));
        let (servant_notes, servant_recorder) = (Arc::clone(&notes), recorder.clone());
        server_orb
            .adapter()
            .register_fn(OBJECT, move |operation, args, _ctx| {
                let op = op_of(args).unwrap_or(0);
                let _span = trace::enter(servant_recorder.as_deref(), "servant", op);
                if operation == "note" {
                    servant_notes.count.fetch_add(1, Ordering::Relaxed);
                    servant_notes.fold.fetch_xor(op, Ordering::Relaxed);
                    Ok(Vec::new())
                } else {
                    Ok(args.to_vec())
                }
            })
            .map_err(|e| format!("register servant: {e}"))?;
        let server = server_orb
            .listen_tcp("127.0.0.1:0")
            .map_err(|e| format!("listen: {e}"))?;
        let reference = server.object_ref(OBJECT);
        let client_orb = Orb::with_exchange_and_config("ledger-client", exchange, config);
        Ok(Pair {
            server_orb,
            server,
            client_orb,
            reference,
            notes,
            recorder,
        })
    }

    fn stub(&self) -> Result<Stub, String> {
        let stub = self
            .client_orb
            .bind(&self.reference)
            .map_err(|e| format!("bind: {e}"))?;
        stub.set_timeout(HANG_BOUND);
        Ok(stub)
    }

    fn close(self) {
        self.client_orb.shutdown();
        self.server.close();
        self.server_orb.shutdown();
    }
}

/// One caller, one connection, 64-byte two-way echoes, GIOP 1.0.
pub struct RpcSmall {
    pair: Pair,
    stub: Stub,
    template: Vec<u8>,
    next_op: u64,
}

impl RpcSmall {
    fn call(&mut self, meter: Option<&mut Meter>) -> Result<(), String> {
        let op = self.next_op;
        self.next_op += 1;
        let payload = stamped(&self.template, op);
        let issued = Instant::now();
        let span = trace::enter(self.pair.recorder.as_deref(), "call", op);
        let reply = self.stub.invoke("echo", payload.clone());
        drop(span);
        let verdict = match reply {
            Ok(reply) if reply == payload => Ok(()),
            Ok(_) => Err("echo reply differs from the request".to_owned()),
            Err(e) => Err(e.to_string()),
        };
        if let Some(meter) = meter {
            match &verdict {
                Ok(()) => meter.completed(issued, payload.len()),
                Err(why) => meter.failed(issued, why),
            }
        }
        verdict
    }
}

impl Workload for RpcSmall {
    const PACE: Pace = Pace::Handoffs;

    fn setup(seed: u64, tracing: Option<&Tracing>) -> Result<Self, String> {
        let pair = Pair::new(tracing)?;
        let stub = pair.stub()?;
        let mut me = RpcSmall {
            pair,
            stub,
            template: Rng::lane(seed, 0x01).bytes(64),
            next_op: 1,
        };
        for _ in 0..WARMUP_OPS {
            me.call(None)?;
        }
        Ok(me)
    }

    fn run(&mut self, window: Duration) -> WindowResult {
        let cpu_before = host::cpu_time();
        let mut meter = Meter::start(window);
        while meter.open() {
            let _ = self.call(Some(&mut meter));
        }
        WindowResult::collect(vec![meter], cpu_before)
    }

    fn teardown(self) -> u64 {
        self.pair.close();
        0
    }
}

/// Requests each `rpc_load` caller keeps outstanding.
const OUTSTANDING: usize = 16;

struct Pending<'a> {
    reply: DeferredReply,
    payload: Bytes,
    issued: Instant,
    span: Option<SpanGuard<'a>>,
}

/// One `rpc_load` caller: its stub, its seeded op stream, and what it has
/// sent one-way so far.
struct Caller {
    stub: Stub,
    mix: LoadMix,
    /// What every reply's granted QoS must equal (`None` on the plain stub).
    expect_granted: Option<GrantedQoS>,
    /// Caller index in the top byte keeps op ids unique across callers.
    next_op: u64,
    oneways_sent: u64,
    oneways_fold: u64,
}

impl Caller {
    fn verify(
        &self,
        payload: &Bytes,
        reply: &Bytes,
        granted: Option<&GrantedQoS>,
    ) -> Result<(), String> {
        if reply != payload {
            return Err("echo reply differs from the request".to_owned());
        }
        if granted != self.expect_granted.as_ref() {
            return Err(format!(
                "granted {granted:?}, expected {:?}",
                self.expect_granted
            ));
        }
        Ok(())
    }

    fn complete(&self, pending: Pending<'_>, meter: &mut Meter) {
        let Pending {
            reply,
            payload,
            issued,
            span,
        } = pending;
        let outcome = reply
            .wait(HANG_BOUND)
            .map_err(|e| e.to_string())
            .and_then(|(body, granted)| self.verify(&payload, &body, granted.as_ref()));
        drop(span);
        match outcome {
            Ok(()) => meter.completed(issued, payload.len()),
            Err(why) => meter.failed(issued, &why),
        }
    }

    /// Runs ops until `done` says stop, then collects what is outstanding.
    fn drive(
        &mut self,
        templates: &[Vec<u8>],
        recorder: Option<&Recorder>,
        meter: &mut Meter,
        mut done: impl FnMut(&Meter) -> bool,
    ) {
        let mut pending: VecDeque<Pending<'_>> = VecDeque::with_capacity(OUTSTANDING);
        while !done(meter) {
            let (kind, size) = self.mix.next_op();
            let op = self.next_op;
            self.next_op += 1;
            let payload = stamped(&templates[size], op);
            if kind == OpKind::Deferred && pending.len() == OUTSTANDING {
                let oldest = pending
                    .pop_front()
                    .expect("a full window has an oldest entry");
                self.complete(oldest, meter);
            }
            let issued = Instant::now();
            match kind {
                OpKind::Deferred => {
                    let span = trace::enter(recorder, "call", op);
                    match self.stub.invoke_deferred("echo", payload.clone()) {
                        Ok(reply) => pending.push_back(Pending {
                            reply,
                            payload,
                            issued,
                            span,
                        }),
                        Err(e) => meter.failed(issued, &e),
                    }
                }
                OpKind::Oneway => match self.stub.invoke_oneway("note", payload.clone()) {
                    Ok(()) => {
                        self.oneways_sent += 1;
                        self.oneways_fold ^= op;
                        meter.completed_untimed(payload.len());
                    }
                    Err(e) => meter.failed(issued, &e),
                },
                OpKind::Twoway => {
                    let span = trace::enter(recorder, "call", op);
                    let outcome = self
                        .stub
                        .invoke("echo", payload.clone())
                        .map_err(|e| e.to_string())
                        .and_then(|body| {
                            self.verify(&payload, &body, self.stub.last_granted().as_ref())
                        });
                    drop(span);
                    match outcome {
                        Ok(()) => meter.completed(issued, payload.len()),
                        Err(why) => meter.failed(issued, &why),
                    }
                }
            }
        }
        for entry in pending {
            self.complete(entry, meter);
        }
    }
}

/// Two callers on one multiplexed connection, mixed modes and sizes, one of
/// the two stubs QoS-bound (GIOP 9.9, negotiated per request).
pub struct RpcLoad {
    pair: Pair,
    callers: Vec<Caller>,
    templates: Vec<Vec<u8>>,
}

impl RpcLoad {
    /// Runs both callers until each one's `done` holds; returns their meters.
    fn drive_all(&mut self, window: Duration, done: impl Fn(&Meter) -> bool + Sync) -> Vec<Meter> {
        let start = Instant::now();
        let (templates, recorder) = (&self.templates, self.pair.recorder.as_deref());
        let done = &done;
        std::thread::scope(|scope| {
            let threads: Vec<_> = self
                .callers
                .iter_mut()
                .map(|caller| {
                    scope.spawn(move || {
                        let mut meter = Meter::starting_at(start, window);
                        caller.drive(templates, recorder, &mut meter, done);
                        meter
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("rpc_load caller panicked"))
                .collect()
        })
    }

    /// One-ways sent but not seen by the servant once it has had
    /// [`HANG_BOUND`] to catch up; also checks the XOR of their ids.
    fn lost_oneways(&self) -> u64 {
        let sent: u64 = self.callers.iter().map(|c| c.oneways_sent).sum();
        let fold = self.callers.iter().fold(0, |acc, c| acc ^ c.oneways_fold);
        let deadline = Instant::now() + HANG_BOUND;
        loop {
            let arrived = self.pair.notes.count.load(Ordering::Relaxed);
            if arrived >= sent {
                // Every id arrived exactly once iff the folds agree.
                return u64::from(self.pair.notes.fold.load(Ordering::Relaxed) != fold);
            }
            if Instant::now() >= deadline {
                return sent - arrived;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Workload for RpcLoad {
    const PACE: Pace = Pace::Handoffs;

    fn setup(seed: u64, tracing: Option<&Tracing>) -> Result<Self, String> {
        let pair = Pair::new(tracing)?;
        let spec = qos4_spec();
        let granted = ServerPolicy::permissive()
            .negotiate(&spec)
            .map_err(|e| format!("negotiate locally: {e}"))?;
        let mut callers = Vec::new();
        for index in 0..2u64 {
            let stub = pair.stub()?;
            let expect_granted = if index == 1 {
                stub.set_qos_parameter(spec.clone())
                    .map_err(|e| format!("set qos: {e}"))?;
                Some(granted.clone())
            } else {
                None
            };
            callers.push(Caller {
                stub,
                mix: LoadMix::new(seed, index),
                expect_granted,
                next_op: (index + 1) << 56,
                oneways_sent: 0,
                oneways_fold: 0,
            });
        }
        let mut rng = Rng::lane(seed, 0x02);
        let templates = LOAD_SIZES.iter().map(|len| rng.bytes(*len)).collect();
        let mut me = RpcLoad {
            pair,
            callers,
            templates,
        };
        let warm = me.drive_all(HANG_BOUND, |m| m.attempted >= WARMUP_OPS / 2);
        if let Some(bad) = warm.iter().find(|m| m.failed > 0) {
            return Err(format!("{} warm-up ops failed", bad.failed));
        }
        Ok(me)
    }

    fn run(&mut self, window: Duration) -> WindowResult {
        let cpu_before = host::cpu_time();
        let meters = self.drive_all(window, |m| !m.open());
        let mut result = WindowResult::collect(meters, cpu_before);
        result.failed += self.lost_oneways();
        result
    }

    fn teardown(self) -> u64 {
        self.pair.close();
        0
    }
}
