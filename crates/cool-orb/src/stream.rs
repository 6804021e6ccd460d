//! Multimedia streams with QoS — the paper's "next step" (Section 7).
//!
//! *"The next step is to use the gathered knowledge to extend COOL ORB
//! with QoS support for multimedia streams. Support for stream
//! interactions need an extended IDL to specify stream interfaces with QoS
//! specification for different flows. A stream object adapter supporting
//! the generated stream stubs and skeletons will be developed."*
//!
//! Following the OMG A/V Streams design the paper cites (Section 3), the
//! **control** interactions travel through the ORB (a regular object with
//! an `_open_stream` operation, QoS-negotiated like any invocation), while
//! the **data flow takes place over separate channels outside the ORB
//! core** — here a dedicated Da CaPo connection whose protocol
//! configuration is derived from the granted flow QoS.
//!
//! * Server side: implement [`StreamSource`] and serve it with
//!   [`serve_source`] — the stream object adapter role.
//! * Client side: [`open_stream`] negotiates the flow QoS, receives the
//!   rendezvous endpoint in the Reply, connects the data channel and
//!   returns a [`StreamReceiver`].

use crate::error::OrbError;
use crate::exchange::LocalExchange;
use crate::object::ObjectRef;
use crate::orb::Orb;
use crate::servant::FnServant;
use crate::transport::ComChannel;
use bytes::Bytes;
use cool_giop::cdr::{ByteOrder, CdrDecoder, CdrEncoder};
use cool_telemetry::blocking;
use cool_telemetry::lockorder::{Locked, Unlocked};
use crossbeam::channel::bounded;
use multe_qos::{GrantedQoS, QoSSpec, ServerPolicy, TransportRequirements};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The operation name carrying stream-open control requests.
pub const OPEN_STREAM_OP: &str = "_open_stream";

/// How long the server keeps a rendezvous endpoint open for the client's
/// data connection.
const RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(30);

static STREAM_COUNTER: AtomicU64 = AtomicU64::new(1);

/// A producer of stream data, invoked once per accepted flow.
///
/// `stream` runs on a dedicated thread; it should push frames through the
/// [`FlowHandle`] until done (or until the handle reports the flow
/// closed), honouring the granted QoS (e.g. producing a lower frame rate
/// or resolution under a lower grant — the paper's image-server
/// adaptation applied to flows).
pub trait StreamSource: Send + Sync + 'static {
    /// Produces the flow. `args` carries the marshalled open-parameters
    /// from the client (empty for parameterless streams).
    fn stream(&self, flow: FlowHandle, granted: &GrantedQoS, args: &[u8]);
}

impl<F> StreamSource for F
where
    F: Fn(FlowHandle, &GrantedQoS) + Send + Sync + 'static,
{
    fn stream(&self, flow: FlowHandle, granted: &GrantedQoS, _args: &[u8]) {
        self(flow, granted)
    }
}

/// Server-side handle to one open flow.
pub struct FlowHandle {
    channel: Arc<dyn ComChannel>,
}

impl std::fmt::Debug for FlowHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowHandle")
            .field("transport", &self.channel.kind())
            .finish()
    }
}

impl FlowHandle {
    /// Sends one frame to the consumer.
    ///
    /// # Errors
    ///
    /// [`OrbError::Closed`] once the consumer hung up.
    pub fn send(&self, frame: Bytes) -> Result<(), OrbError> {
        self.channel.send_frame(frame)
    }

    /// Closes the flow gracefully: waits for in-flight frames (including
    /// unacknowledged ARQ windows) to clear before tearing down.
    pub fn close(&self) {
        self.channel.drain(Duration::from_secs(10));
        self.channel.close();
    }
}

impl Drop for FlowHandle {
    fn drop(&mut self) {
        // Same graceful discipline on implicit drop, with a shorter bound
        // (destructors must not block for long).
        self.channel.drain(Duration::from_secs(2));
        self.channel.close();
    }
}

/// Client-side handle to one open flow.
pub struct StreamReceiver {
    channel: Arc<dyn ComChannel>,
    granted: GrantedQoS,
}

impl std::fmt::Debug for StreamReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamReceiver")
            .field("transport", &self.channel.kind())
            .finish()
    }
}

impl StreamReceiver {
    /// Receives the next frame.
    ///
    /// # Errors
    ///
    /// [`OrbError::Timeout`] on expiry; [`OrbError::Closed`] once the
    /// producer finished.
    pub fn recv(&self, timeout: Duration) -> Result<Bytes, OrbError> {
        self.channel.recv_frame(timeout)
    }

    /// The QoS granted for this flow.
    pub fn granted(&self) -> &GrantedQoS {
        &self.granted
    }

    /// Closes the flow from the consumer side.
    pub fn close(&self) {
        self.channel.close();
    }
}

impl Drop for StreamReceiver {
    fn drop(&mut self) {
        self.channel.close();
    }
}

/// Serves one `_open_stream`-style control request: allocates a
/// rendezvous endpoint, whose listener hands the client's data connection
/// to a thread that runs `source` on it, and returns the marshalled Reply
/// body naming the endpoint.
///
/// Generated stream skeletons (Chic's extended-IDL back end) call this
/// from their dispatch path; hand-written servants may too.
///
/// # Errors
///
/// [`OrbError::BadAddress`] if the exchange cannot allocate an endpoint;
/// [`OrbError::Transport`] if the flow thread cannot be spawned.
pub fn handle_stream_open(
    exchange: &LocalExchange,
    tag: &str,
    source: Arc<dyn StreamSource>,
    granted: &GrantedQoS,
    args: &[u8],
) -> Result<Vec<u8>, OrbError> {
    let endpoint_name = format!(
        "flow-{}-{}",
        tag,
        STREAM_COUNTER.fetch_add(1, Ordering::Relaxed)
    );
    // The listener hands the first connection to the flow thread and
    // refuses every later one.
    let (handoff, acceptor) = bounded::<Arc<dyn ComChannel>>(1);
    let claimed = AtomicBool::new(false);
    exchange.listen_dacapo(
        &endpoint_name,
        Arc::new(move |_: &mut Locked<Unlocked>, channel| {
            if claimed.swap(true, Ordering::AcqRel) {
                channel.close();
                return Err(OrbError::Closed);
            }
            handoff.try_send(channel).map_err(|refused| {
                refused.into_inner().close();
                OrbError::Closed
            })
        }),
    )?;

    // Wait for the client's data connection on a detached thread; the
    // control Reply races ahead, as it should — the client connects after
    // reading it.
    let granted = granted.clone();
    let args = args.to_vec();
    let exchange_for_cleanup = exchange.clone();
    let endpoint_for_cleanup = endpoint_name.clone();
    let rendezvous = move || {
        let accepted = blocking::recv_timeout(Locked::root(), &acceptor, RENDEZVOUS_TIMEOUT);
        // One flow per endpoint: stop accepting either way. A connection
        // that lands after the timeout is dropped with the queue, which
        // closes it.
        exchange_for_cleanup.unlisten("dacapo", &endpoint_for_cleanup);
        if let Ok(channel) = accepted {
            source.stream(FlowHandle { channel }, &granted, &args);
        }
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "detached: a one-shot rendezvous that waits at most RENDEZVOUS_TIMEOUT, then runs its flow's source until it returns; the Reply must not wait for it"
    )]
    let spawned = std::thread::Builder::new()
        .name(format!("stream-{endpoint_name}"))
        .spawn(rendezvous);
    spawned.map_err(|e| OrbError::Transport(format!("spawn stream thread: {e}")))?;

    // Reply body: the rendezvous endpoint name.
    let mut enc = CdrEncoder::new(ByteOrder::Big);
    enc.put_string(&endpoint_name);
    Ok(enc.into_bytes().to_vec())
}

/// Registers a stream source object: the stream object adapter role.
///
/// The object accepts `_open_stream` invocations (carrying the client's
/// flow QoS in the extended GIOP Request), negotiates against `policy`,
/// allocates a rendezvous endpoint for the data channel, and hands the
/// accepted flow to `source` on a dedicated thread.
///
/// For objects exposing several named streams (the extended-IDL case),
/// use [`serve_sources`].
///
/// # Errors
///
/// [`OrbError::BadAddress`] if `key` is already registered.
pub fn serve_source(
    orb: &Arc<Orb>,
    key: &str,
    policy: ServerPolicy,
    source: impl StreamSource,
) -> Result<(), OrbError> {
    serve_sources(
        orb,
        key,
        policy,
        vec![(OPEN_STREAM_OP.to_owned(), Arc::new(source))],
    )
}

/// Registers an object exposing several named stream operations, each with
/// its own source — the shape Chic's extended IDL (`stream video(...)`)
/// compiles to.
///
/// # Errors
///
/// [`OrbError::BadAddress`] if `key` is already registered.
pub fn serve_sources(
    orb: &Arc<Orb>,
    key: &str,
    policy: ServerPolicy,
    sources: Vec<(String, Arc<dyn StreamSource>)>,
) -> Result<(), OrbError> {
    let exchange = orb.exchange().clone();
    let key_owned = key.to_owned();
    orb.adapter().register_with_policy(
        key,
        Arc::new(FnServant::new(move |operation, args, ctx| {
            let Some((_, source)) = sources.iter().find(|(name, _)| name == operation) else {
                return Err(OrbError::OperationUnknown {
                    object: key_owned.clone(),
                    operation: operation.to_owned(),
                });
            };
            handle_stream_open(&exchange, &key_owned, source.clone(), ctx.granted(), args)
        })),
        policy,
    )
}

/// Opens a stream with the given flow QoS, returning the receiver.
///
/// Control path: a QoS-extended invocation of [`OPEN_STREAM_OP`] on the
/// referenced object (bilateral negotiation as usual — an infeasible flow
/// QoS NACKs here and nothing else happens). Data path: a dedicated
/// Da CaPo connection configured from the granted QoS.
///
/// # Errors
///
/// The server's NACK, transport admission failures, or connection errors.
pub fn open_stream(
    orb: &Arc<Orb>,
    reference: &ObjectRef,
    flow_qos: QoSSpec,
) -> Result<StreamReceiver, OrbError> {
    open_stream_named(orb, reference, OPEN_STREAM_OP, Bytes::new(), flow_qos)
}

/// Opens a *named* stream with marshalled open-parameters — the client
/// half of the extended-IDL stream operations.
///
/// # Errors
///
/// See [`open_stream`].
pub fn open_stream_named(
    orb: &Arc<Orb>,
    reference: &ObjectRef,
    operation: &str,
    args: Bytes,
    flow_qos: QoSSpec,
) -> Result<StreamReceiver, OrbError> {
    let stub = orb.bind(reference)?;
    stub.set_qos_parameter(flow_qos)?;
    let reply = stub.invoke(operation, args)?;
    let granted = stub.last_granted().unwrap_or_default();

    let mut dec = CdrDecoder::new(&reply, ByteOrder::Big);
    let endpoint_name = dec.get_string().map_err(OrbError::from)?;

    let requirements = TransportRequirements::from_granted(&granted);
    let channel = connect_flow(orb.exchange(), &endpoint_name, &requirements)?;
    Ok(StreamReceiver { channel, granted })
}

fn connect_flow(
    exchange: &LocalExchange,
    endpoint_name: &str,
    requirements: &TransportRequirements,
) -> Result<Arc<dyn ComChannel>, OrbError> {
    exchange.connect_dacapo(endpoint_name, requirements)
}

#[cfg(test)]
mod tests {
    use super::*;
    use multe_qos::Reliability;

    fn frame(i: u32, granted: &GrantedQoS) -> Bytes {
        // Frame size adapts to the granted throughput, like a real codec.
        let size = if granted.throughput_bps().unwrap_or(0) >= 1_000_000 {
            256
        } else {
            64
        };
        let mut data = vec![(i % 251) as u8; size];
        data[0..4].copy_from_slice(&i.to_be_bytes());
        Bytes::from(data)
    }

    fn streaming_orb(exchange: &LocalExchange) -> (Arc<Orb>, crate::server::OrbServer) {
        let orb = Orb::with_exchange("stream-server", exchange.clone());
        let policy = ServerPolicy::builder()
            .max_throughput_bps(5_000_000)
            .max_reliability(Reliability::Reliable)
            .supports_ordering(true)
            .supports_encryption(true)
            .build();
        serve_source(
            &orb,
            "camera",
            policy,
            |flow: FlowHandle, granted: &GrantedQoS| {
                for i in 0..20u32 {
                    if flow.send(frame(i, granted)).is_err() {
                        return;
                    }
                }
                flow.close();
            },
        )
        .unwrap();
        let server = orb.listen_tcp("127.0.0.1:0").unwrap();
        (orb, server)
    }

    #[test]
    fn stream_round_trip_with_qos() {
        let exchange = LocalExchange::new();
        let (_server_orb, server) = streaming_orb(&exchange);
        let client_orb = Orb::with_exchange("stream-client", exchange);

        let qos = QoSSpec::builder()
            .throughput_bps(2_000_000, 500_000, 10_000_000)
            .reliability(Reliability::Reliable)
            .ordered(true)
            .build();
        let receiver = open_stream(&client_orb, &server.object_ref("camera"), qos).unwrap();
        assert_eq!(receiver.granted().throughput_bps(), Some(2_000_000));

        for i in 0..20u32 {
            let f = receiver.recv(Duration::from_secs(10)).unwrap();
            assert_eq!(u32::from_be_bytes([f[0], f[1], f[2], f[3]]), i);
            assert_eq!(f.len(), 256, "high-rate grant yields big frames");
        }
        // Producer closed: next recv reports closure (or times out on the
        // in-flight boundary).
        assert!(receiver.recv(Duration::from_millis(300)).is_err());
        server.close();
    }

    #[test]
    fn low_qos_changes_producer_behaviour() {
        let exchange = LocalExchange::new();
        let (_server_orb, server) = streaming_orb(&exchange);
        let client_orb = Orb::with_exchange("stream-client", exchange);

        let qos = QoSSpec::builder()
            .throughput_bps(200_000, 50_000, 500_000)
            .build();
        let receiver = open_stream(&client_orb, &server.object_ref("camera"), qos).unwrap();
        let f = receiver.recv(Duration::from_secs(10)).unwrap();
        assert_eq!(f.len(), 64, "low-rate grant yields small frames");
        server.close();
    }

    #[test]
    fn infeasible_flow_qos_nacks_before_any_data_channel() {
        let exchange = LocalExchange::new();
        let (_server_orb, server) = streaming_orb(&exchange);
        let client_orb = Orb::with_exchange("stream-client", exchange);

        let greedy = QoSSpec::builder()
            .throughput_bps(100_000_000, 50_000_000, 155_000_000)
            .build();
        match open_stream(&client_orb, &server.object_ref("camera"), greedy) {
            Err(OrbError::QosNotSupported(_)) => {}
            other => panic!("expected NACK, got {other:?}"),
        }
        server.close();
    }

    #[test]
    fn wrong_operation_on_stream_object_rejected() {
        let exchange = LocalExchange::new();
        let (_server_orb, server) = streaming_orb(&exchange);
        let client_orb = Orb::with_exchange("stream-client", exchange);
        let stub = client_orb.bind(&server.object_ref("camera")).unwrap();
        assert!(matches!(
            stub.invoke("not_a_stream_op", Bytes::new()),
            Err(OrbError::OperationUnknown { .. })
        ));
        server.close();
    }

    #[test]
    fn consumer_can_hang_up_early() {
        let exchange = LocalExchange::new();
        let (_server_orb, server) = streaming_orb(&exchange);
        let client_orb = Orb::with_exchange("stream-client", exchange);
        let receiver = open_stream(
            &client_orb,
            &server.object_ref("camera"),
            QoSSpec::builder()
                .throughput_bps(2_000_000, 1, 10_000_000)
                .build(),
        )
        .unwrap();
        let _ = receiver.recv(Duration::from_secs(10)).unwrap();
        receiver.close(); // producer observes Closed and stops
        server.close();
    }

    #[test]
    fn a_flow_endpoint_takes_one_connection() {
        let exchange = LocalExchange::new();
        let (streamed_tx, streamed) = std::sync::mpsc::channel();
        let source = move |flow: FlowHandle, _: &GrantedQoS| {
            streamed_tx.send(()).unwrap();
            flow.close();
        };
        let reply = handle_stream_open(
            &exchange,
            "one",
            Arc::new(source),
            &GrantedQoS::default(),
            &[],
        )
        .unwrap();
        let name = CdrDecoder::new(&reply, ByteOrder::Big)
            .get_string()
            .unwrap();
        let best_effort = TransportRequirements::best_effort();
        let _flow = exchange.connect_dacapo(&name, &best_effort).unwrap();
        // Refused by the listener, or by the exchange once the flow thread
        // has given the name back: never a second flow.
        assert!(matches!(
            exchange.connect_dacapo(&name, &best_effort),
            Err(OrbError::Closed | OrbError::BadAddress(_))
        ));
        streamed.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(streamed.recv_timeout(Duration::from_millis(50)).is_err());
    }

    #[test]
    fn two_concurrent_flows_are_independent() {
        let exchange = LocalExchange::new();
        let (_server_orb, server) = streaming_orb(&exchange);
        let client_orb = Orb::with_exchange("stream-client", exchange);

        let hi = open_stream(
            &client_orb,
            &server.object_ref("camera"),
            QoSSpec::builder()
                .throughput_bps(4_000_000, 1, 10_000_000)
                .build(),
        )
        .unwrap();
        let lo = open_stream(
            &client_orb,
            &server.object_ref("camera"),
            QoSSpec::builder()
                .throughput_bps(100_000, 1, 400_000)
                .build(),
        )
        .unwrap();

        let f_hi = hi.recv(Duration::from_secs(10)).unwrap();
        let f_lo = lo.recv(Duration::from_secs(10)).unwrap();
        assert_eq!(f_hi.len(), 256);
        assert_eq!(f_lo.len(), 64);
        server.close();
    }
}
