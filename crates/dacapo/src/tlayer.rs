//! Layer T: the generic transport infrastructure.
//!
//! *"Endsystems communicate via the transport infrastructure (layer T),
//! representing the available communication infrastructure with end-to-end
//! connectivity (i.e., T services are generic)"* (Section 5.1). A
//! [`Transport`] moves opaque frames; three implementations ship:
//!
//! * [`LoopbackTransport`] — in-process queues (colocated tests, the
//!   fastest baseline);
//! * [`TcpTransport`] — a real TCP connection with length-prefixed frames,
//!   exactly the paper's "T module encapsulating TCP";
//! * [`NetsimTransport`] — a `netsim` link endpoint standing in for the
//!   ATM testbed, with shaped bandwidth/delay/loss.

use crate::error::DacapoError;
use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io::{BufReader, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A frame-oriented point-to-point transport.
///
/// Implementations must be thread-safe: the runtime calls `send` from
/// whichever thread sends on the connection and from the connection's
/// writer thread (one at a time, under the stack's writer lock),
/// `recv_timeout` from the connection's receive thread, concurrently, and
/// `close` from whichever thread tears the connection down. A `send` may
/// block for as long as the peer does not read — a full wire is the
/// sender's backpressure — and however little the transport buffers: the
/// runtime never has the receive thread write what the modules answer
/// (acknowledgements, retransmissions), so the reading that empties the
/// wire never waits for a write. Only an application that sends from
/// inside a [`crate::Sink`] callback puts that thread in a `send`. A
/// `send` blocked on a full wire must return once either side closes.
///
/// The close contract, which the teardown paths rely on instead of
/// timers (`tests/transport_contract.rs` runs it over every
/// implementation): `close` wakes a receive blocked on *this* side at
/// once; the peer still receives every frame sent before the close, in
/// order, and then [`DacapoError::Closed`]; sends on either side fail
/// from then on.
pub trait Transport: Send + Sync + 'static {
    /// Sends one frame to the peer.
    ///
    /// # Errors
    ///
    /// [`DacapoError::Closed`] after [`Transport::close`] on either side;
    /// [`DacapoError::Transport`] for I/O failures.
    fn send(&self, frame: Bytes) -> Result<(), DacapoError>;

    /// Receives the next frame, blocking until one arrives or the
    /// transport is closed — there is no timer to wait out.
    ///
    /// # Errors
    ///
    /// [`DacapoError::Closed`] once this side is closed, or the peer is and
    /// its frames are drained.
    fn recv(&self) -> Result<Bytes, DacapoError>;

    /// Receives the next frame, waiting at most `timeout`.
    ///
    /// # Errors
    ///
    /// [`DacapoError::Timeout`] on expiry, [`DacapoError::Closed`] as for
    /// [`Transport::recv`].
    fn recv_timeout(&self, timeout: Duration) -> Result<Bytes, DacapoError>;

    /// Closes the transport; unblocks pending receives on both sides.
    /// Idempotent.
    fn close(&self);

    /// Largest frame this transport can carry.
    fn mtu(&self) -> usize {
        usize::MAX
    }

    /// Diagnostic name.
    fn name(&self) -> &str;
}

impl Transport for Box<dyn Transport> {
    fn send(&self, frame: Bytes) -> Result<(), DacapoError> {
        (**self).send(frame)
    }

    fn recv(&self) -> Result<Bytes, DacapoError> {
        (**self).recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Bytes, DacapoError> {
        (**self).recv_timeout(timeout)
    }

    fn close(&self) {
        (**self).close()
    }

    fn mtu(&self) -> usize {
        (**self).mtu()
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// One direction of the loopback wire: a FIFO the sender pushes and the
/// receiver parks on. Unbounded — it models an infinitely fast wire, and a
/// bound would deadlock two peers sending at each other; the protocol
/// stack above paces it.
#[derive(Debug, Default)]
struct LoopbackWire {
    state: Mutex<LoopbackWireState>,
    arrival: Condvar,
}

#[derive(Debug, Default)]
struct LoopbackWireState {
    queue: VecDeque<Bytes>,
    /// Either end closed the link: no more frames will be queued, and the
    /// receiver reads `Closed` once the queue is empty.
    closed: bool,
}

impl LoopbackWire {
    fn close(&self) {
        self.state.lock().closed = true;
        self.arrival.notify_all();
    }
}

/// In-process transport half: two [`LoopbackWire`]s shared with the peer.
#[derive(Debug)]
pub struct LoopbackTransport {
    tx: Arc<LoopbackWire>,
    rx: Arc<LoopbackWire>,
    /// This side called `close`: its receives return at once, without
    /// draining what the peer had sent.
    closed: AtomicBool,
}

/// Creates a connected pair of loopback transports.
pub fn loopback_pair() -> (LoopbackTransport, LoopbackTransport) {
    let a_to_b = Arc::new(LoopbackWire::default());
    let b_to_a = Arc::new(LoopbackWire::default());
    let a = LoopbackTransport {
        tx: a_to_b.clone(),
        rx: b_to_a.clone(),
        closed: AtomicBool::new(false),
    };
    let b = LoopbackTransport {
        tx: b_to_a,
        rx: a_to_b,
        closed: AtomicBool::new(false),
    };
    (a, b)
}

impl LoopbackTransport {
    /// The one receive wait: `timeout` of `None` parks until a frame or a
    /// close.
    fn recv_within(&self, timeout: Option<Duration>) -> Result<Bytes, DacapoError> {
        let deadline = timeout.map(|t| (Instant::now() + t, t));
        let mut st = self.rx.state.lock();
        loop {
            if self.closed.load(Ordering::Acquire) {
                return Err(DacapoError::Closed);
            }
            if let Some(frame) = st.queue.pop_front() {
                return Ok(frame);
            }
            if st.closed {
                return Err(DacapoError::Closed);
            }
            match deadline {
                None => self.rx.arrival.wait(&mut st),
                Some((at, timeout)) => {
                    if Instant::now() >= at {
                        return Err(DacapoError::Timeout(timeout));
                    }
                    self.rx.arrival.wait_until(&mut st, at);
                }
            }
        }
    }
}

impl Transport for LoopbackTransport {
    fn send(&self, frame: Bytes) -> Result<(), DacapoError> {
        let mut st = self.tx.state.lock();
        if st.closed {
            return Err(DacapoError::Closed);
        }
        st.queue.push_back(frame);
        drop(st);
        self.tx.arrival.notify_one();
        Ok(())
    }

    fn recv(&self) -> Result<Bytes, DacapoError> {
        self.recv_within(None)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Bytes, DacapoError> {
        self.recv_within(Some(timeout))
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.tx.close();
        self.rx.close();
    }

    fn name(&self) -> &str {
        "loopback"
    }
}

/// TCP transport with 4-byte big-endian length-prefixed frames.
///
/// A dedicated reader thread owns the receiving half so that read timeouts
/// can never tear a frame in half; received frames queue internally.
pub struct TcpTransport {
    writer: Mutex<TcpStream>,
    frames: Receiver<Bytes>,
    closed: Arc<AtomicBool>,
    stream: TcpStream,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("peer", &self.stream.peer_addr().ok())
            .finish()
    }
}

/// Upper bound on a length-prefixed TCP frame: a corrupt length prefix
/// would otherwise ask for an absurd allocation.
pub const MAX_TCP_FRAME: u32 = 256 * 1024 * 1024;

/// Writes `prefix` then `frame` with vectored I/O: the length prefix and
/// the frame body go to the kernel in one `writev`-style call instead of
/// two writes (which would tempt Nagle/delayed-ACK interactions and cost a
/// syscall), looping on partial writes. Shared by every length-prefixed
/// TCP framing in the workspace.
pub fn write_frame_vectored<W: Write>(
    w: &mut W,
    prefix: &[u8],
    frame: &[u8],
) -> std::io::Result<()> {
    let total = prefix.len() + frame.len();
    let mut written = 0usize;
    while written < total {
        let n = if written < prefix.len() {
            w.write_vectored(&[IoSlice::new(&prefix[written..]), IoSlice::new(frame)])?
        } else {
            w.write(&frame[written - prefix.len()..])?
        };
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "failed to write whole frame",
            ));
        }
        written += n;
    }
    Ok(())
}

/// Reads one frame — a 4-byte big-endian length, then that many bytes —
/// as [`write_frame_vectored`] wrote it.
///
/// # Errors
///
/// Whatever the reads raise (`UnexpectedEof` once the peer closes);
/// `InvalidData` for a length above [`MAX_TCP_FRAME`].
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Bytes> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_TCP_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_TCP_FRAME}-byte limit"),
        ));
    }
    let mut frame = vec![0u8; len as usize];
    r.read_exact(&mut frame)?;
    Ok(Bytes::from(frame))
}

/// Receive queue depth between the reader thread and `recv` callers. When
/// full, the reader blocks, so backpressure lands in the kernel socket
/// buffer (and ultimately the sender) instead of unbounded heap growth.
const TCP_RX_QUEUE_DEPTH: usize = 1024;

impl TcpTransport {
    /// Wraps a connected stream.
    ///
    /// # Errors
    ///
    /// [`DacapoError::Transport`] if the stream cannot be cloned for the
    /// reader thread.
    pub fn new(stream: TcpStream) -> Result<Self, DacapoError> {
        stream.set_nodelay(true).ok();
        let reader_stream = stream
            .try_clone()
            .map_err(|e| DacapoError::Transport(format!("clone tcp stream: {e}")))?;
        let writer = stream
            .try_clone()
            .map_err(|e| DacapoError::Transport(format!("clone tcp stream: {e}")))?;
        let closed = Arc::new(AtomicBool::new(false));
        let (tx, rx) = bounded(TCP_RX_QUEUE_DEPTH);
        let flag = closed.clone();
        std::thread::Builder::new()
            .name("dacapo-tcp-reader".into())
            // lint: allow(A007, reader exits on socket close/error; close() sets the flag and shuts the stream down)
            .spawn(move || Self::reader_loop(reader_stream, tx, flag))
            .map_err(|e| DacapoError::Transport(format!("spawn reader: {e}")))?;
        Ok(TcpTransport {
            writer: Mutex::new(writer),
            frames: rx,
            closed,
            stream,
        })
    }

    fn reader_loop(stream: TcpStream, tx: Sender<Bytes>, closed: Arc<AtomicBool>) {
        // One `read` per small frame (prefix and body together); a body
        // larger than the buffer bypasses it.
        let mut stream = BufReader::new(stream);
        while !closed.load(Ordering::Acquire) {
            // Peer closed, corrupt stream or I/O error: give up, and the
            // channel's sender drops.
            let Ok(frame) = read_frame(&mut stream) else {
                return;
            };
            if tx.send(frame).is_err() {
                return;
            }
        }
    }
}

impl Transport for TcpTransport {
    fn send(&self, frame: Bytes) -> Result<(), DacapoError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(DacapoError::Closed);
        }
        let mut writer = self.writer.lock();
        let len = (frame.len() as u32).to_be_bytes();
        write_frame_vectored(&mut *writer, &len, &frame)
            .and_then(|_| writer.flush())
            .map_err(|e| DacapoError::Transport(format!("tcp send: {e}")))
    }

    fn recv(&self) -> Result<Bytes, DacapoError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(DacapoError::Closed);
        }
        // `close` on either side ends the reader thread, which drops the
        // queue's sender: queued frames drain, then this disconnects.
        self.frames.recv().map_err(|_| DacapoError::Closed)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Bytes, DacapoError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(DacapoError::Closed);
        }
        match self.frames.recv_timeout(timeout) {
            Ok(frame) => Ok(frame),
            Err(RecvTimeoutError::Timeout) => Err(DacapoError::Timeout(timeout)),
            Err(RecvTimeoutError::Disconnected) => Err(DacapoError::Closed),
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    fn name(&self) -> &str {
        "tcp"
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.close();
    }
}

/// Transport over a simulated `netsim` link endpoint.
#[derive(Debug)]
pub struct NetsimTransport {
    endpoint: netsim::Endpoint,
}

impl NetsimTransport {
    /// Wraps one endpoint of a [`netsim::Link`].
    pub fn new(endpoint: netsim::Endpoint) -> Self {
        NetsimTransport { endpoint }
    }
}

/// A closed or severed link is the transport's `Closed`; anything else is
/// an I/O failure.
fn from_netsim(e: netsim::NetSimError) -> DacapoError {
    match e {
        netsim::NetSimError::Disconnected => DacapoError::Closed,
        netsim::NetSimError::Timeout(d) => DacapoError::Timeout(d),
        e => DacapoError::Transport(e.to_string()),
    }
}

impl Transport for NetsimTransport {
    fn send(&self, frame: Bytes) -> Result<(), DacapoError> {
        self.endpoint.send(frame).map_err(from_netsim)
    }

    fn recv(&self) -> Result<Bytes, DacapoError> {
        self.endpoint.recv().map_err(from_netsim)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Bytes, DacapoError> {
        self.endpoint.recv_timeout(timeout).map_err(from_netsim)
    }

    fn close(&self) {
        self.endpoint.close();
    }

    fn mtu(&self) -> usize {
        self.endpoint.spec().mtu()
    }

    fn name(&self) -> &str {
        "netsim"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn loopback_round_trip() {
        let (a, b) = loopback_pair();
        a.send(Bytes::from_static(b"ping")).unwrap();
        assert_eq!(
            &b.recv_timeout(Duration::from_secs(1)).unwrap()[..],
            b"ping"
        );
        b.send(Bytes::from_static(b"pong")).unwrap();
        assert_eq!(
            &a.recv_timeout(Duration::from_secs(1)).unwrap()[..],
            b"pong"
        );
    }

    #[test]
    fn loopback_close_propagates() {
        let (a, b) = loopback_pair();
        a.close();
        assert!(matches!(a.send(Bytes::new()), Err(DacapoError::Closed)));
        assert!(matches!(
            b.recv_timeout(Duration::from_millis(10)),
            Err(DacapoError::Closed)
        ));
    }

    #[test]
    fn loopback_timeout() {
        let (_a, b) = loopback_pair();
        assert!(matches!(
            b.recv_timeout(Duration::from_millis(5)),
            Err(DacapoError::Timeout(_))
        ));
    }

    fn tcp_pair() -> (TcpTransport, TcpTransport) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (
            TcpTransport::new(client).unwrap(),
            TcpTransport::new(server).unwrap(),
        )
    }

    #[test]
    fn tcp_round_trip_preserves_frame_boundaries() {
        let (a, b) = tcp_pair();
        a.send(Bytes::from_static(b"one")).unwrap();
        a.send(Bytes::from_static(b"twotwo")).unwrap();
        assert_eq!(&b.recv_timeout(Duration::from_secs(5)).unwrap()[..], b"one");
        assert_eq!(
            &b.recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"twotwo"
        );
    }

    #[test]
    fn tcp_large_frame() {
        let (a, b) = tcp_pair();
        let big = vec![0xAB; 1 << 20];
        a.send(Bytes::from(big.clone())).unwrap();
        let got = b.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(&got[..], &big[..]);
    }

    #[test]
    fn tcp_close_unblocks_peer() {
        let (a, b) = tcp_pair();
        a.close();
        // Peer eventually observes EOF as Closed.
        let mut result = b.recv_timeout(Duration::from_millis(200));
        for _ in 0..10 {
            if matches!(result, Err(DacapoError::Closed)) {
                break;
            }
            result = b.recv_timeout(Duration::from_millis(200));
        }
        assert!(matches!(result, Err(DacapoError::Closed)), "got {result:?}");
    }

    #[test]
    fn read_frame_reads_what_write_frame_vectored_wrote_and_bounds_the_length() {
        let mut wire = Vec::new();
        for frame in [&b"first"[..], b"", b"third"] {
            write_frame_vectored(&mut wire, &(frame.len() as u32).to_be_bytes(), frame).unwrap();
        }
        let mut reader = &wire[..];
        for frame in [&b"first"[..], b"", b"third"] {
            assert_eq!(&read_frame(&mut reader).unwrap()[..], frame);
        }
        let eof = read_frame(&mut reader).unwrap_err();
        assert_eq!(eof.kind(), std::io::ErrorKind::UnexpectedEof);
        // A corrupt prefix must not size an allocation.
        let oversize = (MAX_TCP_FRAME + 1).to_be_bytes();
        let refused = read_frame(&mut &oversize[..]).unwrap_err();
        assert_eq!(refused.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn netsim_transport_round_trip() {
        let link = netsim::Link::real_time(
            netsim::LinkSpec::builder()
                .bandwidth_bps(1_000_000_000)
                .propagation(Duration::ZERO)
                .build()
                .unwrap(),
        );
        let (ea, eb) = link.endpoints();
        let (ta, tb) = (NetsimTransport::new(ea), NetsimTransport::new(eb));
        ta.send(Bytes::from_static(b"over the simulated wire"))
            .unwrap();
        assert_eq!(
            &tb.recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"over the simulated wire"
        );
        assert!(tb.mtu() > 0);
    }
}
