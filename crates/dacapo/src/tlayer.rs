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
use std::io::{IoSlice, Read, Write};
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

/// In-process transport half: two `LoopbackWire`s shared with the peer.
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

/// The most slices one vectored write may carry (Linux's `IOV_MAX`).
pub const IOV_MAX: usize = 1024;

/// Writes `frames`, each behind its length prefix, with vectored I/O:
/// prefixes and bodies go to the kernel together — one `writev`-style call
/// for up to `IOV_MAX / 2` frames, instead of a write per frame (which
/// would tempt Nagle/delayed-ACK interactions and cost a syscall each) —
/// carrying on where a partial write stopped. The writing half of the
/// framing [`FrameReader`] reads; every length-prefixed TCP framing in the
/// workspace writes through it. Allocates nothing.
///
/// # Errors
///
/// Whatever a write raises but `Interrupted`; `WriteZero` when a write
/// takes nothing; `InvalidInput` for a frame over [`MAX_TCP_FRAME`], which
/// no reader would take (frames ahead of it may have been written).
pub fn write_frames<W: Write>(w: &mut W, frames: &[impl AsRef<[u8]>]) -> std::io::Result<()> {
    // The slice array is zeroed on each call: a lone frame — one request,
    // one reply, the common case — should not pay for 1024 of them.
    if frames.len() == 1 {
        write_frames_by::<2>(w, frames)
    } else {
        write_frames_by::<IOV_MAX>(w, frames)
    }
}

/// [`write_frames`], at most `SLICES` slices per write. Never inlined: the
/// large instance's 20 KiB of arrays would otherwise be the stack frame
/// (probed page by page) of every write.
#[inline(never)]
fn write_frames_by<const SLICES: usize>(
    w: &mut impl Write,
    frames: &[impl AsRef<[u8]>],
) -> std::io::Result<()> {
    // `frames[next]` is the first not wholly written, `done` bytes of its
    // prefix and body already are.
    let (mut next, mut done) = (0, 0);
    // A batch is at most `SLICES / 2` frames: two slices each.
    let mut prefixes = [[0u8; PREFIX]; SLICES];
    while next < frames.len() {
        let batch = &frames[next..frames.len().min(next + SLICES / 2)];
        for (prefix, frame) in prefixes.iter_mut().zip(batch) {
            let len = frame.as_ref().len();
            let len = u32::try_from(len)
                .ok()
                .filter(|&len| len <= MAX_TCP_FRAME)
                .ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        format!("frame of {len} bytes exceeds the {MAX_TCP_FRAME}-byte limit"),
                    )
                })?;
            *prefix = len.to_be_bytes();
        }
        let mut slices = [IoSlice::new(&[]); SLICES];
        let (mut used, mut skip) = (0, done);
        for (prefix, frame) in prefixes.iter().zip(batch) {
            let prefix = &prefix[skip.min(PREFIX)..];
            if !prefix.is_empty() {
                slices[used] = IoSlice::new(prefix);
                used += 1;
            }
            slices[used] = IoSlice::new(&frame.as_ref()[skip.saturating_sub(PREFIX)..]);
            used += 1;
            skip = 0;
        }
        let mut n = match w.write_vectored(&slices[..used]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        // Skip what went out: whole frames, then into the one it stopped in.
        while n > 0 {
            let left = PREFIX + frames[next].as_ref().len() - done;
            if n < left {
                done += n;
                break;
            }
            n -= left;
            (next, done) = (next + 1, 0);
        }
    }
    Ok(())
}

/// The most a [`FrameReader`] asks the socket for in one `read`, and the
/// largest frame (prefix included) it assembles in its buffer.
pub const READ_CHUNK: usize = 64 * 1024;

/// A [`FrameReader`]'s buffer to begin with: connections that only ever
/// carry small frames (and connections that carry none) never pay for a
/// whole [`READ_CHUNK`].
const FIRST_CHUNK: usize = 4 * 1024;

/// Length of the big-endian prefix in front of every frame.
const PREFIX: usize = 4;

/// The reading half of the framing [`write_frames`] writes — a
/// 4-byte big-endian length, then that many bytes — and the one reader of
/// it in the workspace.
///
/// Incremental: [`FrameReader::fill`] makes one `read` into a buffer of up
/// to [`READ_CHUNK`] (it doubles from 4 KiB each time a read fills it),
/// which may bring many small frames at once, and
/// [`FrameReader::next_frame`] hands out the ones that are complete. What
/// a read left unfinished — a partial prefix, half a body — stays here,
/// so a read that times out loses nothing and the next `fill` (on any
/// thread) carries on. A frame too large for the buffer is read into
/// storage of its own, grown as its bytes arrive: a prefix alone never
/// sizes an allocation.
#[derive(Debug)]
pub struct FrameReader {
    /// Read but not yet handed out: `chunk[start..end]`.
    chunk: Vec<u8>,
    start: usize,
    end: usize,
    /// A frame larger than [`READ_CHUNK`], being read into storage of its
    /// own.
    large: Option<Large>,
}

/// A frame too large for a [`FrameReader`]'s buffer.
#[derive(Debug)]
struct Large {
    /// Zeroed ahead of the reads, a step at a time.
    storage: Vec<u8>,
    /// How much of `storage` the reads have filled.
    filled: usize,
    /// The length the prefix announced.
    len: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        FrameReader {
            chunk: vec![0u8; FIRST_CHUNK],
            start: 0,
            end: 0,
            large: None,
        }
    }

    /// The next frame already read, if one is complete. Reads nothing.
    ///
    /// # Errors
    ///
    /// `InvalidData` for a prefix announcing more than [`MAX_TCP_FRAME`].
    pub fn next_frame(&mut self) -> std::io::Result<Option<Bytes>> {
        if let Some(large) = &self.large {
            if large.filled < large.len {
                return Ok(None);
            }
            return Ok(self.large.take().map(|large| Bytes::from(large.storage)));
        }
        let held = &self.chunk[self.start..self.end];
        let Some(prefix) = held.first_chunk::<PREFIX>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(*prefix);
        if len > MAX_TCP_FRAME {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds the {MAX_TCP_FRAME}-byte limit"),
            ));
        }
        let len = len as usize;
        if PREFIX + len > READ_CHUNK {
            // The body continues in storage of its own; what of it is
            // here already moves there.
            let storage = held[PREFIX..].to_vec();
            let filled = storage.len();
            self.large = Some(Large {
                storage,
                filled,
                len,
            });
            (self.start, self.end) = (0, 0);
            return Ok(None);
        }
        if held.len() < PREFIX + len {
            return Ok(None);
        }
        let frame = Bytes::copy_from_slice(&held[PREFIX..PREFIX + len]);
        self.start += PREFIX + len;
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
        Ok(Some(frame))
    }

    /// One `read` from `r`: into the large frame's storage while one is
    /// being assembled (at most up to its end), else into the buffer
    /// behind what it holds. Call [`FrameReader::next_frame`] until it
    /// yields nothing first.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` once the peer has closed; otherwise whatever the
    /// read raises (`WouldBlock` or `TimedOut` when a read timeout
    /// expires), after which the reader is as it was.
    pub fn fill(&mut self, r: &mut impl Read) -> std::io::Result<()> {
        let n = if let Some(large) = &mut self.large {
            if large.filled == large.storage.len() {
                // Grow by what has arrived so far, by at least a chunk,
                // and never past the announced end.
                let room = (large.len - large.filled).min(large.filled.max(READ_CHUNK));
                large.storage.reserve_exact(room);
                large.storage.resize(large.filled + room, 0);
            }
            let n = read_retrying(r, &mut large.storage[large.filled..])?;
            large.filled += n;
            n
        } else {
            if self.start > 0 {
                self.chunk.copy_within(self.start..self.end, 0);
                (self.start, self.end) = (0, self.end - self.start);
            }
            if self.end == self.chunk.len() {
                // Full of the start of one frame: room for more of it.
                let grown = (2 * self.chunk.len()).min(READ_CHUNK);
                self.chunk.resize(grown, 0);
            }
            let n = read_retrying(r, &mut self.chunk[self.end..])?;
            self.end += n;
            n
        };
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "peer closed the connection",
            ));
        }
        Ok(())
    }

    /// The next frame: one already read, else reads until one completes.
    ///
    /// # Errors
    ///
    /// As [`FrameReader::fill`] and [`FrameReader::next_frame`].
    pub fn read_next(&mut self, r: &mut impl Read) -> std::io::Result<Bytes> {
        loop {
            if let Some(frame) = self.next_frame()? {
                return Ok(frame);
            }
            self.fill(r)?;
        }
    }
}

/// `r.read(buf)`, again when a signal interrupted it.
fn read_retrying(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    loop {
        match r.read(buf) {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            read => return read,
        }
    }
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

    fn reader_loop(mut stream: TcpStream, tx: Sender<Bytes>, closed: Arc<AtomicBool>) {
        let mut frames = FrameReader::new();
        while !closed.load(Ordering::Acquire) {
            // Peer closed, corrupt stream or I/O error: give up, and the
            // channel's sender drops.
            let Ok(frame) = frames.read_next(&mut stream) else {
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
        write_frames(&mut *writer, std::slice::from_ref(&frame))
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

    /// A socket stand-in: each `read` returns (up to the buffer's room)
    /// from the next scripted step, an error step is returned as is, and
    /// past the script the peer has closed.
    struct Script(VecDeque<std::io::Result<Vec<u8>>>);

    impl Script {
        /// Non-empty pieces only: an empty read is the peer's close.
        fn pieces(pieces: impl IntoIterator<Item = Vec<u8>>) -> Self {
            Script(
                pieces
                    .into_iter()
                    .filter(|p| !p.is_empty())
                    .map(Ok)
                    .collect(),
            )
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(Err(e)) => Err(e),
                Some(Ok(mut piece)) => {
                    let n = piece.len().min(buf.len());
                    buf[..n].copy_from_slice(&piece[..n]);
                    if n < piece.len() {
                        self.0.push_front(Ok(piece.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    /// The frames one at a time, each behind its length prefix.
    fn wire_of(frames: &[Vec<u8>]) -> Vec<u8> {
        let mut wire = Vec::new();
        for frame in frames {
            wire.extend_from_slice(&(frame.len() as u32).to_be_bytes());
            wire.extend_from_slice(frame);
        }
        wire
    }

    /// A socket stand-in that takes at most `take` bytes per write, across
    /// as many slices as they span, and counts the slices it was offered.
    struct Trickle {
        take: usize,
        wire: Vec<u8>,
        most_slices: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.most_slices = self.most_slices.max(bufs.len());
            let before = self.wire.len();
            for buf in bufs {
                let room = self.take - (self.wire.len() - before);
                self.wire.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.wire.len() - before)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Writes `frames` into sockets that take 1, 7 and any number of bytes
    /// a write: the bytes are those of the frames written one at a time,
    /// and no write is offered more than `IOV_MAX` slices. Returns the most
    /// slices one write was offered.
    fn write_like_one_at_a_time(frames: &[Vec<u8>]) -> usize {
        let mut most_slices = 0;
        for take in [1, 7, usize::MAX] {
            let mut socket = Trickle {
                take,
                wire: Vec::new(),
                most_slices: 0,
            };
            write_frames(&mut socket, frames).unwrap();
            assert_eq!(
                socket.wire,
                wire_of(frames),
                "{} frames, {take} bytes a write",
                frames.len()
            );
            assert!(socket.most_slices <= IOV_MAX);
            most_slices = most_slices.max(socket.most_slices);
        }
        most_slices
    }

    #[test]
    fn write_frames_writes_a_single_frame() {
        write_like_one_at_a_time(&[b"a single frame".to_vec()]);
    }

    #[test]
    fn write_frames_writes_more_frames_than_one_write_carries() {
        let frames: Vec<Vec<u8>> = (0..600).map(|i| vec![i as u8; i % 11]).collect();
        assert!(frames.len() > IOV_MAX / 2);
        assert_eq!(write_like_one_at_a_time(&frames), IOV_MAX);
    }

    #[test]
    fn write_frames_writes_a_zero_length_frame() {
        write_like_one_at_a_time(&[Vec::new()]);
        write_like_one_at_a_time(&[b"x".to_vec(), Vec::new(), b"y".to_vec()]);
    }

    /// Every frame `script` carries, then the error that ended it.
    fn read_all(script: &mut Script) -> (Vec<Vec<u8>>, std::io::Error) {
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        loop {
            match reader.read_next(script) {
                Ok(frame) => frames.push(frame.to_vec()),
                Err(e) => return (frames, e),
            }
        }
    }

    #[test]
    fn frames_split_at_every_byte_boundary_reassemble() {
        let frames = vec![
            b"first".to_vec(),
            Vec::new(),
            b"third one".to_vec(),
            vec![7; 300],
        ];
        let wire = wire_of(&frames);
        for cut in 0..=wire.len() {
            let mut script = Script::pieces([wire[..cut].to_vec(), wire[cut..].to_vec()]);
            let (read, end) = read_all(&mut script);
            assert_eq!(read, frames, "cut at byte {cut}");
            assert_eq!(end.kind(), std::io::ErrorKind::UnexpectedEof);
        }
        // One byte per read, with a frame larger than the buffer among
        // them: every boundary at once, the large path included.
        let frames = vec![
            b"a".to_vec(),
            (0..READ_CHUNK + 9).map(|i| i as u8).collect(),
            b"z".to_vec(),
        ];
        let wire = wire_of(&frames);
        let mut script = Script::pieces(wire.iter().map(|&b| vec![b]));
        assert_eq!(read_all(&mut script).0, frames);
        // Many small frames arrive in one read.
        let frames: Vec<Vec<u8>> = (0..100u8).map(|i| vec![i; usize::from(i)]).collect();
        let mut script = Script::pieces([wire_of(&frames)]);
        assert_eq!(read_all(&mut script).0, frames);
    }

    #[test]
    fn a_read_that_times_out_mid_frame_loses_nothing() {
        let frames = vec![b"before".to_vec(), vec![0xAB; 5000], b"after".to_vec()];
        let wire = wire_of(&frames);
        let timed_out = |kind| Err(std::io::Error::from(kind));
        let mut script = Script(VecDeque::from([
            Ok(wire[..3].to_vec()),
            timed_out(std::io::ErrorKind::WouldBlock),
            Ok(wire[3..2000].to_vec()),
            timed_out(std::io::ErrorKind::TimedOut),
            Ok(wire[2000..].to_vec()),
        ]));
        let mut reader = FrameReader::new();
        let mut read = Vec::new();
        let mut timeouts = 0;
        while read.len() < frames.len() {
            match reader.read_next(&mut script) {
                Ok(frame) => read.push(frame.to_vec()),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    timeouts += 1
                }
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(timeouts, 2);
        assert_eq!(read, frames);
    }

    #[test]
    fn a_prefix_alone_never_sizes_an_allocation() {
        // 200 MiB announced, 10 bytes sent, then the peer closes.
        let mut wire = (200u32 << 20).to_be_bytes().to_vec();
        wire.extend_from_slice(&[1; 10]);
        let mut reader = FrameReader::new();
        let end = reader.read_next(&mut Script::pieces([wire])).unwrap_err();
        assert_eq!(end.kind(), std::io::ErrorKind::UnexpectedEof);
        let reserved = reader
            .large
            .as_ref()
            .map_or(0, |large| large.storage.capacity());
        assert!(
            reserved < 2 * READ_CHUNK,
            "reserved {reserved} bytes for 10"
        );
        // Past the limit, the prefix is refused outright.
        let oversize = (MAX_TCP_FRAME + 1).to_be_bytes().to_vec();
        let refused = FrameReader::new()
            .read_next(&mut Script::pieces([oversize]))
            .unwrap_err();
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
