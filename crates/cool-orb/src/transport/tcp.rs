//! TCP channel: the paper's `_TcpComChannel` (+ `_TcpBuffer`).
//!
//! Wire format: each frame is a 4-byte big-endian length prefix followed by
//! the payload (the same framing `dacapo::tlayer::TcpTransport` speaks, so
//! the two interoperate, and the same [`FrameReader`] reads it).
//!
//! COOL's `_TcpBuffer` — the socket's read half plus the frame assembler —
//! is a token here, held by whichever thread reads (the Leader/Followers
//! reply wait of RT-CORBA ORBs). Whoever holds it pushes every frame it
//! reads into the channel's [`FrameInbox`], which wakes `recv_frame`
//! waiters or runs the registered [`crate::transport::FrameSink`] on the
//! holder's thread, in wire order. Two kinds of thread hold it:
//!
//! * a caller waiting for its reply ([`ComChannel::read_turn`]) takes it if
//!   it is free and reads until its own reply is in or its deadline
//!   passes — so a lone synchronous call reads its own reply, and no
//!   other thread of this side wakes;
//! * the reader thread, `cool-tcp-rx`, reads on demand ([`ReadDemand`]):
//!   always, until a binding takes the demand over (a server connection,
//!   a pull-mode channel), and after that only while some reply is owed
//!   to a thread that is not reading. Otherwise it parks. No polling.

use crate::error::OrbError;
use crate::transport::{ComChannel, FrameInbox, FrameSink, InboxMetrics, ReadDemand, SendMetrics};
use bytes::Bytes;
use cool_telemetry::Registry;
use dacapo::tlayer::{write_frame_vectored, FrameReader, MAX_TCP_FRAME};
use parking_lot::Mutex;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on TCP connection establishment. A blackholed address (a
/// dropped-SYN firewall, a dead replica that still resolves) would leave a
/// bare `TcpStream::connect` in the OS default wait — minutes — and that
/// wait sits on the *invocation* path: `Stub` reconnects mid-call after a
/// transport death. Failing the dial attributed after a bounded wait lets
/// the retry/failover machinery move to the next replica instead.
pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// A frame-preserving channel over a real TCP connection.
pub struct TcpComChannel {
    writer: Mutex<TcpStream>,
    /// Separate handle used to shut the socket down and unblock a reading
    /// thread even while a writer holds the lock.
    shutdown_handle: TcpStream,
    side: Arc<ReadSide>,
    closed: AtomicBool,
    send_metrics: Option<SendMetrics>,
}

/// The read side, shared by the channel and its reader thread.
struct ReadSide {
    inbox: FrameInbox,
    /// The token: whoever holds it reads the socket.
    token: Mutex<Reader>,
    demand: Arc<ReadDemand>,
}

/// What the token holder reads with.
struct Reader {
    stream: TcpStream,
    frames: FrameReader,
    /// The socket's read timeout as last set (`None`: a read blocks). The
    /// option belongs to the socket, not to a thread, so each holder sets
    /// the one it needs.
    timeout: Option<Duration>,
    /// End of stream, an I/O error or a corrupt frame ended the connection.
    ended: bool,
}

impl std::fmt::Debug for TcpComChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpComChannel")
            .field("closed", &self.closed.load(Ordering::Acquire))
            .finish()
    }
}

impl TcpComChannel {
    /// Connects to a listening ORB endpoint.
    ///
    /// # Errors
    ///
    /// [`OrbError::Transport`] if the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, OrbError> {
        TcpComChannel::connect_with(addr, None)
    }

    /// Like [`TcpComChannel::connect`], with frame/byte counters reported
    /// into `telemetry` when given.
    ///
    /// # Errors
    ///
    /// [`OrbError::Transport`] if the connection cannot be established.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        telemetry: Option<&Registry>,
    ) -> Result<Self, OrbError> {
        TcpComChannel::connect_timeout_with(addr, CONNECT_TIMEOUT, telemetry)
    }

    /// Like [`TcpComChannel::connect_with`], with an explicit bound on the
    /// connection-establishment wait. Every address the name resolves to
    /// is tried in turn, each under the same `timeout`.
    ///
    /// # Errors
    ///
    /// [`OrbError::Transport`] if no address accepts within `timeout`.
    pub fn connect_timeout_with(
        addr: impl ToSocketAddrs,
        timeout: Duration,
        telemetry: Option<&Registry>,
    ) -> Result<Self, OrbError> {
        let addrs = addr
            .to_socket_addrs()
            .map_err(|e| OrbError::Transport(format!("tcp resolve: {e}")))?;
        let mut last: Option<std::io::Error> = None;
        for a in addrs {
            match TcpStream::connect_timeout(&a, timeout) {
                Ok(stream) => return TcpComChannel::from_stream_with(stream, telemetry),
                Err(e) => last = Some(e),
            }
        }
        Err(OrbError::Transport(match last {
            Some(e) => format!("tcp connect: {e}"),
            None => "tcp connect: address resolved to nothing".to_owned(),
        }))
    }

    /// Wraps an accepted stream, starting the reader thread.
    ///
    /// # Errors
    ///
    /// [`OrbError::Transport`] if the stream cannot be prepared or the
    /// reader thread cannot be spawned.
    pub fn from_stream(stream: TcpStream) -> Result<Self, OrbError> {
        TcpComChannel::from_stream_with(stream, None)
    }

    /// Like [`TcpComChannel::from_stream`], with frame/byte counters
    /// reported into `telemetry` when given.
    ///
    /// # Errors
    ///
    /// [`OrbError::Transport`] if the stream cannot be prepared or the
    /// reader thread cannot be spawned.
    pub fn from_stream_with(
        stream: TcpStream,
        telemetry: Option<&Registry>,
    ) -> Result<Self, OrbError> {
        stream.set_nodelay(true).ok();
        let clone = || {
            stream
                .try_clone()
                .map_err(|e| OrbError::Transport(format!("tcp clone: {e}")))
        };
        let side = Arc::new(ReadSide {
            // lint: allow(A005, §7.4: inbox is drained per frame by the connection sink or recv_frame; depth is paced by the socket read loop)
            inbox: FrameInbox::new(),
            token: Mutex::new(Reader {
                stream: clone()?,
                frames: FrameReader::new(),
                timeout: None,
                ended: false,
            }),
            demand: Arc::new(ReadDemand::new()),
        });
        if let Some(registry) = telemetry {
            side.inbox
                .set_metrics(InboxMetrics::resolve(registry, "tcp"));
        }
        let shutdown_handle = clone()?;
        let rx_side = Arc::clone(&side);
        std::thread::Builder::new()
            .name("cool-tcp-rx".into())
            // lint: allow(A007, reader exits when the socket closes — close() shuts the stream down and closes the demand, which unblocks and ends it)
            .spawn(move || reader_loop(&rx_side))
            .map_err(|e| OrbError::Transport(format!("spawn tcp reader: {e}")))?;
        Ok(TcpComChannel {
            writer: Mutex::new(stream),
            shutdown_handle,
            side,
            closed: AtomicBool::new(false),
            send_metrics: telemetry.map(|r| SendMetrics::resolve(r, "tcp")),
        })
    }

    /// Binds a listener for the server side.
    ///
    /// # Errors
    ///
    /// [`OrbError::Transport`] if binding fails.
    pub fn listen(addr: impl ToSocketAddrs) -> Result<TcpListener, OrbError> {
        TcpListener::bind(addr).map_err(|e| OrbError::Transport(format!("tcp bind: {e}")))
    }

    /// Takes in what the socket already holds, without blocking: what a
    /// connection nobody reads has to say (a peer's CloseConnection, its
    /// end of stream) is heard when someone asks. The socket's blocking
    /// mode is shared with the writer, so nothing is read while a writer
    /// is at work.
    fn take_in(&self, reader: &mut Reader) {
        while self.side.deliver(reader) {
            let read = match self.writer.try_lock() {
                Some(_writer) => reader.stream.set_nonblocking(true).and_then(|()| {
                    let read = reader.frames.fill(&mut reader.stream);
                    reader.stream.set_nonblocking(false).and(read)
                }),
                None => return,
            };
            match read {
                Ok(()) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(_) => return self.side.end(reader),
            }
        }
    }
}

/// `cool-tcp-rx`: reads while it is wanted, parks while it is not, and
/// ends with the connection.
fn reader_loop(side: &ReadSide) {
    while side.demand.park_until_wanted() {
        let mut reader = side.token.lock();
        if reader.ended {
            return;
        }
        side.read(&mut reader, None, &|| !side.demand.wanted());
    }
}

impl ReadSide {
    /// Reads and delivers until `done()` holds, `deadline` passes or the
    /// connection ends. The caller holds the token throughout, so frames
    /// enter the inbox in the order they were read; a frame a timed-out
    /// read left unfinished stays in `reader` for the next holder.
    fn read(&self, reader: &mut Reader, deadline: Option<Instant>, done: &dyn Fn() -> bool) {
        while self.deliver(reader) && !done() {
            let timeout = match deadline {
                None => None,
                Some(deadline) => match read_timeout(deadline) {
                    None => return,
                    left => left,
                },
            };
            if reader.timeout != timeout {
                if reader.stream.set_read_timeout(timeout).is_err() {
                    return self.end(reader);
                }
                reader.timeout = timeout;
            }
            match reader.frames.fill(&mut reader.stream) {
                // Linux reports an expired read timeout as `WouldBlock`.
                Ok(()) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => return self.end(reader),
            }
        }
    }

    /// Pushes every complete frame `reader` holds into the inbox; `false`
    /// if a corrupt length ended the connection.
    fn deliver(&self, reader: &mut Reader) -> bool {
        loop {
            match reader.frames.next_frame() {
                Ok(Some(frame)) => self.inbox.push(frame),
                Ok(None) => return true,
                Err(_) => {
                    self.end(reader);
                    return false;
                }
            }
        }
    }

    /// The connection is over: no more turns, the reader thread ends, and
    /// the inbox closes (the sink's `on_close` fails what is pending).
    fn end(&self, reader: &mut Reader) {
        reader.ended = true;
        self.demand.close();
        self.inbox.close();
    }
}

/// The read timeout that ends a wait at `deadline`: the time left, rounded
/// up to a whole millisecond — so that waits with the same budget set the
/// same value and skip the syscall — or `None` once it has passed.
fn read_timeout(deadline: Instant) -> Option<Duration> {
    let left = deadline.checked_duration_since(Instant::now())?;
    let millis = u64::try_from(left.as_nanos().div_ceil(1_000_000)).unwrap_or(u64::MAX);
    (millis > 0).then(|| Duration::from_millis(millis))
}

impl ComChannel for TcpComChannel {
    fn send_frame(&self, frame: Bytes) -> Result<(), OrbError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(OrbError::Closed);
        }
        if frame.len() as u64 > u64::from(MAX_TCP_FRAME) {
            return Err(OrbError::Transport(format!(
                "frame of {} bytes exceeds the {MAX_TCP_FRAME}-byte limit",
                frame.len()
            )));
        }
        let mut w = self.writer.lock();
        // One vectored write carries prefix + frame to the kernel together.
        let io = write_frame_vectored(
            &mut *w,
            &(frame.len() as u32).to_be_bytes(),
            &frame,
        )
        .and_then(|()| w.flush());
        io.map_err(|e| {
            if self.closed.load(Ordering::Acquire) {
                OrbError::Closed
            } else {
                OrbError::Transport(format!("tcp send: {e}"))
            }
        })?;
        if let Some(m) = &self.send_metrics {
            m.record(frame.len());
        }
        Ok(())
    }

    fn recv_frame(&self, timeout: Duration) -> Result<Bytes, OrbError> {
        self.side.inbox.recv_timeout(timeout)
    }

    fn set_sink(&self, sink: Arc<dyn FrameSink>) {
        self.side.inbox.set_sink(sink);
    }

    fn read_turn(&self, deadline: Instant, done: &dyn Fn() -> bool) -> bool {
        let Some(mut reader) = self.side.token.try_lock() else {
            return false;
        };
        if reader.ended {
            return false;
        }
        if deadline > Instant::now() {
            self.side.read(&mut reader, Some(deadline), done);
        } else {
            self.take_in(&mut reader);
        }
        true
    }

    fn hand_over_demand(&self) -> Option<Arc<ReadDemand>> {
        self.side.demand.hand_over();
        Some(Arc::clone(&self.side.demand))
    }

    fn close(&self) {
        if !self.closed.swap(true, Ordering::AcqRel) {
            let _ = self.shutdown_handle.shutdown(Shutdown::Both);
        }
        // A parked reader thread is not in `read`: wake it to end.
        self.side.demand.close();
        self.side.inbox.close();
    }

    fn kind(&self) -> &'static str {
        "tcp"
    }
}

impl Drop for TcpComChannel {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn connected_pair() -> (TcpComChannel, TcpComChannel) {
        let listener = TcpComChannel::listen("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpComChannel::connect(addr).unwrap();
        let (server_stream, _) = listener.accept().unwrap();
        (client, TcpComChannel::from_stream(server_stream).unwrap())
    }

    #[test]
    fn tcp_channel_round_trip() {
        let (client, server) = connected_pair();

        client.send_frame(Bytes::from_static(b"request")).unwrap();
        assert_eq!(
            &server.recv_frame(Duration::from_secs(5)).unwrap()[..],
            b"request"
        );
        server.send_frame(Bytes::from_static(b"reply")).unwrap();
        assert_eq!(
            &client.recv_frame(Duration::from_secs(5)).unwrap()[..],
            b"reply"
        );
        assert_eq!(client.kind(), "tcp");
        assert!(!client.supports_qos());
        client.close();
        server.close();
    }

    #[test]
    fn set_qos_is_ignored_not_rejected() {
        // The paper: TCP simply does not implement setQoSParameter; calls
        // degrade to a no-op rather than an error, so bilateral (object
        // level) negotiation still works over plain TCP.
        let listener = TcpComChannel::listen("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpComChannel::connect(addr).unwrap();
        let req = multe_qos::TransportRequirements {
            error_detection: true,
            ..Default::default()
        };
        assert!(client.set_qos(&req).is_ok());
        client.close();
    }

    #[test]
    fn telemetry_counts_tcp_traffic() {
        let registry = Registry::new();
        let listener = TcpComChannel::listen("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpComChannel::connect_with(addr, Some(&registry)).unwrap();
        let (server_stream, _) = listener.accept().unwrap();
        let server = TcpComChannel::from_stream_with(server_stream, Some(&registry)).unwrap();

        client.send_frame(Bytes::from_static(b"12345")).unwrap();
        assert_eq!(
            &server.recv_frame(Duration::from_secs(5)).unwrap()[..],
            b"12345"
        );
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("transport_frames_sent_total{kind=\"tcp\"}"),
            Some(1)
        );
        assert_eq!(
            snap.counter("transport_bytes_sent_total{kind=\"tcp\"}"),
            Some(5)
        );
        assert_eq!(
            snap.counter("transport_frames_recv_total{kind=\"tcp\"}"),
            Some(1)
        );
        assert_eq!(
            snap.counter("transport_bytes_recv_total{kind=\"tcp\"}"),
            Some(5)
        );
        client.close();
        server.close();
    }

    #[test]
    fn connect_to_nothing_fails() {
        // Port 1 is essentially never listening.
        assert!(TcpComChannel::connect("127.0.0.1:1").is_err());
    }

    #[test]
    fn connect_wait_is_bounded_by_the_timeout() {
        // 240.0.0.1 (class E, unroutable) blackholes the SYN on most
        // stacks; where the OS rejects it instantly — or a transparent
        // proxy answers for it, as some sandboxes do — the timing bound
        // still holds. The invariant under test is that the dial returns
        // well before the OS-default connect wait (minutes), bounded by
        // the passed timeout; when it does fail, it must fail attributed.
        let start = Instant::now();
        let res =
            TcpComChannel::connect_timeout_with("240.0.0.1:81", Duration::from_millis(200), None);
        if let Err(e) = &res {
            assert!(matches!(e, OrbError::Transport(_)), "unattributed: {e:?}");
        }
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "dial must respect the connect timeout, waited {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn peer_close_unblocks_receiver_immediately() {
        let (client, server) = connected_pair();
        let t = std::thread::spawn(move || {
            let start = Instant::now();
            let res = server.recv_frame(Duration::from_secs(10));
            (res, start.elapsed())
        });
        std::thread::sleep(Duration::from_millis(30));
        client.close();
        let (res, waited) = t.join().unwrap();
        assert!(matches!(res, Err(OrbError::Closed)));
        // Closed must wake the blocked receiver, not let it run to timeout.
        assert!(waited < Duration::from_secs(2));
    }
}
