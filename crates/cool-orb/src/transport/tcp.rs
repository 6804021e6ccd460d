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
//!
//! Whoever sends writes: [`ComChannel::send_frame`] writes on the caller's
//! thread, under the connection's writer lock. The complete frames one
//! `read` brought in are handed out as one *delivery run*; while frames of
//! the run are still to come, what the holder's own thread sends on this
//! connection (the replies of requests run to completion in the sink) is
//! *corked*: kept in the writer. The next write carries it ahead of its own
//! frame — a send made while the run's last frame is delivered, another
//! thread's send, a close — and the run's end writes whatever is still
//! corked, before the holder reads or parks again. So the replies to one
//! read leave in one vectored write, a lone request's reply leaves at once,
//! and frames leave in the order they were sent.

use crate::error::OrbError;
use crate::transport::{ComChannel, FrameInbox, FrameSink, InboxMetrics, ReadDemand, SendMetrics};
use bytes::Bytes;
use cool_telemetry::Registry;
use dacapo::tlayer::{write_frames, FrameReader, MAX_TCP_FRAME};
use parking_lot::Mutex;
use std::cell::Cell;
use std::io::ErrorKind;
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
    /// Separate handle used to shut the socket down and unblock a reading
    /// thread even while a writer holds the lock.
    shutdown_handle: TcpStream,
    side: Arc<ReadSide>,
    closed: AtomicBool,
}

/// The read side, shared by the channel and its reader thread.
struct ReadSide {
    inbox: FrameInbox,
    /// The token: whoever holds it reads the socket.
    token: Mutex<Reader>,
    demand: Arc<ReadDemand>,
    /// The write side, here because each delivery run flushes what it
    /// corked.
    writer: Mutex<Writer>,
}

/// The connection's write side.
struct Writer {
    stream: TcpStream,
    /// Frames sent, not yet written: only a delivery run corks, so these
    /// are its, and they leave with the next write, ahead of that write's
    /// own frame, or at the run's end. Emptied, never shrunk: a write
    /// allocates nothing.
    corked: Vec<Bytes>,
    metrics: Option<SendMetrics>,
}

/// Where this thread is in a delivery run of more than one frame (a run of
/// one corks nothing, and leaves it unmarked).
#[derive(Clone, Copy)]
struct Run {
    /// The connection's [`ReadSide`] address; 0 outside any such run.
    side: usize,
    /// Frames of the run are still to be handed out after the one being
    /// delivered: what this thread sends now waits for them.
    more: bool,
    /// The run has corked a frame.
    corked: bool,
}

thread_local! {
    /// The delivery run this thread is in.
    static RUN: Cell<Run> = const {
        Cell::new(Run {
            side: 0,
            more: false,
            corked: false,
        })
    };
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
            writer: Mutex::new(Writer {
                stream: clone()?,
                corked: Vec::new(),
                metrics: telemetry.map(|r| SendMetrics::resolve(r, "tcp")),
            }),
        });
        if let Some(registry) = telemetry {
            side.inbox
                .set_metrics(InboxMetrics::resolve(registry, "tcp"));
        }
        let rx_side = Arc::clone(&side);
        std::thread::Builder::new()
            .name("cool-tcp-rx".into())
            // lint: allow(A007, reader exits when the socket closes — close() shuts the stream down and closes the demand, which unblocks and ends it)
            .spawn(move || reader_loop(&rx_side))
            .map_err(|e| OrbError::Transport(format!("spawn tcp reader: {e}")))?;
        Ok(TcpComChannel {
            shutdown_handle: stream,
            side,
            closed: AtomicBool::new(false),
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
            let read = match self.side.writer.try_lock() {
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

    /// Pushes every complete frame `reader` holds into the inbox — one
    /// delivery run — then writes what the run left corked; `false` if a
    /// corrupt length ended the connection.
    ///
    /// Only a run that corked takes the writer lock here: a client's reader
    /// must not queue behind a caller stuck writing into a full socket.
    fn deliver(&self, reader: &mut Reader) -> bool {
        // What this thread's `RUN` was, once this run has marked it.
        let mut outer = None;
        let mut next = reader.frames.next_frame();
        let intact = loop {
            match next {
                Ok(Some(frame)) => {
                    // Whether another frame follows is known before this
                    // one is delivered: the last of a batch writes the
                    // batch, and a lone frame — the idle call — leaves the
                    // thread unmarked, its reply written at once.
                    next = reader.frames.next_frame();
                    let more = matches!(next, Ok(Some(_)));
                    match outer {
                        None if !more => {}
                        None => {
                            outer = Some(RUN.with(|r| {
                                r.replace(Run {
                                    side: self.id(),
                                    more,
                                    corked: false,
                                })
                            }));
                        }
                        Some(_) => RUN.with(|r| r.set(Run { more, ..r.get() })),
                    }
                    self.inbox.push(frame);
                }
                Ok(None) => break true,
                Err(_) => {
                    self.end(reader);
                    break false;
                }
            }
        };
        if let Some(outer) = outer {
            let run = RUN.with(|r| r.replace(outer));
            if run.corked {
                // The senders were told `Ok`; a socket that fails here ends
                // the read side too.
                let _ = self.writer.lock().flush();
            }
        }
        intact
    }

    /// What names this connection to [`RUN`].
    fn id(&self) -> usize {
        self as *const ReadSide as usize
    }

    /// Whether this thread is in a delivery run of this connection that
    /// has corked a frame.
    fn corked_here(&self) -> bool {
        RUN.with(|r| {
            let run = r.get();
            run.side == self.id() && run.corked
        })
    }

    /// Whether a frame this thread sends now is corked — it is delivering a
    /// frame of this connection that more of its run follow — noting so
    /// for the run's end.
    fn corks(&self) -> bool {
        RUN.with(|r| {
            let run = r.get();
            let corks = run.side == self.id() && run.more;
            if corks {
                r.set(Run {
                    corked: true,
                    ..run
                });
            }
            corks
        })
    }

    /// The connection is over: no more turns, the reader thread ends, and
    /// the inbox closes (the sink's `on_close` fails what is pending).
    fn end(&self, reader: &mut Reader) {
        reader.ended = true;
        self.demand.close();
        self.inbox.close();
    }
}

impl Writer {
    /// Writes everything corked, with one vectored write; nothing at all
    /// when nothing is corked. Counted as it is handed to the socket, so a
    /// peer that has read the frames finds them counted.
    fn flush(&mut self) -> std::io::Result<()> {
        if self.corked.is_empty() {
            return Ok(());
        }
        if let Some(m) = &self.metrics {
            m.record_write(&self.corked);
        }
        let written = write_frames(&mut self.stream, &self.corked);
        self.corked.clear();
        written
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
        let corks = self.side.corks();
        let mut writer = self.side.writer.lock();
        writer.corked.push(frame);
        if corks {
            return Ok(());
        }
        // One vectored write carries what is corked, then this frame.
        writer.flush().map_err(|e| {
            if self.closed.load(Ordering::Acquire) {
                OrbError::Closed
            } else {
                OrbError::Transport(format!("tcp send: {e}"))
            }
        })
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
            // What a delivery run corked leaves ahead of the end of stream.
            // A run that corked waits for the writer, as its sends would
            // have; anyone else only tries, since the shutdown below is
            // what frees a writer stuck on a full socket — and a writer
            // holding the lock writes what is corked itself.
            let writer = if self.side.corked_here() {
                Some(self.side.writer.lock())
            } else {
                self.side.writer.try_lock()
            };
            if let Some(mut writer) = writer {
                let _ = writer.flush();
            }
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
            snap.counter("transport_writes_total{kind=\"tcp\"}"),
            Some(1)
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

    /// A sink that runs a closure on each frame, on the delivering thread.
    struct OnFrame<F>(F);

    impl<F: Fn(Bytes) + Send + Sync> FrameSink for OnFrame<F> {
        fn on_frame(&self, frame: Bytes) {
            (self.0)(frame);
        }
        fn on_close(&self) {}
    }

    /// `server` runs `on_frame` (given the server itself) for each frame
    /// it reads.
    fn on_each_frame(
        server: TcpComChannel,
        on_frame: impl Fn(&Arc<TcpComChannel>, Bytes) + Send + Sync + 'static,
    ) -> Arc<TcpComChannel> {
        let server = Arc::new(server);
        let own = Arc::clone(&server);
        // The sink holds the channel until the channel closes.
        server.set_sink(Arc::new(OnFrame(move |frame| on_frame(&own, frame))));
        server
    }

    /// A channel, and a raw socket connected to it.
    fn raw_peer(telemetry: Option<&Registry>) -> (TcpStream, TcpComChannel) {
        let listener = TcpComChannel::listen("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        // A reply that never comes fails the test instead of hanging it.
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        (
            peer,
            TcpComChannel::from_stream_with(accepted, telemetry).unwrap(),
        )
    }

    /// `peer` writes `frames` with one write, which the channel reads with
    /// one read: one delivery run.
    fn send_at_once(peer: &mut TcpStream, frames: &[impl AsRef<[u8]>]) {
        let mut wire = Vec::new();
        write_frames(&mut wire, frames).unwrap();
        std::io::Write::write_all(peer, &wire).unwrap();
    }

    #[test]
    fn a_corked_frame_is_not_overtaken_by_another_threads_send() {
        // Sent while the run's second frame is still to come, "A" is corked.
        let (mut peer, server) = raw_peer(None);
        let server = on_each_frame(server, |server, frame| {
            if &frame[..] == b"first" {
                server.send_frame(Bytes::from_static(b"A")).unwrap();
                let other = Arc::clone(server);
                std::thread::spawn(move || other.send_frame(Bytes::from_static(b"B")).unwrap())
                    .join()
                    .unwrap();
            }
        });
        send_at_once(&mut peer, &["first", "second"]);
        let mut replies = FrameReader::new();
        assert_eq!(&replies.read_next(&mut peer).unwrap()[..], b"A");
        assert_eq!(&replies.read_next(&mut peer).unwrap()[..], b"B");
        server.close();
    }

    #[test]
    fn a_corked_frame_leaves_before_the_close_its_run_makes() {
        let (mut peer, server) = raw_peer(None);
        let server = on_each_frame(server, |server, frame| {
            if &frame[..] == b"first" {
                server.send_frame(Bytes::from_static(b"A")).unwrap();
                server.close();
            }
        });
        send_at_once(&mut peer, &["first", "second"]);
        let mut replies = FrameReader::new();
        assert_eq!(&replies.read_next(&mut peer).unwrap()[..], b"A");
        let end = replies.read_next(&mut peer).unwrap_err();
        assert_eq!(end.kind(), ErrorKind::UnexpectedEof);
        server.close();
    }

    #[test]
    fn the_replies_to_one_read_are_counted_as_one_write() {
        // A raw peer sends 8 frames in one write; the channel's sink echoes
        // each: one read in, one write out.
        let registry = Registry::new();
        let (mut peer, server) = raw_peer(Some(&registry));
        let server = on_each_frame(server, |server, frame| server.send_frame(frame).unwrap());
        let frames: Vec<Bytes> = (0..8u8).map(|i| Bytes::from(vec![i; 16])).collect();
        send_at_once(&mut peer, &frames);
        let mut replies = FrameReader::new();
        for frame in &frames {
            assert_eq!(&replies.read_next(&mut peer).unwrap(), frame);
        }
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("transport_frames_sent_total{kind=\"tcp\"}"),
            Some(8)
        );
        assert_eq!(
            snap.counter("transport_writes_total{kind=\"tcp\"}"),
            Some(1)
        );
        server.close();
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
