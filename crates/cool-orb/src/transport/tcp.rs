//! TCP channel: the paper's `_TcpComChannel` (+ `_TcpBuffer`).
//!
//! Wire format: each frame is a 4-byte big-endian length prefix followed by
//! the payload (the same framing `dacapo::tlayer::TcpTransport` speaks, so
//! the two interoperate). A dedicated reader thread — COOL's `_TcpBuffer`
//! role — blocks on the socket and pushes completed frames into the
//! channel's [`FrameInbox`], which wakes `recv_frame` waiters or invokes
//! the registered [`crate::transport::FrameSink`] immediately. No polling.

use crate::error::OrbError;
use crate::transport::{ComChannel, FrameInbox, FrameSink, InboxMetrics, SendMetrics};
use bytes::Bytes;
use cool_telemetry::Registry;
use dacapo::tlayer::{read_frame, write_frame_vectored, MAX_TCP_FRAME};
use parking_lot::Mutex;
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
    /// Separate handle used to shut the socket down and unblock the reader
    /// thread even while a writer holds the lock.
    shutdown_handle: TcpStream,
    inbox: Arc<FrameInbox>,
    closed: AtomicBool,
    send_metrics: Option<SendMetrics>,
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
        let reader = stream
            .try_clone()
            .map_err(|e| OrbError::Transport(format!("tcp clone: {e}")))?;
        let shutdown_handle = stream
            .try_clone()
            .map_err(|e| OrbError::Transport(format!("tcp clone: {e}")))?;
        // lint: allow(A005, §7.4: inbox is drained per frame by the connection sink or recv_frame; depth is paced by the socket read loop)
        let inbox = Arc::new(FrameInbox::new());
        if let Some(registry) = telemetry {
            inbox.set_metrics(InboxMetrics::resolve(registry, "tcp"));
        }
        let rx_inbox = Arc::clone(&inbox);
        std::thread::Builder::new()
            .name("cool-tcp-rx".into())
            // lint: allow(A007, reader exits when the socket closes — close() shuts the stream down, which unblocks and ends it)
            .spawn(move || reader_loop(reader, &rx_inbox))
            .map_err(|e| OrbError::Transport(format!("spawn tcp reader: {e}")))?;
        Ok(TcpComChannel {
            writer: Mutex::new(stream),
            shutdown_handle,
            inbox,
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
}

/// Blocks on the socket, pushing each completed frame into the inbox;
/// closes the inbox on EOF, shutdown, or any framing/IO error. Buffered,
/// so a small frame's length prefix and body arrive in one `read`; a body
/// larger than the buffer is still read straight into its own storage.
fn reader_loop(stream: TcpStream, inbox: &FrameInbox) {
    let mut stream = BufReader::new(stream);
    while let Ok(frame) = read_frame(&mut stream) {
        inbox.push(frame);
    }
    inbox.close();
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
        self.inbox.recv_timeout(timeout)
    }

    fn set_sink(&self, sink: Arc<dyn FrameSink>) {
        self.inbox.set_sink(sink);
    }

    fn close(&self) {
        if !self.closed.swap(true, Ordering::AcqRel) {
            let _ = self.shutdown_handle.shutdown(Shutdown::Both);
        }
        self.inbox.close();
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
