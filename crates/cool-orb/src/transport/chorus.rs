//! Chorus IPC channel: the paper's `_ChorusComChannel`.
//!
//! Buffering is transparent — matching the paper's remark that *"For
//! Chorus IPC buffering is done transparent by the communication
//! subsystem in ChorusOS"*. In this event-driven implementation the
//! "communication subsystem" is a pair of [`FrameInbox`]es: `send_frame`
//! pushes straight into the peer's inbox on the caller's thread, so
//! delivery (and any registered sink) runs with zero intermediate threads
//! and zero polling.

use crate::error::OrbError;
use crate::transport::{ComChannel, FrameInbox, InboxMetrics, SendMetrics};
use bytes::Bytes;
use cool_telemetry::Registry;
use std::sync::Arc;

/// A frame channel over a simulated Chorus IPC port pair.
pub struct ChorusComChannel {
    /// Where our sends deliver (the peer's receive inbox).
    peer: Arc<FrameInbox>,
    /// Where we receive. Either end's close closes both inboxes, so this
    /// one records the connection's end for this side.
    inbox: Arc<FrameInbox>,
    send_metrics: Option<SendMetrics>,
}

impl std::fmt::Debug for ChorusComChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChorusComChannel")
            .field("closed", &self.is_closed())
            .finish()
    }
}

impl ChorusComChannel {
    /// Creates a connected pair of channels (one per endpoint).
    pub fn pair() -> (ChorusComChannel, ChorusComChannel) {
        ChorusComChannel::pair_with(None)
    }

    /// Like [`ChorusComChannel::pair`], with frame/byte counters reported
    /// into `telemetry` when given (both endpoints feed the same
    /// `kind="chorus"` series).
    pub fn pair_with(telemetry: Option<&Registry>) -> (ChorusComChannel, ChorusComChannel) {
        let a_inbox = Arc::new(FrameInbox::new());
        let b_inbox = Arc::new(FrameInbox::new());
        let send_metrics = telemetry.map(|r| SendMetrics::resolve(r, "chorus"));
        if let Some(registry) = telemetry {
            let metrics = InboxMetrics::resolve(registry, "chorus");
            a_inbox.set_metrics(metrics.clone());
            b_inbox.set_metrics(metrics);
        }
        let a = ChorusComChannel {
            peer: Arc::clone(&b_inbox),
            inbox: a_inbox.clone(),
            send_metrics: send_metrics.clone(),
        };
        let b = ChorusComChannel {
            peer: a_inbox,
            inbox: b_inbox,
            send_metrics,
        };
        (a, b)
    }
}

impl ComChannel for ChorusComChannel {
    fn send_frame(&self, frame: Bytes) -> Result<(), OrbError> {
        // Two lock-free reads: a close is under way when either inbox is
        // closed.
        if self.is_closed() || self.peer.is_closed() {
            return Err(OrbError::Closed);
        }
        if let Some(m) = &self.send_metrics {
            m.record(frame.len());
        }
        // Runs the peer's sink (if any) synchronously on this thread.
        self.peer.push(frame);
        Ok(())
    }

    fn inbox(&self) -> &FrameInbox {
        &self.inbox
    }

    fn close(&self) {
        // Close both directions so a blocked peer wakes immediately.
        self.inbox.close();
        self.peer.close();
    }

    fn kind(&self) -> &'static str {
        "chorus"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn pair_round_trip() {
        let (a, b) = ChorusComChannel::pair();
        a.send_frame(Bytes::from_static(b"req")).unwrap();
        assert_eq!(&b.recv_frame(Duration::from_secs(1)).unwrap()[..], b"req");
        b.send_frame(Bytes::from_static(b"rep")).unwrap();
        assert_eq!(&a.recv_frame(Duration::from_secs(1)).unwrap()[..], b"rep");
        assert_eq!(a.kind(), "chorus");
    }

    #[test]
    fn close_propagates() {
        let (a, b) = ChorusComChannel::pair();
        a.close();
        assert!(matches!(a.send_frame(Bytes::new()), Err(OrbError::Closed)));
        assert!(matches!(
            b.recv_frame(Duration::from_millis(20)),
            Err(OrbError::Closed)
        ));
    }

    #[test]
    fn timeout_when_idle() {
        let (a, _b) = ChorusComChannel::pair();
        assert!(matches!(
            a.recv_frame(Duration::from_millis(10)),
            Err(OrbError::Timeout { .. })
        ));
    }

    #[test]
    fn close_wakes_blocked_receiver() {
        let (a, b) = ChorusComChannel::pair();
        let t = std::thread::spawn(move || {
            let start = Instant::now();
            let res = b.recv_frame(Duration::from_secs(10));
            (res, start.elapsed())
        });
        std::thread::sleep(Duration::from_millis(20));
        a.close();
        let (res, waited) = t.join().unwrap();
        assert!(matches!(res, Err(OrbError::Closed)));
        assert!(waited < Duration::from_secs(2));
    }
}
