//! Endpoint halves of a duplex link.

use crate::error::NetSimError;
use crate::link::Direction;
use crate::spec::LinkSpec;
use bytes::Bytes;
use std::sync::Arc;
use std::time::Duration;

/// One side of a duplex [`crate::Link`].
///
/// Sending is shaped by the link spec; receiving blocks until the simulated
/// delivery time. Dropping an endpoint signals disconnection to the peer's
/// receiver once all in-flight frames drain.
///
/// Endpoints are `Send` and can be moved across threads, but each endpoint
/// is a single logical station — wrap in `Arc<Mutex<_>>` if several threads
/// must share one.
#[derive(Debug)]
pub struct Endpoint {
    tx: Arc<Direction>,
    rx: Arc<Direction>,
}

impl Endpoint {
    pub(crate) fn new(tx: Arc<Direction>, rx: Arc<Direction>) -> Self {
        Endpoint { tx, rx }
    }

    /// Sends one frame towards the peer.
    ///
    /// Returns as soon as the frame is accepted onto the (simulated) wire;
    /// shaping delays apply at the receiver.
    ///
    /// # Errors
    ///
    /// [`NetSimError::FrameTooLarge`] if the frame exceeds the link MTU;
    /// [`NetSimError::Disconnected`] once either endpoint is closed.
    pub fn send(&self, frame: Bytes) -> Result<(), NetSimError> {
        self.tx.send(frame)
    }

    /// Blocks until the next frame is delivered.
    ///
    /// # Errors
    ///
    /// [`NetSimError::Disconnected`] once the peer endpoint is dropped or
    /// closed and all in-flight frames have been consumed, or as soon as
    /// this endpoint is [closed](Endpoint::close).
    pub fn recv(&self) -> Result<Bytes, NetSimError> {
        self.rx.recv_until(None)
    }

    /// Blocks for at most `timeout` for the next frame.
    ///
    /// # Errors
    ///
    /// [`NetSimError::Timeout`] if no frame is delivered in time;
    /// [`NetSimError::Disconnected`] as for [`Endpoint::recv`].
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Bytes, NetSimError> {
        let deadline = self.rx.clock().now() + timeout;
        self.rx.recv_until(Some(deadline))
    }

    /// Returns the next frame if one is already deliverable.
    ///
    /// # Errors
    ///
    /// [`NetSimError::WouldBlock`] if nothing is deliverable yet;
    /// [`NetSimError::Disconnected`] as for [`Endpoint::recv`].
    pub fn try_recv(&self) -> Result<Bytes, NetSimError> {
        self.rx.try_recv()
    }

    /// Closes this endpoint without dropping it: a receive blocked on this
    /// side returns [`NetSimError::Disconnected`] at once, the peer's
    /// receiver drains what is in flight and then reads the same, and sends
    /// from either side fail. Idempotent.
    pub fn close(&self) {
        self.tx.mark_sender_gone();
        self.rx.close_receiver();
    }

    /// The link spec shaping this endpoint's outgoing direction.
    pub fn spec(&self) -> &LinkSpec {
        self.tx.spec()
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.tx.mark_sender_gone();
    }
}

#[cfg(test)]
mod tests {
    use crate::error::NetSimError;
    use crate::link::Link;
    use crate::spec::LinkSpec;
    use bytes::Bytes;

    #[test]
    fn endpoint_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<super::Endpoint>();
    }

    #[test]
    fn spec_accessor_reflects_link() {
        let spec = LinkSpec::builder().bandwidth_bps(123_456).build().unwrap();
        let link = Link::virtual_time(spec);
        let (a, _b) = link.endpoints();
        assert_eq!(a.spec().bandwidth_bps(), 123_456);
    }

    #[test]
    fn close_wakes_own_receiver_and_lets_the_peer_drain() {
        let link = Link::real_time(
            LinkSpec::builder()
                .bandwidth_bps(1_000_000_000)
                .propagation(std::time::Duration::ZERO)
                .build()
                .unwrap(),
        );
        let (a, b) = link.endpoints();
        let a = std::sync::Arc::new(a);
        a.send(Bytes::from_static(b"tail")).unwrap();
        let blocked = {
            let a = a.clone();
            std::thread::spawn(move || a.recv())
        };
        a.close();
        assert_eq!(blocked.join().unwrap().unwrap_err(), NetSimError::Disconnected);
        assert_eq!(&b.recv().unwrap()[..], b"tail");
        assert_eq!(b.recv().unwrap_err(), NetSimError::Disconnected);
        assert_eq!(a.send(Bytes::new()).unwrap_err(), NetSimError::Disconnected);
        assert_eq!(b.send(Bytes::new()).unwrap_err(), NetSimError::Disconnected);
    }

    #[test]
    fn cross_thread_ping_pong() {
        let link = Link::real_time(
            LinkSpec::builder()
                .bandwidth_bps(1_000_000_000)
                .propagation(std::time::Duration::ZERO)
                .build()
                .unwrap(),
        );
        let (a, b) = link.endpoints();
        let server = std::thread::spawn(move || {
            for _ in 0..10 {
                let f = b.recv().unwrap();
                b.send(f).unwrap();
            }
        });
        for i in 0..10u8 {
            a.send(Bytes::from(vec![i; 4])).unwrap();
            let echo = a.recv().unwrap();
            assert_eq!(echo[0], i);
        }
        server.join().unwrap();
    }
}
