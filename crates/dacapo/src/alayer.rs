//! Layer A: the application-side endpoint of a module stack.

use crate::error::DacapoError;
use crate::packet::Packet;
use crate::runtime::Stack;
use crate::stats::ThroughputMeter;
use bytes::Bytes;
use cool_telemetry::blocking;
use cool_telemetry::lockorder::Locked;
use crossbeam::channel::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

/// The application handle of a connection: what COOL's
/// `DacapoComChannel` (or the measuring application of Figure 9) sends and
/// receives through.
///
/// Sending runs the stack: the payload goes down the module chain and onto
/// the transport on the caller's thread. Receiving pulls from the queue the
/// holder of the connection's receive turn fills — unless the application installed a
/// [`crate::Sink`], which is then called instead.
#[derive(Debug, Clone)]
pub struct AppEndpoint {
    stack: Arc<Stack>,
}

impl AppEndpoint {
    pub(crate) fn new(stack: Arc<Stack>) -> Self {
        AppEndpoint { stack }
    }

    /// Whether this application has been told that the underlying transport
    /// is gone (closed by the peer, severed, I/O error): a write failed, or
    /// the close sentinel — which travels up behind the inbound data that
    /// preceded it — has been received. From then on sends fail and
    /// receives report [`DacapoError::Closed`] instead of idling out their
    /// timeout.
    pub fn transport_closed(&self) -> bool {
        self.stack.transport_closed()
    }

    /// Sends a message to the peer application: through the modules and
    /// onto the transport before it returns, at the cost of that work on
    /// the calling thread.
    ///
    /// Blocks while the stack applies backpressure (a module with a full
    /// ARQ window keeps a packet standing) and while the transport does (a
    /// full wire).
    ///
    /// # Errors
    ///
    /// [`DacapoError::Closed`] once the connection is torn down or the
    /// transport has failed.
    pub fn send(&self, payload: Bytes) -> Result<(), DacapoError> {
        self.stack.send(Locked::root(), payload, true)
    }

    /// Sends without waiting for the stack.
    ///
    /// # Errors
    ///
    /// [`DacapoError::Timeout`] (zero duration) when the stack is
    /// backpressured — a packet stands in front of a module, or behind
    /// another thread's write — [`DacapoError::Closed`] on teardown.
    pub fn try_send(&self, payload: Bytes) -> Result<(), DacapoError> {
        self.stack.send(Locked::root(), payload, false)
    }

    /// What came off the queue: a payload, or the close sentinel. Either
    /// way the stack holds one packet fewer, which can complete quiescence.
    fn deliver(&self, pkt: Packet) -> Result<Bytes, DacapoError> {
        self.stack.received(&pkt);
        if pkt.is_close_sentinel() {
            return Err(DacapoError::Closed);
        }
        Ok(pkt.into_bytes())
    }

    /// Receives the next message from the peer.
    ///
    /// # Errors
    ///
    /// [`DacapoError::Timeout`] on expiry, [`DacapoError::Closed`] on
    /// teardown.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Bytes, DacapoError> {
        let from_stack = &self.stack.from_stack;
        // Fast path: transport already dead and nothing buffered — report
        // closure immediately rather than waiting out the timeout.
        if self.transport_closed() && from_stack.is_empty() {
            return Err(DacapoError::Closed);
        }
        match blocking::recv_timeout(Locked::root(), from_stack, timeout) {
            Ok(pkt) => self.deliver(pkt),
            Err(RecvTimeoutError::Timeout) => {
                if self.transport_closed() {
                    Err(DacapoError::Closed)
                } else {
                    Err(DacapoError::Timeout(timeout))
                }
            }
            Err(RecvTimeoutError::Disconnected) => Err(DacapoError::Closed),
        }
    }

    /// Receives without a deadline (until teardown).
    ///
    /// # Errors
    ///
    /// [`DacapoError::Closed`] on teardown.
    pub fn recv(&self) -> Result<Bytes, DacapoError> {
        let from_stack = &self.stack.from_stack;
        if self.transport_closed() && from_stack.is_empty() {
            return Err(DacapoError::Closed);
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "the transport's end sends a close sentinel up the stack behind its frames, and a swap or teardown drops the queue's sender"
        )]
        let received = blocking::recv(Locked::root(), from_stack);
        match received {
            Ok(pkt) => self.deliver(pkt),
            Err(_) => Err(DacapoError::Closed),
        }
    }

    /// Packets waiting in the queue for a receive.
    #[cfg(test)]
    pub(crate) fn queued(&self) -> usize {
        self.stack.from_stack.len()
    }

    /// Bytes/packets sent by this endpoint.
    pub fn tx_meter(&self) -> &ThroughputMeter {
        &self.stack.tx_meter
    }

    /// Bytes/packets received by this endpoint.
    pub fn rx_meter(&self) -> &ThroughputMeter {
        &self.stack.rx_meter
    }
}
