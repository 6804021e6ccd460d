//! Layer A: the application-side endpoint of a running module stack.

use crate::error::DacapoError;
use crate::packet::Packet;
use crate::runtime::QuiesceSignal;
use crate::stats::ThroughputMeter;
use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TrySendError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The application handle of a connection: what COOL's
/// `DacapoComChannel` (or the measuring application of Figure 9) sends and
/// receives through.
#[derive(Debug, Clone)]
pub struct AppEndpoint {
    to_stack: Sender<Packet>,
    from_stack: Receiver<Packet>,
    tx_meter: Arc<ThroughputMeter>,
    rx_meter: Arc<ThroughputMeter>,
    /// The stack's packet count: sends enter it, receives leave it — which
    /// can complete quiescence, so they tell any `drain` waiter to re-check.
    quiesce: Arc<QuiesceSignal>,
    /// Set once this application has been told the wire is gone (closed by
    /// the peer, severed, I/O error): by the executor when a send fails, or
    /// here when the close sentinel — which travels up behind the inbound
    /// data that preceded it — is received. From then on sends fail and
    /// receives report [`DacapoError::Closed`] instead of idling out their
    /// timeout.
    transport_dead: Arc<AtomicBool>,
}

impl AppEndpoint {
    pub(crate) fn new(
        to_stack: Sender<Packet>,
        from_stack: Receiver<Packet>,
        tx_meter: Arc<ThroughputMeter>,
        rx_meter: Arc<ThroughputMeter>,
        quiesce: Arc<QuiesceSignal>,
        transport_dead: Arc<AtomicBool>,
    ) -> Self {
        AppEndpoint {
            to_stack,
            from_stack,
            tx_meter,
            rx_meter,
            quiesce,
            transport_dead,
        }
    }

    /// Whether this application has been told that the underlying transport
    /// is gone.
    pub fn transport_closed(&self) -> bool {
        self.transport_dead.load(Ordering::Acquire)
    }

    /// Sends a message to the peer application.
    ///
    /// Blocks when the stack applies backpressure (e.g. a full ARQ
    /// window).
    ///
    /// # Errors
    ///
    /// [`DacapoError::Closed`] once the connection is torn down.
    pub fn send(&self, payload: Bytes) -> Result<(), DacapoError> {
        if self.transport_closed() {
            return Err(DacapoError::Closed);
        }
        self.tx_meter.record(payload.len());
        // The payload enters the stack as a shared view — no copy unless a
        // module below needs to mutate it. Counted in before it is queued:
        // a drain that follows this send must not find the stack empty
        // while a module holds the packet between two queues.
        self.quiesce.enter(1);
        self.to_stack
            .send(Packet::data_shared(payload))
            .map_err(|_| {
                self.quiesce.leave(1);
                DacapoError::Closed
            })
    }

    /// Sends without blocking.
    ///
    /// # Errors
    ///
    /// [`DacapoError::Timeout`] (zero duration) when the stack is
    /// backpressured, [`DacapoError::Closed`] on teardown.
    pub fn try_send(&self, payload: Bytes) -> Result<(), DacapoError> {
        if self.transport_closed() {
            return Err(DacapoError::Closed);
        }
        let len = payload.len();
        self.quiesce.enter(1);
        self.to_stack
            .try_send(Packet::data_shared(payload))
            .map(|()| self.tx_meter.record(len))
            .map_err(|refused| {
                self.quiesce.leave(1);
                match refused {
                    TrySendError::Full(_) => DacapoError::Timeout(Duration::ZERO),
                    TrySendError::Disconnected(_) => DacapoError::Closed,
                }
            })
    }

    /// What came off the top up-queue: a payload, or the close sentinel.
    /// Either way the queue shrank, which can complete quiescence.
    fn deliver(&self, pkt: Packet) -> Result<Bytes, DacapoError> {
        self.quiesce.leave(1);
        self.quiesce.pulse();
        if pkt.is_close_sentinel() {
            self.transport_dead.store(true, Ordering::Release);
            return Err(DacapoError::Closed);
        }
        self.rx_meter.record(pkt.len());
        Ok(pkt.into_bytes())
    }

    /// Receives the next message from the peer.
    ///
    /// # Errors
    ///
    /// [`DacapoError::Timeout`] on expiry, [`DacapoError::Closed`] on
    /// teardown.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Bytes, DacapoError> {
        // Fast path: transport already dead and nothing buffered — report
        // closure immediately rather than waiting out the timeout.
        if self.transport_closed() && self.from_stack.is_empty() {
            return Err(DacapoError::Closed);
        }
        match self.from_stack.recv_timeout(timeout) {
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
        if self.transport_closed() && self.from_stack.is_empty() {
            return Err(DacapoError::Closed);
        }
        match self.from_stack.recv() {
            Ok(pkt) => self.deliver(pkt),
            Err(_) => Err(DacapoError::Closed),
        }
    }

    /// Bytes/packets sent by this endpoint.
    pub fn tx_meter(&self) -> &ThroughputMeter {
        &self.tx_meter
    }

    /// Bytes/packets received by this endpoint.
    pub fn rx_meter(&self) -> &ThroughputMeter {
        &self.rx_meter
    }

    /// Shared handle to the send meter (for monitors outliving borrows).
    pub fn tx_meter_shared(&self) -> Arc<ThroughputMeter> {
        self.tx_meter.clone()
    }

    /// Shared handle to the receive meter (for monitors outliving borrows).
    pub fn rx_meter_shared(&self) -> Arc<ThroughputMeter> {
        self.rx_meter.clone()
    }
}
