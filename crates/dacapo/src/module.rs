//! The module interface: Da CaPo's unified building block.
//!
//! *"The unified module interface allows free and unconstrained combination
//! of modules to protocols"* (Section 5.1). A module sees two packet
//! streams — **down** (application → wire) and **up** (wire → application)
//! — plus periodic timer ticks for retransmission logic (by deadline:
//! traffic does not postpone them). It emits any number of packets in
//! either direction per event; the runtime moves them to the neighbouring
//! modules' queues.
//!
//! Backpressure: a module may pause its down-direction intake (e.g. an ARQ
//! with a full window) by returning `false` from
//! [`Module::ready_for_down`]; the runtime then leaves its down queue
//! standing and makes the next sender wait until it has emptied — the
//! flow-control behaviour the paper measures with the IRQ configuration.

use crate::packet::Packet;
use std::time::Duration;

/// Packets a module wants forwarded after processing one event.
#[derive(Debug, Default)]
pub struct Outputs {
    pub(crate) down: Vec<Packet>,
    pub(crate) up: Vec<Packet>,
}

impl Outputs {
    /// Creates an empty output set.
    pub fn new() -> Self {
        Outputs::default()
    }

    /// Emits a packet towards the wire.
    pub fn push_down(&mut self, pkt: Packet) {
        self.down.push(pkt);
    }

    /// Emits a packet towards the application.
    pub fn push_up(&mut self, pkt: Packet) {
        self.up.push(pkt);
    }

    /// Drains the queued down-direction packets.
    pub fn take_down(&mut self) -> Vec<Packet> {
        std::mem::take(&mut self.down)
    }

    /// Drains the queued up-direction packets.
    pub fn take_up(&mut self) -> Vec<Packet> {
        std::mem::take(&mut self.up)
    }

    /// How many packets are queued, both directions together.
    pub fn len(&self) -> usize {
        self.down.len() + self.up.len()
    }

    /// Whether nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.down.is_empty() && self.up.is_empty()
    }
}

/// A protocol mechanism instance living at one position of a module graph.
///
/// Implementations are single-threaded: the runtime calls all methods of
/// all modules of a stack one callback at a time, under that stack's lock —
/// `process_down` on the thread that sends, `process_up` and `on_tick` on
/// the connection's receive thread — so `&mut self` state needs no
/// internal locking: the guarantee the paper's one-thread-per-module
/// design gave, kept by a design with no thread per stack at all. A module
/// must not block in a callback: it would hold up every module of its
/// stack, the sender it runs on and the receive thread behind it.
pub trait Module: Send {
    /// Short name for diagnostics (usually the mechanism id).
    fn name(&self) -> &str;

    /// Handles a packet moving towards the wire.
    fn process_down(&mut self, pkt: Packet, out: &mut Outputs);

    /// Handles a packet moving towards the application.
    fn process_up(&mut self, pkt: Packet, out: &mut Outputs);

    /// Periodic timer callback (`now` is time since connection start);
    /// default does nothing.
    fn on_tick(&mut self, now: Duration, out: &mut Outputs) {
        let _ = (now, out);
    }

    /// Whether the module is willing to accept another down-direction
    /// packet right now; `false` exerts backpressure on the sender.
    fn ready_for_down(&self) -> bool {
        true
    }

    /// Whether the module holds no deferred state (unacknowledged window,
    /// reorder buffer, partial reassembly). Used by graceful teardown to
    /// decide when a stack has quiesced.
    fn is_idle(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;

    impl Module for Nop {
        fn name(&self) -> &str {
            "nop"
        }
        fn process_down(&mut self, pkt: Packet, out: &mut Outputs) {
            out.push_down(pkt);
        }
        fn process_up(&mut self, pkt: Packet, out: &mut Outputs) {
            out.push_up(pkt);
        }
    }

    #[test]
    fn outputs_collect_and_drain() {
        let mut out = Outputs::new();
        assert!(out.is_empty());
        out.push_down(Packet::data(b"a"));
        out.push_up(Packet::data(b"b"));
        assert!(!out.is_empty());
        assert_eq!(out.take_down().len(), 1);
        assert_eq!(out.take_up().len(), 1);
        assert!(out.is_empty());
    }

    #[test]
    fn default_trait_methods() {
        let mut m = Nop;
        assert!(m.ready_for_down());
        let mut out = Outputs::new();
        m.on_tick(Duration::ZERO, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn module_is_object_safe() {
        let mut m: Box<dyn Module> = Box::new(Nop);
        let mut out = Outputs::new();
        m.process_down(Packet::data(b"x"), &mut out);
        assert_eq!(out.take_down()[0].payload(), b"x");
    }
}
