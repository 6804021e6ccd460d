//! Selective-repeat ARQ: the third acknowledgement mechanism.
//!
//! Where go-back-N discards every out-of-order arrival, selective repeat
//! buffers them and retransmits *only* the missing packets — better
//! bandwidth efficiency on lossy links at the price of receiver memory
//! and per-packet ACK traffic. Having three mechanisms (IRQ, go-back-N,
//! selective repeat) for the single protocol function *retransmission* is
//! exactly the catalogue richness Da CaPo's configuration approach is
//! designed to exploit.
//!
//! Wire header (prepended, 5 bytes): `ptype (1) | seq (4, BE)`;
//! `ptype` 0 = DATA, 2 = SACK (selective ack of exactly that sequence).

use crate::module::{Module, Outputs};
use crate::packet::{Packet, PacketKind};
use std::collections::BTreeMap;
use std::time::Duration;

const PTYPE_DATA: u8 = 0;
const PTYPE_SACK: u8 = 2;

/// Per-packet sender bookkeeping.
#[derive(Debug)]
struct InFlight {
    packet: Packet,
    ticks_since_send: u32,
}

/// Selective-repeat ARQ module.
#[derive(Debug)]
pub struct SelectiveRepeatModule {
    window_size: usize,
    next_seq: u32,
    window: BTreeMap<u32, InFlight>,
    /// Receiver: next sequence to deliver in order.
    next_expected: u32,
    /// Receiver: buffered out-of-order arrivals.
    reorder: BTreeMap<u32, Packet>,
    retransmissions: u64,
    duplicates_dropped: u64,
}

impl SelectiveRepeatModule {
    /// Ticks a packet may remain unacknowledged before retransmission.
    pub const RETRANSMIT_TICKS: u32 = 3;

    /// Creates a module with the given send window.
    ///
    /// # Panics
    ///
    /// Panics if `window_size` is zero.
    pub fn new(window_size: usize) -> Self {
        assert!(window_size > 0, "selective-repeat window must be nonzero");
        SelectiveRepeatModule {
            window_size,
            next_seq: 0,
            window: BTreeMap::new(),
            next_expected: 0,
            reorder: BTreeMap::new(),
            retransmissions: 0,
            duplicates_dropped: 0,
        }
    }

    /// Configured window size.
    pub fn window_size(&self) -> usize {
        self.window_size
    }

    /// Packets awaiting acknowledgement.
    pub fn in_flight(&self) -> usize {
        self.window.len()
    }

    /// Total packets retransmitted.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Duplicate data packets discarded (and re-acked).
    pub fn duplicates_dropped(&self) -> u64 {
        self.duplicates_dropped
    }

    fn sack(seq: u32, out: &mut Outputs) {
        let mut ack = Packet::control(&[]);
        let mut header = [0u8; 5];
        header[0] = PTYPE_SACK;
        header[1..5].copy_from_slice(&seq.to_be_bytes());
        ack.push_header(&header);
        out.push_down(ack);
    }

    fn release_in_order(&mut self, out: &mut Outputs) {
        while let Some(pkt) = self.reorder.remove(&self.next_expected) {
            out.push_up(pkt);
            self.next_expected = self.next_expected.wrapping_add(1);
        }
    }

    /// Wrapping "is `a` before `b`" comparison.
    fn before(a: u32, b: u32) -> bool {
        b.wrapping_sub(a).wrapping_sub(1) < u32::MAX / 2
    }
}

impl Module for SelectiveRepeatModule {
    fn name(&self) -> &str {
        "selective-repeat"
    }

    fn ready_for_down(&self) -> bool {
        self.window.len() < self.window_size
    }

    fn is_idle(&self) -> bool {
        self.window.is_empty() && self.reorder.is_empty()
    }

    fn process_down(&mut self, mut pkt: Packet, out: &mut Outputs) {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let mut header = [0u8; 5];
        header[0] = PTYPE_DATA;
        header[1..5].copy_from_slice(&seq.to_be_bytes());
        pkt.push_header(&header);
        self.window.insert(
            seq,
            InFlight {
                packet: pkt.clone(),
                ticks_since_send: 0,
            },
        );
        out.push_down(pkt);
    }

    fn process_up(&mut self, mut pkt: Packet, out: &mut Outputs) {
        let Some(header) = pkt.pop_header(5) else {
            return;
        };
        let seq = u32::from_be_bytes([header[1], header[2], header[3], header[4]]);
        match header[0] {
            PTYPE_DATA => {
                // Always acknowledge exactly what arrived.
                Self::sack(seq, out);
                if Self::before(seq, self.next_expected)
                    || seq == self.next_expected.wrapping_sub(1)
                {
                    self.duplicates_dropped += 1;
                    return;
                }
                if seq == self.next_expected {
                    self.next_expected = self.next_expected.wrapping_add(1);
                    pkt.set_kind(PacketKind::Data);
                    out.push_up(pkt);
                    self.release_in_order(out);
                } else if let std::collections::btree_map::Entry::Vacant(e) =
                    self.reorder.entry(seq)
                {
                    e.insert(pkt);
                } else {
                    self.duplicates_dropped += 1;
                }
            }
            PTYPE_SACK => {
                self.window.remove(&seq);
            }
            _ => {}
        }
    }

    fn on_tick(&mut self, _now: Duration, out: &mut Outputs) {
        let mut to_resend = Vec::new();
        for (seq, entry) in self.window.iter_mut() {
            entry.ticks_since_send += 1;
            if entry.ticks_since_send >= Self::RETRANSMIT_TICKS {
                entry.ticks_since_send = 0;
                to_resend.push(*seq);
            }
        }
        for seq in to_resend {
            if let Some(entry) = self.window.get(&seq) {
                self.retransmissions += 1;
                out.push_down(entry.packet.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(tx: &mut SelectiveRepeatModule, payload: &[u8]) -> Packet {
        let mut out = Outputs::new();
        tx.process_down(Packet::data(payload), &mut out);
        out.take_down().remove(0)
    }

    fn feed(rx: &mut SelectiveRepeatModule, pkt: Packet) -> (Vec<Packet>, Vec<Packet>) {
        let mut out = Outputs::new();
        rx.process_up(pkt, &mut out);
        (out.take_up(), out.take_down())
    }

    #[test]
    fn in_order_delivery_with_per_packet_acks() {
        let mut tx = SelectiveRepeatModule::new(8);
        let mut rx = SelectiveRepeatModule::new(8);
        for i in 0..4u8 {
            let wire = stamp(&mut tx, &[i]);
            let (up, acks) = feed(&mut rx, wire);
            assert_eq!(up.len(), 1);
            assert_eq!(acks.len(), 1, "selective repeat acks every packet");
            feed(&mut tx, acks.into_iter().next().unwrap());
        }
        assert_eq!(tx.in_flight(), 0);
    }

    #[test]
    fn out_of_order_is_buffered_not_dropped() {
        let mut tx = SelectiveRepeatModule::new(8);
        let mut rx = SelectiveRepeatModule::new(8);
        let p0 = stamp(&mut tx, b"0");
        let p1 = stamp(&mut tx, b"1");
        let p2 = stamp(&mut tx, b"2");

        // p1 and p2 arrive before p0: nothing delivered yet, but both are
        // acknowledged and retained.
        let (up, _) = feed(&mut rx, p1);
        assert!(up.is_empty());
        let (up, _) = feed(&mut rx, p2);
        assert!(up.is_empty());
        // p0 arrives: all three release in order.
        let (up, _) = feed(&mut rx, p0);
        assert_eq!(up.len(), 3);
        assert_eq!(up[0].payload(), b"0");
        assert_eq!(up[1].payload(), b"1");
        assert_eq!(up[2].payload(), b"2");
    }

    #[test]
    fn only_missing_packet_is_retransmitted() {
        let mut tx = SelectiveRepeatModule::new(8);
        let mut rx = SelectiveRepeatModule::new(8);
        let p0 = stamp(&mut tx, b"0"); // will be "lost"
        let p1 = stamp(&mut tx, b"1");
        let p2 = stamp(&mut tx, b"2");
        drop(p0);
        for pkt in [p1, p2] {
            let (_, acks) = feed(&mut rx, pkt);
            for ack in acks {
                feed(&mut tx, ack);
            }
        }
        assert_eq!(tx.in_flight(), 1, "only seq 0 unacked");

        let mut out = Outputs::new();
        for _ in 0..SelectiveRepeatModule::RETRANSMIT_TICKS {
            tx.on_tick(Duration::ZERO, &mut out);
        }
        let resent = out.take_down();
        assert_eq!(resent.len(), 1, "go-back-n would resend all three");
        assert_eq!(tx.retransmissions(), 1);

        let (up, acks) = feed(&mut rx, resent.into_iter().next().unwrap());
        assert_eq!(up.len(), 3, "gap filled: 0,1,2 released");
        for ack in acks {
            feed(&mut tx, ack);
        }
        assert_eq!(tx.in_flight(), 0);
    }

    #[test]
    fn duplicates_reacked_and_dropped() {
        let mut tx = SelectiveRepeatModule::new(4);
        let mut rx = SelectiveRepeatModule::new(4);
        let p0 = stamp(&mut tx, b"0");
        let dup = p0.clone();
        feed(&mut rx, p0);
        let (up, acks) = feed(&mut rx, dup);
        assert!(up.is_empty());
        assert_eq!(acks.len(), 1, "duplicate still acknowledged");
        assert_eq!(rx.duplicates_dropped(), 1);
    }

    #[test]
    fn window_gates_intake() {
        let mut tx = SelectiveRepeatModule::new(2);
        assert!(tx.ready_for_down());
        stamp(&mut tx, b"0");
        stamp(&mut tx, b"1");
        assert!(!tx.ready_for_down());
    }

    #[test]
    fn malformed_header_ignored() {
        let mut rx = SelectiveRepeatModule::new(4);
        let (up, down) = feed(&mut rx, Packet::from_wire(b"xy", PacketKind::Data));
        assert!(up.is_empty() && down.is_empty());
    }

    #[test]
    #[should_panic(expected = "window must be nonzero")]
    fn zero_window_rejected() {
        let _ = SelectiveRepeatModule::new(0);
    }
}
