//! Packets: the unit of data flowing through module graphs.
//!
//! In the original Da CaPo, packets live in shared memory and modules
//! exchange *pointers* over their queues (Figure 6). The Rust equivalent is
//! an owned [`Packet`] moved through channels — a move is a few machine
//! words; the payload is never copied by the queueing machinery itself.
//!
//! Protocol modules add their header on the way **down** and strip it on
//! the way **up**. To make both operations O(header), a packet keeps spare
//! *headroom* in front of the payload: [`Packet::push_header`] writes into
//! the headroom, [`Packet::pop_header`] gives it back. Trailers work
//! symmetrically at the tail.
//!
//! Storage comes in two flavours. Packets built from an application
//! payload own a `Vec<u8>` with headroom, as before. Packets arriving from
//! a transport enter via [`Packet::from_shared`] as a *view* over the
//! reference-counted wire frame ([`Bytes`]): the whole up-path — header
//! pops, payload reads, handing the payload to the application — then
//! needs no copy at all. Only a mutating operation (header/trailer push,
//! [`Packet::payload_mut`], [`Packet::set_payload`]) converts a shared
//! packet to owned storage, copying once and recording the copy with
//! [`cool_telemetry::allocs::record_buffer_alloc`].

use bytes::Bytes;
use cool_telemetry::allocs::record_buffer_alloc;

/// Default headroom reserved for module headers (bytes).
pub const DEFAULT_HEADROOM: usize = 64;

/// Spare capacity reserved behind the payload for module trailers (a
/// parity word, a CRC): the first trailer pushed onto a fresh buffer must
/// not reallocate the frame it closes.
const TAILROOM: usize = 32;

/// An owned buffer holding `payload` behind `headroom` zeroed bytes, with
/// [`TAILROOM`] spare capacity after it. Only the headroom is zero-filled;
/// the payload is written once.
fn owned_storage(payload: &[u8], headroom: usize) -> Vec<u8> {
    record_buffer_alloc();
    let mut storage = Vec::with_capacity(headroom + payload.len() + TAILROOM);
    storage.resize(headroom, 0);
    storage.extend_from_slice(payload);
    storage
}

/// Whether a packet carries application data or module-to-module control
/// information (acknowledgements, window updates, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// Application payload.
    Data,
    /// Protocol-internal control traffic.
    Control,
}

/// Backing storage: a view over a shared wire frame (up-path, zero-copy)
/// or an owned buffer with headroom (down-path, mutable).
#[derive(Debug, Clone)]
enum Storage {
    Shared(Bytes),
    Owned(Vec<u8>),
}

/// A packet travelling through a module graph.
#[derive(Debug, Clone)]
pub struct Packet {
    storage: Storage,
    start: usize,
    end: usize,
    kind: PacketKind,
}

impl Packet {
    /// Creates a data packet from an application payload, reserving
    /// [`DEFAULT_HEADROOM`] in front.
    pub fn data(payload: &[u8]) -> Self {
        Packet::with_headroom(payload, DEFAULT_HEADROOM, PacketKind::Data)
    }

    /// Creates a data packet around shared storage without copying; an
    /// alias for [`Packet::from_shared`] with [`PacketKind::Data`].
    pub fn data_shared(payload: Bytes) -> Self {
        Packet::from_shared(payload, PacketKind::Data)
    }

    /// Creates a control packet with the given body.
    pub fn control(body: &[u8]) -> Self {
        Packet::with_headroom(body, DEFAULT_HEADROOM, PacketKind::Control)
    }

    /// The teardown sentinel a transport pump sends up a stack when the
    /// wire is gone: an empty control packet. Modules never emit control
    /// packets upward (control traffic is consumed at its destination
    /// layer) and wire frames enter as data, so the combination is
    /// unambiguous; the runtime passes it from module to module untouched,
    /// behind the data that preceded it.
    pub(crate) fn close_sentinel() -> Self {
        Packet::from_shared(Bytes::new(), PacketKind::Control)
    }

    /// Whether this is [`Packet::close_sentinel`].
    pub(crate) fn is_close_sentinel(&self) -> bool {
        self.kind == PacketKind::Control && self.is_empty()
    }

    /// Creates a packet with explicit headroom.
    pub fn with_headroom(payload: &[u8], headroom: usize, kind: PacketKind) -> Self {
        Packet {
            storage: Storage::Owned(owned_storage(payload, headroom)),
            start: headroom,
            end: headroom + payload.len(),
            kind,
        }
    }

    /// Reconstructs a packet from a raw wire frame by copying it (no
    /// headroom needed on the way up — headers are only *removed*).
    ///
    /// Prefer [`Packet::from_shared`] when the frame is already in shared
    /// storage; this slice-only constructor remains for callers that never
    /// materialised a [`Bytes`].
    pub fn from_wire(frame: &[u8], kind: PacketKind) -> Self {
        Packet::with_headroom(frame, 0, kind)
    }

    /// Wraps a shared wire frame as a packet **without copying**. The
    /// packet is a view: header pops and payload reads stay zero-copy, and
    /// [`Packet::into_bytes`] hands the remaining payload onward still
    /// sharing the original frame's storage.
    pub fn from_shared(frame: Bytes, kind: PacketKind) -> Self {
        let end = frame.len();
        Packet {
            storage: Storage::Shared(frame),
            start: 0,
            end,
            kind,
        }
    }

    /// The packet kind.
    pub fn kind(&self) -> PacketKind {
        self.kind
    }

    /// Reinterprets the packet kind (used when a control packet is
    /// recognised at its destination layer).
    pub fn set_kind(&mut self, kind: PacketKind) {
        self.kind = kind;
    }

    /// Current payload view (between all pushed headers and trailers).
    pub fn payload(&self) -> &[u8] {
        match &self.storage {
            Storage::Shared(b) => &b[self.start..self.end],
            Storage::Owned(v) => &v[self.start..self.end],
        }
    }

    /// Mutable payload view. Converts shared storage to owned (one copy).
    pub fn payload_mut(&mut self) -> &mut [u8] {
        self.make_owned();
        match &mut self.storage {
            Storage::Owned(v) => &mut v[self.start..self.end],
            Storage::Shared(_) => unreachable!("make_owned converted storage"),
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the packet, returning its payload as [`Bytes`] without
    /// copying: shared storage is sliced, owned storage is moved into
    /// shared storage wholesale.
    pub fn into_bytes(self) -> Bytes {
        match self.storage {
            Storage::Shared(b) => b.slice(self.start..self.end),
            Storage::Owned(v) => Bytes::from(v).slice(self.start..self.end),
        }
    }

    /// Prepends `header` to the payload, growing the storage if the
    /// headroom is exhausted.
    pub fn push_header(&mut self, header: &[u8]) {
        self.make_owned();
        let Storage::Owned(storage) = &mut self.storage else {
            unreachable!("make_owned converted storage")
        };
        if header.len() > self.start {
            // Grow: reallocate with fresh headroom in front.
            let needed = header.len() + DEFAULT_HEADROOM;
            *storage = owned_storage(&storage[self.start..self.end], needed);
            self.end = storage.len();
            self.start = needed;
        }
        self.start -= header.len();
        storage[self.start..self.start + header.len()].copy_from_slice(header);
    }

    /// Removes and returns the first `n` payload bytes (a header pushed by
    /// the peer module). Zero-copy for shared packets.
    ///
    /// Returns `None` if the payload is shorter than `n`.
    pub fn pop_header(&mut self, n: usize) -> Option<Bytes> {
        if self.len() < n {
            return None;
        }
        let header = match &self.storage {
            Storage::Shared(b) => b.slice(self.start..self.start + n),
            // Headers are a handful of bytes — a small copy, not a
            // data-path buffer allocation.
            Storage::Owned(v) => Bytes::copy_from_slice(&v[self.start..self.start + n]),
        };
        self.start += n;
        Some(header)
    }

    /// Appends `trailer` after the payload.
    pub fn push_trailer(&mut self, trailer: &[u8]) {
        self.make_owned();
        let Storage::Owned(storage) = &mut self.storage else {
            unreachable!("make_owned converted storage")
        };
        // Anything behind `end` is a trailer already popped.
        storage.truncate(self.end);
        storage.extend_from_slice(trailer);
        self.end += trailer.len();
    }

    /// Removes and returns the last `n` payload bytes. Zero-copy for
    /// shared packets.
    ///
    /// Returns `None` if the payload is shorter than `n`.
    pub fn pop_trailer(&mut self, n: usize) -> Option<Bytes> {
        if self.len() < n {
            return None;
        }
        let trailer = match &self.storage {
            Storage::Shared(b) => b.slice(self.end - n..self.end),
            Storage::Owned(v) => Bytes::copy_from_slice(&v[self.end - n..self.end]),
        };
        self.end -= n;
        Some(trailer)
    }

    /// Replaces the payload entirely (used by transforming modules such as
    /// compression).
    pub fn set_payload(&mut self, payload: &[u8]) {
        self.make_owned();
        let Storage::Owned(storage) = &mut self.storage else {
            unreachable!("make_owned converted storage")
        };
        if self.start + payload.len() <= storage.len() {
            storage[self.start..self.start + payload.len()].copy_from_slice(payload);
            self.end = self.start + payload.len();
        } else {
            record_buffer_alloc();
            let headroom = self.start;
            let mut grown = vec![0u8; headroom + payload.len()];
            grown[headroom..].copy_from_slice(payload);
            *storage = grown;
            self.end = headroom + payload.len();
        }
    }

    /// Converts shared storage to an owned buffer with fresh headroom so
    /// mutating operations can proceed. The single copy-on-write point of
    /// the packet; no-op for packets already owned.
    fn make_owned(&mut self) {
        if let Storage::Shared(b) = &self.storage {
            let len = self.end - self.start;
            let storage = owned_storage(&b[self.start..self.end], DEFAULT_HEADROOM);
            self.storage = Storage::Owned(storage);
            self.start = DEFAULT_HEADROOM;
            self.end = DEFAULT_HEADROOM + len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_packet_round_trip() {
        let p = Packet::data(b"payload");
        assert_eq!(p.payload(), b"payload");
        assert_eq!(p.len(), 7);
        assert_eq!(p.kind(), PacketKind::Data);
        assert!(!p.is_empty());
    }

    #[test]
    fn header_push_pop() {
        let mut p = Packet::data(b"body");
        p.push_header(b"H1");
        p.push_header(b"H2");
        assert_eq!(p.payload(), b"H2H1body");
        assert_eq!(p.pop_header(2).unwrap(), &b"H2"[..]);
        assert_eq!(p.pop_header(2).unwrap(), &b"H1"[..]);
        assert_eq!(p.payload(), b"body");
    }

    #[test]
    fn trailer_push_pop() {
        let mut p = Packet::data(b"body");
        p.push_trailer(b"T1");
        p.push_trailer(b"T2");
        assert_eq!(p.payload(), b"bodyT1T2");
        assert_eq!(p.pop_trailer(2).unwrap(), &b"T2"[..]);
        assert_eq!(p.pop_trailer(2).unwrap(), &b"T1"[..]);
        assert_eq!(p.payload(), b"body");
    }

    #[test]
    fn pop_beyond_payload_returns_none() {
        let mut p = Packet::data(b"ab");
        assert!(p.pop_header(3).is_none());
        assert!(p.pop_trailer(3).is_none());
        assert_eq!(p.payload(), b"ab");
    }

    #[test]
    fn headroom_overflow_grows() {
        let mut p = Packet::with_headroom(b"x", 2, PacketKind::Data);
        let big_header = vec![7u8; 100];
        p.push_header(&big_header);
        assert_eq!(p.len(), 101);
        assert_eq!(&p.payload()[..100], &big_header[..]);
        assert_eq!(p.payload()[100], b'x');
        // Further headers still work.
        p.push_header(b"hh");
        assert_eq!(&p.payload()[..2], b"hh");
    }

    #[test]
    fn from_wire_strips_nothing() {
        let p = Packet::from_wire(b"frame", PacketKind::Data);
        assert_eq!(p.payload(), b"frame");
    }

    #[test]
    fn set_payload_shrink_and_grow() {
        let mut p = Packet::data(b"abcdef");
        p.set_payload(b"xy");
        assert_eq!(p.payload(), b"xy");
        let long = vec![1u8; 500];
        p.set_payload(&long);
        assert_eq!(p.payload(), &long[..]);
    }

    #[test]
    fn control_packets_marked() {
        let mut p = Packet::control(b"ack");
        assert_eq!(p.kind(), PacketKind::Control);
        p.set_kind(PacketKind::Data);
        assert_eq!(p.kind(), PacketKind::Data);
    }

    #[test]
    fn payload_mut_mutates_in_place() {
        let mut p = Packet::data(b"abc");
        p.payload_mut()[0] = b'z';
        assert_eq!(p.payload(), b"zbc");
    }

    #[test]
    fn headers_after_growth_preserve_content() {
        let mut p = Packet::with_headroom(b"data", 0, PacketKind::Data);
        p.push_header(b"ABCD");
        assert_eq!(p.payload(), b"ABCDdata");
        assert_eq!(p.pop_header(4).unwrap(), &b"ABCD"[..]);
        assert_eq!(p.payload(), b"data");
    }

    #[test]
    fn from_shared_is_zero_copy_through_pop_and_into_bytes() {
        let frame = Bytes::from(b"HDRpayload".to_vec());
        let base = frame.as_ref().as_ptr();
        let mut p = Packet::from_shared(frame, PacketKind::Data);
        let hdr = p.pop_header(3).unwrap();
        assert_eq!(hdr, &b"HDR"[..]);
        // Header view and remaining payload both alias the original frame.
        assert_eq!(hdr.as_ref().as_ptr(), base);
        assert_eq!(p.payload(), b"payload");
        let out = p.into_bytes();
        assert_eq!(out, &b"payload"[..]);
        assert_eq!(out.as_ref().as_ptr(), base.wrapping_add(3));
    }

    #[test]
    fn shared_packet_copies_once_on_mutation() {
        let frame = Bytes::from(b"abcdef".to_vec());
        let mut p = Packet::from_shared(frame.clone(), PacketKind::Data);
        p.payload_mut()[0] = b'z';
        assert_eq!(p.payload(), b"zbcdef");
        // The original shared frame is untouched.
        assert_eq!(frame, &b"abcdef"[..]);
        // After copy-on-write the packet has headroom for headers again.
        p.push_header(b"HH");
        assert_eq!(p.payload(), b"HHzbcdef");
    }

    #[test]
    fn into_bytes_moves_owned_storage_without_copy() {
        let mut p = Packet::data(b"body");
        p.push_header(b"H");
        let before = p.payload().as_ptr();
        let out = p.into_bytes();
        assert_eq!(out, &b"Hbody"[..]);
        // The owned Vec moved into the Bytes arc: same backing address.
        assert_eq!(out.as_ref().as_ptr(), before);
    }

    #[test]
    fn a_trailer_after_a_header_does_not_move_the_frame() {
        // `seq` then `parity` on every media frame: the copy-on-write
        // buffer has room for both, so the 4 KiB payload is copied once.
        let frame = Bytes::from(vec![0xabu8; 4096]);
        let mut p = Packet::from_shared(frame, PacketKind::Data);
        p.push_header(&[1, 2, 3, 4]);
        let body = p.payload()[4..].as_ptr();
        p.push_trailer(&[5, 6, 7, 8]);
        assert_eq!(p.payload()[4..].as_ptr(), body);
        assert_eq!(p.len(), 4 + 4096 + 4);
        assert_eq!(&p.payload()[4100..], &[5, 6, 7, 8]);
        // A popped trailer's bytes are not resurrected by the next push.
        p.pop_trailer(4).unwrap();
        p.push_trailer(&[9]);
        assert_eq!(&p.payload()[4099..], &[0xab, 9]);
        assert_eq!(p.payload()[4..].as_ptr(), body);
    }

    #[test]
    fn trailer_pop_on_shared_storage_is_a_view() {
        let frame = Bytes::from(b"payloadTT".to_vec());
        let mut p = Packet::from_shared(frame, PacketKind::Data);
        let t = p.pop_trailer(2).unwrap();
        assert_eq!(t, &b"TT"[..]);
        assert_eq!(p.payload(), b"payload");
    }
}
