//! Payloads the workloads send and the checks on what comes back. Every
//! payload carries its op id in its first 8 bytes; stream frames add the
//! send stamp and an FNV-1a hash of the body.

use crate::rng::Rng;
use bytes::Bytes;

/// Bytes of header in front of a stream frame's body: seq, send stamp, hash.
pub const FRAME_HEADER: usize = 24;

/// Seeded bodies a stream source cycles through.
const FRAME_BODIES: usize = 64;

/// FNV-1a over little-endian 8-byte words (a short tail is zero-padded):
/// the byte-wise loop would cost more than the pipeline under test.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |word: u64| {
        hash ^= word;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        fold(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        fold(u64::from_le_bytes(word));
    }
    hash
}

/// A copy of `template` with `op` in its first 8 bytes.
pub fn stamped(template: &[u8], op: u64) -> Bytes {
    let mut v = template.to_vec();
    v[..8].copy_from_slice(&op.to_le_bytes());
    Bytes::from(v)
}

/// The op id a payload carries, if it is long enough to carry one.
pub fn op_of(payload: &[u8]) -> Option<u64> {
    payload
        .get(..8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

/// Builds and checks the `media_stream` frames.
pub struct FrameSet {
    bodies: Vec<(Vec<u8>, u64)>,
}

/// What a received frame said about itself, once its hash has checked out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    pub seq: u64,
    pub sent_ns: u64,
}

impl FrameSet {
    pub fn new(seed: u64, frame_len: usize) -> Self {
        let mut rng = Rng::lane(seed, 0x40);
        let bodies = (0..FRAME_BODIES)
            .map(|_| {
                let body = rng.bytes(frame_len - FRAME_HEADER);
                let hash = fnv1a(&body);
                (body, hash)
            })
            .collect();
        FrameSet { bodies }
    }

    pub fn frame(&self, seq: u64, sent_ns: u64) -> Bytes {
        let (body, hash) = &self.bodies[seq as usize % self.bodies.len()];
        let mut v = Vec::with_capacity(FRAME_HEADER + body.len());
        v.extend_from_slice(&seq.to_le_bytes());
        v.extend_from_slice(&sent_ns.to_le_bytes());
        v.extend_from_slice(&hash.to_le_bytes());
        v.extend_from_slice(body);
        Bytes::from(v)
    }

    /// `None` when the frame is short or its body does not hash to what its
    /// header claims.
    pub fn check(frame: &[u8]) -> Option<FrameInfo> {
        let word = |i: usize| {
            frame
                .get(i * 8..i * 8 + 8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        };
        let (seq, sent_ns, hash) = (word(0)?, word(1)?, word(2)?);
        let body = &frame[FRAME_HEADER..];
        (fnv1a(body) == hash).then_some(FrameInfo { seq, sent_ns })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_sees_every_byte_including_the_tail() {
        let base = fnv1a(b"0123456789abc");
        for i in 0..13 {
            let mut other = *b"0123456789abc";
            other[i] ^= 1;
            assert_ne!(fnv1a(&other), base, "byte {i} not covered");
        }
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn frames_check_out_and_corruption_does_not() {
        let set = FrameSet::new(5, 4096);
        let frame = set.frame(70, 123);
        assert_eq!(frame.len(), 4096);
        assert_eq!(
            FrameSet::check(&frame),
            Some(FrameInfo {
                seq: 70,
                sent_ns: 123
            })
        );
        let mut bad = frame.to_vec();
        bad[2000] ^= 0x10;
        assert_eq!(FrameSet::check(&bad), None);
        assert_eq!(FrameSet::check(&frame[..10]), None);
        assert_eq!(
            set.frame(6, 0)[FRAME_HEADER..],
            FrameSet::new(5, 4096).frame(6, 9)[FRAME_HEADER..]
        );
    }

    #[test]
    fn stamped_payload_carries_its_op() {
        let p = stamped(&[0xAA; 64], 0x0102_0304_0506_0708);
        assert_eq!(op_of(&p), Some(0x0102_0304_0506_0708));
        assert_eq!(&p[8..], &[0xAA; 56][..]);
        assert_eq!(op_of(&[1, 2, 3]), None);
    }
}
