//! GIOP service contexts (`IOP::ServiceContextList`).
//!
//! Service contexts piggyback ORB-service data (transactions, codesets, …)
//! on Requests and Replies. COOL's QoS extension does *not* use them — the
//! paper deliberately extends the Request header instead, so the QoS data
//! is part of the protocol proper — but the list must still be marshalled
//! for CORBA compliance.

use crate::cdr::{Cdr, CdrDecoder, CdrEncoder, MAX_LENGTH};
use crate::error::GiopError;

/// Inline capacity of [`ContextData`]: covers both trace contexts (21 and
/// 37 bytes) and typical QoS encapsulations, so the per-invocation
/// encode/decode path never touches the heap for them.
pub const INLINE_CONTEXT_DATA: usize = 40;

/// Opaque context payload. Payloads of up to [`INLINE_CONTEXT_DATA`] bytes
/// are stored inline (no allocation — this type is built and torn down on
/// every traced invocation); larger ones fall back to the heap. The
/// representation is an implementation detail: equality, hashing and all
/// accessors see only the byte content.
#[derive(Clone)]
pub struct ContextData(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        buf: [u8; INLINE_CONTEXT_DATA],
    },
    Heap(Vec<u8>),
}

impl ContextData {
    /// Wraps a byte slice, inline when it fits.
    #[inline]
    pub fn from_slice(data: &[u8]) -> Self {
        if data.len() <= INLINE_CONTEXT_DATA {
            let mut buf = [0u8; INLINE_CONTEXT_DATA];
            buf[..data.len()].copy_from_slice(data);
            ContextData(Repr::Inline {
                len: data.len() as u8,
                buf,
            })
        } else {
            ContextData(Repr::Heap(data.to_vec()))
        }
    }

    /// The payload bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }

    /// Payload length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the payload is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for ContextData {
    #[inline]
    fn default() -> Self {
        ContextData(Repr::Inline {
            len: 0,
            buf: [0; INLINE_CONTEXT_DATA],
        })
    }
}

impl std::ops::Deref for ContextData {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for ContextData {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for ContextData {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ContextData {}

impl std::fmt::Debug for ContextData {
    #[expect(
        clippy::missing_inline_in_public_items,
        reason = "cold: formatting is off the call path"
    )]
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl From<Vec<u8>> for ContextData {
    #[inline]
    fn from(data: Vec<u8>) -> Self {
        if data.len() <= INLINE_CONTEXT_DATA {
            ContextData::from_slice(&data)
        } else {
            ContextData(Repr::Heap(data))
        }
    }
}

impl From<&[u8]> for ContextData {
    #[inline]
    fn from(data: &[u8]) -> Self {
        ContextData::from_slice(data)
    }
}

/// One tagged service context entry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceContext {
    /// IANA/OMG-assigned context identifier.
    pub context_id: u32,
    /// Opaque encapsulated data.
    pub context_data: ContextData,
}

impl ServiceContext {
    /// Creates a context entry.
    #[expect(
        clippy::missing_inline_in_public_items,
        reason = "generic: instantiated in its caller's crate"
    )]
    pub fn new(context_id: u32, context_data: impl Into<ContextData>) -> Self {
        ServiceContext {
            context_id,
            context_data: context_data.into(),
        }
    }
}

impl Cdr for ServiceContext {
    #[inline]
    fn encode(&self, enc: &mut CdrEncoder) {
        enc.put_u32(self.context_id);
        enc.put_octet_seq(&self.context_data);
    }

    #[inline]
    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, GiopError> {
        Ok(ServiceContext {
            context_id: dec.get_u32()?,
            context_data: ContextData::from_slice(dec.get_octet_slice()?),
        })
    }
}

/// Inline capacity of [`ServiceContextList`]: a Reply carries at most a
/// QoS-granted entry plus a trace entry, so the per-invocation encode and
/// decode paths never spill to the heap.
pub const INLINE_CONTEXTS: usize = 2;

/// The `ServiceContextList`: a CDR sequence of [`ServiceContext`].
///
/// Lists of up to [`INLINE_CONTEXTS`] entries — every list this ORB sends
/// or receives from itself — are stored inline; longer lists (a foreign
/// peer stacking many services) fall back to the heap. As with
/// [`ContextData`], the representation is invisible: equality and all
/// accessors see only the entries.
#[derive(Clone)]
pub struct ServiceContextList(ListRepr);

#[derive(Clone)]
enum ListRepr {
    Inline {
        len: u8,
        buf: [ServiceContext; INLINE_CONTEXTS],
    },
    Heap(Vec<ServiceContext>),
}

impl ServiceContextList {
    /// An empty list.
    #[inline]
    pub fn empty() -> Self {
        ServiceContextList(ListRepr::Inline {
            len: 0,
            buf: Default::default(),
        })
    }

    /// The entries as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[ServiceContext] {
        match &self.0 {
            ListRepr::Inline { len, buf } => &buf[..usize::from(*len)],
            ListRepr::Heap(v) => v,
        }
    }

    /// Whether the list has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// An upper bound on the bytes [`Cdr::encode`] writes for this list
    /// when it starts 4-aligned: the count, then per entry its id, length,
    /// payload and up to 3 bytes of padding before what follows.
    #[inline]
    pub fn encoded_len_bound(&self) -> usize {
        4 + self
            .as_slice()
            .iter()
            .map(|c| 4 + 4 + c.context_data.len() + 3)
            .sum::<usize>()
    }

    /// Finds the first entry with the given id.
    #[inline]
    pub fn find(&self, context_id: u32) -> Option<&ServiceContext> {
        self.as_slice().iter().find(|c| c.context_id == context_id)
    }

    /// Appends an entry, spilling to the heap past [`INLINE_CONTEXTS`].
    #[inline]
    pub fn push(&mut self, ctx: ServiceContext) {
        match &mut self.0 {
            ListRepr::Inline { len, buf } if usize::from(*len) < INLINE_CONTEXTS => {
                buf[usize::from(*len)] = ctx;
                *len += 1;
            }
            ListRepr::Inline { buf, .. } => {
                let mut v = Vec::with_capacity(INLINE_CONTEXTS + 1);
                v.extend(buf.iter_mut().map(std::mem::take));
                v.push(ctx);
                self.0 = ListRepr::Heap(v);
            }
            ListRepr::Heap(v) => v.push(ctx),
        }
    }
}

impl Default for ServiceContextList {
    #[inline]
    fn default() -> Self {
        ServiceContextList::empty()
    }
}

impl PartialEq for ServiceContextList {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ServiceContextList {}

impl std::fmt::Debug for ServiceContextList {
    #[expect(
        clippy::missing_inline_in_public_items,
        reason = "cold: formatting is off the call path"
    )]
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl FromIterator<ServiceContext> for ServiceContextList {
    #[expect(
        clippy::missing_inline_in_public_items,
        reason = "generic: instantiated in its caller's crate"
    )]
    fn from_iter<I: IntoIterator<Item = ServiceContext>>(iter: I) -> Self {
        let mut list = ServiceContextList::empty();
        for ctx in iter {
            list.push(ctx);
        }
        list
    }
}

impl Cdr for ServiceContextList {
    #[inline]
    fn encode(&self, enc: &mut CdrEncoder) {
        enc.put_seq(self.as_slice());
    }

    #[inline]
    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, GiopError> {
        let len = dec.get_u32()?;
        if len > MAX_LENGTH {
            return Err(GiopError::LengthOverflow {
                declared: len as u64,
                limit: MAX_LENGTH as u64,
            });
        }
        // An entry takes at least 8 bytes, its id and its length: a count
        // the input cannot hold fails before anything is reserved, and one
        // it can is reserved once, never grown by doubling.
        let len = len as usize;
        if len > dec.remaining() / 8 {
            return Err(GiopError::Underflow {
                needed: len * 8,
                remaining: dec.remaining(),
            });
        }
        let mut list = if len <= INLINE_CONTEXTS {
            ServiceContextList::empty()
        } else {
            ServiceContextList(ListRepr::Heap(Vec::with_capacity(len)))
        };
        for _ in 0..len {
            list.push(ServiceContext::decode(dec)?);
        }
        Ok(list)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdr::ByteOrder;

    #[test]
    fn empty_list_round_trip() {
        let list = ServiceContextList::empty();
        let mut enc = CdrEncoder::new(ByteOrder::Big);
        list.encode(&mut enc);
        let bytes = enc.into_bytes();
        assert_eq!(&bytes[..], &[0, 0, 0, 0]);
        let mut dec = CdrDecoder::new(&bytes, ByteOrder::Big);
        assert_eq!(ServiceContextList::decode(&mut dec).unwrap(), list);
    }

    #[test]
    fn populated_list_round_trip() {
        let list: ServiceContextList = [
            ServiceContext::new(1, vec![0xAA, 0xBB]),
            ServiceContext::new(0xFFFF, vec![]),
        ]
        .into_iter()
        .collect();
        let mut enc = CdrEncoder::new(ByteOrder::Little);
        list.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = CdrDecoder::new(&bytes, ByteOrder::Little);
        let decoded = ServiceContextList::decode(&mut dec).unwrap();
        assert_eq!(decoded, list);
        assert_eq!(decoded.len(), 2);
        assert!(decoded.find(1).is_some());
        assert!(decoded.find(2).is_none());
    }

    #[test]
    fn list_spills_to_heap_past_inline_capacity() {
        let mut list = ServiceContextList::empty();
        for id in 0..(INLINE_CONTEXTS as u32 + 2) {
            list.push(ServiceContext::new(id, vec![id as u8]));
        }
        assert_eq!(list.len(), INLINE_CONTEXTS + 2);
        for id in 0..(INLINE_CONTEXTS as u32 + 2) {
            assert_eq!(list.find(id).unwrap().context_data.as_slice(), &[id as u8]);
        }
        let mut enc = CdrEncoder::new(ByteOrder::Big);
        list.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = CdrDecoder::new(&bytes, ByteOrder::Big);
        assert_eq!(ServiceContextList::decode(&mut dec).unwrap(), list);
    }

    #[test]
    fn context_data_inline_and_heap_compare_by_content() {
        let inline = ContextData::from_slice(&[7; INLINE_CONTEXT_DATA]);
        let heap = ContextData::from(vec![7; INLINE_CONTEXT_DATA + 1]);
        assert_eq!(inline.len(), INLINE_CONTEXT_DATA);
        assert_eq!(heap.len(), INLINE_CONTEXT_DATA + 1);
        assert_ne!(inline, heap);
        assert_eq!(inline, ContextData::from(vec![7; INLINE_CONTEXT_DATA]));
        assert_eq!(&heap[..2], &[7, 7]);
        assert!(ContextData::default().is_empty());
    }
}
