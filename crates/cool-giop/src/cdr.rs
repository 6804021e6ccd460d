//! Common Data Representation (CDR) marshalling.
//!
//! CDR is CORBA's on-the-wire encoding: primitives are aligned to their
//! natural size relative to the start of the encapsulation, strings carry a
//! `u32` length including a NUL terminator, sequences a `u32` element
//! count. Both byte orders are legal; the GIOP header's `byte_order` flag
//! says which one a message uses, and the decoder honours it.

use crate::error::GiopError;
use bytes::{BufMut, Bytes, BytesMut};

/// Maximum length the decoder accepts for any single string or sequence.
///
/// This bounds allocation from hostile or corrupt input; it comfortably
/// exceeds the 64 KiB packets used in the paper's measurements.
pub const MAX_LENGTH: u32 = 64 * 1024 * 1024;

/// Byte order of a CDR stream, carried in the GIOP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ByteOrder {
    /// Big-endian ("network order"); `byte_order` flag = 0.
    Big,
    /// Little-endian; `byte_order` flag = 1.
    Little,
}

impl ByteOrder {
    /// The native byte order of this host.
    pub fn native() -> Self {
        if cfg!(target_endian = "little") {
            ByteOrder::Little
        } else {
            ByteOrder::Big
        }
    }

    /// Encoding of the GIOP `boolean byte_order` flag.
    pub fn flag(self) -> u8 {
        match self {
            ByteOrder::Big => 0,
            ByteOrder::Little => 1,
        }
    }

    /// Decodes the GIOP `byte_order` flag.
    ///
    /// # Errors
    ///
    /// [`GiopError::InvalidBool`] for flags other than 0 or 1.
    pub fn from_flag(flag: u8) -> Result<Self, GiopError> {
        match flag {
            0 => Ok(ByteOrder::Big),
            1 => Ok(ByteOrder::Little),
            other => Err(GiopError::InvalidBool(other)),
        }
    }
}

/// Streaming CDR encoder writing into a growable buffer.
///
/// Alignment is relative to the start of the *encapsulation*, not the
/// underlying buffer: an encoder appended to a buffer that already holds a
/// GIOP header ([`CdrEncoder::append_to`]) aligns relative to the first
/// body byte, so the body is byte-identical to one encoded standalone.
#[derive(Debug)]
pub struct CdrEncoder {
    buf: BytesMut,
    /// Offset of the encapsulation start within `buf`; alignment and
    /// [`CdrEncoder::len`] are relative to this.
    base: usize,
    order: ByteOrder,
}

impl CdrEncoder {
    /// Creates an encoder for the given byte order.
    pub fn new(order: ByteOrder) -> Self {
        CdrEncoder {
            buf: BytesMut::with_capacity(64),
            base: 0,
            order,
        }
    }

    /// Creates an encoder with a capacity hint.
    pub fn with_capacity(order: ByteOrder, capacity: usize) -> Self {
        CdrEncoder {
            buf: BytesMut::with_capacity(capacity),
            base: 0,
            order,
        }
    }

    /// Creates an encoder that appends to an existing buffer, treating the
    /// current end of `buf` as offset 0 of the encapsulation. This is the
    /// zero-copy path: the GIOP framer writes its header, hands the same
    /// buffer here for the body, and takes it back with
    /// [`CdrEncoder::into_inner`] — no body copy.
    pub fn append_to(buf: BytesMut, order: ByteOrder) -> Self {
        let base = buf.len();
        CdrEncoder { buf, base, order }
    }

    /// The encoder's byte order.
    pub fn order(&self) -> ByteOrder {
        self.order
    }

    /// Bytes written so far (relative to the encapsulation start).
    pub fn len(&self) -> usize {
        self.buf.len() - self.base
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finishes encoding and returns the buffer.
    pub fn into_bytes(self) -> Bytes {
        self.buf.freeze()
    }

    /// Finishes encoding and returns the underlying buffer, including any
    /// prefix that was present before [`CdrEncoder::append_to`].
    pub fn into_inner(self) -> BytesMut {
        self.buf
    }

    fn align(&mut self, n: usize) {
        let misalign = (self.buf.len() - self.base) % n;
        if misalign != 0 {
            for _ in 0..(n - misalign) {
                self.buf.put_u8(0);
            }
        }
    }

    /// Writes a single octet (no alignment).
    pub fn put_octet(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Writes a boolean as one octet (1 = true).
    pub fn put_bool(&mut self, v: bool) {
        self.put_octet(v as u8);
    }

    /// Writes an unsigned short with 2-byte alignment.
    pub fn put_u16(&mut self, v: u16) {
        self.align(2);
        match self.order {
            ByteOrder::Big => self.buf.put_u16(v),
            ByteOrder::Little => self.buf.put_u16_le(v),
        }
    }

    /// Writes an unsigned long with 4-byte alignment.
    pub fn put_u32(&mut self, v: u32) {
        self.align(4);
        match self.order {
            ByteOrder::Big => self.buf.put_u32(v),
            ByteOrder::Little => self.buf.put_u32_le(v),
        }
    }

    /// Writes an unsigned long long with 8-byte alignment.
    pub fn put_u64(&mut self, v: u64) {
        self.align(8);
        match self.order {
            ByteOrder::Big => self.buf.put_u64(v),
            ByteOrder::Little => self.buf.put_u64_le(v),
        }
    }

    /// Writes a short with 2-byte alignment.
    pub fn put_i16(&mut self, v: i16) {
        self.put_u16(v as u16);
    }

    /// Writes a long with 4-byte alignment.
    pub fn put_i32(&mut self, v: i32) {
        self.put_u32(v as u32);
    }

    /// Writes a long long with 8-byte alignment.
    pub fn put_i64(&mut self, v: i64) {
        self.put_u64(v as u64);
    }

    /// Writes an IEEE-754 float with 4-byte alignment.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Writes an IEEE-754 double with 8-byte alignment.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a CDR string: `u32` length including the NUL terminator,
    /// UTF-8 bytes, NUL.
    pub fn put_string(&mut self, s: &str) {
        self.put_u32(s.len() as u32 + 1);
        self.buf.put_slice(s.as_bytes());
        self.buf.put_u8(0);
    }

    /// Writes a `sequence<octet>`: `u32` count + raw bytes.
    pub fn put_octet_seq(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.buf.put_slice(bytes);
    }

    /// Writes a sequence of encodable values: `u32` count + elements.
    pub fn put_seq<T: Cdr>(&mut self, items: &[T]) {
        self.put_u32(items.len() as u32);
        for item in items {
            item.encode(self);
        }
    }

    /// Writes raw bytes without any length prefix or alignment (used for
    /// pre-marshalled bodies).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.put_slice(bytes);
    }
}

/// Streaming CDR decoder over a byte slice.
#[derive(Debug)]
pub struct CdrDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
    order: ByteOrder,
}

impl<'a> CdrDecoder<'a> {
    /// Creates a decoder over `buf` using the given byte order.
    pub fn new(buf: &'a [u8], order: ByteOrder) -> Self {
        CdrDecoder { buf, pos: 0, order }
    }

    /// The decoder's byte order.
    pub fn order(&self) -> ByteOrder {
        self.order
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the input is fully consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn align(&mut self, n: usize) {
        let misalign = self.pos % n;
        if misalign != 0 {
            self.pos += n - misalign;
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], GiopError> {
        if self.remaining() < n {
            return Err(GiopError::Underflow {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one octet.
    ///
    /// # Errors
    ///
    /// [`GiopError::Underflow`] at end of input.
    pub fn get_octet(&mut self) -> Result<u8, GiopError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a boolean octet.
    ///
    /// # Errors
    ///
    /// [`GiopError::InvalidBool`] for octets other than 0/1.
    pub fn get_bool(&mut self) -> Result<bool, GiopError> {
        match self.get_octet()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(GiopError::InvalidBool(other)),
        }
    }

    /// Reads an aligned unsigned short.
    ///
    /// # Errors
    ///
    /// [`GiopError::Underflow`] at end of input.
    pub fn get_u16(&mut self) -> Result<u16, GiopError> {
        self.align(2);
        let b = self.take(2)?;
        let arr = [b[0], b[1]];
        Ok(match self.order {
            ByteOrder::Big => u16::from_be_bytes(arr),
            ByteOrder::Little => u16::from_le_bytes(arr),
        })
    }

    /// Reads an aligned unsigned long.
    ///
    /// # Errors
    ///
    /// [`GiopError::Underflow`] at end of input.
    pub fn get_u32(&mut self) -> Result<u32, GiopError> {
        self.align(4);
        let b = self.take(4)?;
        let arr = [b[0], b[1], b[2], b[3]];
        Ok(match self.order {
            ByteOrder::Big => u32::from_be_bytes(arr),
            ByteOrder::Little => u32::from_le_bytes(arr),
        })
    }

    /// Reads an aligned unsigned long long.
    ///
    /// # Errors
    ///
    /// [`GiopError::Underflow`] at end of input.
    pub fn get_u64(&mut self) -> Result<u64, GiopError> {
        self.align(8);
        let b = self.take(8)?;
        let arr = [b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]];
        Ok(match self.order {
            ByteOrder::Big => u64::from_be_bytes(arr),
            ByteOrder::Little => u64::from_le_bytes(arr),
        })
    }

    /// Reads an aligned short.
    ///
    /// # Errors
    ///
    /// [`GiopError::Underflow`] at end of input.
    pub fn get_i16(&mut self) -> Result<i16, GiopError> {
        Ok(self.get_u16()? as i16)
    }

    /// Reads an aligned long.
    ///
    /// # Errors
    ///
    /// [`GiopError::Underflow`] at end of input.
    pub fn get_i32(&mut self) -> Result<i32, GiopError> {
        Ok(self.get_u32()? as i32)
    }

    /// Reads an aligned long long.
    ///
    /// # Errors
    ///
    /// [`GiopError::Underflow`] at end of input.
    pub fn get_i64(&mut self) -> Result<i64, GiopError> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads an aligned IEEE-754 float.
    ///
    /// # Errors
    ///
    /// [`GiopError::Underflow`] at end of input.
    pub fn get_f32(&mut self) -> Result<f32, GiopError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads an aligned IEEE-754 double.
    ///
    /// # Errors
    ///
    /// [`GiopError::Underflow`] at end of input.
    pub fn get_f64(&mut self) -> Result<f64, GiopError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a CDR string.
    ///
    /// # Errors
    ///
    /// [`GiopError::InvalidString`] for missing NUL or invalid UTF-8;
    /// [`GiopError::LengthOverflow`] for absurd lengths;
    /// [`GiopError::Underflow`] at end of input.
    pub fn get_string(&mut self) -> Result<String, GiopError> {
        let len = self.get_u32()?;
        if len == 0 {
            return Err(GiopError::InvalidString(
                "zero-length string (must include nul)".into(),
            ));
        }
        if len > MAX_LENGTH {
            return Err(GiopError::LengthOverflow {
                declared: len as u64,
                limit: MAX_LENGTH as u64,
            });
        }
        let raw = self.take(len as usize)?;
        let (body, nul) = raw.split_at(len as usize - 1);
        if nul != [0] {
            return Err(GiopError::InvalidString("missing nul terminator".into()));
        }
        String::from_utf8(body.to_vec())
            .map_err(|e| GiopError::InvalidString(format!("invalid utf-8: {e}")))
    }

    /// Reads a `sequence<octet>`.
    ///
    /// # Errors
    ///
    /// [`GiopError::LengthOverflow`] for absurd lengths;
    /// [`GiopError::Underflow`] at end of input.
    pub fn get_octet_seq(&mut self) -> Result<Vec<u8>, GiopError> {
        Ok(self.get_octet_slice()?.to_vec())
    }

    /// Reads a `sequence<octet>` as a borrowed slice of the input buffer —
    /// the zero-copy form of [`get_octet_seq`](Self::get_octet_seq) for
    /// callers that parse the bytes in place instead of keeping them.
    ///
    /// # Errors
    ///
    /// [`GiopError::LengthOverflow`] for absurd lengths;
    /// [`GiopError::Underflow`] at end of input.
    pub fn get_octet_slice(&mut self) -> Result<&'a [u8], GiopError> {
        let len = self.get_u32()?;
        if len > MAX_LENGTH {
            return Err(GiopError::LengthOverflow {
                declared: len as u64,
                limit: MAX_LENGTH as u64,
            });
        }
        self.take(len as usize)
    }

    /// Reads a sequence of decodable values.
    ///
    /// # Errors
    ///
    /// Propagates element decode errors; [`GiopError::LengthOverflow`] for
    /// absurd element counts.
    pub fn get_seq<T: Cdr>(&mut self) -> Result<Vec<T>, GiopError> {
        let len = self.get_u32()?;
        if len > MAX_LENGTH {
            return Err(GiopError::LengthOverflow {
                declared: len as u64,
                limit: MAX_LENGTH as u64,
            });
        }
        let mut items = Vec::with_capacity((len as usize).min(1024));
        for _ in 0..len {
            items.push(T::decode(self)?);
        }
        Ok(items)
    }

    /// Reads all remaining bytes (used for message bodies).
    pub fn get_rest(&mut self) -> &'a [u8] {
        let rest = &self.buf[self.pos..];
        self.pos = self.buf.len();
        rest
    }
}

/// Types that marshal themselves into CDR and back. Both directions are
/// one trait, so a type that can be written can also be read: a codec with
/// one half missing does not compile.
pub trait Cdr: Sized {
    /// Appends this value to the encoder.
    fn encode(&self, enc: &mut CdrEncoder);

    /// Reads one value from the decoder.
    ///
    /// # Errors
    ///
    /// Returns a [`GiopError`] on malformed input.
    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, GiopError>;
}

macro_rules! impl_cdr_primitive {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Cdr for $ty {
            fn encode(&self, enc: &mut CdrEncoder) {
                enc.$put(*self);
            }

            fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, GiopError> {
                dec.$get()
            }
        }
    };
}

impl_cdr_primitive!(u8, put_octet, get_octet);
impl_cdr_primitive!(bool, put_bool, get_bool);
impl_cdr_primitive!(u16, put_u16, get_u16);
impl_cdr_primitive!(u32, put_u32, get_u32);
impl_cdr_primitive!(u64, put_u64, get_u64);
impl_cdr_primitive!(i16, put_i16, get_i16);
impl_cdr_primitive!(i32, put_i32, get_i32);
impl_cdr_primitive!(i64, put_i64, get_i64);
impl_cdr_primitive!(f32, put_f32, get_f32);
impl_cdr_primitive!(f64, put_f64, get_f64);

impl Cdr for String {
    fn encode(&self, enc: &mut CdrEncoder) {
        enc.put_string(self);
    }

    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, GiopError> {
        dec.get_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T>(value: T, order: ByteOrder) -> T
    where
        T: Cdr + PartialEq + std::fmt::Debug,
    {
        let mut enc = CdrEncoder::new(order);
        value.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = CdrDecoder::new(&bytes, order);
        let decoded = T::decode(&mut dec).unwrap();
        assert!(dec.is_exhausted(), "decoder left {} bytes", dec.remaining());
        decoded
    }

    #[test]
    fn primitives_round_trip_both_orders() {
        for order in [ByteOrder::Big, ByteOrder::Little] {
            assert_eq!(round_trip(0xABu8, order), 0xAB);
            assert!(round_trip(true, order));
            assert_eq!(round_trip(0x1234u16, order), 0x1234);
            assert_eq!(round_trip(0xDEADBEEFu32, order), 0xDEADBEEF);
            assert_eq!(
                round_trip(0x0123_4567_89AB_CDEFu64, order),
                0x0123_4567_89AB_CDEF
            );
            assert_eq!(round_trip(-42i16, order), -42);
            assert_eq!(round_trip(-1_000_000i32, order), -1_000_000);
            assert_eq!(round_trip(i64::MIN, order), i64::MIN);
            assert_eq!(round_trip(3.5f32, order), 3.5);
            assert_eq!(round_trip(-2.25f64, order), -2.25);
        }
    }

    #[test]
    fn big_endian_u32_wire_layout() {
        let mut enc = CdrEncoder::new(ByteOrder::Big);
        enc.put_u32(0x0102_0304);
        assert_eq!(&enc.into_bytes()[..], &[1, 2, 3, 4]);
    }

    #[test]
    fn little_endian_u32_wire_layout() {
        let mut enc = CdrEncoder::new(ByteOrder::Little);
        enc.put_u32(0x0102_0304);
        assert_eq!(&enc.into_bytes()[..], &[4, 3, 2, 1]);
    }

    #[test]
    fn alignment_inserts_padding() {
        let mut enc = CdrEncoder::new(ByteOrder::Big);
        enc.put_octet(0xFF);
        enc.put_u32(1); // needs 3 padding bytes at offsets 1..4
        let bytes = enc.into_bytes();
        assert_eq!(&bytes[..], &[0xFF, 0, 0, 0, 0, 0, 0, 1]);

        let mut dec = CdrDecoder::new(&bytes, ByteOrder::Big);
        assert_eq!(dec.get_octet().unwrap(), 0xFF);
        assert_eq!(dec.get_u32().unwrap(), 1);
    }

    #[test]
    fn alignment_for_u64_is_eight() {
        let mut enc = CdrEncoder::new(ByteOrder::Big);
        enc.put_u32(7);
        enc.put_u64(9);
        let bytes = enc.into_bytes();
        assert_eq!(bytes.len(), 16);
        let mut dec = CdrDecoder::new(&bytes, ByteOrder::Big);
        assert_eq!(dec.get_u32().unwrap(), 7);
        assert_eq!(dec.get_u64().unwrap(), 9);
    }

    #[test]
    fn string_layout_and_round_trip() {
        let mut enc = CdrEncoder::new(ByteOrder::Big);
        enc.put_string("hi");
        let bytes = enc.into_bytes();
        // length 3 (2 chars + nul), 'h', 'i', 0
        assert_eq!(&bytes[..], &[0, 0, 0, 3, b'h', b'i', 0]);
        assert_eq!(round_trip("hello".to_string(), ByteOrder::Little), "hello");
        assert_eq!(round_trip(String::new(), ByteOrder::Big), "");
    }

    #[test]
    fn string_missing_nul_rejected() {
        let bytes = [0, 0, 0, 2, b'h', b'i'];
        let mut dec = CdrDecoder::new(&bytes, ByteOrder::Big);
        assert!(matches!(dec.get_string(), Err(GiopError::InvalidString(_))));
    }

    #[test]
    fn string_invalid_utf8_rejected() {
        let bytes = [0, 0, 0, 2, 0xFF, 0];
        let mut dec = CdrDecoder::new(&bytes, ByteOrder::Big);
        assert!(matches!(dec.get_string(), Err(GiopError::InvalidString(_))));
    }

    #[test]
    fn zero_length_string_rejected() {
        let bytes = [0, 0, 0, 0];
        let mut dec = CdrDecoder::new(&bytes, ByteOrder::Big);
        assert!(matches!(dec.get_string(), Err(GiopError::InvalidString(_))));
    }

    #[test]
    fn octet_seq_round_trip() {
        let mut enc = CdrEncoder::new(ByteOrder::Big);
        enc.put_octet_seq(&[1, 2, 3]);
        let bytes = enc.into_bytes();
        let mut dec = CdrDecoder::new(&bytes, ByteOrder::Big);
        assert_eq!(dec.get_octet_seq().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn seq_of_u32_round_trip() {
        let mut enc = CdrEncoder::new(ByteOrder::Little);
        enc.put_seq(&[10u32, 20, 30]);
        let bytes = enc.into_bytes();
        let mut dec = CdrDecoder::new(&bytes, ByteOrder::Little);
        assert_eq!(dec.get_seq::<u32>().unwrap(), vec![10, 20, 30]);
    }

    #[test]
    fn underflow_reported_with_counts() {
        let mut dec = CdrDecoder::new(&[1, 2], ByteOrder::Big);
        let err = dec.get_u32().unwrap_err();
        assert!(matches!(
            err,
            GiopError::Underflow {
                needed: 4,
                remaining: 2
            }
        ));
    }

    #[test]
    fn invalid_bool_rejected() {
        let mut dec = CdrDecoder::new(&[2], ByteOrder::Big);
        assert_eq!(dec.get_bool().unwrap_err(), GiopError::InvalidBool(2));
    }

    #[test]
    fn hostile_length_rejected_before_allocation() {
        let mut enc = CdrEncoder::new(ByteOrder::Big);
        enc.put_u32(u32::MAX);
        let bytes = enc.into_bytes();
        let mut dec = CdrDecoder::new(&bytes, ByteOrder::Big);
        assert!(matches!(
            dec.get_octet_seq(),
            Err(GiopError::LengthOverflow { .. })
        ));
        let mut dec2 = CdrDecoder::new(&bytes, ByteOrder::Big);
        assert!(matches!(
            dec2.get_seq::<u32>(),
            Err(GiopError::LengthOverflow { .. })
        ));
        let mut dec3 = CdrDecoder::new(&bytes, ByteOrder::Big);
        assert!(matches!(
            dec3.get_string(),
            Err(GiopError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn byte_order_flag_round_trip() {
        assert_eq!(
            ByteOrder::from_flag(ByteOrder::Big.flag()).unwrap(),
            ByteOrder::Big
        );
        assert_eq!(
            ByteOrder::from_flag(ByteOrder::Little.flag()).unwrap(),
            ByteOrder::Little
        );
        assert!(ByteOrder::from_flag(7).is_err());
    }

    #[test]
    fn append_to_aligns_relative_to_encapsulation_start() {
        // A body appended after a 12-byte (non-8-aligned modulo buffer
        // start) prefix must pad exactly as a standalone body does.
        let mut standalone = CdrEncoder::new(ByteOrder::Big);
        standalone.put_octet(1);
        standalone.put_u64(0xAABB);
        let expect = standalone.into_bytes();

        let mut prefix = BytesMut::new();
        prefix.put_slice(&[0u8; 12]);
        let mut appended = CdrEncoder::append_to(prefix, ByteOrder::Big);
        appended.put_octet(1);
        appended.put_u64(0xAABB);
        assert_eq!(appended.len(), expect.len());
        let buf = appended.into_inner();
        assert_eq!(&buf[12..], &expect[..]);
    }

    #[test]
    fn get_rest_consumes_everything() {
        let mut dec = CdrDecoder::new(&[1, 2, 3], ByteOrder::Big);
        dec.get_octet().unwrap();
        assert_eq!(dec.get_rest(), &[2, 3]);
        assert!(dec.is_exhausted());
    }
}
