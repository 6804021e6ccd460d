//! A003 fixture: one-way codecs, a round-trip gap, a clean symmetric
//! type, the Encoder/Decoder sibling pairing and the qos_params check.

pub struct Good {
    v: u32,
}

impl CdrEncode for Good {
    fn encode(&self, e: &mut CdrEncoder) {
        e.write_u32(self.v);
    }
}

impl CdrDecode for Good {
    fn decode(d: &mut CdrDecoder) -> Self {
        Good { v: d.read_u32() }
    }
}

/// Encode-only: flagged as a one-way codec.
pub struct OneWay {
    v: u32,
}

impl CdrEncode for OneWay {
    fn encode(&self, e: &mut CdrEncoder) {
        e.write_u32(self.v);
    }
}

/// Symmetric but never exercised: flagged as a round-trip gap.
pub struct Untested {
    v: u32,
}

impl CdrEncode for Untested {
    fn encode(&self, e: &mut CdrEncoder) {
        e.write_u32(self.v);
    }
}

impl CdrDecode for Untested {
    fn decode(d: &mut CdrDecoder) -> Self {
        Untested { v: d.read_u32() }
    }
}

/// The 9.9 extension marker: the crate mentions `qos_params` but no test
/// exercises it under either byte order — flagged.
pub struct Header {
    pub qos_params: u32,
}

/// Write side paired with [`CdrDecoder`]'s read side: clean.
pub struct CdrEncoder {
    buf: u32,
}

impl CdrEncoder {
    pub fn write_u32(&mut self, v: u32) {
        self.buf = v;
    }
}

pub struct CdrDecoder {
    buf: u32,
}

impl CdrDecoder {
    pub fn read_u32(&mut self) -> u32 {
        self.buf
    }
}

/// Free pair: clean.
pub fn encode_blob(v: u32) -> u32 {
    v
}

pub fn decode_blob(v: u32) -> u32 {
    v
}

/// Free encode with no `decode_frame`: flagged.
pub fn encode_frame(v: u32) -> u32 {
    v
}

/// Another one-way free fn, with an inline exemption: suppressed.
// lint: allow(A003, fixture: digest input only, nothing ever decodes it)
pub fn encode_digest(v: u32) -> u32 {
    v
}

#[cfg(test)]
mod tests {
    /// Names Good, OneWay, CdrEncoder and CdrDecoder (round-trip
    /// coverage); deliberately never mentions Untested, qos_params or the
    /// byte orders.
    fn round_trips() {
        let g = Good { v: 1 };
        let w = OneWay { v: 2 };
        let mut e = CdrEncoder { buf: 0 };
        let mut d = CdrDecoder { buf: 0 };
        check(g, w, e, d);
    }
}
