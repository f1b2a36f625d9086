//! Bit-level primitives for the segment payload codec: an LSB-first
//! bit stream, zigzag signed↔unsigned mapping, and Rice coding with an
//! escape for outliers.
//!
//! Bit order is LSB-first within each byte: the first bit written
//! lands in bit 0 of byte 0. Multi-bit fields are written least
//! significant bit first, so writer and reader agree without any
//! byte-order bookkeeping.

/// Number of unary `1` bits after which a Rice codeword escapes to a
/// fixed-width raw value (keeps pathological deltas bounded).
pub const RICE_ESCAPE_Q: u32 = 16;

/// Width of the escaped raw value: zigzagged 10-bit deltas span
/// `0..=2046`, which fits in 11 bits.
pub const RICE_ESCAPE_BITS: u8 = 11;

/// Maps a signed value onto the non-negative integers with small
/// magnitudes first: `0, -1, 1, -2, 2, …` → `0, 1, 2, 3, 4, …`.
#[must_use]
pub fn zigzag64(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag64`].
#[must_use]
pub fn unzigzag64(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// An append-only LSB-first bit stream.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Bits already used in the final byte of `out` (0 when byte-aligned).
    used: u8,
}

impl BitWriter {
    /// An empty stream.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a single bit.
    pub fn push_bit(&mut self, bit: bool) {
        if self.used == 0 {
            self.out.push(0);
        }
        if bit {
            let last = self.out.last_mut().expect("pushed above");
            *last |= 1 << self.used;
        }
        self.used = (self.used + 1) % 8;
    }

    /// Appends the `n` least significant bits of `value`, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn push_bits(&mut self, value: u64, n: u8) {
        assert!(n <= 64, "at most 64 bits per field");
        for i in 0..n {
            self.push_bit(value >> i & 1 == 1);
        }
    }

    /// Appends `count` one-bits followed by a terminating zero
    /// (classic unary).
    pub fn push_unary(&mut self, count: u32) {
        for _ in 0..count {
            self.push_bit(true);
        }
        self.push_bit(false);
    }

    /// Rice-codes `value` with parameter `k`. Values whose quotient
    /// reaches [`RICE_ESCAPE_Q`] are written as the escape marker
    /// followed by the raw [`RICE_ESCAPE_BITS`]-bit value.
    pub fn push_rice(&mut self, value: u32, k: u8) {
        let q = value >> k;
        if q >= RICE_ESCAPE_Q {
            for _ in 0..RICE_ESCAPE_Q {
                self.push_bit(true);
            }
            self.push_bits(u64::from(value), RICE_ESCAPE_BITS);
        } else {
            self.push_unary(q);
            self.push_bits(u64::from(value) & ((1 << k) - 1), k);
        }
    }

    /// Number of bits a Rice codeword for `value` at parameter `k`
    /// would occupy (used to pick `k` exactly).
    #[must_use]
    pub fn rice_cost(value: u32, k: u8) -> u32 {
        let q = value >> k;
        if q >= RICE_ESCAPE_Q {
            RICE_ESCAPE_Q + u32::from(RICE_ESCAPE_BITS)
        } else {
            q + 1 + u32::from(k)
        }
    }

    /// Finishes the stream, zero-padding the final partial byte.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.out
    }

    /// Bits written so far.
    #[must_use]
    pub fn bit_len(&self) -> usize {
        match self.used {
            0 => self.out.len() * 8,
            used => (self.out.len() - 1) * 8 + used as usize,
        }
    }
}

/// Reader over a [`BitWriter`] stream. Running off the end is an
/// error (torn payloads must not decode silently).
///
/// The reader keeps up to 63 unread bits in a word and refills it
/// from 8-byte little-endian loads, so a field or a whole Rice
/// codeword costs a mask and a shift rather than a loop over bits;
/// the unary prefix is counted with `trailing_ones`. Each read checks
/// the stream's remaining length up front and fails exactly when the
/// field extends past the end — the same read a bit-at-a-time reader
/// fails on.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Stream bits from the current position on, LSB first; only the
    /// low `avail` are counted, the bits above them are either the
    /// stream's next bits or zero past its end.
    word: u64,
    /// Counted bits in `word`.
    avail: u32,
    /// Byte offset of the next refill load.
    next: usize,
    /// Bits of the stream not yet read, `word` included.
    left: usize,
}

/// The payload bit stream ended before the decoder was done — the
/// segment is corrupt (CRC should have caught it first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitStreamExhausted;

/// The 8 bytes at `at` as a little-endian word, zero past the end.
fn load_le(bytes: &[u8], at: usize) -> u64 {
    if let Some(chunk) = bytes.get(at..).and_then(<[u8]>::first_chunk::<8>) {
        return u64::from_le_bytes(*chunk);
    }
    let mut buf = [0u8; 8];
    let tail = bytes.get(at..).unwrap_or(&[]);
    buf[..tail.len()].copy_from_slice(tail);
    u64::from_le_bytes(buf)
}

/// The low `n` bits set (`n <= 63`).
const fn mask(n: u32) -> u64 {
    (1 << n) - 1
}

impl<'a> BitReader<'a> {
    /// The widest field a single refilled word always holds.
    const WORD_BITS: u32 = 56;

    /// A reader over `bytes`, starting at bit 0 of byte 0.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            word: 0,
            avail: 0,
            next: 0,
            left: bytes.len() * 8,
        }
    }

    /// Tops `word` up to at least [`Self::WORD_BITS`] counted bits.
    #[inline]
    fn refill(&mut self) {
        if self.avail < Self::WORD_BITS {
            self.word |= load_le(self.bytes, self.next) << self.avail;
            let bytes = (63 - self.avail) / 8;
            self.next += bytes as usize;
            self.avail += bytes * 8;
        }
    }

    /// Drops `n` bits (`n <= avail`) from the front of the stream.
    #[inline]
    fn consume(&mut self, n: u32) {
        self.word >>= n;
        self.avail -= n;
        self.left -= n as usize;
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// [`BitStreamExhausted`] at end of input.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, BitStreamExhausted> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Reads `n` bits written by [`BitWriter::push_bits`].
    ///
    /// # Errors
    ///
    /// [`BitStreamExhausted`] when fewer than `n` bits are left.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    #[inline]
    pub fn read_bits(&mut self, n: u8) -> Result<u64, BitStreamExhausted> {
        assert!(n <= 64, "at most 64 bits per field");
        let n = u32::from(n);
        if n as usize > self.left {
            return Err(BitStreamExhausted);
        }
        if n > Self::WORD_BITS {
            let low = self.take(32);
            return Ok(low | self.take(n - 32) << 32);
        }
        Ok(self.take(n))
    }

    /// Takes `n <= WORD_BITS` bits known to be in the stream.
    #[inline]
    fn take(&mut self, n: u32) -> u64 {
        self.refill();
        let value = self.word & mask(n);
        self.consume(n);
        value
    }

    /// Reads a Rice codeword written with parameter `k`.
    ///
    /// # Errors
    ///
    /// [`BitStreamExhausted`] when the codeword extends past the end
    /// of input.
    #[inline]
    pub fn read_rice(&mut self, k: u8) -> Result<u32, BitStreamExhausted> {
        // A codeword is at most 16 + 11 bits, well inside a refill.
        self.refill();
        let q = self.word.trailing_ones().min(RICE_ESCAPE_Q);
        let (len, value) = if q < RICE_ESCAPE_Q {
            let k = u32::from(k);
            let r = (self.word >> (q + 1)) & mask(k);
            (q + 1 + k, (q << k) | r as u32)
        } else {
            let raw = (self.word >> q) & mask(u32::from(RICE_ESCAPE_BITS));
            (q + u32::from(RICE_ESCAPE_BITS), raw as u32)
        };
        if len as usize > self.left {
            return Err(BitStreamExhausted);
        }
        self.consume(len);
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_round_trips() {
        for v in [-5i64, -1, 0, 1, 2, 1023, -1023, i64::MIN / 2, i64::MAX / 2] {
            assert_eq!(unzigzag64(zigzag64(v)), v, "{v}");
        }
        assert_eq!(zigzag64(0), 0);
        assert_eq!(zigzag64(-1), 1);
        assert_eq!(zigzag64(1), 2);
    }

    #[test]
    fn bits_round_trip() {
        let mut w = BitWriter::new();
        w.push_bit(true);
        w.push_bits(0b1011_0010, 8);
        w.push_bits(0x3FF, 10);
        w.push_unary(5);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_bits(8).unwrap(), 0b1011_0010);
        assert_eq!(r.read_bits(10).unwrap(), 0x3FF);
        for _ in 0..5 {
            assert!(r.read_bit().unwrap());
        }
        assert!(!r.read_bit().unwrap());
    }

    #[test]
    fn rice_round_trips_all_ten_bit_deltas() {
        for k in 0..=10u8 {
            let mut w = BitWriter::new();
            for v in 0..=2046u32 {
                w.push_rice(v, k);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for v in 0..=2046u32 {
                assert_eq!(r.read_rice(k).unwrap(), v, "k={k} v={v}");
            }
        }
    }

    #[test]
    fn rice_cost_matches_written_bits() {
        for k in [0u8, 2, 5, 10] {
            for v in [0u32, 1, 7, 100, 2046] {
                let mut w = BitWriter::new();
                w.push_rice(v, k);
                assert_eq!(w.bit_len() as u32, BitWriter::rice_cost(v, k));
            }
        }
    }

    #[test]
    fn exhausted_stream_is_an_error() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert_eq!(r.read_bit(), Err(BitStreamExhausted));
    }
}
