//! MSB-first bit-granular writer and reader.
//!
//! All entropy coders in this crate ([`crate::elias`], [`crate::float`])
//! operate on top of these two types. Bits are packed most-significant-first
//! into bytes, which makes the byte dumps human-auditable: the first bit
//! written is the top bit of the first byte.
//!
//! Both types move whole words, not bits. The writer collects bits in a
//! 64-bit accumulator (one shift/or per [`BitWriter::write_bits`]) and
//! flushes it as eight big-endian bytes when it fills; the reader loads the
//! eight bytes under its cursor big-endian and shifts the wanted field out
//! of that window, assembling the window byte by byte only inside the last
//! eight bytes of the stream. The byte layout is the one a bit-at-a-time
//! coder produces — the test module keeps that coder as the oracle.

use crate::{CodecError, Result};

/// Accumulates individual bits into a byte buffer, MSB first.
///
/// # Example
///
/// ```
/// use jwins_codec::bitio::BitWriter;
///
/// let mut w = BitWriter::new();
/// w.write_bit(true);
/// w.write_bits(0b01, 2);
/// let bytes = w.into_bytes();
/// assert_eq!(bytes, vec![0b1010_0000]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Length of `buf` when this writer took it over (see [`Self::appending`]).
    base: usize,
    /// Pending bits in the low `filled` bits; anything above them is stale.
    acc: u64,
    /// Number of pending bits, always below 64.
    filled: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with capacity for exactly `bits` bits.
    pub fn with_capacity_bits(bits: usize) -> Self {
        Self::appending(Vec::with_capacity(bits.div_ceil(8)))
    }

    /// Continues `buf`: the first bit written becomes the top bit of the
    /// byte after its current content, and [`Self::into_bytes`] hands the
    /// whole buffer back. Lets a framed message be encoded in place behind
    /// its header.
    pub fn appending(buf: Vec<u8>) -> Self {
        Self {
            base: buf.len(),
            buf,
            acc: 0,
            filled: 0,
        }
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(u64::from(bit), 1);
    }

    /// Appends the lowest `count` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, count: u32) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        let free = 64 - self.filled;
        if count < free {
            let value = value & ((1u64 << count) - 1);
            self.acc = (self.acc << count) | value;
            self.filled += count;
            return;
        }
        // The top `free` bits of the field complete the word; `rest` stay.
        let rest = count - free;
        let head = value >> rest;
        let word = if free == 64 {
            head
        } else {
            (self.acc << free) | (head & ((1u64 << free) - 1))
        };
        self.buf.extend_from_slice(&word.to_be_bytes());
        self.acc = value;
        self.filled = rest;
    }

    /// Appends `count` zero bits.
    pub fn write_zeros(&mut self, mut count: u32) {
        while count > 64 {
            self.write_bits(0, 64);
            count -= 64;
        }
        self.write_bits(0, count);
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        (self.buf.len() - self.base) * 8 + self.filled as usize
    }

    /// Number of bytes the final buffer will occupy (incomplete byte rounds up).
    pub fn byte_len(&self) -> usize {
        self.bit_len().div_ceil(8)
    }

    /// Finishes the stream, zero-padding the trailing partial byte.
    pub fn into_bytes(mut self) -> Vec<u8> {
        if self.filled > 0 {
            let word = self.acc << (64 - self.filled);
            let bytes = self.filled.div_ceil(8) as usize;
            self.buf.extend_from_slice(&word.to_be_bytes()[..bytes]);
        }
        self.buf
    }
}

/// Reads bits MSB-first from a byte slice.
///
/// # Example
///
/// ```
/// use jwins_codec::bitio::BitReader;
///
/// let mut r = BitReader::new(&[0b1010_0000]);
/// assert_eq!(r.read_bit().unwrap(), true);
/// assert_eq!(r.read_bits(2).unwrap(), 0b01);
/// ```
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Absolute bit cursor from the start of `data`.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Most bits one window is guaranteed to hold past the cursor: 64 minus
    /// the up to 7 bits of the cursor's byte that are already consumed.
    pub(crate) const PEEK_MAX: u32 = 57;

    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Bits remaining in the stream (including any zero padding).
    pub fn remaining_bits(&self) -> usize {
        self.data.len() * 8 - self.pos
    }

    /// Current absolute bit position.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }

    /// The whole stream, for a caller that reads ahead of the cursor at
    /// [`Self::bit_pos`] by itself and then [`Self::skip`]s what it read.
    #[inline]
    pub(crate) fn data(&self) -> &'a [u8] {
        self.data
    }

    /// The next 64 bits from the cursor on, left-aligned. Bits past the end
    /// of the stream — and the low `pos % 8` bits — read as zero, so at
    /// least [`Self::PEEK_MAX`] bits are real wherever that many remain.
    #[inline]
    pub(crate) fn peek(&self) -> u64 {
        let (window, consumed) = self.peek_bytes();
        window << consumed
    }

    /// [`Self::peek`] before the alignment: the eight bytes from the
    /// cursor's byte on as one big-endian word, and how many of its top
    /// bits the cursor has already passed (`pos % 8`). For a caller that
    /// shifts the window anyway and can fold the alignment into that shift.
    #[inline]
    pub(crate) fn peek_bytes(&self) -> (u64, u32) {
        let byte = self.pos / 8;
        let window = match self.data.get(byte..byte + 8) {
            Some(bytes) => u64::from_be_bytes(bytes.try_into().expect("slice of eight")),
            None => {
                let tail = self.data.get(byte..).unwrap_or(&[]);
                let mut padded = [0u8; 8];
                padded[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(padded)
            }
        };
        (window, (self.pos % 8) as u32)
    }

    /// Advances the cursor over `count` bits already inspected via
    /// [`Self::peek`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] when fewer than `count` bits remain.
    #[inline]
    pub(crate) fn skip(&mut self, count: u32) -> Result<()> {
        if self.remaining_bits() < count as usize {
            return Err(CodecError::UnexpectedEof);
        }
        self.pos += count as usize;
        Ok(())
    }

    /// Checks that a decoder which has read its last code sits in the final
    /// byte with only zero bits — [`BitWriter::into_bytes`]'s padding — left.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`]`(what)` when whole bytes or a set bit
    /// remain.
    pub(crate) fn expect_padding(&self, what: &'static str) -> Result<()> {
        let clean = match self.remaining_bits() {
            0 => true,
            // What is left of the last byte, left-aligned.
            1..=7 => self.data[self.pos / 8] << (self.pos % 8) == 0,
            _ => false,
        };
        if clean {
            Ok(())
        } else {
            Err(CodecError::Corrupt(what))
        }
    }

    /// Reads a single bit.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] when the stream is exhausted.
    pub fn read_bit(&mut self) -> Result<bool> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Reads `count` bits into the low bits of a `u64`, MSB first.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] when fewer than `count` bits remain.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Result<u64> {
        assert!(count <= 64, "cannot read more than 64 bits at once");
        if count > Self::PEEK_MAX {
            if self.remaining_bits() < count as usize {
                return Err(CodecError::UnexpectedEof);
            }
            let high = self.read_bits(count - 32)?;
            return Ok((high << 32) | self.read_bits(32)?);
        }
        let window = self.peek();
        self.skip(count)?;
        Ok(if count == 0 {
            0
        } else {
            window >> (64 - count)
        })
    }

    /// Counts and consumes consecutive zero bits, stopping after the first one
    /// bit (which is consumed too). Returns the number of zeros.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] if the stream ends before a one
    /// bit is found.
    pub fn read_unary_zeros(&mut self) -> Result<u32> {
        let mut zeros = 0u32;
        loop {
            // Real (not padding) bits in the window: at most 64.
            let real = self.remaining_bits().min(64 - self.pos % 8) as u32;
            if real == 0 {
                return Err(CodecError::UnexpectedEof);
            }
            let run = self.peek().leading_zeros().min(real);
            zeros += run;
            if zeros > 64 {
                return Err(CodecError::Corrupt("unary run exceeds 64 bits"));
            }
            if run < real {
                self.pos += run as usize + 1;
                return Ok(zeros);
            }
            self.pos += real as usize;
        }
    }
}

/// The bit-at-a-time writer and reader the word-level ones replaced, kept
/// as the oracle for the byte layout and for every error outcome.
#[cfg(test)]
pub(crate) mod serial {
    use crate::{CodecError, Result};

    #[derive(Debug, Default)]
    pub(crate) struct BitWriter {
        buf: Vec<u8>,
        filled: u8,
        current: u8,
    }

    impl BitWriter {
        pub(crate) fn write_bit(&mut self, bit: bool) {
            self.current = (self.current << 1) | u8::from(bit);
            self.filled += 1;
            if self.filled == 8 {
                self.buf.push(self.current);
                self.current = 0;
                self.filled = 0;
            }
        }

        pub(crate) fn write_bits(&mut self, value: u64, count: u32) {
            assert!(count <= 64, "cannot write more than 64 bits at once");
            for shift in (0..count).rev() {
                self.write_bit((value >> shift) & 1 == 1);
            }
        }

        pub(crate) fn bit_len(&self) -> usize {
            self.buf.len() * 8 + usize::from(self.filled)
        }

        pub(crate) fn into_bytes(mut self) -> Vec<u8> {
            if self.filled > 0 {
                self.buf.push(self.current << (8 - self.filled));
            }
            self.buf
        }
    }

    #[derive(Debug)]
    pub(crate) struct BitReader<'a> {
        data: &'a [u8],
        pos: usize,
    }

    impl<'a> BitReader<'a> {
        pub(crate) fn new(data: &'a [u8]) -> Self {
            Self { data, pos: 0 }
        }

        pub(crate) fn read_bit(&mut self) -> Result<bool> {
            let byte = self.pos / 8;
            if byte >= self.data.len() {
                return Err(CodecError::UnexpectedEof);
            }
            let shift = 7 - (self.pos % 8);
            self.pos += 1;
            Ok((self.data[byte] >> shift) & 1 == 1)
        }

        pub(crate) fn read_bits(&mut self, count: u32) -> Result<u64> {
            assert!(count <= 64, "cannot read more than 64 bits at once");
            if self.data.len() * 8 - self.pos < count as usize {
                return Err(CodecError::UnexpectedEof);
            }
            let mut value = 0u64;
            for _ in 0..count {
                value = (value << 1) | u64::from(self.read_bit()?);
            }
            Ok(value)
        }

        pub(crate) fn read_unary_zeros(&mut self) -> Result<u32> {
            let mut zeros = 0u32;
            loop {
                if self.read_bit()? {
                    return Ok(zeros);
                }
                zeros += 1;
                if zeros > 64 {
                    return Err(CodecError::Corrupt("unary run exceeds 64 bits"));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One reader call, as data: the proptests replay the same script on
    /// the word-level reader and on the serial oracle.
    #[derive(Debug, Clone, Copy)]
    enum Read {
        Bit,
        Bits(u32),
        Unary,
    }

    fn read_op() -> impl Strategy<Value = Read> {
        (0u32..4, 0u32..=64).prop_map(|(kind, count)| match kind {
            0 => Read::Bit,
            1 => Read::Unary,
            _ => Read::Bits(count),
        })
    }

    /// Runs `script` on both readers until the first error; every outcome,
    /// the error included, must agree.
    fn assert_reads_agree(bytes: &[u8], script: &[Read]) {
        let mut fast = BitReader::new(bytes);
        let mut slow = serial::BitReader::new(bytes);
        for (step, &op) in script.iter().enumerate() {
            let (got, want) = match op {
                Read::Bit => (
                    fast.read_bit().map(u64::from),
                    slow.read_bit().map(u64::from),
                ),
                Read::Bits(count) => (fast.read_bits(count), slow.read_bits(count)),
                Read::Unary => (
                    fast.read_unary_zeros().map(u64::from),
                    slow.read_unary_zeros().map(u64::from),
                ),
            };
            assert_eq!(
                got, want,
                "step {step} ({op:?}) of {script:?} over {bytes:02x?}"
            );
            if got.is_err() {
                return;
            }
        }
    }

    proptest! {
        #[test]
        fn writer_matches_serial_oracle(
            fields in proptest::collection::vec((any::<u64>(), 0u32..=64), 0..80),
            prefix in proptest::collection::vec(any::<u8>(), 0..4),
        ) {
            let mut fast = BitWriter::appending(prefix.clone());
            let mut slow = serial::BitWriter::default();
            for &(value, count) in &fields {
                fast.write_bits(value, count);
                slow.write_bits(value, count);
                prop_assert_eq!(fast.bit_len(), slow.bit_len());
            }
            let mut expected = prefix;
            expected.extend(slow.into_bytes());
            prop_assert_eq!(fast.into_bytes(), expected);
        }

        #[test]
        fn reader_matches_serial_oracle_at_every_truncation(
            fields in proptest::collection::vec((any::<u64>(), 0u32..=64), 0..24),
        ) {
            let mut w = BitWriter::new();
            for &(value, count) in &fields {
                w.write_bits(value, count);
            }
            let bytes = w.into_bytes();
            let script: Vec<Read> = fields.iter().map(|&(_, count)| Read::Bits(count)).collect();
            for cut in 0..=bytes.len() {
                assert_reads_agree(&bytes[..cut], &script);
            }
        }

        #[test]
        fn arbitrary_reads_of_arbitrary_bytes_match_serial_oracle(
            // Mostly-zero bytes make unary runs long enough to cross windows
            // and to reach the 64-zero corruption limit.
            bytes in proptest::collection::vec(prop_oneof![Just(0u8), Just(0u8), any::<u8>()], 0..40),
            script in proptest::collection::vec(read_op(), 0..40),
        ) {
            for cut in 0..=bytes.len() {
                assert_reads_agree(&bytes[..cut], &script);
            }
        }
    }

    #[test]
    fn zero_runs_longer_than_a_word() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.write_zeros(150);
        w.write_bit(true);
        assert_eq!(w.bit_len(), 152);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 19);
        assert_eq!(bytes[0], 0x80);
        assert!(bytes[1..18].iter().all(|&b| b == 0));
        assert_eq!(bytes[18], 0x01);
    }

    #[test]
    fn single_bits_roundtrip() {
        let pattern = [true, false, true, true, false, false, true, false, true];
        let mut w = BitWriter::new();
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.bit_len(), 9);
        assert_eq!(w.byte_len(), 2);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn multi_bit_values_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0xDEAD_BEEF, 32);
        w.write_bits(0x3, 2);
        w.write_bits(u64::MAX, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_bits(2).unwrap(), 0x3);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
    }

    #[test]
    fn eof_is_detected() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert_eq!(r.read_bit(), Err(CodecError::UnexpectedEof));
        assert_eq!(r.read_bits(1), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn unary_zero_run() {
        let mut w = BitWriter::new();
        w.write_zeros(5);
        w.write_bit(true);
        w.write_bit(true); // next code starts immediately
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_unary_zeros().unwrap(), 5);
        assert!(r.read_bit().unwrap());
    }

    #[test]
    fn unary_eof() {
        let bytes = [0u8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_unary_zeros(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn zero_padding_is_deterministic() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        assert_eq!(w.into_bytes(), vec![0b1000_0000]);
    }

    #[test]
    fn empty_writer_produces_no_bytes() {
        assert!(BitWriter::new().into_bytes().is_empty());
    }

    #[test]
    fn remaining_and_position_track() {
        let bytes = [0xAB, 0xCD];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.remaining_bits(), 16);
        r.read_bits(5).unwrap();
        assert_eq!(r.bit_pos(), 5);
        assert_eq!(r.remaining_bits(), 11);
    }
}
