//! End-to-end sparse-vector wire format with byte accounting.
//!
//! This is the message body JWINS puts on the wire: a sorted index array
//! (metadata) plus the corresponding coefficient values (payload). The codec
//! keeps the two byte counts separate because the paper reports them
//! separately (Figure 4 row 3 and Figure 9 chart metadata vs parameters).
//!
//! Wire layout:
//!
//! ```text
//! varint  count
//! varint  metadata_len_bytes
//! [metadata_len_bytes]  index block   (per IndexCodec)
//! [..]                  value block   (per ValueCodec)
//! ```
//!
//! Both blocks must hold exactly `count` elements: a decode that leaves
//! bytes over in either (beyond the zero padding of a bit stream's last
//! byte) is [`CodecError::Corrupt`], so every byte a receiver is charged
//! for has been validated.
//!
//! # The implied frame
//!
//! Every [`IndexCodec`] spends at least one bit on an index, so a frame with
//! `count > 0` and an empty index block cannot be a list: it means the
//! indices `0..count`. [`SparseVecCodec::encode_into`] (and
//! [`SparseVecCodec::encode_bitmap_into`], from a bitmap) writes that frame
//! whenever the selection is exactly `0..k` — whatever the index codec —
//! and the decoder then takes indices from a counter. JWINS selects every
//! coefficient when its randomized cut-off draws α = 1, one round in seven
//! under the paper's list; at d = 113 418 those shares used to carry
//! 113 420 one-bit gamma codes (≈ 14.2 KB) that told a receiver nothing.
//! Dropping them took `mlp_jwins`'s `bytes_per_node` down 1.6 % and its
//! `sim_time_s` 2.2 % (the barrier prices a round by its busiest uplink).
//!
//! An implied frame still pays at least one bit per value and no bit per
//! index, so its declared count may reach eight per byte of the frame;
//! any other frame needs a bit for each and stays within four per byte.
//!
//! # Index encodings measured and rejected
//!
//! Every listed (not implied) frame `mlp_jwins` sends at seed 42:
//!
//! | index block | bits per index |
//! |---|---|
//! | Elias gamma over the deltas (this codec) | 3.27 |
//! | Rice, best parameter per message | 3.30 |
//! | Elias gamma over run lengths | 4.02 |
//! | an n-bit bitmap | 4.41 |
//!
//! Gamma stays; the implied frame was the index-side gain there was to
//! take. The value side is in [`crate::float`]'s module docs.

use crate::bitio::{BitReader, BitWriter};
use crate::bitmap;
use crate::delta;
use crate::float::{BlockFloatCodec, FloatCodec, RawFloatCodec};
use crate::varint;
use crate::{CodecError, Result};

const NOT_INCREASING: CodecError = CodecError::InvalidValue("indices must be strictly increasing");
const TRAILING_INDEX_BYTES: &str = "bytes after the last index";

/// How the sorted index array is serialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum IndexCodec {
    /// Raw little-endian `u32` per index (the "no compression" bar of Fig. 9).
    /// Like the delta codecs it carries strictly increasing indices only:
    /// the encoder refuses others and the decoder rejects them, so no
    /// frame can name one coefficient twice.
    RawU32,
    /// LEB128 varint per index delta (byte-aligned middle ground).
    VarintDelta,
    /// Elias gamma over the delta array — JWINS's choice (paper §III-C).
    EliasGammaDelta,
}

impl IndexCodec {
    /// Stable name for experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            IndexCodec::RawU32 => "raw-u32",
            IndexCodec::VarintDelta => "varint-delta",
            IndexCodec::EliasGammaDelta => "elias-gamma-delta",
        }
    }

    /// Appends the index block of `indices`, in the order the iterator
    /// yields them, checking as it writes that every index is above the one
    /// before: every codec carries strictly increasing indices only. On an
    /// error `out` holds part of a block; the caller truncates it.
    fn encode_into(&self, indices: impl IntoIterator<Item = u32>, out: &mut Vec<u8>) -> Result<()> {
        match self {
            IndexCodec::RawU32 => {
                let mut floor = 0u64;
                for i in indices {
                    if u64::from(i) < floor {
                        return Err(NOT_INCREASING);
                    }
                    out.extend_from_slice(&i.to_le_bytes());
                    floor = u64::from(i) + 1;
                }
            }
            IndexCodec::VarintDelta => {
                let mut prev = None;
                for i in indices {
                    let delta = match prev {
                        None => i,
                        Some(p) if i > p => i - p,
                        Some(_) => return Err(NOT_INCREASING),
                    };
                    varint::write_u64(out, u64::from(delta));
                    prev = Some(i);
                }
            }
            IndexCodec::EliasGammaDelta => {
                let mut w = BitWriter::appending(std::mem::take(out));
                let written = delta::encode_gamma_from(indices, &mut w);
                *out = w.into_bytes();
                written?;
            }
        }
        Ok(())
    }

    /// Decodes an index block of `count` strictly increasing indices into
    /// `out`, replacing its contents. The block must end with the last
    /// index (a bit stream: with the zero padding of its last byte).
    fn decode_into(&self, block: &[u8], count: usize, out: &mut Vec<u32>) -> Result<()> {
        out.clear();
        // `count` is wire-influenced but bounded by the frame length.
        out.reserve(count);
        match self {
            IndexCodec::RawU32 => {
                let need = count
                    .checked_mul(4)
                    .filter(|&need| need <= block.len())
                    .ok_or(CodecError::UnexpectedEof)?;
                crate::expect_empty(&block[need..], TRAILING_INDEX_BYTES)?;
                out.extend(
                    block
                        .chunks_exact(4)
                        .map(|chunk| u32::from_le_bytes(chunk.try_into().expect("four bytes"))),
                );
                // The encoder refuses anything else; a repeat would count
                // one neighbour twice on one coefficient.
                if !out.is_sorted_by(|a, b| a < b) {
                    return Err(NOT_INCREASING);
                }
                Ok(())
            }
            IndexCodec::VarintDelta => {
                let mut rest = block;
                for _ in 0..count {
                    let (delta, used) = varint::read_u64(rest)?;
                    rest = &rest[used..];
                    // A zero delta after the first index repeats an index
                    // (the first is stored as itself).
                    let prev = out.last().copied();
                    if delta == 0 && prev.is_some() {
                        return Err(NOT_INCREASING);
                    }
                    // A peer chooses `delta`: the sum can pass `u32` and `u64` alike.
                    let index = u64::from(prev.unwrap_or(0))
                        .checked_add(delta)
                        .and_then(|index| u32::try_from(index).ok())
                        .ok_or(CodecError::Corrupt("index overflows u32"))?;
                    out.push(index);
                }
                crate::expect_empty(rest, TRAILING_INDEX_BYTES)
            }
            IndexCodec::EliasGammaDelta => {
                let mut reader = BitReader::new(block);
                delta::decode_gamma_from(&mut reader, count, out)?;
                reader.expect_padding(TRAILING_INDEX_BYTES)
            }
        }
    }
}

/// How the coefficient values are serialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ValueCodec {
    /// Little-endian `f32`s.
    Raw,
    /// Block frame-of-reference lossless compression (Fpzip substitute).
    Block,
}

impl ValueCodec {
    /// Stable name for experiment output.
    pub fn name(&self) -> &'static str {
        self.as_codec().name()
    }

    fn as_codec(&self) -> &'static dyn FloatCodec {
        match self {
            ValueCodec::Raw => &RawFloatCodec,
            ValueCodec::Block => &BlockFloatCodec,
        }
    }
}

/// How the bytes of one encoded sparse vector split into the two figures
/// the paper reports separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteSplit {
    /// Bytes spent on the index block plus framing.
    pub metadata_bytes: usize,
    /// Bytes spent on the value block.
    pub payload_bytes: usize,
}

/// An encoded sparse vector together with its byte breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedSparseVec {
    bytes: Vec<u8>,
    /// Bytes spent on the index block plus framing.
    pub metadata_bytes: usize,
    /// Bytes spent on the value block.
    pub payload_bytes: usize,
}

impl EncodedSparseVec {
    /// The full wire image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Total length on the wire.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the message is empty (encodes zero entries and no framing).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Consumes self, returning the wire bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// The parsed header of a wire image: how many pairs, and where each block is.
struct Frame<'a> {
    count: usize,
    index_block: &'a [u8],
    value_block: &'a [u8],
}

impl Frame<'_> {
    /// Whether the indices are `0..count` rather than a list (module docs).
    fn implied(&self) -> bool {
        self.count > 0 && self.index_block.is_empty()
    }
}

/// Whether `indices` is exactly `0..indices.len()` — the selection the
/// implied frame carries without an index block.
fn is_prefix(indices: &[u32]) -> bool {
    indices
        .iter()
        .zip(0u32..)
        .all(|(&index, expected)| index == expected)
}

/// Serializer/deserializer for `(indices, values)` pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparseVecCodec {
    index_codec: IndexCodec,
    value_codec: ValueCodec,
}

impl Default for SparseVecCodec {
    /// JWINS's production configuration: Elias gamma metadata + block-coded
    /// payload.
    fn default() -> Self {
        Self::new(IndexCodec::EliasGammaDelta, ValueCodec::Block)
    }
}

impl SparseVecCodec {
    /// Creates a codec with explicit index/value strategies.
    pub fn new(index_codec: IndexCodec, value_codec: ValueCodec) -> Self {
        Self {
            index_codec,
            value_codec,
        }
    }

    /// The configured index strategy.
    pub fn index_codec(&self) -> IndexCodec {
        self.index_codec
    }

    /// The configured value strategy.
    pub fn value_codec(&self) -> ValueCodec {
        self.value_codec
    }

    /// Encodes a sparse vector. `indices` must be strictly increasing and the
    /// two slices must have equal length. Indices `0..k` are written as the
    /// implied frame (module docs), with an empty index block.
    ///
    /// # Errors
    ///
    /// - [`CodecError::LengthMismatch`] if the slices disagree in length.
    /// - [`CodecError::InvalidValue`] if indices are not strictly increasing.
    pub fn encode(&self, indices: &[u32], values: &[f32]) -> Result<EncodedSparseVec> {
        let mut bytes = Vec::new();
        let split = self.encode_into(indices, values, &mut bytes)?;
        Ok(EncodedSparseVec {
            bytes,
            metadata_bytes: split.metadata_bytes,
            payload_bytes: split.payload_bytes,
        })
    }

    /// [`Self::encode`] appending to `out` — header, index block and value
    /// block are written in place, one after the other, in one pass over
    /// the indices: the index block goes behind room for the longest length
    /// header and moves down once its length is known. `out` is untouched
    /// when encoding fails.
    ///
    /// # Errors
    ///
    /// As [`Self::encode`].
    pub fn encode_into(
        &self,
        indices: &[u32],
        values: &[f32],
        out: &mut Vec<u8>,
    ) -> Result<ByteSplit> {
        let listed = (!is_prefix(indices)).then(|| indices.iter().copied());
        self.encode_from(listed, indices.len(), values, out)
    }

    /// [`Self::encode_into`] of the indices a bitmap holds
    /// ([`crate::bitmap`]), read in ascending order: the bytes are those of
    /// encoding the same indices as a list, the implied frame included, and
    /// no list is made.
    ///
    /// # Errors
    ///
    /// [`CodecError::LengthMismatch`] if `values` does not hold one value
    /// per set bit.
    pub fn encode_bitmap_into(
        &self,
        selected: &[u64],
        values: &[f32],
        out: &mut Vec<u8>,
    ) -> Result<ByteSplit> {
        let count = bitmap::count(selected);
        let listed = (!bitmap::is_prefix(selected, count)).then(|| bitmap::ones(selected));
        self.encode_from(listed, count, values, out)
    }

    /// The one encoder behind both entry points: `count` pairs, whose
    /// indices are `listed` in ascending order or, when `None`, `0..count`
    /// (the implied frame).
    fn encode_from(
        &self,
        listed: Option<impl Iterator<Item = u32>>,
        count: usize,
        values: &[f32],
        out: &mut Vec<u8>,
    ) -> Result<ByteSplit> {
        if count != values.len() {
            return Err(CodecError::LengthMismatch {
                expected: count,
                actual: values.len(),
            });
        }
        let start = out.len();
        varint::write_u64(out, count as u64);
        let len_at = out.len();
        match listed {
            None => {
                varint::write_u64(out, 0);
            }
            Some(indices) => {
                // The block's length is known once it is written: write it
                // behind room for the longest length varint, then move it
                // down behind the varint it needs.
                let block_at = len_at + varint::encoded_len(u64::MAX);
                out.resize(block_at, 0);
                if let Err(error) = self.index_codec.encode_into(indices, out) {
                    out.truncate(start);
                    return Err(error);
                }
                let (len, used) = varint::encode((out.len() - block_at) as u64);
                out.splice(len_at..block_at, len[..used].iter().copied());
            }
        }
        let value_start = out.len();
        self.value_codec.as_codec().encode_into(values, out);
        Ok(ByteSplit {
            metadata_bytes: value_start - start,
            payload_bytes: out.len() - value_start,
        })
    }

    /// Decodes a buffer produced by [`Self::encode`].
    ///
    /// # Errors
    ///
    /// Fails on truncated or structurally invalid buffers.
    pub fn decode(&self, bytes: &[u8]) -> Result<(Vec<u32>, Vec<f32>)> {
        let (indices, values) = self.decode_compact(bytes)?;
        // The header bounded an implied frame's count by the index space.
        let indices = indices.unwrap_or_else(|| (0..=u32::MAX).take(values.len()).collect());
        Ok((indices, values))
    }

    /// [`Self::decode`] for a receiver that keeps the result: the indices of
    /// an implied frame are `None` (they are `0..values.len()`) instead of a
    /// list as long as the values.
    ///
    /// # Errors
    ///
    /// As [`Self::decode`].
    pub fn decode_compact(&self, bytes: &[u8]) -> Result<(Option<Vec<u32>>, Vec<f32>)> {
        let (mut indices, mut values) = (Vec::new(), Vec::new());
        let implied = self.decode_compact_into(bytes, &mut indices, &mut values)?;
        Ok(((!implied).then_some(indices), values))
    }

    /// [`Self::decode_compact`] over `indices` and `values` (any content,
    /// any length), reusing their allocations. Returns whether the frame is
    /// implied; its indices, `0..values.len()`, are then not written and
    /// `indices` is left empty.
    ///
    /// The two blocks are decoded one after the other, each whole: first
    /// the index block, then the value block. A frame corrupt in both
    /// reports the index block's error.
    ///
    /// # Errors
    ///
    /// As [`Self::decode`]; the buffers' contents are then unspecified.
    pub fn decode_compact_into(
        &self,
        bytes: &[u8],
        indices: &mut Vec<u32>,
        values: &mut Vec<f32>,
    ) -> Result<bool> {
        let frame = Self::frame(bytes)?;
        let implied = frame.implied();
        if implied {
            indices.clear();
        } else {
            self.index_codec
                .decode_into(frame.index_block, frame.count, indices)?;
        }
        self.value_codec
            .as_codec()
            .decode_into(frame.value_block, frame.count, values)?;
        Ok(implied)
    }

    /// Parses and bounds-checks the header. Every length in it is chosen by
    /// the sender.
    fn frame(bytes: &[u8]) -> Result<Frame<'_>> {
        let (count, used1) = varint::read_u64(bytes)?;
        let (index_len, used2) = varint::read_u64(&bytes[used1..])?;
        // Every value codec needs at least one bit per value (the sign bit
        // of an all-zero block) and every index codec one per index, so
        // anything above 4 elements per byte — 8 in an implied frame, which
        // has no index bits — is structurally impossible: reject before
        // anything is sized by it.
        let per_byte = if index_len == 0 { 8 } else { 4 };
        if count > bytes.len() as u64 * per_byte {
            return Err(CodecError::Corrupt(
                "declared count exceeds buffer capacity",
            ));
        }
        if index_len == 0 && count > 1 << u32::BITS {
            return Err(CodecError::Corrupt("implied indices overflow u32"));
        }
        let header = used1 + used2;
        let value_start = usize::try_from(index_len)
            .ok()
            .and_then(|len| header.checked_add(len))
            .filter(|&end| end <= bytes.len())
            .ok_or(CodecError::UnexpectedEof)?;
        Ok(Frame {
            count: count as usize,
            index_block: &bytes[header..value_start],
            value_block: &bytes[value_start..],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn all_codecs() -> Vec<SparseVecCodec> {
        let mut out = Vec::new();
        for ic in [
            IndexCodec::RawU32,
            IndexCodec::VarintDelta,
            IndexCodec::EliasGammaDelta,
        ] {
            for vc in [ValueCodec::Raw, ValueCodec::Block] {
                out.push(SparseVecCodec::new(ic, vc));
            }
        }
        out
    }

    #[test]
    fn roundtrip_all_configs() {
        let indices = vec![0u32, 5, 6, 7, 1_000, 65_536];
        let values = vec![1.0f32, -2.5, 0.0, f32::MIN_POSITIVE, 3.5, -0.125];
        for codec in all_codecs() {
            let enc = codec.encode(&indices, &values).unwrap();
            assert_eq!(enc.len(), enc.metadata_bytes + enc.payload_bytes);
            let (di, dv) = codec.decode(enc.as_bytes()).unwrap();
            assert_eq!(di, indices, "{:?}", codec);
            assert_eq!(
                dv.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{:?}",
                codec
            );
        }
    }

    #[test]
    fn empty_vector_roundtrip() {
        for codec in all_codecs() {
            let enc = codec.encode(&[], &[]).unwrap();
            let (i, v) = codec.decode(enc.as_bytes()).unwrap();
            assert!(i.is_empty() && v.is_empty());
        }
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let codec = SparseVecCodec::default();
        assert!(matches!(
            codec.encode(&[1, 2], &[1.0]),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn gamma_metadata_beats_raw_by_large_factor() {
        // Mirrors Figure 9: dense TopK selection over a model-sized vector.
        let indices: Vec<u32> = (0..20_000u32).map(|i| i * 3).collect();
        let values = vec![0.5f32; indices.len()];
        let raw = SparseVecCodec::new(IndexCodec::RawU32, ValueCodec::Raw)
            .encode(&indices, &values)
            .unwrap();
        let gamma = SparseVecCodec::new(IndexCodec::EliasGammaDelta, ValueCodec::Raw)
            .encode(&indices, &values)
            .unwrap();
        let ratio = raw.metadata_bytes as f64 / gamma.metadata_bytes as f64;
        assert!(ratio > 6.0, "expected large compression, got {ratio:.1}x");
    }

    /// A peer-chosen `index_len` of `u64::MAX` used to overflow the block
    /// bounds check (a panic wherever overflow checks are on).
    #[test]
    fn index_len_overflowing_usize_is_an_error() {
        let mut bytes = vec![0x01];
        bytes.extend([0xff; 9]);
        bytes.push(0x01);
        bytes.extend([0x00; 16]);
        assert_eq!(bytes.len(), 27);
        for codec in all_codecs() {
            assert_eq!(codec.decode(&bytes), Err(CodecError::UnexpectedEof));
        }
    }

    /// Same for a varint delta of `u64::MAX` behind a non-zero index.
    #[test]
    fn varint_delta_overflowing_u64_is_corrupt() {
        let mut index_block = Vec::new();
        varint::write_u64(&mut index_block, 1);
        varint::write_u64(&mut index_block, u64::MAX);
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 2);
        varint::write_u64(&mut bytes, index_block.len() as u64);
        bytes.extend(&index_block);
        bytes.extend([0u8; 8]);
        let codec = SparseVecCodec::new(IndexCodec::VarintDelta, ValueCodec::Raw);
        assert!(matches!(codec.decode(&bytes), Err(CodecError::Corrupt(_))));
    }

    /// A hand-built frame repeating index 5 — one its encoder refuses —
    /// is refused by its decoder too, raw or varint-delta coded.
    #[test]
    fn varint_delta_repeated_index_is_rejected() {
        let mut raw_block = 5u32.to_le_bytes().to_vec();
        raw_block.extend(5u32.to_le_bytes());
        for (ic, index_block) in [
            (IndexCodec::VarintDelta, vec![0x05, 0x00]),
            (IndexCodec::RawU32, raw_block),
        ] {
            let codec = SparseVecCodec::new(ic, ValueCodec::Raw);
            assert_eq!(codec.encode(&[5, 5], &[1.0, 2.0]), Err(NOT_INCREASING));
            let mut bytes = vec![0x02, index_block.len() as u8];
            bytes.extend(index_block);
            bytes.extend(1.0f32.to_le_bytes());
            bytes.extend(2.0f32.to_le_bytes());
            assert_eq!(codec.decode(&bytes), Err(NOT_INCREASING), "{ic:?}");
        }
        // Index 0 first is a zero delta too, and still fine.
        let codec = SparseVecCodec::new(IndexCodec::VarintDelta, ValueCodec::Raw);
        let enc = codec.encode(&[0, 3], &[1.0, 2.0]).unwrap();
        assert_eq!(codec.decode(enc.as_bytes()).unwrap().0, [0, 3]);
    }

    #[test]
    fn encode_into_appends_behind_existing_bytes() {
        let indices = vec![1u32, 4, 9];
        let values = vec![1.0f32, 2.0, 3.0];
        for codec in all_codecs() {
            let alone = codec.encode(&indices, &values).unwrap();
            let mut out = vec![0xAA, 0xBB];
            let split = codec.encode_into(&indices, &values, &mut out).unwrap();
            assert_eq!(&out[..2], &[0xAA, 0xBB]);
            assert_eq!(&out[2..], alone.as_bytes());
            assert_eq!(split.metadata_bytes, alone.metadata_bytes);
            assert_eq!(split.payload_bytes, alone.payload_bytes);
            // A rejected input leaves the buffer as it was.
            let before = out.clone();
            assert!(codec.encode_into(&indices, &values[..2], &mut out).is_err());
            assert_eq!(out, before);
        }
        for codec in all_codecs() {
            let mut out = vec![7u8];
            assert!(codec.encode_into(&[5, 5], &[0.0, 0.0], &mut out).is_err());
            assert_eq!(out, vec![7u8]);
        }
    }

    #[test]
    fn truncated_buffer_fails() {
        let codec = SparseVecCodec::default();
        let enc = codec.encode(&[1, 4, 9], &[1.0, 2.0, 3.0]).unwrap();
        for cut in 0..enc.len() {
            assert!(
                codec.decode(&enc.as_bytes()[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    /// Neither block may outlast its `count` elements: the value block used
    /// to be "everything to the end", and a declared `index_len` could hide
    /// bytes behind the last index.
    #[test]
    fn bytes_behind_either_block_are_corrupt() {
        let indices = vec![1u32, 4, 9, 300];
        let values = vec![1.0f32, -2.0, 3.0, 0.5];
        for codec in all_codecs() {
            let enc = codec.encode(&indices, &values).unwrap();
            for extra in [0x00u8, 0xFF] {
                let mut longer = enc.as_bytes().to_vec();
                longer.push(extra);
                assert!(
                    matches!(codec.decode(&longer), Err(CodecError::Corrupt(_))),
                    "{codec:?} accepted a trailing {extra:#04x}"
                );
            }
            // The same frame with a zero byte slipped in behind the indices
            // and `index_len` (one byte: the blocks are short) raised by one.
            let mut slack = enc.as_bytes().to_vec();
            slack[1] += 1;
            slack.insert(enc.metadata_bytes, 0);
            assert!(
                matches!(codec.decode(&slack), Err(CodecError::Corrupt(_))),
                "{codec:?} accepted slack behind the index block"
            );
            // Slack behind the indices and a value block one byte short:
            // the index block is decoded first, so its error is the one.
            slack.pop();
            assert_eq!(
                codec.decode(&slack),
                Err(CodecError::Corrupt(TRAILING_INDEX_BYTES)),
                "{codec:?}"
            );
        }
    }

    /// The header of an encoded frame: `(count, index_len)`.
    fn header(bytes: &[u8]) -> (u64, u64) {
        let (count, used) = varint::read_u64(bytes).unwrap();
        (count, varint::read_u64(&bytes[used..]).unwrap().0)
    }

    #[test]
    fn a_prefix_selection_is_sent_without_an_index_block() {
        let values = [1.0f32, -2.0, 0.5, 3.25];
        for codec in all_codecs() {
            let implied = codec.encode(&[0, 1, 2, 3], &values).unwrap();
            assert_eq!(header(implied.as_bytes()), (4, 0), "{codec:?}");
            // Two varints of one byte each are all the metadata left.
            assert_eq!(implied.metadata_bytes, 2, "{codec:?}");
            assert_eq!(
                codec.decode_compact(implied.as_bytes()).unwrap(),
                (None, values.to_vec())
            );
            // One index off the prefix and the list is back.
            let listed = codec.encode(&[0, 1, 2, 4], &values).unwrap();
            assert_ne!(header(listed.as_bytes()).1, 0, "{codec:?}");
            assert_eq!(
                codec.decode_compact(listed.as_bytes()).unwrap(),
                (Some(vec![0, 1, 2, 4]), values.to_vec())
            );
        }
    }

    proptest! {
        /// Any values, any length: `0..k` goes out as an implied frame and
        /// every decoder gives back the pairs that went in, bit for bit.
        #[test]
        fn implied_frames_roundtrip(patterns in proptest::collection::vec(any::<u32>(), 0..300)) {
            let values: Vec<f32> = patterns.iter().map(|&p| f32::from_bits(p)).collect();
            let indices: Vec<u32> = (0..values.len() as u32).collect();
            for codec in all_codecs() {
                let enc = codec.encode(&indices, &values).unwrap();
                prop_assert_eq!(header(enc.as_bytes()), (values.len() as u64, 0));
                let (di, dv) = codec.decode(enc.as_bytes()).unwrap();
                prop_assert_eq!(&di, &indices);
                prop_assert_eq!(bits(&dv), bits(&values));
                let (compact, cv) = codec.decode_compact(enc.as_bytes()).unwrap();
                // An empty frame is no list of indices, implied or not.
                prop_assert_eq!(compact.is_some(), values.is_empty());
                prop_assert_eq!(bits(&cv), bits(&values));
            }
        }

        /// The one-pass gamma frame refuses exactly the lists the size
        /// pre-pass it replaced refused, leaves `out` as it was when it
        /// does, and otherwise writes that size and `encode_gamma`'s block.
        #[test]
        fn gamma_frames_refuse_what_the_size_pass_refused(
            mut list in proptest::collection::vec(prop_oneof![0u32..64, any::<u32>()], 0..80),
            order in 0u8..3,
        ) {
            if order > 0 {
                list.sort_unstable();
            }
            if order > 1 {
                list.dedup();
            }
            let values = vec![0.5f32; list.len()];
            let mut out = vec![0xA5, 0x5A];
            let result = SparseVecCodec::default().encode_into(&list, &values, &mut out);
            match delta::gamma_encoded_bits(&list) {
                Err(error) => {
                    prop_assert_eq!(result, Err(error));
                    prop_assert_eq!(out, vec![0xA5, 0x5A]);
                }
                Ok(bits) => {
                    prop_assert!(result.is_ok());
                    let (count, index_len) = header(&out[2..]);
                    prop_assert_eq!(count, list.len() as u64);
                    if !is_prefix(&list) {
                        let block = delta::encode_gamma(&list).unwrap();
                        prop_assert_eq!(index_len, bits.div_ceil(8) as u64);
                        let at = 2 + varint::encoded_len(count) + varint::encoded_len(index_len);
                        prop_assert_eq!(&out[at..at + block.len()], &block[..]);
                    }
                }
            }
        }

        /// A frame encoded from a bitmap is byte for byte the frame of the
        /// same indices as a list, under every codec: listed selections of
        /// any density, a prefix (the implied frame), the empty set and a
        /// set reaching the last bit of the last word. A value count that
        /// is not the bitmap's is refused as the list's would be.
        #[test]
        fn a_bitmap_frame_is_the_list_frame(
            words in proptest::collection::vec(any::<u64>(), 0..40),
            sparsity in 0u32..4,
            as_prefix in any::<bool>(),
            len in 0usize..2_600,
            last_bit in any::<bool>(),
        ) {
            let prefix = as_prefix.then_some(len);
            let mut words: Vec<u64> = match prefix {
                // `0..len`: an implied frame.
                Some(len) => {
                    let mut words = vec![0; words.len().max(len.div_ceil(64))];
                    bitmap::set_prefix(&mut words, len);
                    words
                }
                // Each further word ANDed in thins the set.
                None => words
                    .iter()
                    .map(|&w| (1..=sparsity).fold(w, |w, j| w & w.rotate_left(7 * j)))
                    .collect(),
            };
            if prefix.is_none() && last_bit {
                words.push(1 << 63);
            }
            let list: Vec<u32> = bitmap::ones(&words).collect();
            let values: Vec<f32> = list.iter().map(|&i| i as f32 * -0.75 + 0.5).collect();
            for codec in all_codecs() {
                let (mut from_list, mut from_bits) = (vec![0xA5], vec![0xA5]);
                let split = codec.encode_into(&list, &values, &mut from_list).unwrap();
                let bits_split = codec.encode_bitmap_into(&words, &values, &mut from_bits).unwrap();
                prop_assert_eq!(&from_bits, &from_list, "{:?}", codec);
                prop_assert_eq!(bits_split, split);
                let implied = !list.is_empty() && header(&from_list[1..]).1 == 0;
                prop_assert_eq!(implied, !list.is_empty() && is_prefix(&list));
                prop_assert!(implied || prefix.unwrap_or(0) == 0);
                if !values.is_empty() {
                    let short = &values[1..];
                    let mut out = vec![0xA5];
                    prop_assert_eq!(
                        codec.encode_bitmap_into(&words, short, &mut out),
                        codec.encode_into(&list, short, &mut out)
                    );
                    prop_assert_eq!(out, vec![0xA5]);
                }
            }
        }

        #[test]
        fn roundtrip_any(
            mut raw_idx in proptest::collection::vec(0u32..5_000_000, 0..150),
            seed in any::<u64>(),
        ) {
            raw_idx.sort_unstable();
            raw_idx.dedup();
            let mut s = seed | 1;
            let values: Vec<f32> = raw_idx.iter().map(|_| {
                s ^= s << 13; s ^= s >> 7; s ^= s << 17;
                f32::from_bits((s as u32) & 0x7F7F_FFFF) // finite values
            }).collect();
            for codec in all_codecs() {
                let enc = codec.encode(&raw_idx, &values).unwrap();
                let (di, dv) = codec.decode(enc.as_bytes()).unwrap();
                prop_assert_eq!(&di, &raw_idx);
                for (a, b) in values.iter().zip(&dv) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }
}
