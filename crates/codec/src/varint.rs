//! LEB128 variable-length integers.
//!
//! Used for small headers inside [`crate::sparse`] messages and as the
//! byte-aligned comparator in the metadata-compression ablation (the paper's
//! Figure 9 compares raw 32-bit indices against Elias gamma; varints sit in
//! between the two).

use crate::{CodecError, Result};

/// Appends the LEB128 encoding of `value` to `out` and returns the number of
/// bytes written (1–10).
pub fn write_u64(out: &mut Vec<u8>, value: u64) -> usize {
    let (bytes, len) = encode(value);
    out.extend_from_slice(&bytes[..len]);
    len
}

/// The LEB128 encoding of `value`: its first `len` bytes, and `len`.
pub(crate) fn encode(mut value: u64) -> ([u8; 10], usize) {
    let mut bytes = [0; 10];
    for (len, byte) in bytes.iter_mut().enumerate() {
        *byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            return (bytes, len + 1);
        }
        *byte |= 0x80;
    }
    unreachable!("a u64 needs at most ten seven-bit groups")
}

/// Decodes one LEB128 integer from the front of `data`, returning the value
/// and the number of bytes consumed.
///
/// # Errors
///
/// - [`CodecError::UnexpectedEof`] if the continuation bit runs off the end.
/// - [`CodecError::Corrupt`] if the encoding exceeds 10 bytes (not canonical
///   for `u64`).
pub fn read_u64(data: &[u8]) -> Result<(u64, usize)> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, &byte) in data.iter().enumerate() {
        if i == 10 {
            return Err(CodecError::Corrupt("varint longer than 10 bytes"));
        }
        let payload = u64::from(byte & 0x7F);
        if shift == 63 && payload > 1 {
            return Err(CodecError::Corrupt("varint overflows u64"));
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(CodecError::UnexpectedEof)
}

/// Number of bytes `write_u64` would use for `value`.
pub fn encoded_len(value: u64) -> usize {
    if value == 0 {
        1
    } else {
        (64 - value.leading_zeros() as usize).div_ceil(7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_encodings() {
        let mut out = Vec::new();
        write_u64(&mut out, 0);
        write_u64(&mut out, 127);
        write_u64(&mut out, 128);
        write_u64(&mut out, 300);
        assert_eq!(out, vec![0x00, 0x7F, 0x80, 0x01, 0xAC, 0x02]);
    }

    #[test]
    fn roundtrip_boundaries() {
        let values: Vec<u64> = (0..64)
            .flat_map(|p| [1u64 << p, (1u64 << p) - 1, (1u64 << p) + 1])
            .chain([0, u64::MAX])
            .collect();
        for &v in &values {
            let mut out = Vec::new();
            let n = write_u64(&mut out, v);
            assert_eq!(n, out.len());
            assert_eq!(n, encoded_len(v), "encoded_len of {v}");
            let (decoded, consumed) = read_u64(&out).unwrap();
            assert_eq!(decoded, v);
            assert_eq!(consumed, n);
        }
    }

    #[test]
    fn eof_and_overlong_are_rejected() {
        assert_eq!(read_u64(&[0x80, 0x80]), Err(CodecError::UnexpectedEof));
        let overlong = [0x80u8; 11];
        assert!(matches!(read_u64(&overlong), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_are_ignored() {
        let data = [0x05, 0xFF, 0xFF];
        let (v, n) = read_u64(&data).unwrap();
        assert_eq!((v, n), (5, 1));
    }
}
