//! Little-endian byte-level primitives of the PDBA format: a growing
//! writer, a bounds-checked reader, and the CRC-32 every section is
//! sealed with.
//!
//! Everything is length-prefixed and little-endian; there is no
//! alignment, no varints, no compression — the format optimizes for
//! byte-exact reproducibility (`compile → load → compile` must be a
//! fixpoint), not for size.

use std::fmt;

/// A codec failure: the bytes do not decode as the expected shape.
/// Section-scoped — the artifact loader quarantines the section and
/// keeps the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Shorthand constructor used all over the decoders.
pub fn err<T>(detail: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(detail.into()))
}

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 lookup tables, built at compile time: `CRC_TABLES[0][b]`
/// is the CRC register after shifting byte `b` through it, and
/// `CRC_TABLES[k][b]` the same followed by `k` zero bytes — so sixteen
/// lookups advance the register over sixteen input bytes at once.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// IEEE CRC-32 (reflected, polynomial `0xEDB88320`) — the per-section
/// checksum, and the transfer envelope's. Table-driven, sixteen bytes per
/// step: opening an artifact checksums every byte of it once, on the
/// warm-boot and fleet-pull paths.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        let chunk: &[u8; 16] = chunk.try_into().expect("chunks_exact(16)");
        // The register folds into the first four bytes; each byte then
        // contributes through the table for its distance from the end.
        let head =
            (crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]])).to_le_bytes();
        crc = 0;
        for (i, &b) in head.iter().chain(&chunk[4..]).enumerate() {
            crc ^= CRC_TABLES[15 - i][usize::from(b)];
        }
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][usize::from(crc as u8 ^ b)];
    }
    !crc
}

/// An append-only little-endian byte writer.
#[derive(Debug, Default)]
pub struct Writer {
    /// The bytes written so far.
    pub buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Writer {
        Writer::default()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.bytes(v.as_bytes());
    }
}

/// A bounds-checked little-endian reader over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte was consumed — trailing garbage means
    /// the section does not round-trip and must be quarantined.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            err(format!("{} trailing bytes after payload", self.remaining()))
        }
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return err(format!("need {n} bytes, {} left", self.remaining()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn i32(&mut self) -> Result<i32, CodecError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        self.str_ref().map(str::to_string)
    }

    /// Length-prefixed UTF-8 string, borrowed from the buffer.
    pub fn str_ref(&mut self) -> Result<&'a str, CodecError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).or_else(|e| err(format!("invalid utf-8 string: {e}")))
    }

    /// A collection count, sanity-capped against the bytes actually
    /// left (`min_elem` = smallest possible element encoding) so a
    /// corrupted length cannot request a gigabyte allocation.
    pub fn count(&mut self, min_elem: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem.max(1)) > self.remaining() {
            return err(format!(
                "count {n} exceeds remaining payload ({} bytes)",
                self.remaining()
            ));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bitwise definition: one polynomial step per input bit.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The table-driven CRC agrees with the bitwise one on seeded random
    /// buffers of every length class up to 4 KiB, starting at each of
    /// eight offsets inside a larger buffer (so no alignment is assumed
    /// and every remainder length is reached). `FUZZ_CASES` scales it.
    #[test]
    fn crc32_matches_the_bitwise_oracle() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let cases: usize = std::env::var("FUZZ_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        let mut rng = StdRng::seed_from_u64(0xC3C3_2032);
        let mut buf = vec![0u8; 4096 + 8];
        for case in 0..cases {
            buf.iter_mut().for_each(|b| *b = rng.gen::<u32>() as u8);
            // The first 33 cases cover every short length; the rest draw
            // lengths across the whole range.
            let len = if case <= 32 {
                case
            } else {
                rng.gen_range(0..=4096)
            };
            for start in 0..8 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "length {len} at offset {start}"
                );
            }
        }
        let all = &buf[..];
        assert_eq!(crc32(all), crc32_bitwise(all));
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i32(-42);
        w.str("héllo");
        let mut r = Reader::new(&w.buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i32().unwrap(), -42);
        assert_eq!(r.str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_overruns_and_bad_counts() {
        let mut r = Reader::new(&[1, 2]);
        assert!(r.u32().is_err());
        let mut w = Writer::new();
        w.u32(1_000_000);
        let mut r = Reader::new(&w.buf);
        assert!(r.count(4).is_err(), "absurd count must be rejected");
        let mut r = Reader::new(&w.buf);
        r.u8().unwrap();
        assert!(r.finish().is_err(), "trailing bytes must be flagged");
    }
}
