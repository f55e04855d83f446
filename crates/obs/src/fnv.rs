//! Incremental FNV-1a-64 hashing over typed scalar writes.

/// Incremental FNV-1a hasher over typed scalar writes.
///
/// This is the workspace's *semantic* fingerprint primitive: unlike
/// `DefaultHasher` (which is randomized per process), FNV-1a over explicit
/// little-endian byte encodings is stable across processes and builds, so
/// fingerprints written into an on-disk cache file still validate when a
/// different process loads them.
///
/// The methods are `#[inline]` because callers in other crates hash on hot
/// paths (every reuse of a transient workspace re-fingerprints the
/// circuit's elements),
/// and a non-generic function is otherwise not inlined across crates.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Start a fresh hash at the FNV offset basis.
    #[inline]
    pub fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    /// Mix raw bytes.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// Mix one byte.
    #[inline]
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Mix a `u64` (little-endian).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Mix a `usize` (widened to `u64` so 32/64-bit hosts agree).
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Mix an `f64` by exact bit pattern.
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Mix a `bool`.
    #[inline]
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Mix a string, length-prefixed so concatenations can't alias.
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The digest so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::Fnv;

    #[test]
    fn matches_standard_fnv1a_64_vectors() {
        for (input, want) in [
            ("", 0xcbf2_9ce4_8422_2325_u64),
            ("a", 0xaf63_dc4c_8601_ec8c),
            ("foobar", 0x8594_4171_f739_67e8),
        ] {
            let mut h = Fnv::new();
            h.write_bytes(input.as_bytes());
            assert_eq!(h.finish(), want, "FNV-1a-64 of {input:?}");
        }
    }
}
