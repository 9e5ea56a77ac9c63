//! CRC-32 (IEEE 802.3) checksums, shared by the WAL record format and the
//! recovery manager's dump format for torn-write detection.

/// Computes the CRC-32 (IEEE, reflected, init `!0`, final xor `!0`) of
/// `bytes` — the same polynomial zlib and Ethernet use.
///
/// # Example
///
/// ```rust
/// // Standard check value for "123456789".
/// assert_eq!(twob_sim::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(!0u32, bytes) ^ !0u32
}

/// Slice-by-8 lookup tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table, and `CRC_TABLES[k][b]` advances the CRC of byte `b` through `k`
/// further zero bytes, so eight table lookups fold eight input bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Streaming form: feed chunks into a running state initialized with
/// `!0u32`, and finish by xoring with `!0u32`.
///
/// Slice-by-8: eight bytes per step through [`CRC_TABLES`], then the tail a
/// byte at a time. Bit-identical to the textbook bit-at-a-time loop for any
/// data, split and initial state (a proptest pins it against that loop).
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = state;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// Computes the 64-bit FNV-1a hash of `bytes`.
///
/// Used where a wider, cheap, dependency-free digest is wanted — e.g. the
/// engines' canonical `state_digest()` — while CRC-32 stays the on-media
/// record checksum. Not cryptographic; it detects divergence, not tampering.
///
/// # Example
///
/// ```rust
/// // Standard FNV-1a test vectors.
/// assert_eq!(twob_sim::fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
/// assert_eq!(twob_sim::fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(0xCBF2_9CE4_8422_2325, bytes)
}

/// Streaming form of [`fnv1a64`]: feed chunks into a running state
/// initialized with the FNV offset basis (`0xCBF2_9CE4_8422_2325`).
pub fn fnv1a64_update(state: u64, bytes: &[u8]) -> u64 {
    let mut hash = state;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn fnv_streaming_matches_one_shot() {
        let data = b"hello, streaming world";
        let mut state = 0xCBF2_9CE4_8422_2325u64;
        for chunk in data.chunks(5) {
            state = fnv1a64_update(state, chunk);
        }
        assert_eq!(state, fnv1a64(data));
    }

    #[test]
    fn fnv_detects_single_bit_flip() {
        let mut data = vec![0xA5u8; 64];
        let clean = fnv1a64(&data);
        data[31] ^= 0x10;
        assert_ne!(fnv1a64(&data), clean);
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"hello, streaming world";
        let mut state = !0u32;
        for chunk in data.chunks(5) {
            state = crc32_update(state, chunk);
        }
        assert_eq!(state ^ !0u32, crc32(data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0x5Au8; 64];
        let clean = crc32(&data);
        data[17] ^= 0x04;
        assert_ne!(crc32(&data), clean);
    }
}
