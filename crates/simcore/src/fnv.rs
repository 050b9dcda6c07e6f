//! FNV-1a (64-bit), the one fold behind the workspace's fingerprints and
//! digests: the checkpoint fingerprints of the instance table and of RNG
//! states, and the pinned output digests of the conformance tests. Each
//! step folds a whole `u64` word where textbook FNV-1a folds a byte, so a
//! byte string goes in one byte per step.

/// The offset basis: the state before anything is folded in.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01B3;

/// Fold one word into `fp`.
pub fn mix_word(fp: &mut u64, w: u64) {
    *fp = (*fp ^ w).wrapping_mul(PRIME);
}

/// Fold `bytes` into `fp`, one byte per step, after their length as eight
/// little-endian bytes, so adjacent strings cannot trade bytes.
pub fn mix_bytes(fp: &mut u64, bytes: &[u8]) {
    for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
        mix_word(fp, b as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_steps_match_textbook_fnv1a() {
        // FNV-1a 64 of "a" and of "foobar", the reference test vectors.
        for (text, want) in [
            ("a", 0xaf63_dc4c_8601_ec8c),
            ("foobar", 0x8594_4171_f739_67e8),
        ] {
            let mut fp = OFFSET;
            for &b in text.as_bytes() {
                mix_word(&mut fp, b as u64);
            }
            assert_eq!(fp, want, "{text}");
        }
    }

    #[test]
    fn byte_mix_is_length_prefixed() {
        let (mut joined, mut split) = (OFFSET, OFFSET);
        mix_bytes(&mut joined, b"ab");
        mix_bytes(&mut split, b"a");
        mix_bytes(&mut split, b"b");
        assert_ne!(joined, split);
        let mut manual = OFFSET;
        for b in [2, 0, 0, 0, 0, 0, 0, 0, b'a', b'b'] {
            mix_word(&mut manual, b as u64);
        }
        assert_eq!(joined, manual);
    }
}
