//! The workspace's one non-cryptographic hash, FNV-1a 64: program
//! fingerprints, the verdict memo's shard choice, the chaos draws'
//! keys and crash-report file names all hash through it. It lives in
//! the dependency-free root so every crate can reach it.

/// FNV-1a 64-bit offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a hash whose state is `hash` over more `bytes`:
/// `fnv1a_extend(fnv1a(a), b) == fnv1a(a ++ b)`.
#[must_use]
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn extending_equals_hashing_the_concatenation() {
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}
