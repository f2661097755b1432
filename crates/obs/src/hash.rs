//! Stable, dependency-free digests for artifact naming and handshakes.
//!
//! Several layers need a cheap digest whose value must never change
//! across releases: the bench runner keys per-point checkpoint files
//! by a digest of the parameter JSON, `ahs evaluate --checkpoint
//! <dir>` names per-study checkpoint files the same way, and
//! `ahs-serve` hands each worker attempt the digest of the job spec it
//! admitted. They all call this one implementation so the values agree
//! across layers.

/// FNV-1a 64-bit hash of `bytes`.
///
/// The same function (and constants) as the structural model
/// fingerprint in `ahs-des`, applied here to serialized artifacts
/// rather than SAN structure.
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(fnv1a_64(b"lambda=1e-5"), fnv1a_64(b"lambda=2e-5"));
    }
}
