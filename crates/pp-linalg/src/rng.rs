//! Deterministic hashing and seeding helpers.
//!
//! Feature hashing (§5.4) needs two cheap, stateless hash functions `h(j)`
//! and `η(j)`; the dataset generators and classifiers need reproducible
//! per-component RNG streams derived from a single experiment seed. Both are
//! built on SplitMix64, a well-studied 64-bit mixer.

/// One round of the SplitMix64 output function: a bijective 64-bit mixer.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a `(seed, index)` pair into a uniform 64-bit value.
#[inline]
pub fn hash2(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(index))
}

/// Maps a hash to a uniform float in `[0, 1)`: its 53 high bits.
#[inline]
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Derives a child seed for a named sub-component, so independent parts of
/// an experiment get decorrelated streams from one top-level seed.
pub fn derive_seed(seed: u64, component: &str) -> u64 {
    let mut acc = splitmix64(seed);
    for b in component.as_bytes() {
        acc = splitmix64(acc ^ u64::from(*b));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
        // Consecutive inputs should differ in many bits.
        let diff = (splitmix64(41) ^ splitmix64(42)).count_ones();
        assert!(diff > 16, "weak diffusion: {diff} bits");
    }

    #[test]
    fn hash2_mixes_both_arguments() {
        assert_ne!(hash2(1, 2), hash2(2, 1));
        assert_ne!(hash2(1, 2), hash2(1, 3));
    }

    #[test]
    fn derive_seed_depends_on_name() {
        assert_ne!(derive_seed(7, "svm"), derive_seed(7, "kde"));
        assert_eq!(derive_seed(7, "svm"), derive_seed(7, "svm"));
        assert_ne!(derive_seed(7, "svm"), derive_seed(8, "svm"));
    }
}
