//! Wide 64-bit content checksums for ETags and bitrot detection.
//!
//! The store's original ETag/scrub hash was byte-at-a-time FNV-1a — a
//! strict dependency chain of one XOR and one multiply per *byte*, which
//! caps throughput far below memory bandwidth on multi-megabyte layer
//! blobs. This kernel runs four independent FNV-style lanes over 32-byte
//! blocks (one `u64` word per lane per step), so the four multiplies per
//! step pipeline in parallel, then mixes the lanes and the total length
//! into one 64-bit digest.
//!
//! Not cryptographic — the threat model is bitrot and cache keys, not an
//! adversary (content addressing uses the registry's SHA-256).

const SEED: [u64; 4] = [
    0xcbf29ce484222325, // FNV-1a offset basis
    0x9e3779b97f4a7c15, // golden-ratio increment
    0xa0761d6478bd642f, // wyhash constant
    0x2545f4914f6cdd1d, // xorshift* multiplier
];
const PRIME: u64 = 0x100000001b3;

#[inline]
fn lane_step(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(PRIME)
}

/// Final avalanche (splitmix64 finalizer).
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Absorb one 32-byte block: four independent multiply chains, one
/// `u64` word per lane — the CPU overlaps them.
#[inline]
fn absorb_block(lanes: &mut [u64; 4], block: &[u8]) {
    for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
        *lane = lane_step(*lane, u64::from_le_bytes(word.try_into().expect("8")));
    }
}

/// One-shot checksum of a byte slice.
pub fn checksum64(data: &[u8]) -> u64 {
    let mut lanes = SEED;
    let mut blocks = data.chunks_exact(32);
    for block in &mut blocks {
        absorb_block(&mut lanes, block);
    }
    // Tail: zero-pad to a block but bind the true length so trailing
    // zeros and padding are distinguishable.
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let mut block = [0u8; 32];
        block[..tail.len()].copy_from_slice(tail);
        absorb_block(&mut lanes, &block);
    }
    let combined = mix(lanes[0])
        .wrapping_add(mix(lanes[1]).rotate_left(17))
        .wrapping_add(mix(lanes[2]).rotate_left(31))
        .wrapping_add(mix(lanes[3]).rotate_left(47));
    mix(combined ^ data.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn deterministic_and_content_sensitive() {
        let a = noise(1000, 1);
        assert_eq!(checksum64(&a), checksum64(&a));
        let mut b = a.clone();
        b[500] ^= 1;
        assert_ne!(checksum64(&a), checksum64(&b));
    }

    #[test]
    fn length_extension_of_zeros_changes_digest() {
        // Zero-padding must not collide with the unpadded content.
        let a = vec![0u8; 31];
        let b = vec![0u8; 32];
        let c = vec![0u8; 33];
        assert_ne!(checksum64(&a), checksum64(&b));
        assert_ne!(checksum64(&b), checksum64(&c));
        assert_ne!(checksum64(&[]), checksum64(&[0]));
    }

    #[test]
    fn empty_input_has_stable_digest() {
        // Pinned: stored ETags must survive refactors of the kernel.
        assert_eq!(checksum64(&[]), 0x0eae_ad50_6379_1148);
    }
}
