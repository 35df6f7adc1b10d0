//! The integrity primitives of the snapshot format: FNV-1a 64 for the
//! header and section table (in every version), and an 8-lane word
//! fold for the payload sections of format v4.
//!
//! Both fold their input into the state with an XOR followed by a
//! multiplication by an odd constant. Both steps are bijective on the
//! 64-bit state for a fixed input, so two buffers that differ in
//! exactly one input unit (a byte for FNV-1a, a 64-bit word for the
//! word fold) — in particular, by a single flipped bit — *always* hash
//! differently: single-unit corruption anywhere in a checksummed region
//! is detected with certainty, not merely with high probability.
//! Neither is collision-resistant against an adversary; the store
//! guards against storage and transport corruption, not forgery.

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes `bytes` with FNV-1a 64.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET_BASIS, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// Independent multiply chains of the word fold: word `i` goes to lane
/// `i % LANES`, so the CPU overlaps the chains' multiplications.
const LANES: usize = 8;
/// The word fold's odd multiplier, 2^64 / φ rounded to odd.
const WORD_PRIME: u64 = 0x9e37_79b9_7f4a_7c15;

/// Hashes `bytes` as native-endian 64-bit words with an 8-lane fold:
/// every lane starts at the FNV-1a offset basis, then
/// `lane[i % 8] = (lane[i % 8] ^ word[i]) * P` for each word, and the
/// eight lanes fold into one value the same way. A ragged tail is
/// zero-extended to one last word; snapshot sections never have one.
///
/// A change confined to one word changes that word's lane for certain
/// (each step is a bijection of the lane) and leaves the other lanes
/// alone, so the result changes for certain. The multiply carries a
/// difference only towards higher bits: flips of the top bit of two
/// words eight apart cancel, so multi-word damage is detected with high
/// probability, not certainty — as with FNV-1a's bytes.
pub fn word_checksum(bytes: &[u8]) -> u64 {
    let mut fold = WordFold::new();
    fold.update(bytes);
    fold.finish()
}

/// The streamed form of [`word_checksum`]: feeding a buffer in pieces
/// gives the one-shot value, provided every piece but the last is a
/// whole number of words.
pub(crate) struct WordFold {
    lanes: [u64; LANES],
    /// Lane of the next word.
    next: usize,
}

impl WordFold {
    pub(crate) fn new() -> Self {
        Self {
            lanes: [FNV_OFFSET_BASIS; LANES],
            next: 0,
        }
    }

    fn fold_word(&mut self, word: [u8; 8]) {
        let lane = &mut self.lanes[self.next];
        *lane = (*lane ^ u64::from_ne_bytes(word)).wrapping_mul(WORD_PRIME);
        self.next = (self.next + 1) % LANES;
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let (words, tail) = bytes.as_chunks::<8>();
        let lead = ((LANES - self.next) % LANES).min(words.len());
        for &word in &words[..lead] {
            self.fold_word(word);
        }
        let (blocks, rest) = words[lead..].as_chunks::<LANES>();
        let mut lanes = self.lanes;
        for block in blocks {
            for (lane, &word) in lanes.iter_mut().zip(block) {
                *lane = (*lane ^ u64::from_ne_bytes(word)).wrapping_mul(WORD_PRIME);
            }
        }
        self.lanes = lanes;
        for &word in rest {
            self.fold_word(word);
        }
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.fold_word(word);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.lanes.iter().fold(FNV_OFFSET_BASIS, |h, &lane| {
            (h ^ lane).wrapping_mul(WORD_PRIME)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_vectors() {
        // Reference values from the FNV specification.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn every_single_bit_flip_changes_the_hash() {
        let base: Vec<u8> = (0..64u8).collect();
        let h = fnv1a_64(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(fnv1a_64(&flipped), h, "byte {i} bit {bit}");
            }
        }
    }

    /// The 64 bytes `0, 1, …, 63` as native-endian words.
    fn counting_bytes() -> Vec<u8> {
        (0..64u8).collect()
    }

    #[test]
    fn word_checksum_matches_pinned_vectors() {
        // Pinned values: they change only with the format's version.
        assert_eq!(word_checksum(b""), 0x89a3_cf2c_7367_5575);
        let expected = if cfg!(target_endian = "little") {
            0xb435_58c0_422f_8ed5
        } else {
            0x79bb_34a2_2f2a_ef25
        };
        assert_eq!(word_checksum(&counting_bytes()), expected);
    }

    #[test]
    fn word_checksum_every_single_bit_flip_changes_the_hash() {
        let base = counting_bytes();
        let h = word_checksum(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(word_checksum(&flipped), h, "byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn streamed_word_fold_equals_one_shot() {
        let bytes: Vec<u8> = (0..1000u32).map(|i| (i * 37 % 251) as u8).collect();
        let whole = word_checksum(&bytes);
        for split in [0, 8, 24, 64, 72, 512, 992, 1000] {
            let mut fold = WordFold::new();
            fold.update(&bytes[..split]);
            fold.update(&bytes[split..]);
            assert_eq!(fold.finish(), whole, "split at {split}");
        }
    }
}
