//! A keyed multiply-fold hasher for the engine's integer-keyed maps.
//!
//! The session's placement map, the open-bin index, the per-tag lists,
//! the per-tag fit indexes and the Best/Worst Fit tie groups are all
//! keyed by one integer (an item id, a bin id, a tag or a level) and
//! probed several times per arrival. SipHash, the std default, costs
//! more than the rest of such a probe. [`FoldState`] hashes one integer
//! with two 64×64→128-bit multiplies, each folded by XOR-ing its halves
//! together: one as the word is written, one at `finish`. The second
//! fold carries every input bit into the low bits the table indexes by
//! and the high bits its control bytes use. A single fold does not: for
//! ids `k·2²⁰` its low 12 bits are a linear function of `k`, and about
//! one key in six collapsed 4,096 such ids onto fewer than 2,000 values.
//!
//! The folds are keyed: the multipliers and the starting value come
//! from one [`RandomState`] per process. `dbp-serve` puts client job ids into
//! the session's placement map, and an unkeyed multiply (the Fx hash)
//! leaves the low bits of `x · K` equal to those of `x` times an odd
//! constant, so every id sharing its low 20 bits would share a probe
//! chain. With unknown keys a client cannot aim its ids at one chain.
//!
//! This is a table hash, not a MAC: it keeps honest workloads and
//! low-effort collisions off one chain, and iteration order stays as
//! arbitrary as it was under `RandomState`.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` hashed with [`FoldState`].
pub(crate) type FoldMap<K, V> = HashMap<K, V, FoldState>;

/// One 64×64→128-bit multiply, its halves XOR-folded.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// The [`BuildHasher`] of [`FoldHasher`]s, carrying the process keys.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FoldState {
    seed: u64,
    mul: u64,
    fin: u64,
}

impl Default for FoldState {
    /// The process keys, drawn once from [`RandomState`].
    fn default() -> Self {
        static KEYS: OnceLock<FoldState> = OnceLock::new();
        *KEYS.get_or_init(|| {
            let state = RandomState::new();
            FoldState {
                seed: state.hash_one(0x243f_6a88_85a3_08d3u64),
                // Odd, so each multiply is a bijection on the low half.
                mul: state.hash_one(0x1319_8a2e_0370_7344u64) | 1,
                fin: state.hash_one(0xa409_3822_299f_31d0u64) | 1,
            }
        })
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            acc: self.seed,
            mul: self.mul,
            fin: self.fin,
        }
    }
}

/// Folds each written word into the running value with [`fold`], and
/// the running value once more at `finish`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FoldHasher {
    acc: u64,
    mul: u64,
    fin: u64,
}

impl Hasher for FoldHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.acc = fold(self.acc ^ n, self.mul);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        fold(self.acc, self.fin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ItemId;
    use std::collections::HashSet;

    #[test]
    fn ids_sharing_their_low_bits_spread_over_the_low_hash_bits() {
        // Ids k·2²⁰ agree on their low 20 bits. An unkeyed Fx multiply
        // maps all 4,096 of them to one low-12-bit value, that is, one
        // probe chain of a 4,096-bucket table.
        let state = FoldState::default();
        let low: HashSet<u64> = (0..4096u32)
            .map(|k| state.hash_one(ItemId(k << 20)) & 0xfff)
            .collect();
        assert!(
            low.len() >= 2_000,
            "{} distinct low-12-bit values",
            low.len()
        );
        let fx: HashSet<u64> = (0..4096u64)
            .map(|k| ((k << 20).wrapping_mul(0x517c_c1b7_2722_0a95)) & 0xfff)
            .collect();
        assert_eq!(fx.len(), 1, "the unkeyed multiply this hasher replaces");
    }

    #[test]
    fn the_keys_are_drawn_once_per_process() {
        let (a, b) = (FoldState::default(), FoldState::default());
        assert_eq!(a.hash_one(7u64), b.hash_one(7u64));
        assert_eq!((a.mul & 1, a.fin & 1), (1, 1));
        // Byte-slice writes fold every byte in.
        assert_ne!(a.hash_one("abcdefgh1"), a.hash_one("abcdefgh2"));
    }
}
