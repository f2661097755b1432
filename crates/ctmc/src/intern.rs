//! A single-storage state interner.

use std::hash::{Hash, Hasher};

/// End of a collision chain, or an empty bucket.
const NONE: u32 = u32::MAX;

/// Numbers distinct states densely in insertion order, storing each
/// state exactly once.
///
/// A `HashMap<S, usize>` beside a `Vec<S>` keeps every state twice (map
/// key and vector entry). The interner keeps the `Vec` only, plus per
/// state its `u64` hash and a `next` link: a power-of-two table maps a
/// hash to the most recently interned state in its bucket, and the
/// links chain the bucket's older states. A lookup walks that chain,
/// comparing stored hashes first and resolving a hash match with `Eq`
/// against the stored state. Lookups take `&S`, so a caller can probe
/// with a scratch state and clone only the states it actually interns.
///
/// The hash is an Fx-style word fold, fixed across runs, and the
/// numbering depends only on the order of [`intern`](Interner::intern)
/// calls — never on the hash.
#[derive(Debug, Clone)]
pub struct Interner<S> {
    states: Vec<S>,
    hashes: Vec<u64>,
    next: Vec<u32>,
    /// Bucket → newest state index in it, or [`NONE`].
    heads: Vec<u32>,
    /// `64 − log2(heads.len())`: the bucket is the hash's top bits.
    shift: u32,
}

impl<S: Eq + Hash> Default for Interner<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Eq + Hash> Interner<S> {
    /// Smallest table; keeps `shift` below 64.
    const MIN_BUCKETS: usize = 16;

    /// An empty interner.
    pub fn new() -> Self {
        Interner {
            states: Vec::new(),
            hashes: Vec::new(),
            next: Vec::new(),
            heads: vec![NONE; Self::MIN_BUCKETS],
            shift: 64 - Self::MIN_BUCKETS.trailing_zeros(),
        }
    }

    /// Number of interned states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The interned states, in insertion order: state `i` is at index
    /// `i`.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Index of `state`, if interned.
    pub fn index_of(&self, state: &S) -> Option<usize> {
        self.find(state, hash_of(state))
    }

    /// Index of `state`, interning a clone of it first if it is new and
    /// fewer than `cap` states are interned; `None` when it is new and
    /// the interner is full. A new state gets index [`len`](Self::len)
    /// as it was before the call.
    ///
    /// # Panics
    ///
    /// Panics if the number of states would reach `u32::MAX`.
    pub fn intern(&mut self, state: &S, cap: usize) -> Option<usize>
    where
        S: Clone,
    {
        let h = hash_of(state);
        if let Some(i) = self.find(state, h) {
            return Some(i);
        }
        if self.states.len() >= cap {
            return None;
        }
        let i = self.states.len();
        assert!(i < NONE as usize, "interner index space exhausted");
        if 2 * (i + 1) > self.heads.len() {
            self.grow();
        }
        let b = self.bucket(h);
        self.states.push(state.clone());
        self.hashes.push(h);
        self.next.push(self.heads[b]);
        self.heads[b] = i as u32;
        Some(i)
    }

    fn find(&self, state: &S, h: u64) -> Option<usize> {
        let mut i = self.heads[self.bucket(h)];
        while i != NONE {
            let k = i as usize;
            if self.hashes[k] == h && self.states[k] == *state {
                return Some(k);
            }
            i = self.next[k];
        }
        None
    }

    fn bucket(&self, h: u64) -> usize {
        (h >> self.shift) as usize
    }

    /// Doubles the table and relinks every state from its stored hash.
    fn grow(&mut self) {
        let buckets = self.heads.len() * 2;
        self.heads.clear();
        self.heads.resize(buckets, NONE);
        self.shift = 64 - buckets.trailing_zeros();
        for (i, &h) in self.hashes.iter().enumerate() {
            let b = (h >> self.shift) as usize;
            self.next[i] = self.heads[b];
            self.heads[b] = i as u32;
        }
    }
}

fn hash_of<S: Hash>(state: &S) -> u64 {
    let mut h = WordHasher(0);
    state.hash(&mut h);
    h.finish()
}

/// Rotate-xor-multiply fold over 64-bit words. Its high bits are well
/// mixed, and the bucket is taken from them.
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_in_insertion_order_and_finds_by_reference() {
        let mut it = Interner::new();
        for (k, s) in ["a", "b", "a", "c", "b"].iter().enumerate() {
            let i = it.intern(&s.to_string(), usize::MAX).unwrap();
            assert_eq!(i, [0, 1, 0, 2, 1][k]);
        }
        assert_eq!(it.states(), ["a", "b", "c"]);
        assert_eq!(it.index_of(&"c".to_string()), Some(2));
        assert_eq!(it.index_of(&"d".to_string()), None);
    }

    #[test]
    fn survives_growth_and_respects_the_cap() {
        let mut it = Interner::new();
        for s in 0..10_000u32 {
            assert_eq!(it.intern(&(s * 7919), 10_000), Some(s as usize));
        }
        assert_eq!(it.intern(&1, 10_000), None);
        assert_eq!(it.intern(&(3 * 7919), 10_000), Some(3));
        for s in 0..10_000u32 {
            assert_eq!(it.index_of(&(s * 7919)), Some(s as usize));
        }
        assert_eq!(it.len(), 10_000);
    }

    /// Every state hashes alike: lookups must fall back on `Eq` along
    /// one long chain.
    #[test]
    fn resolves_full_collisions_with_eq() {
        #[derive(Clone, PartialEq, Eq)]
        struct Same(u32);
        impl Hash for Same {
            fn hash<H: Hasher>(&self, h: &mut H) {
                h.write_u64(42);
            }
        }
        let mut it = Interner::new();
        for s in 0..300 {
            assert_eq!(it.intern(&Same(s), usize::MAX), Some(s as usize));
        }
        for s in 0..300 {
            assert_eq!(it.index_of(&Same(s)), Some(s as usize));
        }
        assert_eq!(it.index_of(&Same(300)), None);
    }
}
