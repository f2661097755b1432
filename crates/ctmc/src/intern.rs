//! A packed single-storage state interner.

use ahs_san::Marking;

use crate::error::CtmcError;

/// End of a collision chain, or an empty bucket.
const NONE: u32 = u32::MAX;

/// How a state is stored in an [`Interner`]: as a canonical byte
/// string.
///
/// Within one state space, two states must pack to equal bytes exactly
/// when they are equal: the interner compares packed bytes, never
/// states. The packed form need not be self-describing — unpacking
/// writes into an existing state of the same space, which supplies
/// whatever shape (a marking's place kinds and array lengths) the bytes
/// leave out.
pub trait PackedState: Clone {
    /// Appends the packed form of `self` to `out`.
    fn pack_into(&self, out: &mut Vec<u8>);

    /// Overwrites `into`, a state of the same space, with the state
    /// packed in `bytes`.
    fn unpack_from(bytes: &[u8], into: &mut Self);
}

/// Markings pack to their canonical varint form
/// ([`Marking::pack_into`]).
impl PackedState for Marking {
    fn pack_into(&self, out: &mut Vec<u8>) {
        Marking::pack_into(self, out);
    }

    fn unpack_from(bytes: &[u8], into: &mut Self) {
        Marking::unpack_from(bytes, into);
    }
}

/// Small integer states pack to their fixed-width little-endian bytes.
macro_rules! packed_int {
    ($($t:ty),*) => {$(
        impl PackedState for $t {
            fn pack_into(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn unpack_from(bytes: &[u8], into: &mut Self) {
                *into = <$t>::from_le_bytes(bytes.try_into().expect("packed integer width"));
            }
        }
    )*};
}

packed_int!(u8, u32);

impl PackedState for bool {
    fn pack_into(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn unpack_from(bytes: &[u8], into: &mut Self) {
        *into = bytes == [1];
    }
}

/// Numbers distinct states densely in insertion order, storing each
/// state once, packed.
///
/// Every state lives as its [`PackedState`] bytes in one `Vec<u8>`
/// arena, delimited by a per-state `u32` end offset; beside it the
/// interner keeps per state the `u64` hash of those bytes and a `next`
/// link. A power-of-two table maps a hash to the most recently interned
/// state in its bucket, and the links chain the bucket's older states.
/// A lookup walks that chain, comparing stored hashes first and
/// resolving a hash match by comparing bytes. Callers probe with a
/// packed scratch buffer ([`intern_packed`](Interner::intern_packed)),
/// so a new state costs its bytes in the arena and nothing else on the
/// heap.
///
/// States come back out decoded ([`get`](Interner::get),
/// [`decode_into`](Interner::decode_into), [`iter`](Interner::iter)),
/// unpacked into a copy of the first state interned by value, which
/// supplies the shape.
///
/// The hash is a word fold, fixed across runs, and the numbering
/// depends only on the order of [`intern`](Interner::intern) calls —
/// never on the hash.
#[derive(Debug, Clone)]
pub struct Interner<S> {
    arena: Vec<u8>,
    /// State `i` is `arena[ends[i - 1]..ends[i]]` (from 0 for `i = 0`).
    ends: Vec<u32>,
    hashes: Vec<u64>,
    next: Vec<u32>,
    /// Bucket → newest state index in it, or [`NONE`].
    heads: Vec<u32>,
    /// `64 − log2(heads.len())`: the bucket is the hash's top bits.
    shift: u32,
    /// Largest arena the `u32` end offsets can address.
    arena_limit: usize,
    /// The first state interned by value: the shape states decode into.
    template: Option<S>,
    /// Pack buffer of [`intern`](Interner::intern).
    scratch: Vec<u8>,
}

impl<S: PackedState> Default for Interner<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: PackedState> Interner<S> {
    /// Smallest table; keeps `shift` below 64.
    const MIN_BUCKETS: usize = 16;

    /// An empty interner.
    pub fn new() -> Self {
        Interner {
            arena: Vec::new(),
            ends: Vec::new(),
            hashes: Vec::new(),
            next: Vec::new(),
            heads: vec![NONE; Self::MIN_BUCKETS],
            shift: 64 - Self::MIN_BUCKETS.trailing_zeros(),
            arena_limit: u32::MAX as usize,
            template: None,
            scratch: Vec::new(),
        }
    }

    /// Number of interned states.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The packed bytes of state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn packed(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.arena[start as usize..self.ends[i] as usize]
    }

    /// Overwrites `into` with state `i`. `into` must be a state of the
    /// same space (for markings: of the same model).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn decode_into(&self, i: usize, into: &mut S) {
        S::unpack_from(self.packed(i), into);
    }

    /// A decoded copy of state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> S {
        let mut state = self.shape().clone();
        self.decode_into(i, &mut state);
        state
    }

    /// Decoded copies of the interned states, in insertion order: state
    /// `i` is the `i`-th item. Bulk readers that keep no state should
    /// prefer [`decode_into`](Interner::decode_into) with one scratch.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = S> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Calls `f` with each index and state in insertion order, decoding
    /// every state into one reused scratch: a bulk read with no
    /// per-state allocation.
    pub fn for_each(&self, mut f: impl FnMut(usize, &S)) {
        let Some(shape) = &self.template else {
            return;
        };
        let mut state = shape.clone();
        for i in 0..self.len() {
            self.decode_into(i, &mut state);
            f(i, &state);
        }
    }

    /// Index of `state`, if interned.
    pub fn index_of(&self, state: &S) -> Option<usize> {
        let mut bytes = Vec::new();
        state.pack_into(&mut bytes);
        self.index_of_packed(&bytes)
    }

    /// Index of the state packed in `bytes`, if interned.
    pub fn index_of_packed(&self, bytes: &[u8]) -> Option<usize> {
        self.find(bytes, hash_bytes(bytes))
    }

    /// Index of `state`, interning it first if it is new and fewer than
    /// `cap` states are interned; `Ok(None)` when it is new and the
    /// interner is full. A new state gets index [`len`](Self::len) as
    /// it was before the call.
    ///
    /// # Errors
    ///
    /// [`CtmcError::StateStoreFull`] when a new state would overflow
    /// the `u32` state indices or arena offsets.
    pub fn intern(&mut self, state: &S, cap: usize) -> Result<Option<usize>, CtmcError> {
        if self.template.is_none() {
            self.template = Some(state.clone());
        }
        let mut bytes = std::mem::take(&mut self.scratch);
        bytes.clear();
        state.pack_into(&mut bytes);
        let interned = self.intern_packed(&bytes, cap);
        self.scratch = bytes;
        interned
    }

    /// [`intern`](Interner::intern) for a state already packed into
    /// `bytes`. The first state must be interned by value, so the
    /// interner has a shape to decode into.
    ///
    /// # Errors
    ///
    /// As [`intern`](Interner::intern).
    ///
    /// # Panics
    ///
    /// Panics if nothing was interned by value yet.
    pub fn intern_packed(&mut self, bytes: &[u8], cap: usize) -> Result<Option<usize>, CtmcError> {
        assert!(
            self.template.is_some(),
            "intern the first state by value: it is the shape states decode into"
        );
        let h = hash_bytes(bytes);
        if let Some(i) = self.find(bytes, h) {
            return Ok(Some(i));
        }
        let i = self.len();
        if i >= cap {
            return Ok(None);
        }
        let end = self.arena.len() + bytes.len();
        if i >= NONE as usize || end > self.arena_limit {
            return Err(CtmcError::StateStoreFull { states: i });
        }
        if 2 * (i + 1) > self.heads.len() {
            self.grow();
        }
        let b = self.bucket(h);
        self.arena.extend_from_slice(bytes);
        self.ends.push(end as u32);
        self.hashes.push(h);
        self.next.push(self.heads[b]);
        self.heads[b] = i as u32;
        Ok(Some(i))
    }

    fn shape(&self) -> &S {
        self.template
            .as_ref()
            .expect("an interner holding states has a shape")
    }

    fn find(&self, bytes: &[u8], h: u64) -> Option<usize> {
        let mut i = self.heads[self.bucket(h)];
        while i != NONE {
            let k = i as usize;
            if self.hashes[k] == h && self.packed(k) == bytes {
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

/// Multiplier of the rotate-xor-multiply word fold.
const MUL: u64 = 0x517c_c1b7_2722_0a95;

fn fold(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(MUL)
}

/// Folds `bytes` as little-endian 64-bit words (the last one
/// zero-padded), then the length. The high bits are well mixed, and the
/// bucket is taken from them.
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut h = 0;
    for w in &mut words {
        h = fold(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut w = [0u8; 8];
        w[..tail.len()].copy_from_slice(tail);
        h = fold(h, u64::from_le_bytes(w));
    }
    fold(h, bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_in_insertion_order_and_finds_by_reference() {
        let mut it = Interner::new();
        for (k, s) in [10u32, 20, 10, 30, 20].iter().enumerate() {
            let i = it.intern(s, usize::MAX).unwrap().unwrap();
            assert_eq!(i, [0, 1, 0, 2, 1][k]);
        }
        assert_eq!(it.iter().collect::<Vec<_>>(), [10, 20, 30]);
        assert_eq!(it.get(1), 20);
        assert_eq!(it.packed(2), 30u32.to_le_bytes());
        assert_eq!(it.index_of(&30), Some(2));
        assert_eq!(it.index_of(&40), None);
        assert_eq!(it.index_of_packed(&20u32.to_le_bytes()), Some(1));
        assert_eq!(it.intern_packed(&40u32.to_le_bytes(), 10), Ok(Some(3)));
        assert_eq!(it.get(3), 40);
    }

    #[test]
    fn survives_growth_and_respects_the_cap() {
        let mut it = Interner::new();
        for s in 0..10_000u32 {
            assert_eq!(it.intern(&(s * 7919), 10_000), Ok(Some(s as usize)));
        }
        assert_eq!(it.intern(&1, 10_000), Ok(None));
        assert_eq!(it.intern(&(3 * 7919), 10_000), Ok(Some(3)));
        for s in 0..10_000u32 {
            assert_eq!(it.index_of(&(s * 7919)), Some(s as usize));
        }
        assert_eq!(it.len(), 10_000);
    }

    /// An arena that would outgrow its offsets is an error, and leaves
    /// the interner as it was.
    #[test]
    fn arena_overflow_is_an_error() {
        let mut it = Interner::new();
        it.arena_limit = 10;
        assert_eq!(it.intern(&1u32, usize::MAX), Ok(Some(0)));
        assert_eq!(it.intern(&2u32, usize::MAX), Ok(Some(1)));
        assert_eq!(
            it.intern(&3u32, usize::MAX),
            Err(CtmcError::StateStoreFull { states: 2 })
        );
        assert_eq!(it.intern(&2u32, usize::MAX), Ok(Some(1)));
        assert_eq!(it.len(), 2);
        assert_eq!(it.arena.len(), 8);
    }

    /// A state whose 16 packed bytes are built so that every state
    /// hashes alike: the second word cancels the first word's
    /// contribution to the fold.
    #[derive(Clone, Debug, PartialEq)]
    struct Same(u64);

    impl PackedState for Same {
        fn pack_into(&self, out: &mut Vec<u8>) {
            let second = fold(0, self.0).rotate_left(5) ^ 42;
            out.extend_from_slice(&self.0.to_le_bytes());
            out.extend_from_slice(&second.to_le_bytes());
        }

        fn unpack_from(bytes: &[u8], into: &mut Self) {
            into.0 = u64::from_le_bytes(bytes[..8].try_into().unwrap());
        }
    }

    /// Every state hashes alike: lookups must fall back on comparing
    /// bytes along one long chain.
    #[test]
    fn resolves_full_collisions_by_bytes() {
        let packed = |s: u64| {
            let mut out = Vec::new();
            Same(s).pack_into(&mut out);
            out
        };
        assert!((1..300).all(|s| hash_bytes(&packed(s)) == hash_bytes(&packed(0))));
        let mut it = Interner::new();
        for s in 0..300 {
            assert_eq!(it.intern(&Same(s), usize::MAX), Ok(Some(s as usize)));
        }
        for s in 0..300 {
            assert_eq!(it.index_of(&Same(s)), Some(s as usize));
        }
        assert_eq!(it.index_of(&Same(300)), None);
        assert_eq!(it.get(299), Same(299));
    }
}
