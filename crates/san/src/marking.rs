//! Markings: the state of a SAN.

use std::hash::{Hash, Hasher};

use crate::place::{PlaceDecl, PlaceId, PlaceKind};
use crate::trace;

/// Tag bit marking a slot as an extended-place redirect. Token counts
/// are capped just below it, so the bit unambiguously distinguishes a
/// count from an array index.
const EXT_TAG: u64 = 1 << 63;

/// The contents of one place.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PlaceValue {
    /// Token count of a simple place.
    Tokens(u64),
    /// Contents of an extended (array) place.
    Array(Vec<i64>),
}

/// A complete marking: the token count or array contents of every
/// declared place.
///
/// Markings are plain data — hashable, comparable and packable into a
/// canonical byte form ([`Marking::pack_into`]) — so they can serve
/// directly as CTMC states during state-space exploration.
///
/// Storage is a dense `Vec<u64>` with one slot per place. Simple places
/// store their token count directly — the overwhelmingly common case in
/// the paper's models, and the layout the simulators' hot loop reads —
/// while extended places store a tagged index into a side table of
/// arrays.
///
/// `Eq` and `Hash` are implemented over the *canonical form*: the
/// per-place semantic value (token count, or array contents), in place
/// order. Two markings with the same values compare and hash equal even
/// if their internal side tables were laid out differently — the
/// equality a model checker's visited set and any cross-construction
/// state cache need. See [`Marking::fingerprint`] for a stable digest of
/// the same form.
///
/// Accessors take [`PlaceId`]s handed out by the builder. The `tokens` /
/// `set_tokens` family addresses simple places; `array` / `array_mut`
/// address extended places. Using the wrong accessor for a place's kind
/// panics: this is a programming error in model construction, not a
/// runtime condition.
#[derive(Debug)]
pub struct Marking {
    /// Per-place token count, or `EXT_TAG | index` into `arrays`.
    slots: Vec<u64>,
    /// Extended-place contents, in declaration order.
    arrays: Vec<Vec<i64>>,
}

/// `clone_from` copies field by field into the existing buffers, so a
/// scratch marking reset from a source of the same shape does not
/// allocate.
impl Clone for Marking {
    fn clone(&self) -> Self {
        Marking {
            slots: self.slots.clone(),
            arrays: self.arrays.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
        self.arrays.clone_from(&source.arrays);
    }
}

impl Marking {
    /// Builds the initial marking from declarations.
    pub(crate) fn from_decls(decls: &[PlaceDecl]) -> Self {
        let mut slots = Vec::with_capacity(decls.len());
        let mut arrays = Vec::new();
        for d in decls {
            match d.kind {
                PlaceKind::Simple => {
                    assert!(d.initial_tokens < EXT_TAG, "token count overflow");
                    slots.push(d.initial_tokens);
                }
                PlaceKind::Extended { .. } => {
                    slots.push(EXT_TAG | arrays.len() as u64);
                    arrays.push(d.initial_array.clone());
                }
            }
        }
        Marking { slots, arrays }
    }

    /// Number of places.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the marking covers zero places.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Raw value of a place.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of bounds.
    pub fn value(&self, p: PlaceId) -> PlaceValue {
        trace::note_read(p);
        let slot = self.slots[p.0];
        if slot & EXT_TAG == 0 {
            PlaceValue::Tokens(slot)
        } else {
            PlaceValue::Array(self.arrays[(slot & !EXT_TAG) as usize].clone())
        }
    }

    /// Token count of a simple place.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of bounds or refers to an extended place.
    #[inline]
    pub fn tokens(&self, p: PlaceId) -> u64 {
        trace::note_read(p);
        let slot = self.slots[p.0];
        assert!(
            slot & EXT_TAG == 0,
            "place {} is extended; use array()/array_mut() to access it",
            p.0
        );
        slot
    }

    /// Sets the token count of a simple place.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of bounds, refers to an extended place, or
    /// `n` exceeds the representable token range.
    #[inline]
    pub fn set_tokens(&mut self, p: PlaceId, n: u64) {
        trace::note_write(p);
        let slot = &mut self.slots[p.0];
        assert!(
            *slot & EXT_TAG == 0,
            "place {} is extended; use array()/array_mut() to access it",
            p.0
        );
        assert!(n < EXT_TAG, "token count overflow");
        *slot = n;
    }

    /// Adds tokens to a simple place.
    ///
    /// # Panics
    ///
    /// Panics on kind mismatch or token-count overflow.
    pub fn add_tokens(&mut self, p: PlaceId, n: u64) {
        let cur = self.tokens(p);
        self.set_tokens(p, cur.checked_add(n).expect("token count overflow"));
    }

    /// Removes tokens from a simple place.
    ///
    /// # Panics
    ///
    /// Panics on kind mismatch or if fewer than `n` tokens are present —
    /// firing an activity whose input arcs are not satisfied is an
    /// engine bug, not a model condition.
    pub fn remove_tokens(&mut self, p: PlaceId, n: u64) {
        let cur = self.tokens(p);
        assert!(
            cur >= n,
            "cannot remove {n} tokens from place {} holding {cur}",
            p.0
        );
        self.set_tokens(p, cur - n);
    }

    /// Contents of an extended place.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of bounds or refers to a simple place.
    pub fn array(&self, p: PlaceId) -> &[i64] {
        trace::note_read(p);
        let slot = self.slots[p.0];
        assert!(
            slot & EXT_TAG != 0,
            "place {} is simple; use tokens()/set_tokens() to access it",
            p.0
        );
        &self.arrays[(slot & !EXT_TAG) as usize]
    }

    /// Mutable contents of an extended place.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of bounds or refers to a simple place.
    pub fn array_mut(&mut self, p: PlaceId) -> &mut [i64] {
        // Handing out a mutable slice counts as both a read and a write:
        // the caller can do either and the trace must over-approximate.
        trace::note_read(p);
        trace::note_write(p);
        let slot = self.slots[p.0];
        assert!(
            slot & EXT_TAG != 0,
            "place {} is simple; use tokens()/set_tokens() to access it",
            p.0
        );
        &mut self.arrays[(slot & !EXT_TAG) as usize]
    }

    /// Whether a place is marked: a simple place holding at least one
    /// token, or an extended place with any non-zero element. Works for
    /// both kinds, so callers iterating over every place (diagnostics,
    /// linting) need not branch on the declaration.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of bounds.
    #[inline]
    pub fn is_marked(&self, p: PlaceId) -> bool {
        trace::note_read(p);
        let slot = self.slots[p.0];
        if slot & EXT_TAG == 0 {
            slot > 0
        } else {
            self.arrays[(slot & !EXT_TAG) as usize]
                .iter()
                .any(|&v| v != 0)
        }
    }

    /// Total tokens across all simple places (diagnostic).
    pub fn total_tokens(&self) -> u64 {
        self.slots.iter().filter(|&&slot| slot & EXT_TAG == 0).sum()
    }

    /// Canonical 64-bit digest of the marking: FNV-1a over the place
    /// count, then per place a kind byte (0 simple, 1 extended) followed
    /// by the little-endian token count, or by the array length and
    /// elements.
    ///
    /// Unlike `Hash`, whose output depends on the hasher and its seed,
    /// the fingerprint is stable across processes and runs — suitable
    /// for state-set digests in reports and cross-run comparisons.
    /// Equal markings (per the canonical `Eq`) always have equal
    /// fingerprints; unequal markings collide only with ordinary
    /// 64-bit-hash probability.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn eat(h: u64, byte: u8) -> u64 {
            (h ^ u64::from(byte)).wrapping_mul(PRIME)
        }
        fn eat_u64(mut h: u64, v: u64) -> u64 {
            for byte in v.to_le_bytes() {
                h = eat(h, byte);
            }
            h
        }
        let mut h = eat_u64(OFFSET, self.slots.len() as u64);
        for &slot in &self.slots {
            if slot & EXT_TAG == 0 {
                h = eat(h, 0);
                h = eat_u64(h, slot);
            } else {
                let arr = &self.arrays[(slot & !EXT_TAG) as usize];
                h = eat(h, 1);
                h = eat_u64(h, arr.len() as u64);
                for &v in arr {
                    h = eat_u64(h, v as u64);
                }
            }
        }
        h
    }
}

impl Marking {
    /// Appends the canonical packed form of the marking to `out`: per
    /// place, in place order, a simple place's token count as an
    /// unsigned LEB128 varint, and each element of an extended place's
    /// fixed-length array as a zigzag varint.
    ///
    /// Lengths and place kinds are not written: they are fixed by the
    /// model, so among markings of one model the packed bytes are equal
    /// exactly when the markings are (per the canonical `Eq`). Every
    /// count and vehicle id of the paper's models is below 128, so a
    /// place costs one byte.
    pub fn pack_into(&self, out: &mut Vec<u8>) {
        for &slot in &self.slots {
            if slot & EXT_TAG == 0 {
                write_varint(out, slot);
            } else {
                for &v in &self.arrays[(slot & !EXT_TAG) as usize] {
                    write_varint(out, ((v << 1) ^ (v >> 63)) as u64);
                }
            }
        }
    }

    /// Overwrites `into` with the marking packed in `bytes` by
    /// [`pack_into`](Marking::pack_into). `into` supplies the shape —
    /// place kinds and array lengths — so it must be a marking of the
    /// model the bytes were packed from; its buffers are written in
    /// place, without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not the packed form of a marking of
    /// `into`'s shape: truncated, overlong, or holding an out-of-range
    /// token count.
    pub fn unpack_from(bytes: &[u8], into: &mut Marking) {
        let mut rest = bytes;
        for slot in &mut into.slots {
            if *slot & EXT_TAG == 0 {
                let n = read_varint(&mut rest);
                assert!(n < EXT_TAG, "token count overflow");
                *slot = n;
            } else {
                for v in &mut into.arrays[(*slot & !EXT_TAG) as usize] {
                    let z = read_varint(&mut rest);
                    *v = (z >> 1) as i64 ^ -((z & 1) as i64);
                }
            }
        }
        assert!(rest.is_empty(), "packed marking has trailing bytes");
    }
}

/// Appends `v` as an unsigned LEB128 varint: seven bits per byte, low
/// group first, the high bit set on every byte but the last.
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one varint written by [`write_varint`] off the front of
/// `bytes`.
fn read_varint(bytes: &mut &[u8]) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let (&b, rest) = bytes.split_first().expect("packed marking is truncated");
        *bytes = rest;
        assert!(shift < 64, "packed marking holds an overlong varint");
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Canonical equality: per-place semantic values in place order,
/// independent of how the extended-place side table happens to be laid
/// out. Markings of models with different place counts are simply
/// unequal.
impl PartialEq for Marking {
    fn eq(&self, other: &Self) -> bool {
        if self.slots.len() != other.slots.len() {
            return false;
        }
        self.slots.iter().zip(&other.slots).all(|(&a, &b)| {
            match (a & EXT_TAG == 0, b & EXT_TAG == 0) {
                (true, true) => a == b,
                (false, false) => {
                    self.arrays[(a & !EXT_TAG) as usize] == other.arrays[(b & !EXT_TAG) as usize]
                }
                // A simple place can never equal an extended one, even
                // when the raw slot bits happen to match.
                _ => false,
            }
        })
    }
}

impl Eq for Marking {}

/// Canonical hash, consistent with the canonical `PartialEq`: folds
/// each place's semantic value (token count, or array length and
/// elements) in place order into one `u64` with an Fx-style
/// rotate-xor-multiply step, and feeds the hasher that single word.
/// Internal side-table indices never enter the fold, so equal markings
/// hash equal regardless of construction order.
///
/// The hasher sees one `write_u64` per marking, so a 50-place marking
/// costs ~50 multiplies plus one hasher round; the hasher still mixes
/// the folded word with its own seeded function.
impl Hash for Marking {
    fn hash<H: Hasher>(&self, state: &mut H) {
        const MUL: u64 = 0x517c_c1b7_2722_0a95;
        fn fold(h: u64, v: u64) -> u64 {
            (h.rotate_left(5) ^ v).wrapping_mul(MUL)
        }
        let mut h = 0;
        for &slot in &self.slots {
            if slot & EXT_TAG == 0 {
                h = fold(h, slot);
            } else {
                let arr = &self.arrays[(slot & !EXT_TAG) as usize];
                h = fold(h, arr.len() as u64);
                for &v in arr {
                    h = fold(h, v as u64);
                }
            }
        }
        state.write_u64(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decls() -> Vec<PlaceDecl> {
        vec![
            PlaceDecl {
                name: "p".into(),
                kind: PlaceKind::Simple,
                initial_tokens: 2,
                initial_array: vec![],
            },
            PlaceDecl {
                name: "arr".into(),
                kind: PlaceKind::Extended { len: 3 },
                initial_tokens: 0,
                initial_array: vec![1, -2, 3],
            },
        ]
    }

    #[test]
    fn initial_marking_reflects_decls() {
        let m = Marking::from_decls(&decls());
        assert_eq!(m.len(), 2);
        assert_eq!(m.tokens(PlaceId(0)), 2);
        assert_eq!(m.array(PlaceId(1)), &[1, -2, 3]);
        assert_eq!(m.total_tokens(), 2);
    }

    #[test]
    fn token_arithmetic() {
        let mut m = Marking::from_decls(&decls());
        m.add_tokens(PlaceId(0), 3);
        assert_eq!(m.tokens(PlaceId(0)), 5);
        m.remove_tokens(PlaceId(0), 5);
        assert!(!m.is_marked(PlaceId(0)));
    }

    #[test]
    #[should_panic(expected = "cannot remove")]
    fn underflow_panics() {
        let mut m = Marking::from_decls(&decls());
        m.remove_tokens(PlaceId(0), 3);
    }

    #[test]
    #[should_panic(expected = "is extended")]
    fn kind_mismatch_panics() {
        let m = Marking::from_decls(&decls());
        let _ = m.tokens(PlaceId(1));
    }

    #[test]
    #[should_panic(expected = "token count overflow")]
    fn token_overflow_panics() {
        let mut m = Marking::from_decls(&decls());
        m.set_tokens(PlaceId(0), u64::MAX / 2 + 1);
    }

    #[test]
    fn value_reports_both_kinds() {
        let m = Marking::from_decls(&decls());
        assert_eq!(m.value(PlaceId(0)), PlaceValue::Tokens(2));
        assert_eq!(m.value(PlaceId(1)), PlaceValue::Array(vec![1, -2, 3]));
    }

    #[test]
    fn is_marked_works_for_both_place_kinds() {
        let mut m = Marking::from_decls(&decls());
        assert!(m.is_marked(PlaceId(0)));
        assert!(m.is_marked(PlaceId(1)));
        m.set_tokens(PlaceId(0), 0);
        assert!(!m.is_marked(PlaceId(0)));
        for v in m.array_mut(PlaceId(1)) {
            *v = 0;
        }
        assert!(!m.is_marked(PlaceId(1)));
    }

    #[test]
    fn array_mutation() {
        let mut m = Marking::from_decls(&decls());
        m.array_mut(PlaceId(1))[0] = 42;
        assert_eq!(m.array(PlaceId(1)), &[42, -2, 3]);
    }

    fn std_hash(m: &Marking) -> u64 {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let mut h = DefaultHasher::new();
        m.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equality_and_hash_ignore_side_table_layout() {
        // Two extended places whose side-table rows are permuted between
        // the two markings: semantically identical, internally distinct.
        let a = Marking {
            slots: vec![7, EXT_TAG, EXT_TAG | 1],
            arrays: vec![vec![1, 2], vec![3, 4]],
        };
        let b = Marking {
            slots: vec![7, EXT_TAG | 1, EXT_TAG],
            arrays: vec![vec![3, 4], vec![1, 2]],
        };
        assert_eq!(a, b);
        assert_eq!(std_hash(&a), std_hash(&b));
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    fn packed(m: &Marking) -> Vec<u8> {
        let mut out = Vec::new();
        m.pack_into(&mut out);
        out
    }

    #[test]
    fn packed_form_is_canonical_across_side_table_layouts() {
        let a = Marking {
            slots: vec![7, EXT_TAG, EXT_TAG | 1],
            arrays: vec![vec![1, -2], vec![3, i64::MIN]],
        };
        let b = Marking {
            slots: vec![7, EXT_TAG | 1, EXT_TAG],
            arrays: vec![vec![3, i64::MIN], vec![1, -2]],
        };
        assert_eq!(packed(&a), packed(&b));
        // Unpacking into either layout reproduces the marking.
        let mut into = b.clone();
        into.arrays[0][0] = 0;
        Marking::unpack_from(&packed(&a), &mut into);
        assert_eq!(into, a);
        assert_eq!(into.slots, b.slots, "the target keeps its own layout");
    }

    #[test]
    fn packed_form_round_trips_boundary_values() {
        let mut m = Marking::from_decls(&decls());
        let mut scratch = m.clone();
        for n in [0, 1, 127, 128, 16_383, 16_384, EXT_TAG - 1] {
            for v in [0, -1, 63, -64, 64, i64::MAX, i64::MIN] {
                m.set_tokens(PlaceId(0), n);
                m.array_mut(PlaceId(1))[1] = v;
                let bytes = packed(&m);
                Marking::unpack_from(&bytes, &mut scratch);
                assert_eq!(scratch, m, "tokens {n}, element {v}");
            }
        }
        m.set_tokens(PlaceId(0), 127);
        m.array_mut(PlaceId(1)).copy_from_slice(&[0, -1, 1]);
        assert_eq!(packed(&m), [127, 0, 1, 2]);
        m.set_tokens(PlaceId(0), 128);
        assert_eq!(packed(&m), [0x80, 0x01, 0, 1, 2]);
        m.set_tokens(PlaceId(0), EXT_TAG - 1);
        assert_eq!(packed(&m).len(), 9 + 3);
    }

    #[test]
    #[should_panic(expected = "trailing bytes")]
    fn unpack_rejects_trailing_bytes() {
        let m = Marking::from_decls(&decls());
        let mut bytes = packed(&m);
        bytes.push(0);
        Marking::unpack_from(&bytes, &mut m.clone());
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn unpack_rejects_truncated_bytes() {
        let m = Marking::from_decls(&decls());
        let bytes = packed(&m);
        Marking::unpack_from(&bytes[..bytes.len() - 1], &mut m.clone());
    }

    #[test]
    fn simple_and_extended_places_never_compare_equal() {
        // Raw slot bits collide (both are EXT_TAG as a bit pattern would
        // be illegal for simple, so use index 0 vs tokens 0): a simple
        // place holding 0 tokens vs an extended place whose row is [].
        let simple = Marking {
            slots: vec![0],
            arrays: vec![],
        };
        let ext = Marking {
            slots: vec![EXT_TAG],
            arrays: vec![vec![]],
        };
        assert_ne!(simple, ext);
    }

    #[test]
    fn fingerprint_is_stable_and_separates_values() {
        let m = Marking::from_decls(&decls());
        let mut n = m.clone();
        assert_eq!(m.fingerprint(), n.fingerprint());
        n.set_tokens(PlaceId(0), 3);
        assert_ne!(m.fingerprint(), n.fingerprint());
        n.set_tokens(PlaceId(0), 2);
        assert_eq!(m.fingerprint(), n.fingerprint());
        n.array_mut(PlaceId(1))[2] = -3;
        assert_ne!(m.fingerprint(), n.fingerprint());
    }

    #[test]
    fn clone_from_reuses_buffers_and_copies_values() {
        let src = Marking::from_decls(&decls());
        let mut dst = src.clone();
        dst.set_tokens(PlaceId(0), 9);
        dst.array_mut(PlaceId(1))[1] = 5;
        let (slots, row) = (dst.slots.as_ptr(), dst.arrays[0].as_ptr());
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.array(PlaceId(1)), &[1, -2, 3]);
        assert_eq!(dst.slots.as_ptr(), slots);
        assert_eq!(dst.arrays[0].as_ptr(), row);
    }

    #[test]
    fn markings_hash_and_compare() {
        use std::collections::HashSet;
        let a = Marking::from_decls(&decls());
        let mut b = a.clone();
        assert_eq!(a, b);
        b.set_tokens(PlaceId(0), 99);
        assert_ne!(a, b);
        let mut set = HashSet::new();
        set.insert(a.clone());
        set.insert(b.clone());
        set.insert(a.clone());
        assert_eq!(set.len(), 2);
    }
}
