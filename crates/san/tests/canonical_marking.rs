//! Property tests of the canonical `Marking` equality/hash contract:
//! markings reaching the same per-place values through different
//! construction orders must compare equal, hash equal under `std`
//! hashers, and produce identical stable fingerprints. The packed form
//! (`pack_into` / `unpack_from`) must round-trip and be byte-equal
//! exactly when the markings are equal.

use std::hash::{DefaultHasher, Hash, Hasher};

use ahs_san::{Delay, Marking, PlaceId, SanBuilder, SanModel};
use proptest::prelude::*;

const SIMPLE: usize = 4;
const EXT: usize = 2;
const EXT_LEN: usize = 3;

/// A small model with `SIMPLE` simple places and `EXT` extended places,
/// plus the handle vectors needed to address them from outside the
/// crate.
fn model() -> (SanModel, Vec<PlaceId>, Vec<PlaceId>) {
    let mut b = SanBuilder::new("canonical");
    let simple: Vec<PlaceId> = (0..SIMPLE)
        .map(|i| b.place(&format!("p{i}")).unwrap())
        .collect();
    let ext: Vec<PlaceId> = (0..EXT)
        .map(|i| b.extended_place(&format!("x{i}"), EXT_LEN).unwrap())
        .collect();
    // The builder rejects activity-free models; the tests only mutate
    // markings directly, so any activity will do.
    b.timed_activity("tick", Delay::exponential(1.0))
        .unwrap()
        .input_place(simple[0])
        .output_place(simple[0])
        .build()
        .unwrap();
    (b.build().unwrap(), simple, ext)
}

/// One write against a marking; a sequence of these is a construction
/// order.
#[derive(Debug, Clone)]
enum Op {
    SetTokens { place: usize, n: u64 },
    SetCell { place: usize, idx: usize, v: i64 },
}

fn apply(m: &mut Marking, simple: &[PlaceId], ext: &[PlaceId], op: &Op) {
    match *op {
        Op::SetTokens { place, n } => m.set_tokens(simple[place], n),
        Op::SetCell { place, idx, v } => m.array_mut(ext[place])[idx] = v,
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..SIMPLE, 0u64..100).prop_map(|(place, n)| Op::SetTokens { place, n }),
        (0..EXT, 0..EXT_LEN, -50i64..50).prop_map(|(place, idx, v)| Op::SetCell { place, idx, v }),
    ]
}

/// Writes that reach the varint boundaries: token counts 0, 127, 128
/// and the largest count, negative and extreme array entries.
fn wide_op_strategy() -> impl Strategy<Value = Op> {
    let tokens = prop_oneof![
        Just(0u64),
        Just(127u64),
        Just(128u64),
        Just(u64::MAX >> 1),
        0u64..300,
    ];
    let cells = prop_oneof![
        Just(i64::MIN),
        Just(i64::MAX),
        Just(-1i64),
        Just(-64i64),
        Just(64i64),
        -200i64..200,
    ];
    prop_oneof![
        (0..SIMPLE, tokens).prop_map(|(place, n)| Op::SetTokens { place, n }),
        (0..EXT, 0..EXT_LEN, cells).prop_map(|(place, idx, v)| Op::SetCell { place, idx, v }),
    ]
}

fn packed(m: &Marking) -> Vec<u8> {
    let mut out = Vec::new();
    m.pack_into(&mut out);
    out
}

fn std_hash(m: &Marking) -> u64 {
    let mut h = DefaultHasher::new();
    m.hash(&mut h);
    h.finish()
}

/// The canonical per-place values, independent of representation.
fn canonical(m: &Marking, model: &SanModel) -> Vec<ahs_san::PlaceValue> {
    model.place_ids().map(|p| m.value(p)).collect()
}

proptest! {
    /// Applying the same ops in two different interleavings yields
    /// markings that agree on values iff they agree on Eq/Hash/
    /// fingerprint.
    #[test]
    fn construction_order_is_irrelevant(
        ops in prop::collection::vec(op_strategy(), 0..24),
        shuffle_seed in any::<u64>(),
    ) {
        let (model, simple, ext) = model();
        let mut a = model.initial_marking().clone();
        for op in &ops {
            apply(&mut a, &simple, &ext, op);
        }
        // A deterministic pseudo-shuffle of the op order. Later writes
        // to the same cell win, so only reorderings that preserve the
        // final value per cell are expected to compare equal — we check
        // against the canonical value vector rather than assuming.
        let mut shuffled = ops.clone();
        let mut s = shuffle_seed;
        for i in (1..shuffled.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (s >> 33) as usize % (i + 1));
        }
        let mut b = model.initial_marking().clone();
        for op in &shuffled {
            apply(&mut b, &simple, &ext, op);
        }
        if canonical(&a, &model) == canonical(&b, &model) {
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(std_hash(&a), std_hash(&b));
            prop_assert_eq!(a.fingerprint(), b.fingerprint());
        } else {
            prop_assert_ne!(&a, &b);
        }
    }

    /// Eq implies hash-equal and fingerprint-equal (replay identical
    /// writes against two fresh markings — always equal).
    #[test]
    fn equal_markings_hash_equal(ops in prop::collection::vec(op_strategy(), 0..24)) {
        let (model, simple, ext) = model();
        let mut a = model.initial_marking().clone();
        let mut b = model.initial_marking().clone();
        for op in &ops {
            apply(&mut a, &simple, &ext, op);
            apply(&mut b, &simple, &ext, op);
        }
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(std_hash(&a), std_hash(&b));
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
    }

    /// A single diverging write breaks equality and the fingerprint.
    #[test]
    fn diverging_write_breaks_equality(
        ops in prop::collection::vec(op_strategy(), 0..12),
        place in 0..SIMPLE,
    ) {
        let (model, simple, ext) = model();
        let mut a = model.initial_marking().clone();
        let mut b = model.initial_marking().clone();
        for op in &ops {
            apply(&mut a, &simple, &ext, op);
            apply(&mut b, &simple, &ext, op);
        }
        let bumped = a.tokens(simple[place]) + 1;
        b.set_tokens(simple[place], bumped);
        prop_assert_ne!(&a, &b);
        prop_assert_ne!(a.fingerprint(), b.fingerprint());
    }

    /// Packing and unpacking into a scratch marking of the same model
    /// reproduces the marking, whatever the scratch held before.
    #[test]
    fn packed_form_round_trips(
        ops in prop::collection::vec(wide_op_strategy(), 0..24),
        junk in prop::collection::vec(wide_op_strategy(), 0..8),
    ) {
        let (model, simple, ext) = model();
        let mut m = model.initial_marking().clone();
        for op in &ops {
            apply(&mut m, &simple, &ext, op);
        }
        let mut scratch = model.initial_marking().clone();
        for op in &junk {
            apply(&mut scratch, &simple, &ext, op);
        }
        Marking::unpack_from(&packed(&m), &mut scratch);
        prop_assert_eq!(&scratch, &m);
        prop_assert_eq!(canonical(&scratch, &model), canonical(&m, &model));
    }

    /// Two markings of one model pack to equal bytes exactly when they
    /// compare equal.
    #[test]
    fn packed_bytes_are_equal_iff_markings_are(
        a_ops in prop::collection::vec(wide_op_strategy(), 0..16),
        b_ops in prop::collection::vec(wide_op_strategy(), 0..16),
        shared in prop::collection::vec(wide_op_strategy(), 0..16),
    ) {
        let (model, simple, ext) = model();
        let mut a = model.initial_marking().clone();
        let mut b = model.initial_marking().clone();
        // A common prefix, then each side's own writes: often equal,
        // often not.
        for op in &shared {
            apply(&mut a, &simple, &ext, op);
            apply(&mut b, &simple, &ext, op);
        }
        for op in &a_ops {
            apply(&mut a, &simple, &ext, op);
        }
        for op in &b_ops {
            apply(&mut b, &simple, &ext, op);
        }
        prop_assert_eq!(packed(&a) == packed(&b), a == b);
        // The replayed side is equal by construction.
        let mut c = model.initial_marking().clone();
        for op in shared.iter().chain(&a_ops) {
            apply(&mut c, &simple, &ext, op);
        }
        prop_assert_eq!(packed(&a), packed(&c));
    }
}
