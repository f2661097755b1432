//! Property test of the packed interner against a `HashMap` reference:
//! interning a stream of markings numbers them in first-seen order,
//! finds every one again, and decodes each back to the marking it
//! stored.

use std::collections::HashMap;

use ahs_ctmc::Interner;
use ahs_san::{Delay, Marking, PlaceId, SanBuilder, SanModel};
use proptest::prelude::*;

/// Two simple places and one extended place of length 2.
fn model() -> (SanModel, [PlaceId; 3]) {
    let mut b = SanBuilder::new("interner");
    let p = b.place("p").unwrap();
    let q = b.place("q").unwrap();
    let x = b.extended_place("x", 2).unwrap();
    b.timed_activity("tick", Delay::exponential(1.0))
        .unwrap()
        .input_place(p)
        .output_place(p)
        .build()
        .unwrap();
    (b.build().unwrap(), [p, q, x])
}

proptest! {
    #[test]
    fn numbers_like_a_first_seen_map(
        values in prop::collection::vec((0u64..4, 126u64..130, -2i64..2), 1..200),
    ) {
        let (model, [p, q, x]) = model();
        let mut interner: Interner<Marking> = Interner::new();
        let mut reference: HashMap<Marking, usize> = HashMap::new();
        let mut m = model.initial_marking().clone();
        for &(a, b, c) in &values {
            m.set_tokens(p, a);
            m.set_tokens(q, b);
            m.array_mut(x)[usize::from(c < 0)] = c;
            let next = reference.len();
            let want = *reference.entry(m.clone()).or_insert(next);
            prop_assert_eq!(interner.intern(&m, usize::MAX), Ok(Some(want)));
        }
        prop_assert_eq!(interner.len(), reference.len());
        for (m, &i) in &reference {
            prop_assert_eq!(interner.index_of(m), Some(i));
            prop_assert_eq!(&interner.get(i), m);
        }
    }
}
