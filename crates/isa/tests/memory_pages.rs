//! Properties of copy-on-write memory pages: clones never observe each
//! other's writes, page-crossing accesses agree with a byte-map model,
//! and equality means "every address reads the same" — exactly when the
//! digests agree.

use std::collections::BTreeMap;

use avf_isa::{Memory, PAGE_BYTES};
use proptest::collection::vec;
use proptest::prelude::*;

/// Edits land in the first few pages, so clones and bases overlap.
const SPAN: u64 = 6 * PAGE_BYTES as u64;

/// One write: a start address and its bytes (mostly small values, so
/// zeroes are common).
fn edit() -> impl Strategy<Value = (u64, Vec<u8>)> {
    (0..SPAN, vec(0u8..3, 1..(2 * PAGE_BYTES + 40)))
}

/// A sparse edit: a few bytes somewhere in the span.
fn sparse() -> impl Strategy<Value = (u64, Vec<u8>)> {
    (0..SPAN, vec(0u8..3, 1..12))
}

type Model = BTreeMap<u64, u8>;

fn apply(mem: &mut Memory, model: &mut Model, edits: &[(u64, Vec<u8>)]) {
    for (addr, bytes) in edits {
        mem.write_bytes(*addr, bytes);
        for (i, &b) in bytes.iter().enumerate() {
            model.insert(addr + i as u64, b);
        }
    }
}

/// Whether `mem` reads as `model` over `[from, to)`.
fn reads_as(mem: &Memory, model: &Model, from: u64, to: u64) -> bool {
    let mut buf = vec![0u8; (to - from) as usize];
    mem.read_bytes(from, &mut buf);
    buf.iter()
        .enumerate()
        .all(|(i, &b)| b == model.get(&(from + i as u64)).copied().unwrap_or(0))
}

/// The model's semantic content: addresses that read non-zero.
fn nonzero(model: &Model) -> Model {
    model
        .iter()
        .filter(|(_, &b)| b != 0)
        .map(|(&a, &b)| (a, b))
        .collect()
}

proptest! {
    #[test]
    fn clones_never_see_each_others_writes(
        base in vec(edit(), 0..4),
        ours in vec(edit(), 1..4),
        theirs in vec(edit(), 1..4),
    ) {
        let (mut original, mut model) = (Memory::new(), Model::new());
        apply(&mut original, &mut model, &base);
        let mut clone = original.clone();
        let mut clone_model = model.clone();
        apply(&mut clone, &mut clone_model, &ours);
        prop_assert!(reads_as(&original, &model, 0, SPAN + 3 * PAGE_BYTES as u64));
        apply(&mut original, &mut model, &theirs);
        prop_assert!(reads_as(&clone, &clone_model, 0, SPAN + 3 * PAGE_BYTES as u64));
        prop_assert!(reads_as(&original, &model, 0, SPAN + 3 * PAGE_BYTES as u64));
        // `clone_from` rewinds to the source, sharing its pages again.
        clone.clone_from(&original);
        prop_assert!(clone == original);
        let ids = |m: &Memory| {
            let mut ids: Vec<usize> = m.page_identities().collect();
            ids.sort_unstable();
            ids
        };
        prop_assert_eq!(ids(&clone), ids(&original));
    }

    #[test]
    fn page_crossing_accesses_agree_with_a_byte_map(
        edits in vec(edit(), 1..6),
        reads in vec((0..SPAN, 1usize..(3 * PAGE_BYTES)), 1..6),
    ) {
        let (mut mem, mut model) = (Memory::new(), Model::new());
        apply(&mut mem, &mut model, &edits);
        for (addr, len) in reads {
            prop_assert!(reads_as(&mem, &model, addr, addr + len as u64));
        }
        for &addr in model.keys() {
            prop_assert_eq!(mem.read_u8(addr), model[&addr]);
        }
    }

    #[test]
    fn equality_holds_exactly_when_digests_agree(
        base in vec(edit(), 0..3),
        shared in vec(sparse(), 0..4),
        extra in vec(sparse(), 0..3),
        diverge in 0u8..2,
        fresh in (0u64..4, 0u64..(PAGE_BYTES as u64 - 64), 1usize..64),
    ) {
        let (mut a, mut model_a) = (Memory::new(), Model::new());
        apply(&mut a, &mut model_a, &base);
        let (mut b, mut model_b) = (a.clone(), model_a.clone());
        apply(&mut a, &mut model_a, &shared);
        apply(&mut b, &mut model_b, &shared);
        if diverge == 1 {
            apply(&mut b, &mut model_b, &extra);
        }
        // Zeroes written to a page neither side had: resident, yet
        // reads exactly as the missing page on the other side.
        let (page, off, len) = fresh;
        let zeroes = [(SPAN + 8 * PAGE_BYTES as u64 + page * PAGE_BYTES as u64 + off, vec![0; len])];
        apply(&mut b, &mut model_b, &zeroes);
        let same = nonzero(&model_a) == nonzero(&model_b);
        prop_assert_eq!(a == b, same);
        prop_assert_eq!(b == a, same);
        prop_assert_eq!(a.digest() == b.digest(), same);
    }
}
