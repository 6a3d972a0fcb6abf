//! Copy-on-write relations: clones of a relation (and so of a database)
//! share one store until one of them edits.
//!
//! * under random interleavings of edits, probes, eager builds and clones,
//!   every holder reads exactly what a relation freshly built from its own
//!   tuples reads, and its epoch moves once per effective edit;
//! * a no-op edit leaves a clone sharing its source's store;
//! * a lazy index build by one holder serves every holder, counted once;
//! * concurrent first reads through two clones agree.

use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use qoco::data::{tup, Relation, Tuple, Value};
use qoco::telemetry::{self, InMemoryCollector, SessionGuard};

/// Every test here holds the telemetry session: `eval.index_rebuilds` is
/// process-wide, so tests running side by side would mix their counts.
fn serial() -> SessionGuard {
    telemetry::session(Arc::new(InMemoryCollector::new()))
}

fn rebuilds() -> u64 {
    telemetry::metrics()
        .snapshot()
        .counter("eval.index_rebuilds")
}

/// Values the generated tuples draw from, per column; churn tuples use
/// first-column values from `CHURN_BASE` on.
const A_VALUES: i64 = 12;
const B_VALUES: i64 = 4;
const CHURN_BASE: i64 = 1000;
/// Enough insert-then-remove churn to push a relation over the
/// compaction threshold (more than 64 tombstones, more than live tuples).
const CHURN: i64 = 150;

fn posting_tuples(rel: &Relation, col: usize, v: &Value) -> Vec<Tuple> {
    rel.posting(col, v)
        .iter()
        .map(|&id| rel.tuple(id).clone())
        .collect()
}

/// Compare `rel` with a relation freshly built from `model`. Reads go
/// through a private copy of `rel`'s store, which takes along the cells
/// `rel` has built (and maintained), so the cells the reads build never
/// reach `rel` and the next step still sees `rel`'s cells as built or
/// unbuilt as they were.
fn check(rel: &Relation, model: &BTreeSet<Tuple>) -> Result<(), TestCaseError> {
    let mut copy = rel.clone();
    copy.unshare();
    let mut fresh = Relation::new(2);
    for t in model {
        fresh.insert(t.clone());
    }
    prop_assert_eq!(copy.len(), fresh.len());
    prop_assert_eq!(copy.sorted(), fresh.sorted());
    prop_assert_eq!(copy.sorted(), model.iter().cloned().collect::<Vec<_>>());
    for col in 0..2 {
        prop_assert_eq!(copy.distinct_in_column(col), fresh.distinct_in_column(col));
    }
    let firsts = (0..A_VALUES).chain(CHURN_BASE..CHURN_BASE + CHURN);
    for (col, values) in [
        (0, firsts.collect::<Vec<_>>()),
        (1, (0..B_VALUES).collect()),
    ] {
        for v in values.into_iter().map(Value::int) {
            prop_assert_eq!(
                posting_tuples(&copy, col, &v),
                posting_tuples(&fresh, col, &v),
                "posting for column {} value {:?}",
                col,
                v
            );
        }
    }
    Ok(())
}

/// One step: `(kind, slot, a, b, col)`.
type Op = (usize, usize, i64, i64, usize);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0..8usize, 0..3usize, 0..A_VALUES, 0..B_VALUES, 0..2usize),
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn clones_read_like_relations_built_from_their_own_tuples(
        initial in proptest::collection::vec((0..A_VALUES, 0..B_VALUES), 0..30),
        steps in ops(),
    ) {
        let _serial = serial();
        let mut source = Relation::new(2);
        for &(a, b) in &initial {
            source.insert(tup![a, b]);
        }
        let model: BTreeSet<Tuple> = source.iter().cloned().collect();
        // slot 0 is the source, slots 1 and 2 its clones
        let mut rels = [source.clone(), source.clone(), source];
        let mut models = [model.clone(), model.clone(), model];
        let mut epochs = [rels[0].epoch(); 3];
        for (kind, slot, a, b, col) in steps {
            let t = tup![a, b];
            match kind {
                0 | 1 => {
                    let changed = rels[slot].insert(t.clone());
                    prop_assert_eq!(changed, models[slot].insert(t));
                    epochs[slot] += u64::from(changed);
                }
                2 | 3 => {
                    let changed = rels[slot].remove(&t);
                    prop_assert_eq!(changed, models[slot].remove(&t));
                    epochs[slot] += u64::from(changed);
                }
                4 => {
                    // a probe builds its column (and the sorted ids) in
                    // whatever store the slot holds, shared or not
                    let v = t.values()[col].clone();
                    let want: Vec<Tuple> = models[slot]
                        .iter()
                        .filter(|m| m.values()[col] == v)
                        .cloned()
                        .collect();
                    prop_assert_eq!(posting_tuples(&rels[slot], col, &v), want);
                }
                5 => rels[slot].ensure_indexes(),
                6 => {
                    let to = (slot + 1 + (a as usize % 2)) % 3;
                    rels[to] = rels[slot].clone();
                    models[to] = models[slot].clone();
                    epochs[to] = epochs[slot];
                }
                _ => {
                    for k in 0..CHURN {
                        prop_assert!(rels[slot].insert(tup![CHURN_BASE + k, k % B_VALUES]));
                    }
                    for k in 0..CHURN {
                        prop_assert!(rels[slot].remove(&tup![CHURN_BASE + k, k % B_VALUES]));
                    }
                    epochs[slot] += 2 * CHURN as u64;
                }
            }
            for i in 0..3 {
                prop_assert_eq!(rels[i].epoch(), epochs[i], "epoch of slot {}", i);
                check(&rels[i], &models[i])?;
            }
        }
    }
}

#[test]
fn a_no_op_edit_leaves_a_clone_sharing_its_source() {
    let _serial = serial();
    let source: Relation = (0..20i64).map(|i| tup![i, i % 3]).collect();
    let mut clone = source.clone();
    let epoch = clone.epoch();
    assert!(!clone.insert(tup![4i64, 1i64]), "present: a no-op");
    assert!(!clone.remove(&tup![99i64, 0i64]), "absent: a no-op");
    assert_eq!(clone.epoch(), epoch);
    // still one store: the source's builds serve the clone
    let before = rebuilds();
    source.ensure_indexes();
    assert_eq!(rebuilds() - before, 2, "one build per column");
    assert_eq!(clone.distinct_in_column(0), 20);
    assert_eq!(clone.distinct_in_column(1), 3);
    assert_eq!(rebuilds() - before, 2, "the clone built nothing");
}

#[test]
fn one_clones_index_build_serves_its_source_and_is_counted_once() {
    let _serial = serial();
    let source: Relation = (0..50i64).map(|i| tup![i, i % 5]).collect();
    let clones = [source.clone(), source.clone()];
    let before = rebuilds();
    assert_eq!(clones[0].probe(1, &Value::int(2)).len(), 10);
    assert_eq!(rebuilds() - before, 1);
    assert_eq!(source.posting_len(1, &Value::int(2)), 10);
    assert_eq!(clones[1].distinct_in_column(1), 5);
    assert_eq!(rebuilds() - before, 1, "one build for three holders");
    // an edit copies the built cell along and keeps it maintained
    let mut edited = clones[0].clone();
    assert!(edited.insert(tup![50i64, 2i64]));
    assert_eq!(edited.posting_len(1, &Value::int(2)), 11);
    assert_eq!(source.posting_len(1, &Value::int(2)), 10);
    assert_eq!(
        rebuilds() - before,
        1,
        "the copy is maintained, not rebuilt"
    );
}

#[test]
fn concurrent_first_reads_through_two_clones_agree() {
    let _serial = serial();
    let source: Relation = (0..5000i64).map(|i| tup![i, i % 17]).collect();
    let (a, b) = (source.clone(), source.clone());
    let postings = |rel: &Relation| -> Vec<Vec<Tuple>> {
        (0..17i64)
            .map(|v| posting_tuples(rel, 1, &Value::int(v)))
            .collect()
    };
    let before = rebuilds();
    let start = Barrier::new(2);
    let (pa, pb) = std::thread::scope(|s| {
        let ha = s.spawn(|| {
            start.wait();
            postings(&a)
        });
        let hb = s.spawn(|| {
            start.wait();
            postings(&b)
        });
        (ha.join().unwrap(), hb.join().unwrap())
    });
    assert_eq!(pa, pb);
    assert_eq!(rebuilds() - before, 1, "one build for both readers");
    let fresh: Relation = source.iter().cloned().collect();
    assert_eq!(pa, postings(&fresh));
}
