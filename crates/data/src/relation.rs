//! Indexed in-memory relations.
//!
//! A [`Relation`] stores its tuples in an append-only **arena** and serves
//! the query engine through per-column **posting lists** of [`TupleId`]s.
//! Posting lists are kept *pre-sorted by tuple order*, so the engine's
//! backtracking join consumes them directly — no per-probe clone, no
//! per-descend sort. Indexes are built lazily behind [`std::sync::OnceLock`]
//! cells, which makes [`Relation::probe`] a shared-borrow (`&self`)
//! operation: evaluation never needs a mutable borrow, and a `&Database`
//! stays `Sync`.
//!
//! Every mutation bumps an **edit epoch**. Index cells that are already
//! built are maintained *in place* — a single insert or delete touches one
//! slot of the sorted-id list and one posting per built column index
//! (binary search by tuple order), so an edit costs O(log n) per index
//! instead of an O(n) rebuild on the next read. This is what makes the
//! engine's incremental materialized views cheap: without it every
//! post-edit delta probe would pay a full index rebuild. Unbuilt cells stay
//! unbuilt. Deletions tombstone arena slots; when tombstones outnumber
//! live tuples the arena compacts and *then* the cells reset, because
//! compaction reassigns `TupleId`s (safe: the engine never holds ids
//! across an edit).
//!
//! Relations are **copy-on-write**. The arena, membership map, epoch and
//! index cells live in one store behind an `Arc`, so cloning a relation
//! copies a pointer (and cloning a [`Database`](crate::Database) one per
//! relation). Holders of a shared store see identical state, so a lazy
//! index build by any of them serves all of them. The first effective
//! edit through a holder copies the store for that holder alone, taking
//! along the cells already built and building none; a no-op edit
//! (inserting a present tuple, removing an absent one) never copies. The
//! `eval.index_rebuilds` counter therefore counts builds actually
//! performed: one per built cell of a store, not one per clone. A holder
//! that knows it will edit can take its copy earlier, at a time of its
//! choosing, with [`Relation::unshare`].

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::tuple::Tuple;
use crate::value::Value;

/// A handle to a tuple slot in a relation's arena.
///
/// Valid only until the next mutation of the owning relation: edits may
/// tombstone or compact slots. Resolve with [`Relation::tuple`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleId(u32);

impl TupleId {
    /// The arena slot index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A set of tuples of a fixed arity backed by a tuple arena with pre-sorted
/// per-column posting lists. `Clone` is O(1): clones share one store until
/// one of them edits (see the module docs).
#[derive(Debug, Default, Clone)]
pub struct Relation {
    store: Arc<Store>,
    arity: usize,
}

/// Everything a [`Relation`] holds, shared between clones until an edit.
#[derive(Debug, Default, Clone)]
struct Store {
    /// Tuple arena; `live[i]` distinguishes live slots from tombstones.
    arena: Vec<Tuple>,
    live: Vec<bool>,
    /// Membership and dedup: tuple → its live arena slot. `Tuple` clones are
    /// O(1) (`Arc` payload), so the key adds no deep copy.
    ids: HashMap<Tuple, TupleId>,
    live_count: usize,
    /// Bumped on every effective mutation; see [`Relation::epoch`].
    epoch: u64,
    /// Live ids sorted by tuple order. Built on first read, then maintained
    /// in place by edits; reset only by compaction.
    sorted_ids: OnceLock<Vec<TupleId>>,
    /// `indexes[col][value]` = ids of live tuples whose `col`-th value is
    /// `value`, in tuple-sorted order. Each column is built on its first
    /// read, then maintained in place by edits; reset only by compaction.
    indexes: Vec<OnceLock<HashMap<Value, Vec<TupleId>>>>,
}

impl Relation {
    /// Create an empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            store: Arc::new(Store {
                indexes: (0..arity).map(|_| OnceLock::new()).collect(),
                ..Store::default()
            }),
            arity,
        }
    }

    /// The declared arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of (live) tuples.
    pub fn len(&self) -> usize {
        self.store.live_count
    }

    /// True if the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.store.live_count == 0
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.store.ids.contains_key(t)
    }

    /// The edit epoch: bumped on every effective insert/remove. Readers can
    /// cache derived state keyed by `(relation, epoch)` and know it is
    /// stale exactly when the epoch moved.
    pub fn epoch(&self) -> u64 {
        self.store.epoch
    }

    /// Insert a tuple. Returns `true` if the relation changed
    /// (idempotent-edit semantics of Section 3.1).
    ///
    /// # Panics
    /// Panics if the tuple's arity differs from the relation's; arity is
    /// validated at the [`Database`](crate::Database) boundary, so a
    /// mismatch here is a logic error.
    pub fn insert(&mut self, t: Tuple) -> bool {
        assert_eq!(
            t.arity(),
            self.arity,
            "tuple arity must match relation arity"
        );
        self.store_for(&t, true)
            .is_some_and(|store| store.insert(t))
    }

    /// Reserve room for `additional` more tuples in the arena, the live
    /// bitmap and the membership map, so a bulk load grows each once. A
    /// hint only: a shared store is left as it is.
    pub fn reserve(&mut self, additional: usize) {
        if let Some(store) = Arc::get_mut(&mut self.store) {
            store.arena.reserve(additional);
            store.live.reserve(additional);
            store.ids.reserve(additional);
        }
    }

    /// Remove a tuple. Returns `true` if the relation changed.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        self.store_for(t, false)
            .is_some_and(|store| store.remove(t))
    }

    /// Take this relation's store for it alone now: copy it if it is
    /// shared, with the cells already built, so no later edit copies.
    /// Contents, epoch and built cells are unchanged. For callers that
    /// know they will edit and would rather pay the copy up front.
    pub fn unshare(&mut self) {
        Arc::make_mut(&mut self.store);
    }

    /// The store an edit of `t` writes to, or `None` if the edit is a
    /// no-op on a shared store: `t` is present and `present_is_noop`
    /// (an insert), or absent and not (a remove). A unique store (every
    /// bulk load) is returned as is, with no membership test; a shared
    /// one is copied only for an effective edit.
    fn store_for(&mut self, t: &Tuple, present_is_noop: bool) -> Option<&mut Store> {
        // The `Arc` is private and never downgraded, so one strong count
        // means unique; `make_mut` then takes the store without a copy.
        if Arc::strong_count(&self.store) > 1 && self.store.ids.contains_key(t) == present_is_noop {
            return None;
        }
        Some(Arc::make_mut(&mut self.store))
    }

    /// Iterate over all live tuples in arena (insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.store
            .arena
            .iter()
            .zip(self.store.live.iter())
            .filter_map(|(t, &alive)| alive.then_some(t))
    }

    /// All tuples, sorted, for deterministic output.
    pub fn sorted(&self) -> Vec<Tuple> {
        self.sorted_ids()
            .iter()
            .map(|&id| self.store.arena[id.index()].clone())
            .collect()
    }

    /// Resolve a [`TupleId`] returned by [`probe`](Relation::probe) or
    /// [`sorted_ids`](Relation::sorted_ids).
    ///
    /// # Panics
    /// Panics if the id does not refer to a live slot (stale ids across
    /// mutations are a logic error).
    #[inline]
    pub fn tuple(&self, id: TupleId) -> &Tuple {
        debug_assert!(
            self.store.live[id.index()],
            "stale TupleId used after an edit"
        );
        &self.store.arena[id.index()]
    }

    /// All live tuple ids in tuple-sorted order (built on first use, then
    /// maintained in place across edits). The backbone of every posting
    /// list, and the engine's full-scan path.
    pub fn sorted_ids(&self) -> &[TupleId] {
        self.store.sorted_ids()
    }

    /// Ids of tuples whose `col`-th value equals `value`, in tuple-sorted
    /// order, via the column's posting list (built on first use, then
    /// maintained in place across edits). Returns an empty slice if no
    /// tuple matches. Shared borrow: safe to call concurrently.
    pub fn probe(&self, col: usize, value: &Value) -> &[TupleId] {
        let posting = self.posting(col, value);
        if !posting.is_empty() {
            qoco_telemetry::counter_add("eval.probe_hits", 1);
        }
        posting
    }

    /// The posting list [`probe`](Relation::probe) returns, without
    /// bumping the `eval.probe_hits` counter: for callers that tally their
    /// own hits (the query engine publishes one count per evaluation).
    pub fn posting(&self, col: usize, value: &Value) -> &[TupleId] {
        self.index(col).get(value).map_or(&[], Vec::as_slice)
    }

    /// Length of the posting list for `value` in `col` — the exact number
    /// of live tuples matching it. Unlike [`probe`](Relation::probe) this
    /// does **not** bump the `eval.probe_hits` counter: it exists for the
    /// planner's cardinality estimates and the semi-join pre-filter, which
    /// are bookkeeping, not data access.
    pub fn posting_len(&self, col: usize, value: &Value) -> usize {
        self.posting(col, value).len()
    }

    /// Like [`probe`](Relation::probe), but resolving ids to tuples.
    pub fn probe_tuples<'a>(
        &'a self,
        col: usize,
        value: &Value,
    ) -> impl Iterator<Item = &'a Tuple> {
        self.probe(col, value).iter().map(|&id| self.tuple(id))
    }

    /// Number of distinct values in a column (builds that column's index
    /// directly — no sentinel probe).
    pub fn distinct_in_column(&self, col: usize) -> usize {
        self.index(col).len()
    }

    /// Eagerly build the sorted-id list and every column index, so later
    /// reads (and edits, which maintain built cells in place) never pay a
    /// lazy build.
    pub fn ensure_indexes(&self) {
        self.store.sorted_ids();
        for col in 0..self.arity {
            self.store.index(col);
        }
    }

    fn index(&self, col: usize) -> &HashMap<Value, Vec<TupleId>> {
        assert!(
            col < self.arity,
            "column {col} out of range for arity {}",
            self.arity
        );
        self.store.index(col)
    }
}

impl Store {
    fn sorted_ids(&self) -> &[TupleId] {
        self.sorted_ids.get_or_init(|| {
            let mut ids: Vec<TupleId> = self
                .live
                .iter()
                .enumerate()
                .filter_map(|(i, &alive)| alive.then_some(TupleId(i as u32)))
                .collect();
            ids.sort_unstable_by(|a, b| self.arena[a.index()].cmp(&self.arena[b.index()]));
            ids
        })
    }

    /// The column's index, built on first use. `eval.index_rebuilds`
    /// counts builds actually performed: a store shared by clones builds
    /// each cell once for all of them.
    fn index(&self, col: usize) -> &HashMap<Value, Vec<TupleId>> {
        self.indexes[col].get_or_init(|| {
            qoco_telemetry::counter_add("eval.index_rebuilds", 1);
            let mut idx: HashMap<Value, Vec<TupleId>> = HashMap::new();
            // Iterating ids in tuple-sorted order makes every posting list
            // sorted by construction.
            for &id in self.sorted_ids() {
                idx.entry(self.arena[id.index()].values()[col].clone())
                    .or_default()
                    .push(id);
            }
            idx
        })
    }

    fn insert(&mut self, t: Tuple) -> bool {
        // one hash of the tuple, whether it is new or already present
        let Entry::Vacant(slot) = self.ids.entry(t) else {
            return false;
        };
        let id = TupleId(u32::try_from(self.arena.len()).expect("relation exceeds u32 slots"));
        self.arena.push(slot.key().clone());
        slot.insert(id);
        self.live.push(true);
        self.live_count += 1;
        self.epoch += 1;
        self.index_insert(id);
        true
    }

    fn remove(&mut self, t: &Tuple) -> bool {
        let Some(id) = self.ids.remove(t) else {
            return false;
        };
        self.index_remove(id);
        self.live[id.index()] = false;
        self.live_count -= 1;
        self.epoch += 1;
        self.maybe_compact();
        true
    }

    /// Splice a freshly inserted tuple into every *built* index cell.
    /// Unbuilt cells are left alone — they materialize lazily from the
    /// arena and need no maintenance. Postings stay tuple-sorted because
    /// the insertion point comes from a binary search by tuple order.
    fn index_insert(&mut self, id: TupleId) {
        let Store {
            arena,
            sorted_ids,
            indexes,
            ..
        } = self;
        let t = &arena[id.index()];
        if let Some(ids) = sorted_ids.get_mut() {
            let pos = ids
                .binary_search_by(|probe| arena[probe.index()].cmp(t))
                .unwrap_or_else(|p| p);
            ids.insert(pos, id);
        }
        for (col, cell) in indexes.iter_mut().enumerate() {
            if let Some(idx) = cell.get_mut() {
                let posting = idx.entry(t.values()[col].clone()).or_default();
                let pos = posting
                    .binary_search_by(|probe| arena[probe.index()].cmp(t))
                    .unwrap_or_else(|p| p);
                posting.insert(pos, id);
            }
        }
    }

    /// Remove a still-live tuple from every *built* index cell. Emptied
    /// postings are dropped so `distinct_in_column` and zero-length
    /// [`posting_len`](Relation::posting_len) checks stay exact.
    fn index_remove(&mut self, id: TupleId) {
        let Store {
            arena,
            sorted_ids,
            indexes,
            ..
        } = self;
        let t = &arena[id.index()];
        if let Some(ids) = sorted_ids.get_mut() {
            if let Ok(pos) = ids.binary_search_by(|probe| arena[probe.index()].cmp(t)) {
                ids.remove(pos);
            }
        }
        for (col, cell) in indexes.iter_mut().enumerate() {
            if let Some(idx) = cell.get_mut() {
                let v = &t.values()[col];
                if let Some(posting) = idx.get_mut(v) {
                    if let Ok(pos) = posting.binary_search_by(|probe| arena[probe.index()].cmp(t)) {
                        posting.remove(pos);
                    }
                    if posting.is_empty() {
                        idx.remove(v);
                    }
                }
            }
        }
    }

    /// Reclaim tombstoned slots once they outnumber live tuples. Ids are
    /// reassigned, so every built index cell resets here (the one place
    /// in-place maintenance cannot survive); callers never hold ids across
    /// a `&mut` operation. Runs only on a store this relation owns alone,
    /// so no clone loses its cells.
    fn maybe_compact(&mut self) {
        let dead = self.arena.len() - self.live_count;
        if dead <= 64 || dead <= self.live_count {
            return;
        }
        self.sorted_ids = OnceLock::new();
        for cell in &mut self.indexes {
            *cell = OnceLock::new();
        }
        let mut arena = Vec::with_capacity(self.live_count);
        for (t, &alive) in self.arena.iter().zip(self.live.iter()) {
            if alive {
                arena.push(t.clone());
            }
        }
        self.ids = arena
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), TupleId(i as u32)))
            .collect();
        self.live = vec![true; arena.len()];
        self.arena = arena;
    }
}

impl FromIterator<Tuple> for Relation {
    /// Build a relation from tuples; the arity is taken from the first
    /// tuple (0 if empty).
    fn from_iter<T: IntoIterator<Item = Tuple>>(iter: T) -> Self {
        let mut it = iter.into_iter().peekable();
        let arity = it.peek().map(|t| t.arity()).unwrap_or(0);
        let mut rel = Relation::new(arity);
        for t in it {
            rel.insert(t);
        }
        rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    #[test]
    fn insert_is_idempotent() {
        let mut r = Relation::new(2);
        assert!(r.insert(tup!["ESP", "EU"]));
        assert!(!r.insert(tup!["ESP", "EU"]));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn reserve_changes_no_contents() {
        let mut r = Relation::new(2);
        r.insert(tup!["ESP", "EU"]);
        let epoch = r.epoch();
        r.reserve(100);
        assert_eq!((r.len(), r.epoch()), (1, epoch));
        assert!(r.insert(tup!["GER", "EU"]));
        assert!(!r.insert(tup!["ESP", "EU"]));
        assert_eq!(r.sorted(), vec![tup!["ESP", "EU"], tup!["GER", "EU"]]);
    }

    #[test]
    fn remove_is_idempotent() {
        let mut r = Relation::new(1);
        r.insert(tup!["x"]);
        assert!(r.remove(&tup!["x"]));
        assert!(!r.remove(&tup!["x"]));
        assert!(r.is_empty());
    }

    #[test]
    fn probe_finds_matching_tuples() {
        let mut r = Relation::new(2);
        r.insert(tup!["GER", "EU"]);
        r.insert(tup!["ESP", "EU"]);
        r.insert(tup!["BRA", "SA"]);
        let eu: Vec<&Tuple> = r.probe_tuples(1, &Value::text("EU")).collect();
        assert_eq!(eu.len(), 2);
        let sa: Vec<&Tuple> = r.probe_tuples(1, &Value::text("SA")).collect();
        assert_eq!(sa.len(), 1);
        assert_eq!(*sa[0], tup!["BRA", "SA"]);
        assert!(r.probe(0, &Value::text("ITA")).is_empty());
    }

    #[test]
    fn probe_sees_mutations() {
        let mut r = Relation::new(2);
        r.insert(tup!["GER", "EU"]);
        assert_eq!(r.probe(1, &Value::text("EU")).len(), 1);
        r.insert(tup!["ITA", "EU"]);
        assert_eq!(r.probe(1, &Value::text("EU")).len(), 2);
        r.remove(&tup!["GER", "EU"]);
        assert_eq!(r.probe(1, &Value::text("EU")).len(), 1);
    }

    #[test]
    fn posting_lists_are_tuple_sorted() {
        let mut r = Relation::new(2);
        r.insert(tup!["c", "k"]);
        r.insert(tup!["a", "k"]);
        r.insert(tup!["b", "k"]);
        let tuples: Vec<Tuple> = r.probe_tuples(1, &Value::text("k")).cloned().collect();
        assert_eq!(tuples, vec![tup!["a", "k"], tup!["b", "k"], tup!["c", "k"]]);
        assert_eq!(r.sorted(), tuples);
    }

    #[test]
    fn epoch_moves_on_effective_mutations_only() {
        let mut r = Relation::new(1);
        let e0 = r.epoch();
        r.insert(tup!["x"]);
        let e1 = r.epoch();
        assert!(e1 > e0);
        r.insert(tup!["x"]); // no-op
        assert_eq!(r.epoch(), e1);
        r.remove(&tup!["missing"]); // no-op
        assert_eq!(r.epoch(), e1);
        r.remove(&tup!["x"]);
        assert!(r.epoch() > e1);
    }

    #[test]
    fn distinct_counts_column_values() {
        let mut r = Relation::new(2);
        r.insert(tup!["a", "x"]);
        r.insert(tup!["b", "x"]);
        r.insert(tup!["c", "y"]);
        assert_eq!(r.distinct_in_column(0), 3);
        assert_eq!(r.distinct_in_column(1), 2);
    }

    #[test]
    fn sorted_is_deterministic() {
        let mut r = Relation::new(1);
        r.insert(tup!["b"]);
        r.insert(tup!["a"]);
        assert_eq!(r.sorted(), vec![tup!["a"], tup!["b"]]);
    }

    #[test]
    fn compaction_preserves_contents() {
        let mut r = Relation::new(1);
        for i in 0..200i64 {
            r.insert(tup![i]);
        }
        for i in 0..150i64 {
            r.remove(&tup![i]);
        }
        assert_eq!(r.len(), 50);
        let expected: Vec<Tuple> = (150..200i64).map(|i| tup![i]).collect();
        assert_eq!(r.sorted(), expected);
        for i in 150..200i64 {
            assert!(r.contains(&tup![i]));
            assert_eq!(r.probe(0, &Value::int(i)).len(), 1);
        }
        // re-inserting a removed tuple works after compaction
        assert!(r.insert(tup![0i64]));
        assert_eq!(r.len(), 51);
    }

    /// Built indexes must be maintained in place across an edit sequence
    /// and stay identical to indexes rebuilt from scratch on a copy.
    #[test]
    fn in_place_index_maintenance_matches_rebuild() {
        let mut r = Relation::new(2);
        for i in 0..40i64 {
            r.insert(tup![i, i % 7]);
        }
        r.ensure_indexes(); // build the cells so edits take the in-place path
        let mut state: u64 = 0x5EED;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..300 {
            let a = (rng() % 60) as i64;
            if rng() % 2 == 0 {
                r.insert(tup![a, a % 7]);
            } else {
                r.remove(&tup![a, a % 7]);
            }
            // A fresh clone starts with unbuilt cells (cloned state aside,
            // compare against a from-scratch rebuild of the same tuples).
            let fresh: Relation = r.iter().cloned().collect();
            assert_eq!(r.sorted(), fresh.sorted());
            for col in 0..2 {
                assert_eq!(r.distinct_in_column(col), fresh.distinct_in_column(col));
                for t in fresh.iter() {
                    let v = &t.values()[col];
                    let got: Vec<&Tuple> = r.probe_tuples(col, v).collect();
                    let want: Vec<&Tuple> = fresh.probe_tuples(col, v).collect();
                    assert_eq!(got, want, "posting for col {col} value {v:?} diverged");
                }
            }
        }
    }

    #[test]
    fn posting_len_is_exact_and_quiet() {
        let mut r = Relation::new(2);
        r.insert(tup!["GER", "EU"]);
        r.insert(tup!["ESP", "EU"]);
        r.insert(tup!["BRA", "SA"]);
        assert_eq!(r.posting_len(1, &Value::text("EU")), 2);
        assert_eq!(r.posting_len(1, &Value::text("SA")), 1);
        assert_eq!(r.posting_len(1, &Value::text("AS")), 0);
        r.remove(&tup!["ESP", "EU"]);
        assert_eq!(r.posting_len(1, &Value::text("EU")), 1);
    }

    #[test]
    fn emptied_postings_disappear_from_distinct_counts() {
        let mut r = Relation::new(2);
        r.insert(tup!["a", "x"]);
        r.insert(tup!["b", "y"]);
        r.ensure_indexes();
        r.remove(&tup!["b", "y"]);
        assert_eq!(r.distinct_in_column(1), 1);
        assert_eq!(r.posting_len(1, &Value::text("y")), 0);
    }

    #[test]
    fn clones_share_one_store_until_an_effective_edit() {
        let mut a: Relation = (0..10i64).map(|i| tup![i, i % 2]).collect();
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.store, &b.store));
        assert!(!b.insert(tup![3i64, 1i64]));
        assert!(!b.remove(&tup![42i64, 0i64]));
        assert!(
            Arc::ptr_eq(&a.store, &b.store),
            "a no-op edit copies nothing"
        );
        assert!(b.insert(tup![42i64, 0i64]));
        assert!(!Arc::ptr_eq(&a.store, &b.store));
        assert_eq!((a.len(), b.len()), (10, 11));
        assert_eq!(b.epoch(), a.epoch() + 1);
        // the source is unique again: it edits in place
        let store = Arc::as_ptr(&a.store);
        assert!(a.remove(&tup![0i64, 0i64]));
        assert_eq!(Arc::as_ptr(&a.store), store);
    }

    #[test]
    fn the_first_edit_copies_built_cells_and_builds_none() {
        let a: Relation = (0..10i64).map(|i| tup![i, i % 2]).collect();
        assert_eq!(a.posting_len(1, &Value::int(0)), 5); // builds column 1 only
        let mut b = a.clone();
        assert!(b.insert(tup![10i64, 0i64]));
        assert!(b.store.sorted_ids.get().is_some());
        assert!(b.store.indexes[0].get().is_none(), "unbuilt stays unbuilt");
        assert_eq!(b.posting_len(1, &Value::int(0)), 6);
        assert_eq!(a.posting_len(1, &Value::int(0)), 5);
        assert!(a.store.indexes[0].get().is_none());
    }

    #[test]
    fn unshare_copies_once_and_changes_nothing_visible() {
        let a: Relation = (0..10i64).map(|i| tup![i, i % 2]).collect();
        assert_eq!(a.posting_len(1, &Value::int(1)), 5);
        let mut b = a.clone();
        b.unshare();
        assert!(!Arc::ptr_eq(&a.store, &b.store));
        assert_eq!((b.epoch(), b.sorted()), (a.epoch(), a.sorted()));
        assert!(b.store.indexes[1].get().is_some(), "built cells come along");
        assert!(b.store.indexes[0].get().is_none());
        // unique now: a second call and the next edit copy nothing
        let store = Arc::as_ptr(&b.store);
        b.unshare();
        assert!(b.insert(tup![10i64, 1i64]));
        assert_eq!(Arc::as_ptr(&b.store), store);
        assert_eq!((a.len(), b.posting_len(1, &Value::int(1))), (10, 6));
    }

    #[test]
    fn compacting_a_copy_leaves_the_source_intact() {
        let a: Relation = (0..200i64).map(|i| tup![i]).collect();
        a.ensure_indexes();
        let mut b = a.clone();
        for i in 0..150i64 {
            b.remove(&tup![i]);
        }
        assert!(b.store.arena.len() < 200, "the copy compacted");
        assert_eq!((a.len(), a.store.arena.len()), (200, 200));
        assert_eq!(a.probe(0, &Value::int(7)).len(), 1);
        assert_eq!(a.distinct_in_column(0), 200);
        assert_eq!(
            b.sorted(),
            (150..200i64).map(|i| tup![i]).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut r = Relation::new(2);
        r.insert(tup!["only-one"]);
    }

    #[test]
    fn from_iterator_infers_arity() {
        let r: Relation = vec![tup![1, 2], tup![3, 4]].into_iter().collect();
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 2);
    }
}
