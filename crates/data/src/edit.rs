//! Database edits.
//!
//! The paper's update model (Section 3.1): an insertion edit `R(ā)+` inserts
//! tuple `ā` into relation `R`; a deletion edit `R(ā)−` removes it. Updates
//! are modelled as deletion followed by insertion. Edits are *idempotent*:
//! `D ⊕ R(ā)+ = D` when `R(ā) ∈ D`, and symmetrically for deletion.

use std::fmt;

use crate::tuple::Fact;

/// The polarity of an edit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EditKind {
    /// Insertion edit `R(ā)+`.
    Insert,
    /// Deletion edit `R(ā)−`.
    Delete,
}

/// A single database edit.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Edit {
    /// Whether the fact is inserted or deleted.
    pub kind: EditKind,
    /// The fact being inserted or deleted.
    pub fact: Fact,
}

impl Edit {
    /// An insertion edit `R(ā)+`.
    pub fn insert(fact: Fact) -> Self {
        Edit {
            kind: EditKind::Insert,
            fact,
        }
    }

    /// A deletion edit `R(ā)−`.
    pub fn delete(fact: Fact) -> Self {
        Edit {
            kind: EditKind::Delete,
            fact,
        }
    }
}

impl fmt::Debug for Edit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = match self.kind {
            EditKind::Insert => "+",
            EditKind::Delete => "-",
        };
        write!(f, "{:?}{}", self.fact, sign)
    }
}

/// An append-only log of the edits a cleaning session applied, in order.
///
/// The cleaners report this so callers can audit exactly how the dirty
/// database was changed (the paper's output is "a sequence of edits
/// `e_1, …, e_k`", Problem 3.2).
#[derive(Clone, Debug, Default)]
pub struct EditLog {
    edits: Vec<Edit>,
}

impl EditLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an edit.
    pub fn push(&mut self, e: Edit) {
        self.edits.push(e);
    }

    /// Append all edits of another log.
    pub fn extend(&mut self, other: EditLog) {
        self.edits.extend(other.edits);
    }

    /// The edits in application order.
    pub fn edits(&self) -> &[Edit] {
        &self.edits
    }

    /// Number of edits.
    pub fn len(&self) -> usize {
        self.edits.len()
    }

    /// True if no edits were applied.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// Count of insertion edits.
    pub fn insertions(&self) -> usize {
        self.edits
            .iter()
            .filter(|e| e.kind == EditKind::Insert)
            .count()
    }

    /// Count of deletion edits.
    pub fn deletions(&self) -> usize {
        self.edits
            .iter()
            .filter(|e| e.kind == EditKind::Delete)
            .count()
    }
}

impl IntoIterator for EditLog {
    type Item = Edit;
    type IntoIter = std::vec::IntoIter<Edit>;
    fn into_iter(self) -> Self::IntoIter {
        self.edits.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelId;
    use crate::tup;

    fn fact(s: &str) -> Fact {
        Fact::new(RelId::from_index(0), tup![s])
    }

    #[test]
    fn log_counts_by_kind() {
        let mut log = EditLog::new();
        log.push(Edit::insert(fact("a")));
        log.push(Edit::delete(fact("b")));
        log.push(Edit::delete(fact("c")));
        assert_eq!(log.len(), 3);
        assert_eq!(log.insertions(), 1);
        assert_eq!(log.deletions(), 2);
        assert!(!log.is_empty());
    }

    #[test]
    fn log_extend_preserves_order() {
        let mut a = EditLog::new();
        a.push(Edit::insert(fact("1")));
        let mut b = EditLog::new();
        b.push(Edit::delete(fact("2")));
        a.extend(b);
        let kinds: Vec<EditKind> = a.edits().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![EditKind::Insert, EditKind::Delete]);
    }

    #[test]
    fn debug_rendering_uses_signs() {
        assert!(format!("{:?}", Edit::insert(fact("a"))).ends_with('+'));
        assert!(format!("{:?}", Edit::delete(fact("a"))).ends_with('-'));
    }
}
