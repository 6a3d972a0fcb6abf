//! Applying edits while keeping materialized views current.
//!
//! Algorithms 1 and 2 thread a slice of [`MaterializedView`]s (one per
//! disjunct of the view being cleaned) through every edit they derive: the
//! edit is applied to the database eagerly and each view is brought up to
//! date incrementally, so the sweeps in [`crate::cleaner`] can read cached
//! answer sets instead of re-evaluating the query after every mutation.

use qoco_data::{Database, Edit};
use qoco_engine::MaterializedView;

use crate::error::CleanError;

/// Apply `e` to `db`, then notify every view of the edit.
pub(crate) fn apply_tracked(
    db: &mut Database,
    views: &mut [MaterializedView],
    e: &Edit,
) -> Result<(), CleanError> {
    db.apply(e)?;
    for v in views.iter_mut() {
        v.apply_edit(db, e);
    }
    Ok(())
}
