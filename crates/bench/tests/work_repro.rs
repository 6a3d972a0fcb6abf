//! The `work` table counts exactly, whatever ran before it: alone, and
//! inside an outer session after other targets have cleaned with clones of
//! the same ground truth (and built index cells they share), it prints the
//! same cells.
//!
//! Lives in its own integration-test binary: sessions and counters are
//! process-global.

use std::sync::Arc;

use qoco_bench::{fig3c, phase_breakdown, work_counts, Experiments};
use qoco_telemetry::{session, InMemoryCollector};

#[test]
fn work_counts_do_not_depend_on_earlier_targets() {
    let alone = work_counts(&Experiments::soccer()).to_string();
    assert_eq!(alone, work_counts(&Experiments::soccer()).to_string());

    let outer = Arc::new(InMemoryCollector::new());
    let guard = session(outer.clone());
    let ex = Experiments::soccer();
    fig3c(&ex);
    phase_breakdown(&ex);
    let after_others = work_counts(&ex).to_string();
    drop(guard);
    assert_eq!(alone, after_others);
    assert!(
        outer
            .spans()
            .iter()
            .any(|s| s.name == "deletion.lower_bound"),
        "the work sessions' spans must reach the outer collector"
    );
}
