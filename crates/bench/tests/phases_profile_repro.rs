use std::sync::Arc;

use qoco_bench::{fig3a, phase_breakdown, Experiments};
use qoco_telemetry::{session, InMemoryCollector, Profile};

#[test]
fn phase_breakdown_reaches_the_outer_collector_profile() {
    // `figures phases` alone: the target opens its own session.
    let alone = phase_breakdown(&Experiments::soccer());
    let counters_note = alone.notes.first().expect("counters note");

    // Same order as `figures --profile fig3a phases`: the run's session
    // first, then the soccer context, then the targets; `phases` nests its
    // own collector inside the outer session, after fig3a's sessions have
    // already bumped the shared counters.
    let outer = Arc::new(InMemoryCollector::new());
    let guard = session(outer.clone());
    let ex = Experiments::soccer();
    fig3a(&ex);
    let t = phase_breakdown(&ex);
    drop(guard);
    assert!(format!("{t}").contains("clean.session"));
    assert_eq!(
        t.notes.first(),
        Some(counters_note),
        "the counters note must count the phases session alone"
    );
    let profile = Profile::from_spans(&outer.spans());
    assert!(
        profile.total_by_frame().contains_key("clean.session"),
        "the nested session's spans must reach the outer profile: {:?}",
        profile.counts().keys().collect::<Vec<_>>()
    );
}
