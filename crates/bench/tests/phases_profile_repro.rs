use std::sync::Arc;

use qoco_bench::{phase_breakdown, Experiments};
use qoco_telemetry::{session, InMemoryCollector, Profile};

#[test]
fn phase_breakdown_reaches_the_outer_collector_profile() {
    // Same order as `figures --profile phases`: the run's session first,
    // then the soccer context, then the target, which nests its own
    // collector inside the outer session.
    let outer = Arc::new(InMemoryCollector::new());
    let guard = session(outer.clone());
    let ex = Experiments::soccer();
    let t = phase_breakdown(&ex);
    drop(guard);
    assert!(format!("{t}").contains("clean.session"));
    let profile = Profile::from_spans(&outer.spans());
    assert!(
        profile.total_by_frame().contains_key("clean.session"),
        "the nested session's spans must reach the outer profile: {:?}",
        profile.counts().keys().collect::<Vec<_>>()
    );
}
