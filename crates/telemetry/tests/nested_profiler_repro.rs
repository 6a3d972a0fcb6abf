use qoco_telemetry::{nested_session, session, span, InMemoryCollector, Profiler};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn nested_session_under_a_running_sampler_does_not_hang() {
    let outer = Arc::new(InMemoryCollector::new());
    let guard = session(outer);
    let profiler = Profiler::start(Duration::from_micros(100));
    for _round in 0..50 {
        let inner = Arc::new(InMemoryCollector::new());
        let _nested = nested_session(inner);
        let root = span("repro.root");
        // spans on other threads while the sampler walks the registry
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..20 {
                        span("repro.chunk").finish();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        root.finish();
    }
    let profile = profiler.stop();
    assert!(profile.samples + profile.dropped > 0);
    drop(guard);
}
