//! In-process sampling profiler over live span stacks.
//!
//! Signal-based unwinders need frame pointers, symbol tables and unsafe
//! code; QOCO's phases are already delimited by spans, so the profiler
//! samples *those* instead. Every enabled span open/close also updates a
//! process-global [`StackRegistry`]: the innermost live span per thread
//! plus a `span id → (parent, name)` map of every live span. A sampling
//! thread ([`Profiler`]) periodically walks each thread's leaf up the
//! parent chain and aggregates the resulting name paths into folded-stack
//! lines (`clean.session;clean.deletion_phase;eval.assignments 412`), the
//! interchange format of flamegraph tooling.
//!
//! The sampler never stops the world: it *try*-locks the registry and
//! charges a miss to `profile.dropped` instead of blocking span creation.
//! Mutator threads take the registry lock unconditionally, but the
//! sampler holds it only long enough to copy a handful of small maps.
//!
//! With telemetry disabled (or the registry empty) everything here is
//! inert: [`Profiler::start`] spawns no thread and allocates nothing —
//! guarded by `telemetry_noop_guard` next to spans and decisions.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Hard cap on the frames of one sampled stack: a parent chain longer than
/// this is cyclic (a bug) or absurdly deep; truncate rather than spin.
const MAX_DEPTH: usize = 128;

/// The default sampling period: fine enough to see millisecond phases,
/// coarse enough that a tick (copy two small maps, walk a few chains)
/// stays far below 1% of a core.
pub const DEFAULT_SAMPLE_INTERVAL: Duration = Duration::from_micros(200);

/// One live span as the registry sees it.
#[derive(Clone, Copy)]
struct LiveSpan {
    parent: Option<u64>,
    name: &'static str,
}

#[derive(Default)]
struct RegistryInner {
    /// Innermost live span per thread ordinal.
    leaves: BTreeMap<u64, u64>,
    /// Every live span, by id. BTreeMap rather than HashMap so the
    /// registry can live in a `static` (`BTreeMap::new` is const).
    spans: BTreeMap<u64, LiveSpan>,
}

/// Process-global registry of live span stacks, updated on the enabled
/// span path and walked by the sampler. One mutex, held for a few map
/// operations per span open/close — far below the per-span collector cost.
pub(crate) struct StackRegistry {
    inner: Mutex<RegistryInner>,
}

fn unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl StackRegistry {
    pub(crate) const fn new() -> Self {
        StackRegistry {
            inner: Mutex::new(RegistryInner {
                leaves: BTreeMap::new(),
                spans: BTreeMap::new(),
            }),
        }
    }

    /// A span opened on `thread` and became its innermost live span.
    pub(crate) fn span_opened(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        thread: u64,
    ) {
        let mut inner = unpoisoned(&self.inner);
        inner.spans.insert(id, LiveSpan { parent, name });
        inner.leaves.insert(thread, id);
    }

    /// A span closed on `thread`; `new_leaf` is the span now innermost
    /// there (the thread-local stack top after the pop), if any.
    pub(crate) fn span_closed(&self, id: u64, thread: u64, new_leaf: Option<u64>) {
        let mut inner = unpoisoned(&self.inner);
        inner.spans.remove(&id);
        match new_leaf {
            Some(leaf) => {
                inner.leaves.insert(thread, leaf);
            }
            None => {
                inner.leaves.remove(&thread);
            }
        }
    }

    /// Drop every live record (called on session install so a leaked guard
    /// from a previous session cannot haunt the next profile).
    pub(crate) fn clear(&self) {
        let mut inner = unpoisoned(&self.inner);
        inner.leaves.clear();
        inner.spans.clear();
    }

    /// Snapshot every thread's live stack as a root→leaf name path.
    /// Returns `None` when the registry is momentarily locked by a mutator
    /// (the caller charges `profile.dropped` and tries again next tick).
    fn sample(&self) -> Option<Vec<Vec<&'static str>>> {
        let inner = self.inner.try_lock().ok()?;
        let mut stacks = Vec::with_capacity(inner.leaves.len());
        for (&_thread, &leaf) in &inner.leaves {
            let mut frames: Vec<&'static str> = Vec::new();
            let mut cursor = Some(leaf);
            while let Some(id) = cursor {
                let Some(span) = inner.spans.get(&id) else {
                    break; // parent closed before its child (out-of-order drop)
                };
                frames.push(span.name);
                cursor = span.parent;
                if frames.len() >= MAX_DEPTH {
                    break;
                }
            }
            if !frames.is_empty() {
                frames.reverse(); // walked leaf→root; fold root→leaf
                stacks.push(frames);
            }
        }
        Some(stacks)
    }
}

/// A finished (or parsed) profile: folded stacks and their sample counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Sampling period of the run that produced this profile, in
    /// nanoseconds (0 for parsed profiles, which don't record it).
    pub interval_ns: u64,
    /// Stack samples captured.
    pub samples: u64,
    /// Ticks that found the registry locked and were skipped.
    pub dropped: u64,
    /// `folded stack → sample count`; keys are `;`-joined span names,
    /// root first. BTreeMap, so every traversal (and every render) is
    /// deterministic.
    counts: BTreeMap<String, u64>,
}

impl Profile {
    /// The folded-stack counts.
    pub fn counts(&self) -> &BTreeMap<String, u64> {
        &self.counts
    }

    /// Whether no stack sample was captured.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Add `n` samples of `stack` (a `;`-joined frame path). Public so
    /// tests and the diff tooling can assemble profiles by hand.
    pub fn record(&mut self, stack: &str, n: u64) {
        *self.counts.entry(stack.to_string()).or_insert(0) += n;
        self.samples += n;
    }

    /// Render as folded-stack text: one `stack count` line per distinct
    /// stack, sorted by stack (byte order). The format flamegraph tooling
    /// exchanges; [`Profile::parse_folded`] round-trips it.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for (stack, count) in &self.counts {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }

    /// Parse folded-stack text (the output of [`Profile::to_folded`];
    /// blank lines and `#` comments are tolerated).
    pub fn parse_folded(text: &str) -> Result<Profile, String> {
        let mut profile = Profile::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (stack, count) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line {}: no sample count (want `stack N`)", i + 1))?;
            let count: u64 = count
                .parse()
                .map_err(|_| format!("line {}: `{count}` is not a sample count", i + 1))?;
            if stack.is_empty() {
                return Err(format!("line {}: empty stack", i + 1));
            }
            profile.record(stack, count);
        }
        Ok(profile)
    }

    /// Samples per frame name, counted once per stack it appears in
    /// (inclusive / "total" time).
    pub fn total_by_frame(&self) -> BTreeMap<&str, u64> {
        let mut out: BTreeMap<&str, u64> = BTreeMap::new();
        for (stack, &count) in &self.counts {
            let mut seen: Vec<&str> = Vec::new();
            for frame in stack.split(';') {
                if !seen.contains(&frame) {
                    seen.push(frame);
                    *out.entry(frame).or_insert(0) += count;
                }
            }
        }
        out
    }

    /// Samples per frame name where the frame was the *leaf* (self time).
    pub fn self_by_frame(&self) -> BTreeMap<&str, u64> {
        let mut out: BTreeMap<&str, u64> = BTreeMap::new();
        for (stack, &count) in &self.counts {
            let leaf = stack.rsplit(';').next().expect("split is non-empty");
            *out.entry(leaf).or_insert(0) += count;
        }
        out
    }

    /// The `n` frames with the most self samples, descending (ties broken
    /// by frame name for determinism).
    pub fn top_self(&self, n: usize) -> Vec<(String, u64)> {
        let mut frames: Vec<(String, u64)> = self
            .self_by_frame()
            .into_iter()
            .map(|(f, c)| (f.to_string(), c))
            .collect();
        frames.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        frames.truncate(n);
        frames
    }

    /// Render a self-contained flamegraph SVG of this profile; see
    /// [`crate::flamegraph_svg`].
    pub fn flamegraph_svg(&self, title: &str) -> String {
        crate::flame::flamegraph_svg(&self.counts, title)
    }
}

/// Per-frame delta between two profiles, in *shares* of total samples so
/// profiles of different lengths compare fairly.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameDelta {
    /// Span name.
    pub frame: String,
    /// Fraction of base samples whose stack contains the frame.
    pub base_share: f64,
    /// Fraction of head samples whose stack contains the frame.
    pub head_share: f64,
    /// `head_share - base_share`: positive means the frame grew.
    pub delta: f64,
}

/// Compare two profiles frame-by-frame: for every frame appearing in
/// either, the share of total samples whose stack contains it, and the
/// head−base difference. Sorted by descending delta (the most-regressed
/// frame first), ties by frame name.
pub fn diff_profiles(base: &Profile, head: &Profile) -> Vec<FrameDelta> {
    let base_total = base.samples.max(1) as f64;
    let head_total = head.samples.max(1) as f64;
    let base_frames = base.total_by_frame();
    let head_frames = head.total_by_frame();
    let mut names: Vec<&str> = base_frames
        .keys()
        .chain(head_frames.keys())
        .copied()
        .collect();
    names.sort_unstable();
    names.dedup();
    let mut out: Vec<FrameDelta> = names
        .into_iter()
        .map(|frame| {
            let b = base_frames.get(frame).copied().unwrap_or(0) as f64 / base_total;
            let h = head_frames.get(frame).copied().unwrap_or(0) as f64 / head_total;
            FrameDelta {
                frame: frame.to_string(),
                base_share: b,
                head_share: h,
                delta: h - b,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.delta
            .partial_cmp(&a.delta)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.frame.cmp(&b.frame))
    });
    out
}

struct ProfilerInner {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Profile>,
}

/// A running sampling profiler. Obtain with [`Profiler::start`]; collect
/// the [`Profile`] with [`Profiler::stop`]. When telemetry is disabled at
/// start time the handle is inert: no thread, no allocation, an empty
/// profile on stop.
pub struct Profiler {
    inner: Option<ProfilerInner>,
}

impl Profiler {
    /// Start sampling every `interval` (see [`DEFAULT_SAMPLE_INTERVAL`]).
    /// Returns an inert handle when telemetry is disabled.
    pub fn start(interval: Duration) -> Profiler {
        if !crate::enabled() {
            return Profiler { inner: None };
        }
        let interval = interval.max(Duration::from_micros(10));
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("qoco-profiler".to_string())
            .spawn(move || sampler_loop(&flag, interval))
            .expect("spawn profiler thread");
        Profiler {
            inner: Some(ProfilerInner { stop, handle }),
        }
    }

    /// Whether a sampling thread is actually running (false on the
    /// disabled path).
    pub fn is_live(&self) -> bool {
        self.inner.is_some()
    }

    /// Stop sampling and return the aggregated profile (empty if the
    /// profiler was never live).
    pub fn stop(mut self) -> Profile {
        match self.inner.take() {
            Some(inner) => {
                inner.stop.store(true, Ordering::Relaxed);
                inner.handle.join().unwrap_or_default()
            }
            None => Profile::default(),
        }
    }
}

impl Drop for Profiler {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            inner.stop.store(true, Ordering::Relaxed);
            let _ = inner.handle.join();
        }
    }
}

/// Cumulative samples/drops across the process, mirrored into the
/// `profile.samples` / `profile.dropped` counters (batched per tick so the
/// sampler does not hammer the metrics mutex).
static TOTAL_SAMPLES: AtomicU64 = AtomicU64::new(0);
static TOTAL_DROPPED: AtomicU64 = AtomicU64::new(0);

/// Process-lifetime sample/drop totals `(samples, dropped)` — what the
/// `/health` endpoint reports even when no session counter is live.
pub fn sample_totals() -> (u64, u64) {
    (
        TOTAL_SAMPLES.load(Ordering::Relaxed),
        TOTAL_DROPPED.load(Ordering::Relaxed),
    )
}

fn sampler_loop(stop: &AtomicBool, interval: Duration) -> Profile {
    let mut profile = Profile {
        interval_ns: interval.as_nanos() as u64,
        ..Profile::default()
    };
    let mut key = String::with_capacity(128);
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(interval);
        // The session may end while the profiler is still running; stop
        // aggregating rather than sampling a dead registry.
        if !crate::enabled() {
            continue;
        }
        match crate::stack_registry().sample() {
            Some(stacks) => {
                for frames in stacks {
                    key.clear();
                    for (i, frame) in frames.iter().enumerate() {
                        if i > 0 {
                            key.push(';');
                        }
                        key.push_str(frame);
                    }
                    profile.record(&key, 1);
                    TOTAL_SAMPLES.fetch_add(1, Ordering::Relaxed);
                    crate::counter_add("profile.samples", 1);
                }
            }
            None => {
                profile.dropped += 1;
                TOTAL_DROPPED.fetch_add(1, Ordering::Relaxed);
                crate::counter_add("profile.dropped", 1);
            }
        }
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InMemoryCollector;

    fn spin_for(d: Duration) {
        let start = std::time::Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_profiler_spawns_nothing_and_returns_empty() {
        let _serial = crate::SESSION_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        assert!(!crate::enabled());
        let p = Profiler::start(Duration::from_micros(100));
        assert!(!p.is_live());
        let profile = p.stop();
        assert!(profile.is_empty());
        assert_eq!(profile.samples, 0);
    }

    #[test]
    fn sampler_folds_nested_spans_into_stacks() {
        let collector = Arc::new(InMemoryCollector::new());
        let session = crate::session(collector);
        let profiler = Profiler::start(Duration::from_micros(50));
        {
            let _outer = crate::span("profile.outer");
            let _inner = crate::span("profile.inner");
            spin_for(Duration::from_millis(40));
        }
        let profile = profiler.stop();
        let snapshot = crate::metrics().snapshot();
        drop(session);
        assert!(profile.samples > 0, "captured no samples in 40ms of work");
        let nested = profile
            .counts()
            .keys()
            .any(|k| k == "profile.outer;profile.inner");
        assert!(nested, "no nested stack in {:?}", profile.counts());
        assert_eq!(
            snapshot.counter("profile.samples"),
            profile.samples,
            "the counter mirrors the profile"
        );
    }

    #[test]
    fn folded_round_trips_and_totals_add_up() {
        let mut p = Profile::default();
        p.record("a;b;c", 4);
        p.record("a;b", 2);
        p.record("a;d", 1);
        p.record("a;b;c", 1); // merges with the first
        assert_eq!(p.samples, 8);
        let folded = p.to_folded();
        assert_eq!(folded, "a;b 2\na;b;c 5\na;d 1\n");
        let parsed = Profile::parse_folded(&folded).unwrap();
        assert_eq!(parsed.counts(), p.counts());
        assert_eq!(parsed.samples, 8);

        let total = p.total_by_frame();
        assert_eq!(total["a"], 8);
        assert_eq!(total["b"], 7);
        assert_eq!(total["c"], 5);
        assert_eq!(total["d"], 1);
        let selfs = p.self_by_frame();
        assert_eq!(selfs["b"], 2);
        assert_eq!(selfs["c"], 5);
        assert_eq!(selfs["d"], 1);
        assert_eq!(selfs.get("a"), None);
        assert_eq!(p.top_self(1), vec![("c".to_string(), 5)]);
    }

    #[test]
    fn parse_folded_rejects_garbage() {
        assert!(Profile::parse_folded("no-count-here\n").is_err());
        assert!(Profile::parse_folded("stack notanumber\n").is_err());
        assert!(Profile::parse_folded(" 5\n").is_err());
        // comments and blanks are fine
        let p = Profile::parse_folded("# header\n\na 1\n").unwrap();
        assert_eq!(p.samples, 1);
    }

    #[test]
    fn recursive_frames_count_once_per_stack_for_totals() {
        let mut p = Profile::default();
        p.record("f;g;f", 3);
        assert_eq!(p.total_by_frame()["f"], 3, "repeated frame counted once");
        assert_eq!(p.self_by_frame()["f"], 3);
    }

    #[test]
    fn diff_ranks_the_grown_frame_first() {
        let mut base = Profile::default();
        base.record("session;eval", 50);
        base.record("session;split", 50);
        let mut head = Profile::default();
        head.record("session;eval", 150);
        head.record("session;split", 50);
        let deltas = diff_profiles(&base, &head);
        assert_eq!(deltas[0].frame, "eval");
        assert!(deltas[0].delta > 0.2, "{deltas:?}");
        // session appears in every stack on both sides: share 1.0 → delta 0
        let session = deltas.iter().find(|d| d.frame == "session").unwrap();
        assert!(session.delta.abs() < 1e-9);
        // split share shrank (same count, bigger total)
        let split = deltas.iter().find(|d| d.frame == "split").unwrap();
        assert!(split.delta < 0.0);
    }

    #[test]
    fn registry_chain_breaks_gracefully_when_parent_is_gone() {
        let registry = StackRegistry::new();
        registry.span_opened(1, None, "root", 0);
        registry.span_opened(2, Some(1), "child", 0);
        // the root's guard drops first while the child still runs
        registry.span_closed(1, 0, Some(2));
        let stacks = registry.sample().unwrap();
        assert_eq!(stacks, vec![vec!["child"]]);
    }
}
