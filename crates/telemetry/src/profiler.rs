//! Span profiles: folded stacks built exactly from closed spans.
//!
//! QOCO's phases are already delimited by spans, and every closed
//! [`SpanRecord`] carries its parent and its duration. [`Profile::from_spans`]
//! folds a collector's records into folded-stack lines
//! (`clean.session;clean.deletion_phase;eval.assignments 412000`), the
//! interchange format of flamegraph tooling: each span contributes its
//! parent chain's names, root first, weighted by its **self time** in
//! nanoseconds (its duration minus its direct children's, as
//! [`crate::SessionTimeline::attribution`] computes it).
//!
//! Nothing runs while the program runs: no sampler thread, no registry of
//! live stacks, no work on the span path beyond the collector's own. The
//! profile is exact — every span that closed is in it — so two runs of one
//! input give the same set of stacks; only the weights differ.

use std::collections::{BTreeMap, HashMap};

use crate::span::SpanRecord;

/// Hard cap on the frames of one folded stack: a parent chain longer than
/// this is cyclic (a bug) or absurdly deep; keep the innermost frames
/// rather than spin.
const MAX_DEPTH: usize = 128;

/// A folded profile: stacks and their self-time weights in nanoseconds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// The summed weight of every stack (nanoseconds for span profiles).
    pub total: u64,
    /// `folded stack → weight`; keys are `;`-joined span names, root
    /// first. BTreeMap, so every traversal (and every render) is
    /// deterministic.
    counts: BTreeMap<String, u64>,
}

impl Profile {
    /// Fold closed spans into a profile. A span's stack is the names of its
    /// parent chain, root first; a parent missing from `spans` ends the
    /// chain, and spans opened on another thread are already roots. Its
    /// weight is its self time: duration minus its children's durations,
    /// floored at zero. Every span adds its stack, even at weight zero.
    pub fn from_spans(spans: &[SpanRecord]) -> Profile {
        let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
        let child_ns = crate::timeline::child_ns(spans);
        let mut profile = Profile::default();
        let mut frames: Vec<&'static str> = Vec::new();
        let mut stack = String::new();
        for span in spans {
            frames.clear();
            frames.push(span.name);
            let mut cursor = span.parent;
            while let Some(parent) = cursor.and_then(|id| by_id.get(&id)) {
                if frames.len() >= MAX_DEPTH {
                    break;
                }
                frames.push(parent.name);
                cursor = parent.parent;
            }
            stack.clear();
            for (i, frame) in frames.iter().rev().enumerate() {
                // walked leaf→root; fold root→leaf
                if i > 0 {
                    stack.push(';');
                }
                stack.push_str(frame);
            }
            let weight = span
                .duration_ns
                .saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0));
            profile.record(&stack, weight);
        }
        profile
    }

    /// The folded-stack weights.
    pub fn counts(&self) -> &BTreeMap<String, u64> {
        &self.counts
    }

    /// Add `n` to the weight of `stack` (a `;`-joined frame path). Public
    /// so tests and the diff tooling can assemble profiles by hand.
    pub fn record(&mut self, stack: &str, n: u64) {
        match self.counts.get_mut(stack) {
            Some(count) => *count += n,
            None => {
                self.counts.insert(stack.to_string(), n);
            }
        }
        self.total += n;
    }

    /// Render as folded-stack text: one `stack weight` line per distinct
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
                .ok_or_else(|| format!("line {}: no weight (want `stack N`)", i + 1))?;
            let count: u64 = count
                .parse()
                .map_err(|_| format!("line {}: `{count}` is not a weight", i + 1))?;
            if stack.is_empty() {
                return Err(format!("line {}: empty stack", i + 1));
            }
            profile.record(stack, count);
        }
        Ok(profile)
    }

    /// Weight per frame name, counted once per stack it appears in
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

    /// Weight per frame name where the frame was the *leaf* (self time).
    pub fn self_by_frame(&self) -> BTreeMap<&str, u64> {
        let mut out: BTreeMap<&str, u64> = BTreeMap::new();
        for (stack, &count) in &self.counts {
            let leaf = stack.rsplit(';').next().expect("split is non-empty");
            *out.entry(leaf).or_insert(0) += count;
        }
        out
    }

    /// The `n` frames with the most self weight, descending (ties broken
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

/// Per-frame delta between two profiles, in *shares* of total weight so
/// profiles of different lengths compare fairly.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameDelta {
    /// Span name.
    pub frame: String,
    /// Fraction of base weight whose stack contains the frame.
    pub base_share: f64,
    /// Fraction of head weight whose stack contains the frame.
    pub head_share: f64,
    /// `head_share - base_share`: positive means the frame grew.
    pub delta: f64,
}

/// Compare two profiles frame-by-frame: for every frame appearing in
/// either, the share of total weight whose stack contains it, and the
/// head−base difference. Sorted by descending delta (the most-regressed
/// frame first), ties by frame name.
pub fn diff_profiles(base: &Profile, head: &Profile) -> Vec<FrameDelta> {
    let base_total = base.total.max(1) as f64;
    let head_total = head.total.max(1) as f64;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, duration_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            thread: 0,
            start_ns: 0,
            duration_ns,
            fields: Vec::new(),
        }
    }

    #[test]
    fn a_nested_tree_folds_to_exact_self_weights() {
        // session 1000 ⊃ {deletion 400 ⊃ eval 250, insertion 300}, in
        // close order (children first), as a collector receives them
        let profile = Profile::from_spans(&[
            span(3, Some(2), "eval.assignments", 250),
            span(2, Some(1), "clean.deletion_phase", 400),
            span(4, Some(1), "clean.insertion_phase", 300),
            span(1, None, "clean.session", 1_000),
        ]);
        assert_eq!(
            profile.to_folded(),
            "clean.session 300\n\
             clean.session;clean.deletion_phase 150\n\
             clean.session;clean.deletion_phase;eval.assignments 250\n\
             clean.session;clean.insertion_phase 300\n"
        );
        assert_eq!(profile.total, 1_000, "self weights sum to the root's wall");
        assert_eq!(profile.total_by_frame()["clean.deletion_phase"], 400);
    }

    #[test]
    fn repeated_stacks_merge() {
        let profile = Profile::from_spans(&[
            span(2, Some(1), "eval", 10),
            span(3, Some(1), "eval", 15),
            span(1, None, "session", 40),
        ]);
        assert_eq!(profile.counts()["session;eval"], 25);
        assert_eq!(profile.counts()["session"], 15);
    }

    #[test]
    fn a_child_that_outlasts_its_parent_saturates_to_zero() {
        let profile =
            Profile::from_spans(&[span(2, Some(1), "child", 700), span(1, None, "parent", 500)]);
        assert_eq!(profile.counts()["parent"], 0, "stack kept at weight 0");
        assert_eq!(profile.counts()["parent;child"], 700);
        assert_eq!(profile.total, 700);
    }

    #[test]
    fn a_missing_parent_starts_a_root() {
        // the parent closed outside the collected window
        let profile = Profile::from_spans(&[
            span(3, Some(2), "leaf", 20),
            span(2, Some(99), "orphan", 50),
        ]);
        assert_eq!(profile.to_folded(), "orphan 30\norphan;leaf 20\n");
    }

    #[test]
    fn a_span_on_another_thread_is_its_own_root() {
        let mut worker = span(2, None, "fanout.worker", 40);
        worker.thread = 1;
        let profile = Profile::from_spans(&[
            worker,
            span(3, Some(1), "fanout.join", 10),
            span(1, None, "fanout.root", 100),
        ]);
        assert_eq!(
            profile.to_folded(),
            "fanout.root 90\nfanout.root;fanout.join 10\nfanout.worker 40\n",
            "the worker's time is not charged to the root"
        );
    }

    #[test]
    fn a_deep_chain_is_cut_at_the_frame_cap() {
        let spans: Vec<SpanRecord> = (1..=200u64)
            .map(|id| span(id, (id > 1).then(|| id - 1), "deep", 1))
            .collect();
        let profile = Profile::from_spans(&spans);
        let deepest = profile.counts().keys().map(|k| k.split(';').count()).max();
        assert_eq!(deepest, Some(MAX_DEPTH));
        assert_eq!(profile.total, 1, "only the leaf has self time");
    }

    #[test]
    fn no_spans_fold_to_an_empty_profile() {
        let profile = Profile::from_spans(&[]);
        assert!(profile.counts().is_empty());
        assert_eq!(profile.total, 0);
    }

    #[test]
    fn folded_round_trips_and_totals_add_up() {
        let mut p = Profile::default();
        p.record("a;b;c", 4);
        p.record("a;b", 2);
        p.record("a;d", 1);
        p.record("a;b;c", 1); // merges with the first
        assert_eq!(p.total, 8);
        let folded = p.to_folded();
        assert_eq!(folded, "a;b 2\na;b;c 5\na;d 1\n");
        let parsed = Profile::parse_folded(&folded).unwrap();
        assert_eq!(parsed.counts(), p.counts());
        assert_eq!(parsed.total, 8);

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
        assert_eq!(p.total, 1);
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
}
