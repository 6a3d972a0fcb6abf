//! Profiling one scaling-sweep cell from its spans.
//!
//! `qoco-bench profile CELL` and `qoco-bench regressions --attribute` both
//! need the same thing: run a named cell of the eval sweep (see
//! [`crate::scaling`]) in a loop under an in-memory telemetry session and
//! fold the closed spans ([`Profile::from_spans`]), so a ±25% gate failure
//! can be localized to a phase (`eval.assignments`, `view.apply_edit`, …)
//! instead of a whole cell.
//!
//! The `--inject-slowdown` plumbing multiplies a *recorded mean* after
//! measurement — a number, not work, so a profile would never see it. For
//! attribution runs the injection is re-materialized as real CPU time: a
//! busy-wait inside a span named `inject.slowdown`, sized so the iteration
//! slows by the injected factor. The profile then names `inject.slowdown`
//! as the top frame, which is exactly the property CI asserts.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qoco_data::Edit;
use qoco_engine::{answer_set, evaluate, MaterializedView};
use qoco_telemetry::{diff_profiles, fmt_ns, InMemoryCollector, Profile};

use crate::scaling::{cleaning_cycle_facts, dense_workload, selective_workload};

/// A parsed `workload/size/engine` cell key.
pub struct CellSpec {
    /// `"selective"`, `"dense"` or `"cleaning_sweep"`.
    pub workload: &'static str,
    /// Tuples per relation.
    pub size: usize,
    /// `"current"` for the eval workloads, `"view"` or `"fullre"` for
    /// `cleaning_sweep`.
    pub engine: &'static str,
}

/// Parse a sweep cell key (e.g. `selective/1000/current` or
/// `cleaning_sweep/1000/view`). The seed engine cannot be profiled: it
/// is a frozen calibration artifact with no span instrumentation, so its
/// profile would be empty.
pub fn parse_cell(key: &str) -> Result<CellSpec, String> {
    let parts: Vec<&str> = key.split('/').collect();
    let [workload, size, engine] = parts[..] else {
        return Err(format!(
            "cell `{key}` is not of the form workload/size/engine"
        ));
    };
    let (workload, engine) = match (workload, engine) {
        ("selective", "current") => ("selective", "current"),
        ("dense", "current") => ("dense", "current"),
        ("cleaning_sweep", "view") => ("cleaning_sweep", "view"),
        ("cleaning_sweep", "fullre") => ("cleaning_sweep", "fullre"),
        ("selective" | "dense", other) => {
            return Err(format!(
                "only `current` engine cells can be profiled (got `{other}`): \
                 the seed engine carries no span instrumentation"
            ));
        }
        ("cleaning_sweep", other) => {
            return Err(format!(
                "cleaning_sweep engine must be `view` or `fullre` (got `{other}`)"
            ));
        }
        (other, _) => {
            return Err(format!(
                "unknown workload `{other}` (selective|dense|cleaning_sweep)"
            ));
        }
    };
    let size: usize = size
        .parse()
        .map_err(|_| format!("cell size `{size}` is not a number"))?;
    if size == 0 {
        return Err("cell size must be positive".to_string());
    }
    Ok(CellSpec {
        workload,
        size,
        engine,
    })
}

/// How much of the budget runs between two folds of the collected spans.
const PROFILE_SLICE: Duration = Duration::from_millis(50);

/// Run `cell` in a loop for `budget` and return the profile folded from
/// its spans. `inject_factor` re-materializes an injected slowdown as real
/// busy-wait time inside an `inject.slowdown` span (see the module docs);
/// pass `None` for an honest profile.
pub fn profile_cell(
    cell: &str,
    budget: Duration,
    inject_factor: Option<f64>,
) -> Result<Profile, String> {
    let spec = parse_cell(cell)?;
    // One iteration of the cell's measured unit: a full evaluation for the
    // eval workloads, a single edit (+ answer-set maintenance) for
    // `cleaning_sweep`.
    let mut iteration: Box<dyn FnMut()> = match spec.workload {
        "cleaning_sweep" => {
            let (mut db, q) = selective_workload(spec.size);
            // match the sweep's measurement: steady-state edits, with the
            // one-time lazy index builds paid before profiling starts
            db.ensure_indexes();
            let cycle = cleaning_cycle_facts(&q, spec.size);
            let mut step = 0usize;
            let mut next_edit = move || {
                let f = &cycle[(step / 2) % cycle.len()];
                let e = if step.is_multiple_of(2) {
                    Edit::delete(f.clone())
                } else {
                    Edit::insert(f.clone())
                };
                step += 1;
                e
            };
            if spec.engine == "view" {
                let mut view = MaterializedView::new(q.clone(), &db);
                Box::new(move || {
                    let e = next_edit();
                    db.apply(&e).expect("valid edit");
                    view.apply_edit(&db, &e);
                })
            } else {
                Box::new(move || {
                    let e = next_edit();
                    db.apply(&e).expect("valid edit");
                    answer_set(&q, &db);
                })
            }
        }
        _ => {
            let (db, q) = match spec.workload {
                "selective" => selective_workload(spec.size),
                _ => dense_workload(spec.size),
            };
            Box::new(move || {
                evaluate(&q, &db);
            })
        }
    };
    // Warm-up before the session starts: lazy index builds (and the
    // initial view materialization) would otherwise smear one-time setup
    // over the profile.
    iteration();
    let collector = Arc::new(InMemoryCollector::new());
    let session = qoco_telemetry::session(collector.clone());
    let mut profile = Profile::default();
    let started = Instant::now();
    while started.elapsed() < budget {
        // Fold one slice at a time, each under its own root, so memory is
        // bounded by one slice's spans however long the budget.
        {
            let _root = qoco_telemetry::span("profile.cell");
            let slice_started = Instant::now();
            while slice_started.elapsed() < PROFILE_SLICE && started.elapsed() < budget {
                let iter_started = Instant::now();
                iteration();
                if let Some(factor) = inject_factor.filter(|f| *f > 1.0) {
                    let spin = iter_started.elapsed().mul_f64(factor - 1.0);
                    let _injected = qoco_telemetry::span("inject.slowdown");
                    let spin_started = Instant::now();
                    while spin_started.elapsed() < spin {
                        std::hint::spin_loop();
                    }
                }
            }
        }
        for (stack, &weight) in Profile::from_spans(&collector.spans()).counts() {
            profile.record(stack, weight);
        }
        collector.clear();
    }
    drop(session);
    Ok(profile)
}

/// `name pct%` pairs for the `n` frames with the most self time — the
/// one-line attribution used in gate-failure messages.
pub fn top_frames_line(profile: &Profile, n: usize) -> String {
    let total = profile.total.max(1) as f64;
    profile
        .top_self(n)
        .into_iter()
        .map(|(frame, count)| format!("{frame} {:.1}%", 100.0 * count as f64 / total))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Human-readable frame-share diff of two folded profiles: every frame
/// whose share moved at least `min_delta` (fraction of the total), grown
/// frames first.
pub fn render_diff(base: &Profile, head: &Profile, min_delta: f64) -> String {
    let deltas = diff_profiles(base, head);
    let mut out = format!(
        "frame share diff (base {}, head {}; showing |Δ| ≥ {:.0}%):\n",
        fmt_ns(base.total),
        fmt_ns(head.total),
        min_delta * 100.0
    );
    out.push_str(&format!(
        "{:<40} {:>8} {:>8} {:>8}\n",
        "frame", "base", "head", "delta"
    ));
    let mut shown = 0;
    for d in &deltas {
        if d.delta.abs() < min_delta {
            continue;
        }
        shown += 1;
        out.push_str(&format!(
            "{:<40} {:>7.1}% {:>7.1}% {:>+7.1}%\n",
            d.frame,
            d.base_share * 100.0,
            d.head_share * 100.0,
            d.delta * 100.0
        ));
    }
    if shown == 0 {
        out.push_str("(no frame moved that much — the profiles agree)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_keys_parse_and_reject() {
        let c = parse_cell("selective/1000/current").unwrap();
        assert_eq!(c.workload, "selective");
        assert_eq!(c.size, 1000);
        assert!(parse_cell("selective/1000").is_err());
        assert!(parse_cell("selective/1000/current/2").is_err());
        assert!(parse_cell("mystery/1000/current").is_err());
        assert!(
            parse_cell("dense/1000/seed").is_err(),
            "seed not profilable"
        );
        assert!(parse_cell("dense/x/current").is_err());
        assert!(parse_cell("dense/0/current").is_err());
        let c = parse_cell("cleaning_sweep/1000/view").unwrap();
        assert_eq!(c.workload, "cleaning_sweep");
        assert_eq!(c.engine, "view");
        assert_eq!(
            parse_cell("cleaning_sweep/1000/fullre").unwrap().engine,
            "fullre"
        );
        assert!(
            parse_cell("cleaning_sweep/1000/current").is_err(),
            "cleaning cells have no `current` engine"
        );
    }

    #[test]
    fn profiling_a_cleaning_cell_yields_view_frames() {
        let profile =
            profile_cell("cleaning_sweep/300/view", Duration::from_millis(80), None).unwrap();
        let totals = profile.total_by_frame();
        assert!(totals.contains_key("profile.cell"));
        assert!(
            totals.contains_key("view.apply_edit"),
            "view sweep time should be under view.apply_edit: {:?}",
            profile.counts()
        );
        // delta maintenance runs small *seeded* evaluations nested under
        // view.apply_edit; what must vanish is the top-level full
        // re-evaluation the fullre engine pays per edit
        assert!(
            !profile
                .counts()
                .contains_key("profile.cell;eval.assignments"),
            "view sweep should not re-evaluate from scratch: {:?}",
            profile.counts()
        );
    }

    #[test]
    fn profiling_a_small_cell_yields_eval_frames() {
        let profile = profile_cell("dense/300/current", Duration::from_millis(80), None).unwrap();
        assert!(profile.total > 0);
        let totals = profile.total_by_frame();
        assert!(
            totals.contains_key("eval.assignments"),
            "eval frames missing from {:?}",
            profile.counts()
        );
        assert!(totals.contains_key("profile.cell"));
    }

    #[test]
    fn injected_slowdown_dominates_the_profile() {
        let profile =
            profile_cell("dense/300/current", Duration::from_millis(80), Some(4.0)).unwrap();
        let top = profile.top_self(1);
        assert_eq!(
            top[0].0,
            "inject.slowdown",
            "a ×4 injection must own the top self frame: {:?}",
            profile.top_self(5)
        );
    }

    #[test]
    fn top_frames_line_formats_shares() {
        let mut p = Profile::default();
        p.record("a;b", 75);
        p.record("a;c", 25);
        assert_eq!(top_frames_line(&p, 2), "b 75.0%, c 25.0%");
    }

    #[test]
    fn diff_rendering_flags_grown_frames() {
        let mut base = Profile::default();
        base.record("cell;eval", 80);
        base.record("cell;probe", 20);
        let mut head = Profile::default();
        head.record("cell;eval", 40);
        head.record("cell;probe", 60);
        let text = render_diff(&base, &head, 0.05);
        let probe_line = text.lines().find(|l| l.starts_with("probe")).unwrap();
        assert!(probe_line.contains("+40.0%"), "{text}");
        let flat = render_diff(&base, &base, 0.05);
        assert!(flat.contains("profiles agree"), "{flat}");
    }
}
