//! Comparing two folded span profiles.
//!
//! `qoco-bench profile --diff BASE HEAD` reads two folded-stack files (as
//! written by `qoco-cli --profile` or `figures --profile`) and reports every
//! frame whose share of the total self time moved, so a slowdown between
//! two runs of one session can be localized to a phase (`eval.assignments`,
//! `view.apply_edit`, …).

use qoco_telemetry::{diff_profiles, fmt_ns, Profile};

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
