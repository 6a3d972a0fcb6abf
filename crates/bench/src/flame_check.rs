//! Structural validation of flamegraph SVG files.
//!
//! `scripts/ci.sh` renders a flamegraph from the smoke-run profile and
//! needs to know the SVG is actually well-formed — without a browser. The
//! checks mirror what [`qoco_telemetry::flamegraph_svg`] guarantees: an
//! `<svg>` document with matched frame groups, each carrying exactly one
//! `<title>` tooltip and one `<rect>` whose coordinates are finite,
//! non-negative numbers inside the canvas.

use std::collections::BTreeSet;

/// Summary of a structurally valid flamegraph.
#[derive(Debug)]
pub struct FlameSummary {
    /// Number of frame groups (`<g class="frame">`).
    pub frames: usize,
    /// Distinct frame names extracted from the tooltips.
    pub frame_names: BTreeSet<String>,
}

/// The attribute `name="..."` inside `tag`, if present.
fn attr<'a>(tag: &'a str, name: &str) -> Option<&'a str> {
    let pat = format!("{name}=\"");
    let start = tag.find(&pat)? + pat.len();
    let end = tag[start..].find('"')? + start;
    Some(&tag[start..end])
}

fn numeric_attr(tag: &str, name: &str, frame: usize) -> Result<f64, String> {
    let raw = attr(tag, name)
        .ok_or_else(|| format!("frame {frame}: rect has no \"{name}\" attribute"))?;
    let v: f64 = raw
        .parse()
        .map_err(|_| format!("frame {frame}: rect {name}=\"{raw}\" is not a number"))?;
    if !v.is_finite() {
        return Err(format!("frame {frame}: rect {name} is not finite"));
    }
    Ok(v)
}

fn unescape_xml(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&")
}

/// Validate `text` as a flamegraph SVG. `require_frames` lists frame names
/// that must each appear in at least one tooltip.
pub fn validate_flamegraph(text: &str, require_frames: &[String]) -> Result<FlameSummary, String> {
    if !text.starts_with("<?xml") && !text.trim_start().starts_with("<svg") {
        return Err("not an SVG document (no <?xml or <svg prologue)".to_string());
    }
    let svg_open_at = text.find("<svg").ok_or("no <svg element")?;
    let svg_open_end = text[svg_open_at..]
        .find('>')
        .ok_or("unterminated <svg tag")?
        + svg_open_at;
    let svg_tag = &text[svg_open_at..=svg_open_end];
    if !text.contains("</svg>") {
        return Err("no closing </svg>".to_string());
    }
    let width = numeric_attr(svg_tag, "width", 0).map_err(|_| "svg has no numeric width")?;
    let height = numeric_attr(svg_tag, "height", 0).map_err(|_| "svg has no numeric height")?;

    let mut frames = 0usize;
    let mut frame_names = BTreeSet::new();
    let mut rest = text;
    while let Some(start) = rest.find(r#"<g class="frame">"#) {
        let after = &rest[start..];
        let end = after
            .find("</g>")
            .ok_or_else(|| format!("frame {frames}: unterminated <g> group"))?;
        let group = &after[..end];
        frames += 1;

        // exactly one tooltip, of the renderer's `name (N samples, P%)` form
        let title_at = group
            .find("<title>")
            .ok_or_else(|| format!("frame {frames}: no <title> tooltip"))?;
        let title_end = group
            .find("</title>")
            .ok_or_else(|| format!("frame {frames}: unterminated <title>"))?;
        let title = &group[title_at + "<title>".len()..title_end];
        let name = title
            .rsplit_once(" (")
            .filter(|(_, tail)| tail.contains("samples"))
            .map(|(name, _)| name)
            .ok_or_else(|| {
                format!("frame {frames}: tooltip `{title}` lacks a `(N samples, P%)` suffix")
            })?;
        frame_names.insert(unescape_xml(name));

        // exactly one rect, inside the canvas
        let rect_at = group
            .find("<rect")
            .ok_or_else(|| format!("frame {frames}: no <rect>"))?;
        let rect_end = group[rect_at..]
            .find("/>")
            .ok_or_else(|| format!("frame {frames}: unterminated <rect>"))?
            + rect_at;
        let rect = &group[rect_at..rect_end];
        let x = numeric_attr(rect, "x", frames)?;
        let y = numeric_attr(rect, "y", frames)?;
        let w = numeric_attr(rect, "width", frames)?;
        let h = numeric_attr(rect, "height", frames)?;
        if x < 0.0 || y < 0.0 || w <= 0.0 || h <= 0.0 {
            return Err(format!(
                "frame {frames}: rect ({x}, {y}, {w}×{h}) has a non-positive extent"
            ));
        }
        // float rounding in the renderer stays well under half a pixel
        if x + w > width + 0.5 || y + h > height + 0.5 {
            return Err(format!(
                "frame {frames}: rect ({x}, {y}, {w}×{h}) exceeds the {width}×{height} canvas"
            ));
        }
        rest = &rest[start + "<g".len()..];
    }

    if frames == 0 {
        return Err("no frame groups — the flamegraph is empty".to_string());
    }
    for required in require_frames {
        if !frame_names.contains(required) {
            return Err(format!(
                "required frame \"{required}\" not present (have: {})",
                frame_names.iter().cloned().collect::<Vec<_>>().join(", ")
            ));
        }
    }
    Ok(FlameSummary {
        frames,
        frame_names,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoco_telemetry::Profile;

    fn rendered() -> String {
        let mut p = Profile::default();
        p.record("clean.session;eval.assignments;eval.satisfiable", 40);
        p.record("clean.session;eval.assignments", 10);
        p.record("clean.session;split.compute", 25);
        p.flamegraph_svg("test profile")
    }

    #[test]
    fn accepts_the_renderer_output() {
        let summary = validate_flamegraph(&rendered(), &[]).unwrap();
        assert_eq!(summary.frames, 4);
        assert!(summary.frame_names.contains("eval.satisfiable"));
    }

    #[test]
    fn require_frame_is_enforced() {
        let svg = rendered();
        assert!(validate_flamegraph(&svg, &["clean.session".to_string()]).is_ok());
        let err = validate_flamegraph(&svg, &["not.there".to_string()]).unwrap_err();
        assert!(err.contains("not.there"), "{err}");
        assert!(
            err.contains("clean.session"),
            "error lists what exists: {err}"
        );
    }

    #[test]
    fn rejects_non_svg_and_truncated_documents() {
        assert!(validate_flamegraph("{}", &[]).is_err());
        let svg = rendered();
        let truncated = &svg[..svg.len() - 10];
        assert!(validate_flamegraph(truncated, &[]).is_err());
    }

    #[test]
    fn rejects_an_empty_flamegraph() {
        let svg = Profile::default().flamegraph_svg("empty");
        let err = validate_flamegraph(&svg, &[]).unwrap_err();
        assert!(err.contains("empty"), "{err}");
    }

    #[test]
    fn rejects_rects_outside_the_canvas() {
        let svg = rendered().replacen("<rect x=\"0.00\"", "<rect x=\"5000.00\"", 1);
        let err = validate_flamegraph(&svg, &[]).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn escaped_names_round_trip_through_tooltips() {
        let mut p = Profile::default();
        p.record("a<b>&frame", 10);
        let svg = p.flamegraph_svg("t");
        let summary = validate_flamegraph(&svg, &["a<b>&frame".to_string()]).unwrap();
        assert!(summary.frame_names.contains("a<b>&frame"));
    }
}
