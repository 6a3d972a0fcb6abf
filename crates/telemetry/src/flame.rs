//! Self-contained flamegraph SVG rendering for folded-stack profiles.
//!
//! Zero dependencies, zero scripting: the output is a static SVG (icicle
//! orientation — roots at the top, leaves growing downward) with a
//! `<title>` tooltip per frame, viewable in any browser. Weights are
//! nanoseconds of span self time (see [`crate::Profile::from_spans`]).
//! Rendering is **deterministic**: frames are laid out in byte order of
//! their names and colored by a hash of the name, so two renders of the
//! same profile are byte-identical (the property `qoco-bench validate-flamegraph` and
//! the determinism test lean on).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Canvas width in px. Frame widths are fractions of this.
const WIDTH: f64 = 1200.0;
/// Height of one frame row in px.
const FRAME_H: f64 = 16.0;
/// Vertical space above the first row (title banner).
const TOP_PAD: f64 = 40.0;
/// Vertical space below the last row (span-time footer).
const BOTTOM_PAD: f64 = 24.0;
/// Frames narrower than this many px are dropped from the SVG — they are
/// invisible anyway and unbounded stacks would bloat the file.
const MIN_FRAME_W: f64 = 0.4;
/// Approximate px per character of the embedded monospace label.
const CHAR_W: f64 = 7.2;

#[derive(Default)]
struct Node {
    count: u64,
    children: BTreeMap<String, Node>,
}

fn build_tree(counts: &BTreeMap<String, u64>) -> (Node, usize) {
    let mut root = Node::default();
    let mut max_depth = 0usize;
    for (stack, &count) in counts {
        root.count += count;
        let mut cursor = &mut root;
        let mut depth = 0usize;
        for frame in stack.split(';') {
            cursor = cursor.children.entry(frame.to_string()).or_default();
            cursor.count += count;
            depth += 1;
        }
        max_depth = max_depth.max(depth);
    }
    (root, max_depth)
}

/// FNV-1a over the frame name: the sole source of per-frame color, so the
/// palette is stable across renders and processes.
fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Warm flamegraph palette (red→orange→yellow), hash-seeded per name.
fn frame_color(name: &str) -> String {
    let h = name_hash(name);
    let r = 205 + (h % 50) as u16;
    let g = ((h >> 8) % 180) as u16;
    let b = ((h >> 16) % 55) as u16;
    format!("rgb({r},{g},{b})")
}

fn escape_xml(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
    out
}

fn render_node(
    out: &mut String,
    name: &str,
    node: &Node,
    x: f64,
    depth: usize,
    per_ns: f64,
    total: u64,
) {
    let w = node.count as f64 * per_ns;
    if w >= MIN_FRAME_W {
        let y = TOP_PAD + depth as f64 * FRAME_H;
        let pct = 100.0 * node.count as f64 / total as f64;
        let esc = escape_xml(name);
        let _ = write!(
            out,
            r#"<g class="frame"><title>{esc} ({}, {pct:.2}%)</title>"#,
            crate::fmt_ns(node.count)
        );
        let _ = write!(
            out,
            r#"<rect x="{x:.2}" y="{y:.1}" width="{w:.2}" height="{h:.1}" fill="{fill}" rx="1"/>"#,
            h = FRAME_H - 1.0,
            fill = frame_color(name)
        );
        let fit = (w / CHAR_W) as usize;
        if fit >= 3 {
            let label: String = if name.chars().count() <= fit {
                esc
            } else {
                let cut: String = name.chars().take(fit.saturating_sub(2)).collect();
                format!("{}..", escape_xml(&cut))
            };
            let _ = write!(
                out,
                r#"<text x="{tx:.2}" y="{ty:.1}">{label}</text>"#,
                tx = x + 2.0,
                ty = y + FRAME_H - 4.5,
            );
        }
        out.push_str("</g>\n");
    }
    let mut child_x = x;
    for (child_name, child) in &node.children {
        render_node(out, child_name, child, child_x, depth + 1, per_ns, total);
        child_x += child.count as f64 * per_ns;
    }
}

/// Render folded-stack weights (`";"-joined stack → nanoseconds`) as a
/// self-contained flamegraph SVG. Deterministic: byte-identical output for
/// identical input. An empty profile renders a placeholder banner rather
/// than failing.
pub fn flamegraph_svg(counts: &BTreeMap<String, u64>, title: &str) -> String {
    let (root, max_depth) = build_tree(counts);
    let height = TOP_PAD + (max_depth.max(1) as f64) * FRAME_H + BOTTOM_PAD;
    let mut out = String::new();
    let _ = write!(
        out,
        r##"<?xml version="1.0" standalone="no"?>
<svg version="1.1" xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0}" height="{height:.0}" viewBox="0 0 {WIDTH:.0} {height:.0}">
<style>
text {{ font-family: monospace; font-size: 11px; fill: #202020; pointer-events: none; }}
.banner {{ font-size: 15px; font-weight: bold; }}
.footer {{ fill: #707070; }}
rect {{ stroke: #ffffff; stroke-width: 0.5; }}
.frame:hover rect {{ stroke: #000000; }}
</style>
<rect x="0" y="0" width="{WIDTH:.0}" height="{height:.0}" fill="#f8f8f8"/>
<text x="12" y="24" class="banner">{banner}</text>
"##,
        banner = escape_xml(title)
    );
    if root.count == 0 {
        let _ = write!(
            out,
            r#"<text x="12" y="{y:.1}">no span time recorded</text>"#,
            y = TOP_PAD + FRAME_H - 4.5
        );
        out.push('\n');
    } else {
        let per_ns = WIDTH / root.count as f64;
        let mut child_x = 0.0;
        for (name, child) in &root.children {
            render_node(&mut out, name, child, child_x, 0, per_ns, root.count);
            child_x += child.count as f64 * per_ns;
        }
    }
    let _ = write!(
        out,
        r#"<text x="12" y="{y:.1}" class="footer">{n} of span self time, {m} distinct stacks</text>
</svg>
"#,
        y = height - 8.0,
        n = crate::fmt_ns(root.count),
        m = counts.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_counts() -> BTreeMap<String, u64> {
        let mut counts = BTreeMap::new();
        counts.insert("session;eval;eval.satisfiable".to_string(), 40);
        counts.insert("session;eval".to_string(), 10);
        counts.insert("session;split".to_string(), 25);
        counts
    }

    #[test]
    fn rendering_is_deterministic() {
        let counts = sample_counts();
        let a = flamegraph_svg(&counts, "determinism check");
        let b = flamegraph_svg(&counts, "determinism check");
        assert_eq!(
            a, b,
            "two renders of the same profile must be byte-identical"
        );
    }

    #[test]
    fn structure_holds_one_rect_per_visible_frame() {
        let svg = flamegraph_svg(&sample_counts(), "t");
        // frames: session, eval, eval.satisfiable, split — all wide enough
        assert_eq!(svg.matches(r#"<g class="frame">"#).count(), 4);
        assert_eq!(svg.matches("<title>").count(), 4);
        assert!(svg.contains("session (75ns, 100.00%)"));
        assert!(svg.contains("eval.satisfiable (40ns, 53.33%)"));
        assert!(svg.contains("75ns of span self time, 3 distinct stacks"));
        assert!(svg.starts_with("<?xml"));
        assert!(svg.trim_end().ends_with("</svg>"));
    }

    #[test]
    fn sliver_frames_are_elided_but_layout_survives() {
        let mut counts = BTreeMap::new();
        counts.insert("root;big".to_string(), 100_000);
        counts.insert("root;tiny".to_string(), 1); // far below MIN_FRAME_W
        let svg = flamegraph_svg(&counts, "t");
        assert_eq!(
            svg.matches(r#"<g class="frame">"#).count(),
            2,
            "root + big; tiny elided"
        );
        assert!(!svg.contains(">tiny<"));
    }

    #[test]
    fn names_are_xml_escaped() {
        let mut counts = BTreeMap::new();
        counts.insert("a<b>&\"c\"".to_string(), 50);
        let svg = flamegraph_svg(&counts, "<&>");
        assert!(svg.contains("a&lt;b&gt;&amp;&quot;c&quot;"));
        assert!(svg.contains("&lt;&amp;&gt;"));
        assert!(!svg.contains("a<b>"));
    }

    #[test]
    fn empty_profile_renders_a_placeholder() {
        let svg = flamegraph_svg(&BTreeMap::new(), "empty");
        assert!(svg.contains("no span time recorded"));
        assert!(svg.contains("0ns of span self time, 0 distinct stacks"));
    }

    #[test]
    fn colors_are_stable_per_name() {
        assert_eq!(frame_color("eval"), frame_color("eval"));
        assert_ne!(frame_color("eval"), frame_color("split"));
    }
}
