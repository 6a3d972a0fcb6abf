//! Structural validation of decision-provenance JSONL exports.
//!
//! `qoco-cli --telemetry <path>` streams one JSON object per line; the
//! `"type":"decision"` lines are the decision-provenance record stream
//! (see `qoco-telemetry`'s `DecisionRecord`). CI runs
//! `qoco-bench validate-decisions FILE` over a real session export to gate
//! on the stream staying machine-readable: every decision must carry a
//! positive, unique integer id, a non-empty `kind`, string `question` and
//! `outcome`, and a string-valued `evidence` object. Each line is decoded
//! by [`DecisionLine::from_json`]; only the id uniqueness check lives here.

use std::collections::BTreeSet;

use crate::json::Json;
use qoco_telemetry::DecisionLine;

/// What [`validate_decisions`] found in a valid export.
#[derive(Debug)]
pub struct DecisionSummary {
    /// Number of `"type":"decision"` lines.
    pub decisions: usize,
    /// Distinct decision kinds seen, sorted.
    pub kinds: BTreeSet<String>,
}

/// Validate every decision line of a telemetry JSONL export. Non-decision
/// lines (spans, events, metrics) are parsed but otherwise ignored.
/// `require_kinds` lists decision kinds that must appear at least once.
pub fn validate_decisions(text: &str, require_kinds: &[String]) -> Result<DecisionSummary, String> {
    let mut seen_ids: BTreeSet<u64> = BTreeSet::new();
    let mut kinds: BTreeSet<String> = BTreeSet::new();
    let mut decisions = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let lineno = i + 1;
        let v = Json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let Some(d) = DecisionLine::from_json(&v).map_err(|e| format!("line {lineno}: {e}"))?
        else {
            continue;
        };
        decisions += 1;
        if !seen_ids.insert(d.id) {
            return Err(format!("line {lineno}: duplicate decision id {}", d.id));
        }
        kinds.insert(d.kind);
    }
    for k in require_kinds {
        if !kinds.contains(k) {
            return Err(format!(
                "no `{k}` decision in the log (kinds seen: {kinds:?})"
            ));
        }
    }
    Ok(DecisionSummary { decisions, kinds })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = concat!(
        r#"{"type":"span","name":"clean.session","start_ns":0,"end_ns":9}"#,
        "\n",
        r#"{"type":"decision","id":1,"at_ns":5,"tid":0,"kind":"deletion.plan","question":"q","outcome":"o","evidence":{"witnesses":"{a}"}}"#,
        "\n",
        r#"{"type":"decision","id":2,"at_ns":7,"span":3,"tid":0,"kind":"deletion.verify_fact","question":"TRUE(a)?","outcome":"false","evidence":{}}"#,
        "\n",
    );

    #[test]
    fn accepts_a_well_formed_export() {
        let s = validate_decisions(GOOD, &["deletion.plan".to_string()]).unwrap();
        assert_eq!(s.decisions, 2);
        assert!(s.kinds.contains("deletion.verify_fact"));
    }

    #[test]
    fn missing_required_kind_is_an_error() {
        let err = validate_decisions(GOOD, &["deletion.certificate".to_string()]).unwrap_err();
        assert!(err.contains("deletion.certificate"), "{err}");
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let dup = GOOD.replace("\"id\":2", "\"id\":1");
        let err = validate_decisions(&dup, &[]).unwrap_err();
        assert!(err.contains("duplicate decision id 1"), "{err}");
    }

    #[test]
    fn malformed_decisions_are_rejected() {
        for (broken, want) in [
            (GOOD.replace("\"id\":1", "\"id\":0"), "positive integer"),
            (GOOD.replace("\"question\":\"q\",", ""), "missing string"),
            (
                GOOD.replace(r#""evidence":{"witnesses":"{a}"}"#, r#""evidence":7"#),
                "evidence object",
            ),
            (
                GOOD.replace(r#""witnesses":"{a}""#, r#""witnesses":12"#),
                "not a string",
            ),
        ] {
            let err = validate_decisions(&broken, &[]).unwrap_err();
            assert!(err.contains(want), "expected {want:?} in {err}");
        }
    }

    #[test]
    fn non_json_line_is_an_error() {
        assert!(validate_decisions("not json\n", &[]).is_err());
    }
}
