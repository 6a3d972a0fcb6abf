//! Boundary robustness: every text parser at the system's edge — journal
//! lines, alert rules, queries, session specs, decision lines, fault specs,
//! tagged values and folded profiles — returns `Ok` or `Err` on mutants of
//! valid inputs, and never panics. A query that parses must also survive
//! `display()` and a second parse unchanged, and an accepted session spec
//! must survive `spec_json` and a second decode unchanged.
//!
//! The mutants are deterministic: every prefix and suffix, every
//! one-character deletion, and the insertion of each [`INSERTS`] token at
//! every position. A panic fails the test of the parser that raised it.

use std::sync::Arc;

use qoco::core::{decode_spec, spec_json};
use qoco::crowd::{parse_tagged_value, FaultPlan, Journal, JournalRecord};
use qoco::data::Schema;
use qoco::query::parse_query;
use qoco::telemetry::json::Json;
use qoco::telemetry::{parse_rule, DecisionLine, Profile};

/// Tokens inserted at every position of every seed: escape starters,
/// control characters, JSON openers, a multibyte character and numbers
/// that overflow `f64` and `i64`.
const INSERTS: [&str; 9] = [
    "\\",
    "\"",
    "\t",
    "\0",
    "{",
    "[",
    "é",
    "1e999",
    "99999999999999999999999",
];

/// Every mutant of `seed` (see the module docs), `seed` itself first.
fn mutants(seed: &str) -> Vec<String> {
    let bounds: Vec<usize> = seed
        .char_indices()
        .map(|(i, _)| i)
        .chain(std::iter::once(seed.len()))
        .collect();
    let mut out = vec![seed.to_string()];
    for &b in &bounds {
        out.push(seed[..b].to_string());
        out.push(seed[b..].to_string());
        for token in INSERTS {
            out.push(format!("{}{token}{}", &seed[..b], &seed[b..]));
        }
    }
    for w in bounds.windows(2) {
        out.push(format!("{}{}", &seed[..w[0]], &seed[w[1]..]));
    }
    out
}

/// Feed every mutant of every seed to `parse`; returns how many parsed.
fn fuzz(seeds: &[&str], mut parse: impl FnMut(&str) -> bool) -> usize {
    let mut accepted = 0;
    for seed in seeds {
        assert!(parse(seed), "seed must parse: {seed:?}");
        for m in mutants(seed) {
            accepted += usize::from(parse(&m));
        }
    }
    accepted
}

#[test]
fn mutants_cover_prefixes_suffixes_deletions_and_insertions() {
    let m = mutants("ab");
    for expected in ["ab", "", "a", "b", "\"ab", "a1e999b", "abé"] {
        assert!(m.iter().any(|s| s == expected), "missing {expected:?}");
    }
    // 3 boundaries × (prefix + suffix + 9 inserts) + 2 deletions + the seed
    assert_eq!(m.len(), 3 * 11 + 2 + 1);
}

#[test]
fn journal_parsers_never_panic() {
    let lines = [
        "1\tverify_fact\tok:bool:false\td=3\tr=qr-5",
        "2\tcomplete\tok:completion:x=s:GER,y=i:1990",
        "3\tcomplete_result\tok:missing:s:ITA|i:-7",
        "4\tverify_answer\terr:timeout",
        "5\tcomplete\tok:completion:-",
        "6\tcomplete_result\tok:missing:-\tr=a%3Ab",
    ];
    let accepted = fuzz(&lines, |l| JournalRecord::parse_line(l).is_ok());
    assert!(accepted > lines.len());
    let text = lines.join("\n") + "\n";
    fuzz(&[&text], |t| Journal::parse(t).is_ok());
}

#[test]
fn alert_rule_parser_never_panics() {
    fuzz(
        &[
            "rule crowd_errors: rate(crowd.faults, 30s) > 5/s for 10s => warn",
            "rule optimality: ratio(session.questions_asked, session.lower_bound) >= 3 => info",
            "rule slow: p95(eval.evaluate_ns) > 50000000 for 500ms => page",
            "rule exact: value(view.full_refreshes) < 1 => info",
        ],
        |l| parse_rule(l).is_ok(),
    );
}

fn world_cup() -> Arc<Schema> {
    Schema::builder()
        .relation("Games", &["date", "winner", "runner_up", "stage", "result"])
        .relation("Teams", &["country", "continent"])
        .build()
        .unwrap()
}

#[test]
fn query_parser_never_panics_and_accepted_queries_round_trip() {
    let s = world_cup();
    fuzz(
        &[
            r#"Q1(x) :- Games(d1, x, y, "Final", u1), Games(d2, x, z, "Final", u2), Teams(x, "EU"), d1 != d2."#,
            r#"(x, -3) :- Teams(x, "a\\b\"c\t\u{200b}"), x != "EU", x != 42"#,
        ],
        |text| {
            let Ok(q) = parse_query(&s, text) else {
                return false;
            };
            let shown = q.display();
            let again = parse_query(&s, &shown).unwrap_or_else(|e| {
                panic!("{text:?} parsed but its display {shown:?} did not: {e}")
            });
            assert_eq!(q.head(), again.head(), "{text:?}");
            assert_eq!(q.atoms(), again.atoms(), "{text:?}");
            assert_eq!(q.inequalities(), again.inequalities(), "{text:?}");
            true
        },
    );
}

#[test]
fn session_spec_decoder_never_panics_and_accepted_specs_round_trip() {
    let accepted = fuzz(
        &[
            r#"{"schema":[{"name":"Teams","attrs":["country","continent"]}],"rows":{"Teams":[["GER","EU"],["a\"b\\c\t",-7]]},"query":"Q(x) :- Teams(x, \"EU\")","deletion":"qoco-","split":"mincut","deadline_ms":60000}"#,
            r#"{"example":"figure1"}"#,
        ],
        |body| {
            let Ok(spec) = decode_spec(body) else {
                return false;
            };
            let rendered = spec_json(&spec)
                .unwrap_or_else(|e| panic!("{body:?} decoded but does not render: {e}"));
            let again = decode_spec(&rendered)
                .unwrap_or_else(|e| panic!("{body:?} rendered as {rendered:?}, which fails: {e}"));
            assert_eq!(spec_json(&again).as_ref(), Ok(&rendered), "{body:?}");
            true
        },
    );
    assert!(accepted > 2);
    let deep = format!(r#"{{"rows":{}}}"#, "[".repeat(10_000));
    let err = decode_spec(&deep).err().expect("deep rows rejected");
    assert!(err.contains("nesting too deep"), "{err}");
}

#[test]
fn json_and_decision_readers_never_panic() {
    let accepted = fuzz(
        &[
            r#"{"type":"decision","id":3,"at_ns":140,"span":2,"tid":0,"kind":"deletion.verify_fact","question":"TRUE(Games(\"12.07.98\"))?","outcome":"false","evidence":{"selector":"most-frequent","ranking":"g98=2 > g10=2"},"request":"qr-5"}"#,
            r#"{"type":"span","id":1,"name":"clean.session","children":[1,2.5e3,-0,null,true]}"#,
        ],
        |text| match Json::parse(text) {
            Ok(v) => {
                let _ = DecisionLine::from_json(&v);
                true
            }
            Err(_) => false,
        },
    );
    assert!(accepted > 2);
}

#[test]
fn fault_spec_parser_never_panics() {
    fuzz(
        &["seed=42, timeout=0.1, abstain=0.05, timeout.complete=0.5, fail@7=timeout, burst@50+10=abstain, drop@120"],
        |spec| spec.parse::<FaultPlan>().is_ok(),
    );
}

#[test]
fn tagged_value_parser_never_panics() {
    fuzz(&["s:GER", "i:1990", "i:-9223372036854775808"], |v| {
        parse_tagged_value(v).is_ok()
    });
}

#[test]
fn folded_profile_parser_never_panics() {
    fuzz(&["# header\n\na;b 2\na;b;c 5\na;d 1\n"], |text| {
        Profile::parse_folded(text).is_ok()
    });
}
