//! The session-spec JSON codec: `decode_spec(spec_json(s))` reproduces
//! `s`, the streaming decoder agrees with a walk of the `Json::parse` tree,
//! and member order does not matter. Text cells, attribute names and query
//! constants are drawn from awkward text: quotes, backslashes, tabs,
//! newlines, a leading `#`, empty strings and non-BMP characters.

use proptest::prelude::*;

use qoco_core::{
    decode_spec, spec_json, CleaningConfig, DeletionStrategy, SessionSpec, SplitStrategyKind,
};
use qoco_data::{Database, Fact, Schema, TextInterner, Tuple, Value};
use qoco_query::{Atom, ConjunctiveQuery, Inequality, Term, Var};
use qoco_telemetry::json::{push_json_str, Json, Reader};

/// Text that stresses the codec beyond what the `".*"` pool draws.
const FRAGMENTS: [&str; 10] = [
    "", "#lead", "\"", "\\", "\t", "\n", "🦀", "\u{1}", "a\\\"b", "雪→é",
];

/// The largest integers a spec can carry, both signs.
const EDGE_INTS: [i64; 4] = [8_999_999_999_999_999, -8_999_999_999_999_999, 0, -1];

fn text() -> impl Strategy<Value = String> {
    (any::<bool>(), ".*", 0..FRAGMENTS.len()).prop_map(|(pool, drawn, f)| {
        if pool {
            drawn
        } else {
            format!("{}{drawn}", FRAGMENTS[f])
        }
    })
}

fn cell() -> impl Strategy<Value = Value> {
    (0..4u8, text(), any::<i64>(), 0..EDGE_INTS.len()).prop_map(|(kind, t, n, e)| match kind {
        0 | 1 => Value::text(t),
        2 => Value::int(n % 9_000_000_000_000_000),
        _ => Value::int(EDGE_INTS[e]),
    })
}

fn rows(arity: usize) -> impl Strategy<Value = Vec<Vec<Value>>> {
    proptest::collection::vec(proptest::collection::vec(cell(), arity), 0..7)
}

/// A spec over `R(a…)`, `S(b…)` and a third relation with an awkward name
/// that the query never reads.
fn spec() -> impl Strategy<Value = SessionSpec> {
    (
        (1..4usize, 1..3usize, proptest::collection::vec(text(), 5)),
        (rows(3), rows(2), rows(1)),
        (cell(), cell(), text()),
        (0..3u8, 0..4u8, any::<u64>(), 0..3u64),
    )
        .prop_map(|((ar, as_, names), (r, s, t), (c1, c2, c3), strategy)| {
            let (deletion, split, seed, deadline) = strategy;
            let attrs = |n: usize, from: usize| -> Vec<&str> {
                (0..n)
                    .map(|i| names[(from + i) % names.len()].as_str())
                    .collect()
            };
            let schema = Schema::builder()
                .relation("R", &attrs(ar, 0))
                .relation("S", &attrs(as_, 2))
                .relation(&format!("#{}", names[4]), &attrs(1, 4))
                .build()
                .unwrap();
            let mut dirty = Database::empty(schema.clone());
            for (rel, rows, arity) in [(0usize, r, ar), (1, s, as_), (2, t, 1)] {
                let id = schema.rel_ids().nth(rel).unwrap();
                for row in rows {
                    let row: Vec<Value> = row.into_iter().cycle().take(arity).collect();
                    if row.len() == arity {
                        dirty.insert(Fact::new(id, Tuple::new(row))).unwrap();
                    }
                }
            }
            let (r_id, s_id) = (schema.rel_id("R").unwrap(), schema.rel_id("S").unwrap());
            let mut r_terms = vec![Term::var("x")];
            r_terms
                .extend((1..ar).map(|i| Term::cons(if i == 1 { c1.clone() } else { c2.clone() })));
            let s_terms = (0..as_).map(|i| Term::var(&format!("y{i}"))).collect();
            let query = ConjunctiveQuery::new(
                schema,
                "Q",
                vec![Term::var("x")],
                vec![Atom::new(r_id, r_terms), Atom::new(s_id, s_terms)],
                vec![
                    Inequality::new(Var::new("x"), Term::cons(c3.as_str())),
                    Inequality::new(Var::new("y0"), Term::cons(c2)),
                ],
            )
            .unwrap();
            SessionSpec {
                query,
                dirty,
                config: CleaningConfig {
                    deletion: match deletion {
                        0 => DeletionStrategy::Qoco,
                        1 => DeletionStrategy::QocoMinus,
                        _ => DeletionStrategy::Random(seed),
                    },
                    split: match split {
                        0 => SplitStrategyKind::Naive,
                        1 => SplitStrategyKind::MinCut,
                        2 => SplitStrategyKind::Provenance,
                        _ => SplitStrategyKind::Random(seed),
                    },
                    ..CleaningConfig::default()
                },
                deadline_ms: [None, Some(1), Some(seed % (1 << 53) + 1)][deadline as usize],
            }
        })
}

/// Each relation's rows, in arena order.
fn arena(db: &Database) -> Vec<Vec<Tuple>> {
    db.schema()
        .rel_ids()
        .map(|id| db.relation(id).iter().cloned().collect())
        .collect()
}

fn assert_same_spec(got: &SessionSpec, want: &SessionSpec) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.dirty.schema(), want.dirty.schema());
    prop_assert_eq!(got.query.name(), want.query.name());
    prop_assert_eq!(got.query.head(), want.query.head());
    prop_assert_eq!(got.query.atoms(), want.query.atoms());
    prop_assert_eq!(got.query.inequalities(), want.query.inequalities());
    prop_assert_eq!(got.config.deletion, want.config.deletion);
    prop_assert_eq!(got.config.split, want.config.split);
    prop_assert_eq!(got.config.max_iterations, want.config.max_iterations);
    prop_assert_eq!(
        got.config.insertion.max_assignments_per_subquery,
        want.config.insertion.max_assignments_per_subquery
    );
    prop_assert_eq!(got.deadline_ms, want.deadline_ms);
    prop_assert_eq!(arena(&got.dirty), arena(&want.dirty));
    Ok(())
}

/// The reference decoder for `rows`: a walk of the `Json::parse` tree.
fn tree_rows(body: &str, schema: &std::sync::Arc<Schema>) -> Database {
    let tree = Json::parse(body).unwrap();
    let mut db = Database::empty(schema.clone());
    let mut interner = TextInterner::new();
    if let Some(Json::Object(rows)) = tree.get("rows") {
        for (rel, tuples) in rows {
            let rel = schema.rel_id(rel).unwrap();
            for t in tuples.as_array().unwrap() {
                let cells = t
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|cell| match cell {
                        Json::String(s) => interner.text(s),
                        Json::Number(n) => Value::int(*n as i64),
                        other => panic!("not a cell: {other:?}"),
                    })
                    .collect();
                db.insert(Fact::new(rel, Tuple::new(cells))).unwrap();
            }
        }
    }
    db
}

/// The body's top-level members as `(key, raw value)` pairs, in order.
fn members(body: &str) -> Vec<(String, &str)> {
    let mut r = Reader::new(body);
    r.begin_object().unwrap();
    let mut out = Vec::new();
    while let Some(key) = r.next_key().unwrap() {
        out.push((key.into_owned(), r.skip().unwrap()));
    }
    out
}

fn object(members: &[(String, &str)]) -> String {
    let fields: Vec<String> = members
        .iter()
        .map(|(k, v)| {
            let mut field = String::new();
            push_json_str(&mut field, k);
            format!("{field}:{v}")
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn decoding_the_rendered_spec_reproduces_it(s in spec()) {
        let body = spec_json(&s).unwrap();
        let back = decode_spec(&body).unwrap_or_else(|e| panic!("{e}: {body}"));
        assert_same_spec(&back, &s)?;
        prop_assert_eq!(spec_json(&back).unwrap(), body);
    }

    #[test]
    fn the_streaming_decoder_builds_the_tree_walks_database(s in spec()) {
        let body = spec_json(&s).unwrap();
        let streamed = decode_spec(&body).unwrap();
        let reference = tree_rows(&body, s.dirty.schema());
        // the tree holds one relation per key, so arena order per relation
        // is comparable even though the tree sorts relations by name
        prop_assert_eq!(arena(&streamed.dirty), arena(&reference));
    }

    #[test]
    fn member_order_does_not_matter(s in spec()) {
        let body = spec_json(&s).unwrap();
        let mut parts = members(&body);
        prop_assert_eq!(parts[0].0.as_str(), "schema");
        prop_assert_eq!(parts[1].0.as_str(), "rows");
        parts.reverse();
        let reordered = object(&parts);
        let back = decode_spec(&reordered).unwrap_or_else(|e| panic!("{e}: {reordered}"));
        assert_same_spec(&back, &s)?;
        // rows before schema, the rest in place
        parts.reverse();
        parts.swap(0, 1);
        let rows_first = object(&parts);
        assert_same_spec(&decode_spec(&rows_first).unwrap(), &s)?;
    }
}

#[test]
fn the_figure1_example_renders_inline_and_reads_back() {
    let example =
        decode_spec(r#"{"example":"figure1","deadline_ms":5000,"split":"mincut"}"#).unwrap();
    let body = spec_json(&example).unwrap();
    assert!(body.starts_with(r#"{"schema":[{"name":"Games""#), "{body}");
    let back = decode_spec(&body).unwrap();
    assert_eq!(spec_json(&back).unwrap(), body);
    assert_eq!(back.deadline_ms, Some(5000));
    assert_eq!(back.config.split, SplitStrategyKind::MinCut);
}

#[test]
fn specs_the_api_cannot_express_do_not_render() {
    let base = decode_spec(r#"{"example":"figure1"}"#).unwrap();
    let schema = base.dirty.schema().clone();
    let teams = schema.rel_id("Teams").unwrap();
    for n in [
        9_000_000_000_000_000,
        -9_000_000_000_000_000,
        i64::MIN,
        i64::MAX,
    ] {
        let mut s = base.clone();
        s.dirty
            .insert(Fact::new(
                teams,
                Tuple::new(vec![Value::int(n), "EU".into()]),
            ))
            .unwrap();
        let err = spec_json(&s).unwrap_err();
        assert!(
            err.contains(&n.to_string()) && err.contains("Teams"),
            "{err}"
        );
    }
    let mut s = base.clone();
    s.config.insertion.max_assignments_per_subquery = 7;
    assert!(spec_json(&s).unwrap_err().contains("max_assignments 7"));
    let mut s = base.clone();
    s.config.max_iterations = 3;
    assert!(spec_json(&s).unwrap_err().contains("max_iterations 3"));
    for ms in [0, (1 << 53) + 1] {
        let mut s = base.clone();
        s.deadline_ms = Some(ms);
        assert!(spec_json(&s).unwrap_err().contains("deadline_ms"));
    }
}

#[test]
fn malformed_rows_are_named_errors() {
    let schema = r#""schema":[{"name":"T","attrs":["a","b"]}],"query":"Q(x) :- T(x, y)""#;
    for (rows, want) in [
        (
            r#"{"T":[["a","b"]],"T":[["c","d"]]}"#,
            "rows for T appear twice",
        ),
        (r#"{"T":[["a","b"]],"T":[]}"#, "rows for T appear twice"),
        (r#"{"T":5}"#, "rows for T must be an array"),
        (r#"{"U":[["a"]]}"#, "U"),
        (r#"{"T":["a"]}"#, "each row must be an array of cells"),
        (
            r#"{"T":[["a",1.5]]}"#,
            "expected a string or integer cell, got Number(1.5)",
        ),
        (r#"{"T":[["a",9e15]]}"#, "expected a string or integer cell"),
        (
            r#"{"T":[["a",[1]]]}"#,
            "expected a string or integer cell, got Array",
        ),
        (r#"{"T":[["a"]]}"#, "arity"),
        (r#"[]"#, "`rows` must be an object"),
    ] {
        for body in [
            format!(r#"{{{schema},"rows":{rows}}}"#),
            format!(r#"{{"rows":{rows},{schema}}}"#),
        ] {
            let err = decode_spec(&body)
                .err()
                .unwrap_or_else(|| panic!("accepted {body}"));
            assert!(err.contains(want), "{body}: {err}");
        }
        // an `example` makes the rows moot, whatever the member order
        for body in [
            format!(r#"{{"example":"figure1",{schema},"rows":{rows}}}"#),
            format!(r#"{{{schema},"rows":{rows},"example":"figure1"}}"#),
            format!(r#"{{"rows":{rows},{schema},"example":"figure1"}}"#),
            format!(r#"{{"example":"figure1","rows":{rows}}}"#),
        ] {
            if let Err(err) = decode_spec(&body) {
                panic!("{body}: {err}");
            }
        }
    }
    // empty rows for an unknown relation were always accepted
    let ok = format!(r#"{{{schema},"rows":{{"U":[],"T":[["a","b"]]}}}}"#);
    assert_eq!(decode_spec(&ok).unwrap().dirty.len(), 1);
    let twice = format!(r#"{{{schema},{schema}}}"#);
    assert_eq!(
        decode_spec(&twice).err().unwrap(),
        "member `schema` appears twice"
    );
    assert_eq!(
        decode_spec("[1]").err().unwrap(),
        "a session spec must be a JSON object"
    );
    assert!(decode_spec(&"[".repeat(10_000))
        .err()
        .unwrap()
        .contains("nesting too deep"));
    // rows nested far past the depth limit: an error, not a stack overflow,
    // whether they are skipped (before the schema) or decoded
    let deep = "[".repeat(10_000);
    for body in [
        format!(r#"{{"rows":{deep}"#),
        format!(r#"{{"rows":{{"T":{deep}"#),
        format!(r#"{{{schema},"rows":{{"T":{deep}"#),
    ] {
        let err = decode_spec(&body).err().expect("rejected");
        assert!(err.contains("nesting too deep"), "{err}");
    }
}

#[test]
fn many_distinct_keys_decode_quickly() {
    // About 1 MiB, the serve API's body cap. A duplicate-key check that
    // scans every earlier key takes minutes on these bodies.
    let keys = |value: &str| -> String {
        (0..100_000)
            .map(|i| format!(r#""k{i:06}":{value}"#))
            .collect::<Vec<_>>()
            .join(",")
    };
    let schema = r#""schema":[{"name":"T","attrs":["a"]}],"query":"Q(x) :- T(x)""#;
    let rows = keys("[]");
    let started = std::time::Instant::now();
    assert_eq!(
        decode_spec(&format!("{{{}}}", keys("0"))).err().unwrap(),
        "`schema` must be an array of {name, attrs} relations"
    );
    for body in [
        format!(r#"{{{schema},"rows":{{{rows}}}}}"#),
        format!(r#"{{"rows":{{{rows}}},{schema}}}"#),
    ] {
        assert_eq!(decode_spec(&body).unwrap().dirty.len(), 0);
    }
    let elapsed = started.elapsed();
    assert!(elapsed.as_secs() < 10, "took {elapsed:?}");
}
