//! `qoco-cli` — a scriptable shell around the QOCO library.
//!
//! Reads commands from stdin (one per line), so it works interactively and
//! in pipelines. A session declares a schema, loads a dirty database (and
//! optionally a ground-truth database that backs a simulated oracle),
//! defines conjunctive queries, inspects answers, and runs cleaning.
//!
//! ```text
//! relation Teams country continent
//! relation Games date winner runner_up stage result
//! load data/dirty
//! ground data/truth
//! query Q1(x) :- Games(d1, x, y, "Final", u1), Games(d2, x, z, "Final", u2), Teams(x, "EU"), d1 != d2.
//! show Q1
//! clean Q1 qoco provenance
//! save data/cleaned
//! quit
//! ```
//!
//! Observability flags (combinable):
//!
//! * `--telemetry <path>` — stream a JSON-lines export of the session
//!   (spans, events and a final metrics snapshot) for offline inspection.
//! * `--trace <path>` — write a Chrome trace-event file at exit; open it
//!   in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//! * `--metrics-port <port>` — serve the live metrics registry in
//!   Prometheus text format on `127.0.0.1:<port>/metrics` (port 0 picks
//!   an ephemeral port; the bound address is printed to stderr).
//! * `--profile <path>` — fold the session's spans into a profile
//!   weighted by self time and write it at exit: a self-contained
//!   flamegraph SVG when the path ends in `.svg`, folded stack lines
//!   (`clean.session;eval.assignments 412000`, in nanoseconds) otherwise.
//!   The profile is exact: every span that closed is in it.
//! * `--watch-rules <file>` — load qoco-watch SLO/alert rules (one
//!   `rule name: expr cmp threshold [for dur] => severity` per line) and
//!   run the time-series watch for the whole session. Alert lifecycle
//!   edges land in the telemetry export and Chrome trace; the live state
//!   is served on `/alerts` and `/dashboard` when `--metrics-port` is
//!   also given, and the sampled series rides in the `--telemetry` export
//!   as `"type":"sample"` lines for `qoco-bench watch-replay`.
//! * `--watch-tick <ms|logical>` — how the watch samples: a wall-clock
//!   interval in milliseconds, or `logical` (the default) ticking once per
//!   crowd answer — deterministic, so fresh and resumed sessions export
//!   identical series. Implies a watch even without `--watch-rules`.
//!
//! Robustness flags (combinable with the above):
//!
//! * `--faults <spec>` — inject deterministic crowd faults into the
//!   simulated oracle (e.g. `seed=42,timeout=0.1,drop@120`; see
//!   `FaultPlan` for the grammar).
//! * `--journal <path>` — write-ahead journal every oracle outcome to a
//!   fresh file, so a killed session can be resumed.
//! * `--resume <path>` — replay a journal written by a previous (killed)
//!   run, then continue the session appending to the same file. Mutually
//!   exclusive with `--journal`.
//! * `--kill-after <n>` — chaos harness: exit the process (code 86) after
//!   the n-th crowd answer, *after* its journal record is flushed. Pair
//!   with `--journal`, then `--resume` to exercise crash recovery.
//!
//! Commands: `relation <name> <attrs…>`, `load <dir>`, `ground <dir>`,
//! `query <datalog>`, `show <name>`, `witnesses <name> <v1> [v2 …]`,
//! `explain <name>` (the evaluation plan), `minimize <name>` (the query
//! core), `clean <name> [qoco|qoco-|random]
//! [provenance|mincut|random|naive]`, `transcript` (the crowd Q/A log of
//! the last clean), `diff`, `facts`, `save <dir>`, `help`, `quit`.
//!
//! ## `qoco-cli explain <file>`
//!
//! A separate top-level subcommand (no stdin session): render a
//! human-readable audit report of *why* every oracle question of a past
//! cleaning session was asked. The input is either
//!
//! * a decision log — the JSONL written by `--telemetry <path>`, whose
//!   `"type":"decision"` lines carry the question, its structured evidence
//!   (witness sets, frequency rankings, Theorem 4.5 certificates, split
//!   paths, retry policies) and the outcome; or
//! * a journal file written by `--journal <path>`, whose records are
//!   rendered with their `d=<id>` decision tags (outcomes only — the
//!   evidence lives in the decision log).
//!
//! The report is deterministic and timestamp-free, so a fresh run and a
//! `--kill-after` + `--resume` run of the same session produce
//! byte-identical reports.

use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use qoco::core::{clean_view, CleaningConfig, DeletionStrategy, SplitStrategyKind};
use qoco::crowd::{
    Answer, CrowdAccess, FaultPlan, FaultyOracle, Journal, JournalRecord, Oracle, OracleError,
    PerfectOracle, Question, RecordingCrowd, SingleExpert, TranscriptEntry,
};
use qoco::data::{diff, load_dir, save_dir, Database, Schema, SchemaBuilder, Value};
use qoco::engine::{answer_set, explain, witnesses_for_answer};
use qoco::query::{parse_query, ConjunctiveQuery};
use qoco_telemetry::json::Json;
use qoco_telemetry::DecisionLine;

/// Exit code of a `--kill-after` abort, distinct from ordinary failures so
/// scripts (and `scripts/ci.sh`) can assert the death was the deliberate one.
const KILL_EXIT: i32 = 86;

/// How `clean` assembles its simulated crowd: fault injection, write-ahead
/// journaling, and the chaos kill switch. All `clean` commands of one
/// process share the journal sequence and the answer budget.
struct CrowdOptions {
    faults: FaultPlan,
    journal: Option<Journal>,
    kill_after: Option<u64>,
    answered: Arc<AtomicU64>,
}

impl CrowdOptions {
    fn build_oracle(&self, ground: Database) -> KillSwitch<Box<dyn Oracle>> {
        let faulty = FaultyOracle::new(PerfectOracle::new(ground), self.faults.clone());
        let inner: Box<dyn Oracle> = match &self.journal {
            Some(j) => Box::new(j.wrap(faulty)),
            None => Box::new(faulty),
        };
        KillSwitch {
            inner,
            kill_after: self.kill_after,
            answered: self.answered.clone(),
        }
    }
}

/// Counts answers process-wide and aborts once the budget is spent. Sits
/// *outside* the journal in the oracle stack, so the write-ahead record of
/// the final answer is flushed before death — exactly the crash point the
/// journal is designed to survive.
struct KillSwitch<O: Oracle> {
    inner: O,
    kill_after: Option<u64>,
    answered: Arc<AtomicU64>,
}

impl<O: Oracle> Oracle for KillSwitch<O> {
    fn answer(&mut self, q: &Question) -> Result<Answer, OracleError> {
        let out = self.inner.answer(q);
        let n = self.answered.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(limit) = self.kill_after {
            if n >= limit {
                eprintln!("kill switch: exiting after {n} crowd answer(s)");
                std::process::exit(KILL_EXIT);
            }
        }
        out
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

struct Session {
    builder: Option<SchemaBuilder>,
    schema: Option<Arc<Schema>>,
    db: Option<Database>,
    ground: Option<Database>,
    queries: BTreeMap<String, ConjunctiveQuery>,
    last_transcript: Vec<TranscriptEntry>,
    crowd_opts: CrowdOptions,
}

impl Session {
    fn new(crowd_opts: CrowdOptions) -> Self {
        Session {
            builder: Some(Schema::builder()),
            schema: None,
            db: None,
            ground: None,
            queries: BTreeMap::new(),
            last_transcript: Vec::new(),
            crowd_opts,
        }
    }

    /// Freeze the schema on first use.
    fn schema(&mut self) -> Result<Arc<Schema>, String> {
        if self.schema.is_none() {
            let builder = self.builder.take().ok_or("schema already frozen")?;
            let schema = builder.build().map_err(|e| e.to_string())?;
            if schema.is_empty() {
                return Err("declare at least one relation first".into());
            }
            self.schema = Some(schema);
        }
        Ok(self.schema.clone().expect("just set"))
    }

    fn db(&mut self) -> Result<&mut Database, String> {
        if self.db.is_none() {
            let schema = self.schema()?;
            self.db = Some(Database::empty(schema));
        }
        Ok(self.db.as_mut().expect("just set"))
    }

    fn run(&mut self, line: &str, out: &mut impl Write) -> io::Result<bool> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(true);
        }
        let (cmd, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let rest = rest.trim();
        let result: Result<(), String> = match cmd {
            "quit" | "exit" => return Ok(false),
            "help" => {
                writeln!(out, "commands: relation load ground query show witnesses explain minimize clean transcript diff facts save help quit")?;
                Ok(())
            }
            "relation" => self.cmd_relation(rest),
            "load" => self.cmd_load(rest, false),
            "ground" => self.cmd_load(rest, true),
            "query" => self.cmd_query(rest, out)?,
            "show" => self.cmd_show(rest, out)?,
            "witnesses" => self.cmd_witnesses(rest, out)?,
            "explain" => self.cmd_explain(rest, out)?,
            "minimize" => self.cmd_minimize(rest, out)?,
            "transcript" => self.cmd_transcript(out)?,
            "clean" => self.cmd_clean(rest, out)?,
            "diff" => self.cmd_diff(out)?,
            "facts" => self.cmd_facts(out)?,
            "save" => self.cmd_save(rest),
            other => Err(format!("unknown command `{other}` (try `help`)")),
        };
        if let Err(e) = result {
            writeln!(out, "error: {e}")?;
        }
        Ok(true)
    }

    fn cmd_relation(&mut self, rest: &str) -> Result<(), String> {
        if self.schema.is_some() {
            return Err("schema is frozen after the first load/query".into());
        }
        let mut parts = rest.split_whitespace();
        let name = parts.next().ok_or("usage: relation <name> <attrs…>")?;
        let attrs: Vec<&str> = parts.collect();
        if attrs.is_empty() {
            return Err("a relation needs at least one attribute".into());
        }
        let builder = self.builder.take().ok_or("schema already frozen")?;
        self.builder = Some(builder.relation(name, &attrs));
        Ok(())
    }

    fn cmd_load(&mut self, dir: &str, as_ground: bool) -> Result<(), String> {
        if dir.is_empty() {
            return Err("usage: load|ground <dir>".into());
        }
        let schema = self.schema()?;
        let db = load_dir(schema, Path::new(dir)).map_err(|e| e.to_string())?;
        if as_ground {
            self.ground = Some(db);
        } else {
            self.db = Some(db);
        }
        Ok(())
    }

    fn cmd_query(&mut self, text: &str, out: &mut impl Write) -> io::Result<Result<(), String>> {
        let schema = match self.schema() {
            Ok(s) => s,
            Err(e) => return Ok(Err(e)),
        };
        match parse_query(&schema, text) {
            Ok(q) => {
                writeln!(out, "defined {}", q.name())?;
                self.queries.insert(q.name().to_string(), q);
                Ok(Ok(()))
            }
            Err(e) => Ok(Err(e.to_string())),
        }
    }

    fn cmd_show(&mut self, name: &str, out: &mut impl Write) -> io::Result<Result<(), String>> {
        let Some(q) = self.queries.get(name).cloned() else {
            return Ok(Err(format!("unknown query `{name}`")));
        };
        let db = match self.db() {
            Ok(d) => d,
            Err(e) => return Ok(Err(e)),
        };
        let answers = answer_set(&q, db);
        writeln!(out, "{}(D): {} answer(s)", q.name(), answers.len())?;
        for a in answers {
            writeln!(out, "  {a}")?;
        }
        Ok(Ok(()))
    }

    fn cmd_witnesses(
        &mut self,
        rest: &str,
        out: &mut impl Write,
    ) -> io::Result<Result<(), String>> {
        let mut parts = rest.split_whitespace();
        let Some(name) = parts.next() else {
            return Ok(Err("usage: witnesses <query> <v1> [v2 …]".into()));
        };
        let Some(q) = self.queries.get(name).cloned() else {
            return Ok(Err(format!("unknown query `{name}`")));
        };
        let tuple: qoco::data::Tuple = parts.map(Value::text).collect();
        let db = match self.db() {
            Ok(d) => d,
            Err(e) => return Ok(Err(e)),
        };
        let ws = witnesses_for_answer(&q, db, &tuple);
        writeln!(out, "{} witness(es) for {tuple}", ws.len())?;
        for (i, w) in ws.iter().enumerate() {
            writeln!(out, "  witness {}:", i + 1)?;
            for f in w {
                writeln!(out, "    {f:?}")?;
            }
        }
        Ok(Ok(()))
    }

    fn cmd_explain(&mut self, name: &str, out: &mut impl Write) -> io::Result<Result<(), String>> {
        let Some(q) = self.queries.get(name).cloned() else {
            return Ok(Err(format!("unknown query `{name}`")));
        };
        let db = match self.db() {
            Ok(d) => d,
            Err(e) => return Ok(Err(e)),
        };
        write!(out, "{}", explain(&q, db))?;
        Ok(Ok(()))
    }

    fn cmd_minimize(&mut self, name: &str, out: &mut impl Write) -> io::Result<Result<(), String>> {
        let Some(q) = self.queries.get(name).cloned() else {
            return Ok(Err(format!("unknown query `{name}`")));
        };
        let m = qoco::query::minimize(&q);
        if m.atoms().len() == q.atoms().len() {
            writeln!(out, "{name} is already minimal ({} atoms)", q.atoms().len())?;
        } else {
            writeln!(
                out,
                "{name} minimized from {} to {} atoms:",
                q.atoms().len(),
                m.atoms().len()
            )?;
            writeln!(out, "  {}", m.display())?;
            self.queries.insert(name.to_string(), m);
        }
        Ok(Ok(()))
    }

    fn cmd_transcript(&mut self, out: &mut impl Write) -> io::Result<Result<(), String>> {
        if self.last_transcript.is_empty() {
            writeln!(out, "no cleaning session recorded yet")?;
        } else {
            writeln!(out, "{} interaction(s):", self.last_transcript.len())?;
            for e in &self.last_transcript {
                writeln!(out, "  {e}")?;
            }
        }
        Ok(Ok(()))
    }

    fn cmd_clean(&mut self, rest: &str, out: &mut impl Write) -> io::Result<Result<(), String>> {
        let mut parts = rest.split_whitespace();
        let Some(name) = parts.next() else {
            return Ok(Err("usage: clean <query> [deletion] [split]".into()));
        };
        let Some(q) = self.queries.get(name).cloned() else {
            return Ok(Err(format!("unknown query `{name}`")));
        };
        let deletion = match parts.next().unwrap_or("qoco") {
            "qoco" => DeletionStrategy::Qoco,
            "qoco-" => DeletionStrategy::QocoMinus,
            "random" => DeletionStrategy::Random(1),
            other => return Ok(Err(format!("unknown deletion strategy `{other}`"))),
        };
        let split = match parts.next().unwrap_or("provenance") {
            "provenance" => SplitStrategyKind::Provenance,
            "mincut" => SplitStrategyKind::MinCut,
            "random" => SplitStrategyKind::Random(1),
            "naive" => SplitStrategyKind::Naive,
            other => return Ok(Err(format!("unknown split strategy `{other}`"))),
        };
        let Some(ground) = self.ground.clone() else {
            return Ok(Err(
                "no ground truth loaded (the oracle needs `ground <dir>`)".into(),
            ));
        };
        let oracle = self.crowd_opts.build_oracle(ground);
        let db = match self.db() {
            Ok(d) => d,
            Err(e) => return Ok(Err(e)),
        };
        let mut crowd = RecordingCrowd::new(SingleExpert::new(oracle));
        let config = CleaningConfig {
            deletion,
            split,
            ..Default::default()
        };
        let before = qoco_telemetry::metrics().snapshot();
        let result = clean_view(&q, db, &mut crowd, config);
        let after = qoco_telemetry::metrics().snapshot();
        let stats = crowd.stats();
        let (_, transcript) = crowd.into_parts();
        self.last_transcript = transcript;
        match result {
            Ok(report) => {
                write!(out, "{report}")?;
                // view-maintenance counters only tick while telemetry is on;
                // stay silent otherwise so plain sessions are unchanged
                let d = |name: &str| after.counter(name).saturating_sub(before.counter(name));
                let (delta_edits, refreshes) = (d("view.delta_edits"), d("view.full_refreshes"));
                if delta_edits + refreshes > 0 {
                    writeln!(
                        out,
                        "view maintenance: {delta_edits} delta edit(s), {refreshes} full refresh(es), \
                         {} delta probe hit(s), {} semi-join pruned",
                        d("eval.delta_probe_hits"),
                        d("eval.semijoin_pruned")
                    )?;
                }
                if stats.faults > 0 {
                    writeln!(
                        out,
                        "crowd faults: {} ({} retried, {} escalation(s), {}ms simulated backoff)",
                        stats.faults, stats.retries, stats.escalations, stats.simulated_backoff_ms
                    )?;
                }
                if let Some(j) = &self.crowd_opts.journal {
                    writeln!(
                        out,
                        "journal: {} record(s) ({} replayed, {} divergence(s))",
                        j.seq(),
                        j.replayed(),
                        j.divergences()
                    )?;
                }
                if let Some(w) = qoco_telemetry::watch() {
                    if !w.alert_states().is_empty() {
                        writeln!(out, "{}", w.summary_line())?;
                    }
                }
                Ok(Ok(()))
            }
            Err(e) => Ok(Err(e.to_string())),
        }
    }

    fn cmd_diff(&mut self, out: &mut impl Write) -> io::Result<Result<(), String>> {
        let Some(ground) = self.ground.clone() else {
            return Ok(Err("no ground truth loaded".into()));
        };
        let db = match self.db() {
            Ok(d) => d.clone(),
            Err(e) => return Ok(Err(e)),
        };
        match diff(&db, &ground) {
            Ok(r) => {
                writeln!(
                    out,
                    "distance {} ({} false, {} missing); cleanliness {:.1}%",
                    r.distance(),
                    r.false_facts.len(),
                    r.missing_facts.len(),
                    r.cleanliness() * 100.0
                )?;
                Ok(Ok(()))
            }
            Err(e) => Ok(Err(e.to_string())),
        }
    }

    fn cmd_facts(&mut self, out: &mut impl Write) -> io::Result<Result<(), String>> {
        let schema = match self.schema() {
            Ok(s) => s,
            Err(e) => return Ok(Err(e)),
        };
        let db = match self.db() {
            Ok(d) => d,
            Err(e) => return Ok(Err(e)),
        };
        for (rel, decl) in schema.iter() {
            writeln!(out, "{}: {} fact(s)", decl.name(), db.relation(rel).len())?;
        }
        Ok(Ok(()))
    }

    fn cmd_save(&mut self, dir: &str) -> Result<(), String> {
        if dir.is_empty() {
            return Err("usage: save <dir>".into());
        }
        let db = self.db()?.clone();
        save_dir(&db, Path::new(dir)).map_err(|e| e.to_string())
    }
}

fn main() -> io::Result<()> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("explain") {
        return run_explain(&argv[1..]);
    }
    let mut telemetry_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut metrics_port: Option<u16> = None;
    let mut profile_path: Option<String> = None;
    let mut faults: Option<FaultPlan> = None;
    let mut journal_path: Option<String> = None;
    let mut resume_path: Option<String> = None;
    let mut kill_after: Option<u64> = None;
    let mut watch_rules_path: Option<String> = None;
    let mut watch_tick_spec: Option<String> = None;
    let mut args = argv.into_iter();
    let missing = |flag: &str, what: &str| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("{flag} needs {what}"))
    };
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--telemetry" => {
                telemetry_path = Some(
                    args.next()
                        .ok_or_else(|| missing("--telemetry", "a file path"))?,
                );
            }
            "--trace" => {
                trace_path = Some(
                    args.next()
                        .ok_or_else(|| missing("--trace", "a file path"))?,
                );
            }
            "--metrics-port" => {
                let port = args
                    .next()
                    .and_then(|p| p.parse().ok())
                    .ok_or_else(|| missing("--metrics-port", "a port number"))?;
                metrics_port = Some(port);
            }
            "--profile" => {
                profile_path = Some(
                    args.next()
                        .ok_or_else(|| missing("--profile", "an output path (.svg or .folded)"))?,
                );
            }
            "--faults" => {
                let spec = args.next().ok_or_else(|| {
                    missing("--faults", "a fault plan (e.g. seed=42,timeout=0.1)")
                })?;
                faults = Some(
                    spec.parse()
                        .map_err(|e| invalid(format!("--faults {spec}: {e}")))?,
                );
            }
            "--journal" => {
                journal_path = Some(
                    args.next()
                        .ok_or_else(|| missing("--journal", "a file path"))?,
                );
            }
            "--resume" => {
                resume_path = Some(
                    args.next()
                        .ok_or_else(|| missing("--resume", "a journal file path"))?,
                );
            }
            "--kill-after" => {
                let n = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| missing("--kill-after", "an answer count"))?;
                kill_after = Some(n);
            }
            "--watch-rules" => {
                watch_rules_path = Some(
                    args.next()
                        .ok_or_else(|| missing("--watch-rules", "a rules file path"))?,
                );
            }
            "--watch-tick" => {
                watch_tick_spec = Some(args.next().ok_or_else(|| {
                    missing("--watch-tick", "`logical` or a millisecond interval")
                })?);
            }
            other => {
                return Err(invalid(format!(
                    "unknown argument `{other}` (supported: --telemetry <path>, \
                     --trace <path>, --metrics-port <port>, --profile <path>, \
                     --faults <spec>, --journal <path>, --resume <path>, \
                     --kill-after <n>, --watch-rules <file>, \
                     --watch-tick <ms|logical>)"
                )));
            }
        }
    }

    let journal = match (journal_path, resume_path) {
        (Some(_), Some(_)) => {
            return Err(invalid(
                "--journal and --resume are mutually exclusive \
                 (--resume appends to the journal it replays)"
                    .into(),
            ));
        }
        (Some(p), None) => Some(Journal::create(&p)?),
        (None, Some(p)) => {
            let j = Journal::resume(&p)?;
            eprintln!(
                "resuming: {} journaled record(s) to replay",
                j.pending_replay()
            );
            Some(j)
        }
        (None, None) => None,
    };
    let crowd_opts = CrowdOptions {
        faults: faults.unwrap_or_else(FaultPlan::none),
        journal,
        kill_after,
        answered: Arc::new(AtomicU64::new(0)),
    };

    // Assemble the collector pipeline: each requested exporter is one sink,
    // fanned out when there is more than one. The Chrome trace and the
    // profile are built from the in-memory sink's spans. The metrics
    // endpoint and the watch read the live global registry, which only
    // records under an installed session — so asking for either alone
    // still installs a (discarded) in-memory sink.
    let jsonl = match &telemetry_path {
        Some(path) => Some(Arc::new(qoco::telemetry::JsonlCollector::create(path)?)),
        None => None,
    };
    let needs_fallback_sink =
        (metrics_port.is_some() || watch_rules_path.is_some() || watch_tick_spec.is_some())
            && jsonl.is_none();
    let in_memory = (trace_path.is_some() || profile_path.is_some() || needs_fallback_sink)
        .then(|| Arc::new(qoco::telemetry::InMemoryCollector::new()));
    let mut sinks: Vec<Arc<dyn qoco::telemetry::Collector>> = Vec::new();
    if let Some(c) = &jsonl {
        sinks.push(c.clone());
    }
    if let Some(c) = &in_memory {
        sinks.push(c.clone());
    }
    let _session_guard = match sinks.len() {
        0 => None,
        1 => Some(qoco::telemetry::session(sinks.pop().expect("one sink"))),
        _ => Some(qoco::telemetry::session(Arc::new(
            qoco::telemetry::FanoutCollector::new(sinks),
        ))),
    };
    let _metrics_server = match metrics_port {
        Some(port) => {
            let server = qoco::telemetry::MetricsServer::start(&format!("127.0.0.1:{port}"))?;
            eprintln!("serving metrics on http://{}/metrics", server.local_addr());
            Some(server)
        }
        None => None,
    };
    // qoco-watch: sample the metrics registry into ring-buffer series and
    // evaluate SLO/alert rules over them. `--watch-tick` alone starts a
    // rule-less watch (dashboard sparklines only).
    let watch_guard = if watch_rules_path.is_some() || watch_tick_spec.is_some() {
        let rules = match &watch_rules_path {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| invalid(format!("--watch-rules {path}: {e}")))?;
                qoco::telemetry::parse_rules(&text)
                    .map_err(|e| invalid(format!("--watch-rules {path}: {e}")))?
            }
            None => Vec::new(),
        };
        let tick = match watch_tick_spec.as_deref() {
            None | Some("logical") => qoco::telemetry::WatchTick::Logical,
            Some(ms) => {
                let ms: u64 = ms.parse().map_err(|_| {
                    invalid(format!(
                        "--watch-tick needs `logical` or a millisecond interval, got `{ms}`"
                    ))
                })?;
                if ms == 0 {
                    return Err(invalid("--watch-tick interval must be positive".into()));
                }
                qoco::telemetry::WatchTick::Wall(std::time::Duration::from_millis(ms))
            }
        };
        let mode = match tick {
            qoco::telemetry::WatchTick::Logical => "logical ticks".to_string(),
            qoco::telemetry::WatchTick::Wall(d) => format!("{}ms ticks", d.as_millis()),
        };
        eprintln!("qoco-watch: {} rule(s), {mode}", rules.len());
        Some(qoco::telemetry::start_watch(rules, tick))
    } else {
        None
    };

    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut out = stdout.lock();
    let mut session = Session::new(crowd_opts);
    for line in stdin.lock().lines() {
        let line = line?;
        if !session.run(&line, &mut out)? {
            break;
        }
        out.flush()?;
    }
    if let (Some(path), Some(collector)) = (&profile_path, &in_memory) {
        let profile = qoco::telemetry::Profile::from_spans(&collector.spans());
        let rendered = if path.ends_with(".svg") {
            profile.flamegraph_svg("qoco-cli session")
        } else {
            profile.to_folded()
        };
        std::fs::write(path, rendered)?;
        eprintln!(
            "profile: {} stack(s), {} of span time → {path}",
            profile.counts().len(),
            qoco::telemetry::fmt_ns(profile.total)
        );
    }
    // Stop the watch before the final metrics snapshot: dropping the guard
    // takes one last deterministic tick, so end-of-session values land in
    // both the sample series and the `"type":"metrics"` line below.
    let watch = watch_guard.as_ref().and_then(|g| g.watch());
    drop(watch_guard);
    if let Some(w) = &watch {
        eprintln!("{}", w.summary_line());
        if let Some(collector) = &jsonl {
            let lines = w.store().to_jsonl_lines();
            collector.write_raw_lines(lines.iter().map(String::as_str));
        }
    }
    if let Some(collector) = &jsonl {
        collector.write_metrics(&qoco::telemetry::metrics().snapshot());
        collector.flush();
    }
    if let (Some(path), Some(collector)) = (&trace_path, &in_memory) {
        collector.write_chrome_trace(path)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// `qoco-cli explain` — the per-session audit report

/// Decision kinds that do *not* correspond to an oracle question: plans,
/// certificates, splits and fault handling are recorded for provenance but
/// cost no crowd interaction, so the budget summary excludes them.
const NON_QUESTION_KINDS: &[&str] = &[
    "deletion.plan",
    "deletion.certificate",
    "insertion.split",
    "crowd.retry",
    "crowd.escalation",
];

fn run_explain(args: &[String]) -> io::Result<()> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
    let [path] = args else {
        return Err(invalid(
            "usage: qoco-cli explain <decisions.jsonl | session.journal>".into(),
        ));
    };
    let text = std::fs::read_to_string(path)?;
    let stdout = io::stdout();
    let mut out = stdout.lock();
    // A telemetry export is JSON object lines; a journal line starts with
    // its decimal sequence number.
    let looks_like_jsonl = text
        .lines()
        .find(|l| !l.trim().is_empty())
        .map(|l| l.trim_start().starts_with('{'))
        .unwrap_or(false);
    if looks_like_jsonl {
        let decisions = parse_decision_log(&text).map_err(invalid)?;
        render_decision_report(&decisions, &mut out)
    } else {
        let records = Journal::parse(&text).map_err(invalid)?;
        render_journal_report(&records, &mut out)
    }
}

fn parse_decision_log(text: &str) -> Result<Vec<DecisionLine>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let at = |e: String| format!("line {}: {e}", i + 1);
        let v = Json::parse(line).map_err(|e| at(e.to_string()))?;
        out.extend(DecisionLine::from_json(&v).map_err(at)?);
    }
    Ok(out)
}

/// Edits follow deterministically from outcomes (the cleaning algorithms
/// are pure functions of the answer sequence), so the report can annotate
/// the clear-cut cases.
fn inferred_edit(d: &DecisionLine) -> Option<String> {
    match d.kind.as_str() {
        "deletion.verify_fact" if d.outcome == "false" => Some("fact deleted from D".into()),
        "deletion.certificate" => Some("singleton witness tuple(s) deleted without asking".into()),
        "insertion.complete" if d.outcome.starts_with("completed:") => {
            Some("witness fact(s) inserted into D".into())
        }
        "clean.complete_result" => d
            .outcome
            .strip_prefix("missing: ")
            .map(|t| format!("insertion phase scheduled for {t}")),
        _ => None,
    }
}

fn render_decision_report(decisions: &[DecisionLine], out: &mut impl Write) -> io::Result<()> {
    let questions = decisions
        .iter()
        .filter(|d| !NON_QUESTION_KINDS.contains(&d.kind.as_str()))
        .count();
    writeln!(out, "QOCO decision audit")?;
    writeln!(
        out,
        "{} decision(s), {} oracle question(s)",
        decisions.len(),
        questions
    )?;
    for d in decisions {
        writeln!(out)?;
        writeln!(out, "[d={}] {}", d.id, d.kind)?;
        writeln!(out, "  question: {}", d.question)?;
        if let Some(request) = &d.request {
            writeln!(out, "  request: {request}")?;
        }
        if !d.evidence.is_empty() {
            writeln!(out, "  evidence:")?;
            for (k, v) in &d.evidence {
                writeln!(out, "    {k}: {v}")?;
            }
        }
        writeln!(out, "  outcome: {}", d.outcome)?;
        if let Some(edit) = inferred_edit(d) {
            writeln!(out, "  edit: {edit}")?;
        }
    }
    // Budget summary: Algorithm 1's optimality yardstick — every question
    // count is bounded below by the minimum hitting set of the live
    // witness structure (summed across deletion plans).
    let mut lower_bound = 0u64;
    let mut plans = 0u64;
    let mut certificates = 0u64;
    for d in decisions {
        match d.kind.as_str() {
            "deletion.plan" => {
                plans += 1;
                if let Some((_, v)) = d.evidence.iter().find(|(k, _)| k == "lower_bound") {
                    lower_bound += v.parse::<u64>().unwrap_or(0);
                }
            }
            "deletion.certificate"
                if d.evidence
                    .iter()
                    .any(|(k, v)| k == "theorem_4_5" && v == "fired") =>
            {
                certificates += 1;
            }
            _ => {}
        }
    }
    writeln!(out)?;
    writeln!(
        out,
        "budget: {questions} oracle question(s) asked; hitting-set lower bound \
         {lower_bound} across {plans} deletion plan(s); {certificates} \
         theorem-4.5 certificate(s) fired"
    )?;
    Ok(())
}

fn render_journal_report(records: &[JournalRecord], out: &mut impl Write) -> io::Result<()> {
    let tagged = records.iter().filter(|r| r.decision.is_some()).count();
    let requested = records.iter().filter(|r| r.request.is_some()).count();
    writeln!(out, "QOCO journal audit")?;
    writeln!(
        out,
        "{} oracle question(s), {} tagged with decision ids, {} with request ids",
        records.len(),
        tagged,
        requested
    )?;
    writeln!(out)?;
    for r in records {
        let outcome = match &r.outcome {
            Err(e) => format!("error: {}", e.as_str()),
            Ok(Answer::Bool(b)) => b.to_string(),
            Ok(Answer::Completion(None)) => "unsatisfiable".into(),
            Ok(Answer::Completion(Some(a))) => format!("completed {a:?}"),
            Ok(Answer::MissingAnswer(None)) => "complete".into(),
            Ok(Answer::MissingAnswer(Some(t))) => format!("missing {t}"),
        };
        let mut tags = String::new();
        if let Some(d) = r.decision {
            tags.push_str(&format!(" [d={d}]"));
        }
        if let Some(rid) = &r.request {
            tags.push_str(&format!(" [req={rid}]"));
        }
        writeln!(out, "  #{} {} → {outcome}{tags}", r.seq, r.kind.as_str())?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "budget: {} oracle question(s) asked (pair with a --telemetry \
         decision log for the evidence behind each one)",
        records.len()
    )?;
    Ok(())
}
