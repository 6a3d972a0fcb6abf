//! qoco-watch SLO/alert rules: a small parseable rule language evaluated
//! on every sampler tick against the [`crate::SeriesStore`].
//!
//! One rule per line:
//!
//! ```text
//! # crowd health under the PR 4 fault model
//! rule crowd_errors: rate(crowd.faults, 30s) > 5/s for 10s => warn
//! # question-optimality vs the Theorem 4.5 hitting-set lower bound
//! rule optimality: ratio(session.questions_asked, session.lower_bound) > 3 => info
//! rule slow_eval: p95(eval.evaluate_ns) > 50000000 for 5s => page
//! ```
//!
//! Grammar: `rule <name>: <expr> <cmp> <threshold>[/s] [for <dur>] =>
//! <severity>` where `<expr>` is one of `rate(metric, window)`,
//! `value(metric)` (or a bare metric name), `ratio(num, den)`,
//! `p50(metric)`, `p95(metric)`; `<cmp>` is `>`, `>=`, `<` or `<=`;
//! durations take `ms`/`s`/`m` suffixes (bare numbers are seconds); and
//! `<severity>` is `info`, `warn` or `page`. Blank lines and `#` comments
//! are skipped.
//!
//! Each rule carries a three-state lifecycle: **idle** → **pending** (the
//! condition breached, the `for` hold-down running) → **firing** (breached
//! continuously for the hold-down) → **resolved** (back to idle). Every
//! transition is reported by the [`AlertEngine`] so the watch layer can log
//! it as a JSONL event, export it as a Chrome-trace instant, and count it
//! in `alerts.fired`. Evaluation is a pure function of the sampled series,
//! which is what makes `qoco-bench watch-replay` deterministic.

use std::collections::VecDeque;
use std::fmt;

use crate::timeseries::SeriesStore;

/// How loud a firing rule is. Severity does not change the lifecycle —
/// it is a label for dashboards and downstream pagers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Informational: worth a timeline mark, not a page.
    Info,
    /// Needs a look; rendered amber on the dashboard.
    Warn,
    /// Wake someone up; rendered red on the dashboard.
    Page,
}

impl Severity {
    fn parse(s: &str) -> Result<Severity, String> {
        match s {
            "info" => Ok(Severity::Info),
            "warn" => Ok(Severity::Warn),
            "page" => Ok(Severity::Page),
            other => Err(format!(
                "unknown severity `{other}` (expected info, warn or page)"
            )),
        }
    }

    /// The lowercase grammar keyword.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Page => "page",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The comparison between an expression and its threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `<=`
    Le,
}

impl Cmp {
    fn holds(self, value: f64, threshold: f64) -> bool {
        match self {
            Cmp::Gt => value > threshold,
            Cmp::Ge => value >= threshold,
            Cmp::Lt => value < threshold,
            Cmp::Le => value <= threshold,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
        }
    }
}

/// What a rule measures each tick.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Counter increase per second over a trailing window (reset-safe:
    /// negative sample-to-sample deltas contribute nothing).
    Rate {
        /// Counter series name.
        metric: String,
        /// Trailing window length.
        window_ns: u64,
    },
    /// The most recent sample of a series.
    Value {
        /// Series name.
        metric: String,
    },
    /// Last value of `num` divided by last value of `den` (undefined — and
    /// therefore never breaching — while `den` is missing or zero).
    Ratio {
        /// Numerator series name.
        num: String,
        /// Denominator series name.
        den: String,
    },
    /// Approximate median of a histogram (reads the sampled `<m>.p50`
    /// series the store derives from the fixed-bucket histograms).
    P50 {
        /// Histogram name (without the `.p50` suffix).
        metric: String,
    },
    /// Approximate 95th percentile of a histogram.
    P95 {
        /// Histogram name (without the `.p95` suffix).
        metric: String,
    },
}

impl Expr {
    /// Evaluate against `store` as of `now_ns`. `None` means "not enough
    /// data" and never breaches.
    pub fn eval(&self, store: &SeriesStore, now_ns: u64) -> Option<f64> {
        match self {
            Expr::Rate { metric, window_ns } => store.rate(metric, *window_ns, now_ns),
            Expr::Value { metric } => store.last(metric).map(|s| s.value),
            Expr::Ratio { num, den } => {
                let d = store.last(den)?.value;
                if d == 0.0 {
                    return None;
                }
                Some(store.last(num)?.value / d)
            }
            Expr::P50 { metric } => store.last(&format!("{metric}.p50")).map(|s| s.value),
            Expr::P95 { metric } => store.last(&format!("{metric}.p95")).map(|s| s.value),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Rate { metric, window_ns } => {
                write!(f, "rate({metric}, {})", fmt_duration(*window_ns))
            }
            Expr::Value { metric } => write!(f, "value({metric})"),
            Expr::Ratio { num, den } => write!(f, "ratio({num}, {den})"),
            Expr::P50 { metric } => write!(f, "p50({metric})"),
            Expr::P95 { metric } => write!(f, "p95({metric})"),
        }
    }
}

/// One parsed alert rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Rule name (unique within a rules file).
    pub name: String,
    /// What to measure.
    pub expr: Expr,
    /// How to compare it to [`Rule::threshold`].
    pub cmp: Cmp,
    /// The breach threshold.
    pub threshold: f64,
    /// Whether the threshold was written with a `/s` suffix (display only;
    /// `rate` already evaluates to per-second units).
    pub per_second: bool,
    /// Hold-down: the condition must breach continuously this long before
    /// the rule fires (0 = fire on first breach).
    pub for_ns: u64,
    /// Label for dashboards and logs.
    pub severity: Severity,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rule {}: {} {} {}{}",
            self.name,
            self.expr,
            self.cmp.as_str(),
            self.threshold,
            if self.per_second { "/s" } else { "" }
        )?;
        if self.for_ns > 0 {
            write!(f, " for {}", fmt_duration(self.for_ns))?;
        }
        write!(f, " => {}", self.severity)
    }
}

/// Render a nanosecond duration the way the grammar writes it.
fn fmt_duration(ns: u64) -> String {
    if ns >= 1_000_000_000 && ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns >= 1_000_000 && ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else {
        format!("{ns}ns")
    }
}

pub(crate) fn parse_duration(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (digits, scale) = if let Some(p) = s.strip_suffix("ms") {
        (p, 1_000_000.0)
    } else if let Some(p) = s.strip_suffix('s') {
        (p, 1_000_000_000.0)
    } else if let Some(p) = s.strip_suffix('m') {
        (p, 60_000_000_000.0)
    } else {
        (s, 1_000_000_000.0)
    };
    let v: f64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("bad duration `{s}` (try 500ms, 30s or 2m)"))?;
    if !(v >= 0.0 && v.is_finite()) {
        return Err(format!("bad duration `{s}`"));
    }
    Ok((v * scale) as u64)
}

fn valid_metric(s: &str) -> Result<String, String> {
    if !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '_')
    {
        Ok(s.to_string())
    } else {
        Err(format!("bad metric name `{s}`"))
    }
}

/// Parse the expression at the head of `s`; returns it and the unparsed
/// remainder (the comparison onwards).
fn parse_expr(s: &str) -> Result<(Expr, &str), String> {
    let s = s.trim_start();
    for func in ["rate", "ratio", "value", "p50", "p95"] {
        if let Some(rest) = s.strip_prefix(func) {
            let rest = rest.trim_start();
            if let Some(body) = rest.strip_prefix('(') {
                let close = body
                    .find(')')
                    .ok_or_else(|| format!("unclosed `(` after `{func}`"))?;
                let args: Vec<&str> = body[..close].split(',').map(str::trim).collect();
                let want = if matches!(func, "rate" | "ratio") {
                    2
                } else {
                    1
                };
                if args.len() != want {
                    return Err(format!("{func}() takes {want} argument(s)"));
                }
                let expr = match func {
                    "rate" => Expr::Rate {
                        metric: valid_metric(args[0])?,
                        window_ns: parse_duration(args[1])?,
                    },
                    "ratio" => Expr::Ratio {
                        num: valid_metric(args[0])?,
                        den: valid_metric(args[1])?,
                    },
                    "value" => Expr::Value {
                        metric: valid_metric(args[0])?,
                    },
                    "p50" => Expr::P50 {
                        metric: valid_metric(args[0])?,
                    },
                    _ => Expr::P95 {
                        metric: valid_metric(args[0])?,
                    },
                };
                return Ok((expr, &body[close + 1..]));
            }
        }
    }
    // a bare metric name is shorthand for value(metric)
    let end = s
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '.' || c == '_'))
        .unwrap_or(s.len());
    if end == 0 {
        return Err(format!("expected an expression at `{s}`"));
    }
    Ok((
        Expr::Value {
            metric: s[..end].to_string(),
        },
        &s[end..],
    ))
}

/// Parse one rule line (no comments/blank handling — see [`parse_rules`]).
pub fn parse_rule(line: &str) -> Result<Rule, String> {
    let rest = line
        .trim()
        .strip_prefix("rule")
        .and_then(|r| r.strip_prefix(char::is_whitespace).or(Some(r)))
        .filter(|r| !r.is_empty())
        .ok_or("expected `rule <name>: …`")?;
    let (name, rest) = rest
        .split_once(':')
        .ok_or("expected `:` after the rule name")?;
    let name = name.trim();
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Err(format!("bad rule name `{name}`"));
    }
    let (cond, sev) = rest
        .split_once("=>")
        .ok_or("expected `=> <severity>` at the end")?;
    let severity = Severity::parse(sev.trim())?;
    let (cond, for_ns) = match cond.rfind(" for ") {
        Some(i) => (&cond[..i], parse_duration(&cond[i + 5..])?),
        None => (cond, 0),
    };
    let (expr, rest) = parse_expr(cond)?;
    let rest = rest.trim_start();
    let (cmp, rest) = if let Some(r) = rest.strip_prefix(">=") {
        (Cmp::Ge, r)
    } else if let Some(r) = rest.strip_prefix("<=") {
        (Cmp::Le, r)
    } else if let Some(r) = rest.strip_prefix('>') {
        (Cmp::Gt, r)
    } else if let Some(r) = rest.strip_prefix('<') {
        (Cmp::Lt, r)
    } else {
        return Err(format!("expected a comparison (>, >=, <, <=) at `{rest}`"));
    };
    let thr = rest.trim();
    let (thr, per_second) = match thr.strip_suffix("/s") {
        Some(t) => (t.trim(), true),
        None => (thr, false),
    };
    let threshold: f64 = thr.parse().map_err(|_| format!("bad threshold `{thr}`"))?;
    Ok(Rule {
        name: name.to_string(),
        expr,
        cmp,
        threshold,
        per_second,
        for_ns,
        severity,
    })
}

/// Parse a rules file: one rule per line, `#` comments and blank lines
/// skipped, duplicate names rejected.
pub fn parse_rules(text: &str) -> Result<Vec<Rule>, String> {
    let mut rules: Vec<Rule> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let rule = parse_rule(line).map_err(|e| format!("rules line {}: {e}", i + 1))?;
        if rules.iter().any(|r| r.name == rule.name) {
            return Err(format!(
                "rules line {}: duplicate rule `{}`",
                i + 1,
                rule.name
            ));
        }
        rules.push(rule);
    }
    Ok(rules)
}

/// Internal per-rule lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Idle,
    Pending { since_ns: u64 },
    Firing { since_ns: u64 },
}

impl Phase {
    fn name(&self) -> &'static str {
        match self {
            Phase::Idle => "idle",
            Phase::Pending { .. } => "pending",
            Phase::Firing { .. } => "firing",
        }
    }
}

/// One lifecycle edge, reported by [`AlertEngine::evaluate`].
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Sampler tick the edge happened on.
    pub tick: u64,
    /// Series timestamp of that tick.
    pub at_ns: u64,
    /// Rule name.
    pub rule: String,
    /// Rule severity.
    pub severity: Severity,
    /// Where the rule moved: `"pending"`, `"firing"`, `"resolved"` (firing
    /// → idle) or `"cancelled"` (pending → idle before the hold-down ran
    /// out).
    pub to: &'static str,
    /// The evaluated expression value at the edge (`None` when the edge
    /// was caused by the expression becoming undefined).
    pub value: Option<f64>,
}

impl Transition {
    /// The telemetry event name this edge is logged under.
    pub fn event_name(&self) -> &'static str {
        match self.to {
            "pending" => "alert.pending",
            "firing" => "alert.firing",
            "resolved" => "alert.resolved",
            _ => "alert.cancelled",
        }
    }

    /// Deterministic one-line rendering for logs and the replay report.
    pub fn log_line(&self) -> String {
        match self.value {
            Some(v) => format!("{} -> {} (value {:.3})", self.rule, self.to, v),
            None => format!("{} -> {} (value undefined)", self.rule, self.to),
        }
    }
}

/// Live state of one rule, exported for `/alerts` and the dashboard.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertStateView {
    /// Rule name.
    pub name: String,
    /// The full rule text (round-tripped through [`Rule`]'s `Display`).
    pub rule: String,
    /// Rule severity.
    pub severity: Severity,
    /// `"idle"`, `"pending"` or `"firing"`.
    pub state: &'static str,
    /// When the current pending/firing phase began.
    pub since_ns: Option<u64>,
    /// The expression value at the most recent evaluation.
    pub last_value: Option<f64>,
    /// How many times the rule has fired.
    pub fired: u64,
    /// How many times it has resolved after firing.
    pub resolved: u64,
}

struct AlertState {
    rule: Rule,
    phase: Phase,
    last_value: Option<f64>,
    fired: u64,
    resolved: u64,
}

/// What one [`AlertEngine::evaluate`] pass produced.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalOutcome {
    /// Lifecycle edges this tick, in rule order.
    pub transitions: Vec<Transition>,
    /// Rules currently firing (after this tick's edges).
    pub firing: usize,
    /// Rules evaluated (one evaluation per rule per tick).
    pub rules: usize,
}

/// How many recent transitions the engine keeps for `/alerts` and the
/// final summary; older edges are still counted, just not listed.
const TRANSITION_LOG_CAPACITY: usize = 256;

/// Evaluates a fixed rule set against a [`SeriesStore`], tick by tick,
/// tracking each rule's pending/firing lifecycle.
pub struct AlertEngine {
    states: Vec<AlertState>,
    log: VecDeque<Transition>,
    ticks: u64,
}

impl AlertEngine {
    /// An engine over `rules` with every rule idle.
    pub fn new(rules: Vec<Rule>) -> AlertEngine {
        AlertEngine {
            states: rules
                .into_iter()
                .map(|rule| AlertState {
                    rule,
                    phase: Phase::Idle,
                    last_value: None,
                    fired: 0,
                    resolved: 0,
                })
                .collect(),
            log: VecDeque::new(),
            ticks: 0,
        }
    }

    /// Evaluation ticks seen so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Evaluate every rule against `store` as of (`tick`, `now_ns`),
    /// advancing lifecycles and returning the edges.
    pub fn evaluate(&mut self, tick: u64, now_ns: u64, store: &SeriesStore) -> EvalOutcome {
        self.ticks += 1;
        let mut transitions = Vec::new();
        for st in &mut self.states {
            let value = st.rule.expr.eval(store, now_ns);
            let breach = value.map(|v| st.rule.cmp.holds(v, st.rule.threshold)) == Some(true);
            let mut edge = |to: &'static str, phase: Phase, st: &mut AlertState| {
                st.phase = phase;
                transitions.push(Transition {
                    tick,
                    at_ns: now_ns,
                    rule: st.rule.name.clone(),
                    severity: st.rule.severity,
                    to,
                    value,
                });
            };
            match (st.phase, breach) {
                (Phase::Idle, true) => {
                    if st.rule.for_ns == 0 {
                        st.fired += 1;
                        edge("firing", Phase::Firing { since_ns: now_ns }, st);
                    } else {
                        edge("pending", Phase::Pending { since_ns: now_ns }, st);
                    }
                }
                (Phase::Pending { since_ns }, true)
                    if now_ns.saturating_sub(since_ns) >= st.rule.for_ns =>
                {
                    st.fired += 1;
                    edge("firing", Phase::Firing { since_ns: now_ns }, st);
                }
                (Phase::Pending { .. }, false) => edge("cancelled", Phase::Idle, st),
                (Phase::Firing { .. }, false) => {
                    st.resolved += 1;
                    edge("resolved", Phase::Idle, st);
                }
                _ => {}
            }
            st.last_value = value;
        }
        for t in &transitions {
            if self.log.len() == TRANSITION_LOG_CAPACITY {
                self.log.pop_front();
            }
            self.log.push_back(t.clone());
        }
        EvalOutcome {
            transitions,
            firing: self
                .states
                .iter()
                .filter(|s| matches!(s.phase, Phase::Firing { .. }))
                .count(),
            rules: self.states.len(),
        }
    }

    /// Snapshot every rule's live state (rule order).
    pub fn states(&self) -> Vec<AlertStateView> {
        self.states
            .iter()
            .map(|st| AlertStateView {
                name: st.rule.name.clone(),
                rule: st.rule.to_string(),
                severity: st.rule.severity,
                state: st.phase.name(),
                since_ns: match st.phase {
                    Phase::Idle => None,
                    Phase::Pending { since_ns } | Phase::Firing { since_ns } => Some(since_ns),
                },
                last_value: st.last_value,
                fired: st.fired,
                resolved: st.resolved,
            })
            .collect()
    }

    /// The most recent lifecycle edges (bounded; oldest first).
    pub fn recent_transitions(&self) -> Vec<Transition> {
        self.log.iter().cloned().collect()
    }

    /// One deterministic summary line for the CLI's final report:
    /// `alerts: 1 firing, 2 fired, 1 resolved across 3 rule(s), 42 evaluation(s)`.
    pub fn summary_line(&self) -> String {
        let firing = self
            .states
            .iter()
            .filter(|s| matches!(s.phase, Phase::Firing { .. }))
            .count();
        let fired: u64 = self.states.iter().map(|s| s.fired).sum();
        let resolved: u64 = self.states.iter().map(|s| s.resolved).sum();
        format!(
            "alerts: {firing} firing, {fired} fired, {resolved} resolved across {} rule(s), {} evaluation(s)",
            self.states.len(),
            self.ticks * self.states.len() as u64
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::SeriesStore;

    const S: u64 = 1_000_000_000;

    #[test]
    fn parses_the_readme_rule() {
        let r = parse_rule("rule crowd_errors: rate(crowd.faults, 30s) > 5/s for 10s => warn")
            .expect("parses");
        assert_eq!(r.name, "crowd_errors");
        assert_eq!(
            r.expr,
            Expr::Rate {
                metric: "crowd.faults".into(),
                window_ns: 30 * S
            }
        );
        assert_eq!(r.cmp, Cmp::Gt);
        assert_eq!(r.threshold, 5.0);
        assert!(r.per_second);
        assert_eq!(r.for_ns, 10 * S);
        assert_eq!(r.severity, Severity::Warn);
        // Display round-trips through the parser
        assert_eq!(parse_rule(&r.to_string()).expect("round-trip"), r);
    }

    #[test]
    fn parses_every_expression_kind_and_bare_metrics() {
        let text = "\
# burn-rate over the Theorem 4.5 lower bound
rule optimality: ratio(session.questions_asked, session.lower_bound) >= 3 => info

rule slow: p95(eval.evaluate_ns) > 50000000 for 500ms => page
rule median: p50(eval.evaluate_ns) <= 100 => info
rule open: session.witnesses_open > 10 => warn
rule exact: value(view.full_refreshes) < 1 => info
";
        let rules = parse_rules(text).expect("parses");
        assert_eq!(rules.len(), 5);
        assert_eq!(
            rules[0].expr,
            Expr::Ratio {
                num: "session.questions_asked".into(),
                den: "session.lower_bound".into()
            }
        );
        assert_eq!(rules[1].for_ns, 500_000_000);
        assert_eq!(
            rules[3].expr,
            Expr::Value {
                metric: "session.witnesses_open".into()
            }
        );
        for r in &rules {
            assert_eq!(&parse_rule(&r.to_string()).expect("round-trip"), r);
        }
    }

    #[test]
    fn rejects_malformed_rules_with_line_numbers() {
        for (text, needle) in [
            ("rule : rate(a, 1s) > 1 => warn", "bad rule name"),
            ("rule x rate(a, 1s) > 1 => warn", "expected `:`"),
            ("rule x: rate(a) > 1 => warn", "2 argument(s)"),
            ("rule x: rate(a, 1s) 1 => warn", "comparison"),
            ("rule x: rate(a, 1s) > nope => warn", "bad threshold"),
            ("rule x: rate(a, 1s) > 1 => loud", "unknown severity"),
            ("rule x: rate(a, 1s) > 1 for ever => warn", "bad duration"),
            (
                "rule x: rate(a, 1s) > 1 => warn\nrule x: b > 1 => info",
                "duplicate",
            ),
        ] {
            let err = parse_rules(text).expect_err(text);
            assert!(err.contains("line"), "{text}: {err}");
            assert!(err.contains(needle), "{text}: {err} (wanted {needle})");
        }
    }

    fn store_with(metric: &str, points: &[(u64, f64)]) -> SeriesStore {
        let store = SeriesStore::new(64);
        for &(tick, v) in points {
            store.record(metric, tick, tick * S, v);
        }
        store
    }

    #[test]
    fn lifecycle_pending_firing_resolved() {
        // faults counter: flat, then a burst of +2/s for 3 ticks, then flat
        let store = SeriesStore::new(64);
        let values = [0.0, 0.0, 2.0, 4.0, 6.0, 6.0, 6.0, 6.0, 6.0, 6.0];
        let rule = parse_rule("rule burst: rate(faults, 3s) > 1/s for 2s => warn").unwrap();
        let mut engine = AlertEngine::new(vec![rule]);
        let mut timeline = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            let tick = i as u64 + 1;
            store.record("faults", tick, tick * S, v);
            let out = engine.evaluate(tick, tick * S, &store);
            timeline.extend(out.transitions.into_iter().map(|t| (t.tick, t.to)));
        }
        // tick 3 gains 2 over the 3s window (0.67/s, under threshold);
        // tick 4 gains 4 (1.33/s) → pending; still breaching at tick 5
        // (hold-down running); fires at tick 6 (2s elapsed); the burst
        // finishes sliding out of the window at tick 8 (gain 2, 0.67/s)
        // → resolved.
        assert_eq!(
            timeline,
            vec![(4, "pending"), (6, "firing"), (8, "resolved")],
            "full timeline: {timeline:?}"
        );
        let states = engine.states();
        assert_eq!(states[0].fired, 1);
        assert_eq!(states[0].resolved, 1);
        assert_eq!(states[0].state, "idle");
    }

    #[test]
    fn hold_down_cancellation_never_fires() {
        let store = store_with("g", &[(1, 0.0)]);
        let rule = parse_rule("rule spike: g > 5 for 10s => page").unwrap();
        let mut engine = AlertEngine::new(vec![rule]);
        engine.evaluate(1, S, &store);
        store.record("g", 2, 2 * S, 9.0); // breach → pending
        let out = engine.evaluate(2, 2 * S, &store);
        assert_eq!(out.transitions[0].to, "pending");
        store.record("g", 3, 3 * S, 1.0); // back under before the hold-down
        let out = engine.evaluate(3, 3 * S, &store);
        assert_eq!(out.transitions[0].to, "cancelled");
        assert_eq!(out.transitions[0].event_name(), "alert.cancelled");
        assert_eq!(engine.states()[0].fired, 0);
    }

    #[test]
    fn zero_hold_down_fires_immediately_and_ratio_guards_division() {
        let store = SeriesStore::new(64);
        let rule = parse_rule("rule opt: ratio(q, lb) > 2 => info").unwrap();
        let mut engine = AlertEngine::new(vec![rule]);
        // denominator missing → undefined → no edge
        store.record("q", 1, S, 9.0);
        assert!(engine.evaluate(1, S, &store).transitions.is_empty());
        // denominator zero → still undefined
        store.record("lb", 2, 2 * S, 0.0);
        assert!(engine.evaluate(2, 2 * S, &store).transitions.is_empty());
        store.record("lb", 3, 3 * S, 3.0);
        let out = engine.evaluate(3, 3 * S, &store);
        assert_eq!(out.transitions[0].to, "firing");
        assert_eq!(out.firing, 1);
        assert!(engine
            .summary_line()
            .starts_with("alerts: 1 firing, 1 fired"));
    }
}
