//! qoco-watch time-series core: fixed-capacity ring buffers sampled from
//! the global [`MetricsRegistry`](crate::MetricsRegistry) on a tick.
//!
//! A [`SeriesStore`] keeps one bounded ring of `(tick, at_ns, value)`
//! samples per metric. Each tick snapshots every registered counter and
//! gauge under its own name and every histogram as derived `<name>.p50` /
//! `<name>.p95` series (approximate quantiles read off the fixed decade
//! buckets). Windowed derivations are computed on demand: rate-over-window
//! for counters (reset-safe — a per-session epoch restart contributes no
//! negative spike), min/max/last for gauges.
//!
//! Two tick modes, both driven through one global [`Watch`]:
//!
//! * **wall-clock** — a `qoco-watch` sampler thread (stopped by a flag
//!   and joined on drop) ticks every `interval`; right for live
//!   dashboards.
//! * **logical** — [`watch_tick`] fires at every crowd-answer boundary
//!   (hooked in `qoco-crowd`), one tick = one nominal second. Counter
//!   values at answer boundaries are bit-identical across fresh and
//!   journal-resumed sessions, so rule evaluation — and the exported
//!   series — replay deterministically; this is the mode CI gates on.
//!
//! Every tick also runs the [`AlertEngine`]: lifecycle edges become
//! telemetry events (hence JSONL lines and Chrome-trace instants), the
//! `alerts.evaluations` / `alerts.fired` counters tick, and the
//! `alerts.firing` gauge tracks the live count. Disabled cost: starting a
//! watch without a telemetry session is inert, and [`watch_tick`] is one
//! relaxed atomic load.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::alerts::{AlertEngine, AlertStateView, Rule, Transition};
use crate::json::push_json_str;
use crate::metrics::{HistogramSummary, MetricsSnapshot, BUCKET_BOUNDS};

fn unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Default per-series ring capacity (samples retained per metric).
pub const DEFAULT_SERIES_CAPACITY: usize = 512;

/// Nominal duration of one logical tick: rule windows written in seconds
/// line up 1:1 with crowd-answer boundaries.
pub const LOGICAL_TICK_NS: u64 = 1_000_000_000;

/// One observation of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Monotonic tick index (1-based).
    pub tick: u64,
    /// Series timestamp: session-relative wall clock, or
    /// `tick × LOGICAL_TICK_NS` in logical mode.
    pub at_ns: u64,
    /// The sampled value.
    pub value: f64,
}

#[derive(Debug)]
struct RingSeries {
    cap: usize,
    data: VecDeque<Sample>,
    /// Whether any sample has been evicted: once history is lost the
    /// series' first retained sample is no longer its birth.
    evicted: bool,
}

impl RingSeries {
    fn push(&mut self, s: Sample) {
        if self.data.len() == self.cap {
            self.data.pop_front();
            self.evicted = true;
        }
        self.data.push_back(s);
    }
}

/// Windowed min/max/last over one series; see [`SeriesStore::window_stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Smallest in-window value.
    pub min: f64,
    /// Largest in-window value.
    pub max: f64,
    /// Most recent in-window value.
    pub last: f64,
    /// In-window sample count.
    pub count: usize,
}

/// Bounded per-metric sample rings with windowed derivations.
pub struct SeriesStore {
    cap: usize,
    /// Smallest tick ever recorded: a series whose first sample is *later*
    /// than this was born while the store was already observing, so its
    /// first value is a genuine increase from zero (see [`Self::rate`]).
    first_tick: AtomicU64,
    series: Mutex<BTreeMap<String, RingSeries>>,
}

impl SeriesStore {
    /// An empty store whose rings hold at most `capacity` samples each.
    pub fn new(capacity: usize) -> SeriesStore {
        SeriesStore {
            cap: capacity.max(2),
            first_tick: AtomicU64::new(u64::MAX),
            series: Mutex::new(BTreeMap::new()),
        }
    }

    /// Append one sample to `metric`'s ring (evicting the oldest at
    /// capacity). Also the loader for `qoco-bench watch-replay`.
    pub fn record(&self, metric: &str, tick: u64, at_ns: u64, value: f64) {
        self.first_tick.fetch_min(tick, Ordering::Relaxed);
        let mut series = unpoisoned(&self.series);
        let ring = series
            .entry(metric.to_string())
            .or_insert_with(|| RingSeries {
                cap: self.cap,
                data: VecDeque::with_capacity(self.cap.min(64)),
                evicted: false,
            });
        ring.push(Sample { tick, at_ns, value });
    }

    /// Sample every metric in `snap`: counters and gauges under their own
    /// names, histograms as derived `<name>.p50` / `<name>.p95` series.
    pub fn observe(&self, tick: u64, at_ns: u64, snap: &MetricsSnapshot) {
        for (name, v) in &snap.counters {
            self.record(name, tick, at_ns, *v as f64);
        }
        for (name, v) in &snap.gauges {
            self.record(name, tick, at_ns, *v);
        }
        for (name, h) in &snap.histograms {
            self.record(
                &format!("{name}.p50"),
                tick,
                at_ns,
                histogram_quantile(h, 0.50),
            );
            self.record(
                &format!("{name}.p95"),
                tick,
                at_ns,
                histogram_quantile(h, 0.95),
            );
        }
    }

    /// Every series name currently held (sorted).
    pub fn names(&self) -> Vec<String> {
        unpoisoned(&self.series).keys().cloned().collect()
    }

    /// All retained samples of `metric` (oldest first), empty if unknown.
    pub fn samples(&self, metric: &str) -> Vec<Sample> {
        unpoisoned(&self.series)
            .get(metric)
            .map(|r| r.data.iter().copied().collect())
            .unwrap_or_default()
    }

    /// The most recent sample of `metric`.
    pub fn last(&self, metric: &str) -> Option<Sample> {
        unpoisoned(&self.series).get(metric)?.data.back().copied()
    }

    /// Counter increase per second over the trailing window ending at
    /// `now_ns`: the sum of *positive* sample-to-sample deltas inside the
    /// window divided by the window length. Negative deltas — a counter
    /// reset when a second session restarts the per-session epoch — are
    /// ignored rather than producing a huge negative spike. The sample
    /// just before the window is used as the baseline so increments
    /// entering the window are counted. A counter *born* while the store
    /// was already observing (its first retained sample is untruncated and
    /// later than the store's first tick — `crowd.faults` on the first
    /// injected fault, say) counts its first value as an increase from
    /// zero; series present from the store's first tick keep their first
    /// sample as the baseline, so attaching a watch to a long-running
    /// session never manufactures a spike. `None` until the series has an
    /// in-window sample.
    pub fn rate(&self, metric: &str, window_ns: u64, now_ns: u64) -> Option<f64> {
        if window_ns == 0 {
            return None;
        }
        let series = unpoisoned(&self.series);
        let ring = series.get(metric)?;
        let cut = now_ns.saturating_sub(window_ns);
        let born_watched = !ring.evicted
            && ring
                .data
                .front()
                .is_some_and(|s| s.tick > self.first_tick.load(Ordering::Relaxed));
        let mut prev: Option<f64> = born_watched.then_some(0.0);
        let mut gained = 0.0;
        let mut in_window = false;
        for s in &ring.data {
            if s.at_ns < cut {
                prev = Some(s.value);
                continue;
            }
            in_window = true;
            if let Some(p) = prev {
                let delta = s.value - p;
                if delta > 0.0 {
                    gained += delta;
                }
            }
            prev = Some(s.value);
        }
        in_window.then(|| gained / (window_ns as f64 / 1e9))
    }

    /// Min/max/last over the trailing window ending at `now_ns`.
    pub fn window_stats(&self, metric: &str, window_ns: u64, now_ns: u64) -> Option<WindowStats> {
        let series = unpoisoned(&self.series);
        let ring = series.get(metric)?;
        let cut = now_ns.saturating_sub(window_ns);
        let mut stats: Option<WindowStats> = None;
        for s in ring.data.iter().filter(|s| s.at_ns >= cut) {
            let st = stats.get_or_insert(WindowStats {
                min: s.value,
                max: s.value,
                last: s.value,
                count: 0,
            });
            st.min = st.min.min(s.value);
            st.max = st.max.max(s.value);
            st.last = s.value;
            st.count += 1;
        }
        stats
    }

    /// Every retained sample as `{"type":"sample",…}` JSONL lines, sorted
    /// by (tick, metric) — the format `qoco-bench watch-replay` consumes.
    pub fn to_jsonl_lines(&self) -> Vec<String> {
        let series = unpoisoned(&self.series);
        let mut rows: Vec<(u64, &str, Sample)> = Vec::new();
        for (name, ring) in series.iter() {
            for s in &ring.data {
                rows.push((s.tick, name.as_str(), *s));
            }
        }
        rows.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        rows.iter()
            .map(|(_, name, s)| {
                let mut l = String::from("{\"type\":\"sample\",\"metric\":");
                push_json_str(&mut l, name);
                l.push_str(&format!(
                    ",\"tick\":{},\"at_ns\":{},\"value\":{}}}",
                    s.tick, s.at_ns, s.value
                ));
                l
            })
            .collect()
    }
}

/// Approximate `q`-quantile (0..1) of a fixed-bucket histogram: the upper
/// bound of the bucket holding the target observation, clamped into the
/// observed `[min, max]` range (exact for the overflow tail, which reports
/// `max`). Deterministic, and tight enough for decade-bucket SLOs.
pub fn histogram_quantile(h: &HistogramSummary, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let target = ((q.clamp(0.0, 1.0) * h.count as f64).ceil() as u64).max(1);
    let mut running = 0u64;
    for (i, &n) in h.buckets.iter().enumerate() {
        running += n;
        if running >= target {
            return (BUCKET_BOUNDS[i] as f64).clamp(h.min as f64, h.max as f64);
        }
    }
    h.max as f64
}

/// How a [`Watch`] advances its tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchTick {
    /// A `qoco-watch` sampler thread ticks every interval (live mode).
    Wall(Duration),
    /// [`watch_tick`] fires at every crowd-answer boundary, one tick = one
    /// nominal second (deterministic mode; what CI replays).
    Logical,
}

/// The live watch state: a [`SeriesStore`] plus an [`AlertEngine`],
/// advanced one tick at a time.
pub struct Watch {
    logical: bool,
    ticks: AtomicU64,
    store: SeriesStore,
    engine: Mutex<AlertEngine>,
}

impl Watch {
    fn new(rules: Vec<Rule>, capacity: usize, logical: bool) -> Watch {
        Watch {
            logical,
            ticks: AtomicU64::new(0),
            store: SeriesStore::new(capacity),
            engine: Mutex::new(AlertEngine::new(rules)),
        }
    }

    /// The sampled series.
    pub fn store(&self) -> &SeriesStore {
        &self.store
    }

    /// Ticks taken so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Whether this watch ticks at crowd-answer boundaries.
    pub fn is_logical(&self) -> bool {
        self.logical
    }

    /// Live per-rule lifecycle state.
    pub fn alert_states(&self) -> Vec<AlertStateView> {
        unpoisoned(&self.engine).states()
    }

    /// Recent lifecycle edges (bounded, oldest first).
    pub fn recent_transitions(&self) -> Vec<Transition> {
        unpoisoned(&self.engine).recent_transitions()
    }

    /// The engine's one-line summary for final reports.
    pub fn summary_line(&self) -> String {
        unpoisoned(&self.engine).summary_line()
    }

    /// Advance one tick: snapshot the registry, append samples, evaluate
    /// every rule, and report the lifecycle edges as telemetry.
    pub fn tick_once(&self) {
        let tick = self.ticks.fetch_add(1, Ordering::Relaxed) + 1;
        let at_ns = if self.logical {
            tick * LOGICAL_TICK_NS
        } else {
            crate::now_ns()
        };
        let snap = crate::metrics().snapshot();
        self.store.observe(tick, at_ns, &snap);
        let outcome = unpoisoned(&self.engine).evaluate(tick, at_ns, &self.store);
        crate::counter_add("alerts.evaluations", outcome.rules as u64);
        crate::gauge_set("alerts.firing", outcome.firing as f64);
        for t in &outcome.transitions {
            if t.to == "firing" {
                crate::counter_add("alerts.fired", 1);
            }
            // The event flows to the installed collector: a JSONL line in
            // the --telemetry export and a "ph":"i" instant in the Chrome
            // trace, with no exporter-side special-casing.
            crate::event(t.event_name(), || t.log_line());
        }
    }
}

static WATCH_ACTIVE: AtomicBool = AtomicBool::new(false);
static WATCH: RwLock<Option<Arc<Watch>>> = RwLock::new(None);

/// The installed watch, if one is running.
pub fn watch() -> Option<Arc<Watch>> {
    if !WATCH_ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    WATCH.read().unwrap_or_else(|p| p.into_inner()).clone()
}

/// Logical tick hook, called at every crowd-answer boundary. One relaxed
/// atomic load when no watch is installed (the permanent state of
/// sessions without `--watch-rules`), and inert for wall-clock watches.
#[inline]
pub fn watch_tick() {
    if !WATCH_ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    if let Some(w) = watch() {
        if w.logical {
            w.tick_once();
        }
    }
}

struct WatchInner {
    watch: Arc<Watch>,
    stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<()>>,
}

/// A running watch; see [`start_watch`]. Dropping it takes one final tick
/// (so the end-of-session values are always sampled), stops the sampler
/// thread if one was spawned, and uninstalls the global watch.
pub struct WatchGuard {
    inner: Option<WatchInner>,
}

impl WatchGuard {
    /// Whether a watch was actually installed (false when telemetry was
    /// disabled at start).
    pub fn is_live(&self) -> bool {
        self.inner.is_some()
    }

    /// Handle to the watch state — clone it to read the series after the
    /// guard is dropped.
    pub fn watch(&self) -> Option<Arc<Watch>> {
        self.inner.as_ref().map(|i| i.watch.clone())
    }
}

impl Drop for WatchGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        inner.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = inner.sampler {
            let _ = handle.join();
        }
        // Final tick after the sampler is quiet: deterministic in logical
        // mode (exactly one end-of-session tick) and guarantees even a
        // session shorter than one wall interval gets sampled.
        inner.watch.tick_once();
        WATCH_ACTIVE.store(false, Ordering::Relaxed);
        let mut slot = WATCH.write().unwrap_or_else(|p| p.into_inner());
        *slot = None;
    }
}

/// Install the global watch and start ticking. Inert (returns a dead
/// guard) while telemetry is disabled — the watch samples the global
/// registry, which only records under a session. One watch at a time; a
/// second `start_watch` replaces the first (the old guard's drop is then a
/// no-op for the slot it no longer owns — avoid nesting).
pub fn start_watch(rules: Vec<Rule>, tick: WatchTick) -> WatchGuard {
    if !crate::enabled() {
        return WatchGuard { inner: None };
    }
    let logical = matches!(tick, WatchTick::Logical);
    let watch = Arc::new(Watch::new(rules, DEFAULT_SERIES_CAPACITY, logical));
    {
        let mut slot = WATCH.write().unwrap_or_else(|p| p.into_inner());
        *slot = Some(watch.clone());
    }
    WATCH_ACTIVE.store(true, Ordering::Relaxed);
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = match tick {
        WatchTick::Logical => None,
        WatchTick::Wall(interval) => {
            let interval = interval.max(Duration::from_millis(1));
            let flag = stop.clone();
            let w = watch.clone();
            std::thread::Builder::new()
                .name("qoco-watch".to_string())
                .spawn(move || {
                    let chunk = Duration::from_millis(10);
                    loop {
                        let mut slept = Duration::ZERO;
                        while slept < interval {
                            if flag.load(Ordering::Relaxed) {
                                return;
                            }
                            let nap = chunk.min(interval - slept);
                            std::thread::sleep(nap);
                            slept += nap;
                        }
                        if flag.load(Ordering::Relaxed) {
                            return;
                        }
                        w.tick_once();
                    }
                })
                .ok()
        }
    };
    WatchGuard {
        inner: Some(WatchInner {
            watch,
            stop,
            sampler,
        }),
    }
}

// ---------------------------------------------------------------------------
// Dashboard rendering (GET /dashboard)

/// A deterministic inline-SVG sparkline over `samples` (value scaled into
/// the box, tick order left to right). Returns a placeholder before two
/// samples exist.
fn sparkline(samples: &[Sample]) -> String {
    const W: f64 = 260.0;
    const H: f64 = 48.0;
    if samples.len() < 2 {
        return "<div class=\"spark empty\">waiting for samples…</div>".to_string();
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for s in samples {
        lo = lo.min(s.value);
        hi = hi.max(s.value);
    }
    let span = if hi > lo { hi - lo } else { 1.0 };
    let step = W / (samples.len() - 1) as f64;
    let mut points = String::new();
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            points.push(' ');
        }
        let x = i as f64 * step;
        let y = H - 4.0 - (s.value - lo) / span * (H - 8.0);
        points.push_str(&format!("{x:.1},{y:.1}"));
    }
    format!(
        "<svg class=\"spark\" viewBox=\"0 0 {W} {H}\" width=\"{W}\" height=\"{H}\" \
         preserveAspectRatio=\"none\"><polyline fill=\"none\" stroke=\"#2f81f7\" \
         stroke-width=\"1.5\" points=\"{points}\"/></svg>"
    )
}

fn fmt_value(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => {
            if v == v.trunc() && v.abs() < 1e12 {
                format!("{v:.0}")
            } else {
                format!("{v:.3}")
            }
        }
        _ => "—".to_string(),
    }
}

fn panel(title: &str, samples: &[Sample], reading: &str) -> String {
    format!(
        "<div class=\"panel\"><h2>{title}</h2>{}<p class=\"reading\">{reading}</p></div>",
        sparkline(samples)
    )
}

/// Render the self-contained `/dashboard` HTML page: sparkline panels for
/// eval throughput, crowd health, view-maintenance mix and the live
/// optimality ratio, plus the alert table. Std-only string building, no
/// external assets; auto-refreshes via `<meta http-equiv="refresh">`.
pub fn dashboard_html() -> String {
    let mut body = String::new();
    let watch = watch();
    match &watch {
        None => {
            body.push_str(
                "<p class=\"sub\">no watch is running — start qoco-cli with \
                 <code>--watch-rules &lt;file&gt;</code> (and optionally \
                 <code>--watch-tick &lt;ms|logical&gt;</code>) to light this page up.</p>",
            );
        }
        Some(w) => {
            let store = w.store();
            let now_ns = store
                .last("crowd.questions_asked")
                .or_else(|| store.names().first().and_then(|n| store.last(n)))
                .map(|s| s.at_ns)
                .unwrap_or(0);
            let window = 60 * LOGICAL_TICK_NS;
            body.push_str(&format!(
                "<p class=\"sub\">tick {} · {} series · {} tick mode · session {}</p>",
                w.ticks(),
                store.names().len(),
                if w.is_logical() {
                    "logical"
                } else {
                    "wall-clock"
                },
                if crate::enabled() { "active" } else { "idle" },
            ));

            let rate_reading = |m: &str| match store.rate(m, window, now_ns) {
                Some(r) => format!(
                    "{r:.3}/s over 60s · total {}",
                    fmt_value(store.last(m).map(|s| s.value))
                ),
                None => "no data yet".to_string(),
            };
            body.push_str(&panel(
                "eval throughput (assignments tried)",
                &store.samples("eval.assignments_tried"),
                &rate_reading("eval.assignments_tried"),
            ));
            for (title, metric) in [
                ("crowd faults", "crowd.faults"),
                ("crowd retries", "crowd.retries"),
                ("crowd escalations", "crowd.escalations"),
            ] {
                body.push_str(&panel(title, &store.samples(metric), &rate_reading(metric)));
            }
            let delta = store.last("view.delta_edits").map(|s| s.value);
            let refresh = store.last("view.full_refreshes").map(|s| s.value);
            let view_ratio = match (delta, refresh) {
                (Some(d), Some(r)) if d + r > 0.0 => format!(
                    "{} delta / {} refresh · {:.1}% incremental",
                    fmt_value(delta),
                    fmt_value(refresh),
                    d / (d + r) * 100.0
                ),
                _ => "no view maintenance yet".to_string(),
            };
            body.push_str(&panel(
                "view maintenance: delta edits vs full refreshes",
                &store.samples("view.delta_edits"),
                &view_ratio,
            ));
            let questions = store.last("session.questions_asked").map(|s| s.value);
            let bound = store.last("session.lower_bound").map(|s| s.value);
            let opt_reading = match (questions, bound) {
                (Some(q), Some(b)) if b > 0.0 => format!(
                    "{} questions / lower bound {} = {:.2}× (1.0 is Theorem 4.5 optimal)",
                    fmt_value(questions),
                    fmt_value(bound),
                    q / b
                ),
                _ => "no deletion plan recorded yet".to_string(),
            };
            body.push_str(&panel(
                "optimality ratio (questions vs hitting-set lower bound)",
                &store.samples("session.questions_asked"),
                &opt_reading,
            ));

            // Per-route serve panels (PR 10), discovered from whatever
            // serve.* series the run has produced — the name vocabulary
            // is bounded by the route table, so this stays small. The
            // aggregate request counter leads; per-route counters and
            // derived p95 latencies follow in sorted (route) order.
            let serve_names = store.names();
            if serve_names.iter().any(|n| n.starts_with("serve.")) {
                body.push_str("<h2>serve</h2>");
                if store.last("serve.requests").is_some() {
                    let inflight = fmt_value(store.last("serve.inflight").map(|s| s.value));
                    let rejected = fmt_value(store.last("serve.rejected").map(|s| s.value));
                    body.push_str(&panel(
                        "requests (all routes)",
                        &store.samples("serve.requests"),
                        &format!(
                            "{} · {inflight} in flight · {rejected} rejected",
                            rate_reading("serve.requests")
                        ),
                    ));
                }
                for name in &serve_names {
                    if let Some(route) = name.strip_prefix("serve.requests.") {
                        body.push_str(&panel(
                            &format!("route {route}"),
                            &store.samples(name),
                            &rate_reading(name),
                        ));
                    } else if name.starts_with("serve.latency_ns.") && name.ends_with(".p95") {
                        let route = &name["serve.latency_ns.".len()..name.len() - ".p95".len()];
                        let reading = match store.last(name) {
                            Some(s) => format!("p95 {} ns", fmt_value(Some(s.value))),
                            None => "no data yet".to_string(),
                        };
                        body.push_str(&panel(
                            &format!("latency p95: {route}"),
                            &store.samples(name),
                            &reading,
                        ));
                    }
                }
            }

            body.push_str("<h2>alerts</h2>");
            let states = w.alert_states();
            if states.is_empty() {
                body.push_str("<p class=\"sub\">no rules loaded</p>");
            } else {
                body.push_str(
                    "<table><tr><th>rule</th><th>severity</th><th>state</th>\
                     <th>value</th><th>fired</th><th>resolved</th><th>condition</th></tr>",
                );
                for s in &states {
                    body.push_str(&format!(
                        "<tr class=\"{}\"><td>{}</td><td>{}</td><td>{}</td>\
                         <td>{}</td><td>{}</td><td>{}</td><td><code>{}</code></td></tr>",
                        s.state,
                        s.name,
                        s.severity,
                        s.state,
                        fmt_value(s.last_value),
                        s.fired,
                        s.resolved,
                        s.rule,
                    ));
                }
                body.push_str("</table>");
            }
        }
    }
    format!(
        "<!doctype html><html><head><meta charset=\"utf-8\">\
         <meta http-equiv=\"refresh\" content=\"2\"><title>qoco-watch</title><style>\
         body{{font:14px/1.5 -apple-system,sans-serif;margin:2em auto;max-width:64em;\
         color:#1f2328;padding:0 1em}}h1{{font-size:1.4em}}h2{{font-size:1em;margin:.2em 0}}\
         .sub{{color:#656d76}}.panel{{display:inline-block;vertical-align:top;\
         border:1px solid #d0d7de;border-radius:6px;padding:.6em .8em;margin:.3em}}\
         .spark{{display:block}}.spark.empty{{color:#656d76;width:260px;height:48px}}\
         .reading{{margin:.3em 0 0;color:#656d76}}table{{border-collapse:collapse}}\
         td,th{{border:1px solid #d0d7de;padding:.25em .6em;text-align:left}}\
         tr.firing td{{background:#ffebe9}}tr.pending td{{background:#fff8c5}}\
         </style></head><body><h1>qoco-watch</h1>{body}</body></html>"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InMemoryCollector;

    const S: u64 = LOGICAL_TICK_NS;

    #[test]
    fn ring_buffer_wraps_at_capacity_keeping_the_newest_samples() {
        let store = SeriesStore::new(4);
        for t in 1..=10u64 {
            store.record("c", t, t * S, t as f64);
        }
        let kept = store.samples("c");
        assert_eq!(kept.len(), 4, "ring holds exactly its capacity");
        assert_eq!(
            kept.iter().map(|s| s.tick).collect::<Vec<_>>(),
            vec![7, 8, 9, 10],
            "oldest samples evicted first"
        );
        assert_eq!(store.last("c").expect("non-empty").value, 10.0);
        // derivations keep working over the post-wrap window
        let rate = store.rate("c", 3 * S, 10 * S).expect("in-window samples");
        assert!((rate - 1.0).abs() < 1e-9, "counter grows 1/s, got {rate}");
    }

    #[test]
    fn windowed_rate_survives_a_counter_reset_without_a_negative_spike() {
        // PR 3's per-session epoch restarts counters from zero when a
        // second session begins; the rate must not swing negative.
        let store = SeriesStore::new(64);
        let values = [100.0, 110.0, 120.0, /* reset */ 0.0, 10.0, 20.0];
        for (i, &v) in values.iter().enumerate() {
            let t = i as u64 + 1;
            store.record("c", t, t * S, v);
        }
        // window spanning the reset: gains are 10+10 (pre-reset) and 10+10
        // (post-reset); the -120 reset delta contributes nothing.
        let rate = store.rate("c", 6 * S, 6 * S).expect("samples in window");
        assert!(
            rate >= 0.0,
            "reset must not produce a negative rate: {rate}"
        );
        assert!(
            (rate - 40.0 / 6.0).abs() < 1e-9,
            "positive deltas only: got {rate}"
        );
        // min/max/last see the raw values
        let stats = store.window_stats("c", 6 * S, 6 * S).expect("stats");
        assert_eq!(stats.min, 0.0);
        assert_eq!(stats.max, 120.0);
        assert_eq!(stats.last, 20.0);
        assert_eq!(stats.count, 6);
    }

    #[test]
    fn rate_is_none_without_in_window_samples_and_zero_for_flat_counters() {
        let store = SeriesStore::new(8);
        assert_eq!(store.rate("missing", S, 10 * S), None);
        store.record("c", 1, S, 5.0);
        assert_eq!(store.rate("c", S, 100 * S), None, "sample left the window");
        store.record("c", 2, 99 * S, 5.0);
        store.record("c", 3, 100 * S, 5.0);
        assert_eq!(store.rate("c", 2 * S, 100 * S), Some(0.0), "flat counter");
    }

    #[test]
    fn a_counter_born_mid_watch_counts_its_first_value_from_zero() {
        let store = SeriesStore::new(8);
        // an always-present series pins the store's first tick at 1
        for t in 1..=4u64 {
            store.record("base", t, t * S, t as f64);
        }
        // faults counter only materialises at tick 3, already at 2
        store.record("faults", 3, 3 * S, 2.0);
        store.record("faults", 4, 4 * S, 2.0);
        let rate = store.rate("faults", 2 * S, 4 * S).expect("in-window");
        assert!(
            (rate - 1.0).abs() < 1e-9,
            "birth counts as +2 over the 2s window, got {rate}"
        );
        // a series present from the store's first tick keeps its first
        // sample as the baseline: no manufactured spike
        let base = store.rate("base", 4 * S, 4 * S).expect("in-window");
        assert!(
            (base - 0.75).abs() < 1e-9,
            "pre-existing series gains 3 over 4s, got {base}"
        );
    }

    #[test]
    fn observe_derives_histogram_quantiles_and_jsonl_round_trips() {
        let registry = crate::MetricsRegistry::new();
        registry.counter_add("c.total", 7);
        registry.gauge_set("g.open", 2.5);
        for v in [500u64, 600, 700, 9_000, 950_000] {
            registry.histogram_record("h.ns", v);
        }
        let store = SeriesStore::new(16);
        store.observe(1, S, &registry.snapshot());
        assert_eq!(store.last("c.total").unwrap().value, 7.0);
        assert_eq!(store.last("g.open").unwrap().value, 2.5);
        // p50 of [500,600,700,9000,950000]: 3rd obs is in the ≤1000 bucket
        // → bound 1000, clamped into [500, 950000]
        assert_eq!(store.last("h.ns.p50").unwrap().value, 1000.0);
        // p95 target is the 5th obs → ≤1000000 bucket bound, clamped to max
        assert_eq!(store.last("h.ns.p95").unwrap().value, 950_000.0);
        let lines = store.to_jsonl_lines();
        assert_eq!(lines.len(), 4, "counter + gauge + two quantile series");
        assert!(lines[0].starts_with("{\"type\":\"sample\",\"metric\":\"c.total\""));
        assert!(lines.iter().all(|l| l.contains("\"tick\":1")));
    }

    #[test]
    fn quantile_of_the_overflow_tail_reports_the_observed_max() {
        let registry = crate::MetricsRegistry::new();
        registry.histogram_record("h", 50);
        registry.histogram_record("h", 20_000_000_000); // beyond the ladder
        let h = registry.snapshot().histograms["h"];
        assert_eq!(histogram_quantile(&h, 0.95), 20_000_000_000.0);
        // the low quantile reads the ≤100 bucket's upper bound
        assert_eq!(histogram_quantile(&h, 0.25), 100.0);
        // a clamp engages when the bucket bound undershoots the series min
        let one = crate::MetricsRegistry::new();
        one.histogram_record("o", 750);
        let h1 = one.snapshot().histograms["o"];
        assert_eq!(histogram_quantile(&h1, 0.5), 750.0, "clamped to min");
    }

    #[test]
    fn logical_watch_ticks_sample_and_evaluate_deterministically() {
        let collector = std::sync::Arc::new(InMemoryCollector::new());
        let session = crate::session(collector.clone());
        let rules =
            crate::alerts::parse_rules("rule hot: rate(w.count, 2s) > 1/s => warn").unwrap();
        let guard = start_watch(rules, WatchTick::Logical);
        assert!(guard.is_live());
        let w = guard.watch().expect("live watch");
        for i in 0..4u64 {
            crate::counter_add("w.count", 3 * i); // accelerating counter
            watch_tick();
        }
        assert_eq!(w.ticks(), 4);
        assert_eq!(
            w.store().samples("w.count").len(),
            4,
            "one sample per logical tick"
        );
        // synthesized timestamps: tick × 1s
        assert_eq!(w.store().samples("w.count")[2].at_ns, 3 * S);
        let states = w.alert_states();
        assert_eq!(states[0].fired, 1, "accelerating counter trips the rule");
        drop(guard);
        assert!(watch().is_none(), "guard drop uninstalls the watch");
        // transitions were reported as events (JSONL / Chrome instants)
        let snap = crate::metrics().snapshot();
        drop(session);
        let names: Vec<_> = collector.events().iter().map(|e| e.name).collect();
        assert!(names.contains(&"alert.firing"), "events: {names:?}");
        assert!(snap.counter("alerts.fired") >= 1);
        assert!(snap.counter("alerts.evaluations") >= 4);
    }

    #[test]
    fn wall_clock_sampler_ticks_and_stops_cleanly() {
        let collector = std::sync::Arc::new(InMemoryCollector::new());
        let session = crate::session(collector);
        crate::counter_add("wall.count", 1);
        let guard = start_watch(Vec::new(), WatchTick::Wall(Duration::from_millis(5)));
        assert!(guard.is_live());
        let w = guard.watch().expect("live watch");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while w.ticks() < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(w.ticks() >= 3, "sampler thread never ticked");
        drop(guard); // joins the sampler; must not hang
        let after = w.ticks();
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(w.ticks(), after, "sampler still ticking after drop");
        assert!(w.store().samples("wall.count").len() >= 3);
        drop(session);
    }

    #[test]
    fn start_watch_is_inert_while_telemetry_is_disabled() {
        let _serial = crate::SESSION_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        assert!(!crate::enabled());
        let guard = start_watch(Vec::new(), WatchTick::Logical);
        assert!(!guard.is_live());
        assert!(guard.watch().is_none());
        assert!(watch().is_none());
        watch_tick(); // must be a no-op, not a panic
        drop(guard);
    }

    #[test]
    fn dashboard_renders_with_and_without_a_watch() {
        let _serial = crate::SESSION_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let page = dashboard_html();
        assert!(page.contains("qoco-watch"));
        assert!(
            page.contains("--watch-rules"),
            "idle page explains how to start"
        );
        let collector = std::sync::Arc::new(InMemoryCollector::new());
        let _nested = crate::nested_session(collector);
        let rules = crate::alerts::parse_rules("rule q: crowd.faults > 100 => page").unwrap();
        let guard = start_watch(rules, WatchTick::Logical);
        for i in 0..3u64 {
            crate::counter_add("eval.assignments_tried", 10 + i);
            crate::counter_add("crowd.faults", 1);
            watch_tick();
        }
        let page = dashboard_html();
        assert!(page.contains("<svg"), "live page draws sparklines: {page}");
        assert!(page.contains("eval throughput"));
        assert!(page.contains("rule q"), "alert table lists the rule");
        assert!(page.contains("idle"), "rule never breached");
        drop(guard);
    }

    #[test]
    fn dashboard_grows_route_panels_from_serve_series() {
        let _serial = crate::SESSION_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let collector = std::sync::Arc::new(InMemoryCollector::new());
        let _nested = crate::nested_session(collector);
        let guard = start_watch(Vec::new(), WatchTick::Logical);
        for i in 0..3u64 {
            crate::counter_add("serve.requests", 1);
            crate::counter_add("serve.requests.report.2xx", 1);
            crate::counter_add("serve.rejected", i & 1);
            crate::gauge_set("serve.inflight", 2.0);
            crate::histogram_record("serve.latency_ns.report", 40_000 + i * 1_000);
            watch_tick();
        }
        let page = dashboard_html();
        assert!(page.contains("<h2>serve</h2>"), "serve section: {page}");
        assert!(page.contains("requests (all routes)"));
        assert!(
            page.contains("route report.2xx"),
            "per-route sparkline panel: {page}"
        );
        assert!(
            page.contains("latency p95: report"),
            "derived p95 latency panel: {page}"
        );
        drop(guard);
    }
}
