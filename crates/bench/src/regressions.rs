//! The perf-regression gate: re-run the eval scaling sweep and compare it
//! against the committed `BENCH_eval.json` baseline.
//!
//! Raw cross-run comparison would flag every run on a machine slower than
//! the one that wrote the baseline, so the gate calibrates first: the
//! *seed* engine cells measure a frozen algorithm (the preserved PR 2
//! baseline, untouched by ongoing work), which makes their measured/baseline
//! ratio a pure machine-speed signal. The geometric mean of those ratios
//! becomes the calibration factor, and every *current*-engine cell is then
//! judged against `baseline × calibration × threshold`. A >25% slowdown of
//! any cell beyond that scaled baseline fails the gate.

use crate::json::{push_json_str, Json};
use crate::scaling::Sample;

/// Relative slowdown tolerated per cell (1.25 = fail above +25%).
pub const DEFAULT_THRESHOLD: f64 = 1.25;

/// Absolute slack (ns) a cell must also exceed before it can fail: cells
/// this close to the scaled baseline are inside timer/scheduler noise no
/// matter what the ratio says.
pub const ABSOLUTE_FLOOR_NS: f64 = 500_000.0;

/// One cell of the committed baseline.
#[derive(Clone, Debug)]
pub struct BaselineCell {
    /// `workload/size/engine/threads`.
    pub key: String,
    /// Engine name (`"seed"` or `"current"`).
    pub engine: String,
    /// Mean wall-clock ns recorded in the baseline.
    pub mean_ns: f64,
}

/// The `host_parallelism` recorded in a baseline document, if present.
/// The gate's calibration corrects single-thread machine speed only, so a
/// comparison across hosts with different core counts should *warn* (the
/// thread-scaling cells may diverge for machine reasons) without gating.
pub fn baseline_host_parallelism(text: &str) -> Option<u64> {
    Json::parse(text)
        .ok()?
        .get("host_parallelism")?
        .as_f64()
        .map(|v| v as u64)
}

/// Parse `BENCH_eval.json` into comparable cells.
pub fn load_baseline(text: &str) -> Result<Vec<BaselineCell>, String> {
    let doc = Json::parse(text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let results = doc
        .get("results")
        .and_then(Json::as_array)
        .ok_or("baseline has no \"results\" array")?;
    let mut cells = Vec::new();
    for (i, cell) in results.iter().enumerate() {
        let field = |name: &str| {
            cell.get(name)
                .ok_or_else(|| format!("results[{i}] missing \"{name}\""))
        };
        let workload = field("workload")?
            .as_str()
            .ok_or_else(|| format!("results[{i}].workload is not a string"))?;
        let engine = field("engine")?
            .as_str()
            .ok_or_else(|| format!("results[{i}].engine is not a string"))?;
        let num = |name: &str| -> Result<f64, String> {
            field(name)?
                .as_f64()
                .ok_or_else(|| format!("results[{i}].{name} is not a number"))
        };
        let (size, threads, mean_ns) = (num("size")?, num("threads")?, num("mean_ns")?);
        if !mean_ns.is_finite() || mean_ns <= 0.0 {
            return Err(format!("results[{i}].mean_ns must be positive"));
        }
        cells.push(BaselineCell {
            key: format!(
                "{workload}/{size}/{engine}/{threads}",
                size = size as u64,
                threads = threads as u64
            ),
            engine: engine.to_string(),
            mean_ns,
        });
    }
    if cells.is_empty() {
        return Err("baseline has an empty \"results\" array".to_string());
    }
    Ok(cells)
}

/// One compared cell.
pub struct CellVerdict {
    /// `workload/size/engine/threads`.
    pub key: String,
    /// Baseline mean (ns) as committed.
    pub baseline_ns: f64,
    /// Mean (ns) measured in this run.
    pub measured_ns: f64,
    /// `measured / (baseline × calibration)`.
    pub ratio: f64,
    /// Whether this cell breached the threshold.
    pub regressed: bool,
}

/// Outcome of a full comparison.
pub struct RegressionReport {
    /// Machine-speed factor derived from the seed cells (1.0 when the run
    /// matches the baseline host exactly).
    pub calibration: f64,
    /// How many seed cells fed the calibration.
    pub calibration_cells: usize,
    /// Per-cell verdicts for every non-seed cell measured in this run
    /// that also exists in the baseline (`current` eval cells plus both
    /// `cleaning_sweep` engines).
    pub cells: Vec<CellVerdict>,
    /// The threshold the verdicts were judged against.
    pub threshold: f64,
}

impl RegressionReport {
    /// True when no cell regressed.
    pub fn pass(&self) -> bool {
        self.cells.iter().all(|c| !c.regressed)
    }

    /// The cells that breached the threshold (empty on a passing run).
    pub fn regressed_cells(&self) -> Vec<&CellVerdict> {
        self.cells.iter().filter(|c| c.regressed).collect()
    }

    /// The worst (largest) calibrated ratio across compared cells.
    pub fn worst_ratio(&self) -> f64 {
        self.cells.iter().map(|c| c.ratio).fold(0.0, f64::max)
    }

    /// Human-readable table of the comparison.
    pub fn render(&self) -> String {
        let mut out = format!(
            "calibration ×{:.3} from {} seed cell(s); threshold ×{:.2} (+{:.0}µs floor)\n",
            self.calibration,
            self.calibration_cells,
            self.threshold,
            ABSOLUTE_FLOOR_NS / 1_000.0
        );
        out.push_str(&format!(
            "{:<30} {:>12} {:>12} {:>8}  verdict\n",
            "cell", "baseline", "measured", "ratio"
        ));
        for c in &self.cells {
            out.push_str(&format!(
                "{:<30} {:>10.1}ms {:>10.1}ms {:>8.2}  {}\n",
                c.key,
                c.baseline_ns / 1e6,
                c.measured_ns / 1e6,
                c.ratio,
                if c.regressed { "REGRESSED" } else { "ok" }
            ));
        }
        out
    }

    /// One JSON line for `BENCH_trajectory.jsonl`. `host_parallelism` is
    /// recorded on every line so 1-core CI results are never mistaken for
    /// multi-core ones; `attribution` (cell key → top-frame summary from
    /// an `--attribute` re-run) is included only when non-empty.
    pub fn trajectory_line(
        &self,
        at_epoch_s: u64,
        mode: &str,
        host_parallelism: usize,
        attribution: &[(String, String)],
    ) -> String {
        // Build identity first, so `head -c` on a trajectory line already
        // says which binary produced it.
        let build = qoco_telemetry::build_info();
        let mut line = format!("{{\"at_epoch_s\":{at_epoch_s},\"version\":");
        push_json_str(&mut line, build.version);
        line.push_str(",\"git\":");
        push_json_str(&mut line, build.git);
        line.push_str(&format!(
            ",\"mode\":\"{mode}\",\"host_parallelism\":{host_parallelism},\"cells\":{},\"calibration\":{:.4},\"worst_ratio\":{:.4},\"pass\":{}",
            self.cells.len(),
            self.calibration,
            self.worst_ratio(),
            self.pass()
        ));
        if !attribution.is_empty() {
            line.push_str(",\"attribution\":{");
            for (i, (cell, frames)) in attribution.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                push_json_str(&mut line, cell);
                line.push(':');
                push_json_str(&mut line, frames);
            }
            line.push('}');
        }
        line.push('}');
        line
    }
}

/// Compare a fresh sweep against the baseline. Cells measured in this run
/// but absent from the baseline (or vice versa) are skipped — the quick
/// configuration deliberately measures a subset of the committed grid.
pub fn compare(samples: &[Sample], baseline: &[BaselineCell], threshold: f64) -> RegressionReport {
    let find = |key: &str| baseline.iter().find(|b| b.key == key);

    // Machine-speed calibration from the frozen seed algorithm.
    let mut log_sum = 0.0;
    let mut calibration_cells = 0usize;
    for s in samples.iter().filter(|s| s.engine == "seed") {
        if let Some(b) = find(&s.key()) {
            log_sum += (s.mean_ns / b.mean_ns).ln();
            calibration_cells += 1;
        }
    }
    let calibration = if calibration_cells > 0 {
        (log_sum / calibration_cells as f64).exp()
    } else {
        1.0
    };

    // Every non-seed cell is gated: "current" eval cells and both
    // cleaning_sweep engines ("view", "fullre"). Seed cells are the
    // calibration instrument, never judged.
    let mut cells = Vec::new();
    for s in samples.iter().filter(|s| s.engine != "seed") {
        let Some(b) = find(&s.key()) else { continue };
        let scaled = b.mean_ns * calibration;
        let ratio = s.mean_ns / scaled;
        let regressed = ratio > threshold && s.mean_ns - scaled > ABSOLUTE_FLOOR_NS;
        cells.push(CellVerdict {
            key: s.key(),
            baseline_ns: b.mean_ns,
            measured_ns: s.mean_ns,
            ratio,
            regressed,
        });
    }
    RegressionReport {
        calibration,
        calibration_cells,
        cells,
        threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(
        workload: &'static str,
        engine: &'static str,
        threads: usize,
        mean_ns: f64,
    ) -> Sample {
        Sample {
            workload,
            size: 1000,
            engine,
            threads,
            mean_ns,
            iters: 3,
            assignments: 1000,
        }
    }

    fn baseline() -> Vec<BaselineCell> {
        load_baseline(
            r#"{"results": [
                {"workload": "selective", "size": 1000, "engine": "seed", "threads": 1, "mean_ns": 10000000, "iters": 3, "assignments": 1000},
                {"workload": "selective", "size": 1000, "engine": "current", "threads": 1, "mean_ns": 2000000, "iters": 3, "assignments": 1000},
                {"workload": "selective", "size": 1000, "engine": "current", "threads": 2, "mean_ns": 2000000, "iters": 3, "assignments": 1000}
            ]}"#,
        )
        .unwrap()
    }

    #[test]
    fn parses_the_committed_baseline_format() {
        let cells = baseline();
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0].key, "selective/1000/seed/1");
        assert_eq!(cells[0].mean_ns, 10_000_000.0);
    }

    #[test]
    fn matching_performance_passes() {
        let samples = vec![
            sample("selective", "seed", 1, 10_000_000.0),
            sample("selective", "current", 1, 2_100_000.0),
        ];
        let report = compare(&samples, &baseline(), DEFAULT_THRESHOLD);
        assert!((report.calibration - 1.0).abs() < 1e-9);
        assert!(report.pass(), "{}", report.render());
    }

    #[test]
    fn slow_machine_is_calibrated_away() {
        // Everything (seed included) runs 3× slower: a slower machine, not
        // a regression.
        let samples = vec![
            sample("selective", "seed", 1, 30_000_000.0),
            sample("selective", "current", 1, 6_200_000.0),
        ];
        let report = compare(&samples, &baseline(), DEFAULT_THRESHOLD);
        assert!((report.calibration - 3.0).abs() < 1e-9);
        assert!(report.pass(), "{}", report.render());
    }

    #[test]
    fn genuine_slowdown_fails_even_on_a_calibrated_machine() {
        // Seed unchanged (machine speed = baseline) but current 3× slower.
        let samples = vec![
            sample("selective", "seed", 1, 10_000_000.0),
            sample("selective", "current", 1, 6_000_000.0),
        ];
        let report = compare(&samples, &baseline(), DEFAULT_THRESHOLD);
        assert!(!report.pass());
        let cell = &report.cells[0];
        assert!(cell.regressed);
        assert!((cell.ratio - 3.0).abs() < 1e-9);
        assert!(report.render().contains("REGRESSED"));
        assert_eq!(report.regressed_cells().len(), 1);
        assert!(report
            .trajectory_line(123, "quick", 4, &[])
            .contains("\"pass\":false"));
    }

    #[test]
    fn trajectory_line_records_host_parallelism_and_attribution() {
        let samples = vec![
            sample("selective", "seed", 1, 10_000_000.0),
            sample("selective", "current", 1, 6_000_000.0),
        ];
        let report = compare(&samples, &baseline(), DEFAULT_THRESHOLD);
        let bare = report.trajectory_line(123, "quick", 8, &[]);
        assert!(bare.contains("\"host_parallelism\":8"), "{bare}");
        assert!(!bare.contains("attribution"), "{bare}");
        let attributed = report.trajectory_line(
            123,
            "quick",
            8,
            &[(
                "selective/1000/current/1".to_string(),
                "inject.slowdown 61.0%, eval.par_chunk 22.1%".to_string(),
            )],
        );
        assert!(
            attributed
                .contains("\"attribution\":{\"selective/1000/current/1\":\"inject.slowdown 61.0%"),
            "{attributed}"
        );
        // still a single well-formed JSON object
        assert!(
            crate::json::Json::parse(&attributed).is_ok(),
            "{attributed}"
        );
    }

    #[test]
    fn cells_missing_from_the_baseline_are_skipped() {
        let samples = vec![
            sample("selective", "seed", 1, 10_000_000.0),
            sample("selective", "current", 8, 2_000_000.0), // not in baseline()
        ];
        let report = compare(&samples, &baseline(), DEFAULT_THRESHOLD);
        assert!(report.cells.is_empty());
        assert!(report.pass());
    }

    #[test]
    fn cleaning_sweep_engines_are_gated_like_current() {
        let baseline = load_baseline(
            r#"{"results": [
                {"workload": "selective", "size": 1000, "engine": "seed", "threads": 1, "mean_ns": 10000000},
                {"workload": "cleaning_sweep", "size": 1000, "engine": "view", "threads": 1, "mean_ns": 5000},
                {"workload": "cleaning_sweep", "size": 1000, "engine": "fullre", "threads": 1, "mean_ns": 2000000}
            ]}"#,
        )
        .unwrap();
        // the incremental path regressed 400× (fell back to refresh-per-
        // edit): the gate must catch it even though the engine is "view"
        let samples = vec![
            sample("selective", "seed", 1, 10_000_000.0),
            sample("cleaning_sweep", "view", 1, 2_000_000.0),
            sample("cleaning_sweep", "fullre", 1, 2_050_000.0),
        ];
        let report = compare(&samples, &baseline, DEFAULT_THRESHOLD);
        assert_eq!(report.cells.len(), 2, "{}", report.render());
        let view_cell = report
            .cells
            .iter()
            .find(|c| c.key == "cleaning_sweep/1000/view/1")
            .unwrap();
        assert!(view_cell.regressed, "{}", report.render());
        let fullre_cell = report
            .cells
            .iter()
            .find(|c| c.key == "cleaning_sweep/1000/fullre/1")
            .unwrap();
        assert!(!fullre_cell.regressed, "{}", report.render());
    }

    #[test]
    fn baseline_host_parallelism_is_surfaced_when_recorded() {
        assert_eq!(
            baseline_host_parallelism(r#"{"host_parallelism": 8, "results": []}"#),
            Some(8)
        );
        assert_eq!(baseline_host_parallelism(r#"{"results": []}"#), None);
        assert_eq!(baseline_host_parallelism("not json"), None);
    }

    #[test]
    fn load_baseline_rejects_malformed_documents() {
        assert!(load_baseline("{}").is_err());
        assert!(load_baseline("{\"results\": []}").is_err());
        assert!(load_baseline("{\"results\": [{\"workload\": \"w\"}]}").is_err());
        assert!(load_baseline("not json").is_err());
    }
}
