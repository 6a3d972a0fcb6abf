//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p qoco-bench --bin figures -- all
//! cargo run --release -p qoco-bench --bin figures -- fig3a fig3b
//! ```
//!
//! Targets: fig3a fig3b fig3c fig3d fig3e fig3f fig4 dbgroup
//!          ablation-hs ablation-umhs ablation-heur sweep-clean phases
//!          watch all
//!
//! `--telemetry <path>` (or the `QOCO_TELEMETRY` environment variable)
//! streams a JSON-lines telemetry export of the whole run — every figure's
//! cleaning sessions, spans and the final metrics snapshot — so slow
//! figure regenerations can be profiled offline.
//!
//! `--profile <path>` folds the spans of the whole regeneration into a
//! profile weighted by self time: a flamegraph SVG when the path ends in
//! `.svg`, folded stack lines otherwise. Targets that capture a timeline of
//! their own (`phases`, `watch`) nest inside the run's session, so their
//! spans reach both the export and the profile.

use std::sync::Arc;

use qoco_telemetry::{Collector, FanoutCollector, InMemoryCollector, JsonlCollector, Profile};

use qoco_bench::{
    ablation_composite, ablation_heuristics, ablation_hitting_set, ablation_umhs, dbgroup_case,
    fig3a, fig3b, fig3c, fig3d, fig3e, fig3f, fig4, phase_breakdown, sweep_cleanliness,
    sweep_error_rate, watch_optimality, Experiments,
};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // --out <dir>: also write each table as <dir>/<target>.tsv
    let mut out_dir: Option<std::path::PathBuf> = None;
    if let Some(pos) = args.iter().position(|a| a == "--out") {
        if pos + 1 >= args.len() {
            eprintln!("--out needs a directory argument");
            std::process::exit(2);
        }
        out_dir = Some(std::path::PathBuf::from(args.remove(pos + 1)));
        args.remove(pos);
    }
    // --telemetry <path> (flag wins over the QOCO_TELEMETRY env variable)
    let mut telemetry_path: Option<String> = None;
    if let Some(pos) = args.iter().position(|a| a == "--telemetry") {
        if pos + 1 >= args.len() {
            eprintln!("--telemetry needs a file argument");
            std::process::exit(2);
        }
        telemetry_path = Some(args.remove(pos + 1));
        args.remove(pos);
    }
    if telemetry_path.is_none() {
        telemetry_path = std::env::var("QOCO_TELEMETRY")
            .ok()
            .filter(|p| !p.is_empty());
    }
    // --profile <path>: fold every span of the run into a profile
    let mut profile_path: Option<String> = None;
    if let Some(pos) = args.iter().position(|a| a == "--profile") {
        if pos + 1 >= args.len() {
            eprintln!("--profile needs an output path (.svg or .folded)");
            std::process::exit(2);
        }
        profile_path = Some(args.remove(pos + 1));
        args.remove(pos);
    }
    let jsonl = telemetry_path.map(|path| {
        let collector = Arc::new(JsonlCollector::create(&path).unwrap_or_else(|e| {
            eprintln!("cannot create telemetry export {path}: {e}");
            std::process::exit(2);
        }));
        eprintln!("streaming telemetry to {path}");
        collector
    });
    let in_memory = profile_path
        .is_some()
        .then(|| Arc::new(InMemoryCollector::new()));
    let mut sinks: Vec<Arc<dyn Collector>> = Vec::new();
    if let Some(c) = &jsonl {
        sinks.push(c.clone());
    }
    if let Some(c) = &in_memory {
        sinks.push(c.clone());
    }
    let _session =
        (!sinks.is_empty()).then(|| qoco_telemetry::session(Arc::new(FanoutCollector::new(sinks))));
    let targets: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "fig3a",
            "fig3b",
            "fig3c",
            "fig3d",
            "fig3e",
            "fig3f",
            "fig4",
            "dbgroup",
            "ablation-hs",
            "ablation-umhs",
            "ablation-heur",
            "ablation-composite",
            "sweep-clean",
            "sweep-error",
            "phases",
            "watch",
        ]
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };

    let needs_soccer = targets.iter().any(|t| *t != "dbgroup");
    let ex = needs_soccer.then(Experiments::soccer);

    for target in targets {
        let started = std::time::Instant::now();
        let table = match target {
            "fig3a" => fig3a(ex.as_ref().expect("soccer context")),
            "fig3b" => fig3b(ex.as_ref().expect("soccer context")),
            "fig3c" => fig3c(ex.as_ref().expect("soccer context")),
            "fig3d" => fig3d(ex.as_ref().expect("soccer context")),
            "fig3e" => fig3e(ex.as_ref().expect("soccer context")),
            "fig3f" => fig3f(ex.as_ref().expect("soccer context")),
            "fig4" => fig4(ex.as_ref().expect("soccer context")),
            "dbgroup" => dbgroup_case(),
            "ablation-hs" => ablation_hitting_set(ex.as_ref().expect("soccer context")),
            "ablation-umhs" => ablation_umhs(ex.as_ref().expect("soccer context")),
            "ablation-heur" => ablation_heuristics(ex.as_ref().expect("soccer context")),
            "ablation-composite" => ablation_composite(ex.as_ref().expect("soccer context")),
            "sweep-clean" => sweep_cleanliness(ex.as_ref().expect("soccer context")),
            "sweep-error" => sweep_error_rate(ex.as_ref().expect("soccer context")),
            "phases" => phase_breakdown(ex.as_ref().expect("soccer context")),
            "watch" => watch_optimality(ex.as_ref().expect("soccer context")),
            other => {
                eprintln!("unknown target `{other}`; see --help text in the source header");
                std::process::exit(2);
            }
        };
        println!("{table}");
        println!("  [generated in {:.2?}]\n", started.elapsed());
        if let Some(dir) = &out_dir {
            std::fs::create_dir_all(dir).expect("create output directory");
            let path = dir.join(format!("{target}.tsv"));
            std::fs::write(&path, table.to_tsv()).expect("write TSV table");
        }
    }

    if let (Some(path), Some(collector)) = (&profile_path, &in_memory) {
        let profile = Profile::from_spans(&collector.spans());
        let rendered = if path.ends_with(".svg") {
            profile.flamegraph_svg("qoco figures regeneration")
        } else {
            profile.to_folded()
        };
        std::fs::write(path, rendered).expect("write profile output");
        eprintln!(
            "profile: {} stack(s), {} of span time → {path}",
            profile.counts().len(),
            qoco_telemetry::fmt_ns(profile.total)
        );
    }
    if let Some(collector) = &jsonl {
        collector.write_metrics(&qoco_telemetry::metrics().snapshot());
        collector.flush();
    }
}
