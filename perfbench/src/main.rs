//! The repository's benchmark: one command, four workloads, every
//! end-to-end metric with its unit, every output checked.
//!
//! ```text
//! perfbench --workload <sweep|solve|serve_hot|serve_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated in-process from `--seed`. The untraced run
//! (`--trace 0`) reports the end-to-end metrics; the traced run
//! (`--trace 1`) reports the per-layer metrics, including the tracing
//! overhead measured against untraced windows of the same run. Lines
//! before the last describe the host and the run; the last line is the
//! result object.

mod common;
mod host;
mod json;
mod probes;
mod serve;
mod solve;
mod stats;
mod sweep;
mod trace;

use common::{Ctx, Metric, Outcome};
use json::Json;
use std::time::Instant;

/// End-to-end metrics every workload reports.
const E2E: [&str; 6] = ["setup_s", "peak_rss_mb", "rps", "p50_us", "p99_us", "gflops"];

/// Per-layer metrics every workload reports, besides the per-format
/// ones of [`probes::PROBE_FORMATS`].
const LAYERS: [&str; 30] = [
    "host.triad_gbs",
    "gen.mnnz_per_s",
    "devices.campaign_s",
    "analysis.fit_s",
    "engine.assemble_s",
    "core.extract_ns_per_nnz",
    "analysis.select_ns",
    "formats.build_ns_per_nnz",
    "formats.bytes_per_nnz",
    "analysis.selected_over_csr",
    "parallel.efficiency",
    "parallel.steals",
    "parallel.parks",
    "parallel.low_tasks",
    "formats.spmv_dot_gflops",
    "parallel.blas1_gbs",
    "engine.solver_new_ms",
    "engine.solver_iters",
    "engine.solver_us_per_iter",
    "engine.hit_ns",
    "engine.snapshot_s",
    "engine.restore_s",
    "engine.hit_ratio",
    "engine.fallback_frac",
    "engine.conversions_per_kreq",
    "engine.flight_land_frac",
    "engine.cold_p99_us",
    "engine.duplicate_conversions",
    "trace.p50_us_delta",
    "trace.rps_delta",
];

fn expected_layers() -> Vec<String> {
    let mut names: Vec<String> = LAYERS.iter().map(|s| s.to_string()).collect();
    for k in probes::PROBE_FORMATS {
        for m in ["formats.spmv_gflops", "formats.spmv_gbs", "formats.triad_frac"] {
            names.push(format!("{m}.{}", k.name()));
        }
    }
    names
}

const USAGE: &str = "usage: perfbench --workload <sweep|solve|serve_hot|serve_churn> --seed <n> \
                     --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                })
            }
            f => return Err(format!("unknown flag {f}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["sweep", "solve", "serve_hot", "serve_churn"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn metrics_json(metrics: &[Metric], order: &[String], out: &mut Vec<String>) -> Json {
    let mut pairs = Vec::new();
    for name in order {
        match metrics.iter().find(|m| &m.name == name) {
            Some(m) if m.value.is_finite() => pairs.push((
                name.clone(),
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
            )),
            Some(m) => out.push(format!("metric {name} is not finite: {}", m.value)),
            None => out.push(format!("metric {name} was not measured")),
        }
    }
    Json::Obj(pairs)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let ctx =
        Ctx { seed: args.seed, seconds: args.seconds, trace: args.trace, origin: Instant::now() };
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "sweep" => sweep::run(&ctx, &mut out),
        "solve" => solve::run(&ctx, &mut out),
        "serve_hot" => serve::run(serve::Mode::Hot, &ctx, &mut out),
        _ => serve::run(serve::Mode::Churn, &ctx, &mut out),
    }
    if let Some(rss) = host::peak_rss_mb() {
        out.e2e("peak_rss_mb", rss, "MB");
    }
    let lanes = out.lanes.unwrap_or_else(spmv_formats::LaneProfile::current);
    println!("{}", Json::obj([("fingerprint", host::fingerprint(lanes, out.pool_threads))]));

    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    out.report("error_rate", error_rate, "ratio");
    let report: Vec<(String, Json)> = out
        .report
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
            )
        })
        .collect();
    println!("{}", Json::obj([("report", Json::Obj(report))]));

    let mut missing = Vec::new();
    let metrics = if args.trace {
        metrics_json(&out.layers, &expected_layers(), &mut missing)
    } else {
        let order: Vec<String> = E2E.iter().map(|s| s.to_string()).collect();
        metrics_json(&out.e2e, &order, &mut missing)
    };
    for m in missing {
        out.problem(m);
    }
    let correct = out.problems.is_empty() && out.failed == 0 && out.attempted > 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(out.attempted as i64)),
        ("failed", Json::Int(out.failed as i64)),
        ("metrics", metrics),
    ]);
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metrics a run prints are the ones `BENCHMARK.json` declares.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let declared = include_str!("../../BENCHMARK.json");
        let names: Vec<String> =
            E2E.iter().map(|s| s.to_string()).chain(expected_layers()).collect();
        for name in &names {
            assert!(declared.contains(&format!("\"name\": \"{name}\"")), "{name} is not declared");
        }
        assert_eq!(declared.matches("\"name\": ").count(), names.len() + 4, "4 workloads");
    }
}
