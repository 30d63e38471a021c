//! The RaSQL benchmark: seeded workloads through the public API, output
//! checks outside the timed phase, and one JSON result line.
//!
//! ```text
//! rasql-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rasql-perfbench spread < results.jsonl
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
//! it reports the per-layer metrics from a traced run. See README.md.

mod common;
mod graph_kernels;
mod inprocess;
mod layers;
mod recursive_generic;
mod served_mixed;
mod spans;
mod stats;

use layers::Metrics;
use rasql_exec::JsonValue;
use std::io::Read as _;
use std::process::ExitCode;

/// End-to-end metrics (untraced runs), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs), with units. Counts and times of the
/// engine layers are per statement.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("plan.compile_us", "us"),
    ("kernel.clique_share", "ratio"),
    ("csr.build_ms", "ms"),
    ("csr.bytes", "B"),
    ("csr.cache_hit_ratio", "ratio"),
    ("fixpoint.rounds", "count"),
    ("fixpoint.delta_rows", "count"),
    ("fixpoint.round_ms", "ms"),
    ("exec.stages", "count"),
    ("exec.tasks", "count"),
    ("exec.dispatch_ms", "ms"),
    ("exec.run_ms", "ms"),
    ("exec.barrier_ms", "ms"),
    ("exec.shuffle_rows", "count"),
    ("exec.shuffle_bytes", "B"),
    ("exec.combined_rows", "count"),
    ("exec.join_output_rows", "count"),
    ("exec.remote_fetches", "count"),
    ("exec.broadcast_bytes", "B"),
    ("governor.peak_memory_bytes", "B"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("matview.refresh_ms", "ms"),
    ("matview.incremental_ratio", "ratio"),
    ("matview.retained_bytes", "B"),
    ("wal.append_us", "us"),
    ("wal.snapshot_ms", "ms"),
    ("wal.bytes_per_insert", "B"),
    ("wal.snapshots", "count"),
    ("wal.write_amp", "ratio"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.bytes_per_row", "B"),
    ("server.overhead_us", "us"),
    ("server.status_rtt_us", "us"),
];

/// Command-line arguments of a run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run produced. Output mismatches never get here: they fail the
/// run with an error instead.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "graph-kernels" => inprocess::run(&graph_kernels::workload(args.seed), args),
        "recursive-generic" => inprocess::run(&recursive_generic::workload(args.seed), args),
        "served-mixed" => served_mixed::run(args),
        other => Err(format!(
            "unknown workload {other} (graph-kernels, recursive-generic, served-mixed)"
        )),
    }
}

/// The result line: every metric of the run's set, by name, with its unit.
fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let names = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let value = *outcome
            .metrics
            .get(name)
            .ok_or(format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        eprintln!("  {name:<28} {value:>14.4} {unit}");
        metrics.push((
            name.to_string(),
            JsonValue::Obj(vec![
                ("value".into(), JsonValue::Num(value)),
                ("unit".into(), JsonValue::Str(unit.to_string())),
            ]),
        ));
    }
    Ok(JsonValue::Obj(vec![
        ("correct".into(), JsonValue::Bool(true)),
        ("attempted".into(), JsonValue::Num(outcome.attempted as f64)),
        ("failed".into(), JsonValue::Num(outcome.failed as f64)),
        ("metrics".into(), JsonValue::Obj(metrics)),
    ])
    .render())
}

/// `spread`: read result lines (one run each) from stdin and print, per
/// metric, the median, quartiles and inter-quartile spread across runs.
fn spread() -> Result<(), String> {
    let mut input = String::new();
    std::io::stdin()
        .read_to_string(&mut input)
        .map_err(|e| e.to_string())?;
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    for line in input.lines().filter(|l| l.starts_with('{')) {
        let doc = JsonValue::parse(line)?;
        let Some(JsonValue::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("no metrics in {line}"));
        };
        for (name, m) in metrics {
            let Some(JsonValue::Num(v)) = m.get("value") else {
                return Err(format!("no value for {name}"));
            };
            match series.iter_mut().find(|(n, _)| n == name) {
                Some((_, vs)) => vs.push(*v),
                None => series.push((name.clone(), vec![*v])),
            }
        }
    }
    println!(
        "{:<28} {:>5} {:>12} {:>12} {:>12} {:>8}",
        "metric", "runs", "q1", "median", "q3", "spread"
    );
    for (name, vs) in &series {
        let (q1, q2, q3) = stats::quartiles(vs).ok_or(format!("{name}: fewer than two runs"))?;
        let spread = stats::relative_spread(vs).map_or("-".to_string(), |s| format!("{s:.4}"));
        println!(
            "{name:<28} {:>5} {q1:>12.4} {q2:>12.4} {q3:>12.4} {spread:>8}",
            vs.len()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("spread") {
        return match spread() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench spread: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: rasql-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args).and_then(|o| result_line(&o, args.trace)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units printed match the ones `BENCHMARK.json`
    /// declares, in both sets.
    #[test]
    fn metric_sets_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(JsonValue::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = ours
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
    }

    #[test]
    fn args_are_checked() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload served-mixed --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("served-mixed", 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload x --seed 7 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seed -1 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --trace 0")).is_err());
    }
}
