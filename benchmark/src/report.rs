//! What a run leaves behind: the result file with its provenance, the
//! trace file, the table for people and the one-line result for the gate.

use crate::library::PhaseCount;
use crate::metrics::{MetricDef, Values};
use crate::stats::parse_vm_hwm_kb;
use crate::trace::{self, Span};
use serde::Value;
use std::path::Path;
use std::process::Command;

pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

fn command_line(program: &str, args: &[&str]) -> String {
    // The ceiling keeps git from searching above the working directory
    // for a repository when the run happens in a plain checkout.
    let here = std::env::current_dir().unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", here.parent().unwrap_or(&here))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cache_size(index: usize) -> String {
    std::fs::read_to_string(format!(
        "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    ))
    .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

/// Where and with what the numbers were taken.
pub fn environment() -> Value {
    obj(vec![
        ("git_sha", text(command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", text(command_line("rustc", &["--version"]))),
        (
            "nproc",
            Value::UInt(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        (
            "rayon_threads",
            Value::UInt(rayon::current_num_threads() as u64),
        ),
        ("l2", text(cache_size(2))),
        ("l3", text(cache_size(3))),
    ])
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

pub fn phase_value(p: PhaseCount) -> Value {
    obj(vec![
        ("sent", Value::UInt(p.sent)),
        ("succeeded", Value::UInt(p.succeeded)),
        ("failed", Value::UInt(p.failed)),
    ])
}

pub fn values_value(values: &Values) -> Value {
    Value::Object(
        values
            .iter()
            .map(|(k, v)| (k.to_string(), Value::Float(*v)))
            .collect(),
    )
}

/// `{"name": {"value": v, "unit": u}, …}` for the metrics in `defs`. JSON
/// has no NaN: a value that does not exist is written as 0, and the run
/// that produced it reports `correct: false`.
pub fn metrics_value(defs: &[MetricDef], values: &Values) -> Value {
    Value::Object(
        defs.iter()
            .map(|d| {
                let v = values
                    .get(d.name)
                    .copied()
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0);
                (
                    d.name.to_string(),
                    obj(vec![("value", Value::Float(v)), ("unit", text(d.unit))]),
                )
            })
            .collect(),
    )
}

/// Every metric by name with its unit, one per line.
pub fn print_metrics(defs: &[MetricDef], values: &Values) {
    for d in defs {
        let v = values[d.name];
        println!("  {:<36} {:>16.6} {}", d.name, v, d.unit);
    }
}

/// The per-case table: medians people read, not named metrics.
pub fn print_cases(cases: &[(&str, &Values)]) {
    for (name, values) in cases {
        println!("  case {name}");
        for (k, v) in *values {
            println!("    {k:<34} {v:>16.6}");
        }
    }
}

pub fn write_json(path: &Path, value: &Value) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let body = serde_json::to_string_pretty(value).expect("result serialises");
    std::fs::write(path, body + "\n")
}

/// The trace file: every span, and how much of each kind of visit its
/// child spans explain.
pub fn trace_value(workload: &str, seed: u64, spans: &[Span]) -> Value {
    let roots = ["visit.mcmc", "visit.baseline"];
    let coverage: Vec<(&str, Value)> = roots
        .into_iter()
        .map(|r| (r, trace::coverage(spans, r)))
        .filter(|(_, c)| c.is_finite())
        .map(|(r, c)| (r, Value::Float(c)))
        .collect();
    let self_times = trace::reduce(spans)
        .into_iter()
        .map(|(name, samples)| {
            let durations: Vec<f64> = samples.iter().map(|s| s.0).collect();
            let own: Vec<f64> = samples.iter().map(|s| s.1).collect();
            (
                name,
                obj(vec![
                    ("count", Value::UInt(samples.len() as u64)),
                    ("median_s", Value::Float(crate::stats::median(&durations))),
                    ("median_self_s", Value::Float(crate::stats::median(&own))),
                    ("total_self_s", Value::Float(own.iter().sum())),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("workload", text(workload)),
        ("seed", Value::UInt(seed)),
        ("coverage", obj(coverage)),
        ("by_name", obj(self_times)),
        (
            "spans",
            Value::Array(spans.iter().map(trace::span_to_value).collect()),
        ),
    ])
}
