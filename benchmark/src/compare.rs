//! `compare <a.json> <b.json>`: judge two sets of runs of the benchmark
//! against the bounds of `BENCHMARK.json` (held in step with the registry
//! by a unit test), one row per end-to-end metric × workload.

use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, spread};
use serde::Value;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against reference `a`. A spread wider than the bound on either
/// side leaves the metric unresolved, unless every run of `b` reads better
/// than every run of `a`; otherwise `b` regressed when its median is worse
/// than `a`'s by more than the bound.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    if !(ma.is_finite() && mb.is_finite()) {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => mb / ma - 1.0,
        Better::Higher => 1.0 - mb / ma,
    };
    let widest = [a, b].into_iter().filter_map(spread).fold(0.0f64, f64::max);
    if widest > bound {
        let fold = |v: &[f64], f: fn(f64, f64) -> f64, init| v.iter().copied().fold(init, f);
        let clear_win = match better {
            Better::Lower => fold(b, f64::max, f64::MIN) < fold(a, f64::min, f64::MAX),
            Better::Higher => fold(b, f64::min, f64::MAX) > fold(a, f64::max, f64::MIN),
        };
        return if clear_win {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// `(workload, metric) → values`, from a set file (`{"runs": […]}`) or a
/// single result file. Traced runs carry no end-to-end values and are
/// skipped.
pub fn load(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = serde_json::parse_value_str(&body).map_err(|e| format!("{path}: {e}"))?;
    let runs: Vec<&Value> = match doc.get("runs") {
        Some(Value::Array(runs)) => runs.iter().collect(),
        _ => vec![&doc],
    };
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in runs {
        let Some(Value::Str(workload)) = run.get("workload") else {
            return Err(format!("{path}: a run has no `workload`"));
        };
        if run.get("trace") == Some(&Value::Bool(true)) {
            continue;
        }
        let Some(Value::Object(metrics)) = run.get("metrics") else {
            return Err(format!("{path}: a run has no `metrics`"));
        };
        for (name, entry) in metrics {
            if let Some(v) = entry.get("value").and_then(Value::as_f64) {
                out.entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// Print the table; returns how many rows regressed.
pub fn run(a_path: &str, b_path: &str) -> Result<usize, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = a.keys().map(|(w, _)| w).collect();
        w.dedup();
        w
    };
    println!(
        "{:<14} {:<28} {:>12} {:>12} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "b/a", "a iqr", "b iqr", "bound"
    );
    let mut regressed = 0;
    for workload in workloads {
        for def in END_TO_END {
            let (name, better) = (def.name, def.better);
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let key = (workload.clone(), name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let verdict = judge(va, vb, better, bound);
            regressed += usize::from(verdict == Verdict::Regressed);
            let (ma, mb) = (median(va), median(vb));
            println!(
                "{:<14} {:<28} {:>12.6} {:>12.6} {:>8.4} {:>7.4} {:>7.4} {:>6.2}  {} ({} vs {} runs, {} is better)",
                workload,
                name,
                ma,
                mb,
                mb / ma,
                spread(va).unwrap_or(0.0),
                spread(vb).unwrap_or(0.0),
                bound,
                verdict.name(),
                va.len(),
                vb.len(),
                better.name(),
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [1.00, 1.01, 0.99, 1.00, 1.01];
        let slower = [1.20, 1.21, 1.19, 1.20, 1.21];
        let slightly = [1.05, 1.06, 1.04, 1.05, 1.06];
        let noisy = [0.7, 1.0, 1.3, 0.8, 1.2];
        assert_eq!(judge(&steady, &slightly, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(
            judge(&steady, &slower, Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&steady, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Higher is better: the slower set is the better one.
        assert_eq!(judge(&steady, &slower, Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(
            judge(&slower, &steady, Better::Higher, 0.10),
            Verdict::Regressed
        );
        // Wide spread, but every run of b beats every run of a.
        let fast = [0.10, 0.20, 0.15, 0.12, 0.18];
        assert_eq!(judge(&noisy, &fast, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(
            judge(&[], &steady, Better::Lower, 0.10),
            Verdict::Unresolved
        );
    }
}
