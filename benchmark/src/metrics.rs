//! The metric registry: every name the benchmark reports, with its unit,
//! direction and how per-case values combine into the workload value.
//! `BENCHMARK.json` repeats names, units, directions and bounds; a unit test
//! keeps the two in step.

use crate::stats;
use std::collections::BTreeMap;

/// How per-case values combine into one workload value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Agg {
    /// Geometric mean over cases (timings, rates and ratios).
    Geo,
    /// Arithmetic mean over cases (shares, which may be zero).
    Mean,
    /// Sum over cases (exact counts).
    Sum,
    /// Smallest over cases (the tail percentile every case supports).
    Min,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound as a share of the reference median; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
    pub agg: Agg,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    agg: Agg,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        agg,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, agg: Agg) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        agg,
    }
}

use Agg::{Geo, Mean, Min, Sum};
use Better::{Higher, Lower};

pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25, Geo),
    e2e("time_to_solution_s", "s", Lower, 0.25, Geo),
    e2e("warm_solve_s", "s", Lower, 0.25, Geo),
    e2e("batch_solve_s", "s", Lower, 0.25, Geo),
    e2e("solves_per_s", "1/s", Higher, 0.25, Geo),
    e2e("baseline_time_to_solution_s", "s", Lower, 0.25, Geo),
    e2e("iters_ratio", "ratio", Lower, 0.25, Geo),
    e2e("peak_rss_mb", "MB", Lower, 0.15, Geo),
];

pub const PER_LAYER: &[MetricDef] = &[
    layer("sparse.spmv_ns_per_nnz", "ns", Lower, Geo),
    layer("sparse.spmv_generic_ns_per_nnz", "ns", Lower, Geo),
    layer("sparse.spmm8_ns_per_nnz", "ns", Lower, Geo),
    layer("sparse.spmv_gbs_computed", "GB/s", Higher, Geo),
    layer("sparse.detect_us", "us", Lower, Geo),
    layer("sparse.fingerprint_us", "us", Lower, Geo),
    layer("mcmc.build_s", "s", Lower, Geo),
    layer("mcmc.transitions", "count", Lower, Sum),
    layer("mcmc.ns_per_transition", "ns", Lower, Geo),
    layer("mcmc.walkmatrix_setup_s", "s", Lower, Geo),
    layer("mcmc.spectral_probe_s", "s", Lower, Geo),
    layer("mcmc.build_scalar_engine_s", "s", Lower, Geo),
    layer("mcmc.build_1t_s", "s", Lower, Geo),
    layer("mcmc.build_attempts", "count", Lower, Sum),
    layer("mcmc.wasted_chain_share", "share", Lower, Mean),
    layer("mcmc.precond_nnz", "count", Lower, Sum),
    layer("mcmc.compress_s", "s", Lower, Geo),
    layer("mcmc.nnz_kept", "share", Lower, Mean),
    layer("krylov.solve_s", "s", Lower, Geo),
    layer("krylov.iterations", "count", Lower, Sum),
    layer("krylov.us_per_iteration", "us", Lower, Geo),
    layer("krylov.apply_us", "us", Lower, Geo),
    layer("krylov.apply_block8_us_per_col", "us", Lower, Geo),
    layer("krylov.matvec_share", "share", Lower, Mean),
    layer("krylov.bind_us", "us", Lower, Geo),
    layer("krylov.symmetrize_s", "s", Lower, Geo),
    layer("krylov.batch2_over_seq", "ratio", Lower, Geo),
    layer("krylov.batch8_over_seq", "ratio", Lower, Geo),
    layer("krylov.resilient_over_plain", "ratio", Lower, Geo),
    layer("krylov.none_solve_s", "s", Lower, Geo),
    layer("krylov.jacobi_solve_s", "s", Lower, Geo),
    layer("krylov.ilu0_solve_s", "s", Lower, Geo),
    layer("krylov.none_iterations", "count", Lower, Sum),
    layer("krylov.jacobi_iterations", "count", Lower, Sum),
    layer("krylov.ilu0_iterations", "count", Lower, Sum),
    layer("krylov.ilu0_factor_s", "s", Lower, Geo),
    layer("core.tune_s", "s", Lower, Geo),
    layer("core.tune_trials", "count", Lower, Sum),
    layer("core.tune_trials_converged", "count", Higher, Sum),
    layer("core.certification_attempts", "count", Lower, Sum),
    layer("core.tuned_iterations", "count", Lower, Sum),
    layer("core.tune_over_build", "ratio", Lower, Geo),
    layer("core.recommend_s", "s", Lower, Geo),
    layer("core.features_us", "us", Lower, Geo),
    layer("gnn.graph_embed_s", "s", Lower, Geo),
    layer("gnn.predict_ms", "ms", Lower, Geo),
    layer("bayesopt.propose_s", "s", Lower, Geo),
    layer("hpo.tpe_suggest_us", "us", Lower, Geo),
    layer("core.dataset_build_s", "s", Lower, Geo),
    layer("gnn.train_s", "s", Lower, Geo),
    layer("matgen.generate_s", "s", Lower, Sum),
    layer("serve.http_floor_ms", "ms", Lower, Geo),
    layer("serve.parse_ms", "ms", Lower, Geo),
    layer("serve.serialise_ms", "ms", Lower, Geo),
    layer("serve.cold_body_bytes", "count", Lower, Geo),
    layer("serve.reply_bytes", "count", Lower, Geo),
    layer("serve.hot_overhead_ms", "ms", Lower, Mean),
    layer("serve.cold_overhead_ms", "ms", Lower, Mean),
    layer("serve.cache_hit_share", "share", Higher, Mean),
    layer("serve.builds", "count", Lower, Sum),
    layer("serve.evictions", "count", Lower, Sum),
    layer("serve.coalesced_requests", "count", Higher, Sum),
    layer("serve.shed", "count", Lower, Sum),
    layer("serve.drain_s", "s", Lower, Geo),
    layer("harness.threads", "count", Higher, Min),
    layer("harness.samples_cold", "count", Higher, Sum),
    layer("harness.samples_warm", "count", Higher, Sum),
    layer("harness.tail_percentile", "%", Higher, Min),
    layer("harness.time_to_solution_tail_s", "s", Lower, Geo),
    layer("harness.warm_solve_tail_s", "s", Lower, Geo),
    layer("harness.trace_overhead_share", "share", Lower, Mean),
    layer("harness.failed_share", "share", Lower, Mean),
];

/// Values by metric name, for one case or for the workload as a whole.
pub type Values = BTreeMap<&'static str, f64>;

/// Combine the values of named cases into the workload value of every metric in
/// `defs`. `overall` holds values that belong to the workload and not to a
/// case (set-up time, peak memory, server counters); they win. A metric no
/// case reports is 0: the workload does not exercise that layer.
pub fn aggregate(defs: &[MetricDef], cases: &[(&str, &Values)], overall: &Values) -> Values {
    defs.iter()
        .map(|def| {
            let value = overall.get(def.name).copied().unwrap_or_else(|| {
                let vs: Vec<f64> = cases
                    .iter()
                    .filter_map(|(_, c)| c.get(def.name).copied())
                    .collect();
                if vs.is_empty() {
                    return 0.0;
                }
                match def.agg {
                    Agg::Geo => stats::geomean(&vs),
                    Agg::Mean => stats::mean(&vs),
                    Agg::Sum => vs.iter().sum(),
                    Agg::Min => vs.iter().copied().fold(f64::INFINITY, f64::min),
                }
            });
            (def.name, value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn aggregate_applies_each_rule_and_zero_fills() {
        let defs = [
            layer("g", "s", Lower, Geo),
            layer("m", "share", Lower, Mean),
            layer("s", "count", Lower, Sum),
            layer("n", "%", Higher, Min),
            layer("absent", "s", Lower, Geo),
            layer("whole", "s", Lower, Geo),
        ];
        let a: Values = [("g", 1.0), ("m", 0.0), ("s", 3.0), ("n", 90.0)].into();
        let b: Values = [("g", 100.0), ("m", 0.5), ("s", 4.0), ("n", 50.0)].into();
        let overall: Values = [("whole", 2.5)].into();
        let out = aggregate(&defs, &[("a", &a), ("b", &b)], &overall);
        assert!((out["g"] - 10.0).abs() < 1e-12);
        assert_eq!(out["m"], 0.25);
        assert_eq!(out["s"], 7.0);
        assert_eq!(out["n"], 50.0);
        assert_eq!(out["absent"], 0.0);
        assert_eq!(out["whole"], 2.5);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
        }
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"));
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` at the repo root is the contract the gate reads;
    /// this registry is what the binary prints. They must agree.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = serde_json::parse_value_str(&text).expect("BENCHMARK.json parses");
        let str_of = |v: &Value, key: &str| match v.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("`{key}` is not a string: {other:?}"),
        };
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Value::Array(listed)) = doc.get(key) else {
                panic!("`{key}` is not an array");
            };
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(str_of(entry, "name"), def.name);
                assert_eq!(str_of(entry, "unit"), def.unit, "{}", def.name);
                assert_eq!(str_of(entry, "better"), def.better.name(), "{}", def.name);
                assert_eq!(
                    entry.get("bound").and_then(Value::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        let Some(Value::Array(workloads)) = doc.get("workloads") else {
            panic!("`workloads` is not an array");
        };
        let names: Vec<String> = workloads.iter().map(|w| str_of(w, "name")).collect();
        assert_eq!(names, crate::workloads::NAMES);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_u64),
            Some(crate::workloads::RUN_SECONDS)
        );
    }
}
