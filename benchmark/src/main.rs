//! Time-to-solution benchmark of the mcmcmi workspace.
//!
//! ```text
//! mcmcmi_benchmark run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! mcmcmi_benchmark run --all [--runs N] [--set FILE] [...]
//! mcmcmi_benchmark compare <a.json> <b.json>
//! ```
//!
//! One process per workload run. The last line of a run's standard output
//! is the result object the gate reads; see `benchmark/README.md`.

mod compare;
mod inputs;
mod library;
mod metrics;
mod report;
mod serve;
mod stats;
mod trace;
mod verify;
mod workloads;

use library::{Measured, PhaseCount};
use metrics::{aggregate, Values, END_TO_END, PER_LAYER};
use report::{obj, text};
use serde::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;
use workloads::{DEFAULT_SEED, NAMES, RUN_SECONDS, SETUP_REPS};

struct RunArgs {
    workload: Option<String>,
    all: bool,
    runs: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
    set: Option<PathBuf>,
    /// Internal: print the one-thread build time of each fixed-path case.
    build_1t: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        all: false,
        runs: 1,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
        set: None,
        build_1t: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |what: &str| format!("{flag}: not {what}");
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--all" => out.all = true,
            "--runs" => out.runs = value()?.parse().map_err(|_| bad("a count"))?,
            "--seed" => out.seed = value()?.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => out.seconds = value()?.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--smoke" => out.smoke = true,
            "--out" => out.out = PathBuf::from(value()?),
            "--set" => out.set = Some(PathBuf::from(value()?)),
            "--build-1t" => out.build_1t = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(out.seconds.is_finite() && out.seconds > 0.0) || out.runs == 0 {
        return Err("--seconds and --runs must be positive".to_string());
    }
    match (&out.workload, out.all) {
        (Some(w), false) if NAMES.contains(&w.as_str()) => Ok(out),
        (Some(w), false) => Err(format!("unknown workload {w}; one of {NAMES:?}")),
        (None, true) => Ok(out),
        _ => Err("give exactly one of --workload <name> and --all".to_string()),
    }
}

fn counts_value(c: library::CaseCounts) -> Value {
    obj(vec![
        ("warmup", Value::UInt(c.warmup as u64)),
        ("cold", Value::UInt(c.cold as u64)),
        ("cold_factor", Value::UInt(c.cold_factor as u64)),
        ("classical_reps", Value::UInt(c.classical_reps as u64)),
        ("warm", Value::UInt(c.warm as u64)),
        ("batch", Value::UInt(c.batch as u64)),
    ])
}

/// Repeat `setup` [`SETUP_REPS`] times, timing each; keep the last.
fn repeat_setup<S>(mut setup: impl FnMut() -> S, mut discard: impl FnMut(S)) -> (S, Vec<f64>) {
    let mut samples = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = kept.take() {
            discard(previous);
        }
        let t0 = Instant::now();
        kept = Some(setup());
        samples.push(t0.elapsed().as_secs_f64());
    }
    (kept.expect("SETUP_REPS is positive"), samples)
}

/// Touch, then free, as much memory as the workload will peak at. On a VM
/// whose host hands out backing pages lazily (and reclaims idle ones), the
/// first touch of a page costs a host fault; without this the first cold
/// visits of a 1.4 GB workload run up to 50 % slower than later ones, and
/// how much slower depends on what ran before. Freed pages stay backed, so
/// the timed phases fault only inside the guest.
fn prefault(megabytes: usize) {
    let mut block = vec![0u8; megabytes << 20];
    for page in block.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&block);
}

fn run_library(args: &RunArgs, workload: &str) -> (Measured, Vec<f64>) {
    prefault(workloads::prefault_mb(workload, args.smoke));
    let (setup, setup_samples) = repeat_setup(
        || workloads::setup_library(workload, args.seed, args.seconds, args.smoke),
        drop,
    );
    let origin = Instant::now();
    let mut spans = Vec::new();
    let mut next_visit = 0u32;
    let mut measured = Measured {
        cases: Vec::new(),
        overall_layer: Values::new(),
        cold: PhaseCount::default(),
        warm: PhaseCount::default(),
        batch: PhaseCount::default(),
        first_failure: None,
        spans: Vec::new(),
        counts: Value::Null,
    };
    let mut counts = Vec::new();
    for case in &setup.cases {
        let mut tr = Tracer::new(args.trace, origin, spans.len() as u32);
        let outcome = library::run_case(
            case,
            args.seed,
            setup.snapshot.as_ref(),
            args.trace,
            &mut tr,
            &mut next_visit,
        );
        spans.extend(tr.into_spans());
        measured.cold.add(outcome.cold);
        measured.warm.add(outcome.warm);
        measured.batch.add(outcome.batch);
        if measured.first_failure.is_none() {
            measured.first_failure = outcome.first_failure;
        }
        measured
            .cases
            .push((outcome.name, outcome.end_to_end, outcome.per_layer));
        counts.push((case.name, counts_value(case.counts)));
    }
    if args.trace {
        let l = &mut measured.overall_layer;
        l.insert("matgen.generate_s", setup.generate_s);
        if let (Some(d), Some(t)) = (setup.dataset_build_s, setup.train_s) {
            l.insert("core.dataset_build_s", d);
            l.insert("gnn.train_s", t);
            if let (Some(snapshot), Some(case)) = (setup.snapshot.as_ref(), setup.cases.first()) {
                let mut tr = Tracer::new(true, origin, spans.len() as u32);
                let layer = &mut measured.cases[0].2;
                library::tuning_leaves(case, snapshot, args.seed, &mut tr, layer);
                spans.extend(tr.into_spans());
            }
        }
        for (name, seconds) in build_one_thread(args, workload) {
            if let Some(case) = measured.cases.iter_mut().find(|c| c.0 == name) {
                case.2.insert("mcmc.build_1t_s", seconds);
            }
        }
    }
    measured.spans = spans;
    measured.counts = obj(counts);
    (measured, setup_samples)
}

fn run_serve(args: &RunArgs) -> (Measured, Vec<f64>) {
    let (setup, setup_samples) = repeat_setup(
        || serve::setup(args.seed),
        |previous| {
            let _ = previous.server.join();
        },
    );
    let counts = serve::ServeCounts::frozen(args.seconds, args.smoke);
    let generate_s = setup.generate_s;
    let mut measured = serve::run(setup, counts, args.seed, args.trace);
    if args.trace {
        measured
            .overall_layer
            .insert("matgen.generate_s", generate_s);
    }
    (measured, setup_samples)
}

/// `mcmc.build_1t_s`: the builds of this workload again, in a child
/// process pinned to one thread. Returns `(case, seconds)`.
fn build_one_thread(args: &RunArgs, workload: &str) -> Vec<(String, f64)> {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload, "--build-1t"])
        .args(["--seed", &args.seed.to_string()])
        .env("MCMCMI_BENCH_THREADS", "1");
    if args.smoke {
        cmd.arg("--smoke");
    }
    let Ok(output) = cmd.output() else {
        return Vec::new();
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let Some(Ok(Value::Object(pairs))) = stdout.lines().last().map(serde_json::parse_value_str)
    else {
        return Vec::new();
    };
    pairs
        .into_iter()
        .filter_map(|(k, v)| Some((k, v.as_f64()?)))
        .collect()
}

/// The child side of [`build_one_thread`].
fn print_one_thread_builds(args: &RunArgs, workload: &str) {
    let setup = workloads::setup_library(workload, args.seed, args.seconds, args.smoke);
    let builds: Vec<(&str, Value)> = setup
        .cases
        .iter()
        .filter_map(|c| Some((c.name, Value::Float(library::time_build(c, args.seed)?))))
        .collect();
    println!(
        "{}",
        serde_json::to_string(&obj(builds)).expect("serialises")
    );
}

/// Pin the thread count every parallel loop of the library will use,
/// before its first use. The rayon shim resolves its default once, from
/// the environment, and worker threads of the daemon see it too.
fn pin_threads() -> usize {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = std::env::var("MCMCMI_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(available.min(2));
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    assert_eq!(rayon::current_num_threads(), threads, "thread pin took");
    threads
}

fn run_workload(args: &RunArgs, workload: &str) -> ExitCode {
    let threads = pin_threads();
    if args.build_1t {
        print_one_thread_builds(args, workload);
        return ExitCode::SUCCESS;
    }
    let (measured, setup_samples) = if workload == "serve_mixed" {
        run_serve(args)
    } else {
        run_library(args, workload)
    };

    // A run reports one family of metrics: end to end, or per layer.
    let (defs, cases, overall): (_, Vec<(&str, &Values)>, _) = if args.trace {
        let mut overall = measured.overall_layer.clone();
        overall.insert("harness.threads", threads as f64);
        let cases = measured.cases.iter().map(|c| (c.0, &c.2)).collect();
        (PER_LAYER, cases, overall)
    } else {
        let mut overall = Values::new();
        overall.insert("setup_s", stats::median(&setup_samples));
        overall.insert("peak_rss_mb", report::peak_rss_mb());
        let cases = measured.cases.iter().map(|c| (c.0, &c.1)).collect();
        (END_TO_END, cases, overall)
    };
    let values = &aggregate(defs, &cases, &overall);
    let attempted = measured.cold.sent + measured.warm.sent + measured.batch.sent;
    let failed = measured.cold.failed + measured.warm.failed + measured.batch.failed;
    // Correct means every operation verified and every number exists.
    let correct = failed == 0 && attempted > 0 && values.values().all(|v| v.is_finite());

    println!(
        "workload {workload}  seed {}  seconds {}  trace {}  threads {threads}{}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { "  (smoke sizes)" } else { "" }
    );
    report::print_metrics(defs, values);
    report::print_cases(&cases);
    for (name, p) in [
        ("cold", measured.cold),
        ("warm", measured.warm),
        ("batch", measured.batch),
    ] {
        println!(
            "  phase {name}: sent {} succeeded {} failed {}",
            p.sent, p.succeeded, p.failed
        );
    }
    if let Some(why) = &measured.first_failure {
        println!("  first failure: {why}");
    }

    let metrics = report::metrics_value(defs, values);
    let result = obj(vec![
        ("workload", text(workload)),
        ("seed", Value::UInt(args.seed)),
        ("seconds", Value::Float(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("smoke", Value::Bool(args.smoke)),
        ("env", report::environment()),
        ("counts", measured.counts.clone()),
        (
            "phases",
            obj(vec![
                ("cold", report::phase_value(measured.cold)),
                ("warm", report::phase_value(measured.warm)),
                ("batch", report::phase_value(measured.batch)),
            ]),
        ),
        (
            "setup_samples_s",
            Value::Array(setup_samples.iter().map(|&s| Value::Float(s)).collect()),
        ),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(attempted)),
        ("failed", Value::UInt(failed)),
        (
            "first_failure",
            measured
                .first_failure
                .clone()
                .map_or(Value::Null, Value::Str),
        ),
        ("metrics", metrics.clone()),
        (
            "cases",
            Value::Array(
                cases
                    .iter()
                    .map(|(name, v)| {
                        obj(vec![
                            ("name", text(*name)),
                            ("values", report::values_value(v)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let suffix = if args.trace { ".layers.json" } else { ".json" };
    let mut written = report::write_json(&args.out.join(format!("{workload}{suffix}")), &result);
    if args.trace {
        let trace = report::trace_value(workload, args.seed, &measured.spans);
        written = written.and(report::write_json(
            &args.out.join(format!("{workload}.trace.json")),
            &trace,
        ));
    }
    if let Err(e) = written {
        eprintln!(
            "could not write result files under {}: {e}",
            args.out.display()
        );
        return ExitCode::FAILURE;
    }

    let line = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(attempted)),
        ("failed", Value::UInt(failed)),
        ("metrics", metrics),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("result serialises")
    );
    ExitCode::SUCCESS
}

/// Every workload, `runs` times each with seeds `seed, seed+1, …`, one
/// child process per run; prints every metric and writes the set file
/// `compare` reads.
fn run_all(args: &RunArgs) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut runs = Vec::new();
    for workload in NAMES {
        for r in 0..args.runs {
            let seed = args.seed + r as u64;
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", workload])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let output = match cmd.output() {
                Ok(o) if o.status.success() => o,
                Ok(o) => {
                    eprintln!("{workload} (seed {seed}) exited with {}", o.status);
                    eprint!("{}", String::from_utf8_lossy(&o.stderr));
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("could not start {workload}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or("");
            println!("{}", lines.join("\n"));
            let suffix = if args.trace { ".layers.json" } else { ".json" };
            let path = args.out.join(format!("{workload}{suffix}"));
            match std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|s| serde_json::parse_value_str(&s).map_err(|e| e.to_string()))
            {
                Ok(v) => runs.push(v),
                Err(e) => {
                    eprintln!("{}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            if !last.contains("\"correct\":true") {
                eprintln!("{workload} (seed {seed}) did not report a correct run");
            }
        }
    }
    let set = args
        .set
        .clone()
        .unwrap_or_else(|| args.out.join("set.json"));
    if let Err(e) = report::write_json(&set, &obj(vec![("runs", Value::Array(runs))])) {
        eprintln!("{}: {e}", set.display());
        return ExitCode::FAILURE;
    }
    println!("set written to {}", set.display());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(run) if run.all => run_all(&run),
            Ok(run) => {
                let workload = run.workload.clone().expect("checked by parse_run");
                run_workload(&run, &workload)
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
        Some("compare") if args.len() >= 3 => match compare::run(&args[1], &args[2]) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(n) => {
                eprintln!("{n} metric × workload pair(s) regressed");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!(
                "usage:\n  run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]\n  run --all [--runs N] [--set FILE] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]\n  compare <a.json> <b.json>\nworkloads: {NAMES:?}"
            );
            ExitCode::from(2)
        }
    }
}
