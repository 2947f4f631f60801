//! `sbfbench`: the end-to-end and per-layer benchmark for sbfd. See
//! README.md for the workloads, the metrics and how to read them.
//!
//! ```text
//! sbfbench [run] [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--out FILE]
//! sbfbench compare A.jsonl B.jsonl [--bench BENCHMARK.json]
//! ```
//!
//! `run` prints every metric by name and unit, then one JSON result line.
//! Without `--workload` it runs every workload, each in its own child
//! process, so peak memory and the process-global telemetry registry are
//! per workload.

mod alloc;
mod compare;
mod inputs;
mod json;
mod run;
mod stats;
mod trace;

use std::fs::OpenOptions;
use std::io::Write;
use std::process::{Command, ExitCode};

use inputs::Workload;
use json::Json;
use run::Options;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  sbfbench [run] [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--out FILE]
  sbfbench compare A.jsonl B.jsonl [--bench BENCHMARK.json]
workloads: read_batch, point_mixed, write_durable, cluster_repl";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("run") => run_cmd(&args[1..]),
        _ => run_cmd(&args),
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("sbfbench: {problem}\n{USAGE}");
    ExitCode::from(2)
}

fn run_cmd(args: &[String]) -> ExitCode {
    let mut workload = None;
    let mut seed = 2003u64;
    let mut seconds = 15.0f64;
    let mut trace = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => Workload::parse(value).map(|w| workload = Some(w)).is_some(),
            "--seed" => value.parse().map(|s| seed = s).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s > 0.0)
                .map(|s| seconds = s)
                .is_some(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            "--out" => {
                out = Some(value.clone());
                true
            }
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(workload) = workload else {
        return run_all(args);
    };
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
    };
    let outcome = run::run(&opts);
    for v in &outcome.violations {
        println!("  VIOLATION: {v}");
    }
    let result = outcome.to_json();
    if let Some(path) = out {
        let record = Json::Obj(vec![
            ("workload".into(), Json::Str(workload.name().into())),
            ("seed".into(), Json::Num(seed as f64)),
            ("seconds".into(), Json::Num(seconds)),
            ("trace".into(), Json::Bool(trace)),
            ("result".into(), result.clone()),
        ]);
        let appended = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{}", record.render()));
        if let Err(e) = appended {
            eprintln!("sbfbench: cannot append to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{}", result.render());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in turn, each in a child process of its own.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return usage(&format!("cannot find own executable: {e}")),
    };
    let mut code = ExitCode::SUCCESS;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(args)
            .args(["--workload", w.name()])
            .status();
        match status {
            Ok(s) if s.success() => {}
            other => {
                eprintln!("sbfbench: {} failed: {other:?}", w.name());
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use crate::json::{self, Json};
    use crate::run::{Metric, Outcome};

    #[test]
    fn result_line_round_trips() {
        let out = Outcome {
            attempted: 123_456_789,
            failed: 0,
            violations: Vec::new(),
            metrics: vec![
                Metric {
                    name: "frame_p50_us",
                    value: 512.123_456_789,
                    unit: "us",
                },
                Metric {
                    name: "e_add",
                    value: 0.1 + 0.2,
                    unit: "count",
                },
            ],
        };
        let back = json::parse(&out.to_json().render()).unwrap();
        let keys: Vec<&str> = back.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(back.get("attempted"), Some(&Json::Num(123_456_789.0)));
        assert_eq!(back.get("failed"), Some(&Json::Num(0.0)));
        let metrics = back.get("metrics").unwrap().members();
        assert_eq!(metrics.len(), out.metrics.len());
        for ((name, m), want) in metrics.iter().zip(&out.metrics) {
            assert_eq!(name, want.name);
            assert_eq!(m.get("value").and_then(Json::as_f64), Some(want.value));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(want.unit));
        }
        let failing = Outcome { failed: 3, ..out };
        assert_eq!(
            json::parse(&failing.to_json().render())
                .unwrap()
                .get("correct"),
            Some(&Json::Bool(false))
        );
    }
}
