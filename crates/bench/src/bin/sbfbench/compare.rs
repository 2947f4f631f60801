//! `sbfbench compare A.jsonl B.jsonl`: judges B (a change) against A (its
//! parent) from records written by `--out`, for every pairing of
//! end-to-end metric and workload, against the bounds in BENCHMARK.json.
//!
//! * A run of A pairs with the run of B of the same workload and seed, so
//!   both sides of a pair saw the same inputs; the two files must hold the
//!   same seeds. At least ten pairs are needed, ideally made alternating
//!   which side runs first.
//! * **gain**: B wins at least nine tenths of the pairs (ties count for
//!   neither) and the medians differ by more than A's interquartile range.
//! * **unresolved**: A's own spread is wider than the bound, unless every
//!   run of B reads better than every run of A.
//! * **regressed**: B's median is worse than A's by more than the bound.
//! * **unchanged**: none of the above.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::stats;

const MIN_PAIRS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    Unchanged,
    Regressed,
    Unresolved,
    TooFewPairs,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Gain => "gain",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::TooFewPairs => "too-few-pairs",
        })
    }
}

/// How one end-to-end metric is judged, from BENCHMARK.json.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Judges paired runs `a[i]` (parent) and `b[i]` (change) of one metric.
pub fn verdict(a: &[f64], b: &[f64], rule: &Rule) -> Verdict {
    let n = a.len().min(b.len());
    if n < MIN_PAIRS {
        return Verdict::TooFewPairs;
    }
    let (a, b) = (&a[..n], &b[..n]);
    let better = |x: f64, y: f64| if rule.lower_is_better { x < y } else { x > y };
    let wins = a.iter().zip(b).filter(|&(&x, &y)| better(y, x)).count();
    let (ma, mb) = (stats::median(a), stats::median(b));
    let (q1, q3) = stats::quartiles(a);
    let iqr = q3 - q1;
    if wins * 10 >= n * 9 && better(mb, ma) && (mb - ma).abs() > iqr {
        return Verdict::Gain;
    }
    let worse_by = if rule.lower_is_better {
        mb - ma
    } else {
        ma - mb
    } / ma.abs();
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if iqr / ma.abs() > rule.bound && !all_better {
        return Verdict::Unresolved;
    }
    if worse_by > rule.bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// The end-to-end rules listed in BENCHMARK.json.
pub fn rules(bench: &Json) -> Result<Vec<Rule>, String> {
    let list = bench
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            Ok(Rule {
                name: name.to_string(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Untraced runs per workload, keyed by seed: each run's metric values.
pub type Runs = BTreeMap<String, BTreeMap<u64, BTreeMap<String, f64>>>;

pub fn load_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |what: &str| format!("line {}: {what}", n + 1);
        let rec = json::parse(line).map_err(|e| at(&e))?;
        if matches!(rec.get("trace"), Some(Json::Bool(true))) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(at("no workload"))?;
        let seed = rec
            .get("seed")
            .and_then(Json::as_f64)
            .filter(|s| s.fract() == 0.0 && *s >= 0.0)
            .ok_or(at("no seed"))? as u64;
        let metrics = rec
            .get("result")
            .and_then(|r| r.get("metrics"))
            .ok_or(at("no result metrics"))?
            .members()
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        let by_seed = runs.entry(workload.to_string()).or_default();
        if by_seed.insert(seed, metrics).is_some() {
            return Err(at(&format!("a second {workload} run with seed {seed}")));
        }
    }
    Ok(runs)
}

/// One row per workload: each rule's verdict and the change in medians.
/// Fails when the two files ran a workload on different seeds.
pub fn report(a: &Runs, b: &Runs, rules: &[Rule]) -> Result<(Vec<String>, bool), String> {
    let mut rows = Vec::new();
    let mut regressed = false;
    for (workload, runs_a) in a {
        let Some(runs_b) = b.get(workload) else {
            rows.push(format!("{workload:<14} missing from the second file"));
            continue;
        };
        if !runs_a.keys().eq(runs_b.keys()) {
            return Err(format!(
                "{workload}: the files ran different seeds ({:?} against {:?}), so runs cannot pair",
                runs_a.keys().collect::<Vec<_>>(),
                runs_b.keys().collect::<Vec<_>>()
            ));
        }
        let mut row = format!("{workload:<14} {:>2} pairs", runs_a.len());
        for rule in rules {
            // Both maps iterate in seed order, so xa[i] and xb[i] pair up.
            let series = |runs: &BTreeMap<u64, BTreeMap<String, f64>>| -> Option<Vec<f64>> {
                runs.values().map(|r| r.get(&rule.name).copied()).collect()
            };
            let (Some(xa), Some(xb)) = (series(runs_a), series(runs_b)) else {
                continue;
            };
            let v = verdict(&xa, &xb, rule);
            regressed |= v == Verdict::Regressed;
            let change = (stats::median(&xb) / stats::median(&xa) - 1.0) * 100.0;
            row.push_str(&format!("  {}: {v} ({change:+.1}%)", rule.name));
        }
        rows.push(row);
    }
    Ok((rows, regressed))
}

pub fn main(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut bench = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bench" => match it.next() {
                Some(path) => bench = path.clone(),
                None => return usage(),
            },
            _ => files.push(arg.clone()),
        }
    }
    let [a, b] = files.as_slice() else {
        return usage();
    };
    let read = |path: &str| fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let judged = (|| -> Result<_, String> {
        let rules = rules(&json::parse(&read(&bench)?).map_err(|e| format!("{bench}: {e}"))?)?;
        let runs_a = load_runs(&read(a)?).map_err(|e| format!("{a}: {e}"))?;
        let runs_b = load_runs(&read(b)?).map_err(|e| format!("{b}: {e}"))?;
        report(&runs_a, &runs_b, &rules)
    })();
    let (rows, regressed) = match judged {
        Ok(x) => x,
        Err(e) => {
            eprintln!("sbfbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{b} against {a} (bounds from {bench}):");
    for row in rows {
        println!("{row}");
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: sbfbench compare A.jsonl B.jsonl [--bench BENCHMARK.json]");
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(lower: bool, bound: f64) -> Rule {
        Rule {
            name: "m".into(),
            lower_is_better: lower,
            bound,
        }
    }

    /// `n` values around `center`, spread ±`jitter` in a fixed pattern.
    fn around(center: f64, jitter: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center * (1.0 + jitter * ((i * 7 % 11) as f64 / 5.0 - 1.0)))
            .collect()
    }

    #[test]
    fn a_clear_win_is_a_gain() {
        let a = around(100.0, 0.01, 10);
        let b = around(80.0, 0.01, 10);
        assert_eq!(verdict(&a, &b, &rule(true, 0.10)), Verdict::Gain);
        // The same numbers read as throughput are a regression.
        assert_eq!(verdict(&a, &b, &rule(false, 0.10)), Verdict::Regressed);
    }

    #[test]
    fn a_noisy_tie_is_unchanged_and_not_a_gain() {
        let a = around(100.0, 0.03, 10);
        let mut b = a.clone();
        b.rotate_left(3);
        assert_eq!(verdict(&a, &b, &rule(true, 0.10)), Verdict::Unchanged);
    }

    #[test]
    fn worse_beyond_the_bound_is_a_regression() {
        let a = around(100.0, 0.02, 10);
        let b = around(115.0, 0.02, 10);
        assert_eq!(verdict(&a, &b, &rule(true, 0.10)), Verdict::Regressed);
        assert_eq!(verdict(&a, &b, &rule(true, 0.20)), Verdict::Unchanged);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let a = around(100.0, 0.30, 10);
        let mut b = a.clone();
        b.rotate_left(5);
        assert_eq!(verdict(&a, &b, &rule(true, 0.10)), Verdict::Unresolved);
    }

    #[test]
    fn all_worse_within_the_bound_over_a_wide_parent_is_unresolved() {
        // A skewed parent: median 100 at the top of a spread of 0.30.
        let a = [
            70.0, 70.0, 70.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0,
        ];
        let b: Vec<f64> = (1..=10).map(|i| 100.0 + f64::from(i)).collect();
        // Every run of B is worse than every run of A, and its median is
        // 5.5% worse: inside the bound, but A cannot resolve it.
        assert_eq!(verdict(&a, &b, &rule(true, 0.10)), Verdict::Unresolved);
        // Every run better escapes, and is no regression.
        let c: Vec<f64> = (1..=10).map(|i| 60.0 - f64::from(i)).collect();
        assert_ne!(verdict(&a, &c, &rule(true, 0.10)), Verdict::Unresolved);
        assert_ne!(verdict(&a, &c, &rule(true, 0.10)), Verdict::Regressed);
    }

    #[test]
    fn fewer_than_ten_pairs_decide_nothing() {
        let a = around(100.0, 0.01, 9);
        let b = around(50.0, 0.01, 9);
        assert_eq!(verdict(&a, &b, &rule(true, 0.10)), Verdict::TooFewPairs);
    }

    fn record(w: &str, seed: u64, v: f64) -> String {
        format!(
            "{{\"workload\": \"{w}\", \"seed\": {seed}, \"trace\": false, \"result\": \
             {{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
             {{\"m\": {{\"value\": {v}, \"unit\": \"ms\"}}}}}}}}\n"
        )
    }

    /// Ten runs per workload `x` and `y`, seeds `seeds`, around `center`.
    fn records(center: f64, seeds: impl Iterator<Item = u64> + Clone) -> String {
        ["x", "y"]
            .iter()
            .flat_map(|w| {
                seeds
                    .clone()
                    .zip(around(center, 0.01, 10))
                    .map(move |(seed, v)| record(w, seed, v))
            })
            .collect()
    }

    #[test]
    fn reports_one_row_per_workload_from_records() {
        let a = load_runs(&records(100.0, 1..=10)).unwrap();
        // B's file lists the same seeds in another order: pairs follow seeds.
        let b = load_runs(&records(150.0, (1..=10).rev())).unwrap();
        assert_eq!(a["x"].len(), 10);
        let (rows, regressed) = report(&a, &b, &[rule(true, 0.10)]).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(
            rows[0].starts_with('x') && rows[0].contains("m: regressed (+50.0%)"),
            "{rows:?}"
        );
        assert!(regressed);
        let bench = json::parse(
            r#"{"end_to_end": [{"name": "m", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(rules(&bench).unwrap(), vec![rule(true, 0.1)]);
    }

    #[test]
    fn runs_pair_only_on_matching_seeds() {
        let a = load_runs(&records(100.0, 1..=10)).unwrap();
        let b = load_runs(&records(100.0, 2..=11)).unwrap();
        let err = report(&a, &b, &[rule(true, 0.10)]).unwrap_err();
        assert!(err.contains("different seeds"), "{err}");
        let twice = format!("{}{}", record("x", 3, 1.0), record("x", 3, 2.0));
        assert!(load_runs(&twice).unwrap_err().contains("seed 3"));
    }
}
