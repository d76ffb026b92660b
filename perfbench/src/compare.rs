//! `--compare`: judges a candidate results file against a baseline.
//!
//! For every workload × metric present in both files it prints each
//! side's median and quartiles and a verdict. An end-to-end metric is
//! `worse` when the candidate's median is worse than the baseline's by
//! more than the metric's bound in `BENCHMARK.json`, `better` when it
//! is better by more than the baseline's own quartile spread, and
//! `unresolved` when either side's spread exceeds the bound — unless
//! every candidate run beats (or loses to) every baseline run. A
//! per-layer metric has no bound; its spread alone decides.

use crate::stats;
use laacad_scenario::{json, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// How a metric is judged.
#[derive(Debug, Clone, PartialEq)]
struct Rule {
    lower_is_better: bool,
    bound: Option<f64>,
}

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

type Samples = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<(Samples, Option<Value>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut samples = Samples::new();
    let mut machine = None;
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", i + 1))?;
        if machine.is_none() {
            machine = run.get("machine").cloned();
        }
        let Some(metrics) = run.get("metrics").and_then(Value::as_table) else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                samples
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok((samples, machine))
}

fn rules(spec: &Value) -> BTreeMap<String, Rule> {
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in spec.get(key).and_then(Value::as_array).unwrap_or_default() {
            let (Some(name), Some(better)) = (
                m.get("name").and_then(Value::as_str),
                m.get("better").and_then(Value::as_str),
            ) else {
                continue;
            };
            out.insert(
                name.to_string(),
                Rule {
                    lower_is_better: better == "lower",
                    bound: m.get("bound").and_then(Value::as_f64),
                },
            );
        }
    }
    out
}

/// Judges candidate samples `b` against baseline samples `a`.
fn judge(a: &[f64], b: &[f64], rule: &Rule) -> Verdict {
    let (a1, am, a3) = stats::quartiles(a);
    let (b1, bm, b3) = stats::quartiles(b);
    if am == 0.0 {
        return if bm == 0.0 {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    let sign = if rule.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (bm - am) / am.abs();
    let spread_a = (a3 - a1) / am.abs();
    let spread_b = if bm == 0.0 { 0.0 } else { (b3 - b1) / bm.abs() };
    let beats = |x: f64, y: f64| sign * (x - y) < 0.0;
    let all_better = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    let all_worse = b.iter().all(|&x| a.iter().all(|&y| beats(y, x)));
    match rule.bound {
        Some(bound) if spread_a.max(spread_b) > bound => {
            if all_better {
                Verdict::Better
            } else if all_worse {
                Verdict::Worse
            } else {
                Verdict::Unresolved
            }
        }
        Some(bound) if worse_by > bound => Verdict::Worse,
        Some(_) if -worse_by > spread_a => Verdict::Better,
        Some(_) => Verdict::Unchanged,
        None => {
            let noise = spread_a.max(spread_b);
            if worse_by > noise {
                Verdict::Worse
            } else if -worse_by > noise {
                Verdict::Better
            } else {
                Verdict::Unchanged
            }
        }
    }
}

/// Entry point of `--compare <a> <b> [--spec <file>]`.
pub fn main(argv: &[String]) -> ExitCode {
    let (files, spec_path) = match argv {
        [a, b] => ([a, b], "BENCHMARK.json"),
        [a, b, flag, spec] if flag == "--spec" => ([a, b], spec.as_str()),
        _ => {
            eprintln!("usage: perfbench --compare <a.jsonl> <b.jsonl> [--spec <BENCHMARK.json>]");
            return ExitCode::from(2);
        }
    };
    let loaded = (|| -> Result<_, String> {
        let spec_text =
            std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
        let spec = json::parse(&spec_text).map_err(|e| format!("{spec_path}: {e}"))?;
        Ok((rules(&spec), load(files[0])?, load(files[1])?))
    })();
    let (rules, (a, machine_a), (b, machine_b)) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let show = |m: &Option<Value>| m.as_ref().map_or("?".to_string(), json::to_string);
    println!("baseline:  {} ({})", files[0], show(&machine_a));
    println!("candidate: {} ({})", files[1], show(&machine_b));
    if machine_a != machine_b {
        println!("warning: the two files were measured on different machines or revisions");
    }
    println!(
        "{:<10} {:<34} {:>34} {:>34} {:>9}  verdict",
        "workload", "metric", "baseline median [q1, q3]", "candidate median [q1, q3]", "change"
    );
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for ((workload, metric), xs) in &a {
        let (Some(ys), Some(rule)) = (
            b.get(&(workload.clone(), metric.clone())),
            rules.get(metric),
        ) else {
            continue;
        };
        let verdict = judge(xs, ys, rule);
        *counts.entry(verdict.name()).or_default() += 1;
        let fmt = |v: &[f64]| {
            let (q1, m, q3) = stats::quartiles(v);
            format!("{m:.4} [{q1:.4}, {q3:.4}]")
        };
        let (_, am, _) = stats::quartiles(xs);
        let (_, bm, _) = stats::quartiles(ys);
        let change = if am == 0.0 {
            "n/a".to_string()
        } else {
            format!("{:+.1}%", (bm - am) / am.abs() * 100.0)
        };
        println!(
            "{workload:<10} {metric:<34} {:>34} {:>34} {change:>9}  {}",
            fmt(xs),
            fmt(ys),
            verdict.name()
        );
    }
    let summary: Vec<String> = counts.iter().map(|(k, n)| format!("{n} {k}")).collect();
    println!("{}", summary.join(", "));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule {
        lower_is_better: true,
        bound: Some(0.1),
    };

    #[test]
    fn verdicts_follow_bounds_and_spread() {
        let base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98];
        let slower: Vec<f64> = base.iter().map(|x| x * 1.3).collect();
        let faster: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        let same: Vec<f64> = base.iter().map(|x| x * 1.01).collect();
        assert_eq!(judge(&base, &slower, &LOWER), Verdict::Worse);
        assert_eq!(judge(&base, &faster, &LOWER), Verdict::Better);
        assert_eq!(judge(&base, &same, &LOWER), Verdict::Unchanged);
        let higher = Rule {
            lower_is_better: false,
            ..LOWER
        };
        assert_eq!(judge(&base, &slower, &higher), Verdict::Better);
        let noisy = [0.5, 1.5, 0.6, 1.4, 1.0, 0.7];
        assert_eq!(judge(&noisy, &same, &LOWER), Verdict::Unresolved);
        let unbounded = Rule {
            bound: None,
            ..LOWER
        };
        assert_eq!(judge(&base, &slower, &unbounded), Verdict::Worse);
        assert_eq!(
            judge(&[0.0, 0.0], &[0.0, 0.0], &unbounded),
            Verdict::Unchanged
        );
    }
}
