//! `suite`: every workload, each run in its own process, aggregated into
//! one stamped document. `compare`: two such documents judged by the
//! bounds the benchmark declares.

use crate::machine;
use crate::spec::{Kind, END_TO_END, KINDS, PER_LAYER, RUN_SECONDS};
use crate::stats::{quartiles, spread};
use crate::Args;
use serde::Value;
use std::process::Command;

/// One run's parsed result line.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

impl RunResult {
    fn metric(&self, kind: Kind, name: &str) -> Result<f64, String> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("{} did not report {name}", kind.name()))
    }
}

fn parse_result(stdout: &str) -> Result<RunResult, String> {
    let line = stdout.lines().last().ok_or("the run printed nothing")?;
    let v = serde_json::from_str(line).map_err(|e| format!("bad result line: {e}"))?;
    let count = |key: &str| {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("result line lacks '{key}'"))
    };
    let metrics = v
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line lacks 'metrics'")?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Value::as_f64)
                .map(|value| (name.clone(), value))
                .ok_or_else(|| format!("metric {name} has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(RunResult {
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

fn run_child(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Exit code 2 is a run that completed with failed operations: its
    // result line still counts.
    if !matches!(out.status.code(), Some(0 | 2)) {
        return Err(format!(
            "{} (seed {seed}, trace {trace}) exited with {}: {}",
            kind.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    parse_result(&stdout)
}

fn f(x: f64) -> Value {
    Value::Float(x)
}

/// Runs every workload `--runs` times untraced and once traced.
pub fn suite(args: &Args) -> Result<bool, String> {
    let quick = args.flag("--quick");
    let runs: usize = args.parsed("--runs", if quick { 1 } else { 5 })?;
    let seed: u64 = args.parsed("--seed", 7)?;
    let seconds: f64 = args.parsed("--seconds", if quick { 1.0 } else { RUN_SECONDS as f64 })?;
    let vary = args.flag("--vary-seed");
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for kind in KINDS {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let (mut attempted, mut failed) = (0, 0);
        for r in 0..runs.max(1) {
            let run_seed = if vary { seed + r as u64 } else { seed };
            let res = run_child(kind, run_seed, seconds, false, quick)?;
            attempted += res.attempted;
            failed += res.failed;
            for (slot, m) in samples.iter_mut().zip(END_TO_END) {
                slot.push(res.metric(kind, m.name)?);
            }
            eprintln!(
                "suite: {} untraced run {} of {runs} done",
                kind.name(),
                r + 1
            );
        }
        let traced = run_child(kind, seed, seconds, true, quick)?;
        attempted += traced.attempted;
        failed += traced.failed;
        all_ok &= failed == 0;

        println!("\n{} — {}", kind.name(), kind.why());
        println!(
            "  {:<14} {:>14} {:>8} {:>8} {:>7}  ({} runs)",
            "end to end", "median", "unit", "spread", "bound", runs
        );
        let mut e2e = Vec::new();
        for (m, values) in END_TO_END.iter().zip(&samples) {
            let [q1, q2, q3] = quartiles(values);
            println!(
                "  {:<14} {:>14.6} {:>8} {:>7.1}% {:>6.0}%",
                m.name,
                q2,
                m.unit,
                spread(values) * 100.0,
                m.bound * 100.0
            );
            e2e.push((
                m.name.to_string(),
                Value::Object(vec![
                    ("unit".into(), Value::Str(m.unit.into())),
                    ("samples".into(), Value::UInt(values.len() as u64)),
                    ("median".into(), f(q2)),
                    ("q1".into(), f(q1)),
                    ("q3".into(), f(q3)),
                    (
                        "values".into(),
                        Value::Array(values.iter().map(|&v| f(v)).collect()),
                    ),
                ]),
            ));
        }
        println!("  failed_ops_ratio {failed} / {attempted}");
        let mut layers = Vec::new();
        for m in PER_LAYER {
            let value = traced.metric(kind, m.name)?;
            println!("  {:<34} {:>16.6} {}", m.name, value, m.unit);
            layers.push((
                m.name.to_string(),
                Value::Object(vec![
                    ("unit".into(), Value::Str(m.unit.into())),
                    ("samples".into(), Value::UInt(1)),
                    ("value".into(), f(value)),
                ]),
            ));
        }
        workloads.push((
            kind.name().to_string(),
            Value::Object(vec![
                ("attempted".into(), Value::UInt(attempted)),
                ("failed".into(), Value::UInt(failed)),
                ("end_to_end".into(), Value::Object(e2e)),
                ("per_layer".into(), Value::Object(layers)),
            ]),
        ));
    }
    let doc = Value::Object(vec![
        ("stamp".into(), machine::stamp(seed)),
        ("run_seconds".into(), f(seconds)),
        ("untraced_runs".into(), Value::UInt(runs as u64)),
        ("seed_varies".into(), Value::Bool(vary)),
        ("workloads".into(), Value::Object(workloads)),
    ]);
    if let Some(out) = args.value("--out") {
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(out, text + "\n").map_err(|e| format!("write {out}: {e}"))?;
        println!("\nwrote {out}");
    }
    Ok(all_ok)
}

#[derive(PartialEq, Eq, Debug, Clone, Copy)]
pub enum Verdict {
    Better,
    WithinBound,
    Regressed,
    Unresolved,
}

/// Judges one metric: `change` is how much worse `b` is than `a` as a
/// share of `a` (negative when better). A spread wider than the bound
/// cannot resolve a change of the bound's size either way.
pub fn judge(a: f64, b: f64, higher_is_better: bool, spread: f64, bound: f64) -> (f64, Verdict) {
    let change = if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    };
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if change > bound {
        Verdict::Regressed
    } else if change < -spread.max(0.01) {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (change, verdict)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn field(doc: &Value, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(doc, |v, key| v.get(key))
        .and_then(Value::as_f64)
}

/// `compare A.json B.json`: one row per end-to-end metric × workload;
/// fails on a regression or on any failed operation in `B`.
pub fn compare(args: &Args) -> Result<bool, String> {
    let files = args.positional();
    let [_, a_path, b_path] = files[..] else {
        return Err("usage: bench_e2e compare <a.json> <b.json>".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    println!(
        "{:<12} {:<13} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "worse", "spread", "bound"
    );
    for kind in KINDS {
        let w = kind.name();
        for m in END_TO_END {
            let get = |doc: &Value, key: &str| {
                field(doc, &["workloads", w, "end_to_end", m.name, key])
                    .ok_or_else(|| format!("{w}.{} lacks '{key}' in one of the files", m.name))
            };
            let spread_of = |doc: &Value| -> Result<f64, String> {
                Ok((get(doc, "q3")? - get(doc, "q1")?) / get(doc, "median")?.abs())
            };
            let spread = spread_of(&a)?.max(spread_of(&b)?);
            let (ma, mb) = (get(&a, "median")?, get(&b, "median")?);
            let (change, verdict) = judge(ma, mb, m.better == "higher", spread, m.bound);
            ok &= verdict != Verdict::Regressed;
            println!(
                "{:<12} {:<13} {:>14.6} {:>14.6} {:>+7.1}% {:>7.1}% {:>5.0}%  {}",
                w,
                m.name,
                ma,
                mb,
                change * 100.0,
                spread * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Better => "better",
                    Verdict::WithinBound => "within bound",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved (spread exceeds bound)",
                }
            );
        }
        let failed = field(&b, &["workloads", w, "failed"]).unwrap_or(f64::NAN);
        let attempted = field(&b, &["workloads", w, "attempted"]).unwrap_or(f64::NAN);
        if failed != 0.0 {
            ok = false;
            println!("{w:<12} failed_ops_ratio {failed} / {attempted}  FAILED OPERATIONS");
        }
        // Counts are exact: any difference is a change of behaviour, not
        // noise. Reported, not judged — a change may intend it.
        for m in PER_LAYER.iter().filter(|m| m.unit == "count") {
            let at = ["workloads", w, "per_layer", m.name, "value"];
            if let (Some(ca), Some(cb)) = (field(&a, &at), field(&b, &at)) {
                if ca != cb {
                    println!("{w:<12} {:<34} count changed: {ca} -> {cb}", m.name);
                }
            }
        }
    }
    println!(
        "{}",
        if ok {
            "no regression"
        } else {
            "REGRESSION or failed operations"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        // Lower is better, 10 % bound, 2 % spread.
        assert_eq!(judge(1.0, 1.05, false, 0.02, 0.10).1, Verdict::WithinBound);
        assert_eq!(judge(1.0, 1.11, false, 0.02, 0.10).1, Verdict::Regressed);
        assert_eq!(judge(1.0, 0.90, false, 0.02, 0.10).1, Verdict::Better);
        // Higher is better: a drop is the regression.
        assert_eq!(judge(100.0, 80.0, true, 0.02, 0.10).1, Verdict::Regressed);
        assert_eq!(judge(100.0, 120.0, true, 0.02, 0.10).1, Verdict::Better);
        // A spread wider than the bound resolves nothing.
        assert_eq!(judge(1.0, 1.5, false, 0.12, 0.10).1, Verdict::Unresolved);
        let (change, _) = judge(2.0, 2.2, false, 0.0, 0.25);
        assert!((change - 0.1).abs() < 1e-12);
    }

    #[test]
    fn result_lines_parse_back() {
        let line = r#"# note
{"correct": true, "attempted": 12, "failed": 0, "metrics": {"solve_s": {"value": 0.5, "unit": "s"}}}"#;
        let r = parse_result(line).unwrap();
        assert_eq!((r.attempted, r.failed), (12, 0));
        assert_eq!(r.metrics, vec![("solve_s".to_string(), 0.5)]);
        assert!(parse_result("").is_err());
        assert!(parse_result("not json").is_err());
    }
}
