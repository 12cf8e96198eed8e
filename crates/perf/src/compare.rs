//! The benchmark gate: runs the repository benchmark built at a change
//! and at its base, on the same machine, and judges every end-to-end
//! metric against its `BENCHMARK.json` bound.
//!
//! Both sides run in alternating pairs on every workload, so a slow
//! spell on a shared machine lands on both. For each metric the gate
//! takes each side's median. The metric is REGRESSED when the change is
//! worse than the base by more than its bound, in the direction
//! `BENCHMARK.json` gives. It is UNRESOLVED when the base's own
//! interquartile range exceeds the bound, unless every change run reads
//! better than every base run; UNRESOLVED is printed and does not fail.
//! A run that exits non-zero or prints `"correct": false` fails the
//! gate. On a regression the gate runs one traced pair of each failing
//! workload and prints its per-layer metrics, largest relative change
//! first, so the failure names the layer that moved. Each table also
//! says, unjudged, whether every run printed the same `env` checkpoint.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use crate::json::Json;

/// Seed of every run: the sims then do the same work on both sides.
const SEED: &str = "1";
/// Measured seconds per run: `udp-loopback` gets about 4,000 offers,
/// past its 1,000-message minimum, and the gate stays near six minutes.
const SECONDS: &str = "10";
/// The two sides; a side is an index into this array.
const SIDES: [&str; 2] = ["base", "change"];
/// Run order of each pair: base first in pairs 1 and 3, so a machine
/// that warms or slows over time favours neither side.
const PAIRS: [[usize; 2]; 3] = [[0, 1], [1, 0], [0, 1]];

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug)]
struct Metric {
    name: String,
    higher_is_better: bool,
    /// How much worse than the base the change may read, as a fraction.
    bound: f64,
}

/// What the gate reads from `BENCHMARK.json`.
#[derive(Debug)]
struct Spec {
    workloads: Vec<String>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<String>,
}

fn parse_spec(text: &str) -> Result<Spec, String> {
    let json = Json::parse(text)?;
    let entries = |key: &str| {
        json.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("no `{key}` list"))
    };
    let string = |entry: &Json, key: &str| {
        entry
            .get(key)
            .and_then(Json::as_str)
            .map(String::from)
            .ok_or_else(|| format!("an entry without a string `{key}`"))
    };
    let names = |key: &str| -> Result<Vec<String>, String> {
        entries(key)?.iter().map(|e| string(e, "name")).collect()
    };
    let end_to_end = entries("end_to_end")?
        .iter()
        .map(|e| {
            let name = string(e, "name")?;
            let higher_is_better = match string(e, "better")?.as_str() {
                "higher" => true,
                "lower" => false,
                other => return Err(format!("{name}: `better` is `{other}`")),
            };
            let bound = e
                .get("bound")
                .and_then(Json::as_f64)
                .filter(|b| *b >= 0.0)
                .ok_or_else(|| format!("{name}: no non-negative `bound`"))?;
            Ok(Metric {
                name,
                higher_is_better,
                bound,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Spec {
        workloads: names("workloads")?,
        end_to_end,
        per_layer: names("per_layer")?,
    })
}

/// The result line of one benchmark run, and its `env` `checkpoint`.
#[derive(Debug, Clone)]
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    checkpoint: Option<String>,
}

/// The `checkpoint` of an `env` line (`{"env": {...}}`), if it has one.
fn env_checkpoint(line: &str) -> Option<String> {
    let json = Json::parse(line).ok()?;
    json.get("env")?
        .get("checkpoint")?
        .as_str()
        .map(String::from)
}

/// Parses a result line; `"correct": false` is an error.
fn parse_result(line: &str) -> Result<RunResult, String> {
    let json = Json::parse(line).map_err(|e| format!("the result line is not JSON: {e}"))?;
    if json.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("the result is not correct: {line}"));
    }
    let count = |key: &str| {
        json.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("the result line has no `{key}` count"))
    };
    let metrics = json
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("the result line has no `metrics`")?
        .iter()
        .map(|(name, m)| match m.get("value").and_then(Json::as_f64) {
            Some(v) => Ok((name.clone(), v)),
            None => Err(format!("metric {name} has no numeric `value`")),
        })
        .collect::<Result<_, String>>()?;
    Ok(RunResult {
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
        checkpoint: None,
    })
}

/// One metric's value in every run of `side`.
fn values(runs: &[RunResult], side: usize, name: &str) -> Result<Vec<f64>, String> {
    runs.iter()
        .map(|r| r.metrics.get(name).copied())
        .collect::<Option<_>>()
        .ok_or_else(|| format!("a {} run printed no {name}", SIDES[side]))
}

/// The `q`-quantile of `values`, interpolating linearly between order
/// statistics; `q = 0.5` is the median. `values` must not be empty.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `change / base - 1`: 0 when both are 0, infinite when only the base is.
fn relative(base: f64, change: f64) -> f64 {
    match (base == 0.0, change == 0.0) {
        (true, true) => 0.0,
        (true, false) => f64::INFINITY.copysign(change),
        _ => change / base - 1.0,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// One judged metric: each side's median, `change / base - 1`, and the
/// base runs' interquartile range over their median.
#[derive(Debug)]
struct Row<'a> {
    metric: &'a Metric,
    base: f64,
    change: f64,
    delta: f64,
    base_spread: f64,
    verdict: Verdict,
}

fn judge<'a>(metric: &'a Metric, base: &[f64], change: &[f64]) -> Row<'a> {
    let (b, c) = (quantile(base, 0.5), quantile(change, 0.5));
    let delta = relative(b, c);
    let worse = if metric.higher_is_better {
        -delta
    } else {
        delta
    };
    let base_spread = relative(b, b + quantile(base, 0.75) - quantile(base, 0.25));
    let better = |x: f64, y: f64| x != y && (x > y) == metric.higher_is_better;
    let all_better = change.iter().all(|&x| base.iter().all(|&y| better(x, y)));
    let verdict = if base_spread > metric.bound && !all_better {
        Verdict::Unresolved
    } else if worse > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Row {
        metric,
        base: b,
        change: c,
        delta,
        base_spread,
        verdict,
    }
}

/// Each side's runs of one workload, indexed as [`SIDES`].
type Runs = [Vec<RunResult>; 2];

/// Judges every `BENCHMARK.json` workload and end-to-end metric. Fails
/// when a workload has no runs on a side or a run lacks a metric.
fn compare<'a>(
    spec: &'a Spec,
    runs: &BTreeMap<String, Runs>,
) -> Result<Vec<(&'a str, Vec<Row<'a>>)>, String> {
    spec.workloads
        .iter()
        .map(|workload| {
            let w = runs
                .get(workload)
                .filter(|w| w.iter().all(|side| !side.is_empty()))
                .ok_or_else(|| format!("{workload}: no runs on one side"))?;
            let rows = spec
                .end_to_end
                .iter()
                .map(|m| {
                    let (b, c) = (values(&w[0], 0, &m.name)?, values(&w[1], 1, &m.name)?);
                    Ok(judge(m, &b, &c))
                })
                .collect::<Result<_, String>>()
                .map_err(|e| format!("{workload}: {e}"))?;
            Ok((workload.as_str(), rows))
        })
        .collect()
}

/// One workload's table: each side's operations, then one row per metric.
fn table(workload: &str, runs: &Runs, rows: &[Row<'_>]) -> String {
    let ops = |side: usize| {
        let sum = |f: fn(&RunResult) -> u64| runs[side].iter().map(f).sum::<u64>();
        let (attempted, failed) = (sum(|r| r.attempted), sum(|r| r.failed));
        format!("{} attempted {attempted}, failed {failed}", SIDES[side])
    };
    let each = |s: usize| Vec::from_iter(runs[s].iter().map(|r| r.checkpoint.as_deref()));
    let seen = BTreeSet::from_iter(each(0).into_iter().chain(each(1)));
    let checkpoint = match Vec::from_iter(seen)[..] {
        [None] => "none reported".to_string(),
        [Some(c)] => format!("the same in every run, {c}"),
        _ => format!("differs; base {:?}; change {:?}", each(0), each(1)),
    };
    let mut out = format!(
        "{workload}: {}; {}\n  checkpoint: {checkpoint}\n  {:<26} {:>14} {:>14} {:>9} {:>9} {:>6}  verdict\n",
        ops(0),
        ops(1),
        "metric",
        "base median",
        "change median",
        "delta",
        "base IQR",
        "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "  {:<26} {:>14.6} {:>14.6} {:>+8.1}% {:>8.1}% {:>5.0}%  {}\n",
            r.metric.name,
            r.base,
            r.change,
            r.delta * 100.0,
            r.base_spread * 100.0,
            r.metric.bound * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "UNRESOLVED",
            }
        ));
    }
    out
}

/// The per-layer metrics of one traced pair as `(metric, base, change,
/// change / base - 1)`, largest relative change first.
fn layer_rows<'a>(
    names: &'a [String],
    pair: &Runs,
) -> Result<Vec<(&'a str, f64, f64, f64)>, String> {
    let mut rows = names
        .iter()
        .map(|name| {
            let (b, c) = (values(&pair[0], 0, name)?, values(&pair[1], 1, name)?);
            Ok((name.as_str(), b[0], c[0], relative(b[0], c[0])))
        })
        .collect::<Result<Vec<_>, String>>()?;
    rows.sort_by(|x, y| y.3.abs().total_cmp(&x.3.abs()));
    Ok(rows)
}

/// Runs one benchmark binary on one workload and parses its result.
fn run_once(bin: &Path, side: usize, workload: &str, trace: &str) -> Result<RunResult, String> {
    let out = Command::new(bin)
        .args(["--workload", workload, "--seed", SEED, "--seconds", SECONDS])
        .args(["--trace", trace])
        .output()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = if out.status.success() {
        let checkpoint = stdout.lines().find_map(env_checkpoint);
        parse_result(stdout.lines().last().unwrap_or_default())
            .map(|r| RunResult { checkpoint, ..r })
    } else {
        Err(format!("exited with {}", out.status))
    };
    result.map_err(|why| {
        format!(
            "the {} run of {workload} (--trace {trace}) failed: {why}; its stderr:\n{}",
            SIDES[side],
            String::from_utf8_lossy(&out.stderr).trim_end()
        )
    })
}

/// Runs the gate on the text of `BENCHMARK.json` and the two benchmark
/// binaries, printing progress and tables. Returns whether every
/// end-to-end metric passed.
///
/// # Errors
///
/// Fails when `BENCHMARK.json` lacks what the gate reads, and on a run
/// that cannot start, exits non-zero, or prints an incorrect or
/// incomplete result.
pub fn run_gate(benchmark_json: &str, base: &Path, change: &Path) -> Result<bool, String> {
    let spec = parse_spec(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let bins = [base, change];
    println!(
        "# perf-check: base {}, change {}; --seed {SEED} --seconds {SECONDS}, {} pairs per workload",
        base.display(),
        change.display(),
        PAIRS.len()
    );
    let mut runs = BTreeMap::new();
    for workload in &spec.workloads {
        let mut w = Runs::default();
        for (pair, order) in PAIRS.iter().enumerate() {
            for &side in order {
                let started = Instant::now();
                w[side].push(run_once(bins[side], side, workload, "0")?);
                println!(
                    "  {workload:<20} pair {}  {:<6}  {:.1} s",
                    pair + 1,
                    SIDES[side],
                    started.elapsed().as_secs_f64()
                );
            }
        }
        runs.insert(workload.clone(), w);
    }
    let mut regressed = Vec::new();
    for (workload, rows) in compare(&spec, &runs)? {
        print!("{}", table(workload, &runs[workload], &rows));
        if rows.iter().any(|r| r.verdict == Verdict::Regressed) {
            regressed.push(workload);
        }
    }
    for workload in &regressed {
        let mut pair = Runs::default();
        for side in 0..2 {
            pair[side].push(run_once(bins[side], side, workload, "1")?);
        }
        println!("{workload}, one traced pair (--trace 1), by |relative change|:");
        println!(
            "  {:<36} {:>14} {:>14} {:>9}",
            "metric", "base", "change", "delta"
        );
        for (name, b, c, delta) in layer_rows(&spec.per_layer, &pair)? {
            println!("  {name:<36} {b:>14.6} {c:>14.6} {:>+8.1}%", delta * 100.0);
        }
    }
    if regressed.is_empty() {
        println!("gate: PASS");
    } else {
        println!("gate: FAIL, regressed on {}", regressed.join(", "));
    }
    Ok(regressed.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": [
            {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
            {"name": "latency", "unit": "ms", "better": "lower", "bound": 0.25}
        ],
        "per_layer": [
            {"name": "a_ns", "unit": "ns", "better": "lower"},
            {"name": "b_ns", "unit": "ns", "better": "lower"},
            {"name": "c_ratio", "unit": "ratio", "better": "higher"}
        ]
    }"#;

    fn spec() -> Spec {
        parse_spec(SPEC).unwrap()
    }

    fn line(metrics: &[(&str, f64)]) -> String {
        let fields: Vec<String> = metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"x\"}}"))
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": 100, \"failed\": 1, \"metrics\": {{{}}}}}",
            fields.join(", ")
        )
    }

    fn result(metrics: &[(&str, f64)]) -> RunResult {
        parse_result(&line(metrics)).unwrap()
    }

    fn runs(base: &[(f64, f64)], change: &[(f64, f64)]) -> Runs {
        [base, change].map(|side| {
            side.iter()
                .map(|&(r, l)| result(&[("rate", r), ("latency", l)]))
                .collect()
        })
    }

    /// Both workloads with the same runs: w1's verdicts and table.
    fn verdicts(base: &[(f64, f64)], change: &[(f64, f64)]) -> (Vec<Verdict>, String) {
        let (spec, w) = (spec(), runs(base, change));
        let all = BTreeMap::from([("w1".into(), w.clone()), ("w2".into(), w.clone())]);
        let judged = compare(&spec, &all).unwrap();
        let rows = &judged[0].1;
        let verdicts = rows.iter().map(|r| r.verdict).collect();
        (verdicts, table("w1", &w, rows))
    }

    #[test]
    fn parses_the_committed_benchmark_json() {
        let spec = parse_spec(include_str!("../../../BENCHMARK.json")).unwrap();
        assert_eq!(
            spec.workloads,
            ["sim-n10k", "sim-recovery-lossy", "udp-loopback"]
        );
        let rate = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "node_rounds_per_s");
        let rate = rate.unwrap();
        assert!(rate.higher_is_better);
        assert_eq!(rate.bound, 0.25);
        assert!(spec.per_layer.iter().any(|m| m == "protocol.on_receive_ns"));
        assert!(parse_spec(&SPEC.replace("\"higher\"", "\"up\"")).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
        let spec = spec();
        let row = judge(&spec.end_to_end[0], &[10.0, 30.0, 20.0], &[20.0, 24.0]);
        assert_eq!((row.base, row.change), (20.0, 22.0));
    }

    #[test]
    fn each_direction_regresses_only_when_worse() {
        // A 40% drop in a higher-is-better metric, a 40% rise in a
        // lower-is-better one.
        let (v, table) = verdicts(&[(100.0, 10.0); 3], &[(60.0, 14.0); 3]);
        assert_eq!(v, [Verdict::Regressed, Verdict::Regressed]);
        assert!(table.contains("REGRESSED"), "{table}");
        assert!(table.contains("base attempted 300, failed 3"), "{table}");
        // The same distances the other way are improvements.
        let (v, _) = verdicts(&[(100.0, 10.0); 3], &[(140.0, 6.0); 3]);
        assert_eq!(v, [Verdict::Ok, Verdict::Ok]);
    }

    #[test]
    fn exactly_at_the_bound_passes_and_just_past_fails() {
        let (v, _) = verdicts(&[(100.0, 100.0); 3], &[(75.0, 125.0); 3]);
        assert_eq!(v, [Verdict::Ok, Verdict::Ok]);
        let (v, _) = verdicts(&[(100.0, 100.0); 3], &[(74.99, 125.01); 3]);
        assert_eq!(v, [Verdict::Regressed, Verdict::Regressed]);
    }

    #[test]
    fn a_base_spread_wider_than_the_bound_is_unresolved() {
        // Base rate IQR: (150 - 70) / 100 = 80% > 25%.
        let base = [(40.0, 10.0), (100.0, 10.0), (200.0, 10.0)];
        let (v, table) = verdicts(&base, &[(50.0, 10.0); 3]);
        assert_eq!(v, [Verdict::Unresolved, Verdict::Ok]);
        assert!(table.contains("UNRESOLVED"), "{table}");
        // Unless every change run reads better than every base run.
        let (v, _) = verdicts(&base, &[(250.0, 10.0); 3]);
        assert_eq!(v, [Verdict::Ok, Verdict::Ok]);
    }

    #[test]
    fn a_missing_workload_or_metric_is_an_error() {
        let spec = spec();
        let w = runs(&[(1.0, 1.0)], &[(1.0, 1.0)]);
        let only_w1 = BTreeMap::from([("w1".to_string(), w.clone())]);
        assert!(compare(&spec, &only_w1).unwrap_err().contains("w2"));
        for side in 0..2 {
            let mut one_sided = w.clone();
            one_sided[side].clear();
            let all = BTreeMap::from([("w1".into(), w.clone()), ("w2".into(), one_sided)]);
            assert!(compare(&spec, &all).unwrap_err().contains("w2: no runs"));
            let mut partial = w.clone();
            partial[side] = vec![result(&[("rate", 1.0)])];
            let all = BTreeMap::from([("w1".into(), w.clone()), ("w2".into(), partial)]);
            let err = compare(&spec, &all).unwrap_err();
            let expected = format!("w2: a {} run printed no latency", SIDES[side]);
            assert!(err.contains(&expected), "{err}");
        }
    }

    #[test]
    fn an_incorrect_or_malformed_result_line_fails() {
        let ok = line(&[("rate", 1.0)]);
        assert_eq!(parse_result(&ok).unwrap().attempted, 100);
        let wrong = ok.replace("\"correct\": true", "\"correct\": false");
        assert!(parse_result(&wrong).unwrap_err().contains("not correct"));
        assert!(parse_result("{\"env\": {}}").is_err());
        assert!(parse_result("").is_err());
    }

    #[test]
    fn reads_and_compares_the_env_checkpoint() {
        let with = r#"{"env": {"workload": "w1", "checkpoint": "checksum 0x1 sends 2"}}"#;
        let without = r#"{"env": {"workload": "w1", "seed": "1"}}"#;
        assert_eq!(
            env_checkpoint(with).as_deref(),
            Some("checksum 0x1 sends 2")
        );
        assert_eq!(env_checkpoint(without), None);
        assert_eq!(env_checkpoint(&line(&[("rate", 1.0)])), None);
        let (spec, mut w) = (spec(), runs(&[(1.0, 1.0); 2], &[(1.0, 1.0); 2]));
        let rows = compare(
            &spec,
            &BTreeMap::from([("w1".into(), w.clone()), ("w2".into(), w.clone())]),
        )
        .unwrap()
        .remove(0)
        .1;
        assert!(table("w1", &w, &rows).contains("checkpoint: none reported"));
        for run in w.iter_mut().flatten() {
            run.checkpoint = env_checkpoint(with);
        }
        let same = table("w1", &w, &rows);
        assert!(
            same.contains("checkpoint: the same in every run, checksum 0x1 sends 2"),
            "{same}"
        );
        w[1][1].checkpoint = None;
        let differs = table("w1", &w, &rows);
        let expected =
            "differs; base [Some(\"checksum 0x1 sends 2\"), Some(\"checksum 0x1 sends 2\")]; \
                        change [Some(\"checksum 0x1 sends 2\"), None]\n";
        assert!(differs.contains(expected), "{differs}");
    }

    #[test]
    fn layer_rows_are_sorted_by_relative_change() {
        let pair = [
            vec![result(&[("a_ns", 100.0), ("b_ns", 10.0), ("c_ratio", 0.5)])],
            vec![result(&[("a_ns", 110.0), ("b_ns", 25.0), ("c_ratio", 0.1)])],
        ];
        let spec = spec();
        let rows = layer_rows(&spec.per_layer, &pair).unwrap();
        let order: Vec<&str> = rows.iter().map(|r| r.0).collect();
        assert_eq!(order, ["b_ns", "c_ratio", "a_ns"]);
        assert_eq!(rows[0].3, 1.5);
        let missing = [
            vec![result(&[("a_ns", 1.0)])],
            vec![result(&[("a_ns", 1.0)])],
        ];
        assert!(layer_rows(&spec.per_layer, &missing).is_err());
    }
}
