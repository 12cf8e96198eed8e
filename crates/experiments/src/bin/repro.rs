//! Command-line reproduction driver: `repro <experiment> [seed]`.
//!
//! Experiments: `fig2`, `fig4`, `fig6`, `fig7`, `fig8`, `fig9`,
//! `fig9-runtime`, `ablation`, `recovery`, `perf`, the committed reports
//! `churn`, `maelstrom`, `trace`, `telemetry`, `topology`, `resilience`
//! and `profile`, and `all`; plus `verify`, which replays every committed
//! report, and the CI benchmark gate
//! `perf-check <base-benchmark-bin> <change-benchmark-bin>`.
//! Set `AGB_QUICK=1` for short runs (`AGB_QUICK=0` explicitly disables).
//! Malformed arguments print the usage and exit 2.

use std::path::Path;
use std::process::{exit, Command};
use std::time::Instant;

use agb_experiments::churn::ChurnReport;
use agb_experiments::profile::ProfileReport;
use agb_experiments::report::{compare_json, first_difference, Report, WallClock};
use agb_experiments::resilience::ResilienceReport;
use agb_experiments::telemetry::TelemetryReport;
use agb_experiments::topology::TopologyReport;
use agb_experiments::trace::TraceReport;
use agb_experiments::{ablation, fig2, fig4, fig6, fig7, fig8, fig9, recovery};
use agb_maelstrom::MaelstromSummary;

// The perf harness reports allocations-per-round; the counting
// allocator is opt-in per binary (see agb_perf::alloc).
#[global_allocator]
static ALLOC: agb_perf::alloc::CountingAllocator = agb_perf::alloc::CountingAllocator;

/// One committed report, erased to what dispatch and `verify` need.
struct Entry {
    name: &'static str,
    file: &'static str,
    wall_clock: WallClock,
    repro: fn(u64),
}

const fn entry<R: Report>() -> Entry {
    Entry {
        name: R::NAME,
        file: R::FILE,
        wall_clock: R::WALL_CLOCK,
        repro: repro::<R>,
    }
}

/// Every report with a committed seed-42 file, in `all` order.
const REPORTS: [Entry; 7] = [
    entry::<ChurnReport>(),
    entry::<MaelstromSummary>(),
    entry::<TraceReport>(),
    entry::<TelemetryReport>(),
    entry::<TopologyReport>(),
    entry::<ResilienceReport>(),
    entry::<ProfileReport>(),
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let what = args.get(1).map(String::as_str).unwrap_or("all");
    match what {
        "perf-check" => return run_perf_check(&args[2..]),
        "verify" if args.len() > 2 => usage("`repro verify` takes no arguments"),
        "verify" => return verify(),
        _ if args.len() > 3 => usage("too many arguments"),
        _ => {}
    }
    let seed: u64 = match args.get(2) {
        None => 42,
        Some(s) => s
            .parse()
            .unwrap_or_else(|_| usage(&format!("invalid seed `{s}`"))),
    };
    if let Some(report) = REPORTS.iter().find(|r| r.name == what) {
        return (report.repro)(seed);
    }
    match what {
        "fig2" => run_fig2(seed),
        "fig4" => {
            run_fig4(seed);
        }
        "fig6" => run_fig6(seed),
        "fig7" => run_fig7(seed),
        "fig8" => run_fig8(seed),
        "fig9" => run_fig9(seed),
        "fig9-runtime" => run_fig9_runtime(seed),
        "ablation" => run_ablation(seed),
        "recovery" => run_recovery(seed),
        "perf" => run_perf(seed),
        "all" => {
            run_fig2(seed);
            let calibration = run_fig4(seed);
            let rows = fig7::run(seed);
            print!("{}", fig6::table(&fig6::rows(&calibration, &rows)));
            print!("{}", fig7::table_input(&rows));
            print!("{}", fig7::table_output(&rows));
            print!("{}", fig7::table_drop_age(&rows));
            print!("{}", fig8::table_avg_receivers(&rows));
            print!("{}", fig8::table_atomicity(&rows));
            run_fig9(seed);
            run_ablation(seed);
            run_recovery(seed);
            for report in &REPORTS {
                (report.repro)(seed);
            }
        }
        other => usage(&format!("unknown experiment `{other}`")),
    }
}

/// Prints `problem` and the usage, and exits 2.
fn usage(problem: &str) -> ! {
    eprintln!("repro: {problem}");
    eprintln!("usage: repro [fig2|fig4|fig6|fig7|fig8|fig9|fig9-runtime|ablation|recovery|churn|maelstrom|trace|telemetry|topology|resilience|profile|perf|all] [seed]");
    eprintln!("       repro verify");
    eprintln!("       repro perf-check <base-benchmark-bin> <change-benchmark-bin>");
    exit(2);
}

/// `repro <name> [seed]` for a committed report: prints its tables and
/// failure lines, writes its JSON into the working directory, prints its
/// digest, and exits 1 when a claim failed.
fn repro<R: Report>(seed: u64) {
    let report = R::run(seed).unwrap_or_else(|e| {
        eprintln!("{} failed: {e}", R::NAME);
        exit(1);
    });
    for table in report.tables() {
        print!("{table}");
    }
    let failures = report.failures();
    for failure in &failures {
        println!("  FAILED {failure}");
    }
    if let Err(e) = std::fs::write(R::FILE, report.to_json().pretty()) {
        eprintln!("cannot write {}: {e}", R::FILE);
        exit(1);
    }
    println!("  {} report written to {}", R::NAME, R::FILE);
    println!("  {} digest: {:#018x}", R::NAME, report.digest());
    if !failures.is_empty() {
        exit(1);
    }
}

/// `AGB_THREADS` of each `verify` replay, and its directory.
const REPLAYS: [(&str, &str); 4] = [("1", "k1"), ("1", "k1-again"), ("2", "k2"), ("4", "k4")];

/// `repro verify`: replays every committed report at seed 42 in quick
/// mode, once per [`REPLAYS`] entry, each in a fresh directory under
/// `target/verify/`, and prints one PASS or FAIL row per report. Run it
/// from the repo root, where the committed files are. Exits 1 when any
/// report fails.
fn verify() {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("verify: cannot locate the repro binary: {e}");
        exit(1);
    });
    println!(
        "# repro verify: seed 42, AGB_QUICK=1, AGB_THREADS 1, 1, 2, 4, runs under target/verify/"
    );
    let mut failed = false;
    for report in &REPORTS {
        let started = Instant::now();
        match replay(report, &exe) {
            Ok(digest) => println!(
                "  {:<10}  PASS  {digest}  {:.1} s",
                report.name,
                started.elapsed().as_secs_f64()
            ),
            Err(why) => {
                println!("  {:<10}  FAIL  {why}", report.name);
                failed = true;
            }
        }
    }
    if failed {
        exit(1);
    }
}

/// Replays one report and returns its digest. It fails unless every run
/// exits 0, prints the same digest line and writes the same JSON outside
/// the wall-clock keys; reports without wall-clock tables must also
/// print the same output; and the JSON must equal the committed file.
fn replay(report: &Entry, exe: &Path) -> Result<String, String> {
    let root = Path::new("target/verify").join(report.name);
    let _ = std::fs::remove_dir_all(&root);
    let digest_prefix = format!("{} digest: ", report.name);
    let mut first: Option<(std::path::PathBuf, String, String)> = None;
    let mut json = String::new();
    for (threads, dir) in REPLAYS {
        let dir = root.join(dir);
        let run = format!("the AGB_THREADS={threads} run in {}", dir.display());
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let out = Command::new(exe)
            .args([report.name, "42"])
            .current_dir(&dir)
            .env("AGB_QUICK", "1")
            .env("AGB_THREADS", threads)
            .output()
            .map_err(|e| format!("cannot start {run}: {e}"))?;
        let _ = std::fs::write(dir.join("stdout.txt"), &out.stdout);
        let _ = std::fs::write(dir.join("stderr.txt"), &out.stderr);
        if !out.status.success() {
            return Err(format!("{run} exited with {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let digest = stdout
            .lines()
            .find_map(|l| l.trim_start().strip_prefix(digest_prefix.as_str()))
            .ok_or_else(|| format!("{run} printed no digest"))?
            .to_string();
        let json_path = dir.join(report.file);
        json = std::fs::read_to_string(&json_path)
            .map_err(|e| format!("{run} wrote no {}: {e}", report.file))?;
        let Some((first_json, first_stdout, first_digest)) = &first else {
            first = Some((json_path, stdout, digest));
            continue;
        };
        if digest != *first_digest {
            return Err(format!(
                "{run} printed digest {digest}, the first run {first_digest}"
            ));
        }
        compare_json(&json, first_json, report.wall_clock.json_keys)
            .map_err(|e| format!("{run} wrote other JSON than the first run: {e}"))?;
        if let Some(diff) =
            first_difference(&stdout, first_stdout).filter(|_| !report.wall_clock.tables)
        {
            return Err(format!(
                "{run} printed other output than the first run: {diff}"
            ));
        }
    }
    compare_json(&json, Path::new(report.file), report.wall_clock.json_keys)
        .map_err(|e| format!("the replay differs from the committed {}: {e}", report.file))?;
    Ok(first.expect("replays ran").2)
}

/// `repro perf [seed]`: the scale sweep, written to `target/perf.json`.
fn run_perf(seed: u64) {
    let report = agb_perf::PerfReport::run(seed);
    let out_path = Path::new("target/perf.json");
    let written = std::fs::create_dir_all("target")
        .and_then(|()| std::fs::write(out_path, report.to_json().pretty()));
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", out_path.display());
        exit(1);
    }
    print!("{}", report.human_summary());
    println!("  bench JSON written to {}", out_path.display());
}

/// `repro perf-check <base-bin> <change-bin>`: the benchmark gate (see
/// `agb_perf::compare`), reading `BENCHMARK.json` from the working
/// directory. Exits 1 on a regression or a failed run.
fn run_perf_check(args: &[String]) {
    let [base, change] = args else {
        usage("perf-check takes <base-benchmark-bin> <change-benchmark-bin>");
    };
    for bin in [base, change] {
        if !Path::new(bin).is_file() {
            usage(&format!("no benchmark binary at `{bin}`"));
        }
    }
    let gate = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repo root): {e}"))
        .and_then(|text| agb_perf::compare::run_gate(&text, base.as_ref(), change.as_ref()));
    match gate {
        Ok(true) => {}
        Ok(false) => exit(1),
        Err(e) => {
            eprintln!("perf-check: {e}");
            exit(1);
        }
    }
}

fn run_fig2(seed: u64) {
    let rows = fig2::run(seed);
    print!("{}", fig2::table(&rows));
}

/// Runs and prints Figure 4, and returns its calibration for Figure 6.
fn run_fig4(seed: u64) -> fig4::Fig4Result {
    let result = fig4::run(seed);
    print!("{}", fig4::table(&result));
    println!("  {}", fig4::summary(&result));
    result
}

/// Figure 6 is built from Figure 4's calibration and Figure 7's rows.
fn run_fig6(seed: u64) {
    let rows = fig6::rows(&fig4::run(seed), &fig7::run(seed));
    print!("{}", fig6::table(&rows));
}

fn run_fig7(seed: u64) {
    let rows = fig7::run(seed);
    print!("{}", fig7::table_input(&rows));
    print!("{}", fig7::table_output(&rows));
    print!("{}", fig7::table_drop_age(&rows));
}

fn run_fig8(seed: u64) {
    let rows = fig7::run(seed);
    print!("{}", fig8::table_avg_receivers(&rows));
    print!("{}", fig8::table_atomicity(&rows));
}

fn run_fig9(seed: u64) {
    let config = fig9::Fig9Config::standard(seed);
    let result = fig9::run_sim(&config);
    print!("{}", fig9::table(&config, &result));
    println!(
        "  final phase (buffer {}): adaptive atomicity {:.1}% vs lpbcast {:.1}% (paper: 87% sim / 92% impl vs collapse)",
        config.grow_to,
        result.final_phase_atomicity * 100.0,
        result.final_phase_atomicity_lpbcast * 100.0
    );
}

fn run_fig9_runtime(seed: u64) {
    let config = fig9::Fig9Config::standard(seed);
    match fig9::run_runtime(&config) {
        Ok(r) => println!(
            "Figure 9 runtime leg (UDP, time /{}): final-phase atomicity {:.1}% over {} messages",
            config.runtime_time_scale,
            r.final_phase_atomicity * 100.0,
            r.messages
        ),
        Err(e) => eprintln!("runtime leg failed: {e}"),
    }
}

fn run_ablation(seed: u64) {
    let rows = ablation::run(seed);
    print!("{}", ablation::table(&rows));
    let rows = ablation::flow_control_comparison(seed);
    print!("{}", ablation::flow_control_table(&rows));
}

fn run_recovery(seed: u64) {
    let rows = recovery::run(seed);
    print!("{}", recovery::table(&rows));
}
