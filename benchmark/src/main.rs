//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <sim-n10k|sim-recovery-lossy|udp-loopback> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints an `env` line, then one JSON result line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! A failed correctness check prints the reason on stderr and exits 1
//! without a result. See `README.md` beside this file for what each
//! metric measures and which layer should move it.

mod layers;
mod process;
mod replay;
mod report;
mod sim;
mod udp;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: agb_perf::alloc::CountingAllocator = agb_perf::alloc::CountingAllocator;

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["sim-n10k", "sim-recovery-lossy", "udp-loopback"];

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value}"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn run(args: &Args) -> Result<report::Report, String> {
    let mut report = match args.workload.as_str() {
        "sim-n10k" => sim::run(sim::SimSpec::n10k(), args.seed, args.seconds, args.trace)?,
        "sim-recovery-lossy" => sim::run(
            sim::SimSpec::recovery_lossy(),
            args.seed,
            args.seconds,
            args.trace,
        )?,
        _ => udp::run(args.seed, args.seconds, args.trace, udp::MIN_MESSAGES)?,
    };
    report.env("workload", &args.workload);
    report.env("seed", args.seed);
    report.env("nproc", process::nproc());
    report.env("trace", args.trace);
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let line = run(&args).and_then(|r| Ok((r.env_line(), r.result_line(args.trace)?)));
    match line {
        Ok((env, result)) => {
            println!("{env}");
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("check failed: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload udp-loopback --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "udp-loopback");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload sim-n10k --seed 1 --trace 0")).is_err());
    }

    /// The UDP workload is already tiny (8 nodes); a one-second window
    /// holds far fewer than the real run's minimum message count.
    #[test]
    fn smoke_udp_loopback() {
        for trace in [false, true] {
            let report = udp::run(3, 1.0, trace, 20).unwrap_or_else(|e| panic!("{e}"));
            report.result_line(trace).expect("every metric measured");
        }
    }
}
