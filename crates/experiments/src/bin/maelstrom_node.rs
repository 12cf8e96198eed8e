//! `maelstrom_node` — a real stdin/stdout Maelstrom node.
//!
//! Speaks the Maelstrom JSON line protocol (one document per line):
//! run it under the Maelstrom jar outside this container, e.g.
//!
//! ```sh
//! cargo build --release -p agb-experiments --bin maelstrom_node
//! maelstrom test -w broadcast --bin target/release/maelstrom_node \
//!   --node-count 25 --time-limit 20 --rate 10 --nemesis partition
//! ```
//!
//! Flags (all optional):
//!
//! * `--protocol lpbcast|adaptive|adaptive-recovery|routing` (default
//!   `adaptive-recovery`) — the gossip stack behind the adapter;
//! * `--workload broadcast|g-counter|unique-ids` (default `broadcast`)
//!   — decides the `read_ok` reply shape;
//! * `--seed N` (default 42) — protocol RNG streams;
//! * `--period-ms N` (default 250) — gossip round period; a background
//!   ticker thread feeds the adapter wall-clock `tick` messages, the
//!   only place time enters (the adapter itself is a pure state
//!   machine, identical to the one the deterministic harness drives).

use std::io::{BufRead, Write};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use agb_core::GossipConfig;
use agb_maelstrom::{Flavor, MaelstromNode, NodeConfig, WorkloadKind};
use agb_types::DurationMs;

enum Input {
    Line(String),
    Tick(u64),
    Eof,
}

fn main() {
    let mut flavor = Flavor::AdaptiveRecovery;
    let mut workload = WorkloadKind::Broadcast;
    let mut seed: u64 = 42;
    let mut period_ms: u64 = 250;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let (flag, value) = (args[i].as_str(), args.get(i + 1));
        let value = || {
            value.unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                std::process::exit(2);
            })
        };
        match flag {
            "--protocol" => {
                flavor = Flavor::parse(value()).unwrap_or_else(|| {
                    eprintln!("unknown protocol `{}`", value());
                    std::process::exit(2);
                });
            }
            "--workload" => {
                workload = WorkloadKind::parse(value()).unwrap_or_else(|| {
                    eprintln!("unknown workload `{}`", value());
                    std::process::exit(2);
                });
            }
            "--seed" => {
                seed = value().parse().unwrap_or_else(|_| {
                    eprintln!("bad seed `{}`", value());
                    std::process::exit(2);
                });
            }
            "--period-ms" => {
                period_ms = value().parse().unwrap_or_else(|_| {
                    eprintln!("bad period `{}`", value());
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown flag `{other}`");
                eprintln!(
                    "usage: maelstrom_node [--protocol lpbcast|adaptive|adaptive-recovery|routing] \
                     [--workload broadcast|g-counter|unique-ids] [--seed N] [--period-ms N]"
                );
                std::process::exit(2);
            }
        }
        i += 2;
    }

    let mut config = NodeConfig::new(flavor, workload, seed);
    config.gossip = GossipConfig {
        gossip_period: DurationMs::from_millis(period_ms.max(1)),
        ..GossipConfig::default()
    };
    let mut node = MaelstromNode::new(config);

    let (tx, rx) = mpsc::channel();

    // Stdin reader: one protocol line per message.
    let stdin_tx = tx.clone();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            match line {
                Ok(line) if !line.trim().is_empty() => {
                    if stdin_tx.send(Input::Line(line)).is_err() {
                        return;
                    }
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
        let _ = stdin_tx.send(Input::Eof);
    });

    // Wall-clock ticker: the only clock in the binary. Each pulse
    // becomes a line-protocol `tick` message, exactly as the
    // deterministic harness drives the same adapter in virtual time.
    let start = Instant::now();
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(period_ms.max(1)));
        if tx
            .send(Input::Tick(start.elapsed().as_millis() as u64))
            .is_err()
        {
            return;
        }
    });

    let stdout = std::io::stdout();
    for input in rx {
        let out = match input {
            Input::Line(line) => match node.handle_line(&line) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("maelstrom_node: dropped line: {e}");
                    continue;
                }
            },
            Input::Tick(now) => node.tick(now).iter().map(|m| m.to_line()).collect(),
            Input::Eof => break,
        };
        if out.is_empty() {
            continue;
        }
        let mut lock = stdout.lock();
        for line in out {
            if writeln!(lock, "{line}").is_err() {
                return;
            }
        }
        let _ = lock.flush();
    }
}
