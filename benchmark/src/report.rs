//! The metric vocabulary, the result line, and the small statistics the
//! workloads share.

use std::collections::BTreeMap;

/// One named metric with its unit (the `BENCHMARK.json` entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Printed by every untraced run (`--trace 0`), on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("node_rounds_per_s", "1/s", "higher"),
    m("bytes_per_node", "B", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
    m("delivered_per_s", "1/s", "higher"),
    m("latency_ms_p50", "ms", "lower"),
    m("latency_ms_p99", "ms", "lower"),
    m("cpu_ms_per_1k_deliveries", "ms", "lower"),
    m("wire_bytes_per_delivery", "B", "lower"),
    m("delivery_ratio", "ratio", "higher"),
    m("atomic_ratio", "ratio", "higher"),
    m("offer_refused_ratio", "ratio", "lower"),
];

/// Printed by every traced run (`--trace 1`), on every workload; a layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // agb-sim engine phases, per node-round, from the profiler's timers.
    m("sim.batch_lift_ns", "ns", "lower"),
    m("sim.shard_exec_ns", "ns", "lower"),
    m("sim.merge_ns", "ns", "lower"),
    m("sim.route_ns", "ns", "lower"),
    m("sim.control_ns", "ns", "lower"),
    m("sim.phase_coverage_ratio", "ratio", "higher"),
    m("sim.shard_balance_ratio", "ratio", "lower"),
    m("sim.events_per_node_round", "count", "lower"),
    m("sim.peak_queue_depth", "count", "lower"),
    // Whole process, from the counting allocator.
    m("alloc.per_node_round", "count", "lower"),
    m("alloc.per_delivery", "count", "lower"),
    // Protocol step, from the replay leg.
    m("protocol.on_round_ns", "ns", "lower"),
    m("protocol.on_receive_ns", "ns", "lower"),
    m("protocol.offer_ns", "ns", "lower"),
    m("protocol.frames_per_node_round", "count", "lower"),
    m("protocol.events_per_frame", "count", "lower"),
    m("protocol.duplicate_ratio", "ratio", "lower"),
    // agb-membership.
    m("membership.sample_ns", "ns", "lower"),
    m("membership.bytes_per_node", "B", "lower"),
    // agb-core event buffer and id history.
    m("buffer.insert_ns", "ns", "lower"),
    m("buffer.purge_ns", "ns", "lower"),
    m("buffer.snapshot_ns", "ns", "lower"),
    m("ids.contains_ns", "ns", "lower"),
    m("buffer.bytes_per_node", "B", "lower"),
    // agb-core adaptation.
    m("adapt.minbuff_ns", "ns", "lower"),
    m("adapt.congestion_scan_ns", "ns", "lower"),
    m("adapt.token_bucket_ns", "ns", "lower"),
    m("adapt.allowed_rate", "1/s", "higher"),
    // agb-recovery.
    m("recovery.cache_insert_ns", "ns", "lower"),
    m("recovery.cache_round_ns", "ns", "lower"),
    m("recovery.missing_note_ns", "ns", "lower"),
    m("recovery.bytes_per_node", "B", "lower"),
    m("recovery.requested_per_node_round", "count", "lower"),
    m("recovery.recovered_ratio", "ratio", "higher"),
    m("recovery.abandoned", "count", "lower"),
    // agb-runtime wire codec, on frames captured by the replay leg.
    m("wire.encode_ns", "ns", "lower"),
    m("wire.decode_ns", "ns", "lower"),
    m("wire.bytes_per_frame", "B", "lower"),
    m("wire.allocs_per_frame", "count", "lower"),
    // agb-runtime transport, egress queues and node loop (udp only).
    m("transport.datagrams_per_delivery", "count", "lower"),
    m("transport.send_errors", "count", "lower"),
    m("transport.decode_errors", "count", "lower"),
    m("egress.sheds", "count", "lower"),
    m("egress.dwell_us_p50", "us", "lower"),
    m("node.loop_iter_us_p50", "us", "lower"),
    m("node.gossip_frames_per_delivery", "count", "lower"),
    m("node.graft_frames_per_delivery", "count", "lower"),
    m("node.retransmit_frames_per_delivery", "count", "lower"),
    // The traced run's cost over an untraced run in the same process:
    // untraced / traced node_rounds_per_s (sim), traced / untraced
    // cpu_ms_per_1k_deliveries (udp). Above 1, tracing slowed the run.
    m("trace.overhead_ratio", "ratio", "lower"),
];

/// Everything one run measured, plus the environment it ran in.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured window (sender offers).
    pub attempted: u64,
    /// Operations that failed: admitted broadcasts no other node
    /// delivered.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    env: Vec<(&'static str, String)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Sets every per-layer metric under one of `prefixes` to 0: the
    /// layers a workload does not exercise.
    pub fn zero_layers(&mut self, prefixes: &[&str]) {
        for d in PER_LAYER {
            if prefixes.iter().any(|p| d.name.starts_with(p)) {
                self.set(d.name, 0.0);
            }
        }
    }

    /// Records one environment fact for the `env` line.
    pub fn env(&mut self, key: &'static str, value: impl ToString) {
        self.env.push((key, value.to_string()));
    }

    /// The environment line: a JSON object of strings, printed before
    /// the result so cross-machine comparisons are visible.
    pub fn env_line(&self) -> String {
        let fields: Vec<String> = self
            .env
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
            .collect();
        format!("{{\"env\": {{{}}}}}", fields.join(", "))
    }

    /// The result line. Fails if a metric of the selected set is missing
    /// or not a finite number.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let defs = if trace { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(defs.len());
        for d in defs {
            let v = self
                .get(d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite: {v}", d.name));
            }
            fields.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(d.name),
                number(v),
                quote(d.unit)
            ));
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Shortest round-trip rendering, always with a fractional part so a
/// whole value still reads as a float.
fn number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A smoothed `q`-quantile: the mean of the order statistics whose rank
/// lies within half a percentile of `q`. Latencies are whole
/// milliseconds, so a single order statistic would repeat exactly across
/// runs; the band average keeps the estimate continuous while staying
/// anchored at `q`.
pub fn band_quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let last = v.len() - 1;
    let lo = (((q - 0.005) * n).floor().max(0.0) as usize).min(last);
    let hi = (((q + 0.005) * n).ceil() as usize).clamp(lo + 1, v.len());
    v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_metric_is_printed_with_its_unit() {
        let mut r = Report::default();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            r.set(d.name, 1.5);
        }
        for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let line = r.result_line(trace).unwrap();
            let json = agb_types::json::Json::parse(&line).expect("result line is JSON");
            let metrics = json.get("metrics").and_then(|m| m.as_obj()).unwrap();
            assert_eq!(metrics.len(), defs.len());
            for d in defs {
                let entry = &metrics[d.name];
                assert_eq!(entry.get("unit").and_then(|u| u.as_str()), Some(d.unit));
                assert_eq!(entry.get("value").and_then(|v| v.as_f64()), Some(1.5));
            }
        }
    }

    #[test]
    fn a_missing_metric_fails_the_line() {
        let r = Report::default();
        assert!(r.result_line(false).is_err());
    }

    #[test]
    fn metric_table_matches_benchmark_json() {
        let text = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let json = agb_types::json::Json::parse(text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = json.get(key).and_then(|v| v.as_arr()).unwrap();
            let names: Vec<(&str, &str, &str)> = listed
                .iter()
                .map(|e| {
                    let s = |k| e.get(k).and_then(|v| v.as_str()).unwrap();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let ours: Vec<(&str, &str, &str)> =
                defs.iter().map(|d| (d.name, d.unit, d.better)).collect();
            assert_eq!(names, ours, "{key} differs from the benchmark's table");
        }
    }

    #[test]
    fn band_quantile_is_anchored_and_smooth() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p50 = band_quantile(&v, 0.5);
        assert!((495.0..=506.0).contains(&p50), "{p50}");
        let p99 = band_quantile(&v, 0.99);
        assert!((985.0..=996.0).contains(&p99), "{p99}");
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
