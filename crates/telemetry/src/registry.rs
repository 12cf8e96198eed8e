//! The metric registry and its Prometheus-text renderer.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::histogram::WallHistogram;
use crate::metric::{Counter, Gauge};
use crate::text::Snapshot;

/// One registered time series.
struct Entry {
    name: &'static str,
    help: &'static str,
    /// Sorted by key at registration, so identity and rendering order
    /// are label-order-independent.
    labels: Vec<(&'static str, String)>,
    metric: Metric,
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(WallHistogram),
}

/// A named, labeled collection of lock-free metrics.
///
/// Registration (the cold path) takes a mutex and returns a cloned
/// handle; recording through the handle is purely atomic. Registering
/// the same `(name, labels)` again returns the existing series, so
/// restarted components keep accumulating into the same counters.
///
/// [`render`](Registry::render) produces Prometheus text exposition
/// (format 0.0.4) with deterministic ordering: series sort by name then
/// label values, so two registries fed identically render identically —
/// the property the reproducible-subset CI check builds on.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.entries.lock().map(|e| e.len()).unwrap_or(0);
        write!(f, "Registry({n} series)")
    }
}

fn sorted_labels(labels: &[(&'static str, &str)]) -> Vec<(&'static str, String)> {
    let mut out: Vec<(&'static str, String)> =
        labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
    out.sort();
    out
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Entry>> {
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn get_or_insert(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> &'static str {
        let labels = sorted_labels(labels);
        let mut entries = self.lock();
        if !entries.iter().any(|e| e.name == name && e.labels == labels) {
            entries.push(Entry {
                name,
                help,
                labels,
                metric: make(),
            });
        }
        name
    }

    /// Registers (or finds) a counter series and returns its handle.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Counter {
        self.get_or_insert(name, help, labels, || Metric::Counter(Counter::new()));
        let labels = sorted_labels(labels);
        let entries = self.lock();
        let e = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
            .expect("just inserted");
        match &e.metric {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Registers (or finds) a gauge series and returns its handle.
    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Gauge {
        self.get_or_insert(name, help, labels, || Metric::Gauge(Gauge::new()));
        let labels = sorted_labels(labels);
        let entries = self.lock();
        let e = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
            .expect("just inserted");
        match &e.metric {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Registers (or finds) a histogram series over `bounds` and returns
    /// its handle.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        bounds: &[f64],
    ) -> WallHistogram {
        self.get_or_insert(name, help, labels, || {
            Metric::Histogram(WallHistogram::new(bounds))
        });
        let labels = sorted_labels(labels);
        let entries = self.lock();
        let e = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
            .expect("just inserted");
        match &e.metric {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Renders the whole registry as Prometheus text exposition
    /// (format 0.0.4): `# HELP` / `# TYPE` per metric name, one line per
    /// series, histograms as cumulative `_bucket{le=…}` plus `_sum` and
    /// `_count`. Metric names and series sort deterministically.
    pub fn render(&self) -> String {
        let entries = self.lock();
        // name -> (help, type, rendered series lines), names sorted.
        let mut families: BTreeMap<&'static str, (&'static str, &'static str, Vec<String>)> =
            BTreeMap::new();
        let mut sorted: Vec<&Entry> = entries.iter().collect();
        sorted.sort_by(|a, b| (a.name, &a.labels).cmp(&(b.name, &b.labels)));
        for e in sorted {
            let family = families.entry(e.name).or_insert_with(|| {
                let kind = match e.metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "histogram",
                };
                (e.help, kind, Vec::new())
            });
            match &e.metric {
                Metric::Counter(c) => {
                    family.2.push(format!(
                        "{}{} {}",
                        e.name,
                        label_set(&e.labels, None),
                        c.get()
                    ));
                }
                Metric::Gauge(g) => {
                    family.2.push(format!(
                        "{}{} {}",
                        e.name,
                        label_set(&e.labels, None),
                        g.get()
                    ));
                }
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    let mut cumulative = 0u64;
                    for (idx, &c) in s.counts().iter().enumerate() {
                        cumulative += c;
                        let le = if idx < s.bounds().len() {
                            format_value(s.bounds()[idx])
                        } else {
                            "+Inf".to_string()
                        };
                        family.2.push(format!(
                            "{}_bucket{} {}",
                            e.name,
                            label_set(&e.labels, Some(&le)),
                            cumulative
                        ));
                    }
                    family.2.push(format!(
                        "{}_sum{} {}",
                        e.name,
                        label_set(&e.labels, None),
                        format_value(s.sum())
                    ));
                    family.2.push(format!(
                        "{}_count{} {}",
                        e.name,
                        label_set(&e.labels, None),
                        s.count()
                    ));
                }
            }
        }
        let mut out = String::new();
        for (name, (help, kind, lines)) in families {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
            for line in lines {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }

    /// A typed [`Snapshot`] of the registry — the same structure
    /// [`parse_text`](crate::parse_text) recovers from rendered text, so
    /// in-process readers skip the text round trip.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.lock();
        let mut snap = Snapshot::default();
        for e in entries.iter() {
            let key = (
                e.name.to_string(),
                e.labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            );
            match &e.metric {
                Metric::Counter(c) => {
                    *snap.counters.entry(key).or_insert(0) += c.get();
                }
                Metric::Gauge(g) => {
                    *snap.gauges.entry(key).or_insert(0) += g.get();
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(key, h.snapshot());
                }
            }
        }
        snap
    }
}

/// Renders a label set `{k="v",…}` (empty string when no labels), with
/// an optional `le` bucket label appended.
fn label_set(labels: &[(&'static str, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Formats an f64 the way the parser reads it back: integral values
/// without a fraction, everything else in shortest round-trip form.
pub(crate) fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_and_labels_share_one_series() {
        let r = Registry::new();
        let a = r.counter("x_total", "x", &[("node", "1")]);
        let b = r.counter("x_total", "x", &[("node", "1")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(r.render().matches("x_total{").count(), 1);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let r = Registry::new();
        let a = r.counter("x_total", "x", &[("kind", "gossip"), ("node", "1")]);
        let b = r.counter("x_total", "x", &[("node", "1"), ("kind", "gossip")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_conflict_panics() {
        let r = Registry::new();
        let _ = r.counter("x_total", "x", &[]);
        let _ = r.gauge("x_total", "x", &[]);
    }

    #[test]
    fn render_is_deterministic_and_prometheus_shaped() {
        let build = || {
            let r = Registry::new();
            r.counter("b_total", "b", &[("node", "2")]).add(7);
            r.counter("b_total", "b", &[("node", "10")]).add(3);
            r.gauge("a_gauge", "a", &[]).set(-4);
            let h = r.histogram("lat_seconds", "lat", &[("node", "2")], &[0.5, 1.0]);
            h.observe(0.25);
            h.observe(2.0);
            r
        };
        let text = build().render();
        assert_eq!(text, build().render(), "deterministic");
        assert!(text.contains("# TYPE b_total counter"));
        assert!(text.contains("# TYPE a_gauge gauge"));
        assert!(text.contains("# TYPE lat_seconds histogram"));
        assert!(text.contains("a_gauge -4"));
        // Series sorted by label value: "10" < "2" lexicographically.
        let p10 = text.find("b_total{node=\"10\"} 3").unwrap();
        let p2 = text.find("b_total{node=\"2\"} 7").unwrap();
        assert!(p10 < p2);
        // Cumulative buckets + +Inf + sum + count.
        assert!(text.contains("lat_seconds_bucket{node=\"2\",le=\"0.5\"} 1"));
        assert!(text.contains("lat_seconds_bucket{node=\"2\",le=\"1\"} 1"));
        assert!(text.contains("lat_seconds_bucket{node=\"2\",le=\"+Inf\"} 2"));
        assert!(text.contains("lat_seconds_sum{node=\"2\"} 2.25"));
        assert!(text.contains("lat_seconds_count{node=\"2\"} 2"));
    }

    #[test]
    fn escaped_label_values_render_safely() {
        let r = Registry::new();
        r.counter("x_total", "x", &[("path", "a\"b\\c\nd")]).inc();
        let text = r.render();
        assert!(text.contains("path=\"a\\\"b\\\\c\\nd\""));
    }
}
