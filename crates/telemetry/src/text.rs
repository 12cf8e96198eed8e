//! The scraper side: parse Prometheus exposition text back into typed
//! series and merge per-node snapshots into cluster-wide aggregates.

use std::collections::BTreeMap;

use agb_types::Histogram;

/// Identity of one series: metric name plus sorted `(key, value)` label
/// pairs (the `le` bucket label never appears here — it is structure,
/// not identity).
pub type SeriesId = (String, Vec<(String, String)>);

/// A typed, owned snapshot of scraped (or local) metrics.
///
/// Keys are [`SeriesId`]s; histograms carry full per-bucket counts, so
/// snapshots from different nodes [`merge`](Snapshot::merge) exactly —
/// the cluster-wide latency distribution is the bucket-wise sum of the
/// per-node scrapes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter series.
    pub counters: BTreeMap<SeriesId, u64>,
    /// Gauge series.
    pub gauges: BTreeMap<SeriesId, i64>,
    /// Histogram series.
    pub histograms: BTreeMap<SeriesId, Histogram>,
}

impl Snapshot {
    /// Folds `other` into `self`: counters and gauges add, histograms
    /// merge bucket-wise. Returns `false` if any histogram pair had
    /// mismatched bounds (everything else still merges).
    pub fn merge(&mut self, other: &Snapshot) -> bool {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        let mut ok = true;
        for (k, v) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => ok &= mine.merge(v),
                None => {
                    self.histograms.insert(k.clone(), v.clone());
                }
            }
        }
        ok
    }

    /// Sums a counter across every series with this name, regardless of
    /// labels (e.g. total messages sent over all nodes and kinds).
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((n, _), _)| n == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// The value of a counter series matching `name` and exactly these
    /// labels (order-insensitive), if present.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters.get(&series_id(name, labels)).copied()
    }

    /// The value of a gauge series matching `name` and exactly these
    /// labels (order-insensitive), if present.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        self.gauges.get(&series_id(name, labels)).copied()
    }

    /// Merges every histogram series with this name (across all label
    /// sets) into one distribution, or `None` if there is none or the
    /// bounds disagree.
    pub fn histogram_merged(&self, name: &str) -> Option<Histogram> {
        let mut merged: Option<Histogram> = None;
        for ((n, _), h) in &self.histograms {
            if n != name {
                continue;
            }
            match &mut merged {
                None => merged = Some(h.clone()),
                Some(m) => {
                    if !m.merge(h) {
                        return None;
                    }
                }
            }
        }
        merged
    }
}

/// Builds the canonical [`SeriesId`] for a name and label set.
pub(crate) fn series_id(name: &str, labels: &[(&str, &str)]) -> SeriesId {
    let mut ls: Vec<(String, String)> = labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    ls.sort();
    (name.to_string(), ls)
}

/// Parses Prometheus text exposition (format 0.0.4) back into a typed
/// [`Snapshot`] — the inverse of [`Registry::render`](crate::Registry::render).
///
/// Histogram `_bucket` series are regrouped by their base name, the
/// cumulative `le` counts are differenced back into per-bucket counts,
/// and `_sum`/`_count` are attached. Unparseable lines are skipped (a
/// scrape torn mid-line should degrade, not panic).
pub fn parse_text(text: &str) -> Snapshot {
    let mut snap = Snapshot::default();
    // Histogram assembly: base id -> (le -> cumulative, sum, count).
    type Accum = (BTreeMap<String, u64>, f64, u64);
    let mut hist: BTreeMap<SeriesId, Accum> = BTreeMap::new();
    let mut types: BTreeMap<String, String> = BTreeMap::new();

    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            if let (Some(name), Some(kind)) = (it.next(), it.next()) {
                types.insert(name.to_string(), kind.to_string());
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let Some((name, labels, value)) = parse_sample(line) else {
            continue;
        };

        // Histogram component lines: name ends in _bucket/_sum/_count and
        // the base name is typed histogram.
        let hist_part = ["_bucket", "_sum", "_count"].iter().find_map(|suffix| {
            let base = name.strip_suffix(suffix)?;
            (types.get(base).map(String::as_str) == Some("histogram"))
                .then(|| (base.to_string(), *suffix))
        });
        if let Some((base, suffix)) = hist_part {
            let mut le = None;
            let base_labels: Vec<(String, String)> = labels
                .into_iter()
                .filter(|(k, v)| {
                    if k == "le" {
                        le = Some(v.clone());
                        false
                    } else {
                        true
                    }
                })
                .collect();
            let entry = hist
                .entry((base, base_labels))
                .or_insert_with(|| (BTreeMap::new(), 0.0, 0));
            match suffix {
                "_bucket" => {
                    if let Some(le) = le {
                        entry.0.insert(le, value as u64);
                    }
                }
                "_sum" => entry.1 = value,
                _ => entry.2 = value as u64,
            }
            continue;
        }

        let id = (name.clone(), labels);
        match types.get(&name).map(String::as_str) {
            Some("gauge") => {
                snap.gauges.insert(id, value as i64);
            }
            _ => {
                // Counters, and untyped lines treated as counters.
                snap.counters.insert(id, value as u64);
            }
        }
    }

    for (id, (les, sum, count)) in hist {
        // Sort bucket bounds numerically (+Inf last), then difference
        // the cumulative counts back into per-bucket counts.
        let mut finite: Vec<(f64, u64)> = Vec::new();
        let mut inf: Option<u64> = None;
        for (le, cum) in les {
            if le == "+Inf" {
                inf = Some(cum);
            } else if let Ok(b) = le.parse::<f64>() {
                finite.push((b, cum));
            }
        }
        finite.sort_by(|a, b| a.0.total_cmp(&b.0));
        let bounds: Vec<f64> = finite.iter().map(|&(b, _)| b).collect();
        let mut counts = Vec::with_capacity(bounds.len() + 1);
        let mut prev = 0u64;
        for &(_, cum) in &finite {
            counts.push(cum.saturating_sub(prev));
            prev = cum;
        }
        counts.push(inf.unwrap_or(count).saturating_sub(prev));
        // A malformed bucket set (two `le` labels for one bound) is skipped.
        if let Some(h) = Histogram::from_counts(bounds, counts, count, sum) {
            snap.histograms.insert(id, h);
        }
    }
    snap
}

/// A parsed sample line: metric name, sorted labels, value.
type Sample = (String, Vec<(String, String)>, f64);

/// Parses one sample line: `name{k="v",…} value` or `name value`.
fn parse_sample(line: &str) -> Option<Sample> {
    let (head, value) = line.rsplit_once(' ')?;
    let value: f64 = value.trim().parse().ok()?;
    if let Some((name, rest)) = head.split_once('{') {
        let body = rest.strip_suffix('}')?;
        let mut labels = Vec::new();
        let mut rest = body;
        while !rest.is_empty() {
            let (key, after_key) = rest.split_once("=\"")?;
            let (val, after_val) = split_label_value(after_key)?;
            labels.push((key.to_string(), unescape_label(&val)));
            rest = after_val.strip_prefix(',').unwrap_or(after_val);
        }
        labels.sort();
        Some((name.to_string(), labels, value))
    } else {
        Some((head.trim().to_string(), Vec::new(), value))
    }
}

/// Scans a label value up to its closing unescaped quote.
fn split_label_value(s: &str) -> Option<(String, &str)> {
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some((s[..i].to_string(), &s[i + 1..])),
            _ => i += 1,
        }
    }
    None
}

fn unescape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::log_bounds;
    use crate::registry::Registry;

    #[test]
    fn render_parse_round_trip() {
        let r = Registry::new();
        r.counter("m_total", "m", &[("node", "0"), ("kind", "gossip")])
            .add(12);
        r.gauge("depth", "d", &[("node", "0")]).set(-3);
        let h = r.histogram(
            "lat_seconds",
            "l",
            &[("node", "0")],
            &log_bounds(0.001, 2.0, 6),
        );
        for v in [0.0005, 0.003, 0.003, 0.02, 1.5] {
            h.observe(v);
        }
        let parsed = parse_text(&r.render());
        assert_eq!(parsed, r.snapshot());
        assert_eq!(
            parsed.counter("m_total", &[("kind", "gossip"), ("node", "0")]),
            Some(12)
        );
        assert_eq!(parsed.gauge("depth", &[("node", "0")]), Some(-3));
        let hs = parsed.histogram_merged("lat_seconds").unwrap();
        assert_eq!(hs.count(), 5);
        assert_eq!(hs.counts().iter().sum::<u64>(), 5);
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let node = |id: &str, n: u64| {
            let r = Registry::new();
            r.counter("m_total", "m", &[("node", id)]).add(n);
            let h = r.histogram("lat_seconds", "l", &[("node", id)], &[0.5, 1.0]);
            for _ in 0..n {
                h.observe(0.25);
            }
            parse_text(&r.render())
        };
        let mut cluster = node("0", 2);
        assert!(cluster.merge(&node("1", 3)));
        assert_eq!(cluster.counter_sum("m_total"), 5);
        // Two distinct series survive; the merged histogram sums them.
        assert_eq!(cluster.histograms.len(), 2);
        let merged = cluster.histogram_merged("lat_seconds").unwrap();
        assert_eq!(merged.count(), 5);
        assert_eq!(merged.counts(), vec![5, 0, 0]);
    }

    #[test]
    fn a_histogram_with_no_finite_bound_has_no_quantile() {
        let snap = parse_text(
            "# TYPE x_seconds histogram\n\
             x_seconds_bucket{le=\"+Inf\"} 3\n\
             x_seconds_sum 1.5\n\
             x_seconds_count 3\n",
        );
        let h = snap.histogram_merged("x_seconds").unwrap();
        assert!(h.bounds().is_empty());
        assert_eq!(h.counts(), vec![3]);
        assert_eq!(h.mean(), Some(0.5));
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.slo_quantiles(), None);
    }

    #[test]
    fn a_histogram_with_a_repeated_bound_is_skipped() {
        let snap = parse_text(
            "# TYPE x_seconds histogram\n\
             x_seconds_bucket{le=\"1\"} 1\n\
             x_seconds_bucket{le=\"1.0\"} 2\n\
             x_seconds_bucket{le=\"+Inf\"} 2\n\
             x_seconds_count 2\n",
        );
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn same_series_merges_by_adding() {
        let mut a = parse_text("# TYPE x_total counter\nx_total{node=\"0\"} 4\n");
        let b = parse_text("# TYPE x_total counter\nx_total{node=\"0\"} 6\n");
        assert!(a.merge(&b));
        assert_eq!(a.counter("x_total", &[("node", "0")]), Some(10));
    }

    #[test]
    fn garbage_lines_are_skipped() {
        let snap = parse_text("not a metric\nx_total{broken 3\n# random comment\nok_total 7\n");
        assert_eq!(snap.counter("ok_total", &[]), Some(7));
        assert_eq!(snap.counters.len(), 1);
    }

    #[test]
    fn escaped_labels_round_trip() {
        let r = Registry::new();
        r.counter("x_total", "x", &[("path", "a\"b\\c\nd")]).inc();
        let parsed = parse_text(&r.render());
        assert_eq!(
            parsed.counter("x_total", &[("path", "a\"b\\c\nd")]),
            Some(1)
        );
    }
}
