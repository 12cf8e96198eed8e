//! The replay contract: one trait for every report with a committed
//! seed-42 reference file.
//!
//! A [`Report`] runs from a seed, renders its tables and failure lines,
//! serialises to the JSON file committed at the repo root, and folds a
//! digest. `repro <name> [seed]` is one generic function over the trait,
//! and `repro verify` replays every report at several `AGB_THREADS`
//! settings and compares each replay with the committed file through
//! [`compare_json`]. A new report costs one `impl Report` and one
//! committed file.

use std::path::Path;

use agb_metrics::{format_f64, Table};
use agb_types::json::Json;

/// The parts of a report that measure wall-clock time. They vary run to
/// run, so replays compare everything except them; every other byte is a
/// pure function of the seed.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    /// Top-level JSON keys whose values are wall-clock.
    pub json_keys: &'static [&'static str],
    /// Whether any printed table is wall-clock (the printed output is
    /// then not compared across runs).
    pub tables: bool,
}

/// A seed-deterministic report behind `repro <name>`.
pub trait Report: Sized {
    /// The `repro` subcommand that runs the report.
    const NAME: &'static str;
    /// The file `repro NAME` writes into the working directory. Its
    /// quick-mode seed-42 copy is committed at the repo root.
    const FILE: &'static str;
    /// Which parts are wall-clock; none unless a report says otherwise.
    const WALL_CLOCK: WallClock = WallClock {
        json_keys: &[],
        tables: false,
    };

    /// Runs the experiment at `seed` (CI-sized when `AGB_QUICK` is set).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors of reports that bind sockets or write side
    /// files.
    fn run(seed: u64) -> std::io::Result<Self>;

    /// The tables `repro NAME` prints, in order.
    fn tables(&self) -> Vec<Table>;

    /// Human-readable failure lines; empty when every claim holds.
    fn failures(&self) -> Vec<String>;

    /// The machine-readable report written to [`Report::FILE`].
    fn to_json(&self) -> Json;

    /// Stable digest of the deterministic part of the report.
    fn digest(&self) -> u64;
}

/// Compares a replay's JSON text with the reference file at `reference`,
/// byte for byte except inside the top-level `wall_clock_keys`.
///
/// The replay takes the reference's values for those keys and is
/// re-rendered; the result must equal the reference file exactly.
///
/// # Errors
///
/// Describes the first difference, or why the comparison could not be
/// made: the reference is missing or unreadable, either side is not
/// JSON, or either side lacks a wall-clock key.
pub fn compare_json(
    replay: &str,
    reference: &Path,
    wall_clock_keys: &[&str],
) -> Result<(), String> {
    let expected = std::fs::read_to_string(reference)
        .map_err(|e| format!("cannot read {}: {e}", reference.display()))?;
    if wall_clock_keys.is_empty() {
        return first_difference(replay, &expected).map_or(Ok(()), Err);
    }
    let committed =
        Json::parse(&expected).map_err(|e| format!("{} is not JSON: {e}", reference.display()))?;
    let mut actual = Json::parse(replay).map_err(|e| format!("replay is not JSON: {e}"))?;
    let Json::Obj(fields) = &mut actual else {
        return Err("replay is not a JSON object".into());
    };
    for &key in wall_clock_keys {
        let value = committed
            .get(key)
            .ok_or_else(|| format!("{} lacks the key `{key}`", reference.display()))?;
        let slot = fields
            .get_mut(key)
            .ok_or_else(|| format!("replay lacks the key `{key}`"))?;
        *slot = value.clone();
    }
    first_difference(&actual.pretty(), &expected).map_or(Ok(()), Err)
}

/// Appends one table row: a metric name and one value per column.
pub(crate) fn metric_row(t: &mut Table, name: &str, values: impl Iterator<Item = f64>) {
    let mut cells = vec![name.to_string()];
    cells.extend(values.map(format_f64));
    t.row(&cells);
}

/// The first line where `actual` and `expected` differ, if they differ.
pub fn first_difference(actual: &str, expected: &str) -> Option<String> {
    if actual == expected {
        return None;
    }
    let mut lines = actual.lines().zip(expected.lines()).enumerate();
    Some(match lines.find(|(_, (a, e))| a != e) {
        Some((i, (a, e))) => format!("line {}: `{}` instead of `{}`", i + 1, a.trim(), e.trim()),
        None if actual.lines().count() != expected.lines().count() => format!(
            "{} lines instead of {}",
            actual.lines().count(),
            expected.lines().count()
        ),
        None => format!("{} bytes instead of {}", actual.len(), expected.len()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reference file unique to one test, removed on drop.
    struct Reference(std::path::PathBuf);

    impl Reference {
        fn new(name: &str, text: &str) -> Self {
            let path =
                std::env::temp_dir().join(format!("agb-report-{}-{name}.json", std::process::id()));
            std::fs::write(&path, text).unwrap();
            Reference(path)
        }
    }

    impl Drop for Reference {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn doc(runtime_ms: u64, digest: &str) -> String {
        Json::obj([
            ("digest", Json::from(digest)),
            ("runtime", Json::obj([("ms", Json::from(runtime_ms))])),
            ("seed", Json::from(42u64)),
        ])
        .pretty()
    }

    #[test]
    fn a_difference_inside_a_wall_clock_key_passes() {
        let committed = Reference::new("wall", &doc(1_234, "0x01"));
        assert_eq!(
            compare_json(&doc(987, "0x01"), &committed.0, &["runtime"]),
            Ok(())
        );
        // Without the key marked wall-clock the same replay fails.
        let err = compare_json(&doc(987, "0x01"), &committed.0, &[]).unwrap_err();
        assert!(err.contains("987"), "{err}");
    }

    #[test]
    fn a_one_byte_change_elsewhere_fails() {
        let text = doc(5, "0x01");
        let committed = Reference::new("byte", &text);
        assert_eq!(compare_json(&text, &committed.0, &["runtime"]), Ok(()));
        let err = compare_json(&doc(5, "0x02"), &committed.0, &["runtime"]).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        // A missing trailing newline is a difference as well.
        let err = compare_json(text.trim_end(), &committed.0, &[]).unwrap_err();
        assert_eq!(
            err,
            format!("{} bytes instead of {}", text.len() - 1, text.len())
        );
        // Whitespace counts too: the committed file must be the exact
        // rendering.
        let spaced = Reference::new("space", &text.replacen(": ", ":  ", 1));
        assert!(compare_json(&text, &spaced.0, &["runtime"]).is_err());
        assert!(compare_json(&text, &spaced.0, &[]).is_err());
    }

    #[test]
    fn a_missing_file_fails() {
        let path = std::env::temp_dir().join("agb-report-no-such-file.json");
        let err = compare_json(&doc(1, "0x01"), &path, &["runtime"]).unwrap_err();
        assert!(err.starts_with("cannot read"), "{err}");
        assert!(compare_json(&doc(1, "0x01"), &path, &[]).is_err());
    }

    #[test]
    fn a_missing_key_fails() {
        let full = doc(1, "0x01");
        let committed = Reference::new("key", &full);
        let without_digest = Json::obj([
            ("runtime", Json::obj([("ms", Json::from(1u64))])),
            ("seed", Json::from(42u64)),
        ])
        .pretty();
        assert!(compare_json(&without_digest, &committed.0, &["runtime"]).is_err());
        // A missing wall-clock key fails on either side.
        let without_runtime =
            Json::obj([("digest", Json::from("0x01")), ("seed", Json::from(42u64))]).pretty();
        let err = compare_json(&without_runtime, &committed.0, &["runtime"]).unwrap_err();
        assert_eq!(err, "replay lacks the key `runtime`");
        let bare = Reference::new("bare", &without_runtime);
        let err = compare_json(&full, &bare.0, &["runtime"]).unwrap_err();
        assert!(err.ends_with("lacks the key `runtime`"), "{err}");
    }
}
