//! Figure 6 — ideal and adaptive rates.
//!
//! For a buffer sweep at constant offered load: the *maximum* sustainable
//! rate (from the Figure 4 calibration), the *offered* load, and the
//! *allowed* rate that the adaptive mechanism converges to. Below the
//! capacity crossover the allowed rate approximates the maximum; above it,
//! the offered load is accepted.
//!
//! The figure runs nothing of its own: its maximum column is Figure 4's
//! calibration and its adaptive runs are Figure 7's adaptive leg, so it
//! is built from those two results.

use agb_metrics::Table;

use crate::common::{RunOutcome, OFFERED_RATE};
use crate::fig4::Fig4Result;
use crate::fig7::CompareRow;

/// One row of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Row {
    /// Buffer capacity.
    pub buffer: usize,
    /// Offered load (constant across the sweep).
    pub offered: f64,
    /// Mean aggregate allowed rate of the adaptive senders.
    pub allowed: f64,
    /// Admitted input rate of the adaptive run.
    pub input: f64,
    /// Calibrated maximum rate for this buffer size.
    pub maximum: f64,
    /// The adaptive run's full outcome.
    pub outcome: RunOutcome,
}

/// Builds the rows from Figure 4's calibration and Figure 7's rows, which
/// cover the same buffer sweep at the same seed.
///
/// # Panics
///
/// Panics if the two results do not list the same buffer sizes in the
/// same order.
pub fn rows(fig4: &Fig4Result, fig7: &[CompareRow]) -> Vec<Fig6Row> {
    assert_eq!(fig4.points.len(), fig7.len(), "one sweep for both figures");
    fig4.points
        .iter()
        .zip(fig7)
        .map(|(cal, row)| {
            assert_eq!(cal.buffer, row.buffer, "one sweep for both figures");
            Fig6Row {
                buffer: row.buffer,
                offered: OFFERED_RATE,
                allowed: row.adaptive.mean_allowed,
                input: row.adaptive.input_rate,
                maximum: cal.max_rate,
                outcome: row.adaptive,
            }
        })
        .collect()
}

/// Formats the rows as the paper's figure.
pub fn table(rows: &[Fig6Row]) -> Table {
    let mut t = Table::new(
        "Figure 6: ideal and adaptive rates (offered load constant)",
        &[
            "buffer (msg)",
            "offered (msg/s)",
            "allowed (msg/s)",
            "input (msg/s)",
            "maximum (msg/s)",
        ],
    );
    for r in rows {
        t.row_f64(&[r.buffer as f64, r.offered, r.allowed, r.input, r.maximum]);
    }
    t
}
