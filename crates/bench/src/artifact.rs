//! One mechanism for every committed `BENCH_*.json` artifact.
//!
//! Each artifact keeps its own typed schema (`BaselineFile`, `ScalingFile`,
//! `StreamFile`, `SoakFile`), and each schema names two column lists next to
//! its row struct: the *key* that identifies a row, and the *deterministic*
//! columns — exact functions of the seed, such as rounds, messages and
//! deliveries. Everything else in a row is wall clock: recorded, never gated.
//! [`read`] and [`write()`] move a schema between disk and memory, and [`drift`]
//! compares a fresh run's rows against the committed ones, column by named
//! column.

use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};
use serde_json::Value;

/// Reads and parses an artifact.
pub fn read<T: Deserialize>(path: &Path) -> io::Result<T> {
    let json = std::fs::read_to_string(path)?;
    serde_json::from_str(&json).map_err(|error| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("cannot parse {}: {error:?}", path.display()),
        )
    })
}

/// Writes an artifact as pretty JSON and returns the text written.
pub fn write<T: Serialize>(path: &Path, artifact: &T) -> io::Result<String> {
    let json = serde_json::to_string_pretty(artifact).expect("artifacts serialise");
    std::fs::write(path, &json)?;
    Ok(json)
}

/// A row as the committed file holds it: serialised to text and parsed back,
/// so a fresh row and a committed one compare after the same round trip.
fn as_committed<T: Serialize>(row: &T) -> Value {
    let json = serde_json::to_string(row).expect("rows serialise");
    serde_json::from_str(&json).expect("rendered JSON parses")
}

/// The value at `column` in `row` (`null` when the row has no such column).
fn cell(row: &Value, column: &str) -> String {
    serde_json::to_string(row.get(column).unwrap_or(&Value::Null)).expect("values serialise")
}

fn describe(row: &Value, key: &[&str]) -> String {
    key.iter()
        .map(|column| format!("{column} = {}", cell(row, column)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Compares the `columns` of every `current` row against the `committed` row
/// with the same `key` columns. Returns one line per differing column, one per
/// current row with no committed counterpart, and one when the two grids differ
/// in size; empty means no drift. Columns outside `key` and `columns` — the
/// wall-clock ones — are never compared.
pub fn drift<T: Serialize>(
    what: &str,
    current: &[T],
    committed: &[T],
    key: &[&str],
    columns: &[&str],
) -> Vec<String> {
    let committed: Vec<Value> = committed.iter().map(as_committed).collect();
    let mut lines = Vec::new();
    if current.len() != committed.len() {
        lines.push(format!(
            "{what}: grid size changed from {} committed rows to {}",
            committed.len(),
            current.len()
        ));
    }
    for row in current.iter().map(as_committed) {
        let Some(recorded) = committed.iter().find(|recorded| {
            key.iter()
                .all(|column| recorded.get(column) == row.get(column))
        }) else {
            lines.push(format!(
                "{what}: no committed row at {} to compare against",
                describe(&row, key)
            ));
            continue;
        };
        for column in columns.iter().filter(|c| row.get(c) != recorded.get(c)) {
            let (old, fresh) = (cell(recorded, column), cell(&row, column));
            let at = describe(&row, key);
            lines.push(format!(
                "{what} ({at}): {column} drifted from {old} to {fresh}"
            ));
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{BaselineFile, BaselineSummaryRow};
    use crate::scaling::{ScalingFile, ScalingRow};
    use crate::soak::{SoakFile, SoakRow};
    use crate::stream::{StreamFile, StreamRow, WindowSweepRow};

    fn committed<T: Deserialize>(name: &str) -> T {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        read(&root.join(name)).expect("the committed artifact parses")
    }

    type Columns = &'static [&'static str];

    /// A committed row of every gated schema, with its key columns, its
    /// deterministic columns and the columns the gate must ignore.
    fn schemas() -> Vec<(&'static str, Value, Columns, Columns, Columns)> {
        let baseline: BaselineFile = committed("BENCH_baseline.json");
        let scaling: ScalingFile = committed("BENCH_scaling.json");
        let stream: StreamFile = committed("BENCH_stream.json");
        let soak: SoakFile = committed("BENCH_soak_smoke.json");
        vec![
            (
                "baseline",
                baseline.gated_rows()[0].clone(),
                BaselineSummaryRow::KEY,
                BaselineSummaryRow::DETERMINISTIC,
                &[],
            ),
            (
                "scaling",
                serde_json::to_value(&scaling.rows[0]),
                ScalingRow::KEY,
                ScalingRow::DETERMINISTIC,
                &["f", "engine", "wall_ms", "phases", "deliver_share"],
            ),
            (
                "stream",
                serde_json::to_value(&stream.rows[0]),
                StreamRow::KEY,
                StreamRow::DETERMINISTIC,
                &["decisions_per_sec", "msgs_per_sec", "wall_ms"],
            ),
            (
                "window sweep",
                serde_json::to_value(&stream.window_sweep[0]),
                WindowSweepRow::KEY,
                WindowSweepRow::DETERMINISTIC,
                &["wall_ms"],
            ),
            (
                "soak",
                serde_json::to_value(&soak.rows[0]),
                SoakRow::KEY,
                SoakRow::DETERMINISTIC,
                &[
                    "p50_us",
                    "p95_us",
                    "p99_us",
                    "growth",
                    "lat_mid_third_us",
                    "lat_last_third_us",
                    "lat_slope",
                    "lat_drift",
                    "wall_ms",
                ],
            ),
        ]
    }

    fn perturbed(row: &Value, column: &str) -> Value {
        let mut row = row.clone();
        if let Value::Object(fields) = &mut row {
            for (name, value) in fields {
                if name == column {
                    *value = Value::Str("perturbed".to_string());
                }
            }
        }
        row
    }

    #[test]
    fn drift_flags_each_deterministic_column_a_missing_row_and_a_resized_grid() {
        for (what, row, key, columns, ungated) in schemas() {
            let grid = [row.clone()];
            assert!(drift(what, &grid, &grid, key, columns).is_empty());
            let fields: Vec<&str> = row
                .as_object()
                .expect("rows are objects")
                .iter()
                .map(|(name, _)| name.as_str())
                .collect();
            let mut classified: Vec<&str> = [key, columns, ungated].concat();
            classified.sort_unstable();
            let mut sorted = fields.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted, classified,
                "{what}: every column is key, gated or ungated"
            );

            for column in fields {
                let lines = drift(what, &[perturbed(&row, column)], &grid, key, columns);
                if key.contains(&column) {
                    assert_eq!(lines.len(), 1, "{what} {column}: {lines:?}");
                    assert!(lines[0].contains("no committed row"), "{lines:?}");
                } else if columns.contains(&column) {
                    assert_eq!(lines.len(), 1, "{what} {column}: {lines:?}");
                    assert!(
                        lines[0].contains(&format!(": {column} drifted")),
                        "{lines:?}"
                    );
                } else {
                    assert!(lines.is_empty(), "{what} {column} is wall clock: {lines:?}");
                }
            }

            let lines = drift(what, &[row.clone(), row.clone()], &grid, key, columns);
            assert_eq!(lines.len(), 1, "{what}: {lines:?}");
            assert!(lines[0].contains("grid size changed from 1"), "{lines:?}");
        }
    }
}
