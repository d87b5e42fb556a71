//! Result records: the JSON a run writes, the one-line result the acceptance
//! driver reads, and the `expected.json` drift check.

use crate::measure::{Measurement, Value};
use crate::spec::END_TO_END;
use crate::surface::{json_from_str, Json};
use crate::workloads::{Size, DEFAULT_SEED};

/// The default seed's deterministic columns per workload, at full size.
const EXPECTED: &str = include_str!("../expected.json");

fn object(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

fn strings(items: &[String]) -> Json {
    Json::Array(items.iter().cloned().map(Json::Str).collect())
}

fn values(values: &[Value], with_samples: bool) -> Json {
    Json::Object(
        values
            .iter()
            .map(|v| {
                let mut fields = vec![
                    ("value", Json::F64(v.value)),
                    ("unit", Json::Str(v.unit.into())),
                ];
                if with_samples {
                    fields.push(("samples", Json::U64(v.samples as u64)));
                }
                (v.name.to_string(), object(fields))
            })
            .collect(),
    )
}

/// The one-line result of the acceptance driver's protocol: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`, the metrics being every
/// gated end-to-end metric (untraced run) or every per-layer metric (traced).
pub fn driver_line(measurement: &Measurement, traced: bool) -> Json {
    let metrics: Vec<Value> = if traced {
        measurement.per_layer.clone()
    } else {
        let gated = |v: &&Value| END_TO_END.iter().any(|m| m.name == v.name && m.gated);
        measurement
            .end_to_end
            .iter()
            .filter(gated)
            .cloned()
            .collect()
    };
    object(vec![
        ("correct", Json::Bool(measurement.correct())),
        ("attempted", Json::U64(measurement.attempted)),
        ("failed", Json::U64(measurement.failed)),
        ("metrics", values(&metrics, false)),
    ])
}

/// The full record of one workload's run, as stored in a result file.
pub fn record(measurement: &Measurement, sim_drift: &[String]) -> Json {
    object(vec![
        ("workload", Json::Str(measurement.workload.name().into())),
        ("iterations", Json::U64(measurement.iterations as u64)),
        ("attempted", Json::U64(measurement.attempted)),
        ("failed", Json::U64(measurement.failed)),
        ("correct", Json::Bool(measurement.correct())),
        ("faults", strings(&measurement.faults)),
        ("sim_drift", strings(sim_drift)),
        ("metrics", values(&measurement.end_to_end, true)),
        ("per_layer", values(&measurement.per_layer, true)),
        (
            "columns",
            Json::Object(
                measurement
                    .columns
                    .iter()
                    .map(|&(name, value)| (name.to_string(), Json::U64(value)))
                    .collect(),
            ),
        ),
    ])
}

/// A result file: one set of workload records with its provenance.
pub fn result_set(seed: u64, size: Size, records: Vec<Json>) -> Json {
    object(vec![
        ("seed", Json::U64(seed)),
        ("quick", Json::Bool(size == Size::Quick)),
        (
            "nproc",
            Json::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("workloads", Json::Array(records)),
    ])
}

/// The pinned columns as `expected.json` stores them.
pub fn expected_file(records: &[Json]) -> Json {
    object(vec![
        ("seed", Json::U64(DEFAULT_SEED)),
        (
            "workloads",
            Json::Object(
                records
                    .iter()
                    .filter_map(|record| {
                        let name = record.get("workload")?.as_str()?;
                        Some((name.to_string(), record.get("columns")?.clone()))
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Columns of a default-seed, full-size run that differ from `expected.json`:
/// the simulation's behaviour moved. Reported, not failed, so that a
/// behaviour-changing change is visible without being unmergeable. Under any
/// other seed or size only the oracles are checked and this is empty.
pub fn sim_drift(measurement: &Measurement, seed: u64, size: Size) -> Vec<String> {
    if seed != DEFAULT_SEED || size != Size::Full {
        return Vec::new();
    }
    let expected: Json = json_from_str(EXPECTED).expect("expected.json parses");
    let Some(pinned) = expected
        .get("workloads")
        .and_then(|workloads| workloads.get(measurement.workload.name()))
        .and_then(Json::as_object)
    else {
        return vec!["workload is not pinned in expected.json".into()];
    };
    pinned
        .iter()
        .filter_map(|(name, pinned)| {
            let measured = measurement
                .columns
                .iter()
                .find(|(column, _)| column == name)
                .map(|&(_, value)| value);
            (measured != pinned.as_u64()).then(|| {
                format!(
                    "{name}: expected {}, measured {}",
                    pinned.as_u64().map_or("?".into(), |v| v.to_string()),
                    measured.map_or("nothing".into(), |v| v.to_string()),
                )
            })
        })
        .collect()
}
