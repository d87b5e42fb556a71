//! The committed `BENCH_*.json` artifacts parse under the schema that writes
//! them: each file deserialises into its typed form and re-serialises to the
//! same set of keys. A field dropped from a schema without regenerating the
//! artifact (or an artifact regenerated by a stale binary) fails here rather
//! than landing silently — the key-set comparison does not rely on the
//! deserialiser rejecting unknown fields.

use std::collections::BTreeSet;
use std::path::PathBuf;

use serde_json::Value;
use uba_bench::scaling::load_baseline;
use uba_bench::stream::read_stream;
use uba_bench::{ScalingFile, SoakFile};

fn artifact(name: &str) -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name)
}

/// Every object key in `value`, as a path from the root with array positions
/// collapsed to `[]`.
fn key_paths(value: &Value, prefix: &str, paths: &mut BTreeSet<String>) {
    match value {
        Value::Object(fields) => {
            for (key, field) in fields {
                let path = format!("{prefix}.{key}");
                key_paths(field, &path, paths);
                paths.insert(path);
            }
        }
        Value::Array(items) => {
            for item in items {
                key_paths(item, &format!("{prefix}[]"), paths);
            }
        }
        _ => {}
    }
}

/// Asserts that `typed` — the committed file `name` parsed under its schema —
/// re-serialises to exactly the key paths the file holds, and returns them.
fn assert_same_keys<T: serde::Serialize>(name: &str, typed: &T) -> BTreeSet<String> {
    let committed: Value = parse(name);
    let mut on_disk = BTreeSet::new();
    key_paths(&committed, "", &mut on_disk);
    let mut rewritten = BTreeSet::new();
    key_paths(&serde_json::to_value(typed), "", &mut rewritten);
    assert_eq!(on_disk, rewritten, "{name}: schema and artifact disagree");
    on_disk
}

fn parse<T: serde::Deserialize>(name: &str) -> T {
    let json = std::fs::read_to_string(artifact(name)).expect("artifact is readable");
    serde_json::from_str(&json).unwrap_or_else(|error| panic!("{name} parses: {error:?}"))
}

#[test]
fn the_scaling_artifact_parses_under_its_schema_and_has_no_parallel_rows() {
    let file: ScalingFile = parse("BENCH_scaling.json");
    assert!(!file.quick, "the committed scaling file is the full grid");
    let keys = assert_same_keys("BENCH_scaling.json", &file);
    assert!(
        !keys.contains(".rows[].parallel"),
        "scaling rows carry no step-mode column: there is one stepping path"
    );
    assert!(file
        .speedups
        .iter()
        .all(|row| !row.scenario.ends_with("/parallel")));
}

#[test]
fn the_stream_artifact_parses_under_its_schema() {
    let file = read_stream(&artifact("BENCH_stream.json")).expect("BENCH_stream.json parses");
    assert!(!file.rows.is_empty() && !file.window_sweep.is_empty());
    assert_same_keys("BENCH_stream.json", &file);
}

#[test]
fn the_soak_smoke_artifact_parses_under_its_schema() {
    let file: SoakFile = parse("BENCH_soak_smoke.json");
    assert!(file.smoke && !file.rows.is_empty());
    assert_same_keys("BENCH_soak_smoke.json", &file);
}

#[test]
fn the_baseline_artifact_parses_under_its_schema() {
    let file = load_baseline(&artifact("BENCH_baseline.json")).expect("baseline parses");
    assert_eq!(file.summary.len(), file.reports.len());
    assert_same_keys("BENCH_baseline.json", &file);
}
