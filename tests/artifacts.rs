//! The committed `BENCH_*.json` artifacts parse under the schema that writes
//! them: each file deserialises into its typed form and re-serialises to the
//! same set of keys. A field dropped from a schema without regenerating the
//! artifact (or an artifact regenerated by a stale binary) fails here rather
//! than landing silently — the key-set comparison does not rely on the
//! deserialiser rejecting unknown fields. Every artifact the docs, the code or
//! CI name must exist.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use serde_json::Value;
use uba_bench::artifact;
use uba_bench::{BaselineFile, ScalingFile, SoakConfig, SoakFile, StreamFile};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
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

fn keys(value: &Value) -> BTreeSet<String> {
    let mut paths = BTreeSet::new();
    key_paths(value, "", &mut paths);
    paths
}

fn read<T: serde::Deserialize>(path: &Path) -> T {
    artifact::read(path).unwrap_or_else(|error| panic!("{error}"))
}

/// Parses the committed artifact `name` with `parse` — which reads it under its
/// schema, asserts what the schema promises about the committed shape and
/// re-serialises it — and asserts the file and the schema hold the same keys.
fn check(name: &str, parse: fn(&Path) -> Value) {
    let path = root().join(name);
    let committed: Value = read(&path);
    let on_disk = keys(&committed);
    assert_eq!(
        on_disk,
        keys(&parse(&path)),
        "{name}: schema and artifact disagree"
    );
    assert!(
        !on_disk.contains(".rows[].parallel"),
        "{name}: rows carry no step-mode column: there is one stepping path"
    );
}

#[test]
fn the_baseline_artifact_parses_under_its_schema() {
    check("BENCH_baseline.json", |path| {
        let file: BaselineFile = read(path);
        assert_eq!(file.seed, uba_bench::baseline::SEED);
        assert_eq!(file.summary.len(), file.reports.len());
        serde_json::to_value(&file)
    });
}

#[test]
fn the_scaling_artifact_parses_under_its_schema_and_has_no_parallel_rows() {
    check("BENCH_scaling.json", |path| {
        let file: ScalingFile = read(path);
        assert_eq!(file.seed, uba_bench::scaling::SEED);
        assert!(!file.quick, "the committed scaling file is the full grid");
        assert!(file
            .speedups
            .iter()
            .all(|row| !row.scenario.ends_with("/parallel")));
        serde_json::to_value(&file)
    });
}

#[test]
fn the_stream_artifact_parses_under_its_schema() {
    check("BENCH_stream.json", |path| {
        let file: StreamFile = read(path);
        assert_eq!(file.seed, uba_bench::stream::STREAM_SEED);
        assert!(!file.rows.is_empty() && !file.window_sweep.is_empty());
        serde_json::to_value(&file)
    });
}

#[test]
fn the_soak_smoke_artifact_parses_under_its_schema() {
    check("BENCH_soak_smoke.json", |path| {
        let file: SoakFile = read(path);
        assert_eq!(file.seed, SoakConfig::smoke().seed);
        assert!(file.smoke && !file.rows.is_empty());
        serde_json::to_value(&file)
    });
}

fn text_files(dir: &Path, files: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            text_files(&path, files);
        } else {
            files.push(path);
        }
    }
}

/// Every `BENCH_<name>.json` spelled out in `text`.
fn cited_artifacts(text: &str, cited: &mut BTreeSet<String>) {
    for (start, _) in text.match_indices("BENCH_") {
        let rest = &text[start + "BENCH_".len()..];
        let stem = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        if stem > 0 && rest[stem..].starts_with(".json") {
            cited.insert(format!("BENCH_{}.json", &rest[..stem]));
        }
    }
}

#[test]
fn every_cited_artifact_exists() {
    let mut files = Vec::new();
    for dir in ["docs", ".github", ".claude"] {
        text_files(&root().join(dir), &mut files);
    }
    for krate in std::fs::read_dir(root().join("crates")).expect("crates/ is listable") {
        text_files(&krate.expect("crate entry").path().join("src"), &mut files);
    }
    let mut cited = BTreeSet::new();
    for file in &files {
        if let Ok(text) = std::fs::read_to_string(file) {
            cited_artifacts(&text, &mut cited);
        }
    }
    assert!(
        cited.contains("BENCH_baseline.json") && cited.contains("BENCH_stream.json"),
        "the scan reads the docs: {cited:?}"
    );
    let missing: Vec<&String> = cited
        .iter()
        .filter(|name| !root().join(name).is_file())
        .collect();
    assert!(missing.is_empty(), "cited but not committed: {missing:?}");
}
