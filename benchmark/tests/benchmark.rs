//! The benchmark's own checks: determinism of every workload, agreement of
//! the ten-family wiring with the fuzzer's, and agreement of the metric
//! tables with `BENCHMARK.json`.

use uba_benchmark::measure::{measure, trace, Budget};
use uba_benchmark::results::driver_line;
use uba_benchmark::spec::{Bound, END_TO_END, PER_LAYER};
use uba_benchmark::surface::{json_from_str, run_case, Json};
use uba_benchmark::trace::Tracer;
use uba_benchmark::workloads::grid::{cases, run_wired};
use uba_benchmark::workloads::{Driver, Size, Workload};

/// The `shared_allocations` column is a delta of a process-global counter:
/// exact in the single-threaded benchmark, polluted by sibling test threads.
/// Every test that runs a workload holds this lock while it does.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn alone() -> std::sync::MutexGuard<'static, ()> {
    // A panicking sibling poisons the lock; the guarded data is `()`.
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn every_workload_repeats_exactly_under_a_seed_and_moves_with_it() {
    let _alone = alone();
    for workload in Workload::ALL {
        let columns = |seed| {
            let measurement = measure(workload, seed, Size::Quick, Budget::Iterations(2));
            assert_eq!(
                measurement.faults,
                Vec::<String>::new(),
                "{}",
                workload.name()
            );
            assert!(measurement.attempted > 0 && measurement.failed == 0);
            measurement.columns
        };
        let first = columns(7);
        assert_eq!(first, columns(7), "{} repeats", workload.name());
        assert_ne!(first, columns(8), "{} follows the seed", workload.name());
    }
}

#[test]
fn the_ten_family_wiring_matches_the_fuzzers_run_case() {
    let _alone = alone();
    let mut tracer = Tracer::off();
    let mut driver = Driver::start(&mut tracer);
    let cases = cases(0xF0CC, Size::Quick);
    assert!(cases.len() > 50);
    let mut families = std::collections::BTreeSet::new();
    for (index, case) in cases.iter().enumerate() {
        families.insert(case.protocol.name());
        let wired = run_wired(case, index as u64, &mut driver);
        assert_eq!(wired.report, run_case(case), "{}", case.describe());
    }
    assert_eq!(families.len(), 10, "the quick grid crosses every family");
}

#[test]
fn the_traced_run_reports_every_per_layer_metric_and_a_well_formed_trace() {
    let _alone = alone();
    let traced = trace(Workload::SoakCrash, 7, Size::Quick, Budget::Iterations(2));
    let measurement = &traced.measurement;
    assert_eq!(measurement.faults, Vec::<String>::new());
    let names: Vec<&str> = measurement.per_layer.iter().map(|v| v.name).collect();
    let table: Vec<&str> = PER_LAYER.iter().map(|&(name, _, _)| name).collect();
    assert_eq!(names, table);
    let value = |name: &str| {
        let found = measurement.per_layer.iter().find(|v| v.name == name);
        found.expect("per-layer metric").value
    };
    assert!(value("wal.restarts") > 0.0 && value("engine.step_ms") > 0.0);
    assert_eq!(value("event.dispatch_ms"), 0.0, "a sync workload");
    assert!(value("engine.phase_coverage") > 0.9);
    assert!(value("report.parse_ms") > 0.0, "the round trip was checked");

    let spans: Json = json_from_str(&traced.trace_json).expect("the trace is JSON");
    let spans = spans.as_array().expect("an array of spans");
    let field = |span: &Json, key: &str| span.get(key).and_then(Json::as_u64).expect("field");
    for span in spans {
        assert!(field(span, "start_ns") <= field(span, "end_ns"));
        assert!(
            field(span, "cause") < field(span, "id"),
            "causes come first"
        );
    }
    let named = |name: &str| {
        spans
            .iter()
            .filter(|s| s.get("name").and_then(Json::as_str) == Some(name))
            .count()
    };
    // Two timed iterations and three twins, 64 rounds each.
    assert_eq!(named("iteration"), 5);
    assert_eq!(named("round"), 5 * 64);
    assert_eq!(named("report.parse"), 1);
}

/// `BENCHMARK.json` and the tables in `spec.rs` must name the same metrics.
#[test]
fn benchmark_json_agrees_with_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let contract: Json = json_from_str(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| contract.get(key).and_then(Json::as_array).expect("a list");
    let text_of = |entry: &Json, key: &str| {
        let field = entry.get(key).and_then(Json::as_str);
        field.expect("a string field").to_string()
    };

    let workloads: Vec<String> = list("workloads")
        .iter()
        .map(|w| text_of(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    let gated: Vec<_> = END_TO_END.iter().filter(|m| m.gated).collect();
    assert_eq!(list("end_to_end").len(), gated.len());
    for (entry, metric) in list("end_to_end").iter().zip(gated) {
        assert_eq!(text_of(entry, "name"), metric.name);
        assert_eq!(text_of(entry, "unit"), metric.unit);
        assert_eq!(text_of(entry, "better"), metric.better.word());
        let bound = entry.get("bound").and_then(Json::as_f64).expect("a bound");
        // The driver's bound is relative only: an exact metric gets a share
        // that one round still trips, and set-up loses its absolute slack.
        match metric.bound {
            Bound::Relative(share) | Bound::RelativeOrAbsolute(share, _) => {
                assert_eq!(bound, share)
            }
            Bound::Exact => assert_eq!(bound, 0.01),
        }
    }

    assert_eq!(list("per_layer").len(), PER_LAYER.len());
    for (entry, &(name, unit, better)) in list("per_layer").iter().zip(&PER_LAYER) {
        assert_eq!(text_of(entry, "name"), name);
        assert_eq!(text_of(entry, "unit"), unit);
        assert_eq!(text_of(entry, "better"), better.word());
    }
}

#[test]
fn the_driver_line_has_exactly_the_contract_keys_and_the_gated_metrics() {
    let _alone = alone();
    let measurement = measure(
        Workload::ConsensusN128,
        7,
        Size::Quick,
        Budget::Iterations(1),
    );
    let line = driver_line(&measurement, false);
    let keys: Vec<&str> = line
        .as_object()
        .expect("an object")
        .iter()
        .map(|(key, _)| key.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = line
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics");
    let names: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
    let gated: Vec<&str> = END_TO_END
        .iter()
        .filter(|m| m.gated)
        .map(|m| m.name)
        .collect();
    assert_eq!(names, gated);
    for (name, metric) in metrics {
        let value = metric.get("value").and_then(Json::as_f64).expect("a value");
        assert!(value > 0.0, "{name} must never read 0");
    }
}
