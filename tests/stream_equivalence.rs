//! Conservative-extension pin for the stream driver: a single-instance,
//! batch-size-1 stream run is **byte-identical** (full `RunReport` equality,
//! struct and JSON) to the existing single-shot path, for both covered
//! families — consensus and total order — on the synchronous engine and on
//! the event engine (the `tests/event_equivalence.rs` pattern). The streaming
//! layer must be a pure extension: when there is nothing to pipeline and
//! nothing to batch, it must not change a single byte of what the single-shot
//! driver reports.

use uba_bench::stream::{
    batch_value, run_consensus_stream, run_consensus_stream_with, run_total_order_stream,
    run_total_order_stream_with, total_order_plan, total_order_tail, StreamConfig, StreamOptions,
    CONSENSUS_TAIL,
};
use uba_bench::workload::open_loop_requests;
use uba_checker::attach_verdicts;
use uba_core::sim::{RunReport, ScenarioExt, Simulation, TotalOrderFactory};
use uba_simnet::rng::derive_seed;
use uba_simnet::EngineKind;

/// One request over the whole horizon: instances = 1, rate = 1 over one round.
fn degenerate_config() -> StreamConfig {
    StreamConfig {
        nodes: 5,
        instances: 1,
        spacing: 1,
        rounds: 1,
        rate: 1.0,
        zipf_s: 1.1,
        key_space: 8,
        seed: 0x51EA,
    }
}

/// The engine axis the event-equivalence suite pins.
fn modes() -> Vec<(&'static str, Option<EngineKind>)> {
    vec![("sync", None), ("event", Some(EngineKind::event()))]
}

fn assert_byte_identical(name: &str, stream: &RunReport, single_shot: &RunReport) {
    assert_eq!(
        stream, single_shot,
        "{name}: the degenerate stream run changed the report"
    );
    let stream_json = serde_json::to_string(stream).expect("reports serialise");
    let single_json = serde_json::to_string(single_shot).expect("reports serialise");
    assert_eq!(
        stream_json, single_json,
        "{name}: serialised reports are not byte-identical"
    );
}

#[test]
fn a_degenerate_consensus_stream_is_byte_identical_to_single_shot() {
    let config = degenerate_config();
    // The single request the open-loop generator produces for this config,
    // re-derived exactly as the stream runner derives it.
    let requests = open_loop_requests(
        config.instances as u64 * config.spacing,
        config.rate,
        config.zipf_s,
        config.key_space,
        derive_seed(config.seed, 0xC5),
    );
    assert_eq!(requests.len(), 1, "the pin needs a batch of exactly one");
    let value = batch_value(&[requests[0].key]);

    for (name, engine) in modes() {
        let outcome = run_consensus_stream(&config, engine.clone());
        assert!(
            outcome.report.stream.is_none(),
            "{name}: the single-shot path must not carry a stream section"
        );
        assert_eq!(outcome.report.protocol, "consensus");
        assert_eq!(outcome.decisions, 1);

        // The existing single-shot path, written the way any user would.
        let mut scenario = Simulation::scenario()
            .correct(config.nodes)
            .byzantine(0)
            .seed(config.seed)
            .max_rounds(1 + CONSENSUS_TAIL);
        if let Some(kind) = engine {
            scenario = scenario.engine(kind);
        }
        let mut harness = scenario.consensus(&vec![value; config.nodes]);
        let mut single_shot = harness.run().unwrap();
        attach_verdicts(&mut single_shot);
        assert!(single_shot.completed(), "{name}: single shot hit its cap");
        assert_byte_identical(name, &outcome.report, &single_shot);
    }
}

#[test]
fn a_degenerate_total_order_stream_is_byte_identical_to_single_shot() {
    let config = degenerate_config();
    let (plan, requests) = total_order_plan(&config);
    assert_eq!(requests.len(), 1, "the pin needs a batch of exactly one");
    let total_rounds = config.rounds + total_order_tail(config.nodes);

    for (name, engine) in modes() {
        let outcome = run_total_order_stream(&config, engine.clone());
        assert!(
            outcome.report.stream.is_none(),
            "{name}: the total-order path must not carry a stream section"
        );
        assert_eq!(outcome.report.protocol, "total-order");
        assert_eq!(outcome.decisions, 1, "{name}: one batch finalises");
        assert_eq!(outcome.decided_requests, 1);

        // The existing single-shot path: the same plan handed straight to the
        // factory, driven by `Harness::run` instead of the sampling loop.
        let mut scenario = Simulation::scenario()
            .correct(config.nodes)
            .byzantine(0)
            .seed(config.seed)
            .max_rounds(total_rounds + 1);
        if let Some(kind) = engine {
            scenario = scenario.engine(kind);
        }
        let mut harness = scenario.build(TotalOrderFactory::new(plan.clone()));
        let mut single_shot = harness.run().unwrap();
        attach_verdicts(&mut single_shot);
        assert!(single_shot.completed(), "{name}: single shot hit its cap");
        assert_byte_identical(name, &outcome.report, &single_shot);
    }
}

/// A small but *real* stream shape: enough instances to overlap, enough
/// rounds for earlier instances to retire while later ones are still live.
fn pipelined_config() -> StreamConfig {
    StreamConfig {
        nodes: 5,
        instances: 6,
        spacing: 2,
        rounds: 12,
        rate: 2.0,
        zipf_s: 1.1,
        key_space: 8,
        seed: 0x51EA,
    }
}

#[test]
fn engine_traffic_gc_is_byte_identical_on_and_off_in_every_mode() {
    // The engine-level retired-tag GC prunes queued envelopes for instances
    // every node has retired; pruning must be observationally silent for both
    // stream families on both engines.
    let config = pipelined_config();
    for (name, engine) in modes() {
        let plain = StreamOptions {
            engine,
            traffic_gc: false,
        };
        let gc = StreamOptions {
            traffic_gc: true,
            ..plain.clone()
        };
        let base = run_consensus_stream_with(&config, &plain);
        let pruned = run_consensus_stream_with(&config, &gc);
        assert_byte_identical(&format!("consensus {name}"), &base.report, &pruned.report);

        let base = run_total_order_stream_with(&config, &plain);
        let pruned = run_total_order_stream_with(&config, &gc);
        assert_byte_identical(&format!("total-order {name}"), &base.report, &pruned.report);
        assert_eq!(
            base.latencies_rounds, pruned.latencies_rounds,
            "{name}: finalisation latencies moved under traffic GC"
        );
    }
}

#[test]
fn a_real_stream_is_a_strict_extension_not_a_rewrite() {
    // With more than one instance the stream takes the mux path: the report
    // gains a stream section and the stream oracle, and every instance still
    // agrees — the extension is visible exactly when it is used.
    let config = StreamConfig {
        instances: 3,
        ..degenerate_config()
    };
    let outcome = run_consensus_stream(&config, None);
    assert_eq!(outcome.report.protocol, "stream(consensus)");
    let section = outcome.report.stream.as_ref().expect("stream section");
    assert_eq!(section.instances.len(), 3);
    assert!(section.agreement);
    assert!(outcome
        .report
        .verdicts
        .iter()
        .any(|verdict| verdict.oracle == "stream" && verdict.passed));
}
