//! Conservative-extension pins for the stream driver, on the synchronous
//! engine and on the event engine (the `tests/event_equivalence.rs` pattern):
//!
//! * a one-instance consensus stream, multiplexed through `MuxNode`, decides
//!   the same value in the same round with the same message and delivery
//!   counts as single-shot consensus;
//! * a single-instance, batch-size-1 total-order stream run is
//!   **byte-identical** (full `RunReport` equality, struct and JSON) to the
//!   existing single-shot path.
//!
//! The streaming layer must be a pure extension: when there is nothing to
//! pipeline and nothing to batch, it must not change what the single-shot
//! driver observes.

use uba_bench::stream::{
    run_consensus_stream, run_total_order_stream, total_order_plan, total_order_tail, StreamConfig,
};
use uba_checker::attach_verdicts;
use uba_core::sim::{consensus_stream, RunReport, ScenarioExt, Simulation, TotalOrderFactory};
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
fn a_one_instance_consensus_stream_decides_like_single_shot() {
    const NODES: usize = 5;
    const VALUE: u64 = 12_345;
    for (name, engine) in modes() {
        let mut scenario = Simulation::scenario().correct(NODES).seed(0x51EA);
        if let Some(kind) = engine {
            scenario = scenario.engine(kind);
        }
        // One instance of one request, started in round 1.
        let driver = consensus_stream(NODES, [(1, 1, VALUE)]);
        let stream = scenario.clone().build(driver).run().unwrap();
        let single_shot = scenario.consensus(&[VALUE; NODES]).run().unwrap();
        assert!(stream.completed() && single_shot.completed(), "{name}");
        assert_eq!(stream.protocol, "stream(consensus)", "{name}: runs the mux");

        let counts = |report: &RunReport| {
            (
                report.rounds,
                report.messages.correct,
                report.messages.deliveries,
            )
        };
        assert_eq!(counts(&single_shot), (7, 355, 355), "{name}");
        assert_eq!(counts(&stream), counts(&single_shot), "{name}");

        // Every node decides the same value in the same round on both paths.
        let consensus = single_shot.consensus.as_ref().expect("consensus section");
        let single_decisions: Vec<_> = consensus
            .decisions
            .iter()
            .map(|d| (d.node, d.value.to_string(), d.round))
            .collect();
        let section = stream.stream.as_ref().expect("stream section");
        let [instance] = section.instances.as_slice() else {
            panic!("{name}: one instance");
        };
        let stream_decisions: Vec<_> = instance
            .outputs
            .iter()
            .zip(&instance.decide_rounds)
            .map(|((node, output), (_, round))| {
                (
                    *node,
                    output.clone().expect("decided"),
                    round.expect("decided"),
                )
            })
            .collect();
        assert_eq!(single_decisions.len(), NODES, "{name}");
        assert!(single_decisions
            .iter()
            .all(|(_, value, round)| *value == VALUE.to_string() && *round == 7));
        assert_eq!(stream_decisions, single_decisions, "{name}");
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
