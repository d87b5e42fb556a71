//! Engine-scaling bench: wall-clock of one broadcast-heavy consensus run as the
//! system grows.
//!
//! This measures the `Engine::run_round` hot path itself (broadcast-aware
//! traffic, hashed dedup, O(1) membership): the protocol work per node is fixed,
//! so the time per benchmark tracks the engine's per-round cost at each `n`. The
//! recorded trajectory lives in `BENCH_scaling.json` (`experiments -- scaling`);
//! this bench is the interactive view of the same hot path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use uba_core::sim::{AdversaryKind, ScenarioExt, Simulation};

fn consensus_run(n: usize) -> u64 {
    let f = (n - 1) / 3;
    let correct = n - f;
    let inputs: Vec<u64> = (0..correct).map(|i| (i % 2) as u64).collect();
    let mut harness = Simulation::scenario()
        .correct(correct)
        .byzantine(f)
        .seed(0x5CA1E + n as u64)
        .max_rounds(5_000)
        .adversary(AdversaryKind::SplitVote)
        .consensus(&inputs);
    let report = harness.run().expect("scaling bench run completes");
    assert!(report.completed());
    report.messages.correct
}

fn bench_engine_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_scaling");
    group.sample_size(10);
    for &n in &[16usize, 32, 64, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| consensus_run(n))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_scaling);
criterion_main!(benches);
