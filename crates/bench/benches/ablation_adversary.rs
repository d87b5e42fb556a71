//! E13 bench: cost of consensus under oblivious (scripted) versus adaptive (rushing,
//! traffic-aware) attackers, on identical split-input workloads at `n = 3f + 1`.
//!
//! Every iteration runs a full consensus execution and asserts agreement/validity via
//! the `uba-checker` oracle, so the measured time includes the verification overhead
//! uniformly across all attackers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use uba_bench::experiments_ext::consensus_under;
use uba_core::adversaries::{
    AnnounceToSubset, EquivocatingCoordinator, MinorityBooster, SplitVote,
};
use uba_simnet::adversary::SilentAdversary;

fn bench_adversary_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("consensus_adversary_ablation");
    group.sample_size(10);
    let f = 2usize;
    let correct = 2 * f + 1;
    let seed = 4242u64;

    group.bench_with_input(BenchmarkId::new("silent", f), &f, |b, _| {
        b.iter(|| consensus_under(correct, f, seed, SilentAdversary))
    });
    group.bench_with_input(BenchmarkId::new("announce_then_silent", f), &f, |b, _| {
        b.iter(|| consensus_under(correct, f, seed, AnnounceToSubset::everyone()))
    });
    group.bench_with_input(BenchmarkId::new("partial_announce", f), &f, |b, _| {
        b.iter(|| consensus_under(correct, f, seed, AnnounceToSubset::every_other()))
    });
    group.bench_with_input(BenchmarkId::new("split_vote", f), &f, |b, _| {
        b.iter(|| consensus_under(correct, f, seed, SplitVote::new(0u64, 1u64)))
    });
    group.bench_with_input(BenchmarkId::new("minority_booster", f), &f, |b, _| {
        b.iter(|| consensus_under(correct, f, seed, MinorityBooster::new(0u64, 1u64)))
    });
    group.bench_with_input(
        BenchmarkId::new("equivocating_coordinator", f),
        &f,
        |b, _| {
            b.iter(|| consensus_under(correct, f, seed, EquivocatingCoordinator::new(0u64, 1u64)))
        },
    );
    group.finish();
}

criterion_group!(benches, bench_adversary_ablation);
criterion_main!(benches);
