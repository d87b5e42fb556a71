//! Silent ≡ absent: the first symmetry of the id-only model.
//!
//! A node knows only whom it has heard from, so Byzantine identities that
//! never speak must leave every correct node's run unchanged. Every family
//! runs `(c, b)` under the silent adversary next to `(c, 0)`, at four sizes
//! with four seeds each. The id-only families, Srikanth–Toueg and Dolev
//! approx run on the default sparse identifiers and must see the same run:
//! status, round count, deliveries, every node's report and every family
//! section. Phase king and the known rotor are told `n` (and need consecutive
//! identifiers, as the fuzzer gives them), so the silent identities change
//! what they do: for them the two runs must differ — the contrast the paper
//! draws, made executable.
//!
//! `messages.correct` is not compared: it counts the copies of a correct
//! broadcast addressed to Byzantine recipients, by design.

use std::fmt::Debug;

use uba_bench::{run_case, FuzzCase, ProtocolId};
use uba_core::sim::{AdversaryKind, RunReport, Simulation};
use uba_simnet::rng::derive_seed;
use uba_simnet::IdSpace;

const SIZES: [(usize, usize); 4] = [(4, 1), (7, 2), (10, 3), (13, 4)];
const SEEDS: u64 = 4;

/// The families that are told `n`.
fn reads_n(protocol: ProtocolId) -> bool {
    matches!(protocol, ProtocolId::PhaseKing | ProtocolId::KnownRotor)
}

fn run(protocol: ProtocolId, correct: usize, byzantine: usize, seed: u64) -> RunReport {
    let mut scenario = Simulation::scenario()
        .correct(correct)
        .byzantine(byzantine)
        .seed(seed)
        .max_rounds(400)
        .adversary(AdversaryKind::Silent);
    if reads_n(protocol) {
        scenario = scenario.ids(IdSpace::Consecutive);
    }
    let spec = scenario.spec().clone();
    run_case(&FuzzCase { protocol, spec })
}

/// What the correct nodes' run is made of.
fn observed(report: &RunReport) -> impl PartialEq + Debug + '_ {
    (
        &report.status,
        report.rounds,
        report.messages.deliveries,
        &report.nodes,
        (
            &report.consensus,
            &report.broadcast,
            &report.rotor,
            &report.approx,
            &report.spreads,
            &report.parallel,
            &report.chain,
            &report.recovery,
            &report.stream,
        ),
    )
}

#[test]
fn silent_byzantine_identities_are_absent_ones_unless_the_family_knows_n() {
    for protocol in ProtocolId::ALL {
        for (correct, byzantine) in SIZES {
            for trial in 0..SEEDS {
                let seed = derive_seed(0x5113_0AB5, trial);
                let label = format!("{} ({correct}, {byzantine}) seed {seed}", protocol.name());
                let silent = run(protocol, correct, byzantine, seed);
                let absent = run(protocol, correct, 0, seed);
                assert!(absent.messages.deliveries > 0, "{label}: nothing ran");
                if reads_n(protocol) {
                    assert_ne!(
                        observed(&silent),
                        observed(&absent),
                        "{label}: a known-n family ignored its silent peers"
                    );
                } else {
                    assert_eq!(
                        observed(&silent),
                        observed(&absent),
                        "{label}: silent identities changed the run"
                    );
                }
            }
        }
    }
}
