//! Why blockchains without known participation need synchrony (Section IX).
//!
//! The paper proves that once nodes do not know `n` and `f`, Byzantine consensus is
//! impossible — even with probabilistic termination, even with **zero** faulty nodes —
//! unless the system is synchronous. This example makes the argument tangible by
//! first running the same split-input population through the synchronous
//! `Simulation` driver (where Theorem 3 guarantees agreement), then re-running the
//! constructions of Lemmas 14 and 15 through the same driver on the timed engine,
//! each timing model one `DelaySpec`:
//!
//! * a synchronous control run, which always agrees;
//! * a semi-synchronous run where the (unknown) delay bound exceeds the time both
//!   sides need to decide — the two halves decide their own inputs;
//! * a fully asynchronous run where cross-partition messages never arrive.
//!
//! Run with `cargo run --example asynchrony_pitfall`.

use uba_core::impossibility::{disagreement_rate, run_partition_experiment};
use uba_core::sim::{ScenarioExt, Simulation};
use uba_simnet::DelaySpec;

fn describe(delay: &DelaySpec) -> String {
    match delay {
        DelaySpec::Synchronous => "synchronous (control)".to_string(),
        DelaySpec::Partition {
            cross: Some(delta), ..
        } => format!("semi-synchronous (unknown Δ = {delta} ticks)"),
        DelaySpec::Partition { cross: None, .. } => "asynchronous (unbounded delays)".to_string(),
        DelaySpec::Gst { gst, bound } => {
            format!("partially synchronous (GST = {gst}, δ = {bound})")
        }
        other => format!("{other:?}"),
    }
}

fn main() {
    let partitions = (4usize, 4usize);
    println!(
        "partition A: {} nodes, all with input 1\npartition B: {} nodes, all with input 0\n",
        partitions.0, partitions.1
    );

    // Under full synchrony the unified driver's consensus run always agrees — this
    // is the guarantee the timing models below take away.
    let inputs = [1u64, 1, 1, 1, 0, 0, 0, 0];
    let control = Simulation::scenario()
        .correct(8)
        .byzantine(0)
        .seed(7)
        .max_rounds(300)
        .consensus(&inputs)
        .run()
        .expect("synchronous consensus terminates");
    let section = control.consensus.as_ref().expect("consensus section");
    println!(
        "synchronous Simulation driver: agreement = {}, decided {} in {} rounds\n",
        section.agreement, section.decisions[0].value, control.rounds
    );

    let models = [
        DelaySpec::Synchronous,
        DelaySpec::Partition {
            first: partitions.0,
            cross: Some(400),
        },
        DelaySpec::Partition {
            first: partitions.0,
            cross: None,
        },
    ];

    println!(
        "{:<42} {:>10} {:>8} {:>12}",
        "timing model", "agreement", "ticks", "disagreement"
    );
    println!("{}", "-".repeat(78));
    for model in models {
        let rate = disagreement_rate(partitions.0, partitions.1, &model, 8, 100);
        let outcome = run_partition_experiment(partitions.0, partitions.1, model.clone(), 7)
            .expect("experiment completes");
        println!(
            "{:<42} {:>10} {:>8} {:>11.0}%",
            describe(&model),
            outcome.agreement,
            outcome.ticks,
            rate * 100.0
        );
        if !outcome.agreement {
            let ones = outcome.decisions.iter().filter(|(_, v)| *v == 1).count();
            let zeros = outcome.decisions.len() - ones;
            println!(
                "    -> {ones} nodes decided 1 and {zeros} decided 0: each side only ever heard \
                 itself and could not tell that the other side existed"
            );
        }
    }

    // Partial synchrony in the DLS sense is not enough either: a stabilisation
    // time later than the algorithm's initialisation rounds silences the whole
    // network long enough that the member estimates freeze empty, and the late
    // traffic cannot restore liveness — the run never terminates at all.
    let late_gst = DelaySpec::Gst { gst: 5, bound: 1 };
    match run_partition_experiment(partitions.0, partitions.1, late_gst.clone(), 7) {
        Err(error) => println!(
            "\n{}: no node ever decides ({error})\n    -> the silent prologue freezes every \
             member estimate; even a fully synchronous network after GST cannot revive the run",
            describe(&late_gst)
        ),
        Ok(outcome) => println!(
            "\n{}: unexpectedly terminated ({outcome:?})",
            describe(&late_gst)
        ),
    }

    println!(
        "\nConclusion (Lemmas 14 & 15): without knowing n and f, a node cannot know how many \
         messages to wait for, so it may decide before delayed messages arrive. Synchrony is \
         what the paper's algorithms — and any permissionless blockchain that wants guaranteed \
         agreement — must assume."
    );
}
