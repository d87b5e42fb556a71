//! Allocation accounting for the zero-copy message plane.
//!
//! One broadcast = one payload allocation, **regardless of fan-out**. This test
//! drives a broadcast-heavy round at n = 128 through the real engine and
//! asserts, via the instrumented `Shared::new` counter, that the whole system
//! — traffic plane, delivery, dedup, tracing — performs O(#broadcasts) payload
//! allocations, not O(n · #broadcasts) as the eager engine did.
//!
//! This file holds a single test on purpose: the allocation counter is
//! process-wide, and integration-test binaries run in their own process, so the
//! deltas below are exact, not approximate.

use uba_checker::{attribute_trace, check_zero_copy};
use uba_simnet::adversary::SilentAdversary;
use uba_simnet::{
    shared, EngineConfig, Inbox, NodeId, Outgoing, Protocol, RoundContext, SyncEngine,
};

/// Broadcasts one payload every round, forever (the engine's round cap stops it).
struct Flooder {
    id: NodeId,
}

impl Protocol for Flooder {
    type Payload = (u64, u64);
    type Output = ();

    fn id(&self) -> NodeId {
        self.id
    }

    fn step(
        &mut self,
        ctx: &RoundContext,
        _inbox: Inbox<'_, (u64, u64)>,
    ) -> Vec<Outgoing<(u64, u64)>> {
        vec![Outgoing::broadcast((ctx.round, self.id.raw()))]
    }

    fn output(&self) -> Option<()> {
        None
    }

    fn terminated(&self) -> bool {
        false
    }
}

#[test]
fn broadcast_round_at_n_128_allocates_per_broadcast_not_per_recipient() {
    const N: usize = 128;
    const ROUNDS: u64 = 4;

    let nodes: Vec<Flooder> = (0..N)
        .map(|i| Flooder {
            id: NodeId::new(10 + 7 * i as u64),
        })
        .collect();
    let config = EngineConfig {
        trace: true,
        trace_capacity: 1 << 20,
        ..Default::default()
    };
    let mut engine = SyncEngine::with_config(nodes, SilentAdversary, vec![], config);

    let before = shared::allocations();
    engine.run_rounds(ROUNDS).expect("flood rounds run");
    let allocated = shared::allocations() - before;

    let broadcasts = N as u64 * ROUNDS;
    // Every node broadcasts once per round; each broadcast reaches all n
    // correct nodes (self included).
    assert_eq!(engine.metrics().correct_messages, broadcasts * N as u64);
    let deliveries = engine.metrics().deliveries;
    assert_eq!(deliveries, broadcasts * N as u64, "no dedup hits here");

    // The zero-copy invariant, exactly: one allocation per broadcast. The
    // eager engine would have paid one payload clone per delivery — 128×
    // more — plus one dedup hash per delivery.
    assert_eq!(allocated, broadcasts, "O(#broadcasts) allocations");
    assert!(
        allocated <= deliveries / 64,
        "allocations must stay far below the delivery fan-out"
    );

    // Cross-check through the recorded trace: every delivered handle points
    // at one of the broadcast allocations, so the distinct-allocation count
    // equals the broadcast count and the checker's zero-copy oracle passes.
    let trace = engine.trace().expect("tracing enabled");
    let attribution = attribute_trace(trace);
    assert_eq!(attribution.deliveries, deliveries);
    assert_eq!(attribution.byzantine, 0);
    assert_eq!(attribution.distinct_allocations, broadcasts);
    assert!(check_zero_copy(trace, broadcasts).passed());
}
