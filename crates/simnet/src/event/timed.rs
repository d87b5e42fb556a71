//! The `Timed` delivery policy of the [`Engine`](crate::Engine): virtual time,
//! per-node round timers and a deterministic queue of message flights.
//!
//! * **schedule** — before a batch, the [`VirtualClock`] advances to the
//!   earliest due [`NodeTimers`] entry and the nodes whose timer fired are the
//!   batch's due set; after the adversary phase, every point-to-point message
//!   is assigned an arrival time by the [`LinkDelay`] model and pushed into the
//!   [`DeliveryQueue`] as a [`Flight`] (a `None` arrival drops the message —
//!   the asynchronous omission case);
//! * **dispatch** — every flight due before the next timer batch is popped in
//!   deterministic `(arrival, reorder key, sequence)` order and delivered into
//!   the recipient's inbox through the engine's one dedup path.
//!
//! With [`EventTiming::synchronous`] dispatch pops exactly the messages just
//! scheduled, in scheduling order, so metrics, traces and reports are
//! **byte-identical** to `NextRound`'s (pinned by `tests/event_equivalence.rs`).
//! Every other timing opens scenario space the round barrier cannot express.

use std::time::Instant;

use crate::engine::{deliver, elapsed_ns, Routing};
use crate::id::NodeId;
use crate::rng::derive_seed;
use crate::shared::Shared;
use crate::traffic::TrafficItem;

use super::clock::{NodeTimers, VirtualClock};
use super::delay::{EventTiming, LinkDelay};
use super::queue::{DeliveryQueue, Flight};

/// The state of the `Timed` delivery policy (see module docs).
pub(crate) struct Timed<P> {
    queue: DeliveryQueue<P>,
    clock: VirtualClock,
    timers: NodeTimers,
    delay: LinkDelay,
    reorder_seed: Option<u64>,
    /// Global scheduling sequence number — the last deterministic tie-break of
    /// the delivery queue and the stream index of the reorder key.
    seq: u64,
}

impl<P: PartialEq> Timed<P> {
    /// A policy under `timing`, with the initial members on the initial timer
    /// schedule.
    pub(crate) fn new(timing: EventTiming, members: impl Iterator<Item = NodeId>) -> Self {
        let mut timers = NodeTimers::new(timing.round_units, timing.max_skew, timing.skew_seed);
        for id in members {
            timers.register(id);
        }
        Timed {
            queue: DeliveryQueue::new(),
            clock: VirtualClock::new(),
            timers,
            delay: timing.delay,
            reorder_seed: timing.reorder_seed,
            seq: 0,
        }
    }

    /// The current virtual time.
    pub(crate) fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Number of messages still in flight (scheduled, not yet delivered).
    pub(crate) fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// The earliest pending timer. With no timers left (every correct node
    /// gone) time still moves by one period so the run cap is eventually
    /// reached.
    fn next_batch(&self) -> u64 {
        self.timers
            .next_due()
            .unwrap_or_else(|| self.clock.now() + self.timers.period())
    }

    /// Opens a batch: advances the virtual clock to the earliest due timer.
    pub(crate) fn advance(&mut self) {
        let target = self.next_batch();
        self.clock.advance_to(target);
    }

    /// Fires the timers due now and returns the batch's due set over `members`
    /// (in engine order): `None` when every timer fired — the zero-skew case,
    /// and any batch where skews happen to align — so the batch runs under the
    /// engine's round number; otherwise one slot per member, `Some(local
    /// round)` for a due node. A skewed node's round number is local: how
    /// many times its own timer has fired, not the engine's batch count.
    /// Every fired timer is re-armed one period later — including terminated
    /// nodes', so the batch cadence continues while non-terminating peers are
    /// still running.
    pub(crate) fn fire_due(&mut self, members: &[NodeId]) -> Option<Vec<Option<u64>>> {
        let now = self.clock.now();
        let due: Vec<Option<u64>> = members
            .iter()
            .map(|&id| {
                self.timers.due_at(id, now).then(|| {
                    self.timers.fire(id);
                    self.timers.fires(id)
                })
            })
            .collect();
        due.iter().any(Option::is_none).then_some(due)
    }

    /// Arms a joining node's timer. Before the first batch the node joins the
    /// initial timer schedule; mid-run (churn) its timer is armed at the
    /// current virtual time, so it steps together with the batch that admitted
    /// it — matching `NextRound`, where a joiner participates in the round its
    /// churn event precedes.
    pub(crate) fn arm(&mut self, id: NodeId, mid_run: bool) {
        if mid_run {
            self.timers.register_at(id, self.clock.now());
        } else {
            self.timers.register(id);
        }
    }

    /// Disarms a leaving node's timer. Flights still addressed to it are
    /// discarded when they come due.
    pub(crate) fn disarm(&mut self, id: NodeId) {
        self.timers.remove(id);
    }

    /// Routes one batch's traffic: stamps every message into the queue
    /// (`schedule`), then lands every flight due before the next batch
    /// (`dispatch`, returned still open so the engine's GC sweep is charged to
    /// it).
    pub(crate) fn route(&mut self, routing: Routing<'_, P>) -> (&'static str, Instant) {
        let Routing {
            round,
            correct_ids,
            traffic,
            byzantine_traffic,
            correct_index,
            byzantine_index,
            inboxes,
            spare_inboxes,
            trace,
            metrics,
            timings,
        } = routing;

        // Schedule: expand the compact traffic towards correct recipients and
        // assign each point-to-point message an arrival time. The expansion
        // order matches `NextRound`'s delivery order exactly (items in
        // production order, broadcasts fanned over the correct nodes in
        // membership order, Byzantine traffic last), so with equal arrival
        // times and no reorder key the queue pops in the same order
        // `NextRound` delivers.
        let schedule_started = Instant::now();
        let now = self.clock.now();
        {
            let Timed {
                queue,
                delay,
                reorder_seed,
                seq,
                ..
            } = self;
            let mut schedule = |from: NodeId, to: NodeId, payload: &Shared<P>| {
                *seq += 1;
                if let Some(when) = delay.arrival(from, to, now, *seq) {
                    let key = reorder_seed.map_or(0, |s| derive_seed(s, *seq));
                    queue.push(Flight {
                        when,
                        key,
                        seq: *seq,
                        sent_round: round,
                        from,
                        to,
                        payload: payload.clone(),
                    });
                }
            };
            for item in traffic.items() {
                match item {
                    TrafficItem::Broadcast { from, payload } => {
                        for &to in correct_ids {
                            schedule(*from, to, payload);
                        }
                    }
                    TrafficItem::Unicast(message) => {
                        if correct_index.contains(&message.to) {
                            schedule(message.from, message.to, &message.payload);
                        }
                    }
                }
            }
            for message in byzantine_traffic {
                if correct_index.contains(&message.to) {
                    schedule(message.from, message.to, &message.payload);
                }
            }
        }
        timings.add("schedule", elapsed_ns(schedule_started));

        // Dispatch: pop every flight due before the next timer batch into its
        // recipient's inbox. Popping at the end of the sending batch is safe
        // for any delay model — no node steps again before the horizon — and
        // it is what makes the zero-jitter case byte-identical to `NextRound`,
        // whose final round also delivers messages nobody will ever consume.
        // Deliveries are attributed to the *sending* batch's metrics row,
        // matching `NextRound`'s accounting.
        let dispatch_started = Instant::now();
        let horizon = self.next_batch();
        while let Some(flight) = self.queue.pop_due(horizon) {
            if !correct_index.contains(&flight.to) {
                continue;
            }
            let mut inbox = inboxes
                .remove(&flight.to)
                .unwrap_or_else(|| spare_inboxes.pop().unwrap_or_default());
            let mut delivered = 0u64;
            deliver(
                &mut inbox,
                trace,
                byzantine_index,
                round + 1,
                flight.from,
                flight.to,
                &flight.payload,
                &mut delivered,
            );
            if delivered > 0 {
                metrics.credit_deliveries(flight.sent_round, delivered);
            }
            inboxes.insert(flight.to, inbox);
        }
        ("dispatch", dispatch_started)
    }
}
