//! The `Timed` delivery policy of the [`Engine`](crate::Engine): the
//! `NextRound` fan-out plus a time-indexed store — virtual time, per-node round
//! timers and a [calendar](super::queue) of the arrival instants of the
//! messages in flight.
//!
//! * **schedule** — before a batch, the [`VirtualClock`] advances to the
//!   earliest due [`NodeTimers`] entry and the nodes whose timer fired are the
//!   batch's due set; after the adversary phase, every traffic item towards
//!   correct recipients is entered in the calendar under the arrival times
//!   the [`LinkDelay`] model assigns — one entry per item and arrival instant
//!   (a `None` arrival drops the message — the asynchronous omission case).
//!   The global sequence number still advances once per point-to-point
//!   message, in `NextRound`'s delivery order: it feeds the jitter draw and
//!   the reorder key;
//! * **dispatch** — every instant due before the next timer batch is popped
//!   and its messages land, in deterministic `(arrival, reorder key,
//!   sequence)` order, through the engine's one staged fan-out and dedup
//!   path. A message is delivered iff its recipient was correct when it was
//!   sent *and* is correct when it arrives.
//!
//! With [`TimingSpec::synchronous`] dispatch pops exactly the messages just
//! scheduled, in scheduling order, so metrics, traces and reports are
//! **byte-identical** to `NextRound`'s (pinned by `tests/event_equivalence.rs`).
//! Every other timing opens scenario space the round barrier cannot express;
//! its order is pinned by `tests/event_order_pins.rs`.

use std::sync::Arc;
use std::time::Instant;

use crate::engine::{elapsed_ns, FanOut, Routing};
use crate::id::NodeId;
use crate::message::Directed;
use crate::rng::derive_seed;
use crate::traffic::TrafficItem;

use super::clock::{NodeTimers, VirtualClock};
use super::delay::{LinkDelay, TimingSpec};
use super::queue::{Calendar, Run};

/// Seed stream tag for the per-node round skew.
const SKEW_STREAM: u64 = 0x736b_6577; // "skew"

/// The state of the `Timed` delivery policy (see module docs).
pub(crate) struct Timed<P> {
    calendar: Calendar<P>,
    /// The correct members of the latest batch, in membership order: what the
    /// recipient positions of the runs it sent index. Replaced only when the
    /// membership changes, so in a churn-free run every run in flight shares
    /// it and lands without resolving a single recipient.
    batch: Arc<[NodeId]>,
    clock: VirtualClock,
    timers: NodeTimers,
    delay: LinkDelay,
    /// Global scheduling sequence number — the last deterministic tie-break of
    /// the landing order and the stream index of the jitter draw and the
    /// reorder key.
    seq: u64,
}

impl<P: PartialEq> Timed<P> {
    /// A policy under `timing`, with the initial members (in construction
    /// order) on the initial timer schedule. The seed feeds the skew and
    /// jitter streams.
    pub(crate) fn new(
        timing: &TimingSpec,
        seed: u64,
        members: impl ExactSizeIterator<Item = NodeId> + Clone,
    ) -> Self {
        let skew_seed = derive_seed(seed, SKEW_STREAM);
        let mut timers = NodeTimers::new(timing.round_units, timing.max_skew, skew_seed);
        for id in members.clone() {
            timers.register(id);
        }
        Timed {
            calendar: Calendar::new(timing.reorder_seed),
            batch: Arc::from([]),
            clock: VirtualClock::new(),
            timers,
            delay: LinkDelay::resolve(timing, seed, members),
            seq: 0,
        }
    }

    /// The current virtual time.
    pub(crate) fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Number of messages still in flight (scheduled, not yet delivered).
    pub(crate) fn in_flight(&self) -> usize {
        self.calendar.in_flight()
    }

    /// Number of calendar entries pushed so far (one per traffic item and
    /// arrival instant, not per recipient).
    pub(crate) fn flight_entries(&self) -> u64 {
        self.calendar.entries()
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
        if members.iter().all(|&id| self.timers.due_at(id, now)) {
            for &id in members {
                self.timers.fire(id);
            }
            return None;
        }
        let due = members
            .iter()
            .map(|&id| {
                self.timers.due_at(id, now).then(|| {
                    self.timers.fire(id);
                    self.timers.fires(id)
                })
            })
            .collect();
        Some(due)
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

    /// Routes one batch's traffic: enters every message in the calendar
    /// (`schedule`), then lands every instant due before the next batch
    /// (`dispatch`).
    pub(crate) fn route(&mut self, routing: Routing<'_, P>) {
        let Routing {
            round,
            correct_ids,
            traffic,
            byzantine_traffic,
            byzantine_index,
            inboxes,
            trace,
            metrics,
            timings,
        } = routing;

        // Schedule: expand the compact traffic towards correct recipients —
        // the staged ones; a recipient's slot is its position in the batch —
        // and assign each point-to-point message a sequence number and an
        // arrival time. The expansion order matches `NextRound`'s delivery
        // order exactly (items in production order, broadcasts fanned over the
        // correct nodes in membership order, Byzantine traffic last), so with
        // equal arrival times and no reorder key the calendar lands messages
        // in the same order `NextRound` delivers them.
        let schedule_started = Instant::now();
        let now = self.clock.now();
        let horizon = self.next_batch();
        let Timed {
            calendar,
            batch,
            delay,
            seq,
            ..
        } = self;
        if **batch != *correct_ids {
            *batch = Arc::from(correct_ids);
        }
        let batch = &*batch;
        let mut fan = inboxes.stage(correct_ids, trace, byzantine_index, round + 1);
        let schedule_one = |calendar: &mut Calendar<P>,
                            seq: &mut u64,
                            fan: &FanOut<'_, P>,
                            message: &Directed<P>| {
            let Some(to) = fan.slot_of(message.to) else {
                return;
            };
            *seq += 1;
            if let Some(when) = delay.arrival(message.from, message.to, now, *seq) {
                calendar
                    .item(message.from, &message.payload, round, batch)
                    .leg(when, *seq, to as u32);
            }
        };
        for item in traffic.items() {
            match item {
                TrafficItem::Broadcast { from, payload } => {
                    let mut item = calendar.item(*from, payload, round, batch);
                    if let Some(when) = delay.broadcast_arrival(now) {
                        item.all(when, *seq + 1);
                        *seq += correct_ids.len() as u64;
                    } else {
                        for (position, &to) in correct_ids.iter().enumerate() {
                            *seq += 1;
                            if let Some(when) = delay.arrival(*from, to, now, *seq) {
                                item.leg(when, *seq, position as u32);
                            }
                        }
                    }
                }
                TrafficItem::Unicast(message) => schedule_one(calendar, seq, &fan, message),
            }
        }
        for message in byzantine_traffic {
            schedule_one(calendar, seq, &fan, message);
        }
        timings.add("schedule", elapsed_ns(schedule_started));

        // Dispatch: land every instant due before the next timer batch.
        // Popping at the end of the sending batch is safe for any delay model
        // — no node steps again before the horizon — and it is what makes the
        // zero-jitter case byte-identical to `NextRound`, whose final round
        // also delivers messages nobody will ever consume. A run bound for
        // the whole of a batch with today's membership is today's staged
        // recipients' common traffic and lands once, on the common list; a
        // leg of such a batch lands by position; any other run resolves its
        // recipients against the staged slots, one by one, and a recipient
        // that is no longer correct is skipped. Deliveries are attributed to the
        // *sending* batch's metrics row, matching `NextRound`'s accounting.
        let dispatch_started = Instant::now();
        let land = |fan: &mut FanOut<'_, P>, run: &Run<P>, to: usize, delivered: &mut u64| {
            let slot = if Arc::ptr_eq(&run.batch, batch) {
                Some(to)
            } else {
                fan.slot_of(run.batch[to])
            };
            if let Some(slot) = slot {
                fan.land_slot(slot, run.from, &run.payload, delivered);
            }
        };
        while let Some((_, bucket)) = calendar.pop_due(horizon) {
            bucket.for_each(|run, to| {
                let mut delivered = 0u64;
                match to {
                    None if Arc::ptr_eq(&run.batch, batch) => {
                        fan.land_all(run.from, &run.payload, &mut delivered)
                    }
                    None => {
                        for to in 0..run.batch.len() {
                            land(&mut fan, run, to, &mut delivered);
                        }
                    }
                    Some(to) => land(&mut fan, run, to, &mut delivered),
                }
                metrics.credit_deliveries(run.sent_round, delivered);
            });
            calendar.recycle(bucket);
        }
        inboxes.unstage(correct_ids);
        timings.add("dispatch", elapsed_ns(dispatch_started));
    }
}
