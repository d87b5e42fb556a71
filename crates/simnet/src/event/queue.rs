//! The calendar of arrival instants: where scheduled messages wait.
//!
//! Messages in flight are kept per **arrival instant**, not per recipient. A
//! [`Calendar`] maps each pending instant to a [`Bucket`], and a bucket holds
//! **runs**: a [`Run`] is one sender's payload handle bound for any number of
//! recipients at that instant — the whole sending batch ([`Recipients::All`],
//! what a broadcast under a link-independent delay costs: one entry, however
//! large the system) or an explicit list of 16-byte [`Leg`]s, one per
//! point-to-point message. Recipients are *positions* in the run's `batch`,
//! the membership list of the batch that sent it, shared by every run of that
//! batch.
//!
//! Due buckets pop in time order, and within a bucket messages land in
//! `(reorder key, sequence number)` order — the order a priority queue of
//! single flights would pop them in (the model check below drives exactly
//! that reference against the calendar). Without a reorder seed every key is
//! 0 and sequence numbers only grow, so a bucket is FIFO: runs in push order,
//! legs in push order within a run, nothing to sort and no sequence number to
//! consult. With a reorder seed every message carries its own key, so every
//! message is a leg and a due bucket's legs are sorted once, by the key
//! recomputed from their sequence numbers, when the bucket is popped.
//!
//! The comparison never inspects a payload, so determinism holds for any
//! payload type and the calendar needs no `Ord` bound on `P`.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use crate::id::NodeId;
use crate::rng::derive_seed;
use crate::shared::Shared;

/// One sender's payload bound for one or more recipients at one instant.
pub(crate) struct Run<P> {
    /// True sender.
    pub(crate) from: NodeId,
    /// Payload handle, shared with the traffic plane — no copy.
    pub(crate) payload: Shared<P>,
    /// The engine round in which the run was sent (for metrics attribution).
    pub(crate) sent_round: u64,
    /// The correct members of the sending batch, in membership order — what
    /// recipient positions index. One allocation shared by the whole batch
    /// (and by every later batch with the same membership).
    pub(crate) batch: Arc<[NodeId]>,
    /// Which members of `batch` the run is bound for.
    to: Recipients,
}

/// The recipients of a [`Run`].
enum Recipients {
    /// Every member of the run's batch, in membership order.
    All,
    /// These of the bucket's legs, in push order.
    Legs(Range<u32>),
}

/// One point-to-point message of a run with listed recipients.
#[derive(Clone, Copy)]
struct Leg {
    /// Global scheduling sequence number; feeds the reorder key.
    seq: u64,
    /// Index of the leg's run in its bucket.
    run: u32,
    /// The recipient's position in the run's batch.
    to: u32,
}

/// Everything arriving at one instant.
pub(crate) struct Bucket<P> {
    /// The runs, in push order.
    runs: Vec<Run<P>>,
    /// The legs of the listed runs: in push order (contiguous per run) while
    /// queued and when popped without a reorder seed; sorted by `(reorder
    /// key, seq)` when popped with one.
    legs: Vec<Leg>,
    /// Whether `legs` has been sorted into landing order (see above).
    sorted: bool,
    /// Point-to-point messages held.
    messages: usize,
    /// The traffic item the last run belongs to (see [`Calendar::item`]).
    item: u64,
}

impl<P> Default for Bucket<P> {
    fn default() -> Self {
        Bucket {
            runs: Vec::new(),
            legs: Vec::new(),
            sorted: false,
            messages: 0,
            item: 0,
        }
    }
}

impl<P> Bucket<P> {
    /// Visits a popped bucket's messages in landing order: a run bound for
    /// its whole batch at once (`None`, standing for every position in
    /// membership order), any other message by its recipient's position in
    /// the run's batch.
    pub(crate) fn for_each(&self, mut visit: impl FnMut(&Run<P>, Option<usize>)) {
        if self.sorted {
            for leg in &self.legs {
                visit(&self.runs[leg.run as usize], Some(leg.to as usize));
            }
            return;
        }
        for run in &self.runs {
            match &run.to {
                Recipients::All => visit(run, None),
                Recipients::Legs(legs) => {
                    for leg in &self.legs[legs.start as usize..legs.end as usize] {
                        visit(run, Some(leg.to as usize));
                    }
                }
            }
        }
    }
}

/// Pending arrival instants in time order (see module docs).
pub(crate) struct Calendar<P> {
    buckets: BTreeMap<u64, Bucket<P>>,
    reorder_seed: Option<u64>,
    /// The traffic item being scheduled; its legs coalesce into one run per
    /// arrival instant.
    item: u64,
    /// Point-to-point messages scheduled and not yet popped.
    in_flight: usize,
    /// Runs pushed so far — the deterministic work counter behind
    /// [`Engine::flight_entries`](crate::Engine::flight_entries).
    entries: u64,
    /// Drained buckets, reused so steady-state scheduling does not allocate.
    spare: Vec<Bucket<P>>,
}

/// The traffic item being scheduled (see [`Calendar::item`]).
pub(crate) struct Item<'a, P> {
    calendar: &'a mut Calendar<P>,
    from: NodeId,
    payload: &'a Shared<P>,
    sent_round: u64,
    batch: &'a Arc<[NodeId]>,
}

impl<P> Calendar<P> {
    /// An empty calendar; with a `reorder_seed`, same-instant messages land in
    /// the order of a key derived from it and their sequence numbers.
    pub(crate) fn new(reorder_seed: Option<u64>) -> Self {
        Calendar {
            buckets: BTreeMap::new(),
            reorder_seed,
            item: 0,
            in_flight: 0,
            entries: 0,
            spare: Vec::new(),
        }
    }

    /// Number of point-to-point messages still in flight.
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Number of runs pushed so far.
    pub(crate) fn entries(&self) -> u64 {
        self.entries
    }

    /// Opens the next traffic item — one payload of one sender, sent in
    /// `sent_round` by a batch with the correct members `batch`. What is
    /// scheduled through the returned handle becomes one run per distinct
    /// arrival instant.
    pub(crate) fn item<'a>(
        &'a mut self,
        from: NodeId,
        payload: &'a Shared<P>,
        sent_round: u64,
        batch: &'a Arc<[NodeId]>,
    ) -> Item<'a, P> {
        self.item += 1;
        Item {
            calendar: self,
            from,
            payload,
            sent_round,
            batch,
        }
    }

    /// Pops the earliest bucket arriving at or before `horizon`, if any, ready
    /// for [`Bucket::for_each`]. Hand it back through [`Calendar::recycle`]
    /// once walked.
    pub(crate) fn pop_due(&mut self, horizon: u64) -> Option<(u64, Bucket<P>)> {
        let first = self.buckets.first_entry()?;
        if *first.key() > horizon {
            return None;
        }
        let (when, mut bucket) = first.remove_entry();
        self.in_flight -= bucket.messages;
        if let Some(seed) = self.reorder_seed {
            bucket
                .legs
                .sort_by_cached_key(|leg| (derive_seed(seed, leg.seq), leg.seq));
            bucket.sorted = true;
        }
        Some((when, bucket))
    }

    /// Takes a walked bucket's storage back for reuse, dropping its payload
    /// handles.
    pub(crate) fn recycle(&mut self, mut bucket: Bucket<P>) {
        bucket.runs.clear();
        bucket.legs.clear();
        bucket.sorted = false;
        bucket.messages = 0;
        self.spare.push(bucket);
    }
}

impl<P> Item<'_, P> {
    /// The bucket of `when`, with the item's run for that instant as its last
    /// run — opened now if this is the item's first message bound there.
    fn run_at(&mut self, when: u64, whole: bool) -> &mut Bucket<P> {
        let Calendar {
            buckets,
            spare,
            entries,
            item,
            ..
        } = &mut *self.calendar;
        let bucket = buckets
            .entry(when)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        // Item numbers only grow, so a recycled bucket never matches.
        if bucket.item != *item {
            bucket.item = *item;
            *entries += 1;
            let to = if whole {
                Recipients::All
            } else {
                let start = bucket.legs.len() as u32;
                Recipients::Legs(start..start)
            };
            bucket.runs.push(Run {
                from: self.from,
                payload: self.payload.clone(),
                sent_round: self.sent_round,
                batch: Arc::clone(self.batch),
                to,
            });
        }
        bucket
    }

    /// Schedules the item for every member of its batch at `when`; the
    /// members' messages carry the sequence numbers `first_seq..`, in
    /// membership order.
    pub(crate) fn all(&mut self, when: u64, first_seq: u64) {
        let members = self.batch.len();
        if self.calendar.reorder_seed.is_some() {
            // Every message has a reorder key of its own.
            for to in 0..members {
                self.leg(when, first_seq + to as u64, to as u32);
            }
        } else {
            self.calendar.in_flight += members;
            self.run_at(when, true).messages += members;
        }
    }

    /// Schedules the item's message `seq`, bound for position `to` of its
    /// batch, at `when`. Sequence numbers grow from call to call.
    pub(crate) fn leg(&mut self, when: u64, seq: u64, to: u32) {
        self.calendar.in_flight += 1;
        let bucket = self.run_at(when, false);
        let run = bucket.runs.len() - 1;
        match &mut bucket.runs[run].to {
            Recipients::Legs(legs) => legs.end += 1,
            Recipients::All => unreachable!("an item is scheduled whole or leg by leg"),
        }
        bucket.legs.push(Leg {
            seq,
            run: run as u32,
            to,
        });
        bucket.messages += 1;
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};

    use super::*;
    use crate::rng::seeded_rng;
    use rand::Rng;

    /// The reference the calendar replaced: one flight per point-to-point
    /// message in a binary heap, earliest `(when, key, seq)` on top.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct Flight {
        when: u64,
        key: u64,
        seq: u64,
        from: NodeId,
        to: NodeId,
    }

    /// The reorder key of message `seq`.
    fn key(reorder_seed: Option<u64>, seq: u64) -> u64 {
        reorder_seed.map_or(0, |seed| derive_seed(seed, seq))
    }

    #[derive(Default)]
    struct HeapQueue {
        heap: BinaryHeap<Reverse<Flight>>,
    }

    impl HeapQueue {
        fn push(&mut self, flight: Flight) {
            self.heap.push(Reverse(flight));
        }

        fn pop_due(&mut self, horizon: u64) -> Option<Flight> {
            if self.heap.peek().is_some_and(|top| top.0.when <= horizon) {
                self.heap.pop().map(|top| top.0)
            } else {
                None
            }
        }
    }

    /// Drives a calendar and the reference heap with the same point-to-point
    /// messages. Every item's payload is its own serial number, so a popped
    /// `(payload, recipient)` pair names one message and `sent` gives its
    /// sequence number back — the FIFO calendar does not store one.
    struct Model {
        calendar: Calendar<u64>,
        heap: HeapQueue,
        reorder_seed: Option<u64>,
        seq: u64,
        items: u64,
        sent: HashMap<(u64, NodeId), u64>,
    }

    impl Model {
        fn new(reorder_seed: Option<u64>) -> Self {
            Model {
                calendar: Calendar::new(reorder_seed),
                heap: HeapQueue::default(),
                reorder_seed,
                seq: 0,
                items: 0,
                sent: HashMap::new(),
            }
        }

        /// Sends one item from `from` to the given positions of `batch`:
        /// `whole` schedules it as one run for the entire batch at `whens[0]`,
        /// otherwise position `p` arrives at `whens[p]` (`None` = dropped).
        fn send(
            &mut self,
            from: NodeId,
            batch: &Arc<[NodeId]>,
            whens: &[Option<u64>],
            whole: bool,
        ) {
            self.items += 1;
            let payload = Shared::new(self.items);
            let mut item = self.calendar.item(from, &payload, 1, batch);
            if whole {
                item.all(whens[0].unwrap(), self.seq + 1);
            }
            for (position, &to) in batch.iter().enumerate() {
                self.seq += 1;
                let when = if whole { whens[0] } else { whens[position] };
                let Some(when) = when else { continue };
                if !whole {
                    item.leg(when, self.seq, position as u32);
                }
                self.sent.insert((self.items, to), self.seq);
                self.heap.push(Flight {
                    when,
                    key: key(self.reorder_seed, self.seq),
                    seq: self.seq,
                    from,
                    to,
                });
            }
        }

        /// Pops everything due at `horizon` from both queues, expanded to
        /// flights in landing order.
        fn pop_due(&mut self, horizon: u64) -> (Vec<Flight>, Vec<Flight>) {
            let mut popped = Vec::new();
            while let Some((when, bucket)) = self.calendar.pop_due(horizon) {
                bucket.for_each(|run, position| {
                    let positions = position.map_or(0..run.batch.len(), |p| p..p + 1);
                    for to in positions.map(|p| run.batch[p]) {
                        let seq = self.sent[&(*run.payload.get(), to)];
                        popped.push(Flight {
                            when,
                            key: key(self.reorder_seed, seq),
                            seq,
                            from: run.from,
                            to,
                        });
                    }
                });
                self.calendar.recycle(bucket);
            }
            let expected = std::iter::from_fn(|| self.heap.pop_due(horizon)).collect();
            (popped, expected)
        }
    }

    fn batch(ids: impl IntoIterator<Item = u64>) -> Arc<[NodeId]> {
        ids.into_iter().map(NodeId::new).collect()
    }

    #[test]
    fn pops_in_time_key_seq_order() {
        // Four single messages, the first at a later instant; with a reorder
        // seed the three same-instant ones land in key order, not push order.
        let seed = 0xC0FFEE;
        let mut model = Model::new(Some(seed));
        let members = batch([2]);
        for when in [5, 3, 3, 3] {
            model.send(NodeId::new(1), &members, &[Some(when)], false);
        }
        let (popped, expected) = model.pop_due(u64::MAX);
        assert_eq!(popped, expected);
        assert_eq!(popped.len(), 4);
        assert_eq!(popped[3].seq, 1, "the later instant lands last");
        let mut by_key = vec![2, 3, 4];
        by_key.sort_by_key(|&seq| derive_seed(seed, seq));
        let order: Vec<u64> = popped[..3].iter().map(|f| f.seq).collect();
        assert_eq!(order, by_key);
        assert_ne!(order, vec![2, 3, 4], "the seed really shuffles this trio");

        // Without a seed every key is 0 and a bucket is FIFO.
        let mut model = Model::new(None);
        for when in [5, 3, 3, 3] {
            model.send(NodeId::new(1), &members, &[Some(when)], false);
        }
        let (popped, expected) = model.pop_due(u64::MAX);
        assert_eq!(popped, expected);
        let order: Vec<u64> = popped.iter().map(|f| f.seq).collect();
        assert_eq!(order, vec![2, 3, 4, 1]);
    }

    #[test]
    fn respects_the_horizon() {
        let mut model = Model::new(None);
        let members = batch([2, 3]);
        model.send(NodeId::new(1), &members, &[Some(10)], true);
        model.send(NodeId::new(1), &members, &[Some(4), None], false);
        assert_eq!(model.calendar.in_flight(), 3, "messages, not entries");
        assert_eq!(model.calendar.entries(), 2);
        let (popped, expected) = model.pop_due(5);
        assert_eq!(popped, expected);
        assert_eq!(popped.len(), 1);
        assert_eq!((popped[0].when, popped[0].seq), (4, 3));
        assert!(model.calendar.pop_due(5).is_none());
        assert_eq!(model.calendar.in_flight(), 2);
        let (popped, expected) = model.pop_due(10);
        assert_eq!(popped, expected);
        assert_eq!(popped.len(), 2);
        assert_eq!(model.calendar.in_flight(), 0);
    }

    #[test]
    fn a_leg_is_smaller_than_the_flight_it_replaced() {
        // What a per-recipient heap entry held: arrival, key, sequence and
        // sending round, both endpoints and a payload handle.
        let flight = 6 * std::mem::size_of::<u64>() + std::mem::size_of::<Shared<u64>>();
        assert_eq!(std::mem::size_of::<Leg>(), 16);
        assert!(std::mem::size_of::<Leg>() < flight);
    }

    #[test]
    fn calendar_pops_what_a_heap_of_single_flights_pops() {
        // Seeded random streams of sends and pops: whole-batch runs, runs that
        // split across instants, dropped messages, unicasts, two memberships,
        // horizons that cut the pending instants in two and leave the rest
        // queued under later sends — with and without a reorder seed.
        for reorder_seed in [None, Some(7), Some(0xDEAD_BEEF)] {
            for stream in 0..40 {
                let mut rng = seeded_rng(derive_seed(0x0CA1_E2DA, stream));
                let mut model = Model::new(reorder_seed);
                let batches = [
                    batch(10..10 + rng.gen_range(1..9u64)),
                    batch([3, 11, 40, 12]),
                ];
                let mut now = 0u64;
                let mut total = 0;
                for _ in 0..rng.gen_range(20..60u32) {
                    for _ in 0..rng.gen_range(0..6u32) {
                        let members = &batches[rng.gen_range(0..2usize)];
                        let from = NodeId::new(rng.gen_range(0..5u64));
                        match rng.gen_range(0..4u32) {
                            0 => {
                                let when = now + rng.gen_range(1..6u64);
                                model.send(from, members, &[Some(when)], true);
                            }
                            1 => {
                                // A unicast: one position, the rest "dropped"
                                // would burn sequence numbers, so use a
                                // one-member batch instead.
                                let to = members[rng.gen_range(0..members.len())];
                                let when = now + rng.gen_range(1..6u64);
                                model.send(from, &batch([to.raw()]), &[Some(when)], false);
                            }
                            _ => {
                                let whens: Vec<Option<u64>> = members
                                    .iter()
                                    .map(|_| {
                                        (rng.gen_range(0..8u32) > 0)
                                            .then(|| now + rng.gen_range(1..4u64))
                                    })
                                    .collect();
                                model.send(from, members, &whens, false);
                            }
                        }
                    }
                    now += rng.gen_range(0..3u64);
                    let (popped, expected) = model.pop_due(now);
                    assert_eq!(popped, expected, "seed {reorder_seed:?}, stream {stream}");
                    assert!(popped.iter().all(|flight| flight.when <= now));
                    total += popped.len();
                    assert_eq!(model.calendar.in_flight(), model.heap.heap.len());
                }
                let (popped, expected) = model.pop_due(u64::MAX);
                assert_eq!(
                    popped, expected,
                    "seed {reorder_seed:?}, stream {stream}: drain"
                );
                assert_eq!(model.calendar.in_flight(), 0);
                assert_eq!(total + popped.len(), model.sent.len());
            }
        }
    }
}
