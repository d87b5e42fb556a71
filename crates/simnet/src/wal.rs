//! Crash-recovery: a write-ahead log with durable-suffix semantics, injectable
//! log faults, and the [`RecoveryManager`] the engine drives it through.
//!
//! Every protocol-visible event of a correct node's round is logged *before* it
//! becomes visible to the network: the inbox it consumed ([`WalRecord::Consumed`]),
//! the digests of the messages it produced ([`WalRecord::Sent`]) and the round
//! commit marker ([`WalRecord::Committed`]). The log is in-memory but models
//! durable storage faithfully:
//!
//! * an **fsync watermark** separates the durable prefix from the volatile
//!   suffix ([`Wal::fsync`] advances it; [`WalConfig::sync_every`] sets the
//!   commit cadence — the default of 1 syncs every round, so a crash loses
//!   nothing);
//! * every record carries a **checksum** sealed at append time; replay verifies
//!   the chain sequentially and truncates at the first mismatch, exactly as a
//!   real log does on a torn or corrupted tail;
//! * [`WalFault`]s injected at restart damage only the unsynced suffix —
//!   [`WalFault::TornTail`] mangles the last unsynced record,
//!   [`WalFault::LoseUnsynced`] drops the whole suffix, and
//!   [`WalFault::Corrupt`] mangles the first unsynced record so the replay
//!   truncates everything from there.
//!
//! Replay ([`Wal::replay`]) groups the valid record prefix into committed
//! rounds; uncommitted trailing records are dropped (a crash mid-round never
//! happened, as far as the recovered node is concerned). The
//! [`RecoveryManager`] then re-steps the node's base snapshot through every
//! replayed round and compares the digests it re-produces against the durable
//! `Sent` records — a mismatch is a **cross-restart equivocation witness**,
//! surfaced per restart in a [`RestartRecord`] and checked by the
//! `recovery/*` oracles in `uba-checker`.

use std::collections::HashMap;
use std::hash::Hasher;

use serde::{Deserialize, Serialize};

use crate::engine::{FastHasher, FastState};
use crate::error::SimError;
use crate::id::NodeId;
use crate::message::{Envelope, Inbox};
use crate::node::{Protocol, RoundContext};
use crate::shared::{payload_digest, Shared};

/// An injectable fault applied to a log at restart. Faults only ever damage
/// the *unsynced* suffix — the durable prefix of a write-ahead log survives any
/// crash by definition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WalFault {
    /// The last unsynced record was torn mid-write: its checksum no longer
    /// matches, so replay drops that one record (and the round it belonged to).
    TornTail,
    /// The entire unsynced suffix never reached the disk.
    LoseUnsynced,
    /// The first unsynced record is corrupt; the sequential checksum chain
    /// truncates the whole suffix from there.
    Corrupt,
}

/// How a crashed node's log is treated when it restarts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RestartPolicy {
    /// The log is intact: replay everything durable.
    Clean,
    /// Apply the given fault to the log before replaying.
    Fault(WalFault),
}

/// Durability knobs for the write-ahead logs managed by a [`RecoveryManager`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalConfig {
    /// Fsync after every `sync_every`-th round commit. The default of 1 syncs
    /// every round, which makes every [`WalFault`] a no-op; fault-injection
    /// tests raise it to open an unsynced suffix.
    pub sync_every: u64,
    /// Once a fully durable log holds at least this many records, the round
    /// commit replaces it with a fresh snapshot base — bounding log growth on
    /// long-horizon (soak) runs.
    pub compact_after: usize,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            sync_every: 1,
            compact_after: 1024,
        }
    }
}

/// One protocol-visible event in a node's write-ahead log.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord<P> {
    /// An inbox message consumed at the start of a round (the payload handle is
    /// shared with the live delivery — logging is allocation-free).
    Consumed {
        /// The round that consumed the message.
        round: u64,
        /// The authenticated sender.
        from: NodeId,
        /// The consumed payload (a shared handle, not a copy).
        payload: Shared<P>,
    },
    /// The digest of one message produced in a round, in production order.
    Sent {
        /// The producing round.
        round: u64,
        /// The payload's 64-bit dedup digest.
        digest: u64,
    },
    /// The round completed; everything logged for it is now replayable.
    Committed {
        /// The committed round.
        round: u64,
    },
}

impl<P> WalRecord<P> {
    /// The round the record belongs to.
    pub fn round(&self) -> u64 {
        match *self {
            WalRecord::Consumed { round, .. }
            | WalRecord::Sent { round, .. }
            | WalRecord::Committed { round } => round,
        }
    }
}

/// A record plus the checksum sealed over it at append time.
#[derive(Clone, Debug)]
struct SealedRecord<P> {
    record: WalRecord<P>,
    checksum: u64,
}

/// The checksum replay verifies: a fast deterministic hash over the record's
/// variant tag and fields (payloads contribute their cached digest, so sealing
/// never re-hashes payload bytes).
fn seal_checksum<P>(record: &WalRecord<P>) -> u64 {
    let mut hasher = FastHasher::default();
    match record {
        WalRecord::Consumed {
            round,
            from,
            payload,
        } => {
            hasher.write_u64(1);
            hasher.write_u64(*round);
            hasher.write_u64(from.raw());
            hasher.write_u64(payload.digest());
        }
        WalRecord::Sent { round, digest } => {
            hasher.write_u64(2);
            hasher.write_u64(*round);
            hasher.write_u64(*digest);
        }
        WalRecord::Committed { round } => {
            hasher.write_u64(3);
            hasher.write_u64(*round);
        }
    }
    hasher.finish()
}

/// One node's write-ahead log (see module docs).
#[derive(Debug)]
pub struct Wal<P> {
    records: Vec<SealedRecord<P>>,
    /// Fsync watermark: `records[..durable]` survive any crash.
    durable: usize,
    /// Rounds already folded into the base snapshot; replay resumes after it.
    base_round: u64,
    /// The round currently being logged (between `begin_round` and `commit`).
    open_round: Option<u64>,
    commits_since_sync: u64,
    config: WalConfig,
}

impl<P> Wal<P> {
    /// An empty log whose base snapshot covers everything up to and including
    /// `base_round`.
    pub fn new(base_round: u64, config: WalConfig) -> Self {
        Wal {
            records: Vec::new(),
            durable: 0,
            base_round,
            open_round: None,
            commits_since_sync: 0,
            config,
        }
    }

    /// The round covered by the base snapshot.
    pub fn base_round(&self) -> u64 {
        self.base_round
    }

    /// Number of records currently in the log.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of records below the fsync watermark.
    pub fn durable_len(&self) -> usize {
        self.durable
    }

    /// The round currently being logged, if a step is in progress.
    pub fn open_round(&self) -> Option<u64> {
        self.open_round
    }

    fn append(&mut self, record: WalRecord<P>) {
        let checksum = seal_checksum(&record);
        self.records.push(SealedRecord { record, checksum });
    }

    /// Opens a round for logging: subsequent `log_consumed` / `log_sent` calls
    /// belong to it until `commit`.
    pub fn begin_round(&mut self, round: u64) {
        self.open_round = Some(round);
    }

    /// Logs one consumed inbox message (write-ahead: called before the node
    /// steps). The handle is cloned, never the payload.
    pub fn log_consumed(&mut self, round: u64, from: NodeId, payload: Shared<P>) {
        self.append(WalRecord::Consumed {
            round,
            from,
            payload,
        });
    }

    /// Logs the digest of one produced message, in production order.
    pub fn log_sent(&mut self, round: u64, digest: u64) {
        self.append(WalRecord::Sent { round, digest });
    }

    /// Commits the open round (if any) and fsyncs per the configured cadence.
    /// Returns whether a round was actually committed.
    pub fn commit_open(&mut self) -> bool {
        let Some(round) = self.open_round.take() else {
            return false;
        };
        self.append(WalRecord::Committed { round });
        self.commits_since_sync += 1;
        if self.commits_since_sync >= self.config.sync_every {
            self.fsync();
        }
        true
    }

    /// Advances the fsync watermark over every record appended so far.
    pub fn fsync(&mut self) {
        self.durable = self.records.len();
        self.commits_since_sync = 0;
    }

    /// Whether every record is below the fsync watermark.
    pub fn is_fully_durable(&self) -> bool {
        self.durable == self.records.len()
    }

    /// Replaces the log with an empty one whose base snapshot covers
    /// `base_round` — the compaction step after a snapshot was taken.
    pub fn compact(&mut self, base_round: u64) {
        self.records.clear();
        self.durable = 0;
        self.base_round = base_round;
        self.open_round = None;
        self.commits_since_sync = 0;
    }

    /// Drops every record above the fsync watermark (the crash semantics of
    /// volatile buffers; also the effect of [`WalFault::LoseUnsynced`]).
    pub fn truncate_to_durable(&mut self) {
        self.records.truncate(self.durable);
        self.open_round = None;
    }

    /// Applies an injectable fault to the unsynced suffix (see [`WalFault`]).
    /// A fully durable log is immune to every fault.
    pub fn apply_fault(&mut self, fault: WalFault) {
        if self.is_fully_durable() {
            return;
        }
        match fault {
            WalFault::TornTail => {
                if let Some(sealed) = self.records.last_mut() {
                    sealed.checksum ^= 0xDEAD_BEEF_DEAD_BEEF;
                }
            }
            WalFault::LoseUnsynced => self.truncate_to_durable(),
            WalFault::Corrupt => {
                let first_unsynced = self.durable;
                if let Some(sealed) = self.records.get_mut(first_unsynced) {
                    sealed.checksum ^= 0x0BAD_C0DE_0BAD_C0DE;
                }
            }
        }
    }

    /// Replays the log: verifies the checksum chain, truncates at the first
    /// mismatch, groups the valid prefix into committed rounds and drops any
    /// uncommitted tail.
    pub fn replay(&self) -> ReplayLog<P> {
        let mut rounds: Vec<ReplayRound<P>> = Vec::new();
        let mut pending: Option<ReplayRound<P>> = None;
        let mut pending_records = 0usize;
        let mut valid = 0usize;
        for sealed in &self.records {
            if seal_checksum(&sealed.record) != sealed.checksum {
                break;
            }
            valid += 1;
            match &sealed.record {
                WalRecord::Consumed {
                    round,
                    from,
                    payload,
                } => {
                    pending_records += 1;
                    pending
                        .get_or_insert_with(|| ReplayRound::empty(*round))
                        .inbox
                        .push(Envelope {
                            from: *from,
                            payload: payload.clone(),
                        });
                }
                WalRecord::Sent { round, digest } => {
                    pending_records += 1;
                    pending
                        .get_or_insert_with(|| ReplayRound::empty(*round))
                        .sent
                        .push(*digest);
                }
                WalRecord::Committed { round } => {
                    let round_entry = pending.take().unwrap_or_else(|| ReplayRound::empty(*round));
                    rounds.push(round_entry);
                    pending_records = 0;
                }
            }
        }
        // Checksum-invalid records and the uncommitted tail never happened.
        let dropped_records = (self.records.len() - valid) + pending_records;
        let consumed_monotone = rounds
            .iter()
            .zip(std::iter::once(self.base_round).chain(rounds.iter().map(|r| r.round)))
            .all(|(next, previous)| next.round > previous);
        ReplayLog {
            base_round: self.base_round,
            rounds,
            dropped_records,
            consumed_monotone,
        }
    }
}

/// One committed round reconstructed from the log.
#[derive(Clone, Debug)]
pub struct ReplayRound<P> {
    /// The round number the node executed.
    pub round: u64,
    /// The inbox it consumed, in delivery order.
    pub inbox: Vec<Envelope<P>>,
    /// The digests of the messages it produced, in production order.
    pub sent: Vec<u64>,
}

impl<P> ReplayRound<P> {
    fn empty(round: u64) -> Self {
        ReplayRound {
            round,
            inbox: Vec::new(),
            sent: Vec::new(),
        }
    }
}

/// The result of replaying a [`Wal`] (see [`Wal::replay`]).
#[derive(Clone, Debug)]
pub struct ReplayLog<P> {
    /// The round the base snapshot covers; replay resumes at the next round.
    pub base_round: u64,
    /// The committed rounds, in log order.
    pub rounds: Vec<ReplayRound<P>>,
    /// Records dropped by checksum truncation or as an uncommitted tail.
    pub dropped_records: usize,
    /// Whether the committed round numbers are strictly increasing starting
    /// above the base — the no-double-consumed-input witness.
    pub consumed_monotone: bool,
}

/// The per-restart recovery audit, recorded by the [`RecoveryManager`] and
/// surfaced through the run report for the `recovery/*` oracles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RestartRecord {
    /// The restarting node.
    pub node: NodeId,
    /// The round before which the node crashed.
    pub crash_round: u64,
    /// The round before which it restarted.
    pub restart_round: u64,
    /// The log policy applied at restart.
    pub policy: RestartPolicy,
    /// Committed rounds present in the replayed log.
    pub recovered_rounds: u64,
    /// Rounds actually re-stepped during recovery (equals `recovered_rounds`
    /// unless replay was cut short — the state-prefix oracle's check).
    pub replayed_rounds: u64,
    /// Replayed rounds whose re-produced message digests differ from the
    /// durable `Sent` records — cross-restart equivocation witnesses.
    pub send_conflicts: u64,
    /// Records dropped by checksum truncation or as an uncommitted tail.
    pub dropped_records: u64,
    /// Whether the replayed rounds were strictly increasing (no input batch
    /// consumed twice).
    pub consumed_monotone: bool,
}

/// Test-only, process-global fault-injection toggles for the recovery path.
pub mod mutation {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// When set, WAL replay skips re-stepping any round that holds durable
    /// `Sent` records — the injected bug the cross-restart equivocation oracle
    /// must catch (the recovered node "forgets" it already sent, and the
    /// skipped state transitions desynchronise it from its own log).
    pub static SKIP_SENT_REPLAY: AtomicBool = AtomicBool::new(false);

    /// Reads [`SKIP_SENT_REPLAY`].
    pub fn skip_sent_replay() -> bool {
        SKIP_SENT_REPLAY.load(Ordering::Relaxed)
    }

    /// Sets [`SKIP_SENT_REPLAY`].
    pub fn set_skip_sent_replay(enabled: bool) {
        SKIP_SENT_REPLAY.store(enabled, Ordering::Relaxed)
    }
}

/// The engine-side recovery subsystem: one [`Wal`] and one base snapshot (a
/// clone of the node) per logged node, the crashed-node parking lot, and the
/// restart/replay path.
/// The [`Engine`](crate::Engine) drives it, under either delivery policy,
/// through three hooks —
/// `begin_step` (before a node consumes its inbox), `log_sent` (per produced
/// traffic item) and `commit_step` (after the round, before the adversary
/// observes the traffic: a send becomes network-visible only once durable).
pub struct RecoveryManager<N: Protocol> {
    config: WalConfig,
    // The maps are looked up per node per round and per traffic item, and
    // never observed through their iteration order (`wal_entries` is a sum),
    // so they use the engine's fast hasher.
    wals: HashMap<NodeId, Wal<N::Payload>, FastState>,
    bases: HashMap<NodeId, N, FastState>,
    /// Crashed correct nodes: id → crash round.
    crashed: HashMap<NodeId, u64, FastState>,
    /// Crashed Byzantine identities (no state to recover — the adversary is).
    crashed_byzantine: Vec<NodeId>,
    restarts: Vec<RestartRecord>,
}

impl<N: Protocol> RecoveryManager<N> {
    /// Creates a manager whose logs follow `config`.
    pub fn new(config: WalConfig) -> Self {
        RecoveryManager {
            config,
            wals: HashMap::default(),
            bases: HashMap::default(),
            crashed: HashMap::default(),
            crashed_byzantine: Vec::new(),
            restarts: Vec::new(),
        }
    }

    fn ensure_logged(&mut self, node: &N, round: u64) {
        let id = node.id();
        if !self.wals.contains_key(&id) {
            self.bases.insert(id, node.clone());
            self.wals
                .insert(id, Wal::new(round.saturating_sub(1), self.config));
        }
    }

    /// Pre-step hook: snapshots the node on its first logged step, opens the
    /// round and logs the inbox about to be consumed — one record per entry of
    /// the view, in delivery order, each holding the entry's own payload
    /// handle (see `docs/RECOVERY.md` on why the common list is not logged as
    /// one record).
    pub fn begin_step(&mut self, node: &N, round: u64, inbox: Inbox<'_, N::Payload>) {
        self.ensure_logged(node, round);
        let wal = self
            .wals
            .get_mut(&node.id())
            .expect("ensure_logged inserted the log");
        wal.begin_round(round);
        inbox.for_each_handle(|from, payload| wal.log_consumed(round, from, payload));
    }

    /// Per-traffic-item hook: logs one produced message digest against the
    /// sender's open round. Senders without a log (Byzantine identities,
    /// terminated nodes) are skipped.
    pub fn log_sent(&mut self, id: NodeId, digest: u64) {
        self.log_sends([(id, digest)]);
    }

    /// [`RecoveryManager::log_sent`] over a round's traffic, in production
    /// order: a sender's log is looked up once per run of consecutive items
    /// from that sender, not once per item.
    pub fn log_sends(&mut self, sends: impl IntoIterator<Item = (NodeId, u64)>) {
        let mut sender = None;
        let mut open: Option<(&mut Wal<N::Payload>, u64)> = None;
        for (id, digest) in sends {
            if sender != Some(id) {
                sender = Some(id);
                open = self
                    .wals
                    .get_mut(&id)
                    .and_then(|wal| wal.open_round().map(|round| (wal, round)));
            }
            if let Some((wal, round)) = &mut open {
                wal.log_sent(*round, digest);
            }
        }
    }

    /// Post-step hook: commits the node's open round (fsyncing per cadence)
    /// and compacts a fully durable, oversized log onto a fresh snapshot.
    pub fn commit_step(&mut self, node: &N) {
        let id = node.id();
        let Some(wal) = self.wals.get_mut(&id) else {
            return;
        };
        let Some(round) = wal.open_round() else {
            return;
        };
        wal.commit_open();
        if wal.is_fully_durable() && wal.len() >= self.config.compact_after {
            let base = node.clone();
            wal.compact(round);
            self.bases.insert(id, base);
        }
    }

    /// Crashes a correct node: its volatile state (the passed value) is
    /// dropped; only the base snapshot and the durable-semantics log survive.
    pub fn crash(&mut self, node: N, round: u64) {
        self.ensure_logged(&node, round);
        self.crashed.insert(node.id(), round);
    }

    /// Records a crashed Byzantine identity (nothing to recover — only the
    /// membership bookkeeping needs to remember it for the restart).
    pub fn crash_byzantine(&mut self, id: NodeId) {
        if !self.crashed_byzantine.contains(&id) {
            self.crashed_byzantine.push(id);
        }
    }

    /// Takes a crashed Byzantine identity, returning whether it was one.
    pub fn take_crashed_byzantine(&mut self, id: NodeId) -> bool {
        let Some(index) = self.crashed_byzantine.iter().position(|&b| b == id) else {
            return false;
        };
        self.crashed_byzantine.remove(index);
        true
    }

    /// Whether `id` is currently parked as a crashed node (of either kind).
    pub fn is_crashed(&self, id: NodeId) -> bool {
        self.crashed.contains_key(&id) || self.crashed_byzantine.contains(&id)
    }

    /// Restarts a crashed correct node: applies the restart policy's fault,
    /// replays the log over the base snapshot (re-stepping every committed
    /// round and auditing the re-produced sends against the durable records),
    /// installs a compacted log whose base is the recovered state, and returns
    /// the node for re-admission through the engine's membership path.
    pub fn restart(
        &mut self,
        id: NodeId,
        policy: RestartPolicy,
        round: u64,
    ) -> Result<N, SimError> {
        let crash_round = self.crashed.remove(&id).ok_or(SimError::UnknownNode(id))?;
        let wal = self.wals.get_mut(&id).ok_or(SimError::UnknownNode(id))?;
        if let RestartPolicy::Fault(fault) = policy {
            wal.apply_fault(fault);
        }
        let log = wal.replay();
        let mut node = self.bases.remove(&id).ok_or(SimError::UnknownNode(id))?;
        let mut replayed_rounds = 0u64;
        let mut send_conflicts = 0u64;
        for replay_round in &log.rounds {
            let produced: Vec<u64> =
                if mutation::skip_sent_replay() && !replay_round.sent.is_empty() {
                    Vec::new()
                } else {
                    replayed_rounds += 1;
                    let ctx = RoundContext::new(replay_round.round);
                    node.step(&ctx, Inbox::from(&replay_round.inbox[..]))
                        .into_iter()
                        .map(|message| payload_digest(&message.payload))
                        .collect()
                };
            if produced != replay_round.sent {
                send_conflicts += 1;
            }
        }
        self.restarts.push(RestartRecord {
            node: id,
            crash_round,
            restart_round: round,
            policy,
            recovered_rounds: log.rounds.len() as u64,
            replayed_rounds,
            send_conflicts,
            dropped_records: log.dropped_records as u64,
            consumed_monotone: log.consumed_monotone,
        });
        // The recovered state becomes the new base; the old log is spent.
        let new_base_round = log.rounds.last().map_or(log.base_round, |r| r.round);
        self.bases.insert(id, node.clone());
        self.wals.insert(id, Wal::new(new_base_round, self.config));
        Ok(node)
    }

    /// Every restart performed so far, in application order.
    pub fn restarts(&self) -> &[RestartRecord] {
        &self.restarts
    }

    /// Total records across all live logs — the WAL component of the soak
    /// driver's memory proxy.
    pub fn wal_entries(&self) -> usize {
        self.wals.values().map(Wal::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Outgoing;

    fn consumed(wal: &mut Wal<u64>, round: u64, from: u64, payload: u64) {
        wal.log_consumed(round, NodeId::new(from), Shared::new(payload));
    }

    /// Logs `rounds` simple rounds: round r consumes one message and sends one.
    fn sample_wal(config: WalConfig, rounds: u64) -> Wal<u64> {
        let mut wal = Wal::new(0, config);
        for round in 1..=rounds {
            wal.begin_round(round);
            consumed(&mut wal, round, 100 + round, round * 10);
            wal.log_sent(round, round * 1000);
            wal.commit_open();
        }
        wal
    }

    #[test]
    fn replay_reconstructs_committed_rounds() {
        let wal = sample_wal(WalConfig::default(), 3);
        assert!(wal.is_fully_durable(), "sync_every=1 syncs every commit");
        let log = wal.replay();
        assert_eq!(log.base_round, 0);
        assert_eq!(log.rounds.len(), 3);
        assert_eq!(log.dropped_records, 0);
        assert!(log.consumed_monotone);
        for (i, round) in log.rounds.iter().enumerate() {
            let r = (i + 1) as u64;
            assert_eq!(round.round, r);
            assert_eq!(round.inbox.len(), 1);
            assert_eq!(round.inbox[0].from, NodeId::new(100 + r));
            assert_eq!(round.inbox[0].payload, r * 10);
            assert_eq!(round.sent, vec![r * 1000]);
        }
    }

    #[test]
    fn uncommitted_tail_is_dropped() {
        let mut wal = sample_wal(WalConfig::default(), 2);
        wal.begin_round(3);
        consumed(&mut wal, 3, 103, 30);
        wal.log_sent(3, 3000);
        // No commit: the crash hit mid-round.
        let log = wal.replay();
        assert_eq!(log.rounds.len(), 2);
        assert_eq!(log.dropped_records, 2);
        assert!(log.consumed_monotone);
    }

    #[test]
    fn every_fault_is_a_noop_on_a_fully_durable_log() {
        for fault in [
            WalFault::TornTail,
            WalFault::LoseUnsynced,
            WalFault::Corrupt,
        ] {
            let mut wal = sample_wal(WalConfig::default(), 3);
            wal.apply_fault(fault);
            let log = wal.replay();
            assert_eq!(log.rounds.len(), 3, "{fault:?} damaged a durable log");
            assert_eq!(log.dropped_records, 0);
        }
    }

    /// With `sync_every = 4`, three committed rounds leave the whole log
    /// unsynced — the suffix every fault attacks.
    fn unsynced_config() -> WalConfig {
        WalConfig {
            sync_every: 4,
            ..WalConfig::default()
        }
    }

    #[test]
    fn torn_tail_drops_exactly_the_last_record() {
        let mut wal = sample_wal(unsynced_config(), 3);
        assert_eq!(wal.durable_len(), 0);
        wal.apply_fault(WalFault::TornTail);
        let log = wal.replay();
        // The torn record is round 3's commit marker: round 3 never happened.
        assert_eq!(log.rounds.len(), 2);
        assert_eq!(log.dropped_records, 3, "torn commit plus round 3's records");
        assert!(log.consumed_monotone);
    }

    #[test]
    fn lose_unsynced_truncates_to_the_watermark() {
        let mut wal = sample_wal(unsynced_config(), 3);
        wal.apply_fault(WalFault::LoseUnsynced);
        assert!(wal.is_empty(), "nothing was ever synced");
        assert_eq!(wal.replay().rounds.len(), 0);

        // Sync mid-way: the durable prefix survives.
        let mut wal = Wal::<u64>::new(0, unsynced_config());
        wal.begin_round(1);
        wal.log_sent(1, 11);
        wal.commit_open();
        wal.fsync();
        wal.begin_round(2);
        wal.log_sent(2, 22);
        wal.commit_open();
        wal.apply_fault(WalFault::LoseUnsynced);
        let log = wal.replay();
        assert_eq!(log.rounds.len(), 1);
        assert_eq!(log.rounds[0].sent, vec![11]);
    }

    #[test]
    fn corrupt_truncates_the_whole_unsynced_suffix() {
        let mut wal = Wal::<u64>::new(0, unsynced_config());
        wal.begin_round(1);
        wal.log_sent(1, 11);
        wal.commit_open();
        wal.fsync();
        for round in 2..=3 {
            wal.begin_round(round);
            wal.log_sent(round, round * 11);
            wal.commit_open();
        }
        wal.apply_fault(WalFault::Corrupt);
        let log = wal.replay();
        assert_eq!(log.rounds.len(), 1, "replay stops at the corrupt record");
        assert_eq!(log.dropped_records, 4, "both unsynced rounds dropped");
    }

    #[test]
    fn fault_replay_is_deterministic() {
        for fault in [
            WalFault::TornTail,
            WalFault::LoseUnsynced,
            WalFault::Corrupt,
        ] {
            let run = || {
                let mut wal = sample_wal(unsynced_config(), 5);
                wal.apply_fault(fault);
                let log = wal.replay();
                (
                    log.rounds
                        .iter()
                        .map(|r| (r.round, r.sent.clone()))
                        .collect::<Vec<_>>(),
                    log.dropped_records,
                    log.consumed_monotone,
                )
            };
            assert_eq!(run(), run(), "{fault:?} replay must be reproducible");
        }
    }

    #[test]
    fn compaction_resets_the_log() {
        let mut wal = sample_wal(WalConfig::default(), 4);
        wal.compact(4);
        assert!(wal.is_empty());
        assert_eq!(wal.base_round(), 4);
        let log = wal.replay();
        assert_eq!(log.rounds.len(), 0);
        assert_eq!(log.base_round, 4);
    }

    /// A deterministic protocol for manager tests: broadcasts its round count
    /// until `quota` sends are done, then outputs the sum of payloads heard.
    #[derive(Clone, Debug)]
    struct Logger {
        id: NodeId,
        quota: u64,
        sends: u64,
        heard: u64,
        done: bool,
    }

    impl Logger {
        fn new(id: NodeId, quota: u64) -> Self {
            Logger {
                id,
                quota,
                sends: 0,
                heard: 0,
                done: false,
            }
        }
    }

    impl Protocol for Logger {
        type Payload = u64;
        type Output = u64;

        fn id(&self) -> NodeId {
            self.id
        }

        fn step(&mut self, ctx: &RoundContext, inbox: Inbox<'_, u64>) -> Vec<Outgoing<u64>> {
            self.heard += inbox.iter().map(|(_, payload)| payload).sum::<u64>();
            if self.sends < self.quota {
                self.sends += 1;
                vec![Outgoing::broadcast(self.id.raw() * 1000 + ctx.round)]
            } else {
                self.done = true;
                vec![]
            }
        }

        fn output(&self) -> Option<u64> {
            self.done.then_some(self.heard)
        }
    }

    #[test]
    fn manager_recovers_a_node_exactly() {
        let mut manager: RecoveryManager<Logger> = RecoveryManager::new(WalConfig::default());
        let mut live = Logger::new(NodeId::new(7), 10);
        // Drive three rounds through the hooks, mirroring the engine.
        for round in 1..=3u64 {
            let inbox = [Envelope::new(NodeId::new(9), round * 5)];
            let inbox = Inbox::from(&inbox[..]);
            manager.begin_step(&live, round, inbox);
            let ctx = RoundContext::new(round);
            for message in live.step(&ctx, inbox) {
                manager.log_sent(live.id(), payload_digest(&message.payload));
            }
            manager.commit_step(&live);
        }
        let reference = live.clone();
        manager.crash(live, 4);
        assert!(manager.is_crashed(NodeId::new(7)));
        let recovered = manager
            .restart(NodeId::new(7), RestartPolicy::Clean, 5)
            .unwrap();
        assert_eq!(recovered.heard, reference.heard);
        assert_eq!(recovered.sends, reference.sends);
        let record = manager.restarts()[0];
        assert_eq!(record.node, NodeId::new(7));
        assert_eq!(record.crash_round, 4);
        assert_eq!(record.restart_round, 5);
        assert_eq!(record.recovered_rounds, 3);
        assert_eq!(record.replayed_rounds, 3);
        assert_eq!(record.send_conflicts, 0, "replay reproduces the log");
        assert_eq!(record.dropped_records, 0);
        assert!(record.consumed_monotone);
        assert!(!manager.is_crashed(NodeId::new(7)));
    }

    #[test]
    fn restarting_an_unknown_node_is_an_error() {
        let mut manager: RecoveryManager<Logger> = RecoveryManager::new(WalConfig::default());
        assert_eq!(
            manager
                .restart(NodeId::new(3), RestartPolicy::Clean, 2)
                .unwrap_err(),
            SimError::UnknownNode(NodeId::new(3))
        );
    }

    #[test]
    fn byzantine_crash_cycle_is_pure_bookkeeping() {
        let mut manager: RecoveryManager<Logger> = RecoveryManager::new(WalConfig::default());
        manager.crash_byzantine(NodeId::new(42));
        assert!(manager.is_crashed(NodeId::new(42)));
        assert!(manager.take_crashed_byzantine(NodeId::new(42)));
        assert!(!manager.take_crashed_byzantine(NodeId::new(42)));
    }

    #[test]
    fn restart_policies_serde_round_trip() {
        for policy in [
            RestartPolicy::Clean,
            RestartPolicy::Fault(WalFault::TornTail),
            RestartPolicy::Fault(WalFault::LoseUnsynced),
            RestartPolicy::Fault(WalFault::Corrupt),
        ] {
            let value = Serialize::to_value(&policy);
            let back: RestartPolicy = Deserialize::from_value(&value).unwrap();
            assert_eq!(back, policy);
        }
    }
}
