//! Byzantine consensus in `O(f)` rounds without knowing `n` or `f`
//! (Algorithm 3, Section VII).
//!
//! Every correct node starts with an opinion `x_v` (a real number in the paper; any
//! [`Opinion`] type here) and must output a common value that was the input of some
//! correct node; if all correct inputs are equal, that value must be the output
//! (validity). The algorithm generalises the phase-king / rotor-coordinator approach
//! of Berman, Garay and Perry: each *phase* consists of five rounds —
//!
//! 1. broadcast `input(x_v)`;
//! 2. on receiving `≥ 2n_v/3` matching inputs, broadcast `prefer(x)`;
//! 3. on `≥ n_v/3` matching prefers adopt the value, on `≥ 2n_v/3` broadcast
//!    `strongprefer(x)`;
//! 4. execute one round of the rotor-coordinator, distributing the node's current
//!    opinion if it happens to be the selected coordinator;
//! 5. if fewer than `n_v/3` matching strong-prefers arrived, adopt the coordinator's
//!    opinion; if `≥ 2n_v/3` arrived, decide and terminate.
//!
//! Two details of the paper's initialisation matter for liveness and are implemented
//! here exactly as specified: `n_v` is **frozen** after the two initialisation rounds
//! (messages from nodes that did not participate in initialisation are discarded), and
//! a member that was counted during initialisation but stays silent in a later round
//! is assumed to have sent *the same message this node sent in the previous round*
//! (the "missing message substitution" rule) — this keeps the `2n_v/3` thresholds
//! reachable after Byzantine nodes go silent or correct nodes terminate early.
//!
//! # Working state, and one pass over the inbox
//!
//! What a node needs only while deciding — roster, rotor, votes — sits in one box
//! its first step creates and its decision releases, so building a node allocates
//! nothing and a decided node holds nothing but its decision.
//!
//! From round 3 on a step reads its inbox once ([`SenderTracker::ranked`]): each
//! sender is resolved to its rank once per run of consecutive entries, a non-member's
//! entries are skipped, the member is marked as heard this phase, an `Echo` goes to
//! the rotor's [`EchoVotes`] and a vote of the kind this phase step counts goes
//! straight into the step's tally. The rounds whose inbox is the ~n² rotor echoes
//! cost one bit operation per entry. Who spoke this phase is *not* marked in the
//! `Input` step: its inbox carries the previous phase's last rotor echoes, and a
//! member that has only finished the previous phase has not spoken in this one.
//! A resolve step whose decision is already fixed — the roster frozen, the stashed
//! strong-prefer plurality at `2n_v/3` — skips the pass: its inbox is the second
//! rotor echo wave and the coordinator's opinion, and the decision discards both.
//!
//! # Counted once per roster
//!
//! A correct node can only broadcast, so every correct recipient of a round reads
//! the same common list ([`Inbox::split_common`]), and what the pass makes of it —
//! members heard, echoes, votes, each sender's first opinion — depends on nothing
//! but that list, the phase step and the node's roster. The nodes one
//! [`ConsensusFactory`](crate::sim::ConsensusFactory) builds share a
//! [`CommonTally`]: the first node to step over a keyed common part walks it into
//! a summary, keyed by the part's [`CommonKey`], the step and the rank-ordered
//! roster; every node with that key ORs the summary into its own state and walks
//! only its own part. Both walks are the one pass above. The memo holds the
//! current batch only. What the nodes would otherwise hold n copies of, they
//! share: a node whose echoes are empty takes the summary's echo wave by
//! reference until its own part adds an echo, and a frozen roster is replaced by
//! the run's copy of an equal one.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use uba_simnet::{CommonKey, Inbox, NodeId, Outgoing, Protocol, RoundContext};

/// Runtime mutation hooks for mutation-testing the fuzzing stack itself (see
/// `uba_core::reliable_broadcast::mutation` for the pattern). Process-global:
/// integration tests that flip a hook must run alone in their test binary.
pub mod mutation {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// When set, a node that observes a *clean equivocation pair* in its input
    /// tally — one sender voting exactly two distinct values, each of which is
    /// also supported by at least one single-valued voter — decides the smaller
    /// of the pair immediately, skipping the strong-prefer and rotor safeguards.
    ///
    /// The trigger shape is deliberately out of reach of every scripted
    /// behaviour: the preset split-vote and the `Semantic`/`Equivocate`
    /// partitions send *one* value per recipient (no per-sender pair), and the
    /// `Noise` scatter only pairs values alongside the saturating garbage vote
    /// from the same sender (value-set size 3, or a garbage value with no
    /// single-valued supporter). Only an adaptive adversary that concentrates
    /// the full plausible vocabulary — valid plus the boundary pair, no
    /// garbage — on a single victim (`AdaptiveStrategy::StarveWeakest`)
    /// produces the clean pair.
    pub static DECIDE_ON_EQUIVOCATION_PAIR: AtomicBool = AtomicBool::new(false);

    /// Whether the equivocation-pair early-decide mutation is active.
    pub fn decide_on_equivocation_pair() -> bool {
        DECIDE_ON_EQUIVOCATION_PAIR.load(Ordering::Relaxed)
    }

    /// Enables or disables the equivocation-pair early-decide mutation.
    pub fn set_decide_on_equivocation_pair(enabled: bool) {
        DECIDE_ON_EQUIVOCATION_PAIR.store(enabled, Ordering::Relaxed);
    }
}

use crate::membership::SenderTracker;
use crate::quorum::{meets_one_third, meets_two_thirds};
use crate::rotor::{EchoVotes, RotorMessage, RotorState};
use crate::value::Opinion;
use crate::vote::{VoteTally, VoterSet};

/// Wire messages of the consensus protocol.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConsensusMessage<V> {
    /// Rotor initialisation (round 1).
    Init,
    /// Rotor candidate echo (round 2 and rotor rounds).
    Echo(NodeId),
    /// Coordinator opinion (rotor rounds).
    Opinion(V),
    /// Phase step 1: the node's current opinion.
    Input(V),
    /// Phase step 2: weak preference.
    Prefer(V),
    /// Phase step 3: strong preference.
    StrongPrefer(V),
}

/// The decision produced by a node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision<V> {
    /// The decided value.
    pub value: V,
    /// The phase (1-based) in which the node decided.
    pub phase: u64,
    /// The network round in which the node decided.
    pub round: u64,
}

/// Where a node is inside the five-round phase structure (parallel consensus
/// runs the same schedule).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PhaseStep {
    /// Broadcast `input(x_v)`.
    Input,
    /// Receive inputs, broadcast `prefer`.
    Prefer,
    /// Receive prefers, broadcast `strongprefer`.
    StrongPrefer,
    /// Receive strong-prefers (stashed), execute a rotor round.
    Rotor,
    /// Receive rotor opinions, apply the strong-prefer rule, possibly decide.
    Resolve,
}

impl PhaseStep {
    pub(crate) fn from_round(round: u64) -> Option<PhaseStep> {
        if round < 3 {
            return None;
        }
        Some(match (round - 3) % 5 {
            0 => PhaseStep::Input,
            1 => PhaseStep::Prefer,
            2 => PhaseStep::StrongPrefer,
            3 => PhaseStep::Rotor,
            _ => PhaseStep::Resolve,
        })
    }

    /// The value `message` votes for, if it is of the kind this step counts.
    fn vote<V>(self, message: &ConsensusMessage<V>) -> Option<&V> {
        match (self, message) {
            (PhaseStep::Prefer, ConsensusMessage::Input(v))
            | (PhaseStep::StrongPrefer, ConsensusMessage::Prefer(v))
            | (PhaseStep::Rotor, ConsensusMessage::StrongPrefer(v)) => Some(v),
            _ => None,
        }
    }
}

/// What the pass over a phase step's inbox accumulates: a node's running state,
/// or a [`CommonTally`] summary of one common part, which nodes merge into theirs.
#[derive(Clone, Debug)]
struct Heard<V: Opinion> {
    /// Members heard from since the start of the current phase. The missing-message
    /// substitution only applies to members *outside* this set: a node that has spoken
    /// at all during the phase (e.g. broadcast its input but then legitimately had no
    /// preference to announce) is never substituted — only nodes that went completely
    /// silent (counted-but-mute Byzantine nodes, or correct nodes that already
    /// terminated) are, which is exactly what keeps the thresholds reachable without
    /// letting a node manufacture quorums out of its own opinion.
    members: VoterSet,
    /// Rotor echoes received since the last rotor round; `None` while there are
    /// none. A node shares the summary's until its own part adds an echo (copy
    /// on write), so the nodes of a round hold one copy of an echo wave, not n.
    echoes: Option<Rc<EchoVotes>>,
    /// This step's votes of the kind it counts.
    votes: VoteTally<V>,
    /// Resolve steps only: each sender's first `Opinion`, in arrival order.
    opinions: Vec<(NodeId, V)>,
}

impl<V: Opinion> Default for Heard<V> {
    fn default() -> Self {
        Heard {
            members: VoterSet::default(),
            echoes: None,
            votes: VoteTally::new(),
            opinions: Vec::new(),
        }
    }
}

impl<V: Opinion> Heard<V> {
    /// The one pass ([`SenderTracker::ranked`]) over `part`, in delivery order.
    /// Returns the entries walked.
    fn walk(
        &mut self,
        part: Inbox<'_, ConsensusMessage<V>>,
        step: PhaseStep,
        senders: &SenderTracker,
    ) -> u64 {
        for (from, member, message) in senders.ranked(part) {
            if step != PhaseStep::Input {
                self.members.insert(member);
            }
            match message {
                ConsensusMessage::Echo(candidate) => {
                    Rc::make_mut(self.echoes.get_or_insert_with(Rc::default))
                        .insert(*candidate, member)
                }
                // The coordinator's opinion (broadcast in the rotor round)
                // arrives in the resolve round; its first word counts.
                ConsensusMessage::Opinion(v) if step == PhaseStep::Resolve => {
                    if self.opinion_of(from).is_none() {
                        self.opinions.push((from, v.clone()));
                    }
                }
                _ => {
                    if let Some(value) = step.vote(message) {
                        self.votes.insert(member, value);
                    }
                }
            }
        }
        part.len() as u64
    }

    /// Adds what walking `summary`'s part added: what walking that part here
    /// would have.
    fn merge(&mut self, summary: &Heard<V>) {
        self.members.union(&summary.members);
        match (&mut self.echoes, &summary.echoes) {
            (_, None) => {}
            (mine @ None, Some(theirs)) => *mine = Some(Rc::clone(theirs)),
            (Some(mine), Some(theirs)) => Rc::make_mut(mine).union(theirs),
        }
        self.votes.union(&summary.votes);
        for (from, v) in &summary.opinions {
            if self.opinion_of(*from).is_none() {
                self.opinions.push((*from, v.clone()));
            }
        }
    }

    /// The first opinion `sender` sent this step.
    fn opinion_of(&self, sender: NodeId) -> Option<&V> {
        self.opinions
            .iter()
            .find(|(from, _)| *from == sender)
            .map(|(_, v)| v)
    }

    /// Ends the step's opinions: the first one `sender` sent, if any.
    fn take_opinion_of(&mut self, sender: Option<NodeId>) -> Option<V> {
        std::mem::take(&mut self.opinions)
            .into_iter()
            .find(|(from, _)| Some(*from) == sender)
            .map(|(_, v)| v)
    }
}

/// Everything a node needs only while it is still deciding: created by its first
/// step (building a node allocates nothing, and a stream builds thousands of them
/// before any of them runs) and released with the decision — a decided node never
/// steps again, so it keeps its decision and drops its roster, rotor and votes then,
/// not when the run is torn down.
#[derive(Clone, Debug)]
struct Deliberation<V: Opinion> {
    /// Once frozen, shared with every node of the run that froze the same
    /// roster ([`CommonTally::share_roster`]).
    senders: Rc<SenderTracker>,
    rotor: RotorState<V>,
    /// Who spoke this phase, the pending rotor echoes and this step's votes.
    heard: Heard<V>,
    /// Strong-prefer tally received in the rotor round, applied in the resolve round.
    stashed_strong: VoteTally<V>,
    /// The coordinator selected in this phase's rotor round.
    phase_coordinator: Option<NodeId>,
    /// Messages this node broadcast in the previous round (for the substitution rule).
    last_broadcast: Vec<ConsensusMessage<V>>,
}

impl<V: Opinion> Default for Deliberation<V> {
    fn default() -> Self {
        Deliberation {
            senders: Rc::default(),
            rotor: RotorState::new(),
            heard: Heard::default(),
            stashed_strong: VoteTally::new(),
            phase_coordinator: None,
            last_broadcast: Vec::new(),
        }
    }
}

/// What the nodes sharing a [`CommonTally`] walked. Measurement only: it never
/// enters a report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TallyWork {
    /// Common parts walked into a shared summary.
    pub summaries: u64,
    /// Inbox entries walked by the tally pass: a summarised common part once,
    /// every other entry once per node that read it.
    pub entries_walked: u64,
}

/// The memo one simulation's consensus nodes share (see the module docs):
/// summaries of the common parts walked for the current batch, each under its
/// common part's prefix length, the phase step and the roster that walked it.
/// Cloning the handle shares the memo.
#[derive(Clone)]
pub struct CommonTally<V: Opinion>(Rc<RefCell<Memo<V>>>);

struct Memo<V: Opinion> {
    /// The batch the summaries were walked for.
    generation: u64,
    summaries: Vec<Summary<V>>,
    /// The distinct frozen rosters of the run.
    rosters: Vec<Rc<SenderTracker>>,
    work: TallyWork,
}

/// One walked common part, with what it was walked under.
struct Summary<V: Opinion> {
    prefix: usize,
    step: PhaseStep,
    roster: Rc<SenderTracker>,
    heard: Heard<V>,
}

impl<V: Opinion> Default for CommonTally<V> {
    fn default() -> Self {
        CommonTally::new()
    }
}

impl<V: Opinion> fmt::Debug for CommonTally<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CommonTally").finish_non_exhaustive()
    }
}

impl<V: Opinion> CommonTally<V> {
    /// An empty memo.
    pub fn new() -> Self {
        CommonTally(Rc::new(RefCell::new(Memo {
            generation: 0,
            summaries: Vec::new(),
            rosters: Vec::new(),
            work: TallyWork::default(),
        })))
    }

    /// What the nodes sharing the memo have walked so far.
    pub fn work(&self) -> TallyWork {
        self.0.borrow().work
    }

    /// Merges the summary of the common part `key` names into `heard`, walking
    /// `common` into one first if no node with this step and roster has.
    fn merge_common(
        &self,
        key: CommonKey,
        common: Inbox<'_, ConsensusMessage<V>>,
        step: PhaseStep,
        senders: &Rc<SenderTracker>,
        heard: &mut Heard<V>,
    ) {
        let memo = &mut *self.0.borrow_mut();
        if memo.generation != key.generation() {
            memo.generation = key.generation();
            memo.summaries.clear();
        }
        // Frozen rosters are shared, so an equal roster is usually the same one.
        let found = memo.summaries.iter().position(|summary| {
            summary.prefix == key.prefix()
                && summary.step == step
                && (Rc::ptr_eq(&summary.roster, senders) || summary.roster.same_roster(senders))
        });
        let at = found.unwrap_or_else(|| {
            let mut summary = Heard::default();
            memo.work.entries_walked += summary.walk(common, step, senders);
            memo.work.summaries += 1;
            memo.summaries.push(Summary {
                prefix: key.prefix(),
                step,
                roster: Rc::clone(senders),
                heard: summary,
            });
            memo.summaries.len() - 1
        });
        heard.merge(&memo.summaries[at].heard);
    }

    /// Replaces a frozen roster with the run's copy of an equal one, so the
    /// nodes that froze the same roster hold it once.
    fn share_roster(&self, senders: &mut Rc<SenderTracker>) {
        let rosters = &mut self.0.borrow_mut().rosters;
        match rosters.iter().find(|roster| roster.same_roster(senders)) {
            Some(roster) => *senders = Rc::clone(roster),
            None => rosters.push(Rc::clone(senders)),
        }
    }

    fn count(&self, walked: u64) {
        self.0.borrow_mut().work.entries_walked += walked;
    }
}

/// A node running Algorithm 3.
#[derive(Clone, Debug)]
pub struct Consensus<V: Opinion> {
    id: NodeId,
    /// The node's current opinion `x_v`.
    opinion: V,
    /// The original input (kept for diagnostics).
    input: V,
    /// `n_v` as of the last step.
    n_v: usize,
    /// `None` before the first step and after the decision.
    deliberation: Option<Box<Deliberation<V>>>,
    decision: Option<Decision<V>>,
    phase: u64,
    /// Shared with the nodes built alongside; `None`: the node walks every
    /// entry itself.
    common: Option<CommonTally<V>>,
}

impl<V: Opinion> Consensus<V> {
    /// Creates a consensus node with the given input opinion.
    pub fn new(id: NodeId, input: V) -> Self {
        Consensus {
            id,
            opinion: input.clone(),
            input,
            n_v: 0,
            deliberation: None,
            decision: None,
            phase: 0,
            common: None,
        }
    }

    /// The node, sharing `memo` with the other nodes holding it: a common
    /// part one of them has walked under this node's step and roster, this
    /// node merges instead of walking.
    pub fn sharing(mut self, memo: &CommonTally<V>) -> Self {
        self.common = Some(memo.clone());
        self
    }

    /// The memo the node shares, if any.
    pub fn common_tally(&self) -> Option<&CommonTally<V>> {
        self.common.as_ref()
    }

    /// The node's original input.
    pub fn input(&self) -> &V {
        &self.input
    }

    /// The node's current opinion `x_v`.
    pub fn opinion(&self) -> &V {
        &self.opinion
    }

    /// The frozen membership size `n_v` (0 before initialisation completes).
    pub fn n_v(&self) -> usize {
        self.n_v
    }

    /// The current phase number (1-based; 0 before the first phase starts).
    pub fn phase(&self) -> u64 {
        self.phase
    }

    /// The decision, if the node has decided.
    pub fn decision(&self) -> Option<&Decision<V>> {
        self.decision.as_ref()
    }

    /// Whether the step at `round` reads its inbox: not once the node has
    /// decided, nor at a resolve step whose decision is already fixed — the
    /// roster is frozen, so the inbox cannot move `n_v`, and the strong-prefer
    /// plurality stashed in the rotor round meets `2n_v/3`. All such an inbox
    /// could feed — rotor echoes, who spoke this phase, the coordinator's
    /// opinion — the decision discards.
    pub fn reads_inbox(&self, round: u64) -> bool {
        let fixed = PhaseStep::from_round(round) == Some(PhaseStep::Resolve)
            && self.deliberation.as_ref().is_some_and(|state| {
                state.senders.is_frozen()
                    && state
                        .stashed_strong
                        .plurality()
                        .is_some_and(|(_, count)| meets_two_thirds(count, state.senders.n_v()))
            });
        self.decision.is_none() && !fixed
    }
}

impl<V: Opinion> Deliberation<V> {
    /// Completes a step's tally with the missing-message substitution rule: every
    /// frozen member that has been silent *for the entire current phase* is assumed
    /// to have sent whatever this node broadcast in the previous round. Members that
    /// spoke at any point during the phase are never substituted, even if they sent
    /// nothing this particular round.
    fn substitute_silent(&self, step: PhaseStep, tally: &mut VoteTally<V>) {
        let substitutes = self.last_broadcast.iter().filter_map(|m| step.vote(m));
        if substitutes.clone().next().is_none() {
            return;
        }
        for member in self.senders.ranks() {
            if !self.heard.members.contains(member) {
                for value in substitutes.clone() {
                    tally.insert(member, value);
                }
            }
        }
    }
}

impl<V: Opinion> Protocol for Consensus<V> {
    type Payload = ConsensusMessage<V>;
    type Output = Decision<V>;

    fn id(&self) -> NodeId {
        self.id
    }

    fn step(
        &mut self,
        ctx: &RoundContext,
        inbox: Inbox<'_, ConsensusMessage<V>>,
    ) -> Vec<Outgoing<ConsensusMessage<V>>> {
        if self.decision.is_some() {
            return Vec::new();
        }
        // Asked before the roster records this inbox, which changes nothing: a
        // step that skips its inbox has a frozen roster.
        let reads = self.reads_inbox(ctx.round);
        let mut deliberation = self.deliberation.take().unwrap_or_default();
        let state = &mut *deliberation;

        // Membership: grows during initialisation (rounds 1–3), frozen afterwards.
        if !state.senders.is_frozen() {
            Rc::make_mut(&mut state.senders).record_inbox(inbox);
        }
        self.n_v = state.senders.n_v();

        let out: Vec<ConsensusMessage<V>> = match ctx.round {
            // Round 1: rotor initialisation — announce presence / willingness.
            1 => vec![ConsensusMessage::Init],
            // Round 2: echo every init received (rotor line 4).
            2 => inbox
                .iter()
                .filter(|(_, message)| **message == ConsensusMessage::Init)
                .map(|(from, _)| ConsensusMessage::Echo(from))
                .collect(),
            _ => {
                // Round 3 is the first loop round: n_v is initialised from everything
                // seen during rounds 1–3 and frozen ("later, a node only accepts
                // messages from a node if it counted towards n_v").
                if ctx.round == 3 {
                    Rc::make_mut(&mut state.senders).freeze();
                    if let Some(memo) = &self.common {
                        memo.share_roster(&mut state.senders);
                    }
                }
                let n_v = self.n_v;
                let step = PhaseStep::from_round(ctx.round).expect("round ≥ 3");
                if step == PhaseStep::Input {
                    // A new phase starts: forget who spoke in the previous one. The
                    // inbox of the input round carries no phase traffic (the resolve
                    // step broadcasts nothing), so recording starts from the next round.
                    state.heard.members.clear();
                }

                // The one pass — over the common part at most once per memo key,
                // then over the node's own part. Rotor echoes can arrive in any
                // round (they are broadcast during the initialisation echo round
                // and during rotor rounds) and wait in `heard.echoes` for the next
                // rotor round.
                if reads {
                    let walked = match (&self.common, inbox.split_common()) {
                        (Some(memo), Some((key, common, own))) => {
                            memo.merge_common(key, common, step, &state.senders, &mut state.heard);
                            state.heard.walk(own, step, &state.senders)
                        }
                        _ => state.heard.walk(inbox, step, &state.senders),
                    };
                    if let Some(memo) = &self.common {
                        memo.count(walked);
                    }
                }
                let mut tally = std::mem::take(&mut state.heard.votes);
                let coordinator_opinion = state.heard.take_opinion_of(state.phase_coordinator);
                state.substitute_silent(step, &mut tally);

                match step {
                    PhaseStep::Input => {
                        self.phase += 1;
                        state.phase_coordinator = None;
                        state.stashed_strong = VoteTally::new();
                        vec![ConsensusMessage::Input(self.opinion.clone())]
                    }
                    PhaseStep::Prefer => {
                        if mutation::decide_on_equivocation_pair() && self.decision.is_none() {
                            if let Some(value) = clean_equivocation_pair(&tally, &state.senders) {
                                self.decision = Some(Decision {
                                    value,
                                    phase: self.phase,
                                    round: ctx.round,
                                });
                            }
                        }
                        let mut out = Vec::new();
                        for (value, _) in tally.meeting_two_thirds(n_v) {
                            out.push(ConsensusMessage::Prefer(value.clone()));
                        }
                        out
                    }
                    PhaseStep::StrongPrefer => {
                        let mut out = Vec::new();
                        // Line 8–10: adopt a value with n_v/3 support.
                        if let Some((value, count)) = tally.plurality() {
                            if meets_one_third(count, n_v) {
                                self.opinion = value.clone();
                            }
                        }
                        // Line 11–13: strong-prefer a value with 2n_v/3 support.
                        for (value, _) in tally.meeting_two_thirds(n_v) {
                            out.push(ConsensusMessage::StrongPrefer(value.clone()));
                        }
                        out
                    }
                    PhaseStep::Rotor => {
                        // The strong-prefer messages physically arrive in this round;
                        // their effect is applied in the resolve round (line 15–21).
                        state.stashed_strong = tally;
                        // Line 14: execute one rotor round with the buffered echoes.
                        let rotor_out = state.rotor.loop_round(
                            self.id,
                            &self.opinion,
                            n_v,
                            state
                                .heard
                                .echoes
                                .as_deref()
                                .into_iter()
                                .flat_map(EchoVotes::counts),
                            None,
                        );
                        state.heard.echoes = None;
                        state.phase_coordinator = state.rotor.current_coordinator();
                        rotor_out
                            .into_iter()
                            .map(|m| match m {
                                RotorMessage::Init => ConsensusMessage::Init,
                                RotorMessage::Echo(p) => ConsensusMessage::Echo(p),
                                RotorMessage::Opinion(v) => ConsensusMessage::Opinion(v),
                            })
                            .collect()
                    }
                    PhaseStep::Resolve => {
                        let strongest = state
                            .stashed_strong
                            .plurality()
                            .map(|(v, c)| (v.clone(), c));
                        match strongest {
                            // Line 19–21: decide on 2n_v/3 strong support.
                            Some((value, count)) if meets_two_thirds(count, n_v) => {
                                self.decision = Some(Decision {
                                    value,
                                    phase: self.phase,
                                    round: ctx.round,
                                });
                            }
                            // Line 15–18: too little strong support — follow the
                            // coordinator.
                            Some((_, count)) if !meets_one_third(count, n_v) => {
                                if let Some(c) = coordinator_opinion {
                                    self.opinion = c;
                                }
                            }
                            None => {
                                if let Some(c) = coordinator_opinion {
                                    self.opinion = c;
                                }
                            }
                            // n_v/3 ≤ support < 2n_v/3: keep the current opinion.
                            Some(_) => {}
                        }
                        Vec::new()
                    }
                }
            }
        };

        if self.decision.is_none() {
            deliberation.last_broadcast.clone_from(&out);
            self.deliberation = Some(deliberation);
        }
        out.into_iter().map(Outgoing::broadcast).collect()
    }

    fn output(&self) -> Option<Decision<V>> {
        self.decision.clone()
    }
}

/// Detects the [`mutation::DECIDE_ON_EQUIVOCATION_PAIR`] trigger in an input
/// tally: a sender whose voted value-set is exactly a pair `{a, b}`, where each
/// of `a` and `b` also has at least one supporter that voted *only* that value.
/// Returns the smaller value of the first qualifying pair (senders are walked in
/// rank order — identifier order — so the witness is deterministic).
fn clean_equivocation_pair<V: Opinion>(tally: &VoteTally<V>, senders: &SenderTracker) -> Option<V> {
    let voted_by = |sender| {
        tally
            .iter()
            .filter(move |(_, voters)| voters.contains(sender))
            .map(|(value, _)| value)
    };
    let single_valued = |value: &V| senders.ranks().any(|sender| voted_by(sender).eq([value]));
    senders.ranks().find_map(|sender| {
        let mut values = voted_by(sender);
        match (values.next(), values.next(), values.next()) {
            // `tally.iter()` is in value order, so `a` is the smaller of the pair.
            (Some(a), Some(b), None) if single_valued(a) && single_valued(b) => Some(a.clone()),
            _ => None,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_simnet::adversary::SilentAdversary;
    use uba_simnet::{AdversaryView, Directed, Envelope, FnAdversary, IdSpace, SyncEngine};

    type Msg = ConsensusMessage<u64>;

    fn check_agreement_and_validity(decisions: &[Decision<u64>], inputs: &[u64]) {
        assert!(!decisions.is_empty());
        let value = decisions[0].value;
        assert!(
            decisions.iter().all(|d| d.value == value),
            "agreement violated: {decisions:?}"
        );
        assert!(
            inputs.contains(&value),
            "validity violated: decided {value} not among correct inputs {inputs:?}"
        );
        if inputs.iter().all(|&i| i == inputs[0]) {
            assert_eq!(value, inputs[0], "unanimous inputs must be decided");
        }
    }

    fn run_consensus<A>(
        inputs: &[u64],
        byzantine: usize,
        adversary: A,
        seed: u64,
    ) -> Vec<Decision<u64>>
    where
        A: uba_simnet::Adversary<Msg>,
    {
        let ids = IdSpace::default().generate(inputs.len() + byzantine, seed);
        let byz: Vec<NodeId> = ids[inputs.len()..].to_vec();
        let nodes: Vec<_> = ids[..inputs.len()]
            .iter()
            .zip(inputs)
            .map(|(&id, &input)| Consensus::new(id, input))
            .collect();
        let mut engine = SyncEngine::new(nodes, adversary, byz);
        engine
            .run_to_termination(60 * (inputs.len() + byzantine) as u64 + 100)
            .expect("consensus terminates");
        let decisions: Vec<Decision<u64>> = engine
            .outputs()
            .into_iter()
            .map(|(_, o)| o.unwrap())
            .collect();
        check_agreement_and_validity(&decisions, inputs);
        decisions
    }

    #[test]
    fn unanimous_inputs_decide_in_one_phase() {
        let decisions = run_consensus(&[7; 5], 0, SilentAdversary, 1);
        assert!(decisions.iter().all(|d| d.value == 7));
        assert!(
            decisions.iter().all(|d| d.phase == 1),
            "unanimity decides in the first phase"
        );
    }

    #[test]
    fn split_inputs_reach_agreement_without_faults() {
        run_consensus(&[0, 1, 0, 1, 0, 1, 1], 0, SilentAdversary, 2);
    }

    #[test]
    fn silent_byzantine_nodes_do_not_block_termination() {
        // 7 correct, 2 byzantine that announce themselves in round 1 (so they are
        // counted in n_v) and then stay silent forever. The substitution rule keeps
        // the thresholds reachable.
        let adversary = FnAdversary::new(move |view: &AdversaryView<'_, Msg>| {
            if view.round == 1 {
                let mut out = Vec::new();
                for &from in view.byzantine_ids {
                    for &to in view.correct_ids {
                        out.push(Directed::new(from, to, ConsensusMessage::Init));
                    }
                }
                out
            } else {
                Vec::new()
            }
        });
        run_consensus(&[1, 0, 1, 0, 1, 1, 0], 2, adversary, 3);
    }

    #[test]
    fn equivocating_byzantine_inputs_do_not_break_agreement() {
        // Byzantine nodes participate in initialisation and then send input/prefer/
        // strong-prefer messages with conflicting values to different nodes.
        let adversary = FnAdversary::new(move |view: &AdversaryView<'_, Msg>| {
            let mut out = Vec::new();
            for (b, &from) in view.byzantine_ids.iter().enumerate() {
                for (i, &to) in view.correct_ids.iter().enumerate() {
                    let value = ((i + b) % 2) as u64;
                    let payload = match view.round {
                        1 => ConsensusMessage::Init,
                        2 => ConsensusMessage::Echo(from),
                        r => match PhaseStep::from_round(r) {
                            Some(PhaseStep::Input) => ConsensusMessage::Input(value),
                            Some(PhaseStep::Prefer) => ConsensusMessage::Prefer(value),
                            Some(PhaseStep::StrongPrefer) => ConsensusMessage::StrongPrefer(value),
                            Some(PhaseStep::Rotor) => ConsensusMessage::Opinion(value),
                            _ => continue,
                        },
                    };
                    out.push(Directed::new(from, to, payload));
                }
            }
            out
        });
        run_consensus(&[0, 1, 1, 0, 1, 0, 0, 1, 1], 2, adversary, 4);
    }

    #[test]
    fn round_complexity_is_linear_in_f() {
        // With f silent-after-announcement Byzantine nodes the number of phases is
        // O(f): a correct coordinator is reached within f + 1 rotor selections.
        for &(n_correct, f) in &[(4usize, 1usize), (7, 2), (10, 3), (13, 4)] {
            let adversary = FnAdversary::new(move |view: &AdversaryView<'_, Msg>| {
                if view.round == 1 {
                    let mut out = Vec::new();
                    for &from in view.byzantine_ids {
                        for &to in view.correct_ids {
                            out.push(Directed::new(from, to, ConsensusMessage::Init));
                        }
                    }
                    out
                } else {
                    Vec::new()
                }
            });
            let inputs: Vec<u64> = (0..n_correct).map(|i| (i % 2) as u64).collect();
            let decisions = run_consensus(&inputs, f, adversary, 50 + f as u64);
            let max_round = decisions.iter().map(|d| d.round).max().unwrap();
            assert!(
                max_round <= 3 + 5 * (f as u64 + 3),
                "consensus with f = {f} should finish within O(f) phases, took round {max_round}"
            );
        }
    }

    #[test]
    fn opinion_accessors_reflect_state() {
        let node = Consensus::new(NodeId::new(9), 42u64);
        assert_eq!(*node.input(), 42);
        assert_eq!(*node.opinion(), 42);
        assert_eq!(node.phase(), 0);
        assert_eq!(node.n_v(), 0);
        assert!(node.decision().is_none());
    }

    #[test]
    fn phase_step_schedule_is_five_rounds() {
        assert_eq!(PhaseStep::from_round(1), None);
        assert_eq!(PhaseStep::from_round(2), None);
        assert_eq!(PhaseStep::from_round(3), Some(PhaseStep::Input));
        assert_eq!(PhaseStep::from_round(4), Some(PhaseStep::Prefer));
        assert_eq!(PhaseStep::from_round(5), Some(PhaseStep::StrongPrefer));
        assert_eq!(PhaseStep::from_round(6), Some(PhaseStep::Rotor));
        assert_eq!(PhaseStep::from_round(7), Some(PhaseStep::Resolve));
        assert_eq!(PhaseStep::from_round(8), Some(PhaseStep::Input));
    }

    /// Lock-steps fault-free nodes, every broadcast reaching every node, and
    /// returns the inbox each round delivered (`inboxes[r - 1]` for round `r`,
    /// one more than `rounds` — the next round's).
    fn lockstep(nodes: &mut [Consensus<u64>], rounds: u64) -> Vec<Vec<Envelope<Msg>>> {
        let mut inboxes = vec![Vec::new()];
        for round in 1..=rounds {
            let inbox = inboxes.last().expect("the round's inbox");
            let mut next = Vec::new();
            for node in nodes.iter_mut() {
                let sent = node.step(&RoundContext::new(round), Inbox::from(&inbox[..]));
                next.extend(sent.into_iter().map(|m| Envelope::new(node.id, m.payload)));
            }
            inboxes.push(next);
        }
        inboxes
    }

    #[test]
    fn a_resolve_step_whose_decision_is_fixed_reads_nothing() {
        let ids: Vec<NodeId> = [11, 12, 13, 14].map(NodeId::new).to_vec();
        let mut nodes: Vec<Consensus<u64>> = ids.iter().map(|&id| Consensus::new(id, 7)).collect();
        let inboxes = lockstep(&mut nodes, 6);
        let real = &inboxes[6];
        let node = &nodes[0];
        // Round 7 resolves phase 1: four strong-prefers of four members.
        assert!(node.reads_inbox(6) && !node.reads_inbox(7));
        assert!(real
            .iter()
            .any(|e| matches!(*e.payload, ConsensusMessage::Echo(_))));

        let state = node.deliberation.as_ref().expect("deliberating");
        let coordinator = state.phase_coordinator.expect("a coordinator");
        let bystander = *ids.iter().find(|&&id| id != coordinator).unwrap();
        let stranger = NodeId::new(99);
        let adversarial = [
            Envelope::new(bystander, ConsensusMessage::Echo(stranger)),
            Envelope::new(stranger, ConsensusMessage::Echo(stranger)),
            Envelope::new(coordinator, ConsensusMessage::Opinion(8)),
            Envelope::new(bystander, ConsensusMessage::Opinion(9)),
            Envelope::new(stranger, ConsensusMessage::StrongPrefer(8)),
        ];
        let ctx = RoundContext::new(7);
        let stepped: Vec<(Vec<Outgoing<Msg>>, Consensus<u64>)> =
            [&real[..], &[][..], &adversarial[..]]
                .into_iter()
                .map(|inbox| {
                    let mut clone = node.clone();
                    (clone.step(&ctx, Inbox::from(inbox)), clone)
                })
                .collect();
        let (sent, decided) = &stepped[0];
        assert_eq!(decided.decision().map(|d| (d.value, d.round)), Some((7, 7)));
        for (other_sent, other) in &stepped[1..] {
            assert_eq!(other_sent, sent);
            assert_eq!(other.decision(), decided.decision());
            assert_eq!(other.output(), decided.output());
            assert_eq!(format!("{other:?}"), format!("{decided:?}"));
        }
        assert!(!decided.reads_inbox(8), "a decided node reads nothing");

        // Strong support below 2n_v/3: the coordinator's opinion may count.
        let mut split = node.clone();
        let state = split.deliberation.as_mut().expect("deliberating");
        let ranks: Vec<_> = state.senders.ranks().collect();
        state.stashed_strong = VoteTally::new();
        state.stashed_strong.insert(ranks[0], &7);
        state.stashed_strong.insert(ranks[1], &7);
        assert!(split.reads_inbox(7));

        // A node whose first step comes after round 3 never freezes its roster,
        // so its inbox can still grow n_v: it reads, although the plurality it
        // stashed meets two thirds of what it has heard.
        let mut late = Consensus::new(NodeId::new(15), 7);
        for round in 4..=6 {
            late.step(
                &RoundContext::new(round),
                Inbox::from(&inboxes[round as usize - 1][..]),
            );
        }
        let state = late.deliberation.as_ref().expect("deliberating");
        assert!(!state.senders.is_frozen());
        assert!(meets_two_thirds(
            state.stashed_strong.plurality().expect("stashed").1,
            state.senders.n_v()
        ));
        assert!(late.reads_inbox(7));
    }
}
