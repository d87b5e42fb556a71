//! The unified `Simulation` driver: one builder for every protocol, adversary and
//! churn plan.
//!
//! Historically every scenario shape (consensus under a split-vote adversary,
//! broadcast with an equivocating source, rotor under partial announcement, …) had
//! its own bespoke `run_*` function wiring identifiers, nodes, adversary and result
//! summarisation by hand. This module replaces that plumbing with three composable
//! pieces:
//!
//! * [`Simulation::scenario`] → [`ScenarioBuilder`] — a fluent description of the
//!   *system*: how many correct and Byzantine nodes, which [`IdSpace`], which seed,
//!   the round budget, an [`AdversaryKind`] and an optional [`ChurnSchedule`]
//!   (applied by the engine itself, see [`Engine::set_churn`]);
//! * [`ProtocolFactory`] — how to turn that system description into protocol nodes,
//!   a concrete adversary and per-protocol report sections. Implemented by all the
//!   id-only algorithms in `uba-core` **and** by the known-`(n, f)` baselines in
//!   `uba-baselines`, so the same scenario runs head-to-head across implementations;
//! * [`Harness`] — the typed execution driver produced by
//!   [`ScenarioBuilder::build`], whose [`Harness::run`] drives the engine to the
//!   factory's stop condition and assembles a serde-serializable [`RunReport`].
//!
//! The [`RunReport`] is the single result currency of the repository: the `checker`
//! crate consumes it directly (oracle verdicts are attached into
//! [`RunReport::verdicts`]), the experiment harness renders tables from it, and the
//! bench crate serialises it to JSON for recorded baselines.
//!
//! ```
//! use uba_simnet::sim::{AdversaryKind, Simulation};
//!
//! let scenario = Simulation::scenario()
//!     .correct(7)
//!     .byzantine(2)
//!     .seed(42)
//!     .adversary(AdversaryKind::SplitVote);
//! assert_eq!(scenario.spec().correct, 7);
//! // `.build(factory)` / `.consensus(&inputs)` etc. attach a protocol; see uba-core.
//! ```

use serde::{Deserialize, Serialize};

use crate::adversary::{Adversary, ReplayAdversary};
use crate::attack::{AttackBehavior, AttackPlan, CompiledStep, PlanAdversary};
use crate::dynamic::ChurnSchedule;
use crate::engine::{Engine, PhaseTimings};
use crate::error::SimError;
use crate::event::EngineKind;
use crate::id::{IdSpace, NodeId};
use crate::metrics::RoundMetrics;
use crate::node::Protocol;
use crate::vocab::{PayloadVocab, VocabAdversary};
use crate::wal::{RestartRecord, WalConfig};

pub use crate::engine::{RunStatus, StopCondition};

/// A boxed, dynamically dispatched adversary — the form in which
/// [`ProtocolFactory::attack_behavior`] returns strategies so one harness type
/// covers every adversary choice.
pub type BoxedAdversary<P> = Box<dyn Adversary<P>>;

impl<P> Adversary<P> for BoxedAdversary<P> {
    fn step(&mut self, view: &crate::adversary::AdversaryView<'_, P>) -> Vec<crate::Directed<P>> {
        (**self).step(view)
    }
}

/// An adversary strategy together with the name recorded in the [`RunReport`].
///
/// Factories return this from [`ProtocolFactory::attack_behavior`] so a
/// substituted strategy (a behaviour that does not apply to the protocol) is
/// reported under the name of what actually ran, not what was requested.
pub struct NamedAdversary<P> {
    /// Name recorded in [`RunReport::adversary`].
    pub name: String,
    /// The strategy itself.
    pub strategy: BoxedAdversary<P>,
}

impl<P> NamedAdversary<P> {
    /// Boxes a strategy under a report name.
    pub fn new(name: impl Into<String>, strategy: impl Adversary<P> + 'static) -> Self {
        NamedAdversary {
            name: name.into(),
            strategy: Box::new(strategy),
        }
    }
}

/// Adversary strategies selectable by name in experiment sweeps.
///
/// This is plain *data* (serialisable, comparable). A scenario runs a kind as its
/// preset plan ([`AttackPlan::preset`]), and each [`ProtocolFactory`] maps the
/// plan's [`AttackBehavior::Preset`] onto a concrete strategy for its payload type,
/// falling back to the closest applicable strategy when a kind does not exist for
/// the protocol (e.g. there is no vote to split in a rotor execution).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdversaryKind {
    /// Byzantine nodes never speak (they are invisible).
    Silent,
    /// Byzantine nodes announce themselves in round 1 and then stay silent.
    AnnounceThenSilent,
    /// Byzantine nodes announce themselves to only half of the correct nodes.
    PartialAnnounce,
    /// Byzantine nodes split their votes between the two most popular values.
    SplitVote,
    /// The protocol's worst-case scripted strategy from the paper's proofs — each
    /// factory maps this onto its hardest applicable attack (split votes for
    /// consensus, extreme outliers for approximate agreement, ghost pairs for
    /// parallel consensus, …).
    Worst,
}

impl AdversaryKind {
    /// A stable lowercase name used in tables and JSON output.
    pub fn name(&self) -> &'static str {
        match self {
            AdversaryKind::Silent => "silent",
            AdversaryKind::AnnounceThenSilent => "announce-then-silent",
            AdversaryKind::PartialAnnounce => "partial-announce",
            AdversaryKind::SplitVote => "split-vote",
            AdversaryKind::Worst => "worst-case",
        }
    }
}

/// The serialisable description of a simulated system, echoed into every
/// [`RunReport`] so a recorded result carries its own reproduction recipe.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Number of correct nodes.
    pub correct: usize,
    /// Number of Byzantine identities handed to the adversary.
    pub byzantine: usize,
    /// Identifier-generation strategy.
    pub id_space: IdSpace,
    /// Seed for identifier generation and any adversary randomness.
    pub seed: u64,
    /// Hard cap on rounds before the run is declared stuck.
    pub max_rounds: u64,
    /// Selected adversary strategy.
    pub adversary: AdversaryKind,
    /// Membership changes applied by the engine during the run.
    pub churn: ChurnSchedule,
    /// Composed attack plan; when present it supersedes `adversary` (which is kept
    /// in sync for pure preset plans). Absent in pre-plan recorded reports.
    pub attack: Option<AttackPlan>,
    /// Which delivery policy the engine executes the scenario under. `None`
    /// (and absent in pre-event recorded reports) means lock-step rounds;
    /// `Some(EngineKind::Event(_))` selects timed delivery under the given
    /// timing.
    pub engine: Option<EngineKind>,
}

impl ScenarioSpec {
    /// Total number of nodes `n` at the start of the run.
    pub fn n(&self) -> usize {
        self.correct + self.byzantine
    }

    /// Whether the scenario starts within the optimal resiliency `n > 3f`.
    pub fn resilient(&self) -> bool {
        self.n() > 3 * self.byzantine
    }

    /// Whether the scenario's timing is within the paper's synchronous model:
    /// either lock-step rounds, or timed delivery under zero-jitter timing
    /// (which is byte-identical to them). Delayed, skewed or reordered
    /// timings reproduce the Section IX constructions, under which the
    /// theorems explicitly do *not* hold.
    pub fn timing_admissible(&self) -> bool {
        match &self.engine {
            None | Some(EngineKind::Sync) => true,
            Some(EngineKind::Event(timing)) => timing.is_synchronous(),
        }
    }

    /// Whether the scenario is admissible under the paper's model: `n > 3f` at the
    /// start *and* at every round of the churn schedule, *and* the timing is
    /// synchronous (see [`ScenarioSpec::timing_admissible`]). Property-based
    /// harnesses only assert the theorems on admissible scenarios.
    pub fn admissible(&self) -> bool {
        self.resilient()
            && self
                .churn
                .first_resiliency_violation(self.correct, self.byzantine)
                .is_none()
            && self.timing_admissible()
    }
}

/// Entry point of the driver API: `Simulation::scenario()` starts a fluent
/// [`ScenarioBuilder`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Simulation;

impl Simulation {
    /// Starts describing a scenario (7 correct nodes, no faults, sparse ids, seed 0,
    /// a 1000-round budget and a silent adversary by default).
    pub fn scenario() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }
}

/// Fluent builder for a [`ScenarioSpec`]; finish with [`ScenarioBuilder::build`]
/// (or a protocol-specific convenience from `uba-core::sim`) to obtain a
/// [`Harness`].
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioBuilder {
    spec: ScenarioSpec,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder {
            spec: ScenarioSpec {
                correct: 7,
                byzantine: 0,
                id_space: IdSpace::default(),
                seed: 0,
                max_rounds: 1_000,
                adversary: AdversaryKind::Silent,
                churn: ChurnSchedule::empty(),
                attack: None,
                engine: None,
            },
        }
    }
}

impl ScenarioBuilder {
    /// Starts from an existing spec (e.g. one deserialised from a recorded report).
    pub fn from_spec(spec: ScenarioSpec) -> Self {
        ScenarioBuilder { spec }
    }

    /// Sets the number of correct nodes.
    pub fn correct(mut self, correct: usize) -> Self {
        self.spec.correct = correct;
        self
    }

    /// Sets the number of Byzantine identities.
    pub fn byzantine(mut self, byzantine: usize) -> Self {
        self.spec.byzantine = byzantine;
        self
    }

    /// Sets the identifier-generation strategy.
    pub fn ids(mut self, id_space: IdSpace) -> Self {
        self.spec.id_space = id_space;
        self
    }

    /// Sets the seed for identifier generation and adversary randomness.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Sets the hard cap on rounds before the run is declared stuck.
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.spec.max_rounds = max_rounds;
        self
    }

    /// Selects the adversary strategy.
    pub fn adversary(mut self, adversary: AdversaryKind) -> Self {
        self.spec.adversary = adversary;
        self.spec.attack = None;
        self
    }

    /// Attaches a composed [`AttackPlan`], superseding any [`AdversaryKind`]. A
    /// plan that is exactly a preset also updates the spec's `adversary` field so
    /// the recorded scenario reads the same either way.
    pub fn attack(mut self, plan: AttackPlan) -> Self {
        if let Some(kind) = plan.as_preset() {
            self.spec.adversary = kind;
        }
        self.spec.attack = Some(plan);
        self
    }

    /// Attaches a churn schedule, applied by the engine between rounds.
    pub fn churn(mut self, churn: ChurnSchedule) -> Self {
        self.spec.churn = churn;
        self
    }

    /// Selects the delivery policy the engine runs the scenario under (see
    /// [`EngineKind`]). [`EngineKind::event`] selects timed delivery under
    /// zero-jitter timing, which is byte-identical to lock-step rounds.
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.spec.engine = Some(engine);
        self
    }

    /// The spec built so far.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Generates the identifier split for this spec: the first `correct` generated
    /// identifiers are the correct nodes, the rest belong to the adversary.
    pub fn context(&self) -> BuildContext {
        self.clone().into_context()
    }

    /// Like [`ScenarioBuilder::context`], but consumes the builder so the spec is
    /// *moved* into the context instead of cloned — the build paths below use
    /// this, which leaves exactly one owned [`ScenarioSpec`] per run (the one the
    /// final [`RunReport`] carries).
    pub fn into_context(self) -> BuildContext {
        let ids = self.spec.id_space.generate(self.spec.n(), self.spec.seed);
        let (correct_ids, byzantine_ids) = ids.split_at(self.spec.correct);
        BuildContext {
            correct_ids: correct_ids.to_vec(),
            byzantine_ids: byzantine_ids.to_vec(),
            spec: self.spec,
        }
    }

    /// Builds a typed [`Harness`] for a protocol. The adversary is always a
    /// compiled [`AttackPlan`]: the scenario's own, or the preset plan of its
    /// [`AdversaryKind`] — built here and not written into the spec, so a
    /// kind-selected scenario still records `attack: null`.
    pub fn build<F: ProtocolFactory>(self, factory: F) -> Harness<F> {
        let ctx = self.into_context();
        let preset = AttackPlan::preset(ctx.spec.adversary);
        let plan = ctx.spec.attack.as_ref().unwrap_or(&preset);
        let named = compile_attack_plan(&factory, plan, &ctx);
        Harness::assemble(factory, ctx, named.strategy, named.name)
    }

    /// Builds a typed [`Harness`] driving an *explicit* adversary instead of a named
    /// [`AdversaryKind`] — the escape hatch for custom, adaptive or composed
    /// strategies (anything implementing [`Adversary`]).
    pub fn build_with_adversary<F, A>(
        self,
        factory: F,
        adversary_name: impl Into<String>,
        adversary: A,
    ) -> Harness<F>
    where
        F: ProtocolFactory,
        A: Adversary<<F::Node as Protocol>::Payload> + 'static,
    {
        let ctx = self.into_context();
        Harness::assemble(factory, ctx, Box::new(adversary), adversary_name.into())
    }
}

/// Everything a [`ProtocolFactory`] gets to see while constructing a run.
#[derive(Clone, Debug)]
pub struct BuildContext {
    /// The scenario being built.
    pub spec: ScenarioSpec,
    /// Identifiers of the correct nodes, in construction order.
    pub correct_ids: Vec<NodeId>,
    /// Identifiers controlled by the adversary.
    pub byzantine_ids: Vec<NodeId>,
}

impl BuildContext {
    /// Total node count `n` (what a known-`(n, f)` baseline is told).
    pub fn n(&self) -> usize {
        self.correct_ids.len() + self.byzantine_ids.len()
    }

    /// Byzantine count `f` (what a known-`(n, f)` baseline is told).
    pub fn f(&self) -> usize {
        self.byzantine_ids.len()
    }

    /// The failure bound a known-`f` protocol is promised: the peak number of
    /// Byzantine identities simultaneously in the system over the whole run,
    /// including any the churn schedule joins later. A baseline configured with
    /// only the *initial* count would be run outside its model the moment a
    /// Byzantine identity joins — its thresholds would be forgeable by design,
    /// not by theorem.
    pub fn known_f(&self) -> usize {
        self.spec.churn.peak_byzantine(self.byzantine_ids.len())
    }

    /// All identifiers, correct first, in generation order.
    pub fn all_ids(&self) -> Vec<NodeId> {
        self.correct_ids
            .iter()
            .chain(self.byzantine_ids.iter())
            .copied()
            .collect()
    }
}

/// How to instantiate a protocol (and everything around it) for a scenario.
///
/// A factory encapsulates the protocol-specific choices the old `run_*` drivers
/// hard-wired: node construction from the identifier split, the mapping from an
/// [`AttackBehavior`] to a concrete strategy for the protocol's payload, the stop
/// condition, optional per-round input injection, and the extraction of
/// protocol-specific [`RunReport`] sections after the run.
pub trait ProtocolFactory {
    /// The protocol node type this factory builds. (`'static` because churn joiners
    /// are stored in the engine as boxed constructors.)
    type Node: Protocol + 'static;

    /// A stable name for tables and JSON output (e.g. `"consensus"`,
    /// `"phase-king"`).
    fn protocol_name(&self) -> String;

    /// Constructs the correct nodes for the scenario. Takes `&mut self` so factories
    /// can cache build-time data (e.g. the founding identifier set) for later hooks.
    fn build_nodes(&mut self, ctx: &BuildContext) -> Vec<Self::Node>;

    /// Maps one [`AttackBehavior`] of an [`AttackPlan`] onto a concrete, named
    /// strategy for this protocol's payload — the one adversary hook. Every
    /// factory maps each [`AttackBehavior::Preset`], substituting (and reporting)
    /// the closest applicable strategy for kinds that make no sense for the
    /// protocol, and the behaviours its payloads express exactly (outliers for
    /// approximate agreement, vote equivocation for consensus, …); it hands the
    /// rest to [`scripted_attack_behavior`].
    fn attack_behavior(
        &self,
        behavior: &AttackBehavior,
        ctx: &BuildContext,
    ) -> NamedAdversary<<Self::Node as Protocol>::Payload>;

    /// The protocol's payload vocabulary (see [`PayloadVocab`]): how to fabricate
    /// semantically valid, threshold-probing and garbage payloads for this
    /// protocol's wire format, drawn from the live scenario. Factories that
    /// provide one unlock the `AttackBehavior::Noise` / `AttackBehavior::Semantic`
    /// behaviours; the default (`None`) makes those behaviours substitute the
    /// protocol's worst scripted attack, following the usual substitution rule.
    fn payload_vocab(
        &self,
        _ctx: &BuildContext,
    ) -> Option<Box<dyn PayloadVocab<<Self::Node as Protocol>::Payload>>> {
        None
    }

    /// When the run is finished (before the scenario's round cap).
    fn stop_condition(&self) -> StopCondition {
        StopCondition::AllTerminated
    }

    /// Returns the constructor used for identifiers joining through the scenario's
    /// churn schedule. The default panics on first use, because most protocols need
    /// explicit support for mid-run joins.
    fn joiner(&self, _ctx: &BuildContext) -> Box<dyn FnMut(NodeId) -> Self::Node> {
        let name = self.protocol_name();
        Box::new(move |id| {
            panic!("protocol `{name}` does not support mid-run joins (joiner {id} rejected)")
        })
    }

    /// Hook invoked before every engine round — the place to inject external inputs
    /// (events to order, leave announcements) into the nodes.
    fn before_round(&mut self, _round: u64, _nodes: &mut [Self::Node]) {}

    /// Extracts protocol-specific sections from the finished run into the report.
    fn record(&self, ctx: &BuildContext, nodes: &[Self::Node], report: &mut RunReport);
}

/// The generic [`AttackBehavior`] → strategy mapping a factory's
/// [`ProtocolFactory::attack_behavior`] falls back to for the behaviours it
/// does not map itself: [`AttackBehavior::Replay`] and the payload-vocabulary
/// behaviours run generically, and the rest substitute the factory's own
/// mapping of the closest preset.
///
/// # Panics
///
/// On an [`AttackBehavior::Preset`]: mapping every preset is the factory's job.
pub fn scripted_attack_behavior<F: ProtocolFactory + ?Sized>(
    factory: &F,
    behavior: &AttackBehavior,
    ctx: &BuildContext,
) -> NamedAdversary<<F::Node as Protocol>::Payload> {
    let substitute = |kind| factory.attack_behavior(&AttackBehavior::Preset(kind), ctx);
    match behavior {
        AttackBehavior::Preset(kind) => panic!(
            "protocol `{}` maps no `{}` preset",
            factory.protocol_name(),
            kind.name()
        ),
        AttackBehavior::Replay {
            visible_to_even_raw_ids,
        } => NamedAdversary::new("replay", ReplayAdversary::new(*visible_to_even_raw_ids)),
        // The value-shaped behaviours need payload shapes the generic layer does
        // not have; substitute the protocol's closest preset.
        AttackBehavior::AnnounceToSubset { .. } => substitute(AdversaryKind::PartialAnnounce),
        AttackBehavior::Equivocate { .. } | AttackBehavior::Outliers { .. } => {
            substitute(AdversaryKind::Worst)
        }
        // The vocabulary-driven behaviours: resolved through the factory's
        // payload vocabulary when it provides one, substituted by the worst
        // scripted attack otherwise (same substitution rule as above).
        AttackBehavior::Noise => match factory.payload_vocab(ctx) {
            Some(vocab) => {
                NamedAdversary::new("noise", VocabAdversary::noise(vocab, ctx.spec.seed))
            }
            None => substitute(AdversaryKind::Worst),
        },
        AttackBehavior::Semantic { strategy } => match factory.payload_vocab(ctx) {
            Some(vocab) => NamedAdversary::new(
                format!("semantic-{}", strategy.name()),
                VocabAdversary::semantic(vocab, *strategy, ctx.spec.seed),
            ),
            None => substitute(AdversaryKind::Worst),
        },
        AttackBehavior::Adaptive { strategy } => match factory.payload_vocab(ctx) {
            Some(vocab) => NamedAdversary::new(
                format!("adaptive-{}", strategy.name()),
                crate::vocab::AdaptiveAdversary::new(vocab, *strategy, ctx.spec.seed),
            ),
            None => substitute(AdversaryKind::Worst),
        },
    }
}

/// Compiles an [`AttackPlan`] against a factory: each step's behaviour is resolved
/// to a payload-typed strategy and bound to the step's round window and actor
/// range. A plan that is exactly one whole-run step is reported under the resolved
/// strategy's own name, so preset plans produce reports identical to their legacy
/// [`AdversaryKind`]; composed plans are reported as `plan(...)`.
pub fn compile_attack_plan<F: ProtocolFactory + ?Sized>(
    factory: &F,
    plan: &AttackPlan,
    ctx: &BuildContext,
) -> NamedAdversary<<F::Node as Protocol>::Payload> {
    let mut compiled = Vec::with_capacity(plan.steps.len());
    let mut resolved_names = Vec::with_capacity(plan.steps.len());
    for step in &plan.steps {
        let inner = factory.attack_behavior(&step.behavior, ctx);
        resolved_names.push(inner.name);
        compiled.push(CompiledStep {
            from_round: step.from_round,
            to_round: step.to_round,
            actors: step.actors,
            strategy: inner.strategy,
        });
    }
    let name = match plan.steps.as_slice() {
        [step] if step.covers_everything() => resolved_names.pop().expect("one name per step"),
        [] => "plan(empty)".to_string(),
        steps => {
            let parts: Vec<String> = steps
                .iter()
                .zip(&resolved_names)
                .map(|(step, resolved)| step.describe_as(resolved))
                .collect();
            format!("plan({})", parts.join(" + "))
        }
    };
    NamedAdversary {
        name,
        strategy: Box::new(PlanAdversary::new(compiled)),
    }
}

/// The engine type a [`Harness`] drives: the factory's nodes against a boxed
/// adversary.
type HarnessEngine<F> = Engine<
    <F as ProtocolFactory>::Node,
    BoxedAdversary<<<F as ProtocolFactory>::Node as Protocol>::Payload>,
>;

/// A typed, runnable simulation: engine + factory + scenario context.
pub struct Harness<F: ProtocolFactory> {
    factory: F,
    ctx: BuildContext,
    engine: HarnessEngine<F>,
    stop: StopCondition,
    adversary_name: String,
}

impl<F: ProtocolFactory> Harness<F> {
    fn assemble(
        mut factory: F,
        ctx: BuildContext,
        adversary: BoxedAdversary<<F::Node as Protocol>::Payload>,
        adversary_name: String,
    ) -> Self {
        let nodes = factory.build_nodes(&ctx);
        // The scenario's engine axis picks the delivery policy — and nothing
        // else: `Event` runs the timed queue even under synchronous timing.
        let mut engine = match &ctx.spec.engine {
            None | Some(EngineKind::Sync) => {
                Engine::new(nodes, adversary, ctx.byzantine_ids.clone())
            }
            Some(EngineKind::Event(timing)) => Engine::with_timing(
                nodes,
                adversary,
                ctx.byzantine_ids.clone(),
                timing,
                ctx.spec.seed,
            ),
        };
        let stop = factory.stop_condition();
        if !ctx.spec.churn.is_empty() {
            // The engine applies the schedule itself; joining correct nodes are
            // constructed by the factory-provided constructor (which captures what
            // it needs rather than borrowing the factory, since the factory lives
            // in the harness alongside the engine).
            let joiner = factory.joiner(&ctx);
            engine.set_churn(ctx.spec.churn.clone(), joiner);
        }
        Harness {
            factory,
            ctx,
            engine,
            stop,
            adversary_name,
        }
    }

    /// Overrides the stop condition with a fixed round count — used by primitives
    /// (like reliable broadcast) that never terminate but stabilise.
    pub fn rounds(mut self, rounds: u64) -> Self {
        self.stop = StopCondition::FixedRounds(rounds);
        self
    }

    // The engine has one stepping path and no traffic GC (a multiplexing node
    // drops retired traffic itself while it sorts its inbox); these forwarders
    // do nothing. They exist only because `benchmark/src/surface.rs` names
    // them; delete them once the benchmark crate stops calling them.
    #[doc(hidden)]
    pub fn parallel_stepping(self) -> Self {
        self
    }

    #[doc(hidden)]
    pub fn traffic_gc(self) -> Self {
        self
    }

    /// Wall-clock time accumulated per engine phase across the run so far (see
    /// [`PhaseTimings`]). Measurement-only — reports
    /// never contain timings, so recorded baselines stay byte-identical across
    /// machines.
    pub fn phase_timings(&self) -> PhaseTimings {
        self.engine.phase_timings()
    }

    /// Overrides the stop condition.
    pub fn stop_when(mut self, stop: StopCondition) -> Self {
        self.stop = stop;
        self
    }

    /// Force-enables the crash-recovery subsystem even without crash events in
    /// the churn schedule. The recovery-equivalence suite uses this to pin that
    /// write-ahead logging is observationally silent on crash-free runs.
    pub fn enable_recovery(self) -> Self {
        self.wal_config(WalConfig::default())
    }

    /// (Re-)enables crash-recovery under an explicit [`WalConfig`], replacing the
    /// default-configured manager the engine installs for crash churn (see
    /// [`Engine::set_churn`]). The knob that matters operationally is
    /// [`WalConfig::compact_after`]: a restart replays every record since the
    /// last compaction, so on long horizons the compaction period — not the
    /// horizon — must bound replay cost. Call before any round has run;
    /// reconfiguring mid-run would discard logged state.
    pub fn wal_config(mut self, config: WalConfig) -> Self {
        self.engine.enable_recovery(config);
        self
    }

    /// Every crash/restart cycle completed so far (empty when recovery is
    /// disabled or nothing has restarted yet).
    pub fn recovery_restarts(&self) -> &[RestartRecord] {
        self.engine.recovery_restarts()
    }

    /// Envelopes currently held by the engine's inboxes (see
    /// [`Engine::queued_envelopes`]: a broadcast's one entry on the common
    /// list counts once) — one component of the soak driver's memory proxy.
    pub fn queued_envelopes(&self) -> usize {
        self.engine.queued_envelopes()
    }

    /// Records currently held across the engine's write-ahead logs (0 when
    /// recovery is disabled) — the other component of the soak memory proxy.
    pub fn wal_entries(&self) -> usize {
        self.engine.wal_entries()
    }

    /// The build context (scenario spec and identifier split).
    pub fn context(&self) -> &BuildContext {
        &self.ctx
    }

    /// The underlying engine (escape hatch for inspection beyond the report).
    pub fn engine(&self) -> &HarnessEngine<F> {
        &self.engine
    }

    /// Mutable access to the underlying engine.
    pub fn engine_mut(&mut self) -> &mut HarnessEngine<F> {
        &mut self.engine
    }

    /// The correct nodes (escape hatch for protocol-specific inspection).
    pub fn nodes(&self) -> &[F::Node] {
        self.engine.nodes()
    }

    /// Whether the stop condition currently holds (what [`Harness::run`] checks
    /// before each round) — exposed for drivers that step rounds themselves.
    pub fn stopped(&self) -> bool {
        self.stop.holds(self.engine.round(), self.engine.nodes())
    }

    /// The number of rounds executed so far.
    pub fn rounds_executed(&self) -> u64 {
        self.engine.round()
    }

    /// Executes exactly one engine round, including the factory's
    /// [`ProtocolFactory::before_round`] input hook — the per-round driving
    /// surface the long-horizon soak driver uses to measure each round
    /// individually instead of calling [`Harness::run`] once.
    pub fn step_round(&mut self) -> Result<(), SimError> {
        self.factory
            .before_round(self.engine.round() + 1, self.engine.nodes_mut());
        self.engine.run_round()
    }

    /// Assembles a [`RunReport`] of the run *so far* without driving the engine
    /// further (the status is `Completed` only if the stop condition holds).
    pub fn report_now(&self) -> RunReport {
        let status = if self.stopped() {
            RunStatus::Completed {
                rounds: self.engine.round(),
            }
        } else {
            RunStatus::MaxRoundsExceeded {
                limit: self.ctx.spec.max_rounds,
            }
        };
        let mut report = self.base_report(status);
        self.factory
            .record(&self.ctx, self.engine.nodes(), &mut report);
        report
    }

    /// Drives the engine to the stop condition (or the scenario's round cap) and
    /// assembles the [`RunReport`].
    ///
    /// Cap exhaustion is recorded in [`RunReport::status`], not returned as an
    /// error; errors are reserved for model violations (forged senders,
    /// inapplicable churn events).
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        while !self.stopped() && self.engine.round() < self.ctx.spec.max_rounds {
            self.step_round()?;
        }
        Ok(self.report_now())
    }

    /// Assembles the protocol-agnostic report skeleton from *borrowed* context.
    /// The scenario spec was moved (not cloned) into the context at build time and
    /// is cloned exactly once here, into the report that owns it — the single
    /// payload-independent copy a run makes. Everything else is read through
    /// references; the harness, engine and nodes stay untouched and inspectable
    /// after the run.
    ///
    /// A node's output is rendered (`Debug`-formatted) only when it differs from
    /// the output rendered just before it; an equal one copies that text. Agreement
    /// is the common case — every correct node ends with the same decision or
    /// chain — so n agreeing nodes cost one formatting pass, not n.
    fn base_report(&self, status: RunStatus) -> RunReport {
        let metrics = self.engine.metrics();
        let payload_size = std::mem::size_of::<<F::Node as Protocol>::Payload>() as u64;
        let mut nodes: Vec<NodeReport> = Vec::with_capacity(self.engine.nodes().len());
        // The output rendered last and the index of the report holding its text.
        let mut rendered: Option<(<F::Node as Protocol>::Output, usize)> = None;
        for node in self.engine.nodes() {
            let output = node.output().map(|output| match &rendered {
                Some((last, at)) if *last == output => nodes[*at]
                    .output
                    .clone()
                    .expect("the report at `at` holds the rendering"),
                _ => {
                    let text = format!("{output:?}");
                    rendered = Some((output, nodes.len()));
                    text
                }
            });
            nodes.push(NodeReport {
                id: node.id(),
                terminated: node.terminated(),
                output,
            });
        }
        RunReport {
            protocol: self.factory.protocol_name(),
            adversary: self.adversary_name.clone(),
            scenario: self.ctx.spec.clone(),
            status,
            rounds: self.engine.round(),
            messages: MessageStats {
                correct: metrics.correct_messages,
                byzantine: metrics.byzantine_messages,
                deliveries: metrics.deliveries,
                correct_bytes_estimate: metrics.correct_messages * payload_size,
                per_round: metrics.per_round.clone(),
            },
            nodes,
            consensus: None,
            broadcast: None,
            rotor: None,
            approx: None,
            spreads: None,
            parallel: None,
            chain: None,
            recovery: {
                let restarts = self.engine.recovery_restarts();
                (!restarts.is_empty()).then(|| RecoverySection {
                    restarts: restarts.to_vec(),
                })
            },
            stream: None,
            verdicts: Vec::new(),
            margins: MarginSection::default(),
        }
    }
}

/// Message accounting of one run.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageStats {
    /// Point-to-point messages produced by correct nodes.
    pub correct: u64,
    /// Messages injected by the adversary.
    pub byzantine: u64,
    /// Deliveries to correct nodes after deduplication.
    pub deliveries: u64,
    /// `correct × size_of(payload)` — a wire-size estimate (payload sizes are not
    /// serialised per message, so this is an upper-bound proxy, not a measurement).
    pub correct_bytes_estimate: u64,
    /// Per-round breakdown, in round order.
    pub per_round: Vec<RoundMetrics>,
}

/// Per-node summary in a report.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeReport {
    /// The node.
    pub id: NodeId,
    /// Whether it had terminated when the run stopped.
    pub terminated: bool,
    /// Debug rendering of its output, if it produced one.
    pub output: Option<String>,
}

/// A consensus decision as recorded in a report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConsensusDecision {
    /// The deciding node.
    pub node: NodeId,
    /// The decided value.
    pub value: u64,
    /// The phase in which it decided.
    pub phase: u64,
    /// The network round in which it decided.
    pub round: u64,
}

/// Consensus-family section of a report (id-only consensus and the phase-king
/// baseline both fill this).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ConsensusSection {
    /// `(node, input)` pairs of the correct nodes.
    pub inputs: Vec<(NodeId, u64)>,
    /// Decisions of the nodes that decided.
    pub decisions: Vec<ConsensusDecision>,
    /// Nodes that had not decided when the run stopped.
    pub undecided: Vec<NodeId>,
    /// Whether every decided value is identical.
    pub agreement: bool,
    /// Whether the decision is the input of some correct node, and unanimous inputs
    /// forced that value.
    pub validity: bool,
}

/// Builds a [`ConsensusSection`] from the correct nodes' inputs (in construction
/// order) and each node's `(id, decision)`, computing agreement and validity the
/// same way for every implementation (the id-only consensus and the known-`(n, f)`
/// baselines must be judged by one definition, or head-to-head comparisons compare
/// different properties).
pub fn consensus_section(
    ctx: &BuildContext,
    inputs: &[u64],
    nodes: impl IntoIterator<Item = (NodeId, Option<ConsensusDecision>)>,
) -> ConsensusSection {
    let inputs: Vec<(NodeId, u64)> = ctx
        .correct_ids
        .iter()
        .copied()
        .zip(inputs.iter().copied())
        .collect();
    let mut decisions = Vec::new();
    let mut undecided = Vec::new();
    for (id, decision) in nodes {
        match decision {
            Some(decision) => decisions.push(decision),
            None => undecided.push(id),
        }
    }
    let agreement = decisions.windows(2).all(|w| w[0].value == w[1].value);
    let validity = match decisions.first() {
        None => false,
        Some(first) => {
            let in_inputs = inputs.iter().any(|(_, input)| *input == first.value);
            let unanimous = inputs.windows(2).all(|w| w[0].1 == w[1].1);
            in_inputs
                && (!unanimous
                    || decisions
                        .iter()
                        .all(|d| Some(d.value) == inputs.first().map(|i| i.1)))
        }
    };
    ConsensusSection {
        inputs,
        decisions,
        undecided,
        agreement,
        validity,
    }
}

/// One node's accept set in a broadcast run.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeAcceptSet {
    /// The accepting node.
    pub node: NodeId,
    /// `(message, acceptance round)` pairs, sorted by message.
    pub values: Vec<(u64, u64)>,
}

/// Reliable-broadcast-family section of a report.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BroadcastSection {
    /// The designated sender.
    pub source: NodeId,
    /// Whether the designated sender was a correct node.
    pub source_correct: bool,
    /// The value a correct sender broadcast (ground truth for unforgeability).
    pub sent: Option<u64>,
    /// Every correct node's accept set.
    pub accepted: Vec<NodeAcceptSet>,
    /// Whether all correct nodes accepted exactly the same set of values.
    pub consistent: bool,
}

/// Builds a [`BroadcastSection`] from each correct node's accepted `(message,
/// round)` pairs, in any order: every accept set is sorted, and consistency is
/// judged the same way for the id-only broadcast and the known-`f` baseline.
pub fn broadcast_section(
    source: NodeId,
    source_correct: bool,
    sent: Option<u64>,
    nodes: impl IntoIterator<Item = (NodeId, Vec<(u64, u64)>)>,
) -> BroadcastSection {
    let accepted: Vec<NodeAcceptSet> = nodes
        .into_iter()
        .map(|(node, mut values)| {
            values.sort_unstable();
            NodeAcceptSet { node, values }
        })
        .collect();
    // Consistent: every node accepted the same messages (rounds may differ).
    let consistent = accepted.windows(2).all(|w| {
        let (a, b) = (&w[0].values, &w[1].values);
        a.iter().map(|v| v.0).eq(b.iter().map(|v| v.0))
    });
    BroadcastSection {
        source,
        source_correct,
        sent,
        accepted,
        consistent,
    }
}

/// Rotor-coordinator section of a report.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RotorSection {
    /// Coordinators selected by the first correct node.
    pub selected: usize,
    /// Whether a loop round existed in which every correct node selected the same
    /// correct coordinator.
    pub good_round: bool,
}

/// Approximate-agreement section of a report.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ApproxSection {
    /// Correct inputs.
    pub inputs: Vec<f64>,
    /// Correct outputs.
    pub outputs: Vec<f64>,
    /// `(min, max)` of the inputs.
    pub input_range: (f64, f64),
    /// `(min, max)` of the outputs.
    pub output_range: (f64, f64),
    /// Whether every output lies within the input range.
    pub outputs_in_range: bool,
    /// `(output range) / (input range)` — the paper guarantees `< 1` (½ per round).
    pub contraction: f64,
}

/// Builds an [`ApproxSection`] from parallel input/output value lists, computing
/// containment and contraction uniformly for every implementation.
pub fn approx_section_from_values(inputs: Vec<f64>, outputs: Vec<f64>) -> ApproxSection {
    let imin = inputs.iter().copied().fold(f64::INFINITY, f64::min);
    let imax = inputs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let omin = outputs.iter().copied().fold(f64::INFINITY, f64::min);
    let omax = outputs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let input_spread = imax - imin;
    let output_spread = omax - omin;
    ApproxSection {
        outputs_in_range: omin >= imin - 1e-9 && omax <= imax + 1e-9,
        contraction: if input_spread > 0.0 {
            output_spread / input_spread
        } else {
            0.0
        },
        input_range: (imin, imax),
        output_range: (omin, omax),
        inputs,
        outputs,
    }
}

/// Iterated-convergence section: the correct-value spread after each iteration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpreadSection {
    /// Spread (max − min over correct values) per iteration, in iteration order.
    pub per_iteration: Vec<f64>,
}

/// One node's decided pair set in a parallel-consensus run.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodePairs {
    /// The deciding node.
    pub node: NodeId,
    /// The decided `(instance, value)` pairs, sorted by instance.
    pub pairs: Vec<(u64, u64)>,
}

/// Parallel-consensus section of a report.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelSection {
    /// Every correct node's decided pair set.
    pub decisions: Vec<NodePairs>,
    /// Whether all decided pair sets are identical.
    pub agreement: bool,
}

/// Total-ordering section of a report.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainSection {
    /// `(node, finalised chain length)` for every correct node.
    pub lengths: Vec<(NodeId, usize)>,
    /// Whether the chains of the (non-leaving) correct nodes agree on their overlap.
    pub prefix_ok: bool,
}

/// Crash-recovery section of a report: one record per completed crash/restart
/// cycle, in restart order. Absent (and absent from crash-free recorded
/// reports) when no node restarted — which keeps crash-free runs with recovery
/// enabled byte-identical to runs without it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoverySection {
    /// Every restart performed during the run.
    pub restarts: Vec<RestartRecord>,
}

/// One named quantity contributing to an oracle margin (e.g. the
/// rounds-to-budget slack behind a `liveness` margin). Purely informational:
/// the invariant lives on [`OracleMargin::margin`], not on individual metrics.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MarginMetric {
    /// Metric name (e.g. `"termination-slack"`).
    pub name: String,
    /// Metric value in the family's own units (rounds, nodes, scaled spread).
    pub value: u64,
}

/// Quantitative distance-to-violation for one oracle family, attached by
/// `uba_checker::margin` alongside the pass/fail [`OracleVerdict`]s.
///
/// Invariant (enforced by the checker, pinned by `tests/margin_oracles.rs`):
/// `margin == 0` exactly when the paired verdict fails. A passing oracle
/// always reports `margin >= 1`, with larger values meaning the run was
/// further from violating the property — the fitness signal the search-guided
/// fuzzer descends.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleMargin {
    /// The oracle this margin is paired with (`"consensus"`, `"liveness"`, …).
    pub oracle: String,
    /// Distance to violation: 0 ⟺ the paired verdict fails, ≥ 1 otherwise.
    pub margin: u64,
    /// The raw quantities behind the margin, in a fixed per-family order.
    pub metrics: Vec<MarginMetric>,
}

/// Margin section of a report: one [`OracleMargin`] per applicable oracle
/// family, in a fixed order. Defaults to empty so pre-margin recorded reports
/// still deserialise.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MarginSection {
    /// Per-oracle margins, in attachment order.
    pub oracles: Vec<OracleMargin>,
}

impl MarginSection {
    /// The margin paired with `oracle`, if that family applied to the run.
    pub fn margin_for(&self, oracle: &str) -> Option<u64> {
        self.oracles
            .iter()
            .find(|m| m.oracle == oracle)
            .map(|m| m.margin)
    }

    /// The smallest margin across every attached family — the run's overall
    /// distance to its nearest violation (0 when some oracle failed).
    pub fn min_margin(&self) -> Option<u64> {
        self.oracles.iter().map(|m| m.margin).min()
    }
}

/// A property-oracle verdict attached by the `checker` crate.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleVerdict {
    /// The oracle that ran (e.g. `"consensus"`, `"reliable-broadcast"`).
    pub oracle: String,
    /// Whether the oracle found no violations.
    pub passed: bool,
    /// Number of individual property evaluations performed.
    pub checks: usize,
    /// Rendered violations, in discovery order.
    pub violations: Vec<String>,
}

/// Everything measured in one run — the unified, serialisable result every driver
/// path produces and every consumer (checker, tables, JSON baselines) reads.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Protocol name (from [`ProtocolFactory::protocol_name`]).
    pub protocol: String,
    /// Adversary name ([`AdversaryKind::name`] or a custom label).
    pub adversary: String,
    /// The scenario that produced this run (its own reproduction recipe).
    pub scenario: ScenarioSpec,
    /// Whether the run completed or exhausted its round cap.
    pub status: RunStatus,
    /// Rounds executed when the run stopped.
    pub rounds: u64,
    /// Message accounting.
    pub messages: MessageStats,
    /// Per-node termination and output summaries.
    pub nodes: Vec<NodeReport>,
    /// Consensus-family results, if the protocol decides single values.
    pub consensus: Option<ConsensusSection>,
    /// Broadcast-family results, if the protocol accepts broadcast values.
    pub broadcast: Option<BroadcastSection>,
    /// Rotor-coordinator results.
    pub rotor: Option<RotorSection>,
    /// Approximate-agreement results.
    pub approx: Option<ApproxSection>,
    /// Iterated-convergence results.
    pub spreads: Option<SpreadSection>,
    /// Parallel-consensus results.
    pub parallel: Option<ParallelSection>,
    /// Total-ordering results.
    pub chain: Option<ChainSection>,
    /// Crash-recovery results; `None` unless a crash/restart cycle completed.
    pub recovery: Option<RecoverySection>,
    /// Pipelined-stream results; `None` unless the run used a
    /// [`StreamDriver`](crate::stream::StreamDriver).
    pub stream: Option<crate::stream::StreamSection>,
    /// Property-oracle verdicts (attached by `uba_checker::attach_verdicts`).
    pub verdicts: Vec<OracleVerdict>,
    /// Per-oracle distance-to-violation margins (attached by
    /// `uba_checker::attach_verdicts` next to the verdicts). Empty in
    /// pre-margin recorded reports.
    #[serde(default)]
    pub margins: MarginSection,
}

impl RunReport {
    /// Whether the run completed (met its stop condition before the round cap).
    pub fn completed(&self) -> bool {
        self.status.is_completed()
    }

    /// Whether every attached oracle verdict passed (vacuously true when none ran).
    pub fn verdicts_passed(&self) -> bool {
        self.verdicts.iter().all(|verdict| verdict.passed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_the_spec() {
        let builder = Simulation::scenario()
            .correct(10)
            .byzantine(3)
            .ids(IdSpace::Consecutive)
            .seed(9)
            .max_rounds(50)
            .adversary(AdversaryKind::SplitVote);
        let spec = builder.spec();
        assert_eq!(spec.correct, 10);
        assert_eq!(spec.byzantine, 3);
        assert_eq!(spec.id_space, IdSpace::Consecutive);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.max_rounds, 50);
        assert_eq!(spec.adversary, AdversaryKind::SplitVote);
        assert_eq!(spec.n(), 13);
        assert!(spec.resilient());
    }

    #[test]
    fn context_splits_ids_deterministically() {
        let builder = Simulation::scenario().correct(5).byzantine(2).seed(7);
        let a = builder.clone().context();
        let b = builder.context();
        assert_eq!(a.correct_ids, b.correct_ids);
        assert_eq!(a.byzantine_ids, b.byzantine_ids);
        assert_eq!(a.correct_ids.len(), 5);
        assert_eq!(a.byzantine_ids.len(), 2);
        assert_eq!(a.n(), 7);
        assert_eq!(a.f(), 2);
        assert_eq!(a.all_ids().len(), 7);
    }

    /// A node that never speaks.
    #[derive(Clone)]
    struct Mute(NodeId);

    impl Protocol for Mute {
        type Payload = u64;
        type Output = ();

        fn id(&self) -> NodeId {
            self.0
        }

        fn step(
            &mut self,
            _ctx: &crate::node::RoundContext,
            _inbox: crate::message::Inbox<'_, u64>,
        ) -> Vec<crate::message::Outgoing<u64>> {
            Vec::new()
        }

        fn output(&self) -> Option<()> {
            None
        }
    }

    /// A factory that maps no preset: every behaviour goes to the generic rule.
    struct Unmapped;

    impl ProtocolFactory for Unmapped {
        type Node = Mute;

        fn protocol_name(&self) -> String {
            "unmapped".into()
        }

        fn build_nodes(&mut self, ctx: &BuildContext) -> Vec<Mute> {
            ctx.correct_ids.iter().map(|&id| Mute(id)).collect()
        }

        fn attack_behavior(
            &self,
            behavior: &AttackBehavior,
            ctx: &BuildContext,
        ) -> NamedAdversary<u64> {
            scripted_attack_behavior(self, behavior, ctx)
        }

        fn record(&self, _ctx: &BuildContext, _nodes: &[Mute], _report: &mut RunReport) {}
    }

    #[test]
    fn a_substitute_runs_the_factory_mapping_of_its_preset() {
        let replay = Simulation::scenario()
            .attack(AttackPlan::new().behavior(AttackBehavior::Replay {
                visible_to_even_raw_ids: true,
            }))
            .build(Unmapped);
        assert_eq!(replay.report_now().adversary, "replay");
        // `Outliers` substitutes the `worst-case` preset, which only the factory
        // can map: an unmapped preset names the factory instead of recursing.
        let outliers = std::panic::catch_unwind(|| {
            Simulation::scenario()
                .attack(AttackPlan::new().behavior(AttackBehavior::Outliers { magnitude: 1.0 }))
                .build(Unmapped)
        });
        let message = *outliers.err().unwrap().downcast::<String>().unwrap();
        assert_eq!(message, "protocol `unmapped` maps no `worst-case` preset");
    }

    #[test]
    fn adversary_kind_names_are_stable() {
        assert_eq!(AdversaryKind::Silent.name(), "silent");
        assert_eq!(AdversaryKind::SplitVote.name(), "split-vote");
    }

    #[test]
    fn spec_round_trips_through_serde() {
        let spec = Simulation::scenario()
            .correct(4)
            .byzantine(1)
            .seed(3)
            .adversary(AdversaryKind::PartialAnnounce)
            .spec()
            .clone();
        let value = serde::Serialize::to_value(&spec);
        let back: ScenarioSpec = serde::Deserialize::from_value(&value).unwrap();
        assert_eq!(back, spec);

        let event_spec = Simulation::scenario()
            .engine(EngineKind::event())
            .spec()
            .clone();
        let value = serde::Serialize::to_value(&event_spec);
        let back: ScenarioSpec = serde::Deserialize::from_value(&value).unwrap();
        assert_eq!(back, event_spec);
    }

    #[test]
    fn specs_without_an_engine_field_deserialize_as_sync() {
        // Pre-event recorded reports carry no `engine` key; they must keep
        // loading (as sync-engine scenarios) so recorded baselines stay valid.
        let spec = Simulation::scenario().spec().clone();
        let serde::Value::Object(mut fields) = serde::Serialize::to_value(&spec) else {
            panic!("a spec serialises as an object");
        };
        fields.retain(|(name, _)| name != "engine");
        let back: ScenarioSpec = serde::Deserialize::from_value(&serde::Value::Object(fields))
            .expect("engine-less spec still deserialises");
        assert_eq!(back.engine, None);
        assert!(back.timing_admissible());
    }

    #[test]
    fn non_synchronous_timing_is_inadmissible() {
        use crate::event::{DelaySpec, TimingSpec};
        let sync_spec = Simulation::scenario().spec().clone();
        assert!(sync_spec.admissible());
        let zero_jitter = Simulation::scenario()
            .engine(EngineKind::event())
            .spec()
            .clone();
        assert!(zero_jitter.admissible(), "zero-jitter event == sync model");
        let delayed = Simulation::scenario()
            .engine(EngineKind::Event(
                TimingSpec::synchronous().with_delay(DelaySpec::Gst { gst: 10, bound: 2 }),
            ))
            .spec()
            .clone();
        assert!(!delayed.timing_admissible());
        assert!(
            !delayed.admissible(),
            "the paper's theorems assume synchrony; GST timing is out of model"
        );
    }
}
