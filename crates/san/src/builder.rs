//! Incremental construction of SAN models, including `Join`/`Rep`-style
//! composition through namespaces and shared places.

use std::collections::HashMap;

use crate::activity::{Activity, ActivityId, Case, CaseProb, Timing};
use crate::delay::{Delay, RateFn, RateGroup, RateGroupId};
use crate::error::SanError;
use crate::gate::{InputGate, InputGateId, OutputGate, OutputGateId};
use crate::marking::Marking;
use crate::model::SanModel;
use crate::place::{PlaceDecl, PlaceId, PlaceKind};

/// Builder for [`SanModel`]s.
///
/// Composition follows the Möbius pattern: `Rep` and `Join` do not copy
/// submodels, they *merge state* — replicas share designated places and
/// keep private copies of the rest. Here that is expressed directly:
///
/// * [`SanBuilder::join`] opens a named scope; places and activities
///   declared inside get a `scope.`-qualified name;
/// * [`SanBuilder::replicate`] runs a module-building closure `count`
///   times under `name[i].` scopes;
/// * [`SanBuilder::shared_place`] (and variants) create-or-look-up a
///   place by *global* name, ignoring the current scope — these are the
///   shared state variables of a Join.
///
/// # Example
///
/// ```
/// use ahs_san::{Delay, SanBuilder};
///
/// let mut b = SanBuilder::new("pool");
/// let bus = b.shared_place("bus")?; // shared by all replicas
/// b.replicate("worker", 3, |b, _i| {
///     let idle = b.place_with_tokens("idle", 1)?;
///     b.timed_activity("work", Delay::exponential(1.0))?
///         .input_place(idle)
///         .output_place(bus)
///         .build()?;
///     Ok(())
/// })?;
/// let model = b.build()?;
/// assert_eq!(model.num_places(), 4); // bus + 3 private `idle`s
/// assert_eq!(model.num_activities(), 3);
/// # Ok::<(), ahs_san::SanError>(())
/// ```
pub struct SanBuilder {
    name: String,
    prefix: Vec<String>,
    places: Vec<PlaceDecl>,
    place_names: HashMap<String, PlaceId>,
    input_gates: Vec<InputGate>,
    output_gates: Vec<OutputGate>,
    activities: Vec<Activity>,
    activity_names: HashMap<String, ActivityId>,
    rate_groups: Vec<RateGroup>,
    strict: bool,
}

impl SanBuilder {
    /// Creates an empty builder for a model with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        SanBuilder {
            name: name.into(),
            prefix: Vec::new(),
            places: Vec::new(),
            place_names: HashMap::new(),
            input_gates: Vec::new(),
            output_gates: Vec::new(),
            activities: Vec::new(),
            activity_names: HashMap::new(),
            rate_groups: Vec::new(),
            strict: false,
        }
    }

    /// Enables strict validation: [`SanBuilder::build`] will additionally
    /// run the static subset of the `ahs-lint` checks — individual case
    /// probabilities in `[0, 1]`, no structurally dead places or
    /// trivially always-enabled activities, and gate declarations (see
    /// [`SanBuilder::input_gate_touching`]) honored at the initial
    /// marking — and fail with [`SanError::StrictValidation`] when any
    /// check trips.
    ///
    /// Reachability-based checks (dead activities, absorbing markings,
    /// marking-dependent case distributions over reachable states) need
    /// state-space exploration and live in the `ahs-lint` crate instead.
    pub fn validate_strict(&mut self) -> &mut Self {
        self.strict = true;
        self
    }

    fn qualify(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_owned()
        } else {
            format!("{}.{}", self.prefix.join("."), name)
        }
    }

    fn add_place(&mut self, qualified: String, decl: PlaceDecl) -> Result<PlaceId, SanError> {
        if self.place_names.contains_key(&qualified) {
            return Err(SanError::DuplicatePlace { name: qualified });
        }
        let id = PlaceId(self.places.len());
        self.place_names.insert(qualified, id);
        self.places.push(decl);
        Ok(id)
    }

    /// Declares an empty simple place in the current scope.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::DuplicatePlace`] if the qualified name exists.
    pub fn place(&mut self, name: &str) -> Result<PlaceId, SanError> {
        self.place_with_tokens(name, 0)
    }

    /// Declares a simple place with an initial token count.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::DuplicatePlace`] if the qualified name exists.
    pub fn place_with_tokens(&mut self, name: &str, tokens: u64) -> Result<PlaceId, SanError> {
        let q = self.qualify(name);
        self.add_place(
            q.clone(),
            PlaceDecl {
                name: q,
                kind: PlaceKind::Simple,
                initial_tokens: tokens,
                initial_array: vec![],
            },
        )
    }

    /// Declares an extended (array) place of the given length,
    /// initialized to zeros.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::DuplicatePlace`] if the qualified name exists.
    pub fn extended_place(&mut self, name: &str, len: usize) -> Result<PlaceId, SanError> {
        self.extended_place_init(name, vec![0; len])
    }

    /// Declares an extended place with explicit initial contents.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::DuplicatePlace`] if the qualified name exists.
    pub fn extended_place_init(
        &mut self,
        name: &str,
        initial: Vec<i64>,
    ) -> Result<PlaceId, SanError> {
        let q = self.qualify(name);
        self.add_place(
            q.clone(),
            PlaceDecl {
                name: q,
                kind: PlaceKind::Extended { len: initial.len() },
                initial_tokens: 0,
                initial_array: initial,
            },
        )
    }

    /// Creates or looks up a *shared* simple place by global name
    /// (ignores the current scope). The first call creates the place
    /// with zero tokens; later calls return the same handle.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::DuplicatePlace`] if the global name exists
    /// but refers to an extended place.
    pub fn shared_place(&mut self, name: &str) -> Result<PlaceId, SanError> {
        self.shared_place_with_tokens(name, 0)
    }

    /// Creates or looks up a shared simple place; `tokens` only applies
    /// on first creation.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::DuplicatePlace`] on kind mismatch.
    pub fn shared_place_with_tokens(
        &mut self,
        name: &str,
        tokens: u64,
    ) -> Result<PlaceId, SanError> {
        if let Some(&id) = self.place_names.get(name) {
            if self.places[id.0].kind != PlaceKind::Simple {
                return Err(SanError::DuplicatePlace { name: name.into() });
            }
            return Ok(id);
        }
        self.add_place(
            name.to_owned(),
            PlaceDecl {
                name: name.to_owned(),
                kind: PlaceKind::Simple,
                initial_tokens: tokens,
                initial_array: vec![],
            },
        )
    }

    /// Creates or looks up a shared extended place by global name;
    /// `initial` only applies on first creation.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::DuplicatePlace`] on kind or length mismatch.
    pub fn shared_extended_place(
        &mut self,
        name: &str,
        initial: Vec<i64>,
    ) -> Result<PlaceId, SanError> {
        if let Some(&id) = self.place_names.get(name) {
            if self.places[id.0].kind != (PlaceKind::Extended { len: initial.len() }) {
                return Err(SanError::DuplicatePlace { name: name.into() });
            }
            return Ok(id);
        }
        self.add_place(
            name.to_owned(),
            PlaceDecl {
                name: name.to_owned(),
                kind: PlaceKind::Extended { len: initial.len() },
                initial_tokens: 0,
                initial_array: initial,
            },
        )
    }

    /// Looks up a place by fully-qualified global name.
    pub fn find_place(&self, qualified_name: &str) -> Option<PlaceId> {
        self.place_names.get(qualified_name).copied()
    }

    /// Registers an input gate (enabling predicate + marking function).
    pub fn input_gate<P, F>(&mut self, name: &str, predicate: P, function: F) -> InputGateId
    where
        P: Fn(&Marking) -> bool + Send + Sync + 'static,
        F: Fn(&mut Marking) + Send + Sync + 'static,
    {
        let id = InputGateId(self.input_gates.len());
        self.input_gates.push(InputGate {
            name: self.qualify(name),
            predicate: Box::new(predicate),
            function: Box::new(function),
            touches: None,
            split: None,
            pure_predicate: false,
        });
        id
    }

    /// Registers an input gate together with a declaration of every
    /// place its predicate or marking function may touch.
    ///
    /// The declaration is not enforced at runtime (closures stay
    /// zero-cost); it is checked by the linter's gate-purity pass, which
    /// evaluates the gate against an instrumented marking and flags any
    /// access outside `touches`.
    pub fn input_gate_touching<P, F>(
        &mut self,
        name: &str,
        touches: impl IntoIterator<Item = PlaceId>,
        predicate: P,
        function: F,
    ) -> InputGateId
    where
        P: Fn(&Marking) -> bool + Send + Sync + 'static,
        F: Fn(&mut Marking) + Send + Sync + 'static,
    {
        let id = self.input_gate(name, predicate, function);
        self.input_gates[id.0].touches = Some(touches.into_iter().collect());
        id
    }

    /// Registers an input gate with its declaration *split* into the
    /// places the enabling predicate may read and the places the
    /// marking function may write.
    ///
    /// The split tightens the activity dependency graph: under a plain
    /// [`input_gate_touching`](SanBuilder::input_gate_touching)
    /// declaration every touched place counts as both a read and a
    /// write, so a gate whose marking function updates shared
    /// bookkeeping couples its activity to every reader of that
    /// bookkeeping — even though its *enabledness* never depends on it.
    /// With a split declaration only `reads` feed the read-set and only
    /// `writes` feed the write-set, so incremental enablement
    /// re-evaluates far fewer activities per firing.
    ///
    /// Both closures must stay inside `reads ∪ writes` (the gate-purity
    /// pass checks this), the predicate must read only `reads`, and the
    /// marking function must write only `writes` (the write-set pass
    /// checks these against instrumented executions). A marking
    /// function may *read* any declared place.
    pub fn input_gate_touching_split<P, F>(
        &mut self,
        name: &str,
        reads: impl IntoIterator<Item = PlaceId>,
        writes: impl IntoIterator<Item = PlaceId>,
        predicate: P,
        function: F,
    ) -> InputGateId
    where
        P: Fn(&Marking) -> bool + Send + Sync + 'static,
        F: Fn(&mut Marking) + Send + Sync + 'static,
    {
        let reads: Vec<PlaceId> = reads.into_iter().collect();
        let writes: Vec<PlaceId> = writes.into_iter().collect();
        let mut touches = reads.clone();
        touches.extend(writes.iter().copied().filter(|p| !reads.contains(p)));
        let id = self.input_gate(name, predicate, function);
        self.input_gates[id.0].touches = Some(touches);
        self.input_gates[id.0].split = Some((reads, writes));
        id
    }

    /// Registers a pure-predicate input gate (identity marking function).
    ///
    /// The linter's gate-purity pass verifies the purity claim: a
    /// predicate gate whose marking function writes any place is
    /// reported as a defect.
    pub fn predicate_gate<P>(&mut self, name: &str, predicate: P) -> InputGateId
    where
        P: Fn(&Marking) -> bool + Send + Sync + 'static,
    {
        let id = self.input_gate(name, predicate, |_| {});
        self.input_gates[id.0].pure_predicate = true;
        id
    }

    /// Registers a pure-predicate input gate together with a declaration
    /// of every place its predicate may read (see
    /// [`SanBuilder::input_gate_touching`]).
    pub fn predicate_gate_touching<P>(
        &mut self,
        name: &str,
        touches: impl IntoIterator<Item = PlaceId>,
        predicate: P,
    ) -> InputGateId
    where
        P: Fn(&Marking) -> bool + Send + Sync + 'static,
    {
        let id = self.predicate_gate(name, predicate);
        self.input_gates[id.0].touches = Some(touches.into_iter().collect());
        id
    }

    /// Declares an existing input gate to be a pure predicate: a claim
    /// that its marking function is the identity.
    ///
    /// [`SanBuilder::predicate_gate`] makes the claim automatically (and
    /// installs an identity function, so it is true by construction);
    /// this method lets generic composition helpers that register gates
    /// through [`SanBuilder::input_gate`] make the same claim. The claim
    /// is *verified*, not trusted: strict validation and the linter's
    /// gate-purity pass run the marking function against an instrumented
    /// marking and report any write as a defect.
    ///
    /// # Panics
    ///
    /// Panics if `gate` does not belong to this builder.
    pub fn claim_pure_predicate(&mut self, gate: InputGateId) -> &mut Self {
        self.input_gates[gate.0].pure_predicate = true;
        self
    }

    /// Registers an output gate (marking function).
    pub fn output_gate<F>(&mut self, name: &str, function: F) -> OutputGateId
    where
        F: Fn(&mut Marking) + Send + Sync + 'static,
    {
        let id = OutputGateId(self.output_gates.len());
        self.output_gates.push(OutputGate {
            name: self.qualify(name),
            function: Box::new(function),
            touches: None,
        });
        id
    }

    /// Registers an output gate together with a declaration of every
    /// place its marking function may touch (see
    /// [`SanBuilder::input_gate_touching`]).
    pub fn output_gate_touching<F>(
        &mut self,
        name: &str,
        touches: impl IntoIterator<Item = PlaceId>,
        function: F,
    ) -> OutputGateId
    where
        F: Fn(&mut Marking) + Send + Sync + 'static,
    {
        let id = self.output_gate(name, function);
        self.output_gates[id.0].touches = Some(touches.into_iter().collect());
        id
    }

    /// Declares a shared-rate group: exponential rate `rate` shared
    /// equally among whichever of its members are enabled (see
    /// [`RateGroup`]). Activities join it by taking
    /// [`Delay::shared`]`(group)` as their delay. Like a shared place,
    /// the name is global (not scoped), so replicas can join one group.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::InvalidRateGroup`] if `rate` is not positive
    /// and finite or the name is already taken.
    pub fn shared_rate_group(&mut self, name: &str, rate: f64) -> Result<RateGroupId, SanError> {
        let invalid = |reason: String| SanError::InvalidRateGroup {
            group: name.to_owned(),
            reason,
        };
        if !rate.is_finite() || rate <= 0.0 {
            return Err(invalid(format!(
                "shared rate must be positive and finite, got {rate}"
            )));
        }
        if self.rate_groups.iter().any(|g| g.name == name) {
            return Err(invalid("a group with this name already exists".to_owned()));
        }
        self.rate_groups.push(RateGroup {
            name: name.to_owned(),
            rate,
            members: Vec::new(),
        });
        Ok(RateGroupId(self.rate_groups.len() - 1))
    }

    /// Starts a timed activity with the given delay distribution.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::DuplicateActivity`] on a name clash,
    /// [`SanError::InvalidDelay`] on bad distribution parameters, or
    /// [`SanError::InvalidRateGroup`] if a [`Delay::shared`] names a
    /// group this builder never declared.
    pub fn timed_activity(
        &mut self,
        name: &str,
        delay: Delay,
    ) -> Result<ActivityBuilder<'_>, SanError> {
        let q = self.qualify(name);
        if self.activity_names.contains_key(&q) {
            return Err(SanError::DuplicateActivity { name: q });
        }
        if let Err(reason) = delay.validate() {
            return Err(SanError::InvalidDelay {
                activity: q,
                reason,
            });
        }
        if let Delay::Exponential(RateFn::Shared(g)) = delay {
            if g.0 >= self.rate_groups.len() {
                return Err(SanError::InvalidRateGroup {
                    group: format!("#{}", g.0),
                    reason: format!("activity `{q}` joins a group this builder never declared"),
                });
            }
        }
        Ok(ActivityBuilder::new(self, q, Timing::Timed(delay)))
    }

    /// Starts an instantaneous activity with selection priority and
    /// tie-break weight.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::DuplicateActivity`] on a name clash or
    /// [`SanError::InvalidWeight`] if `weight` is not positive.
    pub fn instant_activity(
        &mut self,
        name: &str,
        priority: u32,
        weight: f64,
    ) -> Result<ActivityBuilder<'_>, SanError> {
        let q = self.qualify(name);
        if self.activity_names.contains_key(&q) {
            return Err(SanError::DuplicateActivity { name: q });
        }
        if !weight.is_finite() || weight <= 0.0 {
            return Err(SanError::InvalidWeight {
                activity: q,
                weight,
            });
        }
        Ok(ActivityBuilder::new(
            self,
            q,
            Timing::Instantaneous { priority, weight },
        ))
    }

    /// Runs `f` inside a named scope (`Join` composition): declarations
    /// made by `f` are qualified with `scope.`.
    ///
    /// # Errors
    ///
    /// Propagates any error from `f`.
    pub fn join<F>(&mut self, scope: &str, f: F) -> Result<(), SanError>
    where
        F: FnOnce(&mut SanBuilder) -> Result<(), SanError>,
    {
        self.prefix.push(scope.to_owned());
        let result = f(self);
        self.prefix.pop();
        result
    }

    /// Runs `f` `count` times under scopes `scope[0]` … `scope[count-1]`
    /// (`Rep` composition). Shared places created inside via
    /// [`SanBuilder::shared_place`] are common to all replicas; scoped
    /// places are private per replica.
    ///
    /// # Errors
    ///
    /// Propagates the first error from `f`.
    pub fn replicate<F>(&mut self, scope: &str, count: usize, mut f: F) -> Result<(), SanError>
    where
        F: FnMut(&mut SanBuilder, usize) -> Result<(), SanError>,
    {
        for i in 0..count {
            self.join(&format!("{scope}[{i}]"), |b| f(b, i))?;
        }
        Ok(())
    }

    /// Finalizes the model.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::EmptyModel`] if no places or no activities
    /// were declared, and [`SanError::StrictValidation`] if
    /// [`SanBuilder::validate_strict`] was requested and a static check
    /// failed.
    pub fn build(self) -> Result<SanModel, SanError> {
        if self.places.is_empty() || self.activities.is_empty() {
            return Err(SanError::EmptyModel);
        }
        let strict = self.strict;
        let initial = Marking::from_decls(&self.places);
        let model = SanModel::new(
            self.name,
            self.places,
            self.input_gates,
            self.output_gates,
            self.activities,
            self.rate_groups,
            initial,
        );
        if strict {
            let diagnostics = strict_diagnostics(&model);
            if !diagnostics.is_empty() {
                return Err(SanError::StrictValidation {
                    model: model.name().to_owned(),
                    diagnostics,
                });
            }
        }
        Ok(model)
    }
}

/// The static (no state-space exploration) subset of the lint checks,
/// run by [`SanBuilder::build`] under [`SanBuilder::validate_strict`].
fn strict_diagnostics(model: &SanModel) -> Vec<String> {
    let mut out = Vec::new();

    // Individual constant case probabilities must be valid even when the
    // sum works out (e.g. `1.5` and `-0.5` sum to 1 but are nonsense).
    for a in model.activities() {
        for (idx, case) in a.cases().iter().enumerate() {
            if let CaseProb::Const(p) = case.probability_spec() {
                if !(0.0..=1.0).contains(p) || !p.is_finite() {
                    out.push(format!(
                        "activity `{}` case {idx}: constant probability {p} outside [0, 1]",
                        a.name()
                    ));
                }
            }
        }
    }

    let report = model.analyze();
    for name in &report.arc_isolated_places {
        let gate_touched = model.input_gates().iter().any(|g| {
            g.declared_touches()
                .is_some_and(|t| t.iter().any(|p| model.place_name(*p) == name))
        }) || model.output_gates().iter().any(|g| {
            g.declared_touches()
                .is_some_and(|t| t.iter().any(|p| model.place_name(*p) == name))
        });
        if !gate_touched {
            out.push(format!(
                "place `{name}` is not connected to any arc or declared gate"
            ));
        }
    }
    for name in &report.always_enabled_activities {
        out.push(format!(
            "activity `{name}` has no input arcs or gates and can never be disabled"
        ));
    }
    for name in &report.arc_silent_activities {
        out.push(format!(
            "activity `{name}` has no arcs or gates and firing it changes nothing"
        ));
    }

    // Gate declarations, checked at the initial marking. The linter
    // repeats this over reachable markings; here it catches gates that
    // are wrong from the very first evaluation.
    //
    // A gate's marking function only ever runs when an attached
    // activity fires, and may rely on that precondition (e.g. removing
    // a token that is only present mid-maneuver), so it is traced only
    // for gates attached to an activity that can fire from the initial
    // marking. Predicates must be total — `is_enabled` evaluates them
    // in arbitrary markings — so they are always traced.
    let initial = model.initial_marking();
    let fireable = if model.is_stable(initial) {
        model.enabled_timed(initial)
    } else {
        model.enabled_instantaneous(initial)
    };
    let mut ig_fires = vec![false; model.input_gates().len()];
    let mut og_fires = vec![false; model.output_gates().len()];
    for &a in &fireable {
        let act = model.activity(a);
        for g in act.input_gates() {
            ig_fires[g.index()] = true;
        }
        for case in act.cases() {
            for g in case.output_gates() {
                og_fires[g.index()] = true;
            }
        }
    }

    for (idx, gate) in model.input_gates().iter().enumerate() {
        let mut shadow = initial.clone();
        let (_, trace) = crate::trace::record(|| {
            let _ = gate.holds(&shadow);
            if ig_fires[idx] {
                gate.apply(&mut shadow);
            }
        });
        if gate.is_pure_predicate() && !trace.is_read_only() {
            out.push(format!(
                "input gate `{}` is declared as a pure predicate but writes places",
                gate.name()
            ));
        }
        if let Some(declared) = gate.declared_touches() {
            for p in trace.touched() {
                if !declared.contains(&p) {
                    out.push(format!(
                        "input gate `{}` touches undeclared place `{}`",
                        gate.name(),
                        model.place_name(p)
                    ));
                }
            }
        }
    }
    for (idx, gate) in model.output_gates().iter().enumerate() {
        if let Some(declared) = gate.declared_touches() {
            if !og_fires[idx] {
                continue;
            }
            let mut shadow = initial.clone();
            let (_, trace) = crate::trace::record(|| gate.apply(&mut shadow));
            for p in trace.touched() {
                if !declared.contains(&p) {
                    out.push(format!(
                        "output gate `{}` touches undeclared place `{}`",
                        gate.name(),
                        model.place_name(p)
                    ));
                }
            }
        }
    }

    out
}

impl std::fmt::Debug for SanBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SanBuilder")
            .field("name", &self.name)
            .field("places", &self.places.len())
            .field("activities", &self.activities.len())
            .finish_non_exhaustive()
    }
}

/// Builder for a single activity; created by
/// [`SanBuilder::timed_activity`] / [`SanBuilder::instant_activity`].
///
/// Output arcs and gates attach to the *current case*. Until
/// [`ActivityBuilder::case`] is called an implicit probability-1 case is
/// used; calling `case` starts an explicit case (the implicit case must
/// then be empty).
#[must_use = "call .build() to register the activity"]
pub struct ActivityBuilder<'b> {
    builder: &'b mut SanBuilder,
    name: String,
    timing: Timing,
    input_arcs: Vec<(PlaceId, u64)>,
    input_gates: Vec<InputGateId>,
    cases: Vec<Case>,
    explicit_cases: bool,
}

impl<'b> ActivityBuilder<'b> {
    fn new(builder: &'b mut SanBuilder, name: String, timing: Timing) -> Self {
        ActivityBuilder {
            builder,
            name,
            timing,
            input_arcs: Vec::new(),
            input_gates: Vec::new(),
            cases: vec![Case {
                probability: CaseProb::Const(1.0),
                output_arcs: Vec::new(),
                output_gates: Vec::new(),
            }],
            explicit_cases: false,
        }
    }

    /// Adds an input arc requiring (and consuming) one token.
    pub fn input_place(self, place: PlaceId) -> Self {
        self.input_arc(place, 1)
    }

    /// Adds an input arc requiring (and consuming) `tokens` tokens.
    pub fn input_arc(mut self, place: PlaceId, tokens: u64) -> Self {
        self.input_arcs.push((place, tokens));
        self
    }

    /// Attaches an input gate.
    pub fn input_gate(mut self, gate: InputGateId) -> Self {
        self.input_gates.push(gate);
        self
    }

    /// Starts a new case with a fixed probability.
    pub fn case(mut self, probability: f64) -> Self {
        self.start_case(CaseProb::Const(probability));
        self
    }

    /// Starts a new case with a marking-dependent probability.
    pub fn case_fn<F>(mut self, probability: F) -> Self
    where
        F: Fn(&Marking) -> f64 + Send + Sync + 'static,
    {
        self.start_case(CaseProb::MarkingDependent(Box::new(probability)));
        self
    }

    fn start_case(&mut self, probability: CaseProb) {
        if !self.explicit_cases {
            // Replace the implicit case — it must still be empty.
            let implicit = &self.cases[0];
            assert!(
                implicit.output_arcs.is_empty() && implicit.output_gates.is_empty(),
                "activity `{}`: outputs were attached before the first explicit case",
                self.name
            );
            self.cases.clear();
            self.explicit_cases = true;
        }
        self.cases.push(Case {
            probability,
            output_arcs: Vec::new(),
            output_gates: Vec::new(),
        });
    }

    fn current_case(&mut self) -> &mut Case {
        self.cases
            .last_mut()
            .expect("at least one case always exists")
    }

    /// Adds an output arc depositing one token (to the current case).
    pub fn output_place(self, place: PlaceId) -> Self {
        self.output_arc(place, 1)
    }

    /// Adds an output arc depositing `tokens` tokens (current case).
    pub fn output_arc(mut self, place: PlaceId, tokens: u64) -> Self {
        self.current_case().output_arcs.push((place, tokens));
        self
    }

    /// Attaches an output gate (current case).
    pub fn output_gate(mut self, gate: OutputGateId) -> Self {
        self.current_case().output_gates.push(gate);
        self
    }

    /// Registers the activity with the model builder.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::NoCases`] if explicit cases were started but
    /// none completed, or [`SanError::InvalidCaseDistribution`] if all
    /// case probabilities are constants that do not sum to 1 (within
    /// 1e-9; marking-dependent distributions are validated at firing
    /// time instead).
    pub fn build(self) -> Result<ActivityId, SanError> {
        if self.cases.is_empty() {
            return Err(SanError::NoCases {
                activity: self.name,
            });
        }
        let const_sum: Option<f64> = self
            .cases
            .iter()
            .map(|c| match &c.probability {
                CaseProb::Const(p) => Some(*p),
                CaseProb::MarkingDependent(_) => None,
            })
            .sum();
        if let Some(sum) = const_sum {
            if (sum - 1.0).abs() > 1e-9 {
                return Err(SanError::InvalidCaseDistribution {
                    activity: self.name,
                    sum,
                });
            }
        }
        let id = ActivityId(self.builder.activities.len());
        self.builder.activity_names.insert(self.name.clone(), id);
        self.builder.activities.push(Activity {
            name: self.name,
            timing: self.timing,
            input_arcs: self.input_arcs,
            input_gates: self.input_gates,
            cases: self.cases,
        });
        Ok(id)
    }
}

impl std::fmt::Debug for ActivityBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActivityBuilder")
            .field("name", &self.name)
            .field("cases", &self.cases.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_place_rejected() {
        let mut b = SanBuilder::new("m");
        b.place("p").unwrap();
        assert_eq!(
            b.place("p").unwrap_err(),
            SanError::DuplicatePlace { name: "p".into() }
        );
    }

    #[test]
    fn scoped_names_do_not_clash() {
        let mut b = SanBuilder::new("m");
        b.place("p").unwrap();
        b.join("sub", |b| {
            b.place("p")?; // qualified as sub.p
            Ok(())
        })
        .unwrap();
        assert!(b.find_place("p").is_some());
        assert!(b.find_place("sub.p").is_some());
    }

    #[test]
    fn shared_place_is_shared_across_replicas() {
        let mut b = SanBuilder::new("m");
        let mut seen = Vec::new();
        b.replicate("r", 3, |b, _| {
            seen.push(b.shared_place("bus")?);
            b.place("private")?;
            Ok(())
        })
        .unwrap();
        assert_eq!(seen[0], seen[1]);
        assert_eq!(seen[1], seen[2]);
        assert!(b.find_place("r[0].private").is_some());
        assert!(b.find_place("r[2].private").is_some());
        assert!(b.find_place("r[3].private").is_none());
    }

    #[test]
    fn shared_place_kind_mismatch_rejected() {
        let mut b = SanBuilder::new("m");
        b.shared_extended_place("arr", vec![0, 0]).unwrap();
        assert!(b.shared_place("arr").is_err());
        assert!(b.shared_extended_place("arr", vec![0]).is_err());
        assert!(b.shared_extended_place("arr", vec![5, 5]).is_ok());
    }

    #[test]
    fn empty_model_rejected() {
        let b = SanBuilder::new("m");
        assert_eq!(b.build().unwrap_err(), SanError::EmptyModel);
    }

    #[test]
    fn invalid_rate_rejected() {
        let mut b = SanBuilder::new("m");
        b.place("p").unwrap();
        let err = b.timed_activity("a", Delay::exponential(-1.0)).unwrap_err();
        assert!(matches!(err, SanError::InvalidDelay { .. }));
    }

    #[test]
    fn shared_rate_group_validated() {
        let mut b = SanBuilder::new("m");
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                b.shared_rate_group("g", bad),
                Err(SanError::InvalidRateGroup { .. })
            ));
        }
        b.shared_rate_group("g", 2.0).unwrap();
        let err = b.shared_rate_group("g", 3.0).unwrap_err();
        assert!(err.to_string().contains("already exists"), "{err}");
        // A handle this builder never issued cannot be joined.
        let mut other = SanBuilder::new("other");
        other.shared_rate_group("a", 1.0).unwrap();
        let foreign = other.shared_rate_group("b", 1.0).unwrap();
        let err = b.timed_activity("t", Delay::shared(foreign)).unwrap_err();
        assert!(matches!(err, SanError::InvalidRateGroup { .. }), "{err}");
    }

    #[test]
    fn shared_rate_group_collects_its_members() {
        let mut b = SanBuilder::new("m");
        let g = b.shared_rate_group("g", 6.0).unwrap();
        b.replicate("v", 3, |b, _| {
            let p = b.place_with_tokens("p", 1)?;
            b.timed_activity("t", Delay::shared(g))?
                .input_place(p)
                .build()?;
            Ok(())
        })
        .unwrap();
        let model = b.build().unwrap();
        let group = model.rate_group(g);
        assert_eq!(group.name(), "g");
        assert_eq!(group.rate(), 6.0);
        let names: Vec<_> = group
            .members()
            .iter()
            .map(|&a| model.activity(a).name())
            .collect();
        assert_eq!(names, ["v[0].t", "v[1].t", "v[2].t"]);
    }

    #[test]
    fn case_probabilities_must_sum_to_one() {
        let mut b = SanBuilder::new("m");
        let p = b.place_with_tokens("p", 1).unwrap();
        let err = b
            .timed_activity("a", Delay::exponential(1.0))
            .unwrap()
            .input_place(p)
            .case(0.3)
            .case(0.3)
            .build()
            .unwrap_err();
        assert!(matches!(err, SanError::InvalidCaseDistribution { .. }));
    }

    #[test]
    fn duplicate_activity_rejected() {
        let mut b = SanBuilder::new("m");
        let p = b.place_with_tokens("p", 1).unwrap();
        b.timed_activity("a", Delay::exponential(1.0))
            .unwrap()
            .input_place(p)
            .build()
            .unwrap();
        assert!(matches!(
            b.timed_activity("a", Delay::exponential(1.0)),
            Err(SanError::DuplicateActivity { .. })
        ));
    }

    #[test]
    fn instant_weight_validated() {
        let mut b = SanBuilder::new("m");
        b.place("p").unwrap();
        assert!(matches!(
            b.instant_activity("i", 0, 0.0),
            Err(SanError::InvalidWeight { .. })
        ));
    }

    /// A minimal cycle so strict models have at least one activity.
    fn add_cycle(b: &mut SanBuilder) {
        let p = b.place_with_tokens("p", 1).unwrap();
        let q = b.place("q").unwrap();
        b.timed_activity("pq", Delay::exponential(1.0))
            .unwrap()
            .input_place(p)
            .output_place(q)
            .build()
            .unwrap();
        b.timed_activity("qp", Delay::exponential(1.0))
            .unwrap()
            .input_place(q)
            .output_place(p)
            .build()
            .unwrap();
    }

    #[test]
    fn strict_rejects_orphan_place() {
        let mut b = SanBuilder::new("m");
        b.validate_strict();
        add_cycle(&mut b);
        b.place("orphan").unwrap();
        let err = b.build().unwrap_err();
        match err {
            SanError::StrictValidation { diagnostics, .. } => {
                assert!(
                    diagnostics.iter().any(|d| d.contains("orphan")),
                    "{diagnostics:?}"
                );
            }
            other => panic!("expected StrictValidation, got {other:?}"),
        }
    }

    #[test]
    fn strict_accepts_gate_covered_place() {
        let mut b = SanBuilder::new("m");
        b.validate_strict();
        add_cycle(&mut b);
        let counter = b.place("counter").unwrap();
        let og = b.output_gate_touching("bump", [counter], move |m| {
            m.add_tokens(counter, 1);
        });
        let p = b.find_place("p").unwrap();
        let r = b.place("r").unwrap();
        b.timed_activity("pr", Delay::exponential(1.0))
            .unwrap()
            .input_place(p)
            .output_place(r)
            .output_gate(og)
            .build()
            .unwrap();
        b.timed_activity("rp", Delay::exponential(1.0))
            .unwrap()
            .input_place(r)
            .output_place(p)
            .build()
            .unwrap();
        assert!(b.build().is_ok());
    }

    #[test]
    fn strict_rejects_false_purity_claim() {
        let mut b = SanBuilder::new("m");
        b.validate_strict();
        let p = b.place_with_tokens("p", 1).unwrap();
        let g = b.input_gate("sneaky", |_| true, move |m| m.add_tokens(p, 1));
        b.claim_pure_predicate(g);
        b.timed_activity("t", Delay::exponential(1.0))
            .unwrap()
            .input_place(p)
            .input_gate(g)
            .output_place(p)
            .build()
            .unwrap();
        let err = b.build().unwrap_err();
        match err {
            SanError::StrictValidation { diagnostics, .. } => {
                assert!(
                    diagnostics.iter().any(|d| d.contains("pure predicate")),
                    "{diagnostics:?}"
                );
            }
            other => panic!("expected StrictValidation, got {other:?}"),
        }
    }

    #[test]
    fn strict_rejects_undeclared_gate_access() {
        let mut b = SanBuilder::new("m");
        b.validate_strict();
        let p = b.place_with_tokens("p", 1).unwrap();
        let declared = b.place_with_tokens("declared", 1).unwrap();
        let hidden = b.place_with_tokens("hidden", 1).unwrap();
        let g = b.input_gate_touching(
            "partial",
            [declared],
            move |m| m.is_marked(declared),
            move |m| m.add_tokens(hidden, 1),
        );
        b.timed_activity("t", Delay::exponential(1.0))
            .unwrap()
            .input_place(p)
            .input_gate(g)
            .output_place(p)
            .build()
            .unwrap();
        let err = b.build().unwrap_err();
        match err {
            SanError::StrictValidation { diagnostics, .. } => {
                assert!(
                    diagnostics.iter().any(|d| d.contains("hidden")),
                    "{diagnostics:?}"
                );
            }
            other => panic!("expected StrictValidation, got {other:?}"),
        }
    }

    #[test]
    fn strict_skips_marking_functions_of_unfireable_activities() {
        // The og's function would panic at the initial marking (removes
        // a token that is not there); strict validation must not run it
        // because its activity cannot fire from the initial marking.
        let mut b = SanBuilder::new("m");
        b.validate_strict();
        add_cycle(&mut b);
        let q = b.find_place("q").unwrap();
        let r = b.place("r").unwrap();
        let og = b.output_gate_touching("drain", [q], move |m| {
            m.remove_tokens(q, 1);
        });
        b.timed_activity("qr", Delay::exponential(1.0))
            .unwrap()
            .input_place(q)
            .output_place(r)
            .output_gate(og)
            .build()
            .unwrap();
        b.timed_activity("rq", Delay::exponential(1.0))
            .unwrap()
            .input_place(r)
            .output_place(q)
            .build()
            .unwrap();
        // q is unmarked initially, so `qr` cannot fire and `drain` must
        // not be traced. The model still builds strictly.
        assert!(b.build().is_ok());
    }

    #[test]
    fn non_strict_build_accepts_orphan_place() {
        let mut b = SanBuilder::new("m");
        add_cycle(&mut b);
        b.place("orphan").unwrap();
        assert!(b.build().is_ok());
    }
}
