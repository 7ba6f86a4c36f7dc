//! Stochastic simulation (Gillespie direct method).
//!
//! The deterministic ODE picture assumes concentrations are continuous; in a
//! real (or DNA-implemented) system the constructs must also work at finite
//! molecule counts, where every reaction is a discrete random event.
//! Experiment E10 uses this simulator to measure how small the counts can
//! get before the synchronous scheme starts mis-transferring.

use crate::compiled::CompiledCrn;
use crate::events::{Injection, TriggerRuntime};
use crate::metrics::{sinks_eq, MetricsSink, SimMetrics};
use crate::ode::{expected_records, StepHook};
use crate::{Schedule, SimError, State, Trace};
use molseq_crn::Crn;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Ordering;
use std::ops::ControlFlow;

/// Options controlling one stochastic run.
///
/// # Examples
///
/// ```
/// use molseq_kinetics::SsaOptions;
///
/// let opts = SsaOptions::default().with_t_end(20.0).with_seed(7);
/// assert_eq!(opts.t_end(), 20.0);
/// ```
#[derive(Clone, Copy)]
pub struct SsaOptions<'h> {
    t_start: f64,
    t_end: f64,
    record_interval: f64,
    max_events: usize,
    seed: u64,
    step_hook: Option<StepHook<'h>>,
    metrics: Option<MetricsSink<'h>>,
}

impl std::fmt::Debug for SsaOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsaOptions")
            .field("t_start", &self.t_start)
            .field("t_end", &self.t_end)
            .field("record_interval", &self.record_interval)
            .field("max_events", &self.max_events)
            .field("seed", &self.seed)
            .field("step_hook", &self.step_hook.map(|_| "<hook>"))
            .field("metrics", &self.metrics.map(|_| "<sink>"))
            .finish()
    }
}

impl PartialEq for SsaOptions<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.t_start == other.t_start
            && self.t_end == other.t_end
            && self.record_interval == other.record_interval
            && self.max_events == other.max_events
            && self.seed == other.seed
            && crate::ode::hooks_eq(self.step_hook, other.step_hook)
            && sinks_eq(self.metrics, other.metrics)
    }
}

impl Default for SsaOptions<'_> {
    /// Span `[0, 10]`, recording every `0.1`, 50 million event budget,
    /// seed `0`, no step hook.
    fn default() -> Self {
        SsaOptions {
            t_start: 0.0,
            t_end: 10.0,
            record_interval: 0.1,
            max_events: 50_000_000,
            seed: 0,
            step_hook: None,
            metrics: None,
        }
    }
}

impl<'h> SsaOptions<'h> {
    /// Sets the start time (builder style).
    #[must_use]
    pub fn with_t_start(mut self, t: f64) -> Self {
        self.t_start = t;
        self
    }

    /// Sets the end time (builder style).
    #[must_use]
    pub fn with_t_end(mut self, t: f64) -> Self {
        self.t_end = t;
        self
    }

    /// Sets the sampling interval (builder style).
    #[must_use]
    pub fn with_record_interval(mut self, dt: f64) -> Self {
        self.record_interval = dt;
        self
    }

    /// Sets the event budget (builder style).
    #[must_use]
    pub fn with_max_events(mut self, n: usize) -> Self {
        self.max_events = n;
        self
    }

    /// Sets the random seed (builder style). Runs are deterministic in the
    /// seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs a cooperative interruption hook (builder style), polled
    /// once per fired reaction event with `(cumulative events, current
    /// time)`. See [`StepHook`].
    #[must_use]
    pub fn with_step_hook(mut self, hook: StepHook<'h>) -> Self {
        self.step_hook = Some(hook);
        self
    }

    /// Installs a metrics sink (builder style). On every exit path —
    /// success or error — the simulator absorbs its work counters (events
    /// fired, final time, seed) into the sink. See
    /// [`SimMetrics`].
    #[must_use]
    pub fn with_metrics(mut self, sink: MetricsSink<'h>) -> Self {
        self.metrics = Some(sink);
        self
    }

    /// The configured end time.
    #[must_use]
    pub fn t_end(&self) -> f64 {
        self.t_end
    }

    /// The configured start time.
    #[must_use]
    pub fn t_start(&self) -> f64 {
        self.t_start
    }

    /// The configured recording interval.
    #[must_use]
    pub fn record_interval(&self) -> f64 {
        self.record_interval
    }

    /// The configured event budget.
    #[must_use]
    pub fn max_events(&self) -> usize {
        self.max_events
    }

    /// The configured random seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured step hook, if any.
    #[must_use]
    pub fn step_hook(&self) -> Option<StepHook<'h>> {
        self.step_hook
    }

    /// The configured metrics sink, if any.
    #[must_use]
    pub fn metrics(&self) -> Option<MetricsSink<'h>> {
        self.metrics
    }
}

/// The checks every stochastic driver runs before its core: network and
/// initial state sized to `crn`, and a finite, non-empty time span.
/// Failures here are not core errors — no metrics are flushed.
pub(crate) fn validate(
    crn: &Crn,
    compiled: &CompiledCrn,
    init: &State,
    opts: &SsaOptions,
) -> Result<(), SimError> {
    if compiled.species_count() != crn.species_count() {
        return Err(SimError::DimensionMismatch {
            supplied: compiled.species_count(),
            expected: crn.species_count(),
        });
    }
    if init.len() != crn.species_count() {
        return Err(SimError::DimensionMismatch {
            supplied: init.len(),
            expected: crn.species_count(),
        });
    }
    if !opts.t_start.is_finite() || !opts.t_end.is_finite() || opts.t_end <= opts.t_start {
        return Err(SimError::BadTimeSpan {
            t_start: opts.t_start,
            t_end: opts.t_end,
        });
    }
    Ok(())
}

/// Validated entry point over a precompiled network: what the
/// [`Simulation`](crate::Simulation) builder dispatches to for
/// [`SimMethod::Ssa`](crate::SimMethod::Ssa).
pub(crate) fn run_ssa(
    crn: &Crn,
    compiled: &CompiledCrn,
    init: &State,
    schedule: &Schedule,
    opts: &SsaOptions,
) -> Result<Trace, SimError> {
    validate(crn, compiled, init, opts)?;
    let mut run = match SsaRun::new(crn, compiled, init, schedule, *opts) {
        Ok(run) => run,
        Err(e) => {
            // a core error: flush the (empty) work counters
            SimMetrics::flush(opts.metrics, SsaRun::initial_stats(opts));
            return Err(e);
        }
    };
    let deps = DependencyGraph::new(compiled);
    let outcome = loop {
        match run.step(&deps) {
            Ok(false) => {}
            Ok(true) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    let (trace, stats) = run.finish();
    // flush even on failure: an interrupted or step-limited run still
    // reports the work it did
    SimMetrics::flush(opts.metrics, stats);
    outcome.map(|()| trace)
}

/// The reaction dependency graph in CSR form: [`of(j)`](Self::of) lists,
/// ascending, the reactions whose propensity can change when reaction `j`
/// fires — those reading a species `j` changes, and `j` itself.
///
/// Built per run (or per batch call), never inside [`CompiledCrn`]: the
/// compile and rebind paths stay as cheap as before.
#[derive(Default)]
pub(crate) struct DependencyGraph {
    /// `deps[start[j]..start[j + 1]]` are reaction `j`'s dependents.
    start: Vec<usize>,
    deps: Vec<usize>,
}

impl DependencyGraph {
    pub(crate) fn new(compiled: &CompiledCrn) -> Self {
        let mut graph = DependencyGraph::default();
        graph.rebuild(compiled);
        graph
    }

    /// Rebuilds the graph for `compiled`, reusing the buffers.
    pub(crate) fn rebuild(&mut self, compiled: &CompiledCrn) {
        let m = compiled.reaction_count();
        let n = compiled.species_count();
        // species → reactions that read it, in CSR form
        let mut reader_start = vec![0usize; n + 1];
        for j in 0..m {
            for &(i, _) in compiled.reactant_indices(j) {
                reader_start[i + 1] += 1;
            }
        }
        for i in 0..n {
            reader_start[i + 1] += reader_start[i];
        }
        let mut readers = vec![0usize; reader_start[n]];
        let mut fill = reader_start[..n].to_vec();
        for j in 0..m {
            for &(i, _) in compiled.reactant_indices(j) {
                readers[fill[i]] = j;
                fill[i] += 1;
            }
        }
        // one allocation per buffer, sized by an upper bound (the graph
        // is rebuilt per run: growth by reallocation fragments the heap of
        // a long-lived process)
        let reads = |i: usize| &readers[reader_start[i]..reader_start[i + 1]];
        let bound: usize = (0..m)
            .map(|j| {
                let changed = compiled.changed_species(j);
                1 + changed.iter().map(|&(i, _)| reads(i).len()).sum::<usize>()
            })
            .sum();
        self.deps.clear();
        self.deps.reserve(bound);
        self.start.clear();
        self.start.reserve(m + 1);
        self.start.push(0);
        // `seen[k] == j` once reaction `k` is listed among `j`'s dependents
        let mut seen = vec![usize::MAX; m];
        for j in 0..m {
            let from = self.deps.len();
            let changed = compiled.changed_species(j);
            let candidates = changed.iter().flat_map(|&(i, _)| reads(i));
            for &k in std::iter::once(&j).chain(candidates) {
                if seen[k] != j {
                    seen[k] = j;
                    self.deps.push(k);
                }
            }
            self.deps[from..].sort_unstable();
            self.start.push(self.deps.len());
        }
    }

    /// The reactions (ascending) whose propensity firing `j` can change.
    pub(crate) fn of(&self, j: usize) -> &[usize] {
        &self.deps[self.start[j]..self.start[j + 1]]
    }
}

/// A run's cached propensity row and its running prefix sums.
///
/// `prefix[j]` is `((0 + a_0) + a_1) + … + a_j`, accumulated in index
/// order — exactly the additions the textbook direct method makes when it
/// re-sums every propensity per event, so [`total`](Self::total) and
/// [`select`](Self::select) are bitwise what a full recompute gives.
/// After a firing only the fired reaction's dependents are re-evaluated,
/// and the prefix is re-summed from the lowest index whose value actually
/// changed, continuing from the untouched `prefix[k − 1]`.
#[derive(Default)]
pub(crate) struct PropensityRow {
    props: Vec<f64>,
    prefix: Vec<f64>,
}

impl PropensityRow {
    /// Re-evaluates every propensity at `n` and re-sums the prefix.
    pub(crate) fn recompute(&mut self, compiled: &CompiledCrn, n: &[i64]) {
        let m = compiled.reaction_count();
        self.props.clear();
        self.props.extend((0..m).map(|j| compiled.propensity(j, n)));
        self.prefix.resize(m, 0.0);
        self.resum_from(0);
    }

    /// Re-evaluates the reactions in `changed` (ascending) at `n` — every
    /// reaction whose inputs moved since the row was last current — and
    /// re-sums the prefix from the first one whose value changed.
    pub(crate) fn refresh(&mut self, compiled: &CompiledCrn, n: &[i64], changed: &[usize]) {
        let mut dirty = None;
        for &j in changed {
            let a = compiled.propensity(j, n);
            if a.to_bits() != self.props[j].to_bits() {
                self.props[j] = a;
                dirty.get_or_insert(j);
            }
        }
        if let Some(k) = dirty {
            self.resum_from(k);
        }
    }

    fn resum_from(&mut self, k: usize) {
        let mut acc = if k == 0 { 0.0 } else { self.prefix[k - 1] };
        for (p, &a) in self.prefix[k..].iter_mut().zip(&self.props[k..]) {
            acc += a;
            *p = acc;
        }
    }

    /// The propensity total `a0`.
    pub(crate) fn total(&self) -> f64 {
        self.prefix.last().copied().unwrap_or(0.0)
    }

    /// Selects the reaction to fire for `pick`, uniform in `[0, a0)`: the
    /// first `j` with `pick < prefix[j]` (a binary search — the prefix is
    /// non-decreasing), necessarily a reaction with positive propensity.
    ///
    /// Round-off can leave `pick >= a0` (e.g. `u · a0` rounding up to
    /// `a0`). The fallback for that case must be the last reaction with
    /// *positive* propensity: defaulting to the last reaction
    /// unconditionally could fire a zero-propensity reaction whose
    /// reactants are exhausted and drive copy numbers negative.
    pub(crate) fn select(&self, pick: f64) -> usize {
        // `!(pick < acc)`, spelled so a NaN pick scans past every entry
        // into the fallback, as the linear scan does
        let j = self
            .prefix
            .partition_point(|&acc| acc.partial_cmp(&pick) != Some(Ordering::Greater));
        if j < self.prefix.len() {
            return j;
        }
        self.props.iter().rposition(|&a| a > 0.0).unwrap_or(0)
    }
}

/// One direct-method run in flight: everything its event loop owns.
///
/// [`run_ssa`] steps one run to completion; the batched driver
/// ([`run_ssa_batch`](crate::run_ssa_batch)) steps many round-robin.
/// Both go through [`step`](Self::step), the one implementation of the
/// Gillespie event step.
pub(crate) struct SsaRun<'a, 'h> {
    compiled: &'a CompiledCrn,
    schedule: &'a Schedule,
    opts: SsaOptions<'h>,
    injections: Vec<Injection>,
    next_injection: usize,
    triggers: TriggerRuntime,
    /// Integer copy numbers: the state the propensities read.
    n: Vec<i64>,
    /// The `f64` mirror of `n` that traces record and triggers read.
    f: Vec<f64>,
    /// A trigger wrote to `f` since the last firing, so it may differ
    /// from `n` outside the next fired reaction's species: the next
    /// firing refreshes the whole mirror.
    f_stale: bool,
    row: PropensityRow,
    rng: StdRng,
    trace: Trace,
    stats: SimMetrics,
    t: f64,
    next_record: f64,
    events: usize,
}

impl<'a, 'h> SsaRun<'a, 'h> {
    /// Starts a run at `opts.t_start()`: converts `init` to copy numbers
    /// (fractional or negative amounts are a core error), records the
    /// first sample and evaluates the full propensity row. Call
    /// [`validate`] first.
    pub(crate) fn new(
        crn: &Crn,
        compiled: &'a CompiledCrn,
        init: &State,
        schedule: &'a Schedule,
        opts: SsaOptions<'h>,
    ) -> Result<Self, SimError> {
        let mut n = Vec::with_capacity(init.len());
        for &v in init.as_slice() {
            n.push(to_count(v)?);
        }
        let f: Vec<f64> = n.iter().map(|&v| v as f64).collect();
        let records = expected_records(opts.t_end - opts.t_start, opts.record_interval, schedule);
        // an eighth more for the samples trigger firings push: growing a
        // long trace by doubling costs time and peak memory
        let mut trace = Trace::with_capacity(crn, records + records / 8);
        trace.push(opts.t_start, &f);
        let mut row = PropensityRow::default();
        row.recompute(compiled, &n);
        Ok(SsaRun {
            compiled,
            schedule,
            injections: schedule.sorted_injections(),
            next_injection: 0,
            triggers: TriggerRuntime::new(schedule, &f),
            n,
            f,
            f_stale: false,
            row,
            rng: StdRng::seed_from_u64(opts.seed),
            trace,
            stats: Self::initial_stats(&opts),
            t: opts.t_start,
            next_record: opts.t_start + opts.record_interval,
            events: 0,
            opts,
        })
    }

    /// The work counters of a run that has not fired yet.
    pub(crate) fn initial_stats(opts: &SsaOptions) -> SimMetrics {
        SimMetrics {
            seed: opts.seed,
            final_time: opts.t_start,
            ..SimMetrics::default()
        }
    }

    /// The run's options.
    pub(crate) fn options(&self) -> &SsaOptions<'h> {
        &self.opts
    }

    /// The network the run simulates.
    pub(crate) fn compiled(&self) -> &'a CompiledCrn {
        self.compiled
    }

    /// The trace so far and the work counters.
    pub(crate) fn finish(self) -> (Trace, SimMetrics) {
        (self.trace, self.stats)
    }

    /// One iteration of the direct method: draws the waiting time from
    /// the cached `a0`, then either fires one reaction, or — when the
    /// next injection or the end of the span comes first — records the
    /// plateau up to it and applies the injection. `deps` must be the
    /// dependency graph of the run's network structure.
    ///
    /// Returns `Ok(true)` once the span is complete (final sample
    /// pushed), `Ok(false)` to keep stepping, `Err` on a core failure.
    pub(crate) fn step(&mut self, deps: &DependencyGraph) -> Result<bool, SimError> {
        let t_end = self.opts.t_end;
        let injection_time = self
            .injections
            .get(self.next_injection)
            .map_or(f64::INFINITY, |inj| inj.time);

        // Waiting time from the cached total propensity.
        let a0 = self.row.total();
        let t_next = if a0 > 0.0 {
            let u: f64 = 1.0 - self.rng.random::<f64>();
            self.t - u.ln() / a0
        } else {
            f64::INFINITY
        };

        // Which comes first: reaction, injection, or end of span?
        let stop = t_end.min(injection_time);
        if t_next >= stop {
            // Record the plateau up to `stop`.
            record_until(
                &mut self.trace,
                &self.f,
                &mut self.next_record,
                stop,
                &self.opts,
            );
            self.t = stop;
            self.stats.final_time = stop;
            if injection_time > t_end {
                self.trace.push(stop, &self.f);
                return Ok(true);
            }
            let inj = &self.injections[self.next_injection];
            let i = inj.species.index();
            self.n[i] += to_count(inj.amount)?;
            self.f[i] = self.n[i] as f64;
            self.trace.push(stop, &self.f);
            self.next_injection += 1;
            for fired in self.triggers.poll(self.schedule, stop, &mut self.f) {
                self.trace.push_mark(stop, fired);
                sync_back(&mut self.n, &self.f)?;
                self.f_stale = true;
            }
            self.row.recompute(self.compiled, &self.n);
            return Ok(false);
        }

        // Fire one reaction.
        if self.events >= self.opts.max_events {
            return Err(SimError::StepLimitExceeded {
                reached: self.t,
                t_end,
                max_steps: self.opts.max_events,
            });
        }
        self.events += 1;
        self.stats.ssa_events = self.events as u64;
        if let Some(hook) = self.opts.step_hook {
            if let ControlFlow::Break(reason) = hook(self.events as u64, self.t) {
                return Err(SimError::Interrupted {
                    time: self.t,
                    reason,
                });
            }
        }
        record_until(
            &mut self.trace,
            &self.f,
            &mut self.next_record,
            t_next,
            &self.opts,
        );
        self.t = t_next;
        self.stats.final_time = t_next;
        let pick: f64 = self.rng.random::<f64>() * a0;
        let chosen = self.row.select(pick);
        self.compiled.fire(chosen, &mut self.n);
        if self.f_stale {
            for (f, &c) in self.f.iter_mut().zip(&self.n) {
                *f = c as f64;
            }
            self.f_stale = false;
        } else {
            for &(i, _) in self.compiled.changed_species(chosen) {
                self.f[i] = self.n[i] as f64;
            }
        }
        self.row.refresh(self.compiled, &self.n, deps.of(chosen));
        if !self.schedule.triggers().is_empty() {
            let mut synced = false;
            for fired in self.triggers.poll(self.schedule, t_next, &mut self.f) {
                self.trace.push_mark(t_next, fired);
                self.trace.push(t_next, &self.f);
                sync_back(&mut self.n, &self.f)?;
                synced = true;
            }
            if synced {
                self.f_stale = true;
                self.row.recompute(self.compiled, &self.n);
            }
        }
        Ok(false)
    }
}

/// Selects the reaction to fire from a prefix-sum scan of the
/// propensities, for engines that hold no [`PropensityRow`]. Same rule as
/// [`PropensityRow::select`]: the first `j` with `pick < Σ_{k≤j} a_k`,
/// else the last reaction with positive propensity.
pub(crate) fn select_reaction(
    count: usize,
    mut propensity: impl FnMut(usize) -> f64,
    pick: f64,
) -> usize {
    let mut acc = 0.0;
    let mut last_positive = 0;
    for j in 0..count {
        let p = propensity(j);
        if p > 0.0 {
            last_positive = j;
        }
        acc += p;
        if pick < acc {
            return j;
        }
    }
    last_positive
}

pub(crate) fn to_count(v: f64) -> Result<i64, SimError> {
    let rounded = v.round();
    if v < 0.0 || (v - rounded).abs() > 1e-9 || !v.is_finite() {
        return Err(SimError::NonIntegerAmount { amount: v });
    }
    Ok(rounded as i64)
}

/// After a trigger's queue injection modified the f64 mirror, fold the
/// change back into the integer state.
pub(crate) fn sync_back(n: &mut [i64], f64_state: &[f64]) -> Result<(), SimError> {
    for (c, &f) in n.iter_mut().zip(f64_state) {
        *c = to_count(f)?;
    }
    Ok(())
}

pub(crate) fn record_until(
    trace: &mut Trace,
    state: &[f64],
    next_record: &mut f64,
    until: f64,
    opts: &SsaOptions,
) {
    while *next_record <= until && *next_record <= opts.t_end {
        trace.push(*next_record, state);
        *next_record += opts.record_interval;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{Condition, Trigger};
    use crate::SimSpec;
    use molseq_crn::{Crn, RateAssignment};

    /// Builder-backed stand-in for the deprecated free function (shadows
    /// the glob import), keeping every test on the new entry point.
    fn simulate_ssa(
        crn: &Crn,
        init: &State,
        schedule: &Schedule,
        opts: &SsaOptions,
        spec: &SimSpec,
    ) -> Result<Trace, SimError> {
        let compiled = CompiledCrn::new(crn, spec);
        crate::sim::Simulation::new(crn, &compiled)
            .init(init)
            .schedule(schedule)
            .options(*opts)
            .run()
    }

    #[test]
    fn decay_reaches_zero_and_conserves_integers() {
        let crn: Crn = "X -> Y @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let y = crn.find_species("Y").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 100.0);
        let opts = SsaOptions::default().with_t_end(50.0).with_seed(1);
        let trace =
            simulate_ssa(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap();
        let fin = trace.final_state();
        assert_eq!(fin[x.index()], 0.0);
        assert_eq!(fin[y.index()], 100.0);
        // every snapshot conserves X+Y
        for i in 0..trace.len() {
            assert_eq!(trace.state(i)[x.index()] + trace.state(i)[y.index()], 100.0);
        }
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let crn: Crn = "X -> Y @slow\nY -> X @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 50.0);
        let opts = SsaOptions::default().with_t_end(5.0).with_seed(42);
        let a = simulate_ssa(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap();
        let b = simulate_ssa(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap();
        assert_eq!(a, b);
        let c = simulate_ssa(
            &crn,
            &init,
            &Schedule::new(),
            &opts.with_seed(43),
            &SimSpec::default(),
        )
        .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn large_counts_approach_ode_mean() {
        // X -> 0 at k=1: after t=1, mean is N/e.
        let crn: Crn = "X -> 0 @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let n0 = 10_000.0;
        let mut init = State::new(&crn);
        init.set(x, n0);
        let opts = SsaOptions::default().with_t_end(1.0).with_seed(3);
        let trace =
            simulate_ssa(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap();
        let expected = n0 / std::f64::consts::E;
        let got = trace.final_state()[x.index()];
        // 5 sigma ≈ 5·sqrt(N·p·(1−p)) ≈ 240
        assert!((got - expected).abs() < 250.0, "{got} vs {expected}");
    }

    #[test]
    fn injections_apply() {
        let crn: Crn = "X -> 0 @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let schedule = Schedule::new().inject(2.0, x, 10.0);
        let opts = SsaOptions::default().with_t_end(2.1).with_seed(5);
        let trace = simulate_ssa(
            &crn,
            &State::new(&crn),
            &schedule,
            &opts,
            &SimSpec::default(),
        )
        .unwrap();
        assert!(trace.value_at(x, 1.9) < 1e-9);
        assert!(trace.value_at(x, 2.0 + 1e-9) >= 9.0);
    }

    #[test]
    fn rejects_fractional_amounts() {
        let crn: Crn = "X -> 0 @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 1.5);
        let err = simulate_ssa(
            &crn,
            &init,
            &Schedule::new(),
            &SsaOptions::default(),
            &SimSpec::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::NonIntegerAmount { .. }));
    }

    #[test]
    fn empty_system_idles_to_end() {
        let crn: Crn = "X + Y -> 0 @fast".parse().unwrap();
        let opts = SsaOptions::default().with_t_end(3.0);
        let trace = simulate_ssa(
            &crn,
            &State::new(&crn),
            &Schedule::new(),
            &opts,
            &SimSpec::default(),
        )
        .unwrap();
        assert_eq!(*trace.times().last().unwrap(), 3.0);
    }

    #[test]
    fn bimolecular_uses_combination_counts() {
        // 2X -> Y with exactly 2 molecules: must fire exactly once.
        let crn: Crn = "2X -> Y @fast".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let y = crn.find_species("Y").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 2.0);
        let opts = SsaOptions::default().with_t_end(10.0).with_seed(11);
        let trace =
            simulate_ssa(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap();
        assert_eq!(trace.final_state()[x.index()], 0.0);
        assert_eq!(trace.final_state()[y.index()], 1.0);
    }

    #[test]
    fn step_hook_interrupts_event_loop() {
        let crn: Crn = "X -> Y @slow\nY -> X @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 1000.0);
        let hook = |events: u64, _t: f64| {
            if events > 50 {
                ControlFlow::Break("test budget".to_owned())
            } else {
                ControlFlow::Continue(())
            }
        };
        let opts = SsaOptions::default()
            .with_t_end(1000.0)
            .with_seed(9)
            .with_step_hook(&hook);
        let err =
            simulate_ssa(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap_err();
        match err {
            SimError::Interrupted { reason, .. } => assert_eq!(reason, "test budget"),
            other => panic!("expected Interrupted, got {other:?}"),
        }
    }

    #[test]
    fn selection_never_falls_back_to_a_zero_propensity_reaction() {
        // Regression: with propensities [2, 0] and a round-off pick at (or
        // beyond) the total, the old fallback (`chosen = last reaction`)
        // fired reaction 1 despite its zero propensity — firing it would
        // drive its exhausted reactant negative. The fallback must be the
        // last reaction with positive propensity.
        let props = [2.0, 0.0];
        assert_eq!(select_reaction(2, |j| props[j], 2.0), 0);
        assert_eq!(select_reaction(2, |j| props[j], f64::INFINITY), 0);
        // zero-propensity reactions in the middle are skipped too
        let props = [0.0, 1.5, 0.0];
        assert_eq!(select_reaction(3, |j| props[j], 1.5), 1);
        // normal in-range picks are untouched by the fix
        let props = [1.0, 2.0, 3.0];
        assert_eq!(select_reaction(3, |j| props[j], 0.5), 0);
        assert_eq!(select_reaction(3, |j| props[j], 1.5), 1);
        assert_eq!(select_reaction(3, |j| props[j], 5.9), 2);
    }

    fn row_of(props: &[f64]) -> PropensityRow {
        let mut row = PropensityRow {
            props: props.to_vec(),
            prefix: vec![0.0; props.len()],
        };
        row.resum_from(0);
        row
    }

    #[test]
    fn prefix_selection_never_falls_back_to_a_zero_propensity_reaction() {
        // the same cases as the scan selector above: a round-off pick at
        // (or beyond) the total must fall back to the last reaction with
        // positive propensity, never to a trailing zero-propensity one
        let row = row_of(&[2.0, 0.0]);
        assert_eq!(row.select(2.0), 0);
        assert_eq!(row.select(f64::INFINITY), 0);
        assert_eq!(row.select(f64::NAN), 0);
        let row = row_of(&[0.0, 1.5, 0.0]);
        assert_eq!(row.select(1.5), 1);
        // zero-propensity reactions are never the first prefix above a pick
        assert_eq!(row.select(0.0), 1);
        let row = row_of(&[1.0, 2.0, 3.0]);
        assert_eq!(row.select(0.5), 0);
        assert_eq!(row.select(1.5), 1);
        assert_eq!(row.select(5.9), 2);
        // and the binary search agrees with the linear scan everywhere
        let props = [0.0, 0.25, 0.0, 0.0, 1.0, 3.5, 0.0, 1e-300, 2.0, 0.0];
        let row = row_of(&props);
        for step in 0..=200 {
            let pick = row.total() * f64::from(step) / 190.0;
            assert_eq!(
                row.select(pick),
                select_reaction(props.len(), |j| props[j], pick),
                "pick {pick}"
            );
        }
    }

    /// A fresh full evaluation of `run`'s row must equal its cached,
    /// incrementally maintained one bit for bit, and the `f64` mirror must
    /// track the counts unless a trigger has just written to it.
    fn assert_row_is_current(run: &SsaRun) {
        let mut fresh = PropensityRow::default();
        fresh.recompute(run.compiled, &run.n);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&run.row.props), bits(&fresh.props), "propensities");
        assert_eq!(bits(&run.row.prefix), bits(&fresh.prefix), "prefix sums");
        if !run.f_stale {
            let mirror: Vec<f64> = run.n.iter().map(|&c| c as f64).collect();
            assert_eq!(bits(&run.f), bits(&mirror), "f64 mirror");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 32,
            ..proptest::ProptestConfig::default()
        })]

        /// After any interleaving of firings, timed injections and
        /// trigger injections, the incremental row and prefix equal a
        /// full recompute bit for bit.
        #[test]
        fn incremental_row_matches_a_full_recompute(
            seed in 0u64..10_000,
            x0 in 0u32..40,
            injections in proptest::collection::vec((1u32..40, 0usize..5, 0u32..25), 0..5),
            threshold in 1u32..30,
        ) {
            let crn: Crn = "X -> Y @slow\nY -> X @slow\n2X -> Z @fast\nZ -> X @slow\n\
                            X + Y -> W @fast\nW + X -> W + Y @slow\n0 -> X @slow\n\
                            Z -> 0 @slow\n3Y -> V @fast"
                .parse()
                .unwrap();
            let compiled = CompiledCrn::new(&crn, &SimSpec::new(RateAssignment::from_ratio(30.0)));
            let species: Vec<_> = ["X", "Y", "Z", "W", "V"]
                .iter()
                .map(|name| crn.find_species(name).unwrap())
                .collect();
            let mut init = State::new(&crn);
            init.set(species[0], f64::from(x0));
            // X decays below its threshold, the queue trigger refills it
            // and re-arms, so trigger injections land between firings
            let mut schedule = Schedule::new()
                .trigger(Trigger::inject_queue(
                    Condition::Below { species: species[0], threshold: f64::from(threshold) },
                    species[0],
                    vec![7.0, 3.0, 11.0, 2.0, 5.0, 9.0],
                ))
                .trigger(Trigger::mark(Condition::Above { species: species[1], threshold: 5.0 }));
            for &(time, i, amount) in &injections {
                schedule = schedule.inject(f64::from(time) / 10.0, species[i], f64::from(amount));
            }
            let opts = SsaOptions::default().with_t_end(4.0).with_seed(seed);
            let mut run = SsaRun::new(&crn, &compiled, &init, &schedule, opts).unwrap();
            let deps = DependencyGraph::new(&compiled);
            assert_row_is_current(&run);
            for _ in 0..5_000 {
                let done = run.step(&deps).unwrap();
                assert_row_is_current(&run);
                if done {
                    break;
                }
            }
        }
    }

    #[test]
    fn metrics_report_events_seed_and_final_time() {
        use crate::SimMetrics;
        use std::cell::Cell;

        let crn: Crn = "X -> Y @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 100.0);
        let sink = Cell::new(SimMetrics::default());
        let opts = SsaOptions::default()
            .with_t_end(50.0)
            .with_seed(6)
            .with_metrics(&sink);
        simulate_ssa(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap();
        let m = sink.get();
        // every X was converted exactly once
        assert_eq!(m.ssa_events, 100);
        assert_eq!(m.seed, 6);
        assert_eq!(m.final_time, 50.0);
        assert_eq!(m.ode_steps_accepted, 0);
    }

    #[test]
    fn metrics_flush_on_interruption() {
        use crate::SimMetrics;
        use std::cell::Cell;

        let crn: Crn = "X -> Y @slow\nY -> X @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 1000.0);
        let hook = |events: u64, _t: f64| {
            if events > 50 {
                ControlFlow::Break("budget".to_owned())
            } else {
                ControlFlow::Continue(())
            }
        };
        let sink = Cell::new(SimMetrics::default());
        let opts = SsaOptions::default()
            .with_t_end(1000.0)
            .with_seed(9)
            .with_step_hook(&hook)
            .with_metrics(&sink);
        simulate_ssa(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap_err();
        assert_eq!(sink.get().ssa_events, 51);
    }

    #[test]
    fn rate_assignment_scales_speed() {
        let crn: Crn = "X -> 0 @fast".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 1000.0);
        let fast_spec = SimSpec::new(RateAssignment::new(100.0, 1.0).unwrap());
        let opts = SsaOptions::default().with_t_end(0.1).with_seed(2);
        let trace = simulate_ssa(&crn, &init, &Schedule::new(), &opts, &fast_spec).unwrap();
        // k=100, t=0.1 → survival e^-10 ≈ 0: all gone
        assert!(trace.final_state()[x.index()] < 5.0);
    }
}
