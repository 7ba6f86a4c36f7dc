//! Deterministic mass-action ODE integration.
//!
//! Three methods are provided:
//!
//! * [`OdeMethod::Rosenbrock`] — adaptive linearly implicit ode23s with
//!   the analytic mass-action Jacobian. This is the **default**: the
//!   networks in this workspace mix rate constants spanning several orders
//!   of magnitude (`k_fast/k_slow` up to 10⁵ in the robustness sweeps),
//!   which makes them stiff — explicit steps would be stability-limited to
//!   `~1/(k_fast·X)`.
//! * [`OdeMethod::CashKarp`] — adaptive embedded Runge–Kutta 4(5),
//!   explicit; used for cross-checking on mildly stiff problems.
//! * [`OdeMethod::Rk4`] — classical fixed-step fourth-order Runge–Kutta;
//!   simple, predictable cost.
//!
//! All methods project the state onto the non-negative orthant after each
//! accepted step; mass-action fluxes already treat negative concentrations
//! as zero, so the projection is a stabilizer, not a model change.

// Index loops mirror the textbook Runge–Kutta formulas; iterator chains
// would obscure them.
#![allow(clippy::needless_range_loop)]

use crate::compiled::CompiledCrn;
use crate::events::TriggerRuntime;
use crate::metrics::{sinks_eq, MetricsSink, SimMetrics};
use crate::{Schedule, SimError, SimSpec, State, Trace};
use molseq_crn::Crn;
use std::ops::ControlFlow;

/// A cooperative interruption hook polled once per integrator step (or
/// stochastic event) with the cumulative step count and the current
/// simulated time. Returning `ControlFlow::Break(reason)` aborts the run
/// with [`SimError::Interrupted`].
///
/// This is how the sweep engine's wall/step budgets reach *inside* a
/// simulation: `molseq-sweep`'s `JobCtx::step_hook` adapts
/// `record_steps`/`check` to this signature, so a runaway cell is stopped
/// mid-integration instead of only between cells.
pub type StepHook<'h> = &'h dyn Fn(u64, f64) -> ControlFlow<String>;

/// Number of accepted steps the default configuration reuses a Jacobian
/// for before re-evaluating it (see [`OdeOptions::with_jacobian_reuse`]).
///
/// The default is `0` — evaluate every step. ode23s is not a W-method:
/// its order conditions assume a current Jacobian, so a lagged one
/// inflates the embedded error estimate and the controller responds by
/// rejecting and retrying (measured on the paper's workloads: any
/// nonzero reuse roughly *doubles* trial-step counts, eating the saved
/// factorizations and more). The Jacobian evaluation itself is cheap
/// here anyway (`jacobian_sparse` fills only the precomputed nonzeros);
/// reuse remains available as an opt-in for systems whose Jacobian is
/// genuinely slowly varying.
pub const DEFAULT_JACOBIAN_REUSE: usize = 0;

/// Integration method selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OdeMethod {
    /// Classical fixed-step RK4 with step `h`.
    Rk4 {
        /// Step size (must be positive and finite).
        h: f64,
    },
    /// Adaptive Cash–Karp RKF45 (explicit; step-size limited by the
    /// fastest reaction on stiff problems).
    CashKarp {
        /// Relative tolerance per component.
        rtol: f64,
        /// Absolute tolerance per component.
        atol: f64,
    },
    /// Adaptive Rosenbrock (ode23s) with the analytic mass-action
    /// Jacobian — the default: the fast/slow rate separation makes these
    /// systems stiff, and a linearly implicit method steps over the fast
    /// transients at accuracy-limited (not stability-limited) step sizes.
    Rosenbrock {
        /// Relative tolerance per component.
        rtol: f64,
        /// Absolute tolerance per component.
        atol: f64,
    },
}

impl Default for OdeMethod {
    fn default() -> Self {
        OdeMethod::Rosenbrock {
            rtol: 1e-6,
            atol: 1e-9,
        }
    }
}

/// Options controlling one deterministic run.
///
/// # Examples
///
/// ```
/// use molseq_kinetics::{OdeMethod, OdeOptions};
///
/// let opts = OdeOptions::default()
///     .with_t_end(50.0)
///     .with_record_interval(0.05)
///     .with_method(OdeMethod::Rk4 { h: 1e-3 });
/// assert_eq!(opts.t_end(), 50.0);
/// ```
#[derive(Clone, Copy)]
pub struct OdeOptions<'h> {
    method: OdeMethod,
    t_start: f64,
    t_end: f64,
    record_interval: f64,
    h_max: f64,
    max_steps: usize,
    jacobian_reuse: usize,
    step_hook: Option<StepHook<'h>>,
    metrics: Option<MetricsSink<'h>>,
}

impl std::fmt::Debug for OdeOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OdeOptions")
            .field("method", &self.method)
            .field("t_start", &self.t_start)
            .field("t_end", &self.t_end)
            .field("record_interval", &self.record_interval)
            .field("h_max", &self.h_max)
            .field("max_steps", &self.max_steps)
            .field("jacobian_reuse", &self.jacobian_reuse)
            .field("step_hook", &self.step_hook.map(|_| "<hook>"))
            .field("metrics", &self.metrics.map(|_| "<sink>"))
            .finish()
    }
}

impl PartialEq for OdeOptions<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.method == other.method
            && self.t_start == other.t_start
            && self.t_end == other.t_end
            && self.record_interval == other.record_interval
            && self.h_max == other.h_max
            && self.max_steps == other.max_steps
            && self.jacobian_reuse == other.jacobian_reuse
            && hooks_eq(self.step_hook, other.step_hook)
            && sinks_eq(self.metrics, other.metrics)
    }
}

/// Hooks compare by identity (same closure object), not behavior.
pub(crate) fn hooks_eq(a: Option<StepHook<'_>>, b: Option<StepHook<'_>>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => std::ptr::eq(a as *const _ as *const (), b as *const _ as *const ()),
        _ => false,
    }
}

impl Default for OdeOptions<'_> {
    /// Rosenbrock with `rtol = 1e-6`, `atol = 1e-9`, span `[0, 10]`,
    /// recording every `0.1` time units, budget of 20 million steps,
    /// Jacobian reuse of [`DEFAULT_JACOBIAN_REUSE`] accepted steps, no
    /// step hook.
    fn default() -> Self {
        OdeOptions {
            method: OdeMethod::default(),
            t_start: 0.0,
            t_end: 10.0,
            record_interval: 0.1,
            h_max: 0.25,
            max_steps: 20_000_000,
            jacobian_reuse: DEFAULT_JACOBIAN_REUSE,
            step_hook: None,
            metrics: None,
        }
    }
}

impl<'h> OdeOptions<'h> {
    /// Sets the integration method (builder style).
    #[must_use]
    pub fn with_method(mut self, method: OdeMethod) -> Self {
        self.method = method;
        self
    }

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

    /// Sets the sampling interval for the recorded trace (builder style).
    #[must_use]
    pub fn with_record_interval(mut self, dt: f64) -> Self {
        self.record_interval = dt;
        self
    }

    /// Sets the step budget (builder style).
    #[must_use]
    pub fn with_max_steps(mut self, n: usize) -> Self {
        self.max_steps = n;
        self
    }

    /// Sets the maximum step size (builder style). Recording does not
    /// limit the step (samples are interpolated), but triggers are only
    /// polled at step ends, so `h_max` bounds event-detection latency.
    #[must_use]
    pub fn with_h_max(mut self, h: f64) -> Self {
        self.h_max = h;
        self
    }

    /// Sets how many accepted steps the Rosenbrock integrator may reuse a
    /// Jacobian for before re-evaluating it (builder style). `0` (the
    /// default, see [`DEFAULT_JACOBIAN_REUSE`]) evaluates every step. The
    /// Jacobian is always refreshed after a rejected step and at
    /// discontinuities (injections, trigger firings), so reuse trades a
    /// bounded amount of step-size efficiency — never stability — for
    /// skipping `jacobian` + LU-factorization work. On this workspace's
    /// stiff autocatalytic networks the trade is a net loss (staleness
    /// triggers rejections), hence the conservative default; the knob is
    /// for slowly varying systems.
    #[must_use]
    pub fn with_jacobian_reuse(mut self, accepted_steps: usize) -> Self {
        self.jacobian_reuse = accepted_steps;
        self
    }

    /// Installs a cooperative interruption hook (builder style), polled
    /// once per attempted step with `(cumulative steps, current time)`.
    /// See [`StepHook`].
    #[must_use]
    pub fn with_step_hook(mut self, hook: StepHook<'h>) -> Self {
        self.step_hook = Some(hook);
        self
    }

    /// Installs a metrics sink (builder style). On every exit path —
    /// success or error — the integrator absorbs its work counters
    /// (accepted/rejected steps, LU factorizations, final time) into the
    /// sink. See [`SimMetrics`].
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

    /// The configured Jacobian reuse horizon, in accepted steps.
    #[must_use]
    pub fn jacobian_reuse(&self) -> usize {
        self.jacobian_reuse
    }

    // Crate-level accessors for the batched driver (`crate::batch`), which
    // replays the exact scalar control flow from another module.
    pub(crate) fn method(&self) -> OdeMethod {
        self.method
    }

    pub(crate) fn record_interval(&self) -> f64 {
        self.record_interval
    }

    pub(crate) fn h_max(&self) -> f64 {
        self.h_max
    }

    pub(crate) fn max_steps(&self) -> usize {
        self.max_steps
    }

    pub(crate) fn step_hook(&self) -> Option<StepHook<'h>> {
        self.step_hook
    }

    pub(crate) fn metrics_sink(&self) -> Option<MetricsSink<'h>> {
        self.metrics
    }
}

/// Reusable integrator buffers: the step scratch (`Scratch` /
/// `RosenbrockWork`, including the cached Jacobian + LU), the previous
/// state, and the interpolation buffer for recorded samples.
///
/// One workspace serves any number of [`crate::Simulation`] runs (attach
/// it with `Simulation::workspace`); buffers are lazily (re)sized to the
/// network and method of each call, and all cached numerical state is
/// invalidated on entry, so a reused workspace produces bit-identical
/// results to a fresh one. This
/// removes every per-segment and per-record allocation from the hot path:
/// multi-cycle harness runs and sweep cells allocate integrator storage
/// once instead of once per injection segment.
#[derive(Default)]
pub struct OdeWorkspace {
    scratch: Option<Scratch>,
    rosenbrock: Option<crate::stiff::RosenbrockWork>,
    x: Vec<f64>,
    x_prev: Vec<f64>,
    sample: Vec<f64>,
    /// Newton solver buffers for the implicit tau-leaper; sized lazily by
    /// `run_tau_implicit` so purely deterministic callers pay nothing.
    pub(crate) newton: Option<crate::tau_implicit::NewtonWork>,
    /// Fast-subsystem stepper buffers for the hybrid ODE/SSA engine; sized
    /// lazily by `run_hybrid`.
    pub(crate) hybrid: Option<crate::hybrid::HybridWork>,
}

impl OdeWorkspace {
    /// An empty workspace; buffers are allocated on first use.
    #[must_use]
    pub fn new() -> Self {
        OdeWorkspace::default()
    }

    /// Sizes the buffers for `compiled` + `method`, loads `init` into the
    /// state vector, and invalidates any cached Jacobian/LU state.
    fn prepare(&mut self, compiled: &CompiledCrn, method: OdeMethod, init: &[f64]) {
        let n = compiled.species_count();
        self.x.clear();
        self.x.extend_from_slice(init);
        self.x_prev.clear();
        self.x_prev.resize(n, 0.0);
        self.sample.clear();
        self.sample.resize(n, 0.0);
        match method {
            OdeMethod::Rosenbrock { .. } => {
                // `matches` compares the Jacobian pattern, not just sizes:
                // the workspace carries a symbolic factorization specific
                // to that pattern.
                match &mut self.rosenbrock {
                    Some(work) if work.matches(compiled) => work.invalidate(),
                    slot => *slot = Some(crate::stiff::RosenbrockWork::new(compiled)),
                }
            }
            OdeMethod::Rk4 { .. } | OdeMethod::CashKarp { .. } => {
                if self.scratch.as_ref().map(Scratch::len) != Some(n) {
                    self.scratch = Some(Scratch::new(n));
                }
            }
        }
    }
}

/// Deterministic core behind the [`crate::Simulation`] builder:
/// validates dimensions and span,
/// integrates segment by segment between timed injections, and flushes
/// work counters on every exit path.
pub(crate) fn run_ode(
    crn: &Crn,
    compiled: &CompiledCrn,
    init: &State,
    schedule: &Schedule,
    opts: &OdeOptions,
    workspace: &mut OdeWorkspace,
) -> Result<Trace, SimError> {
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

    workspace.prepare(compiled, opts.method, init.as_slice());
    let lu_before = workspace
        .rosenbrock
        .as_ref()
        .map_or(0, crate::stiff::RosenbrockWork::factorizations);
    let mut t = opts.t_start;
    let span = opts.t_end - opts.t_start;
    let mut trace =
        Trace::with_capacity(crn, expected_records(span, opts.record_interval, schedule));
    trace.push(t, &workspace.x);

    let mut triggers = TriggerRuntime::new(schedule, &workspace.x);
    let injections = schedule.sorted_injections();
    let mut next_injection = 0usize;
    let mut next_record = opts.t_start + opts.record_interval;
    let mut steps_used = 0usize;
    let mut metrics = SimMetrics::default();
    let mut failure = None;

    // Adaptive state persists across segments.
    let mut h_adaptive = initial_step(opts);

    while t < opts.t_end {
        // The next hard stop: injection time or end of span.
        let segment_end = injections
            .get(next_injection)
            .map_or(opts.t_end, |inj| inj.time.clamp(opts.t_start, opts.t_end));

        if segment_end > t {
            if let Err(e) = integrate_segment(
                compiled,
                workspace,
                &mut t,
                segment_end,
                opts,
                &mut h_adaptive,
                &mut steps_used,
                &mut next_record,
                &mut trace,
                schedule,
                &mut triggers,
                &mut metrics,
            ) {
                failure = Some(e);
                break;
            }
        }

        // Apply any injections scheduled at (or before) the reached time.
        let mut injected = false;
        while let Some(inj) = injections.get(next_injection) {
            if inj.time <= t + 1e-12 {
                workspace.x[inj.species.index()] += inj.amount;
                next_injection += 1;
                injected = true;
            } else {
                break;
            }
        }
        if injected {
            trace.push(t, &workspace.x);
            for fired in triggers.poll(schedule, t, &mut workspace.x) {
                trace.push_mark(t, fired);
            }
            // the state jumped: any cached Jacobian is for the old state
            if let Some(work) = workspace.rosenbrock.as_mut() {
                work.invalidate();
            }
        }
    }

    // Flush the work counters even on failure: an interrupted or
    // step-limited cell still reports what it cost.
    metrics.final_time = t;
    metrics.lu_factorizations = workspace
        .rosenbrock
        .as_ref()
        .map_or(0, crate::stiff::RosenbrockWork::factorizations)
        - lu_before;
    SimMetrics::flush(opts.metrics, metrics);

    if let Some(e) = failure {
        return Err(e);
    }
    trace.push(t, &workspace.x);
    Ok(trace)
}

/// Expected number of recorded samples, used to preallocate the trace:
/// one per recording interval plus one per injection plus the endpoints.
/// Trigger firings add a few more; the estimate is a capacity hint, not a
/// bound, and is capped so absurd intervals cannot over-reserve.
pub(crate) fn expected_records(span: f64, record_interval: f64, schedule: &Schedule) -> usize {
    let regular = if record_interval.is_finite() && record_interval > 0.0 {
        (span / record_interval).ceil() as usize
    } else {
        0
    };
    (regular + schedule.injections().len() + 2).min(1 << 20)
}

/// Integrates until the system is *quiescent* — every component of the
/// derivative is below `eps` (absolute, per time unit) — or until
/// `opts.t_end()`, whichever comes first. Returns the trace and the time
/// at which quiescence was detected (`None` if the horizon was reached
/// first).
///
/// This is the natural way to evaluate combinational (run-to-completion)
/// constructs whose settling time is data-dependent. Timed injections are
/// honoured (quiescence is only tested after the last injection).
///
/// # Panics
///
/// Panics if the schedule contains triggers — trigger state cannot be
/// carried across the internal integration chunks; use the
/// [`crate::Simulation`] builder for event-driven runs.
///
/// # Errors
///
/// Same conditions as an ODE run of the [`crate::Simulation`] builder.
///
/// # Examples
///
/// ```
/// use molseq_crn::Crn;
/// use molseq_kinetics::{simulate_until_quiescent, OdeOptions, Schedule, SimSpec, State};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let crn: Crn = "X -> Y @slow".parse()?;
/// let x = crn.find_species("X").expect("parsed");
/// let mut init = State::new(&crn);
/// init.set(x, 10.0);
/// let (trace, settled) = simulate_until_quiescent(
///     &crn,
///     &init,
///     &Schedule::new(),
///     &OdeOptions::default().with_t_end(1000.0),
///     &SimSpec::default(),
///     1e-6,
/// )?;
/// assert!(settled.is_some(), "decay settles long before t = 1000");
/// assert!(trace.final_state()[x.index()] < 1e-4);
/// # Ok(())
/// # }
/// ```
pub fn simulate_until_quiescent(
    crn: &Crn,
    init: &State,
    schedule: &Schedule,
    opts: &OdeOptions,
    spec: &SimSpec,
    eps: f64,
) -> Result<(Trace, Option<f64>), SimError> {
    assert!(
        schedule.triggers().is_empty(),
        "simulate_until_quiescent does not support triggers"
    );
    // Integrate in chunks; after each chunk, test the derivative.
    let compiled = CompiledCrn::new(crn, spec);
    let last_injection = schedule
        .injections()
        .iter()
        .map(|i| i.time)
        .fold(opts.t_start(), f64::max);
    let chunk = (opts.t_end() - opts.t_start()) / 64.0;
    let mut t = opts.t_start();
    let mut state = init.clone();
    let mut full_trace: Option<Trace> = None;
    let mut settled = None;
    let mut workspace = OdeWorkspace::new();
    let mut dx = vec![0.0; state.len()];

    while t < opts.t_end() - 1e-12 {
        let t_next = (t + chunk).min(opts.t_end());
        // only this chunk's injections: earlier ones were already applied
        // (an injection exactly at the global start belongs to chunk 0)
        let mut chunk_schedule = Schedule::new();
        for inj in schedule.injections() {
            let in_chunk = inj.time > t && inj.time <= t_next;
            let at_start = t == opts.t_start() && inj.time <= t;
            if in_chunk || at_start {
                chunk_schedule = chunk_schedule.inject(inj.time.max(t), inj.species, inj.amount);
            }
        }
        let chunk_opts = (*opts).with_t_start(t).with_t_end(t_next);
        let trace = run_ode(
            crn,
            &compiled,
            &state,
            &chunk_schedule,
            &chunk_opts,
            &mut workspace,
        )?;
        state = State::from_vec(trace.final_state().to_vec());
        match &mut full_trace {
            None => full_trace = Some(trace),
            Some(full) => full.append(&trace),
        }
        t = t_next;

        if t > last_injection {
            compiled.derivative(state.as_slice(), &mut dx);
            if dx.iter().all(|d| d.abs() < eps) {
                settled = Some(t);
                break;
            }
        }
    }
    Ok((
        full_trace.expect("at least one chunk was integrated"),
        settled,
    ))
}

pub(crate) fn initial_step(opts: &OdeOptions) -> f64 {
    let span = opts.t_end - opts.t_start;
    (opts.record_interval.min(span / 100.0)).max(span * 1e-9)
}

#[allow(clippy::too_many_arguments)]
fn integrate_segment(
    compiled: &CompiledCrn,
    workspace: &mut OdeWorkspace,
    t: &mut f64,
    segment_end: f64,
    opts: &OdeOptions,
    h_adaptive: &mut f64,
    steps_used: &mut usize,
    next_record: &mut f64,
    trace: &mut Trace,
    schedule: &Schedule,
    triggers: &mut TriggerRuntime,
    metrics: &mut SimMetrics,
) -> Result<(), SimError> {
    // Disjoint borrows of the workspace buffers; all were sized by
    // `prepare`, nothing is allocated in the step loop below.
    let OdeWorkspace {
        scratch,
        rosenbrock,
        x,
        x_prev,
        sample,
        ..
    } = workspace;
    let x = x.as_mut_slice();

    while *t < segment_end - 1e-15 {
        if *steps_used >= opts.max_steps {
            return Err(SimError::StepLimitExceeded {
                reached: *t,
                t_end: opts.t_end,
                max_steps: opts.max_steps,
            });
        }

        let h_cap = (segment_end - *t).min(opts.h_max);
        x_prev.copy_from_slice(x);
        let (h_taken, accepted) = match opts.method {
            OdeMethod::Rk4 { h } => {
                let scratch = scratch.as_mut().expect("prepared for this method");
                let h_step = h.min(h_cap);
                rk4_step(compiled, x, *t, h_step, scratch);
                (h_step, true)
            }
            OdeMethod::CashKarp { rtol, atol } => {
                let scratch = scratch.as_mut().expect("prepared for this method");
                let h_try = h_adaptive.min(h_cap).max(1e-14);
                cash_karp_step(compiled, x, *t, h_try, scratch);
                let err_ratio = scratch.error_ratio(x, rtol, atol);
                if err_ratio <= 1.0 {
                    x.copy_from_slice(&scratch.y5);
                    // grow: classical 0.9·err^(−1/5) controller
                    let grow = if err_ratio > 0.0 {
                        0.9 * err_ratio.powf(-0.2)
                    } else {
                        5.0
                    };
                    *h_adaptive = (h_try * grow.clamp(0.2, 5.0)).min(opts.h_max);
                    (h_try, true)
                } else {
                    let shrink = (0.9 * err_ratio.powf(-0.25)).clamp(0.1, 0.9);
                    *h_adaptive = (h_try * shrink).max(1e-14);
                    (0.0, false)
                }
            }
            OdeMethod::Rosenbrock { rtol, atol } => {
                let work = rosenbrock.as_mut().expect("prepared for this method");
                let h_try = h_adaptive.min(h_cap).max(1e-14);
                if !work.step(compiled, x, h_try, opts.jacobian_reuse) {
                    // singular W: retry with a smaller step
                    *h_adaptive = (h_try * 0.5).max(1e-14);
                    (0.0, false)
                } else {
                    let err_ratio = work.error_ratio(x, rtol, atol);
                    if err_ratio <= 1.0 {
                        x.copy_from_slice(&work.y_new);
                        work.on_accept();
                        // 2nd-order method: 0.9·err^(−1/3) controller
                        let grow = if err_ratio > 0.0 {
                            0.9 * err_ratio.powf(-1.0 / 3.0)
                        } else {
                            5.0
                        };
                        *h_adaptive = (h_try * grow.clamp(0.2, 5.0)).min(opts.h_max);
                        (h_try, true)
                    } else {
                        work.on_reject();
                        let shrink = (0.9 * err_ratio.powf(-1.0 / 3.0)).clamp(0.1, 0.9);
                        *h_adaptive = (h_try * shrink).max(1e-14);
                        (0.0, false)
                    }
                }
            }
        };
        *steps_used += 1;
        if accepted {
            metrics.ode_steps_accepted += 1;
        } else {
            metrics.ode_steps_rejected += 1;
        }
        if let Some(hook) = opts.step_hook {
            if let ControlFlow::Break(reason) = hook(*steps_used as u64, *t) {
                return Err(SimError::Interrupted { time: *t, reason });
            }
        }
        if !accepted {
            continue;
        }
        let t_prev = *t;
        *t += h_taken;

        // Projection + finiteness check.
        for (i, xi) in x.iter_mut().enumerate() {
            if !xi.is_finite() {
                return Err(SimError::NonFiniteState {
                    time: *t,
                    species: i,
                });
            }
            if *xi < 0.0 {
                *xi = 0.0;
            }
        }

        // Recording first (interpolated samples strictly before `t`),
        // then triggers (they may inject at `t`).
        while *next_record <= *t + 1e-12 {
            let alpha = if h_taken > 0.0 {
                ((*next_record - t_prev) / h_taken).clamp(0.0, 1.0)
            } else {
                1.0
            };
            for ((s, &a), &b) in sample.iter_mut().zip(x_prev.iter()).zip(x.iter()) {
                *s = a + alpha * (b - a);
            }
            trace.push(*next_record, sample);
            *next_record += opts.record_interval;
        }
        let fired_any = {
            let fired = triggers.poll(schedule, *t, x);
            for &f in &fired {
                trace.push_mark(*t, f);
                trace.push(*t, x);
            }
            !fired.is_empty()
        };
        if fired_any {
            // queue injections may have jumped the state
            if let Some(work) = rosenbrock.as_mut() {
                work.invalidate();
            }
        }
    }
    Ok(())
}

/// Scratch buffers reused across steps.
struct Scratch {
    k: [Vec<f64>; 6],
    ytmp: Vec<f64>,
    y5: Vec<f64>,
    y4: Vec<f64>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            k: std::array::from_fn(|_| vec![0.0; n]),
            ytmp: vec![0.0; n],
            y5: vec![0.0; n],
            y4: vec![0.0; n],
        }
    }

    fn len(&self) -> usize {
        self.ytmp.len()
    }

    /// Max over components of `|y5 − y4| / (atol + rtol·max(|y|, |y5|))`.
    fn error_ratio(&self, y: &[f64], rtol: f64, atol: f64) -> f64 {
        let mut worst = 0.0f64;
        for i in 0..y.len() {
            let scale = atol + rtol * y[i].abs().max(self.y5[i].abs());
            let e = (self.y5[i] - self.y4[i]).abs() / scale;
            worst = worst.max(e);
        }
        worst
    }
}

/// One classical RK4 step, written back into `x`.
fn rk4_step(compiled: &CompiledCrn, x: &mut [f64], _t: f64, h: f64, s: &mut Scratch) {
    let n = x.len();
    compiled.derivative(x, &mut s.k[0]);
    for i in 0..n {
        s.ytmp[i] = x[i] + 0.5 * h * s.k[0][i];
    }
    let (k01, rest) = s.k.split_at_mut(1);
    compiled.derivative(&s.ytmp, &mut rest[0]);
    for i in 0..n {
        s.ytmp[i] = x[i] + 0.5 * h * rest[0][i];
    }
    compiled.derivative(&s.ytmp, &mut rest[1]);
    for i in 0..n {
        s.ytmp[i] = x[i] + h * rest[1][i];
    }
    compiled.derivative(&s.ytmp, &mut rest[2]);
    for i in 0..n {
        x[i] += h / 6.0 * (k01[0][i] + 2.0 * rest[0][i] + 2.0 * rest[1][i] + rest[2][i]);
    }
}

// Cash–Karp tableau.
const A2: f64 = 1.0 / 5.0;
const A3: [f64; 2] = [3.0 / 40.0, 9.0 / 40.0];
const A4: [f64; 3] = [3.0 / 10.0, -9.0 / 10.0, 6.0 / 5.0];
const A5: [f64; 4] = [-11.0 / 54.0, 5.0 / 2.0, -70.0 / 27.0, 35.0 / 27.0];
const A6: [f64; 5] = [
    1631.0 / 55296.0,
    175.0 / 512.0,
    575.0 / 13824.0,
    44275.0 / 110592.0,
    253.0 / 4096.0,
];
const B5: [f64; 6] = [
    37.0 / 378.0,
    0.0,
    250.0 / 621.0,
    125.0 / 594.0,
    0.0,
    512.0 / 1771.0,
];
const B4: [f64; 6] = [
    2825.0 / 27648.0,
    0.0,
    18575.0 / 48384.0,
    13525.0 / 55296.0,
    277.0 / 14336.0,
    1.0 / 4.0,
];

/// One Cash–Karp trial step from `x`; fills `s.y5` (5th order) and `s.y4`
/// (4th order). Does not modify `x`. Returns the raw max component error.
fn cash_karp_step(compiled: &CompiledCrn, x: &[f64], _t: f64, h: f64, s: &mut Scratch) -> f64 {
    let n = x.len();
    compiled.derivative(x, &mut s.k[0]);

    for i in 0..n {
        s.ytmp[i] = x[i] + h * A2 * s.k[0][i];
    }
    stage(compiled, s, 1);

    for i in 0..n {
        s.ytmp[i] = x[i] + h * (A3[0] * s.k[0][i] + A3[1] * s.k[1][i]);
    }
    stage(compiled, s, 2);

    for i in 0..n {
        s.ytmp[i] = x[i] + h * (A4[0] * s.k[0][i] + A4[1] * s.k[1][i] + A4[2] * s.k[2][i]);
    }
    stage(compiled, s, 3);

    for i in 0..n {
        s.ytmp[i] = x[i]
            + h * (A5[0] * s.k[0][i] + A5[1] * s.k[1][i] + A5[2] * s.k[2][i] + A5[3] * s.k[3][i]);
    }
    stage(compiled, s, 4);

    for i in 0..n {
        s.ytmp[i] = x[i]
            + h * (A6[0] * s.k[0][i]
                + A6[1] * s.k[1][i]
                + A6[2] * s.k[2][i]
                + A6[3] * s.k[3][i]
                + A6[4] * s.k[4][i]);
    }
    stage(compiled, s, 5);

    let mut max_err = 0.0f64;
    for i in 0..n {
        let mut y5 = x[i];
        let mut y4 = x[i];
        for stage_idx in 0..6 {
            y5 += h * B5[stage_idx] * s.k[stage_idx][i];
            y4 += h * B4[stage_idx] * s.k[stage_idx][i];
        }
        s.y5[i] = y5;
        s.y4[i] = y4;
        max_err = max_err.max((y5 - y4).abs());
    }
    max_err
}

fn stage(compiled: &CompiledCrn, s: &mut Scratch, idx: usize) {
    let (before, after) = s.k.split_at_mut(idx);
    let _ = before;
    compiled.derivative(&s.ytmp, &mut after[0]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use molseq_crn::{Crn, RateAssignment};

    fn decay() -> (Crn, molseq_crn::SpeciesId) {
        let crn: Crn = "X -> 0 @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        (crn, x)
    }

    // Local builder-backed stand-ins shadow the deprecated free functions
    // pulled in by `use super::*`, so the test bodies below exercise the
    // `Simulation` API without churn.
    fn simulate_ode(
        crn: &Crn,
        init: &State,
        schedule: &Schedule,
        opts: &OdeOptions,
        spec: &SimSpec,
    ) -> Result<Trace, SimError> {
        let compiled = CompiledCrn::new(crn, spec);
        crate::sim::Simulation::new(crn, &compiled)
            .init(init)
            .schedule(schedule)
            .options(*opts)
            .run()
    }

    fn simulate_ode_compiled(
        crn: &Crn,
        compiled: &CompiledCrn,
        init: &State,
        schedule: &Schedule,
        opts: &OdeOptions,
    ) -> Result<Trace, SimError> {
        crate::sim::Simulation::new(crn, compiled)
            .init(init)
            .schedule(schedule)
            .options(*opts)
            .run()
    }

    fn simulate_ode_with_workspace(
        crn: &Crn,
        compiled: &CompiledCrn,
        init: &State,
        schedule: &Schedule,
        opts: &OdeOptions,
        workspace: &mut OdeWorkspace,
    ) -> Result<Trace, SimError> {
        crate::sim::Simulation::new(crn, compiled)
            .init(init)
            .schedule(schedule)
            .options(*opts)
            .workspace(workspace)
            .run()
    }

    fn run(crn: &Crn, init: &State, opts: &OdeOptions) -> Trace {
        simulate_ode(crn, init, &Schedule::new(), opts, &SimSpec::default()).unwrap()
    }

    #[test]
    fn exponential_decay_matches_closed_form() {
        let (crn, x) = decay();
        let mut init = State::new(&crn);
        init.set(x, 1.0);
        let opts = OdeOptions::default().with_t_end(2.0);
        let trace = run(&crn, &init, &opts);
        for (i, &t) in trace.times().iter().enumerate() {
            let expected = (-t).exp();
            assert!(
                (trace.state(i)[x.index()] - expected).abs() < 1e-4,
                "t={t}: {} vs {expected}",
                trace.state(i)[x.index()]
            );
        }
    }

    #[test]
    fn rk4_and_cash_karp_agree() {
        let crn: Crn = "A + B -> C @slow\nC -> A @slow".parse().unwrap();
        let a = crn.find_species("A").unwrap();
        let b = crn.find_species("B").unwrap();
        let mut init = State::new(&crn);
        init.set(a, 2.0).set(b, 1.5);
        let adaptive = run(&crn, &init, &OdeOptions::default().with_t_end(5.0));
        let fixed = run(
            &crn,
            &init,
            &OdeOptions::default()
                .with_t_end(5.0)
                .with_method(OdeMethod::Rk4 { h: 1e-4 }),
        );
        for (fa, fb) in adaptive.final_state().iter().zip(fixed.final_state()) {
            assert!((fa - fb).abs() < 1e-5, "{fa} vs {fb}");
        }
    }

    #[test]
    fn bimolecular_annihilation_leaves_difference() {
        // X + Y -> 0 fast: min quantity is destroyed, |X−Y| remains.
        let crn: Crn = "X + Y -> 0 @fast".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let y = crn.find_species("Y").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 30.0).set(y, 12.0);
        let trace = run(&crn, &init, &OdeOptions::default().with_t_end(5.0));
        assert!((trace.final_state()[x.index()] - 18.0).abs() < 1e-3);
        assert!(trace.final_state()[y.index()] < 1e-3);
    }

    #[test]
    fn conservation_holds_along_trajectory() {
        let crn: Crn = "A -> B @slow\nB -> A @fast".parse().unwrap();
        let a = crn.find_species("A").unwrap();
        let mut init = State::new(&crn);
        init.set(a, 10.0);
        let trace = run(&crn, &init, &OdeOptions::default().with_t_end(3.0));
        for i in 0..trace.len() {
            let total: f64 = trace.state(i).iter().sum();
            assert!((total - 10.0).abs() < 1e-6);
        }
    }

    #[test]
    fn injection_adds_mass_at_the_right_time() {
        let (crn, x) = decay();
        let init = State::new(&crn); // starts empty
        let schedule = Schedule::new().inject(1.0, x, 5.0);
        let opts = OdeOptions::default().with_t_end(2.0);
        let trace = simulate_ode(&crn, &init, &schedule, &opts, &SimSpec::default()).unwrap();
        assert!(trace.value_at(x, 0.9) < 1e-9);
        let just_after = trace.value_at(x, 1.0 + 1e-9);
        assert!(just_after > 4.9, "{just_after}");
        // decays afterwards
        let expected = 5.0 * (-1.0f64).exp();
        assert!((trace.value_at(x, 2.0) - expected).abs() < 1e-4);
    }

    #[test]
    fn trigger_marks_record_crossings() {
        // X grows from source; trigger marks when X exceeds 1.
        let crn: Crn = "0 -> X @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let schedule = Schedule::new().trigger(crate::Trigger::mark(crate::Condition::Above {
            species: x,
            threshold: 1.0,
        }));
        let opts = OdeOptions::default().with_t_end(3.0);
        let trace = simulate_ode(
            &crn,
            &State::new(&crn),
            &schedule,
            &opts,
            &SimSpec::default(),
        )
        .unwrap();
        let marks = trace.mark_times(0);
        assert_eq!(marks.len(), 1);
        // detection granularity is one accepted step (≤ record interval)
        assert!(marks[0] >= 0.9 && marks[0] <= 1.2, "{}", marks[0]);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let (crn, _) = decay();
        let bad = State::from_vec(vec![1.0, 2.0, 3.0]);
        let err = simulate_ode(
            &crn,
            &bad,
            &Schedule::new(),
            &OdeOptions::default(),
            &SimSpec::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::DimensionMismatch { .. }));
    }

    #[test]
    fn bad_time_span_is_reported() {
        let (crn, x) = decay();
        let mut init = State::new(&crn);
        init.set(x, 1.0);
        let opts = OdeOptions::default().with_t_start(5.0).with_t_end(1.0);
        let err =
            simulate_ode(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap_err();
        assert!(matches!(err, SimError::BadTimeSpan { .. }));
    }

    #[test]
    fn step_limit_is_enforced() {
        let (crn, x) = decay();
        let mut init = State::new(&crn);
        init.set(x, 1.0);
        let opts = OdeOptions::default().with_t_end(100.0).with_max_steps(5);
        let err =
            simulate_ode(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap_err();
        assert!(matches!(err, SimError::StepLimitExceeded { .. }));
    }

    #[test]
    fn stiff_ratio_is_integrated() {
        // fast + slow in one system with ratio 1e4
        let crn: Crn = "A -> B @fast\n0 -> A @slow".parse().unwrap();
        let a = crn.find_species("A").unwrap();
        let b = crn.find_species("B").unwrap();
        let spec = SimSpec::new(RateAssignment::from_ratio(1e4));
        let opts = OdeOptions::default().with_t_end(2.0);
        let trace = simulate_ode(&crn, &State::new(&crn), &Schedule::new(), &opts, &spec).unwrap();
        // quasi-steady state: A ≈ k_slow/k_fast, B accumulates ≈ t
        assert!(trace.final_state()[a.index()] < 1e-3);
        assert!((trace.final_state()[b.index()] - 2.0).abs() < 0.01);
    }

    #[test]
    fn runaway_autocatalysis_reports_nonfinite_state() {
        // X -> 2X at a huge fixed rate overflows f64 within the horizon;
        // the integrator must fail loudly, not return garbage
        let crn: Crn = "X -> 2X @1e30".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 1.0);
        let result = simulate_ode(
            &crn,
            &init,
            &Schedule::new(),
            &OdeOptions::default()
                .with_t_end(1000.0)
                .with_method(OdeMethod::Rk4 { h: 1.0 }),
            &SimSpec::default(),
        );
        assert!(
            matches!(
                result,
                Err(SimError::NonFiniteState { .. }) | Err(SimError::StepLimitExceeded { .. })
            ),
            "{result:?}"
        );
    }

    #[test]
    fn quiescence_detects_settling() {
        let crn: Crn = "X -> Y @fast".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 5.0);
        let (trace, settled) = simulate_until_quiescent(
            &crn,
            &init,
            &Schedule::new(),
            &OdeOptions::default().with_t_end(640.0),
            &SimSpec::default(),
            1e-9,
        )
        .unwrap();
        let settled = settled.expect("fast decay settles");
        assert!(settled < 120.0, "settled at {settled}");
        assert!(trace.final_state()[x.index()] < 1e-9);
    }

    #[test]
    fn quiescence_waits_for_injections() {
        let crn: Crn = "X -> Y @fast".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let y = crn.find_species("Y").unwrap();
        // empty start; X injected midway — quiescence must not trigger
        // before the injection
        let schedule = Schedule::new().inject(100.0, x, 4.0);
        let (trace, settled) = simulate_until_quiescent(
            &crn,
            &State::new(&crn),
            &schedule,
            &OdeOptions::default().with_t_end(640.0),
            &SimSpec::default(),
            1e-9,
        )
        .unwrap();
        let settled = settled.expect("settles after the injection");
        assert!(settled > 100.0, "settled at {settled}");
        assert!((trace.final_state()[y.index()] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn quiescence_injection_applies_once() {
        // a t=0 injection must not be re-applied at every chunk boundary
        let crn: Crn = "A -> B @slow".parse().unwrap();
        let a = crn.find_species("A").unwrap();
        let b = crn.find_species("B").unwrap();
        let schedule = Schedule::new().inject(0.0, a, 7.0);
        let (trace, _) = simulate_until_quiescent(
            &crn,
            &State::new(&crn),
            &schedule,
            &OdeOptions::default().with_t_end(320.0),
            &SimSpec::default(),
            1e-9,
        )
        .unwrap();
        let total = trace.final_state()[a.index()] + trace.final_state()[b.index()];
        assert!((total - 7.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    #[should_panic(expected = "does not support triggers")]
    fn quiescence_rejects_triggers() {
        let crn: Crn = "X -> Y @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let schedule = Schedule::new().trigger(crate::Trigger::mark(crate::Condition::Above {
            species: x,
            threshold: 1.0,
        }));
        let _ = simulate_until_quiescent(
            &crn,
            &State::new(&crn),
            &schedule,
            &OdeOptions::default(),
            &SimSpec::default(),
            1e-9,
        );
    }

    #[test]
    fn step_hook_interrupts_integration() {
        let (crn, x) = decay();
        let mut init = State::new(&crn);
        init.set(x, 1.0);
        let hook = |steps: u64, _t: f64| {
            if steps >= 3 {
                ControlFlow::Break("test budget".to_owned())
            } else {
                ControlFlow::Continue(())
            }
        };
        let opts = OdeOptions::default().with_t_end(10.0).with_step_hook(&hook);
        let err =
            simulate_ode(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap_err();
        assert!(
            matches!(err, SimError::Interrupted { ref reason, .. } if reason == "test budget"),
            "{err:?}"
        );
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_fresh() {
        // The same workspace driven across different networks and methods
        // must give exactly the trace a fresh workspace gives.
        let crn: Crn = "A + B -> C @fast\nC -> A @slow".parse().unwrap();
        let a = crn.find_species("A").unwrap();
        let mut init = State::new(&crn);
        init.set(a, 2.0);
        let other: Crn = "X -> 2X @slow\n2X -> X @fast".parse().unwrap();
        let xo = other.find_species("X").unwrap();
        let mut other_init = State::new(&other);
        other_init.set(xo, 1.0);

        let spec = SimSpec::default();
        let compiled = CompiledCrn::new(&crn, &spec);
        let other_compiled = CompiledCrn::new(&other, &spec);
        let schedule = Schedule::new();
        let mut ws = OdeWorkspace::new();
        for method in [
            OdeMethod::default(),
            OdeMethod::CashKarp {
                rtol: 1e-6,
                atol: 1e-9,
            },
        ] {
            let opts = OdeOptions::default().with_t_end(4.0).with_method(method);
            // dirty the workspace with a different-sized problem first
            let _ = simulate_ode_with_workspace(
                &other,
                &other_compiled,
                &other_init,
                &schedule,
                &opts,
                &mut ws,
            )
            .unwrap();
            let reused =
                simulate_ode_with_workspace(&crn, &compiled, &init, &schedule, &opts, &mut ws)
                    .unwrap();
            let fresh = simulate_ode_compiled(&crn, &compiled, &init, &schedule, &opts).unwrap();
            assert_eq!(reused, fresh, "method {method:?}");
        }
    }

    #[test]
    fn jacobian_reuse_stays_within_tolerance() {
        // Opt-in reuse changes which Jacobian W is built from, not the
        // accepted error bound: trajectories must stay within integration
        // tolerance of the evaluate-every-step default.
        let crn: Crn = "A + B -> C @fast\nC -> A + B @slow\nA -> 0 @slow"
            .parse()
            .unwrap();
        let a = crn.find_species("A").unwrap();
        let b = crn.find_species("B").unwrap();
        let mut init = State::new(&crn);
        init.set(a, 3.0).set(b, 2.0);
        let base = OdeOptions::default().with_t_end(20.0);
        let every_step = run(&crn, &init, &base);
        let reused = run(&crn, &init, &base.with_jacobian_reuse(8));
        for (p, q) in every_step.final_state().iter().zip(reused.final_state()) {
            assert!((p - q).abs() < 1e-4, "{p} vs {q}");
        }
    }

    #[test]
    fn record_interval_controls_density() {
        let (crn, x) = decay();
        let mut init = State::new(&crn);
        init.set(x, 1.0);
        let coarse = run(
            &crn,
            &init,
            &OdeOptions::default()
                .with_t_end(1.0)
                .with_record_interval(0.5),
        );
        let fine = run(
            &crn,
            &init,
            &OdeOptions::default()
                .with_t_end(1.0)
                .with_record_interval(0.01),
        );
        assert!(fine.len() > coarse.len() * 5);
    }
}
