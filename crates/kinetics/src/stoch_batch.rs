//! Lock-step batched stochastic simulation: N structurally identical
//! cells, one shared compiled network.
//!
//! The stochastic workloads behind E10 (and the Markov-chain / pattern-
//! recognition experiment families on the roadmap) simulate one network
//! under many seeds or rate bindings: every cell shares the CRN structure,
//! hence the reactant index lists the propensity evaluation walks.
//! [`run_ssa_batch`] and [`run_tau_batch`] advance up to `width` lanes
//! round-robin through one shared [`CompiledCrn`] structure, one
//! iteration of the scalar event loop per lane per round — one Gillespie
//! event (or plateau segment) for SSA, one leap or exact step for
//! tau-leaping.
//!
//! SSA lanes step through the scalar engine's own event step
//! (`SsaRun::step` in [`crate::ssa`]): each lane keeps its cached
//! propensity row and prefix sums and, after a firing, re-evaluates only
//! the fired reaction's dependents, over one dependency graph built per
//! call. Tau lanes re-evaluate every propensity each step, so each round
//! recomputes all live tau lanes' rows in a single species-major,
//! lane-contiguous SoA kernel (`CompiledCrn::propensity_batch`, stride-1
//! over lanes, autovectorized — no intrinsics, plain `std`).
//!
//! **Determinism contract.** Every lane reproduces the scalar
//! [`run_ssa`](crate::ssa)/[`run_tau`](crate::tau) path *bit for bit*, at
//! any batch width: lanes share index structure, never floating-point
//! values and never RNG draws. Each lane keeps its own `StdRng` stream
//! (seeded from its own options), its own event/leap counters and
//! metrics, and consumes draws in exactly the scalar order. SSA lanes run
//! the scalar step itself; a tau lane's SoA propensity row stands in for
//! the scalar per-step recompute, which is a pure function of the lane's
//! state and so bitwise equal. Lanes that finish, fail, or get budget-cut
//! *retire*: they flush their metrics (stamped with the batch width and a
//! retirement ordinal) and stop contributing to the rounds, while
//! surviving lanes continue unperturbed.

use crate::compiled::CompiledCrn;
use crate::events::Injection;
use crate::metrics::SimMetrics;
use crate::ssa::{record_until, select_reaction, to_count, validate, DependencyGraph, SsaRun};
use crate::tau::{apply_injection, poisson, validate_tau, TauColumns, TauLeapOptions};
use crate::{Schedule, SimError, SsaOptions, State, Trace};
use molseq_crn::Crn;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::ops::ControlFlow;

/// One cell of a batched SSA run: its rate-bound network, initial state,
/// event schedule and options.
///
/// All lanes passed to one [`run_ssa_batch`] call must share the network
/// *structure* (same species and reactions — e.g. produced by
/// [`CompiledCrn::rebind`] from one compilation); only the rate
/// constants, initial states, schedules, seeds and options may differ.
pub struct SsaBatchLane<'a, 'h> {
    /// Rate-bound network for this lane.
    pub compiled: &'a CompiledCrn,
    /// Initial state (must match the network's species count).
    pub init: &'a State,
    /// Timed injections and condition triggers for this lane.
    pub schedule: &'a Schedule,
    /// Stochastic options (span, recording, seed, budget, hook, sink).
    pub options: SsaOptions<'h>,
}

/// One cell of a batched tau-leap run. Same structure-sharing rules as
/// [`SsaBatchLane`]; the schedule must carry no triggers (the scalar
/// tau-leaper does not support them, and neither does the batched one).
pub struct TauBatchLane<'a, 'h> {
    /// Rate-bound network for this lane.
    pub compiled: &'a CompiledCrn,
    /// Initial state (must match the network's species count).
    pub init: &'a State,
    /// Timed injections for this lane (no triggers).
    pub schedule: &'a Schedule,
    /// Tau-leap options (shared stochastic options plus `epsilon`).
    pub options: TauLeapOptions<'h>,
}

/// Reusable storage for [`run_ssa_batch`]/[`run_tau_batch`]: the SSA
/// dependency graph, the tau step-size columns and the tau lanes'
/// structure-of-arrays copy-number and propensity buffers, rebuilt per
/// call into retained allocations (consecutive sweep batches over the
/// same network structure pay no re-allocation).
#[derive(Default)]
pub struct BatchedStochWorkspace {
    /// Reaction dependency graph shared by every SSA lane of a call.
    deps: DependencyGraph,
    /// Per-species change columns shared by every tau lane of a call.
    columns: TauColumns,
    /// SoA copy numbers, `species × width`, lane-contiguous.
    n_soa: Vec<i64>,
    /// SoA propensities, `reactions × width`, lane-contiguous.
    props: Vec<f64>,
    /// Per-lane rate constants, `reactions × width`.
    ks: Vec<f64>,
    /// One lane's extracted propensity row, `reactions` long.
    lane_props: Vec<f64>,
}

impl BatchedStochWorkspace {
    /// An empty workspace; buffers are allocated on first use.
    #[must_use]
    pub fn new() -> Self {
        BatchedStochWorkspace::default()
    }

    fn prepare_tau(&mut self, reference: &CompiledCrn, wd: usize) {
        let n = reference.species_count();
        let m = reference.reaction_count();
        self.columns.rebuild(reference);
        self.n_soa.clear();
        self.n_soa.resize(n * wd, 0);
        self.props.clear();
        self.props.resize(m * wd, 0.0);
        self.lane_props.clear();
        self.lane_props.resize(m, 0.0);
    }
}

/// Panics unless every live lane's network shares `networks`' first
/// one's structure, which it returns (`None` when no lane is live).
fn shared_structure<'a>(
    mut networks: impl Iterator<Item = &'a CompiledCrn>,
    entry: &str,
) -> Option<&'a CompiledCrn> {
    let reference = networks.next()?;
    for compiled in networks {
        assert!(
            compiled.structural_hash() == reference.structural_hash(),
            "{entry} lanes must share one network structure"
        );
    }
    Some(reference)
}

/// Stamps a retiring lane's metrics with the batch width and its
/// retirement ordinal and flushes them: every core exit path reports its
/// cost, as in the scalar drivers.
fn flush_retired(opts: &SsaOptions, mut stats: SimMetrics, wd: usize, retired: &mut u64) {
    stats.batch_width = wd as u64;
    stats.lanes_retired = *retired;
    *retired += 1;
    SimMetrics::flush(opts.metrics(), stats);
}

/// Simulates up to `lanes.len()` structurally identical cells with the
/// Gillespie direct method, advancing the lanes round-robin (one event
/// per lane per round), and returns one result per lane in input order.
/// Each lane runs the scalar engine's incremental event step over its own
/// cached propensity row; the lanes share one dependency graph. See the
/// module docs for the determinism contract; each lane's trace, metrics
/// and error behavior are bit-identical to running it alone through
/// [`Simulation`](crate::Simulation) with
/// [`SimMethod::Ssa`](crate::SimMethod::Ssa).
///
/// # Panics
///
/// Panics if the lanes do not all share one network structure (callers
/// group by [`molseq_crn::Crn::structural_hash`]).
pub fn run_ssa_batch<'h>(
    crn: &Crn,
    lanes: &[SsaBatchLane<'_, 'h>],
    workspace: &mut BatchedStochWorkspace,
) -> Vec<Result<Trace, SimError>> {
    let wd = lanes.len();
    let mut retired: u64 = 0;
    let mut results: Vec<Option<Result<Trace, SimError>>> = Vec::with_capacity(wd);
    let mut runs: Vec<Option<SsaRun>> = Vec::with_capacity(wd);
    for lane in lanes {
        // validation mirrors run_ssa's, per lane: no metrics flush
        let started = validate(crn, lane.compiled, lane.init, &lane.options).and_then(|()| {
            SsaRun::new(crn, lane.compiled, lane.init, lane.schedule, lane.options).inspect_err(
                |_| {
                    // an initial-state conversion failure is a core error
                    let stats = SsaRun::initial_stats(&lane.options);
                    flush_retired(&lane.options, stats, wd, &mut retired);
                },
            )
        });
        match started {
            Ok(run) => {
                runs.push(Some(run));
                results.push(None);
            }
            Err(e) => {
                runs.push(None);
                results.push(Some(Err(e)));
            }
        }
    }
    let live = runs.iter().flatten().map(SsaRun::compiled);
    if let Some(reference) = shared_structure(live, "run_ssa_batch") {
        workspace.deps.rebuild(reference);
    }
    while runs.iter().any(Option::is_some) {
        for (slot, result) in runs.iter_mut().zip(&mut results) {
            let Some(run) = slot else { continue };
            let outcome = match run.step(&workspace.deps) {
                Ok(false) => continue,
                Ok(true) => Ok(()),
                Err(e) => Err(e),
            };
            let run = slot.take().expect("live lane");
            let opts = *run.options();
            let (trace, stats) = run.finish();
            flush_retired(&opts, stats, wd, &mut retired);
            *result = Some(outcome.map(|()| trace));
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every lane settled"))
        .collect()
}

/// Everything one tau-leaping lane owns: the scalar core's locals,
/// per-lane.
struct StochLane<'a, 'h> {
    compiled: &'a CompiledCrn,
    base: SsaOptions<'h>,
    epsilon: f64,
    injections: Vec<Injection>,
    next_injection: usize,
    n: Vec<i64>,
    f: Vec<f64>,
    rng: StdRng,
    trace: Trace,
    stats: SimMetrics,
    t: f64,
    next_record: f64,
    /// Loop steps taken — the counter the scalar core budgets against
    /// `max_events`.
    events: usize,
}

impl<'a, 'h> StochLane<'a, 'h> {
    /// A lane ready to step, or the lane's core error on an initial
    /// state that is not whole copy numbers.
    fn new(
        crn: &Crn,
        compiled: &'a CompiledCrn,
        init: &State,
        schedule: &Schedule,
        options: &TauLeapOptions<'h>,
    ) -> Result<Self, SimError> {
        let base = options.base;
        let mut n = Vec::with_capacity(init.len());
        for &v in init.as_slice() {
            n.push(to_count(v)?);
        }
        let f: Vec<f64> = n.iter().map(|&v| v as f64).collect();
        let mut trace = Trace::new(crn);
        trace.push(base.t_start(), &f);
        Ok(StochLane {
            compiled,
            base,
            epsilon: options.epsilon,
            injections: schedule.sorted_injections(),
            next_injection: 0,
            n,
            f,
            rng: StdRng::seed_from_u64(base.seed()),
            trace,
            stats: SsaRun::initial_stats(&base),
            t: base.t_start(),
            next_record: base.t_start() + base.record_interval(),
            events: 0,
        })
    }
}

/// Recomputes every live tau lane's propensities in one SoA pass: gathers
/// the copy numbers lane-contiguously (retired lanes contribute zeros)
/// and runs the vectorized kernel over the full width.
fn recompute_round(
    reference: &CompiledCrn,
    states: &[Option<StochLane>],
    workspace: &mut BatchedStochWorkspace,
    wd: usize,
) {
    workspace.n_soa.fill(0);
    for (l, st) in states.iter().enumerate() {
        if let Some(st) = st {
            for (i, &c) in st.n.iter().enumerate() {
                workspace.n_soa[i * wd + l] = c;
            }
        }
    }
    reference.propensity_batch(&workspace.ks, &workspace.n_soa, &mut workspace.props, wd);
}

/// Simulates up to `lanes.len()` structurally identical cells with
/// explicit tau-leaping, leaping the lanes in lock-step (one leap or
/// exact step per lane per round) with shared SoA propensity
/// recomputation, and returns one result per lane in input order. See
/// the module docs for the determinism contract; each lane's trace,
/// metrics and error behavior are bit-identical to running it alone
/// through [`Simulation`](crate::Simulation) with
/// [`SimMethod::TauLeap`](crate::SimMethod::TauLeap).
///
/// # Panics
///
/// Panics if any lane's schedule carries triggers (the scalar tau-leaper
/// does not support them), or if the lanes do not all share one network
/// structure (callers group by [`molseq_crn::Crn::structural_hash`]).
pub fn run_tau_batch<'h>(
    crn: &Crn,
    lanes: &[TauBatchLane<'_, 'h>],
    workspace: &mut BatchedStochWorkspace,
) -> Vec<Result<Trace, SimError>> {
    for lane in lanes {
        assert!(
            lane.schedule.triggers().is_empty(),
            "tau-leaping does not support triggers"
        );
    }
    let wd = lanes.len();
    let mut retired: u64 = 0;
    let mut results: Vec<Option<Result<Trace, SimError>>> = Vec::with_capacity(wd);
    let mut states: Vec<Option<StochLane>> = Vec::with_capacity(wd);
    for lane in lanes {
        // validation mirrors run_tau's, per lane: no metrics flush
        let started = validate_tau(crn, lane.compiled, lane.init, &lane.options).and_then(|()| {
            StochLane::new(crn, lane.compiled, lane.init, lane.schedule, &lane.options).inspect_err(
                |_| {
                    // an initial-state conversion failure is a core error
                    let base = &lane.options.base;
                    flush_retired(base, SsaRun::initial_stats(base), wd, &mut retired);
                },
            )
        });
        match started {
            Ok(st) => {
                states.push(Some(st));
                results.push(None);
            }
            Err(e) => {
                states.push(None);
                results.push(Some(Err(e)));
            }
        }
    }
    let live = states.iter().flatten().map(|st| st.compiled);
    let Some(reference) = shared_structure(live, "run_tau_batch") else {
        return results.into_iter().flatten().collect();
    };
    workspace.prepare_tau(reference, wd);
    let lane_refs: Vec<&CompiledCrn> = states
        .iter()
        .map(|st| st.as_ref().map_or(reference, |st| st.compiled))
        .collect();
    reference.gather_rates(&lane_refs, &mut workspace.ks);
    while states.iter().any(Option::is_some) {
        recompute_round(reference, &states, workspace, wd);
        for (l, (slot, result)) in states.iter_mut().zip(&mut results).enumerate() {
            let Some(st) = slot else { continue };
            for (j, p) in workspace.lane_props.iter_mut().enumerate() {
                *p = workspace.props[j * wd + l];
            }
            let Some(outcome) = tau_lane_round(st, &workspace.lane_props, &workspace.columns)
            else {
                continue;
            };
            let mut st = slot.take().expect("live lane");
            st.stats.final_time = st.t;
            flush_retired(&st.base, st.stats, wd, &mut retired);
            *result = Some(outcome.map(|()| st.trace));
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every lane settled"))
        .collect()
}

/// One iteration of the scalar `tau_core` loop for one lane: the round's
/// SoA-computed propensity row stands in for the per-iteration recompute
/// (the scalar core checks the budget and polls the hook *before*
/// recomputing; computing the pure, draw-free propensities early is
/// unobservable).
#[allow(clippy::too_many_lines)]
fn tau_lane_round(
    st: &mut StochLane,
    lane_props: &[f64],
    columns: &TauColumns,
) -> Option<Result<(), SimError>> {
    let m = lane_props.len();
    // loop condition: `while t < t_end`
    if st.t >= st.base.t_end() {
        st.trace.push(st.t, &st.f);
        return Some(Ok(()));
    }
    if st.events >= st.base.max_events() {
        let err = SimError::StepLimitExceeded {
            reached: st.t,
            t_end: st.base.t_end(),
            max_steps: st.base.max_events(),
        };
        return Some(Err(err));
    }
    st.events += 1;
    if let Some(hook) = st.base.step_hook() {
        if let ControlFlow::Break(reason) = hook(st.events as u64, st.t) {
            return Some(Err(SimError::Interrupted { time: st.t, reason }));
        }
    }

    let injection_time = st
        .injections
        .get(st.next_injection)
        .map_or(f64::INFINITY, |inj| inj.time);

    let mut a0 = 0.0;
    for &p in lane_props {
        a0 += p;
    }
    if a0 <= 0.0 {
        let stop = st.base.t_end().min(injection_time);
        record_until(&mut st.trace, &st.f, &mut st.next_record, stop, &st.base);
        st.t = stop;
        st.stats.final_time = st.t;
        if injection_time <= st.base.t_end() {
            let outcome = apply_injection(
                &st.injections[st.next_injection],
                &mut st.n,
                &mut st.f,
                &mut st.trace,
                st.t,
            );
            if let Err(e) = outcome {
                return Some(Err(e));
            }
            st.next_injection += 1;
            return None; // scalar `continue`
        }
        st.trace.push(st.t, &st.f);
        return Some(Ok(()));
    }

    let tau = columns.bound(lane_props, &st.n, st.epsilon, |_| true);

    // If the leap is not worth it, take one exact step.
    if tau < 10.0 / a0 {
        let u: f64 = 1.0 - st.rng.random::<f64>();
        let dt = -u.ln() / a0;
        let t_next = st.t + dt;
        let stop = st.base.t_end().min(injection_time);
        if t_next >= stop {
            record_until(&mut st.trace, &st.f, &mut st.next_record, stop, &st.base);
            st.t = stop;
            st.stats.final_time = st.t;
            if injection_time <= st.base.t_end() {
                let outcome = apply_injection(
                    &st.injections[st.next_injection],
                    &mut st.n,
                    &mut st.f,
                    &mut st.trace,
                    st.t,
                );
                if let Err(e) = outcome {
                    return Some(Err(e));
                }
                st.next_injection += 1;
                return None; // scalar `continue`
            }
            st.trace.push(st.t, &st.f);
            return Some(Ok(()));
        }
        record_until(&mut st.trace, &st.f, &mut st.next_record, t_next, &st.base);
        st.t = t_next;
        st.stats.final_time = st.t;
        st.stats.ssa_events += 1;
        let pick: f64 = st.rng.random::<f64>() * a0;
        let chosen = select_reaction(m, |j| lane_props[j], pick);
        st.compiled.fire(chosen, &mut st.n);
        for &(i, _) in st.compiled.changed_species(chosen) {
            st.f[i] = st.n[i] as f64;
        }
        return None; // scalar `continue`
    }

    // Leap (clipped at the next hard stop).
    let stop = st.base.t_end().min(injection_time);
    let tau = tau.min(stop - st.t);
    st.stats.tau_leaps += 1;
    for (j, &p) in lane_props.iter().enumerate() {
        let k = poisson(&mut st.rng, p * tau);
        if k == 0 {
            continue;
        }
        for &(i, d) in st.compiled.changed_species(j) {
            st.n[i] = (st.n[i] + d * k as i64).max(0);
        }
    }
    for (fv, &c) in st.f.iter_mut().zip(&st.n) {
        *fv = c as f64;
    }
    let t_next = st.t + tau;
    record_until(&mut st.trace, &st.f, &mut st.next_record, t_next, &st.base);
    st.t = t_next;
    st.stats.final_time = st.t;
    if (st.t - injection_time).abs() < 1e-12 && injection_time <= st.base.t_end() {
        let outcome = apply_injection(
            &st.injections[st.next_injection],
            &mut st.n,
            &mut st.f,
            &mut st.trace,
            st.t,
        );
        if let Err(e) = outcome {
            return Some(Err(e));
        }
        st.next_injection += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{Condition, Trigger};
    use crate::sim::Simulation;
    use crate::SimSpec;
    use molseq_crn::{Crn, RateAssignment};
    use std::cell::Cell;

    fn counter_crn() -> Crn {
        "X -> Y @slow\nY -> X @slow\n2X -> Z @fast\nZ -> X @slow"
            .parse()
            .unwrap()
    }

    fn scalar_ssa(
        crn: &Crn,
        compiled: &CompiledCrn,
        init: &State,
        schedule: &Schedule,
        opts: SsaOptions,
    ) -> Result<Trace, SimError> {
        Simulation::new(crn, compiled)
            .init(init)
            .schedule(schedule)
            .options(opts)
            .run()
    }

    fn scalar_tau(
        crn: &Crn,
        compiled: &CompiledCrn,
        init: &State,
        schedule: &Schedule,
        opts: TauLeapOptions,
    ) -> Result<Trace, SimError> {
        Simulation::new(crn, compiled)
            .init(init)
            .schedule(schedule)
            .options(opts)
            .run()
    }

    #[test]
    fn batched_propensities_match_scalar_bitwise() {
        let crn = counter_crn();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let fast = compiled.rebind(&SimSpec::new(RateAssignment::from_ratio(250.0)));
        let lanes = [&compiled, &fast, &compiled];
        let wd = lanes.len();
        let mut ks = Vec::new();
        compiled.gather_rates(&lanes, &mut ks);
        let states: [&[i64]; 3] = [&[7, 3, 2], &[0, 5, 1], &[2, 2, 0]];
        let mut n_soa = vec![0i64; compiled.species_count() * wd];
        for (l, st) in states.iter().enumerate() {
            for (i, &c) in st.iter().enumerate() {
                n_soa[i * wd + l] = c;
            }
        }
        let mut props = vec![0.0; compiled.reaction_count() * wd];
        compiled.propensity_batch(&ks, &n_soa, &mut props, wd);
        for (l, st) in states.iter().enumerate() {
            for j in 0..compiled.reaction_count() {
                let scalar = lanes[l].propensity(j, st);
                assert_eq!(
                    props[j * wd + l].to_bits(),
                    scalar.to_bits(),
                    "lane {l} reaction {j}"
                );
            }
        }
    }

    #[test]
    fn ssa_width_one_is_bit_identical_to_scalar() {
        let crn = counter_crn();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut init = State::new(&crn);
        init.set(crn.find_species("X").unwrap(), 40.0);
        let schedule = Schedule::new().inject(1.5, crn.find_species("Y").unwrap(), 12.0);
        let opts = SsaOptions::default().with_t_end(4.0).with_seed(17);
        let scalar = scalar_ssa(&crn, &compiled, &init, &schedule, opts).unwrap();
        let mut ws = BatchedStochWorkspace::new();
        let lanes = [SsaBatchLane {
            compiled: &compiled,
            init: &init,
            schedule: &schedule,
            options: opts,
        }];
        let got = run_ssa_batch(&crn, &lanes, &mut ws);
        assert_eq!(got.len(), 1);
        assert_eq!(*got[0].as_ref().unwrap(), scalar);
        // workspace reuse must not perturb a rerun
        let again = run_ssa_batch(&crn, &lanes, &mut ws);
        assert_eq!(*again[0].as_ref().unwrap(), scalar);
    }

    #[test]
    fn ssa_wide_batches_match_their_scalar_runs_bitwise() {
        let crn = counter_crn();
        let base = CompiledCrn::new(&crn, &SimSpec::default());
        let x = crn.find_species("X").unwrap();
        let ratios = [10.0, 100.0, 1.0e3, 1.0e4, 20.0, 300.0, 4.0e3, 40.0];
        let rebound: Vec<CompiledCrn> = ratios
            .iter()
            .map(|&r| base.rebind(&SimSpec::new(RateAssignment::from_ratio(r))))
            .collect();
        let mut init = State::new(&crn);
        init.set(x, 25.0);
        let schedule = Schedule::new();
        for width in [2usize, 4, 8] {
            let lanes: Vec<SsaBatchLane> = (0..width)
                .map(|l| SsaBatchLane {
                    compiled: &rebound[l],
                    init: &init,
                    schedule: &schedule,
                    options: SsaOptions::default()
                        .with_t_end(0.8)
                        .with_seed(100 + l as u64),
                })
                .collect();
            let mut ws = BatchedStochWorkspace::new();
            let got = run_ssa_batch(&crn, &lanes, &mut ws);
            for (l, lane) in lanes.iter().enumerate() {
                let scalar =
                    scalar_ssa(&crn, lane.compiled, lane.init, lane.schedule, lane.options)
                        .unwrap();
                assert_eq!(
                    *got[l].as_ref().unwrap(),
                    scalar,
                    "width {width} lane {l} diverged from scalar"
                );
            }
        }
    }

    #[test]
    fn tau_wide_batches_match_their_scalar_runs_bitwise() {
        let crn = counter_crn();
        let base = CompiledCrn::new(&crn, &SimSpec::default());
        let x = crn.find_species("X").unwrap();
        let ratios = [10.0, 100.0, 1.0e3, 1.0e4, 20.0, 300.0, 4.0e3, 40.0];
        let rebound: Vec<CompiledCrn> = ratios
            .iter()
            .map(|&r| base.rebind(&SimSpec::new(RateAssignment::from_ratio(r))))
            .collect();
        let mut init = State::new(&crn);
        init.set(x, 50_000.0);
        let schedule = Schedule::new().inject(0.3, x, 10_000.0);
        for width in [1usize, 2, 4, 8] {
            let lanes: Vec<TauBatchLane> = (0..width)
                .map(|l| TauBatchLane {
                    compiled: &rebound[l],
                    init: &init,
                    schedule: &schedule,
                    options: TauLeapOptions {
                        base: SsaOptions::default()
                            .with_t_end(0.6)
                            .with_seed(7 + l as u64),
                        ..TauLeapOptions::default()
                    },
                })
                .collect();
            let mut ws = BatchedStochWorkspace::new();
            let got = run_tau_batch(&crn, &lanes, &mut ws);
            for (l, lane) in lanes.iter().enumerate() {
                let scalar =
                    scalar_tau(&crn, lane.compiled, lane.init, lane.schedule, lane.options)
                        .unwrap();
                assert_eq!(
                    *got[l].as_ref().unwrap(),
                    scalar,
                    "width {width} lane {l} diverged from scalar"
                );
            }
        }
    }

    #[test]
    fn batched_metrics_match_scalar_counters() {
        let crn = counter_crn();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut init = State::new(&crn);
        init.set(crn.find_species("X").unwrap(), 60.0);
        let schedule = Schedule::new();

        let scalar_sink = Cell::new(SimMetrics::default());
        let opts = SsaOptions::default()
            .with_t_end(2.0)
            .with_seed(3)
            .with_metrics(&scalar_sink);
        scalar_ssa(&crn, &compiled, &init, &schedule, opts).unwrap();

        let batch_sink = Cell::new(SimMetrics::default());
        let lanes = [SsaBatchLane {
            compiled: &compiled,
            init: &init,
            schedule: &schedule,
            options: SsaOptions::default()
                .with_t_end(2.0)
                .with_seed(3)
                .with_metrics(&batch_sink),
        }];
        let mut ws = BatchedStochWorkspace::new();
        run_ssa_batch(&crn, &lanes, &mut ws);
        let scalar = scalar_sink.get();
        let batched = batch_sink.get();
        assert_eq!(batched.ssa_events, scalar.ssa_events);
        assert_eq!(batched.final_time, scalar.final_time);
        assert_eq!(batched.seed, scalar.seed);
        assert_eq!(batched.batch_width, 1);
        assert_eq!(batched.lanes_retired, 0);
    }

    #[test]
    fn ssa_budget_cut_retires_one_lane_and_leaves_the_rest_bit_identical() {
        let crn = counter_crn();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut init = State::new(&crn);
        init.set(crn.find_species("X").unwrap(), 500.0);
        let schedule = Schedule::new();
        let hook = |events: u64, _t: f64| {
            if events >= 10 {
                ControlFlow::Break("cut".to_owned())
            } else {
                ControlFlow::Continue(())
            }
        };
        let shared = Cell::new(SimMetrics::default());
        let mk = |seed: u64| {
            SsaOptions::default()
                .with_t_end(1.0)
                .with_seed(seed)
                .with_metrics(&shared)
        };
        let lanes = [
            SsaBatchLane {
                compiled: &compiled,
                init: &init,
                schedule: &schedule,
                options: mk(1),
            },
            SsaBatchLane {
                compiled: &compiled,
                init: &init,
                schedule: &schedule,
                options: mk(2).with_step_hook(&hook),
            },
            SsaBatchLane {
                compiled: &compiled,
                init: &init,
                schedule: &schedule,
                options: mk(3),
            },
        ];
        let mut ws = BatchedStochWorkspace::new();
        let got = run_ssa_batch(&crn, &lanes, &mut ws);
        assert!(matches!(got[1], Err(SimError::Interrupted { .. })));
        for l in [0usize, 2] {
            let scalar = scalar_ssa(&crn, &compiled, &init, &schedule, lanes[l].options).unwrap();
            assert_eq!(*got[l].as_ref().unwrap(), scalar, "lane {l}");
        }
        // the hooked lane retired first (ordinal 0), survivors after it:
        // the shared sink accumulates ordinals 0 + 1 + 2
        let m = shared.get();
        assert_eq!(m.batch_width, 3);
        assert_eq!(m.lanes_retired, 3);
    }

    #[test]
    fn tau_budget_cut_retires_one_lane_and_leaves_the_rest_bit_identical() {
        let crn = counter_crn();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut init = State::new(&crn);
        init.set(crn.find_species("X").unwrap(), 30_000.0);
        let schedule = Schedule::new();
        let hook = |steps: u64, _t: f64| {
            if steps >= 4 {
                ControlFlow::Break("cut".to_owned())
            } else {
                ControlFlow::Continue(())
            }
        };
        let mk = |seed: u64| TauLeapOptions {
            base: SsaOptions::default().with_t_end(0.5).with_seed(seed),
            ..TauLeapOptions::default()
        };
        let mut cut = mk(2);
        cut.base = cut.base.with_step_hook(&hook);
        let lanes = [
            TauBatchLane {
                compiled: &compiled,
                init: &init,
                schedule: &schedule,
                options: mk(1),
            },
            TauBatchLane {
                compiled: &compiled,
                init: &init,
                schedule: &schedule,
                options: cut,
            },
            TauBatchLane {
                compiled: &compiled,
                init: &init,
                schedule: &schedule,
                options: mk(3),
            },
        ];
        let mut ws = BatchedStochWorkspace::new();
        let got = run_tau_batch(&crn, &lanes, &mut ws);
        assert!(matches!(got[1], Err(SimError::Interrupted { .. })));
        for l in [0usize, 2] {
            let scalar = scalar_tau(&crn, &compiled, &init, &schedule, lanes[l].options).unwrap();
            assert_eq!(*got[l].as_ref().unwrap(), scalar, "lane {l}");
        }
    }

    #[test]
    fn validation_errors_are_per_lane_and_do_not_flush() {
        let crn = counter_crn();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut init = State::new(&crn);
        init.set(crn.find_species("X").unwrap(), 10.0);
        let schedule = Schedule::new();
        let sink = Cell::new(SimMetrics::default());
        let lanes = [
            SsaBatchLane {
                compiled: &compiled,
                init: &init,
                schedule: &schedule,
                options: SsaOptions::default().with_t_end(0.5).with_seed(1),
            },
            SsaBatchLane {
                compiled: &compiled,
                init: &init,
                schedule: &schedule,
                // NaN horizon: rejected before the core runs, no flush
                options: SsaOptions::default()
                    .with_t_end(f64::NAN)
                    .with_metrics(&sink),
            },
        ];
        let mut ws = BatchedStochWorkspace::new();
        let got = run_ssa_batch(&crn, &lanes, &mut ws);
        assert!(got[0].is_ok());
        assert!(matches!(got[1], Err(SimError::BadTimeSpan { .. })));
        assert_eq!(sink.get(), SimMetrics::default());
    }

    #[test]
    fn fractional_init_retires_with_a_flush_like_the_scalar_core() {
        let crn = counter_crn();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut bad = State::new(&crn);
        bad.set(crn.find_species("X").unwrap(), 1.5);
        let mut good = State::new(&crn);
        good.set(crn.find_species("X").unwrap(), 10.0);
        let schedule = Schedule::new();
        let sink = Cell::new(SimMetrics::default());
        let lanes = [
            SsaBatchLane {
                compiled: &compiled,
                init: &bad,
                schedule: &schedule,
                options: SsaOptions::default()
                    .with_t_end(0.5)
                    .with_seed(9)
                    .with_metrics(&sink),
            },
            SsaBatchLane {
                compiled: &compiled,
                init: &good,
                schedule: &schedule,
                options: SsaOptions::default().with_t_end(0.5).with_seed(1),
            },
        ];
        let mut ws = BatchedStochWorkspace::new();
        let got = run_ssa_batch(&crn, &lanes, &mut ws);
        assert!(matches!(got[0], Err(SimError::NonIntegerAmount { .. })));
        assert!(got[1].is_ok());
        // the scalar core flushes seed/final_time even on this failure
        let m = sink.get();
        assert_eq!(m.seed, 9);
        assert_eq!(m.final_time, 0.0);
        assert_eq!(m.batch_width, 2);
    }

    #[test]
    fn empty_batches_return_nothing() {
        let crn = counter_crn();
        let mut ws = BatchedStochWorkspace::new();
        assert!(run_ssa_batch(&crn, &[], &mut ws).is_empty());
        assert!(run_tau_batch(&crn, &[], &mut ws).is_empty());
    }

    #[test]
    #[should_panic(expected = "share one network structure")]
    fn mismatched_structures_panic() {
        let crn = counter_crn();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let init = State::new(&crn);
        let schedule = Schedule::new();
        // same species count (passes per-lane validation), different
        // reaction structure: the batch-level assert must catch it
        let variant: Crn = "X -> Y @slow\nY -> X @slow\n2X -> Z @fast\nX -> Z @slow"
            .parse()
            .unwrap();
        let variant_compiled = CompiledCrn::new(&variant, &SimSpec::default());
        let lanes = [
            SsaBatchLane {
                compiled: &compiled,
                init: &init,
                schedule: &schedule,
                options: SsaOptions::default(),
            },
            SsaBatchLane {
                compiled: &variant_compiled,
                init: &init,
                schedule: &schedule,
                options: SsaOptions::default(),
            },
        ];
        let mut ws = BatchedStochWorkspace::new();
        let _ = run_ssa_batch(&crn, &lanes, &mut ws);
    }

    #[test]
    #[should_panic(expected = "tau-leaping does not support triggers")]
    fn tau_batch_rejects_triggers() {
        let crn = counter_crn();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let x = crn.find_species("X").unwrap();
        let init = State::new(&crn);
        let schedule = Schedule::new().trigger(Trigger::mark(Condition::Above {
            species: x,
            threshold: 5.0,
        }));
        let lanes = [TauBatchLane {
            compiled: &compiled,
            init: &init,
            schedule: &schedule,
            options: TauLeapOptions::default(),
        }];
        let mut ws = BatchedStochWorkspace::new();
        let _ = run_tau_batch(&crn, &lanes, &mut ws);
    }

    #[test]
    fn ssa_mid_batch_budget_cuts_keep_survivors_bitwise_at_all_widths() {
        let crn = counter_crn();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut init = State::new(&crn);
        init.set(crn.find_species("X").unwrap(), 200.0);
        let schedule = Schedule::new();
        let hook = |events: u64, _t: f64| {
            if events >= 25 {
                ControlFlow::Break("mid-batch cut".to_owned())
            } else {
                ControlFlow::Continue(())
            }
        };
        for width in [1usize, 2, 4, 8] {
            let lanes: Vec<SsaBatchLane> = (0..width)
                .map(|l| {
                    let opts = SsaOptions::default().with_t_end(1.5).with_seed(l as u64);
                    let opts = if l % 2 == 1 {
                        opts.with_step_hook(&hook)
                    } else {
                        opts
                    };
                    SsaBatchLane {
                        compiled: &compiled,
                        init: &init,
                        schedule: &schedule,
                        options: opts,
                    }
                })
                .collect();
            let mut ws = BatchedStochWorkspace::new();
            let got = run_ssa_batch(&crn, &lanes, &mut ws);
            for (l, lane) in lanes.iter().enumerate() {
                let scalar =
                    scalar_ssa(&crn, lane.compiled, lane.init, lane.schedule, lane.options);
                match (&got[l], &scalar) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "width {width} lane {l}"),
                    (
                        Err(SimError::Interrupted { time: ta, .. }),
                        Err(SimError::Interrupted { time: tb, .. }),
                    ) => {
                        assert_eq!(ta.to_bits(), tb.to_bits(), "width {width} lane {l}");
                    }
                    other => panic!("width {width} lane {l}: mismatched outcomes {other:?}"),
                }
            }
        }
    }

    #[test]
    fn tau_mid_batch_budget_cuts_keep_survivors_bitwise_at_all_widths() {
        let crn = counter_crn();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut init = State::new(&crn);
        init.set(crn.find_species("X").unwrap(), 20_000.0);
        let schedule = Schedule::new();
        let hook = |steps: u64, _t: f64| {
            if steps >= 6 {
                ControlFlow::Break("mid-batch cut".to_owned())
            } else {
                ControlFlow::Continue(())
            }
        };
        for width in [1usize, 2, 4, 8] {
            let lanes: Vec<TauBatchLane> = (0..width)
                .map(|l| {
                    let mut opts = TauLeapOptions {
                        base: SsaOptions::default().with_t_end(0.4).with_seed(l as u64),
                        ..TauLeapOptions::default()
                    };
                    if l % 2 == 1 {
                        opts.base = opts.base.with_step_hook(&hook);
                    }
                    TauBatchLane {
                        compiled: &compiled,
                        init: &init,
                        schedule: &schedule,
                        options: opts,
                    }
                })
                .collect();
            let mut ws = BatchedStochWorkspace::new();
            let got = run_tau_batch(&crn, &lanes, &mut ws);
            for (l, lane) in lanes.iter().enumerate() {
                let scalar =
                    scalar_tau(&crn, lane.compiled, lane.init, lane.schedule, lane.options);
                match (&got[l], &scalar) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "width {width} lane {l}"),
                    (
                        Err(SimError::Interrupted { time: ta, .. }),
                        Err(SimError::Interrupted { time: tb, .. }),
                    ) => {
                        assert_eq!(ta.to_bits(), tb.to_bits(), "width {width} lane {l}");
                    }
                    other => panic!("width {width} lane {l}: mismatched outcomes {other:?}"),
                }
            }
        }
    }

    #[test]
    fn ssa_lanes_with_triggers_match_scalar_bitwise() {
        let crn = counter_crn();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let x = crn.find_species("X").unwrap();
        let y = crn.find_species("Y").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 30.0);
        let schedule = Schedule::new()
            .inject(0.5, x, 20.0)
            .trigger(Trigger::inject_queue(
                Condition::Above {
                    species: y,
                    threshold: 10.0,
                },
                x,
                vec![5.0, 5.0],
            ));
        for width in [2usize, 4] {
            let lanes: Vec<SsaBatchLane> = (0..width)
                .map(|l| SsaBatchLane {
                    compiled: &compiled,
                    init: &init,
                    schedule: &schedule,
                    options: SsaOptions::default()
                        .with_t_end(2.0)
                        .with_seed(31 + l as u64),
                })
                .collect();
            let mut ws = BatchedStochWorkspace::new();
            let got = run_ssa_batch(&crn, &lanes, &mut ws);
            for (l, lane) in lanes.iter().enumerate() {
                let scalar =
                    scalar_ssa(&crn, lane.compiled, lane.init, lane.schedule, lane.options)
                        .unwrap();
                assert_eq!(*got[l].as_ref().unwrap(), scalar, "width {width} lane {l}");
            }
        }
    }
}
