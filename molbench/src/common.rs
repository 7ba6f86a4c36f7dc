//! Pieces every workload shares: the run configuration, timed set-up,
//! the stiff-clock motif, per-engine counter tallies, and the per-layer
//! readings derived from spans.

use crate::report::Outcome;
use crate::stats;
use crate::trace::{layer_table, LayerRow, SpanCtx, SpanRecord, Tracer};
use molseq_crn::Crn;
use molseq_kinetics::{CompiledCrn, SimMetrics, SimSpec, Trace};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The three example netlists shipped with the repository.
pub const SEQDET_NL: &str = include_str!("../../examples/netlists/seqdet.nl");
/// The two-tap moving-average filter netlist.
pub const MAVG2_NL: &str = include_str!("../../examples/netlists/mavg2.nl");
/// The two-bit ripple counter netlist.
pub const COUNTER2_NL: &str = include_str!("../../examples/netlists/counter2.nl");

/// How many times a run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 15;

/// The E14 accuracy bound on the stiff clock: the time-averaged indicator
/// level must lie within this relative distance of `k_fast / 1e4`.
pub const E14_REL_BOUND: f64 = 0.35;

/// Initial catalyst pool of the stiff-clock motif; with it the
/// quasi-steady indicator level is `k_fast / (100 · X0) = k_fast / 1e4`.
pub const STIFF_X0: f64 = 100.0;

/// One invocation of the benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Workload seed: the only source of input variation.
    pub seed: u64,
    /// How long the measured loop keeps starting work.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Config {
    /// The measured-loop length.
    #[must_use]
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Pool and server worker count, and client connections: sized for a
/// two-core machine, never more than the cores present.
#[must_use]
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(2)
}

/// Runs `build` [`SETUP_REPS`] times under `bench.setup` root spans and
/// returns the last result with every repetition's wall time in seconds.
///
/// # Errors
///
/// The first error `build` returns.
pub fn timed_setup<T>(
    tracer: &Tracer,
    mut build: impl FnMut(Option<SpanCtx>) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut walls = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // drop the previous repetition first, so its teardown is not timed
        drop(last.take());
        let root = tracer.root("bench.setup", 0);
        let started = Instant::now();
        let built = build(root.ctx())?;
        walls.push(started.elapsed().as_secs_f64());
        last = Some(built);
    }
    Ok((last.expect("SETUP_REPS > 0"), walls))
}

/// `CompiledCrn::new` under a `kinetics.compile` span.
#[must_use]
pub fn compile(tracer: &Tracer, parent: Option<SpanCtx>, crn: &Crn) -> CompiledCrn {
    let _span = tracer.child("kinetics.compile", parent);
    CompiledCrn::new(crn, &SimSpec::default())
}

/// Reaction text of the E13/E14 stiff clocked motif: the indicator `R`
/// produced at `k_fast` and consumed fast by the pool `X`, which drains
/// slowly into `Y`.
#[must_use]
pub fn stiff_motif(k_fast: f64) -> String {
    format!("0 -> R @{k_fast}\nR + X -> X @100\nX -> Y @0.01")
}

/// Horizon and recording grid of the stiff-clock cells (E14's).
pub const STIFF_T_END: f64 = 1.0;
/// Recording interval of the stiff-clock cells.
pub const STIFF_RECORD: f64 = 0.005;

/// Checks E14's clock observable: the mean of `R` over the second half
/// of the run against `k_fast / 1e4`.
///
/// # Errors
///
/// Describes the miss.
pub fn check_clock_observable(crn: &Crn, trace: &Trace, k_fast: f64) -> Result<(), String> {
    let r = crn.find_species("R").ok_or("motif lost species R")?;
    let series = trace.series(r);
    let picked: Vec<f64> = trace
        .times()
        .iter()
        .zip(&series)
        .filter(|(&t, _)| t >= STIFF_T_END / 2.0)
        .map(|(_, &v)| v)
        .collect();
    if picked.is_empty() {
        return Err("stiff clock recorded no samples in its second half".into());
    }
    let avg = picked.iter().sum::<f64>() / picked.len() as f64;
    let expected = k_fast / (100.0 * STIFF_X0);
    let rel = (avg - expected).abs() / expected;
    if rel <= E14_REL_BOUND {
        Ok(())
    } else {
        Err(format!(
            "stiff clock k_fast={k_fast}: indicator mean {avg} is {rel:.3} from {expected}"
        ))
    }
}

/// Which kinetics engine a cell ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Deterministic Rosenbrock ODE.
    Ode,
    /// Exact Gillespie SSA.
    Ssa,
    /// Explicit tau-leaping.
    Tau,
    /// Hybrid ODE/SSA.
    Hybrid,
}

impl Engine {
    /// The span name of a run on this engine.
    #[must_use]
    pub fn layer(self) -> &'static str {
        match self {
            Engine::Ode => "kinetics.ode",
            Engine::Ssa => "kinetics.ssa",
            Engine::Tau => "kinetics.tau",
            Engine::Hybrid => "kinetics.hybrid",
        }
    }
}

/// What one simulated cell reports: its engine, the simulator counters,
/// and the verdict of its correctness check.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// The engine that ran it.
    pub engine: Engine,
    /// Simulator counters.
    pub metrics: SimMetrics,
    /// `Err` describes a wrong answer.
    pub check: Result<(), String>,
}

/// Simulator counters summed per engine. Counters of a fixed set of
/// cells repeat exactly for a given seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Accepted steps of ODE-engine cells.
    pub ode_steps: u64,
    /// Rejected steps of ODE-engine cells.
    pub ode_rejected: u64,
    /// LU factorizations of ODE-engine cells.
    pub lu: u64,
    /// Events of SSA-engine cells.
    pub ssa_events: u64,
    /// Leaps of tau-leaping cells.
    pub tau_leaps: u64,
    /// Continuous steps of hybrid cells.
    pub hybrid_fast: u64,
    /// Discrete events of hybrid cells.
    pub hybrid_slow: u64,
}

impl Tally {
    /// Adds one cell's counters under its engine.
    pub fn add(&mut self, engine: Engine, m: &SimMetrics) {
        match engine {
            Engine::Ode => {
                self.ode_steps += m.ode_steps_accepted;
                self.ode_rejected += m.ode_steps_rejected;
                self.lu += m.lu_factorizations;
            }
            Engine::Ssa => self.ssa_events += m.ssa_events,
            Engine::Tau => self.tau_leaps += m.tau_leaps,
            Engine::Hybrid => {
                self.hybrid_fast += m.hybrid_fast_steps;
                self.hybrid_slow += m.hybrid_slow_events;
            }
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: &Tally) {
        self.ode_steps += other.ode_steps;
        self.ode_rejected += other.ode_rejected;
        self.lu += other.lu;
        self.ssa_events += other.ssa_events;
        self.tau_leaps += other.tau_leaps;
        self.hybrid_fast += other.hybrid_fast;
        self.hybrid_slow += other.hybrid_slow;
    }
}

/// The median of `xs`, or 0 with no samples.
#[must_use]
pub fn median_or_zero(xs: &[f64]) -> f64 {
    stats::median(xs).unwrap_or(0.0)
}

/// Records `name` as the median of `xs` and `tail_name` as its tail (the
/// maximum, flagged, when 20 or fewer samples allow no tail).
pub fn set_median_and_tail(
    outcome: &mut Outcome,
    name: &'static str,
    tail_name: &'static str,
    xs: &[f64],
) {
    outcome.set(name, median_or_zero(xs), xs.len());
    match stats::tail(xs) {
        Some(t) => outcome.set_noted(
            tail_name,
            t.value,
            t.samples,
            format!("p{} with {} beyond", t.percentile, t.beyond),
        ),
        None => outcome.set_noted(
            tail_name,
            xs.iter().copied().fold(0.0, f64::max),
            xs.len(),
            "maximum: too few samples for the tail rule".into(),
        ),
    }
}

/// Mean span duration of `layer` in seconds (0 when it never ran).
fn mean_call_s(table: &BTreeMap<&'static str, LayerRow>, layer: &str) -> (f64, usize) {
    table.get(layer).map_or((0.0, 0), |row| {
        (row.total_ns as f64 * 1e-9 / row.spans as f64, row.spans)
    })
}

fn self_ns(table: &BTreeMap<&'static str, LayerRow>, layer: &str) -> u64 {
    table.get(layer).map_or(0, |row| row.self_ns)
}

/// Records the layer readings every workload shares: mean call time of
/// the front-end and compile layers, per-step and per-event kernel time
/// (`traced` holds the counters of the traced cells), and the exact
/// counters of the fixed first set of cells (`first`).
pub fn set_layer_readings(
    outcome: &mut Outcome,
    spans: &[SpanRecord],
    first: &Tally,
    traced: &Tally,
) {
    let table = layer_table(spans);
    for (metric, layer) in [
        ("netlist.parse_s", "netlist.parse"),
        ("sync.lower_s", "sync.lower"),
        ("crn.parse_s", "crn.parse"),
        ("kinetics.compile_s", "kinetics.compile"),
        ("kinetics.rebind_s", "kinetics.rebind"),
    ] {
        let (mean, calls) = mean_call_s(&table, layer);
        outcome.set_noted(metric, mean, calls, "mean per call".into());
    }
    let per = |ns: u64, count: u64| {
        if count == 0 {
            0.0
        } else {
            ns as f64 / count as f64
        }
    };
    outcome.set(
        "kinetics.ode.us_per_step",
        per(self_ns(&table, "kinetics.ode"), traced.ode_steps) * 1e-3,
        traced.ode_steps as usize,
    );
    outcome.set(
        "kinetics.ssa.ns_per_event",
        per(self_ns(&table, "kinetics.ssa"), traced.ssa_events),
        traced.ssa_events as usize,
    );
    let attempts = first.ode_steps + first.ode_rejected;
    outcome.set("kinetics.ode.steps_accepted", first.ode_steps as f64, 1);
    outcome.set(
        "kinetics.ode.accept_ratio",
        if attempts == 0 {
            0.0
        } else {
            first.ode_steps as f64 / attempts as f64
        },
        attempts as usize,
    );
    outcome.set("kinetics.ode.lu_factorizations", first.lu as f64, 1);
    outcome.set("kinetics.ssa.events", first.ssa_events as f64, 1);
    outcome.set("kinetics.tau.leaps", first.tau_leaps as f64, 1);
    outcome.set("kinetics.hybrid.fast_steps", first.hybrid_fast as f64, 1);
    outcome.set("kinetics.hybrid.slow_events", first.hybrid_slow as f64, 1);
}

/// Peak resident memory of this process in MB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}
