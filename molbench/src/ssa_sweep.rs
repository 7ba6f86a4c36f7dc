//! `ssa_sweep`: stochastic cells on the local sweep pool.
//!
//! Each round holds, all at batch width 1:
//!
//! * SSA replicates of the moving-average filter (built from the
//!   `mavg2` example netlist) on seeded samples at a seeded rate ratio,
//!   and of the 2-bit counter at amplitude 8 under a seeded pulse train —
//!   the E10 shape;
//! * explicit tau-leaping and hybrid ODE/SSA cells on the E13/E14 stiff
//!   clocked motif at seeded `k_fast`, each parsed and compiled in the
//!   cell as E13/E14 do.
//!
//! Checks: filter outputs within [`SSA_FILTER_TOL`] molecules of
//! `(x[n] + x[n−1]) / 2`; counters equal to the pulse count mod 4; the
//! stiff clock's indicator level within the E14 bound of `k_fast / 1e4`.

use crate::common::{
    check_clock_observable, compile, stiff_motif, CellReport, Engine, MAVG2_NL, STIFF_RECORD,
    STIFF_T_END, STIFF_X0,
};
use crate::ode_sweep::check_filter;
use crate::rng::Rng;
use crate::sweep::SweepWorkload;
use crate::trace::{SpanCtx, Tracer};
use molseq_crn::{Crn, RateAssignment};
use molseq_kinetics::{
    CompiledCrn, HybridOptions, Schedule, SimMetrics, SimSpec, Simulation, SsaOptions, State,
    TauLeapOptions, Trace,
};
use molseq_netlist::parse_netlist;
use molseq_sweep::JobCtx;
use molseq_sync::{compile_netlist, BinaryCounter, ClockSpec, CompiledSystem, SyncRun};
use std::cell::Cell;

/// Filter tolerance in molecules: halving loses up to half a molecule
/// per odd sum, and finite counts leak a little more.
pub const SSA_FILTER_TOL: f64 = 3.0;
/// Samples per filter replicate.
const FILTER_SAMPLES: usize = 4;
/// Replicates per panel.
const REPLICATES: usize = 4;
/// Filter amplitude: samples are whole fifths of it.
const FILTER_AMPLITUDE: f64 = 30.0;
/// Counter amplitude (molecules per logical 1), E10's.
const COUNTER_AMPLITUDE: f64 = 8.0;
/// Pulse slots per counter panel.
const PULSE_SLOTS: usize = 3;
/// How many of the slots pulse (positions are drawn).
const PULSES: usize = 2;
/// Simulated time allowed per needed clock cycle (cycles run ~10–14).
const FILTER_TIME_PER_CYCLE: f64 = 18.0;
/// Simulated time allowed per needed counter cycle.
const COUNTER_TIME_PER_CYCLE: f64 = 16.0;
/// Recording interval of the filter and counter replicates. Cycles are
/// read off the clock's red plateaus in the recorded trace; at one sample
/// per time unit a short plateau can fall between samples, which drops a
/// cycle and shifts every later register reading by one.
const CYCLE_RECORD: f64 = 0.25;
/// Tau-leaping cells per round, `k_fast` in the leaping regime.
const TAU_CELLS: usize = 2;
/// Hybrid cells per round.
const HYBRID_CELLS: usize = 4;

/// Built circuits and their default-rate compiles.
pub struct SsaSweep {
    filter: CompiledSystem,
    filter_compiled: CompiledCrn,
    counter: BinaryCounter,
    counter_compiled: CompiledCrn,
}

/// One `ssa_sweep` cell.
#[derive(Debug, Clone, PartialEq)]
pub enum SsaCell {
    /// A filter replicate.
    Filter {
        /// `k_fast / k_slow`.
        ratio: f64,
        /// Input samples, whole molecules.
        samples: Vec<f64>,
    },
    /// A counter replicate.
    Counter {
        /// Pulse pattern (followed by settle cycles).
        pulses: Vec<bool>,
    },
    /// An explicit tau-leaping run of the stiff clock.
    Tau {
        /// Production rate of the indicator.
        k_fast: f64,
    },
    /// A hybrid run of the stiff clock.
    Hybrid {
        /// Production rate of the indicator.
        k_fast: f64,
    },
}

impl SsaSweep {
    /// Builds and compiles the filter and the counter.
    ///
    /// # Errors
    ///
    /// A description of the first parse or lowering failure.
    pub fn setup(tracer: &Tracer, parent: Option<SpanCtx>) -> Result<Self, String> {
        let netlist = {
            let _span = tracer.child("netlist.parse", parent);
            parse_netlist(MAVG2_NL).map_err(|e| format!("mavg2 netlist: {e}"))?
        };
        let filter = {
            let _span = tracer.child("sync.lower", parent);
            compile_netlist(netlist, ClockSpec::default())
                .map_err(|e| format!("mavg2 does not lower: {e}"))?
        };
        let filter_compiled = compile(tracer, parent, filter.crn());
        let counter = {
            let _span = tracer.child("sync.lower", parent);
            BinaryCounter::build(2, COUNTER_AMPLITUDE, ClockSpec::default())
                .map_err(|e| format!("counter does not build: {e}"))?
        };
        let counter_compiled = compile(tracer, parent, counter.system().crn());
        Ok(SsaSweep {
            filter,
            filter_compiled,
            counter,
            counter_compiled,
        })
    }
}

/// Draws one round: a counter panel (the longest cells, first, so the pool
/// packs them before the short ones), a filter panel, tau and hybrid
/// cells.
#[must_use]
pub fn draw_round(rng: &mut Rng) -> Vec<SsaCell> {
    // the clock's event rate, and so a replicate's cost, grows with the
    // ratio: a narrow range keeps every seed's round about equally long
    let ratio = rng.log_range(1e3, 1.25e3);
    let samples: Vec<f64> = (0..FILTER_SAMPLES)
        .map(|_| (rng.int(1, 5) as f64 / 5.0 * FILTER_AMPLITUDE).round())
        .collect();
    let pulses = rng.pattern(PULSE_SLOTS, PULSES);
    let mut cells: Vec<SsaCell> = (0..REPLICATES)
        .map(|_| SsaCell::Counter {
            pulses: pulses.clone(),
        })
        .collect();
    for _ in 0..REPLICATES {
        cells.push(SsaCell::Filter {
            ratio,
            samples: samples.clone(),
        });
    }
    for _ in 0..TAU_CELLS {
        cells.push(SsaCell::Tau {
            k_fast: rng.log_range(3e6, 6e6),
        });
    }
    for _ in 0..HYBRID_CELLS {
        cells.push(SsaCell::Hybrid {
            k_fast: rng.log_range(1e4, 1e6),
        });
    }
    cells
}

/// SSA options of one cell.
fn ssa_options<'h>(
    t_end: f64,
    record: f64,
    ctx: &JobCtx,
    hook: molseq_kinetics::StepHook<'h>,
    sink: &'h Cell<SimMetrics>,
) -> SsaOptions<'h> {
    SsaOptions::default()
        .with_t_end(t_end)
        .with_record_interval(record)
        .with_seed(ctx.seed())
        .with_step_hook(hook)
        .with_metrics(sink)
}

impl SsaSweep {
    fn run_filter<'h>(
        &self,
        ratio: f64,
        samples: &[f64],
        opts: impl FnOnce(f64) -> SsaOptions<'h>,
        tracer: &Tracer,
        parent: Option<SpanCtx>,
    ) -> Result<(), String> {
        let rebound = {
            let _span = tracer.child("kinetics.rebind", parent);
            self.filter_compiled
                .rebind(&SimSpec::new(RateAssignment::from_ratio(ratio)))
        };
        let trigger = self
            .filter
            .input_trigger("x", samples)
            .map_err(|e| format!("filter input: {e}"))?;
        let t_end = FILTER_TIME_PER_CYCLE * (samples.len() + 3) as f64;
        let trace = {
            let _span = tracer.child("kinetics.ssa", parent);
            Simulation::new(self.filter.crn(), &rebound)
                .init(&self.filter.initial_state())
                .schedule(&Schedule::new().trigger(trigger))
                .options(opts(t_end))
                .run()
        }
        .map_err(|e| format!("filter: {e}"))?;
        let run = SyncRun::from_trace(&self.filter, trace);
        let y = run
            .register_series("y")
            .map_err(|e| format!("filter: {e}"))?;
        check_filter(samples, y, SSA_FILTER_TOL)
    }

    fn run_counter<'h>(
        &self,
        pulses: &[bool],
        opts: impl FnOnce(f64) -> SsaOptions<'h>,
        tracer: &Tracer,
        parent: Option<SpanCtx>,
    ) -> Result<(), String> {
        let counter = &self.counter;
        let mut pattern = pulses.to_vec();
        pattern.resize(pulses.len() + counter.bits() + 1, false);
        let train = counter.pulse_train(&pattern);
        let trigger = counter
            .system()
            .input_trigger("pulse", &train)
            .map_err(|e| format!("counter input: {e}"))?;
        let t_end = COUNTER_TIME_PER_CYCLE * (train.len() + 2) as f64;
        let trace = {
            let _span = tracer.child("kinetics.ssa", parent);
            Simulation::new(counter.system().crn(), &self.counter_compiled)
                .init(&counter.system().initial_state())
                .schedule(&Schedule::new().trigger(trigger))
                .options(opts(t_end))
                .run()
        }
        .map_err(|e| format!("counter: {e}"))?;
        let run = SyncRun::from_trace(counter.system(), trace);
        if run.cycles() <= train.len() {
            return Err(format!(
                "counter completed {} cycles, needs {}",
                run.cycles(),
                train.len() + 1
            ));
        }
        let got = counter
            .decode(&run, run.cycles() - 1)
            .map_err(|e| format!("counter: {e}"))?;
        let expected = pulses.iter().filter(|&&p| p).count() as u32 % 4;
        if got == expected {
            Ok(())
        } else {
            Err(format!("counter read {got}, expected {expected}"))
        }
    }
}

/// Parses and compiles the stiff motif, runs it on `engine` and checks
/// the clock observable.
fn run_stiff(
    engine: Engine,
    k_fast: f64,
    ctx: &JobCtx,
    sink: &Cell<SimMetrics>,
    tracer: &Tracer,
    parent: Option<SpanCtx>,
) -> Result<(), String> {
    let hook = ctx.step_hook();
    let crn: Crn = {
        let _span = tracer.child("crn.parse", parent);
        stiff_motif(k_fast)
            .parse()
            .map_err(|e| format!("stiff motif: {e}"))?
    };
    let compiled = compile(tracer, parent, &crn);
    let mut init = State::new(&crn);
    init.set(crn.find_species("X").ok_or("motif lost X")?, STIFF_X0);
    let sim = Simulation::new(&crn, &compiled).init(&init);
    let base = ssa_options(STIFF_T_END, STIFF_RECORD, ctx, &hook, sink);
    let trace: Trace = {
        let _span = tracer.child(engine.layer(), parent);
        match engine {
            Engine::Tau => sim
                .options(TauLeapOptions {
                    base,
                    ..TauLeapOptions::default()
                })
                .run(),
            _ => sim
                .options(
                    HybridOptions::default()
                        .with_t_end(STIFF_T_END)
                        .with_record_interval(STIFF_RECORD)
                        .with_seed(ctx.seed())
                        .with_step_hook(&hook)
                        .with_metrics(sink),
                )
                .run(),
        }
    }
    .map_err(|e| format!("stiff clock k_fast={k_fast}: {e}"))?;
    check_clock_observable(&crn, &trace, k_fast)
}

impl SweepWorkload for SsaSweep {
    type Cell = SsaCell;

    fn round(&self, rng: &mut Rng) -> Vec<SsaCell> {
        draw_round(rng)
    }

    fn label(&self, cell: &SsaCell) -> String {
        match cell {
            SsaCell::Filter { ratio, .. } => format!("ssa filter ratio={ratio:.1}"),
            SsaCell::Counter { .. } => "ssa counter".to_owned(),
            SsaCell::Tau { k_fast } => format!("tau k_fast={k_fast:.4e}"),
            SsaCell::Hybrid { k_fast } => format!("hybrid k_fast={k_fast:.4e}"),
        }
    }

    fn run(
        &self,
        cell: &SsaCell,
        ctx: &JobCtx,
        tracer: &Tracer,
        parent: Option<SpanCtx>,
    ) -> CellReport {
        let hook = ctx.step_hook();
        let sink = Cell::new(SimMetrics::default());
        let opts = |t_end: f64| ssa_options(t_end, CYCLE_RECORD, ctx, &hook, &sink);
        let (engine, check) = match cell {
            SsaCell::Filter { ratio, samples } => (
                Engine::Ssa,
                self.run_filter(*ratio, samples, opts, tracer, parent),
            ),
            SsaCell::Counter { pulses } => {
                (Engine::Ssa, self.run_counter(pulses, opts, tracer, parent))
            }
            SsaCell::Tau { k_fast } => (
                Engine::Tau,
                run_stiff(Engine::Tau, *k_fast, ctx, &sink, tracer, parent),
            ),
            SsaCell::Hybrid { k_fast } => (
                Engine::Hybrid,
                run_stiff(Engine::Hybrid, *k_fast, ctx, &sink, tracer, parent),
            ),
        };
        CellReport {
            engine,
            metrics: sink.get(),
            check,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_draws_the_same_round() {
        let draw = |seed: u64| draw_round(&mut Rng::new(seed).fork(0));
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
        let cells = draw(9);
        assert_eq!(cells.len(), 2 * REPLICATES + TAU_CELLS + HYBRID_CELLS);
        for cell in &cells {
            match cell {
                SsaCell::Filter { samples, .. } => {
                    assert!(samples.iter().all(|x| x.fract() == 0.0 && *x >= 1.0));
                }
                SsaCell::Tau { k_fast } => assert!((3e6..6e6).contains(k_fast)),
                SsaCell::Hybrid { k_fast } => assert!((1e4..1e6).contains(k_fast)),
                SsaCell::Counter { pulses } => assert_eq!(pulses.len(), PULSE_SLOTS),
            }
        }
    }
}
