//! `ode_sweep`: deterministic mass-action cells on the local sweep pool.
//!
//! Each round holds three kinds of cell, all on the Rosenbrock ODE path:
//!
//! * the 2-tap moving-average filter at seeded rate ratios, one per
//!   half-decade from 10² to 10⁵ (the E6 shape), fed seeded samples;
//! * 2-, 3- and 4-bit ripple counters driven by seeded pulse trains
//!   through `drive_cycles` — the 4-bit cell is the pool's straggler;
//! * the `seqdet` example netlist fed a seeded bit string.
//!
//! Checks: filter outputs within [`FILTER_TOL`] of the largest sample of
//! `(x[n] + x[n−1]) / 2`; counters equal to the pulse count mod 2^bits;
//! the detector's one-hot state equal to a reference Moore machine.

use crate::common::{compile, CellReport, Engine, SEQDET_NL};
use crate::rng::Rng;
use crate::sweep::SweepWorkload;
use crate::trace::{SpanCtx, Tracer};
use molseq_crn::{Crn, RateAssignment};
use molseq_dsp::{moving_average, Filter};
use molseq_kinetics::{CompiledCrn, SimMetrics, SimSpec};
use molseq_netlist::parse_netlist;
use molseq_sweep::JobCtx;
use molseq_sync::{
    compile_netlist, drive_cycles, BinaryCounter, ClockSpec, CompiledSystem, CycleResources,
    RunConfig, SyncError,
};
use std::cell::Cell;

/// Filter tolerance, as a fraction of the largest input sample.
pub const FILTER_TOL: f64 = 0.02;
/// Samples per filter cell.
const FILTER_SAMPLES: usize = 3;
/// Per counter width: pulse slots and how many of them pulse. The 2-bit
/// counter sees four pulses, so it wraps to 0.
const COUNTER_PULSES: [(usize, usize); 3] = [(5, 4), (3, 2), (3, 2)];
/// Input bits per detector cell.
const SEQDET_BITS: usize = 5;
/// How many detector input bits are 1.
const SEQDET_ONES: usize = 3;
/// Logical-1 amplitude of the counters and the detector.
const AMPLITUDE: f64 = 60.0;
/// Counter widths, one cell each per round.
const COUNTER_BITS: [usize; 3] = [2, 3, 4];

/// The detector's transition table: `NEXT[state][input]`.
const SEQDET_NEXT: [[usize; 2]; 3] = [[0, 1], [0, 2], [2, 2]];

/// Built circuits and their default-rate compiles.
pub struct OdeSweep {
    filter: Filter,
    filter_compiled: CompiledCrn,
    counters: Vec<(BinaryCounter, CompiledCrn)>,
    seqdet: CompiledSystem,
    seqdet_compiled: CompiledCrn,
}

/// One `ode_sweep` cell.
#[derive(Debug, Clone, PartialEq)]
pub enum OdeCell {
    /// The filter at rate ratio `ratio` over `samples`.
    Filter {
        /// `k_fast / k_slow`.
        ratio: f64,
        /// Input samples.
        samples: Vec<f64>,
    },
    /// Counter `COUNTER_BITS[which]` driven by `pulses`.
    Counter {
        /// Index into the counter list.
        which: usize,
        /// Pulse pattern (followed by settle cycles).
        pulses: Vec<bool>,
    },
    /// The sequence detector fed `bits`.
    Seqdet {
        /// Input bits.
        bits: Vec<bool>,
    },
}

fn lower<T>(what: &str, built: Result<T, SyncError>) -> Result<T, String> {
    built.map_err(|e| format!("{what} does not build: {e}"))
}

impl OdeSweep {
    /// Builds and compiles every circuit.
    ///
    /// # Errors
    ///
    /// A description of the first build, parse or lowering failure.
    pub fn setup(tracer: &Tracer, parent: Option<SpanCtx>) -> Result<Self, String> {
        let filter = {
            let _span = tracer.child("sync.lower", parent);
            lower("filter", moving_average(2, ClockSpec::default()))?
        };
        let filter_compiled = compile(tracer, parent, filter.system().crn());
        let mut counters = Vec::new();
        for bits in COUNTER_BITS {
            let counter = {
                let _span = tracer.child("sync.lower", parent);
                lower(
                    "counter",
                    BinaryCounter::build(bits, AMPLITUDE, ClockSpec::default()),
                )?
            };
            let compiled = compile(tracer, parent, counter.system().crn());
            counters.push((counter, compiled));
        }
        let netlist = {
            let _span = tracer.child("netlist.parse", parent);
            parse_netlist(SEQDET_NL).map_err(|e| format!("seqdet netlist: {e}"))?
        };
        let seqdet = {
            let _span = tracer.child("sync.lower", parent);
            lower("seqdet", compile_netlist(netlist, ClockSpec::default()))?
        };
        // the server ships lowered networks as reaction text; the text must
        // read back to the same species and reactions (in its own order)
        let reparsed: Crn = {
            let _span = tracer.child("crn.parse", parent);
            seqdet
                .crn()
                .to_string()
                .parse()
                .map_err(|e| format!("seqdet reaction text does not parse: {e}"))?
        };
        let names = |crn: &Crn| {
            let mut v: Vec<String> = crn
                .species_iter()
                .map(|(_, s)| s.name().to_owned())
                .collect();
            v.sort();
            v
        };
        if names(&reparsed) != names(seqdet.crn())
            || reparsed.reactions().len() != seqdet.crn().reactions().len()
        {
            return Err("seqdet reaction text does not round-trip".into());
        }
        let seqdet_compiled = compile(tracer, parent, seqdet.crn());
        Ok(OdeSweep {
            filter,
            filter_compiled,
            counters,
            seqdet,
            seqdet_compiled,
        })
    }
}

/// Draws one round: three counters (largest first, so the pool packs
/// them before the short cells), one detector, and six filter cells, one
/// near the middle of each half-decade of rate ratio from 10² to 10⁵. Pulse and bit counts are fixed
/// and only their positions are drawn, so every seed asks for about the
/// same work.
#[must_use]
pub fn draw_round(rng: &mut Rng) -> Vec<OdeCell> {
    let mut cells = Vec::new();
    for which in (0..COUNTER_BITS.len()).rev() {
        let (slots, pulses) = COUNTER_PULSES[which];
        cells.push(OdeCell::Counter {
            which,
            pulses: rng.pattern(slots, pulses),
        });
    }
    cells.push(OdeCell::Seqdet {
        bits: rng.pattern(SEQDET_BITS, SEQDET_ONES),
    });
    for half in 4..10 {
        // near the middle of each half-decade: cost varies with the ratio,
        // and the strata keep every seed's round about equally long
        let ratio = 10f64.powf(0.5 * (f64::from(half) + 0.4 + 0.2 * rng.unit()));
        let samples = (0..FILTER_SAMPLES)
            .map(|_| rng.int(10, 90) as f64)
            .collect();
        cells.push(OdeCell::Filter { ratio, samples });
    }
    cells
}

/// `(x[n] + x[n−1]) / 2` with `x[−1] = 0`.
#[must_use]
pub fn moving_average_reference(samples: &[f64]) -> Vec<f64> {
    (0..samples.len())
        .map(|n| 0.5 * (samples[n] + if n > 0 { samples[n - 1] } else { 0.0 }))
        .collect()
}

/// Checks `measured` against the moving average of `samples` within
/// `tol` (absolute).
///
/// # Errors
///
/// Describes the first output out of tolerance.
pub fn check_filter(samples: &[f64], measured: &[f64], tol: f64) -> Result<(), String> {
    if measured.len() < samples.len() {
        return Err(format!(
            "filter produced {} outputs for {} samples",
            measured.len(),
            samples.len()
        ));
    }
    let ideal = moving_average_reference(samples);
    for (n, (m, i)) in measured.iter().zip(&ideal).enumerate() {
        if (m - i).abs() > tol {
            return Err(format!("filter y[{n}] = {m}, expected {i} ± {tol}"));
        }
    }
    Ok(())
}

/// The detector's state after each input of `bits`, from state 0.
#[must_use]
pub fn seqdet_reference(bits: &[bool]) -> Vec<usize> {
    bits.iter()
        .scan(0usize, |state, &bit| {
            *state = SEQDET_NEXT[*state][usize::from(bit)];
            Some(*state)
        })
        .collect()
}

impl OdeSweep {
    fn run_filter(
        &self,
        ratio: f64,
        samples: &[f64],
        config: RunConfig<'_>,
        tracer: &Tracer,
        parent: Option<SpanCtx>,
    ) -> Result<(), String> {
        let spec = SimSpec::new(RateAssignment::from_ratio(ratio));
        let rebound = {
            let _span = tracer.child("kinetics.rebind", parent);
            self.filter_compiled.rebind(&spec)
        };
        let config = RunConfig { spec, ..config };
        let measured = {
            let _span = tracer.child("kinetics.ode", parent);
            self.filter.respond_with(samples, &config, Some(&rebound))
        }
        .map_err(|e| format!("filter ratio {ratio}: {e}"))?;
        let tol = FILTER_TOL * samples.iter().copied().fold(0.0, f64::max);
        check_filter(samples, &measured, tol)
    }

    fn run_counter(
        &self,
        which: usize,
        pulses: &[bool],
        config: &RunConfig<'_>,
        tracer: &Tracer,
        parent: Option<SpanCtx>,
    ) -> Result<(), String> {
        let (counter, compiled) = &self.counters[which];
        let bits = counter.bits();
        let mut pattern = pulses.to_vec();
        pattern.resize(pulses.len() + bits + 1, false);
        let train = counter.pulse_train(&pattern);
        let resources = CycleResources {
            compiled: Some(compiled),
            workspace: None,
        };
        let run = {
            let _span = tracer.child("kinetics.ode", parent);
            drive_cycles(
                counter.system(),
                &[("pulse", &train)],
                train.len() + 1,
                config,
                resources,
            )
        }
        .map_err(|e| format!("{bits}-bit counter: {e}"))?;
        let got = counter
            .decode(&run, train.len())
            .map_err(|e| format!("{bits}-bit counter: {e}"))?;
        let expected = pulses.iter().filter(|&&p| p).count() as u32 % (1 << bits);
        if got == expected {
            Ok(())
        } else {
            Err(format!(
                "{bits}-bit counter read {got}, expected {expected}"
            ))
        }
    }

    fn run_seqdet(
        &self,
        bits: &[bool],
        config: &RunConfig<'_>,
        tracer: &Tracer,
        parent: Option<SpanCtx>,
    ) -> Result<(), String> {
        let xs: Vec<f64> = bits
            .iter()
            .map(|&b| if b { AMPLITUDE } else { 0.0 })
            .collect();
        let resources = CycleResources {
            compiled: Some(&self.seqdet_compiled),
            workspace: None,
        };
        let run = {
            let _span = tracer.child("kinetics.ode", parent);
            drive_cycles(&self.seqdet, &[("x", &xs)], xs.len() + 1, config, resources)
        }
        .map_err(|e| format!("seqdet: {e}"))?;
        let series: Vec<&[f64]> = ["s0", "s1", "s2"]
            .iter()
            .map(|name| run.register_series(name))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("seqdet: {e}"))?;
        // register series index k holds the state after input k
        for (k, &expected) in seqdet_reference(bits).iter().enumerate() {
            let high: Vec<usize> = (0..3).filter(|&s| series[s][k] > 0.5 * AMPLITUDE).collect();
            if high != [expected] {
                return Err(format!(
                    "seqdet after input {k} of {bits:?}: states {high:?} high, expected {expected}"
                ));
            }
        }
        Ok(())
    }
}

impl SweepWorkload for OdeSweep {
    type Cell = OdeCell;

    fn round(&self, rng: &mut Rng) -> Vec<OdeCell> {
        draw_round(rng)
    }

    fn label(&self, cell: &OdeCell) -> String {
        match cell {
            OdeCell::Filter { ratio, .. } => format!("filter ratio={ratio:.1}"),
            OdeCell::Counter { which, .. } => format!("counter bits={}", COUNTER_BITS[*which]),
            OdeCell::Seqdet { .. } => "seqdet".to_owned(),
        }
    }

    fn run(
        &self,
        cell: &OdeCell,
        ctx: &JobCtx,
        tracer: &Tracer,
        parent: Option<SpanCtx>,
    ) -> CellReport {
        let hook = ctx.step_hook();
        let sink = Cell::new(SimMetrics::default());
        let config = RunConfig {
            step_hook: Some(&hook),
            metrics: Some(&sink),
            ..RunConfig::default()
        };
        let check = match cell {
            OdeCell::Filter { ratio, samples } => {
                self.run_filter(*ratio, samples, config, tracer, parent)
            }
            OdeCell::Counter { which, pulses } => {
                self.run_counter(*which, pulses, &config, tracer, parent)
            }
            OdeCell::Seqdet { bits } => self.run_seqdet(bits, &config, tracer, parent),
        };
        CellReport {
            engine: Engine::Ode,
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
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let cells = draw(5);
        assert_eq!(cells.len(), 10);
        for cell in &cells {
            if let OdeCell::Filter { ratio, samples } = cell {
                assert!((100.0..1e5).contains(ratio));
                assert!(samples.iter().all(|&x| (10.0..=90.0).contains(&x)));
            }
        }
    }

    #[test]
    fn references_compute_the_textbook_answers() {
        assert_eq!(
            moving_average_reference(&[10.0, 50.0, 20.0]),
            [5.0, 30.0, 35.0]
        );
        assert!(check_filter(&[10.0, 50.0], &[5.1, 29.9], 0.2).is_ok());
        assert!(check_filter(&[10.0, 50.0], &[5.1, 29.0], 0.2).is_err());
        assert!(check_filter(&[10.0, 50.0], &[5.0], 0.2).is_err());
        let b = |s: &str| s.chars().map(|c| c == '1').collect::<Vec<_>>();
        assert_eq!(seqdet_reference(&b("10110")), [1, 0, 1, 2, 2]);
        assert_eq!(seqdet_reference(&b("0100")), [0, 1, 0, 0]);
    }
}
