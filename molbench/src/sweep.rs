//! The closed loop shared by the two sweep workloads.
//!
//! One caller runs *rounds*: each round is one `molseq_sweep::run_units`
//! call at batch width 1 (the `repro` default) over the run's set of
//! cells, drawn once from the seed, and the next round starts only when
//! the previous one has returned. Rounds keep starting until the run's
//! time is up; the timings are medians over rounds, so one disturbed
//! round does not move them.
//!
//! In the traced run odd rounds are traced and even rounds are not, so
//! the wall-time difference between the two is the tracing overhead on
//! identical work.

use crate::common::{
    median_or_zero, peak_rss_mb, set_layer_readings, set_median_and_tail, timed_setup, workers,
    CellReport, Config, Tally,
};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::trace::{SpanCtx, SpanRecord, Tracer};
use molseq_sweep::{
    run_units_with_progress, CellResult, JobCtx, SweepJob, SweepOptions, SweepUnit,
};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A sweep workload: builds its circuits once, then draws and runs cells.
pub trait SweepWorkload: Sync {
    /// One cell's inputs.
    type Cell: Sync;

    /// Draws the cells of a round.
    fn round(&self, rng: &mut Rng) -> Vec<Self::Cell>;

    /// A label for the cell (carried into sweep results).
    fn label(&self, cell: &Self::Cell) -> String;

    /// Simulates one cell and checks its answer. `parent` is the cell's
    /// `sweep.cell` span.
    fn run(
        &self,
        cell: &Self::Cell,
        ctx: &JobCtx,
        tracer: &Tracer,
        parent: Option<SpanCtx>,
    ) -> CellReport;
}

/// One executed round.
struct RoundRun {
    /// Building the sweep units.
    submit: Duration,
    /// `run_units` wall time.
    wall: Duration,
    /// Sweep start to each cell's result, seconds, completion order.
    completions: Vec<f64>,
    cells: Vec<CellResult<CellReport>>,
}

fn run_round<W: SweepWorkload>(
    w: &W,
    cells: &[W::Cell],
    seed: u64,
    tracer: &Tracer,
    request: u64,
) -> RoundRun {
    let started = Instant::now();
    let root = tracer.root("sweep.round", request);
    let parent = root.ctx();
    let units: Vec<SweepUnit<'_, CellReport>> = cells
        .iter()
        .map(|cell| {
            SweepUnit::Single(SweepJob::new(w.label(cell), move |ctx: &JobCtx| {
                let span = tracer.child("sweep.cell", parent);
                Ok(w.run(cell, ctx, tracer, span.ctx()))
            }))
        })
        .collect();
    let submit = started.elapsed();
    let opts = SweepOptions::default()
        .with_workers(workers())
        .with_seed(seed);
    let completions = Mutex::new(Vec::with_capacity(units.len()));
    let run_started = Instant::now();
    let out = run_units_with_progress(&units, &opts, |tick| {
        completions
            .lock()
            .expect("completion list poisoned")
            .push(tick.elapsed.as_secs_f64());
    });
    let wall = run_started.elapsed();
    RoundRun {
        submit,
        wall,
        completions: completions.into_inner().expect("completion list poisoned"),
        cells: out.cells,
    }
}

/// Everything measured over the rounds of one mode (traced or not).
#[derive(Default)]
struct Totals {
    rounds: usize,
    cells: usize,
    busy_s: f64,
    round_walls: Vec<f64>,
    submits: Vec<f64>,
    first_rows: Vec<f64>,
    streams: Vec<f64>,
    latencies: Vec<f64>,
    cell_walls: Vec<f64>,
    batch_widths: Vec<f64>,
    tally: Tally,
}

impl Totals {
    fn absorb(&mut self, run: &RoundRun, outcome: &mut Outcome, first: &mut Option<Tally>) {
        self.rounds += 1;
        self.cells += run.cells.len();
        self.round_walls.push(run.wall.as_secs_f64());
        self.submits.push(run.submit.as_secs_f64());
        let first_row = run
            .completions
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let last_row = run.completions.iter().copied().fold(0.0, f64::max);
        if first_row.is_finite() {
            self.first_rows.push(first_row);
            self.streams.push(last_row - first_row);
        }
        self.latencies.extend(&run.completions);
        let mut round_tally = Tally::default();
        for cell in &run.cells {
            outcome.attempted += 1;
            self.busy_s += cell.wall.as_secs_f64();
            self.cell_walls.push(cell.wall.as_secs_f64());
            match cell.value() {
                Some(report) => {
                    round_tally.add(report.engine, &report.metrics);
                    self.batch_widths
                        .push(report.metrics.batch_width.max(1) as f64);
                    if let Err(why) = &report.check {
                        outcome.violation(format!("{}: {why}", cell.label));
                    }
                }
                None => {
                    outcome.failed += 1;
                    outcome.violation(format!(
                        "{}: {}",
                        cell.label,
                        cell.detail().unwrap_or("did not finish")
                    ));
                }
            }
        }
        self.tally.merge(&round_tally);
        first.get_or_insert(round_tally);
    }
}

/// Runs a sweep workload for one configuration and returns its outcome
/// plus the recorded spans (empty for untraced runs).
pub fn drive<W: SweepWorkload>(
    cfg: &Config,
    tracer: &Tracer,
    setup: impl FnMut(Option<SpanCtx>) -> Result<W, String>,
) -> (Outcome, Vec<SpanRecord>) {
    let mut outcome = Outcome::default();
    let (w, setup_walls) = match timed_setup(tracer, setup) {
        Ok(built) => built,
        Err(why) => {
            outcome.violation(format!("set-up failed: {why}"));
            return (outcome, tracer.take());
        }
    };
    let mut draw = Rng::new(cfg.seed);
    let round_seed = draw.next_u64();
    let cells = w.round(&mut draw);
    let mut plain = Totals::default();
    let mut traced = Totals::default();
    let mut first: Option<Tally> = None;
    let off = Tracer::new(false);
    let started = Instant::now();
    let mut round = 0u64;
    // a traced run needs at least one round each way
    while started.elapsed() < cfg.budget() || (cfg.trace && round < 2) {
        let on = cfg.trace && round % 2 == 1;
        let run = run_round(
            &w,
            &cells,
            round_seed,
            if on { tracer } else { &off },
            round + 1,
        );
        let totals = if on { &mut traced } else { &mut plain };
        totals.absorb(&run, &mut outcome, &mut first);
        round += 1;
    }
    let spans = tracer.take();

    if cfg.trace {
        let first = first.unwrap_or_default();
        set_layer_readings(&mut outcome, &spans, &first, &traced.tally);
        let t = &traced;
        set_median_and_tail(
            &mut outcome,
            "sweep.cell_p50_s",
            "sweep.cell_tail_s",
            &t.cell_walls,
        );
        outcome.set(
            "sweep.pool_busy_frac",
            t.busy_s
                / (workers() as f64 * t.round_walls.iter().sum::<f64>()).max(f64::MIN_POSITIVE),
            t.cells,
        );
        outcome.set("serve.submit_s", median_or_zero(&t.submits), t.rounds);
        outcome.set("serve.first_row_s", median_or_zero(&t.first_rows), t.rounds);
        outcome.set("serve.stream_s", median_or_zero(&t.streams), t.rounds);
        outcome.set(
            "serve.batch_width_mean",
            t.batch_widths.iter().sum::<f64>() / t.batch_widths.len().max(1) as f64,
            t.batch_widths.len(),
        );
        outcome.set("kinetics.cache_hit_ratio", 0.0, 0);
        outcome.set("kinetics.cache_misses", 0.0, 0);
        outcome.set_noted(
            "bench.trace_overhead_frac",
            median_or_zero(&t.round_walls)
                / median_or_zero(&plain.round_walls).max(f64::MIN_POSITIVE)
                - 1.0,
            t.rounds,
            "median traced vs untraced round".into(),
        );
    } else {
        let p = &plain;
        outcome.set("setup_s", median_or_zero(&setup_walls), setup_walls.len());
        outcome.set_noted(
            "cells_per_s",
            cells.len() as f64 / median_or_zero(&p.round_walls).max(f64::MIN_POSITIVE),
            p.cells,
            "cells per round / median round".into(),
        );
        set_median_and_tail(
            &mut outcome,
            "latency_p50_s",
            "latency_tail_s",
            &p.latencies,
        );
        outcome.set_noted(
            "bulk_job_p50_s",
            median_or_zero(&p.round_walls),
            p.rounds,
            "one sweep round".into(),
        );
    }
    match peak_rss_mb() {
        Ok(mb) => outcome.set("peak_rss_mb", mb, 1),
        Err(why) => outcome.violation(why),
    }
    (outcome, spans)
}
