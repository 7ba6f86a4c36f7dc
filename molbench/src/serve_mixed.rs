//! `serve_mixed`: two tenants on one in-process `molseq-serve` server.
//!
//! The server runs [`workers`] worker threads; each tenant is one client
//! connection driven by its own thread in a closed loop (submit, stream
//! every row, then submit the next job) until the run's time is up.
//!
//! * Tenant `bulk` alternates large jobs with auto batch width: an ODE
//!   rate grid over the `mavg2` netlist, and SSA replicates of the
//!   `counter2` netlist with seeded input pulses.
//! * Tenant `interactive` submits small jobs that rotate through the
//!   methods (ssa, ode, tau, hybrid) and the programs (the three example
//!   netlists plus the stiff-clock motif as raw reaction text). A seeded
//!   share carry the motif at a fresh rate constant — a structure the
//!   compiled-network cache has never seen.
//!
//! Check: every row Ok, and a sample of rows byte-identical to the same
//! cell run locally through `molseq_sweep::run_cell` (batch-shape columns
//! excepted for rows the server ran in a batch).

use crate::common::{
    compile, median_or_zero, peak_rss_mb, set_layer_readings, set_median_and_tail, stiff_motif,
    timed_setup, workers, Config, Engine, Tally, COUNTER2_NL, MAVG2_NL, SEQDET_NL, STIFF_T_END,
    STIFF_X0,
};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::trace::{SpanCtx, SpanRecord, Tracer};
use molseq_crn::{Crn, RateAssignment, SpeciesId};
use molseq_kinetics::{
    HybridOptions, OdeOptions, Schedule, SimMetrics, SimSpec, Simulation, SsaOptions, State,
    TauLeapOptions,
};
use molseq_netlist::parse_netlist;
use molseq_serve::{
    CellRow, CellSpec, Client, Method, Program, Server, ServerConfig, SubmitRequest,
};
use molseq_sweep::{
    run_cell, CellOutcome, CellResult, JobCtx, JobError, JobStatus, SweepJob, SweepOptions,
};
use molseq_sync::{compile_netlist, ClockSpec, CompiledSystem};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// Cells of one bulk job.
const BULK_CELLS: usize = 32;
/// Simulated horizon of the bulk ODE rate grid.
const BULK_ODE_T_END: f64 = 1.2;
/// Simulated horizon of the bulk SSA replicates.
const BULK_SSA_T_END: f64 = 0.7;
/// Simulated horizon of interactive netlist jobs.
const INTERACTIVE_T_END: f64 = 0.25;
/// Stream offset of the per-block draws that place fresh structures.
const FRESH_STREAM: u64 = 1 << 40;
/// Stream offset of the interactive think times.
const THINK_STREAM: u64 = 1 << 41;
/// Longest interactive think time between jobs: a seeded pause keeps the
/// interactive arrivals from locking onto the bulk tenant's cycle.
const MAX_THINK_S: f64 = 0.1;
/// Width of the windows whose median throughput is `cells_per_s`.
const WINDOW_S: f64 = 5.0;
/// Interactive jobs whose rows feed the exact simulator counters.
const TALLY_INTERACTIVE_JOBS: usize = 8;
/// Every this many interactive jobs, one is re-run locally.
const VERIFY_EVERY: usize = 5;
/// Largest number of interactive jobs re-run locally.
const VERIFY_INTERACTIVE_MAX: usize = 20;

/// The methods interactive jobs rotate through.
const METHODS: [Method; 4] = [Method::Ssa, Method::Ode, Method::Tau, Method::Hybrid];

/// Everything set-up builds: the name of the counter's input species in
/// the lowered `counter2` network, the server and one connection per
/// tenant.
struct Rig {
    pulse_input: String,
    server: Option<Server>,
    bulk: Option<Client>,
    interactive: Option<Client>,
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.bulk.take();
        self.interactive.take();
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}

/// Lowers the three example netlists (as the server will on the request
/// path), boots the server and connects both tenants.
fn setup(tracer: &Tracer, parent: Option<SpanCtx>) -> Result<Rig, String> {
    let mut inputs = Vec::new();
    for (source, input) in [(SEQDET_NL, "x"), (MAVG2_NL, "x"), (COUNTER2_NL, "pulse")] {
        let netlist = {
            let _span = tracer.child("netlist.parse", parent);
            parse_netlist(source).map_err(|e| format!("example netlist: {e}"))?
        };
        let system: CompiledSystem = {
            let _span = tracer.child("sync.lower", parent);
            compile_netlist(netlist, ClockSpec::default())
                .map_err(|e| format!("example netlist does not lower: {e}"))?
        };
        let input = system
            .input_species(input)
            .map_err(|e| format!("example netlist: {e}"))?;
        inputs.push(system.crn().species_name(input).to_owned());
    }
    let server = Server::start(ServerConfig::default().with_workers(workers()))
        .map_err(|e| format!("server does not start: {e}"))?;
    let connect = || Client::connect(server.addr()).map_err(|e| format!("cannot connect: {e}"));
    let bulk = connect()?;
    let interactive = connect()?;
    Ok(Rig {
        pulse_input: inputs.swap_remove(2),
        server: Some(server),
        bulk: Some(bulk),
        interactive: Some(interactive),
    })
}

/// Which tenant a job belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tenant {
    Bulk,
    Interactive,
}

/// A request seed the wire carries exactly (the server takes integers
/// below 9e15).
fn wire_seed(rng: &mut Rng) -> u64 {
    rng.next_u64() >> 12
}

/// The `j`-th bulk job of the tenant stream `tenant`: even `j` an ODE
/// rate grid over `mavg2`, odd `j` SSA replicates of `counter2` with
/// seeded input pulses.
fn bulk_job(tenant: &Rng, j: usize, pulse_input: &str) -> SubmitRequest {
    let rng = &mut tenant.fork(j as u64);
    let seed = wire_seed(rng);
    if j.is_multiple_of(2) {
        // a log-spaced ratio grid over 10²..10⁴, each point jittered within
        // its own step
        let cells = (0..BULK_CELLS)
            .map(|k| {
                let k_slow = rng.range(0.5, 2.0);
                let step = 2.0 / BULK_CELLS as f64;
                let k_fast = k_slow * 10f64.powf(2.0 + step * (k as f64 + rng.unit()));
                CellSpec {
                    label: format!("b{j}-grid{k}"),
                    k_fast: Some(k_fast),
                    k_slow: Some(k_slow),
                }
            })
            .collect();
        SubmitRequest {
            tenant: "bulk".into(),
            program: Program::Netlist(MAVG2_NL.into()),
            init: vec![],
            method: Method::Ode,
            t_end: BULK_ODE_T_END,
            record_interval: Some(BULK_ODE_T_END / 100.0),
            seed,
            injections: vec![],
            batch: None,
            cells,
        }
    } else {
        let injections = (0..4)
            .map(|k| {
                (
                    0.1 + 0.15 * k as f64,
                    pulse_input.to_owned(),
                    60.0 * rng.int(0, 1) as f64,
                )
            })
            .collect();
        let cells = (0..BULK_CELLS)
            .map(|k| CellSpec {
                label: format!("b{j}-rep{k}"),
                k_fast: None,
                k_slow: None,
            })
            .collect();
        SubmitRequest {
            tenant: "bulk".into(),
            program: Program::Netlist(COUNTER2_NL.into()),
            init: vec![],
            method: Method::Ssa,
            t_end: BULK_SSA_T_END,
            record_interval: Some(BULK_SSA_T_END / 100.0),
            seed,
            injections,
            batch: None,
            cells,
        }
    }
}

/// The `i`-th interactive job of the tenant stream `tenant`: method
/// `i mod 4`, program `(i / 4) mod 4`, one cell in even rotations and two
/// in odd ones. In every block of four jobs one, at a seeded position,
/// carries a fresh stiff motif instead: a never-seen structure.
fn interactive_job(tenant: &Rng, i: usize) -> SubmitRequest {
    let method = METHODS[i % METHODS.len()];
    let block = i / METHODS.len();
    let fresh = tenant.fork(FRESH_STREAM + block as u64).int(0, 3) as usize == i % 4;
    let rng = &mut tenant.fork(i as u64);
    let seed = wire_seed(rng);
    let cell_count = 1 + (i / 16) % 2;
    let (program, init, t_end) = match block % 4 {
        _ if fresh => (
            Program::Crn(stiff_motif(rng.log_range(1e4, 3e4))),
            vec![("X".to_owned(), STIFF_X0)],
            STIFF_T_END,
        ),
        3 => (
            Program::Crn(stiff_motif(1e4)),
            vec![("X".to_owned(), STIFF_X0)],
            STIFF_T_END,
        ),
        k => (
            Program::Netlist([SEQDET_NL, MAVG2_NL, COUNTER2_NL][k].into()),
            vec![],
            INTERACTIVE_T_END,
        ),
    };
    let cells = (0..cell_count)
        .map(|k| CellSpec {
            label: format!("i{i}-c{k}"),
            k_fast: (k == 1).then_some(2000.0),
            k_slow: (k == 1).then_some(1.0),
        })
        .collect();
    SubmitRequest {
        tenant: "interactive".into(),
        program,
        init,
        method,
        t_end,
        record_interval: Some(t_end / 200.0),
        seed,
        injections: vec![],
        batch: None,
        cells,
    }
}

/// One finished job as the client saw it.
struct JobRun {
    tenant: Tenant,
    seq: usize,
    request: SubmitRequest,
    rows: Vec<CellRow>,
    traced: bool,
    submit_s: f64,
    first_row_s: f64,
    stream_s: f64,
    total_s: f64,
    /// Seconds from the start of the measured loop to the last row.
    done_at: f64,
}

/// Submits `request` and streams its rows, recording client-side spans
/// when `tracer` is recording.
fn run_job(
    client: &mut Client,
    request: &SubmitRequest,
    tracer: &Tracer,
    id: u64,
) -> Result<(Vec<CellRow>, [f64; 4]), String> {
    let root = tracer.root("serve.job", id);
    let started = Instant::now();
    let ack = {
        let _span = tracer.child("serve.submit", root.ctx());
        client.submit(request)
    }
    .map_err(|e| format!("submit rejected: {e}"))?;
    let acked = started.elapsed();
    let mut rows = Vec::with_capacity(ack.cells);
    let mut first_row = None;
    let mut span = tracer.child("serve.first_row", root.ctx());
    loop {
        let page = client
            .fetch(&ack.job_id, rows.len(), true)
            .map_err(|e| format!("fetch failed: {e}"))?;
        if first_row.is_none() && !page.rows.is_empty() {
            first_row = Some(started.elapsed());
            drop(span);
            span = tracer.child("serve.stream", root.ctx());
        }
        rows.extend(page.rows);
        if page.done && rows.len() >= page.next {
            break;
        }
    }
    drop(span);
    let total = started.elapsed();
    let first = first_row.unwrap_or(total);
    Ok((
        rows,
        [
            acked.as_secs_f64(),
            (first - acked).as_secs_f64(),
            (total - first).as_secs_f64(),
            total.as_secs_f64(),
        ],
    ))
}

/// The closed loop of one tenant. Jobs alternate between traced and
/// untraced blocks when `traced` records; `off` is a tracer that never
/// records.
#[allow(clippy::too_many_arguments)]
fn tenant_loop(
    tenant: Tenant,
    client: &mut Client,
    pulse_input: &str,
    rng: &Rng,
    traced: Option<&Tracer>,
    off: &Tracer,
    started: Instant,
    budget: Duration,
) -> (Vec<JobRun>, Vec<String>) {
    let (stream, period, id_base) = match tenant {
        Tenant::Bulk => (1, 2, 1_000_000),
        Tenant::Interactive => (2, 16, 2_000_000),
    };
    let tenant_rng = rng.fork(stream);
    let mut runs = Vec::new();
    let mut errors = Vec::new();
    let mut seq = 0;
    while started.elapsed() < budget {
        let request = match tenant {
            Tenant::Bulk => bulk_job(&tenant_rng, seq, pulse_input),
            Tenant::Interactive => interactive_job(&tenant_rng, seq),
        };
        let tracer = traced.filter(|_| (seq / period) % 2 == 1).unwrap_or(off);
        match run_job(client, &request, tracer, id_base + seq as u64) {
            Ok((rows, [submit_s, first_row_s, stream_s, total_s])) => runs.push(JobRun {
                tenant,
                seq,
                request,
                rows,
                traced: tracer.is_enabled(),
                submit_s,
                first_row_s,
                stream_s,
                total_s,
                done_at: started.elapsed().as_secs_f64(),
            }),
            Err(why) => {
                errors.push(format!("{tenant:?} job {seq}: {why}"));
                break;
            }
        }
        seq += 1;
        if tenant == Tenant::Interactive {
            let think = tenant_rng
                .fork(THINK_STREAM + seq as u64)
                .range(0.0, MAX_THINK_S);
            std::thread::sleep(Duration::from_secs_f64(think));
        }
    }
    (runs, errors)
}

/// Resolves a program the way the server does: reaction text parses from
/// the all-zero state; a netlist lowers, round-trips through its reaction
/// text and starts from the compiled initial state.
fn resolve_program(
    program: &Program,
    tracer: &Tracer,
    parent: Option<SpanCtx>,
) -> Result<(Crn, State), String> {
    match program {
        Program::Crn(text) => {
            let _span = tracer.child("crn.parse", parent);
            let crn: Crn = text.parse().map_err(|e| format!("network: {e}"))?;
            let init = State::new(&crn);
            Ok((crn, init))
        }
        Program::Netlist(src) => {
            let netlist = {
                let _span = tracer.child("netlist.parse", parent);
                parse_netlist(src).map_err(|e| format!("netlist: {e}"))?
            };
            let system = {
                let _span = tracer.child("sync.lower", parent);
                compile_netlist(netlist, ClockSpec::default()).map_err(|e| e.to_string())?
            };
            let crn: Crn = {
                let _span = tracer.child("crn.parse", parent);
                system
                    .crn()
                    .to_string()
                    .parse()
                    .map_err(|e| format!("{e}"))?
            };
            let compiled_init = system.initial_state();
            let mut init = State::new(&crn);
            for index in 0..system.crn().species_count() {
                let id = SpeciesId::from_index(index);
                let amount = compiled_init.get(id);
                if amount != 0.0 {
                    let name = system.crn().species_name(id);
                    let species = crn.find_species(name).ok_or("species lost in round-trip")?;
                    init.set(species, amount);
                }
            }
            Ok((crn, init))
        }
    }
}

/// The simulator counters under the names and in the order the server
/// records them.
fn record_metrics(ctx: &JobCtx, m: SimMetrics) {
    for (name, value) in [
        ("ode_steps_accepted", m.ode_steps_accepted as f64),
        ("ode_steps_rejected", m.ode_steps_rejected as f64),
        ("lu_factorizations", m.lu_factorizations as f64),
        ("ssa_events", m.ssa_events as f64),
        ("tau_leaps", m.tau_leaps as f64),
        ("tau_leaps_implicit", m.tau_leaps_implicit as f64),
        ("newton_iterations", m.newton_iterations as f64),
        ("leap_switchovers", m.leap_switchovers as f64),
        ("hybrid_slow_events", m.hybrid_slow_events as f64),
        ("hybrid_fast_steps", m.hybrid_fast_steps as f64),
        ("hybrid_repartitions", m.hybrid_repartitions as f64),
        ("batch_width", m.batch_width as f64),
        ("lanes_retired", m.lanes_retired as f64),
        ("final_time", m.final_time),
        ("seed", m.seed as f64),
    ] {
        ctx.record_metric(name, value);
    }
}

fn engine_of(method: Method) -> Engine {
    match method {
        Method::Ssa => Engine::Ssa,
        Method::Ode => Engine::Ode,
        Method::Tau => Engine::Tau,
        Method::Hybrid => Engine::Hybrid,
    }
}

/// Re-runs cell `index` of `request` locally through `run_cell` and
/// returns its row plus the cell's wall time.
fn run_locally(
    request: &SubmitRequest,
    index: usize,
    tracer: &Tracer,
    parent: Option<SpanCtx>,
) -> Result<(CellRow, Duration), String> {
    let (crn, mut init) = resolve_program(&request.program, tracer, parent)?;
    for (name, amount) in &request.init {
        init.set(
            crn.find_species(name).ok_or("unknown init species")?,
            *amount,
        );
    }
    let mut schedule = Schedule::new();
    for (time, name, amount) in &request.injections {
        let species = crn.find_species(name).ok_or("unknown injection species")?;
        schedule = schedule.inject(*time, species, *amount);
    }
    let base = compile(tracer, parent, &crn);
    let spec = &request.cells[index];
    let compiled = match (spec.k_fast, spec.k_slow) {
        (Some(k_fast), Some(k_slow)) => {
            let rates = RateAssignment::new(k_fast, k_slow).map_err(|e| e.to_string())?;
            let _span = tracer.child("kinetics.rebind", parent);
            base.rebind(&SimSpec::new(rates))
        }
        _ => base,
    };
    let engine = engine_of(request.method);
    let job = SweepJob::new(spec.label.clone(), |ctx: &JobCtx| {
        let span = tracer.child("sweep.cell", parent);
        let hook = ctx.step_hook();
        let cell_sink = Cell::new(SimMetrics::default());
        let sim = Simulation::new(&crn, &compiled)
            .init(&init)
            .schedule(&schedule);
        let mut ssa = SsaOptions::default()
            .with_t_end(request.t_end)
            .with_seed(ctx.seed())
            .with_step_hook(&hook)
            .with_metrics(&cell_sink);
        if let Some(dt) = request.record_interval {
            ssa = ssa.with_record_interval(dt);
        }
        let result = {
            let _span = tracer.child(engine.layer(), span.ctx());
            match request.method {
                Method::Ssa => sim.options(ssa).run(),
                Method::Tau => sim
                    .options(TauLeapOptions {
                        base: ssa,
                        ..TauLeapOptions::default()
                    })
                    .run(),
                Method::Ode => {
                    let mut opts = OdeOptions::default()
                        .with_t_end(request.t_end)
                        .with_step_hook(&hook)
                        .with_metrics(&cell_sink);
                    if let Some(dt) = request.record_interval {
                        opts = opts.with_record_interval(dt);
                    }
                    sim.options(opts).run()
                }
                Method::Hybrid => {
                    let mut opts = HybridOptions::default()
                        .with_t_end(request.t_end)
                        .with_seed(ctx.seed())
                        .with_step_hook(&hook)
                        .with_metrics(&cell_sink);
                    if let Some(dt) = request.record_interval {
                        opts = opts.with_record_interval(dt);
                    }
                    sim.options(opts).run()
                }
            }
        };
        record_metrics(ctx, cell_sink.get());
        let trace = result.map_err(JobError::failed)?;
        Ok(trace.final_state().to_vec())
    });
    let opts = SweepOptions::default().with_seed(request.seed);
    let result: CellResult<Vec<f64>> = run_cell(&job, index, &opts, None);
    let wall = result.wall;
    let row = CellRow {
        index: result.index,
        label: result.label.clone(),
        status: if result.is_ok() {
            JobStatus::Ok
        } else {
            JobStatus::Failed
        },
        detail: result.detail().unwrap_or("").to_owned(),
        metrics: result.metrics,
        final_state: match result.outcome {
            CellOutcome::Ok(state) => state,
            _ => Vec::new(),
        },
    };
    Ok((row, wall))
}

/// A row as compared: its wire JSON, without the batch-shape columns
/// when the server ran it inside a batch.
fn comparable(row: &CellRow, batched: bool) -> String {
    let mut row = row.clone();
    if batched {
        row.metrics
            .retain(|(name, _)| name != "batch_width" && name != "lanes_retired");
    }
    let mut out = String::new();
    row.to_json().render_compact(&mut out);
    out
}

fn batch_width(row: &CellRow) -> f64 {
    row.metrics
        .iter()
        .find(|(name, _)| name == "batch_width")
        .map_or(0.0, |&(_, w)| w)
}

/// Picks the rows to re-run locally: the first and last cell of the
/// first bulk job of each kind, and one cell of every
/// [`VERIFY_EVERY`]-th interactive job.
fn verification_sample(jobs: &[JobRun]) -> Vec<(&JobRun, usize)> {
    let mut sample = Vec::new();
    for job in jobs
        .iter()
        .filter(|j| j.tenant == Tenant::Bulk && j.seq < 2)
    {
        sample.push((job, 0));
        sample.push((job, job.rows.len() - 1));
    }
    for job in jobs
        .iter()
        .filter(|j| j.tenant == Tenant::Interactive && j.seq % VERIFY_EVERY == 0)
        .take(VERIFY_INTERACTIVE_MAX)
    {
        sample.push((job, job.seq % job.rows.len()));
    }
    sample
}

/// Runs `serve_mixed` for one configuration.
pub fn drive(cfg: &Config, tracer: &Tracer) -> (Outcome, Vec<SpanRecord>) {
    let mut outcome = Outcome::default();
    let (mut rig, setup_walls) = match timed_setup(tracer, |parent| setup(tracer, parent)) {
        Ok(built) => built,
        Err(why) => {
            outcome.violation(format!("set-up failed: {why}"));
            return (outcome, tracer.take());
        }
    };
    let rng = Rng::new(cfg.seed);
    let off = Tracer::new(false);
    let traced = cfg.trace.then_some(tracer);
    let started = Instant::now();
    let budget = cfg.budget();
    let mut bulk_client = rig.bulk.take().expect("set-up connects bulk");
    let mut interactive_client = rig.interactive.take().expect("set-up connects interactive");
    let pulse_input = rig.pulse_input.as_str();
    let ((bulk_runs, bulk_errors), (interactive_runs, interactive_errors)) =
        std::thread::scope(|s| {
            let bulk = s.spawn(|| {
                tenant_loop(
                    Tenant::Bulk,
                    &mut bulk_client,
                    pulse_input,
                    &rng,
                    traced,
                    &off,
                    started,
                    budget,
                )
            });
            let interactive = tenant_loop(
                Tenant::Interactive,
                &mut interactive_client,
                pulse_input,
                &rng,
                traced,
                &off,
                started,
                budget,
            );
            (bulk.join().expect("bulk tenant panicked"), interactive)
        });
    let wall_s = started.elapsed().as_secs_f64();
    let stats = interactive_client.stats().unwrap_or_else(|e| {
        outcome.violation(format!("stats failed: {e}"));
        Vec::new()
    });
    drop((bulk_client, interactive_client));
    drop(rig);

    let jobs: Vec<JobRun> = bulk_runs.into_iter().chain(interactive_runs).collect();
    for why in bulk_errors.into_iter().chain(interactive_errors) {
        outcome.attempted += 1;
        outcome.failed += 1;
        outcome.violation(why);
    }
    let mut rows_done = 0usize;
    for job in &jobs {
        outcome.attempted += job.request.cells.len() as u64;
        if job.rows.len() != job.request.cells.len() {
            outcome.violation(format!(
                "job {:?} {} returned {} of {} rows",
                job.tenant,
                job.seq,
                job.rows.len(),
                job.request.cells.len()
            ));
        }
        for row in &job.rows {
            if row.status == JobStatus::Ok {
                rows_done += 1;
            } else {
                outcome.failed += 1;
                outcome.violation(format!(
                    "row {}: {} {}",
                    row.label,
                    row.status.as_str(),
                    row.detail
                ));
            }
        }
    }

    // re-run a sample locally and compare the rows byte for byte
    let verify_root = tracer.root("bench.verify", 0);
    let mut verify_walls = Vec::new();
    let mut verify_tally = Tally::default();
    for (job, index) in verification_sample(&jobs) {
        let Some(remote) = job.rows.get(index) else {
            continue;
        };
        match run_locally(&job.request, index, tracer, verify_root.ctx()) {
            Ok((local, wall)) => {
                verify_walls.push(wall.as_secs_f64());
                verify_tally.add(engine_of(job.request.method), &row_metrics(&local));
                let batched = batch_width(remote) > 0.0;
                let (server, local) = (comparable(remote, batched), comparable(&local, batched));
                if server != local {
                    outcome.violation(format!(
                        "row {} differs from run_cell:\n  server {server}\n  local  {local}",
                        remote.label
                    ));
                }
            }
            Err(why) => outcome.violation(format!("local re-run of {}: {why}", remote.label)),
        }
    }
    drop(verify_root);
    let spans = tracer.take();

    let (bulk, interactive): (Vec<&JobRun>, Vec<&JobRun>) =
        jobs.iter().partition(|j| j.tenant == Tenant::Bulk);
    if cfg.trace {
        let mut first = Tally::default();
        for job in bulk
            .iter()
            .take(1)
            .chain(interactive.iter().take(TALLY_INTERACTIVE_JOBS))
        {
            for row in &job.rows {
                first.add(engine_of(job.request.method), &row_metrics(row));
            }
        }
        set_layer_readings(&mut outcome, &spans, &first, &verify_tally);
        set_median_and_tail(
            &mut outcome,
            "sweep.cell_p50_s",
            "sweep.cell_tail_s",
            &verify_walls,
        );
        outcome.set_noted(
            "sweep.pool_busy_frac",
            0.0,
            0,
            "no local pool on this workload".into(),
        );
        let traced_jobs: Vec<&JobRun> = jobs.iter().filter(|j| j.traced).collect();
        let phase = |f: fn(&JobRun) -> f64| {
            median_or_zero(&traced_jobs.iter().map(|j| f(j)).collect::<Vec<_>>())
        };
        outcome.set("serve.submit_s", phase(|j| j.submit_s), traced_jobs.len());
        outcome.set(
            "serve.first_row_s",
            phase(|j| j.first_row_s),
            traced_jobs.len(),
        );
        outcome.set("serve.stream_s", phase(|j| j.stream_s), traced_jobs.len());
        let widths: Vec<f64> = jobs
            .iter()
            .flat_map(|j| j.rows.iter().map(|r| batch_width(r).max(1.0)))
            .collect();
        outcome.set(
            "serve.batch_width_mean",
            widths.iter().sum::<f64>() / widths.len().max(1) as f64,
            widths.len(),
        );
        let counter = |name: &str| {
            stats
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |&(_, v)| v)
        };
        let (hits, misses) = (counter("cache_hits"), counter("cache_misses"));
        outcome.set(
            "kinetics.cache_hit_ratio",
            hits / (hits + misses).max(1.0),
            (hits + misses) as usize,
        );
        outcome.set("kinetics.cache_misses", misses, 1);
        let per_cell = |on: bool| {
            let (time, cells) = jobs
                .iter()
                .filter(|j| j.traced == on)
                .fold((0.0, 0usize), |(t, c), j| (t + j.total_s, c + j.rows.len()));
            time / cells.max(1) as f64
        };
        outcome.set_noted(
            "bench.trace_overhead_frac",
            per_cell(true) / per_cell(false).max(f64::MIN_POSITIVE) - 1.0,
            traced_jobs.len(),
            "job time per cell, traced vs untraced job blocks".into(),
        );
    } else {
        outcome.set("setup_s", median_or_zero(&setup_walls), setup_walls.len());
        let done: Vec<(f64, usize)> = jobs
            .iter()
            .map(|j| {
                (
                    j.done_at,
                    j.rows.iter().filter(|r| r.status == JobStatus::Ok).count(),
                )
            })
            .collect();
        match windowed_rate(&done, WINDOW_S, cfg.seconds) {
            Some(rate) => outcome.set_noted(
                "cells_per_s",
                rate,
                rows_done,
                format!("median over {WINDOW_S} s windows"),
            ),
            None => outcome.set("cells_per_s", rows_done as f64 / wall_s, rows_done),
        }
        let latencies: Vec<f64> = interactive.iter().map(|j| j.total_s).collect();
        set_median_and_tail(&mut outcome, "latency_p50_s", "latency_tail_s", &latencies);
        let bulk_times: Vec<f64> = bulk.iter().map(|j| j.total_s).collect();
        outcome.set(
            "bulk_job_p50_s",
            median_or_zero(&bulk_times),
            bulk_times.len(),
        );
    }
    match peak_rss_mb() {
        Ok(mb) => outcome.set("peak_rss_mb", mb, 1),
        Err(why) => outcome.violation(why),
    }
    (outcome, spans)
}

/// The median over whole `window`-second windows of `[0, span)` of the
/// cells completed per second, from `(completion time, cells)` pairs;
/// `None` when `span` holds no whole window.
fn windowed_rate(done: &[(f64, usize)], window: f64, span: f64) -> Option<f64> {
    let windows = (span / window).floor() as usize;
    if windows == 0 {
        return None;
    }
    let mut counts = vec![0usize; windows];
    for &(at, cells) in done {
        let k = (at / window).floor();
        if k >= 0.0 && (k as usize) < windows {
            counts[k as usize] += cells;
        }
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / window).collect();
    crate::stats::median(&rates)
}

/// A row's simulator counters, read back from its metric columns.
fn row_metrics(row: &CellRow) -> SimMetrics {
    let get = |name: &str| {
        row.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v as u64)
    };
    SimMetrics {
        ode_steps_accepted: get("ode_steps_accepted"),
        ode_steps_rejected: get("ode_steps_rejected"),
        lu_factorizations: get("lu_factorizations"),
        ssa_events: get("ssa_events"),
        tau_leaps: get("tau_leaps"),
        hybrid_fast_steps: get("hybrid_fast_steps"),
        hybrid_slow_events: get("hybrid_slow_events"),
        ..SimMetrics::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_rate_takes_the_median_window() {
        let done = [(0.5, 10), (1.5, 20), (2.5, 30), (2.9, 2), (3.5, 99)];
        // windows [0,1) [1,2) [2,3): 10, 20, 32 cells; 3.5 is past the span
        assert_eq!(windowed_rate(&done, 1.0, 3.0), Some(20.0));
        assert_eq!(windowed_rate(&done, 2.0, 3.0), Some(15.0));
        assert_eq!(windowed_rate(&done, 5.0, 3.0), None);
    }

    #[test]
    fn one_seed_generates_the_same_jobs() {
        let input = setup(&Tracer::new(false), None)
            .expect("set-up works")
            .pulse_input
            .clone();
        let gen = |seed: u64| {
            let rng = Rng::new(seed);
            let bulk: Vec<_> = (0..4).map(|j| bulk_job(&rng.fork(1), j, &input)).collect();
            let interactive: Vec<_> = (0..32).map(|i| interactive_job(&rng.fork(2), i)).collect();
            (bulk, interactive)
        };
        assert_eq!(gen(3), gen(3));
        assert_ne!(gen(3), gen(4));
        let (bulk, interactive) = gen(3);
        assert!(bulk
            .iter()
            .all(|r| r.cells.len() == BULK_CELLS && r.batch.is_none()));
        assert!(bulk.iter().all(|r| r.seed < 9_000_000_000_000_000));
        // every method meets every program within one rotation
        let methods: std::collections::HashSet<_> =
            interactive.iter().map(|r| r.method.as_str()).collect();
        assert_eq!(methods.len(), 4);
        assert!(interactive
            .iter()
            .any(|r| matches!(r.program, Program::Netlist(_))));
        // exactly one fresh structure per block of four jobs
        for block in interactive.chunks(4) {
            let texts: Vec<String> = block
                .iter()
                .filter_map(|r| match &r.program {
                    Program::Crn(text) if text != &stiff_motif(1e4) => Some(text.clone()),
                    _ => None,
                })
                .collect();
            assert_eq!(texts.len(), 1, "{block:?}");
        }
    }
}
