//! Golden deterministic traces: the Rosenbrock paths — the scalar stepper
//! behind `drive_cycles` and `Simulation`, and the batched lanes of
//! `run_ode_batch` — must keep reproducing the trajectories they produced
//! when these hashes were recorded, bit for bit.
//!
//! Each case hashes the full trace — sample times, every state vector and
//! every trigger mark, as raw `f64` bits — together with the run's step
//! and factorization counters. A change that only reorganizes the work
//! (fewer stores, a reused right-hand side) must leave every hash alone;
//! a deliberate change to a trajectory must re-record them and say so.

use molseq_crn::{Crn, RateAssignment};
use molseq_kinetics::{
    run_ode_batch, BatchLane, BatchedOdeWorkspace, CompiledCrn, OdeOptions, OdeWorkspace, Schedule,
    SimMetrics, SimSpec, Simulation, State, Trace,
};
use molseq_sync::{
    compile_netlist_source, drive_cycles, BinaryCounter, ClockSpec, CycleResources, RunConfig,
};
use std::cell::Cell;

const MAVG2_NL: &str = include_str!("../../../examples/netlists/mavg2.nl");

/// FNV-1a over the bit patterns of a trace: times, states, marks.
fn trace_hash(trace: &Trace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(trace.len() as u64);
    for i in 0..trace.len() {
        eat(trace.times()[i].to_bits());
        for &v in trace.state(i) {
            eat(v.to_bits());
        }
    }
    eat(trace.marks().len() as u64);
    for &(t, trigger) in trace.marks() {
        eat(t.to_bits());
        eat(trigger as u64);
    }
    h
}

/// (trace hash, accepted steps, rejected steps, LU factorizations).
type Golden = (u64, u64, u64, u64);

fn golden(trace: &Trace, m: SimMetrics) -> Golden {
    (
        trace_hash(trace),
        m.ode_steps_accepted,
        m.ode_steps_rejected,
        m.lu_factorizations,
    )
}

/// Checks one recorded case, printing what it got so a deliberate
/// re-recording can copy the line.
fn check(name: &str, got: Golden, expected: Golden) {
    println!("{name}: ({:#018x}, {}, {}, {})", got.0, got.1, got.2, got.3);
    assert_eq!(
        got, expected,
        "{name}: (trace hash, accepted, rejected, factorizations) moved"
    );
}

/// The 2-bit counter at amplitude 60 counting three pulses through the
/// cycle harness (the `ode_sweep` counter shape). The same workspace
/// drives it twice: a recycled workspace must start exactly like a
/// fresh one.
#[test]
fn counter2_through_drive_cycles() {
    let counter = BinaryCounter::build(2, 60.0, ClockSpec::default()).expect("counter builds");
    let train = counter.pulse_train(&[true, true, false, true, false, false, false]);
    let compiled = CompiledCrn::new(counter.system().crn(), &SimSpec::default());
    let mut workspace = OdeWorkspace::new();
    for pass in 0..2 {
        let sink = Cell::new(SimMetrics::default());
        let config = RunConfig {
            metrics: Some(&sink),
            ..RunConfig::default()
        };
        let run = drive_cycles(
            counter.system(),
            &[("pulse", &train)],
            train.len() + 1,
            &config,
            CycleResources {
                compiled: Some(&compiled),
                workspace: Some(&mut workspace),
            },
        )
        .expect("counter2 runs");
        assert_eq!(counter.decode(&run, train.len()).expect("decodes"), 3);
        check(
            &format!("counter2 pass {pass}"),
            golden(run.trace(), sink.get()),
            (0xa7ae_50f0_8e7c_d4f6, 84_681, 62, 84_743),
        );
    }
}

/// The two-tap moving average at rate ratio 1100, fed through its input
/// trigger.
#[test]
fn mavg2_at_one_rate_ratio() {
    let filter = compile_netlist_source(MAVG2_NL, ClockSpec::default()).expect("mavg2 lowers");
    let compiled = CompiledCrn::new(filter.crn(), &SimSpec::default())
        .rebind(&SimSpec::new(RateAssignment::from_ratio(1100.0)));
    let trigger = filter
        .input_trigger("x", &[12.0, 30.0, 6.0])
        .expect("filter input");
    let sink = Cell::new(SimMetrics::default());
    let trace = Simulation::new(filter.crn(), &compiled)
        .init(&filter.initial_state())
        .schedule(&Schedule::new().trigger(trigger))
        .options(
            OdeOptions::default()
                .with_t_end(40.0)
                .with_record_interval(0.25)
                .with_metrics(&sink),
        )
        .run()
        .expect("mavg2 runs");
    check(
        "mavg2",
        golden(&trace, sink.get()),
        (0xd925_9ee2_e8f9_7294, 98_264, 18, 98_282),
    );
}

/// Timed injections split the run into segments; each jump must drop
/// every value the stepper cached from the old state.
#[test]
fn timed_injections() {
    let crn: Crn = "X -> Y @slow\nY -> X @slow\n2X -> Z @fast\nZ -> X @slow\nZ + Y -> 0 @fast"
        .parse()
        .unwrap();
    let x = crn.find_species("X").unwrap();
    let y = crn.find_species("Y").unwrap();
    let compiled = CompiledCrn::new(&crn, &SimSpec::new(RateAssignment::from_ratio(50.0)));
    let mut init = State::new(&crn);
    init.set(x, 600.0);
    let schedule = Schedule::new()
        .inject(0.7, y, 40.0)
        .inject(1.9, x, 75.0)
        .inject(3.2, x, 10.0);
    let sink = Cell::new(SimMetrics::default());
    let trace = Simulation::new(&crn, &compiled)
        .init(&init)
        .schedule(&schedule)
        .options(
            OdeOptions::default()
                .with_t_end(5.0)
                .with_record_interval(0.05)
                .with_metrics(&sink),
        )
        .run()
        .expect("injection run");
    check(
        "injections",
        golden(&trace, sink.get()),
        (0x2bc2_04a1_0ca8_9783, 2_213, 21, 2_234),
    );
}

/// Four lock-step lanes of the 2-bit counter at different rate ratios.
#[test]
fn batch_of_four_counter2_lanes() {
    let counter = BinaryCounter::build(2, 60.0, ClockSpec::default()).expect("counter builds");
    let crn = counter.system().crn();
    let base = CompiledCrn::new(crn, &SimSpec::default());
    let rebound: Vec<CompiledCrn> = [300.0, 1000.0, 1100.0, 3000.0]
        .iter()
        .map(|&r| base.rebind(&SimSpec::new(RateAssignment::from_ratio(r))))
        .collect();
    let train = counter.pulse_train(&[true, false, true]);
    let trigger = counter
        .system()
        .input_trigger("pulse", &train)
        .expect("pulse input");
    let schedule = Schedule::new().trigger(trigger);
    let init = counter.system().initial_state();
    let sinks: Vec<Cell<SimMetrics>> = (0..4).map(|_| Cell::new(SimMetrics::default())).collect();
    let lanes: Vec<BatchLane> = (0..4)
        .map(|l| BatchLane {
            compiled: &rebound[l],
            init: &init,
            schedule: &schedule,
            options: OdeOptions::default()
                .with_t_end(30.0)
                .with_record_interval(0.25)
                .with_metrics(&sinks[l]),
        })
        .collect();
    let mut ws = BatchedOdeWorkspace::new();
    let got = run_ode_batch(crn, &lanes, &mut ws);
    let mut rows = Vec::new();
    for (l, result) in got.iter().enumerate() {
        let trace = result.as_ref().expect("lane runs");
        let m = sinks[l].get();
        assert_eq!(m.batch_width, 4);
        let row = golden(trace, m);
        println!(
            "batch lane {l}: ({:#018x}, {}, {}, {}) retired #{}",
            row.0, row.1, row.2, row.3, m.lanes_retired
        );
        rows.push((row, m.lanes_retired));
    }
    // ((trace hash, accepted, rejected, factorizations), retirement ordinal)
    let expected = [
        ((0xb5e8_4fa8_c016_bff2, 51_523, 19, 51_542), 0),
        ((0xb51e_1925_9b1c_7ea1, 60_691, 21, 60_712), 1),
        ((0xbb4f_9b17_f9f7_0f1e, 61_130, 20, 61_150), 2),
        ((0x75ea_e023_dfdf_a941, 68_735, 15, 68_750), 3),
    ];
    assert_eq!(rows, expected, "a lane's trace or retirement order moved");
}
