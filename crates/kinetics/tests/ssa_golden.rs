//! Golden stochastic traces: every exact-SSA and tau-leap path must keep
//! reproducing the trajectories it produced when these hashes were
//! recorded, bit for bit.
//!
//! Each case hashes the full trace — sample times, every state vector and
//! every trigger mark, as raw `f64` bits — together with the run's event
//! counters. The scalar core and the batched lanes share one event step,
//! so the scalar-vs-batch bitwise tests alone cannot see a change that
//! moves both; these fixed hashes can. A deliberate change to a
//! trajectory (a new RNG stream, a different selection rule) must
//! re-record them and say so.

use molseq_crn::{Crn, RateAssignment};
use molseq_kinetics::{
    run_ssa_batch, BatchedStochWorkspace, CompiledCrn, Condition, Schedule, SimMetrics, SimSpec,
    Simulation, SsaBatchLane, SsaOptions, State, TauLeapOptions, Trace, Trigger,
};
use molseq_sync::{compile_netlist_source, BinaryCounter, ClockSpec, CompiledSystem};
use std::cell::Cell;

const COUNTER2_NL: &str = include_str!("../../../examples/netlists/counter2.nl");
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

/// Checks one recorded case, printing what it got so a deliberate
/// re-recording can copy the line.
fn check(name: &str, trace: &Trace, metrics: SimMetrics, expected: (u64, u64, u64)) {
    let got = (trace_hash(trace), metrics.ssa_events, metrics.tau_leaps);
    println!("{name}: ({:#018x}, {}, {})", got.0, got.1, got.2);
    assert_eq!(
        got, expected,
        "{name}: (trace hash, ssa events, tau leaps) moved"
    );
}

fn counter2() -> BinaryCounter {
    BinaryCounter::build(2, 8.0, ClockSpec::default()).expect("counter builds")
}

fn mavg2() -> CompiledSystem {
    compile_netlist_source(MAVG2_NL, ClockSpec::default()).expect("mavg2 lowers")
}

/// The 2-bit counter at amplitude 8 under a pulse train, driven through
/// its input trigger (the E10 / `ssa_sweep` counter shape).
fn counter2_run(seed: u64) -> (Trace, SimMetrics) {
    let counter = counter2();
    let compiled = CompiledCrn::new(counter.system().crn(), &SimSpec::default());
    let train = counter.pulse_train(&[true, false]);
    let trigger = counter
        .system()
        .input_trigger("pulse", &train)
        .expect("pulse input");
    let sink = Cell::new(SimMetrics::default());
    let trace = Simulation::new(counter.system().crn(), &compiled)
        .init(&counter.system().initial_state())
        .schedule(&Schedule::new().trigger(trigger))
        .options(
            SsaOptions::default()
                .with_t_end(12.0)
                .with_record_interval(0.25)
                .with_seed(seed)
                .with_metrics(&sink),
        )
        .run()
        .expect("counter2 runs");
    (trace, sink.get())
}

#[test]
fn counter2_with_pulse_trigger() {
    let (trace, m) = counter2_run(11);
    check("counter2", &trace, m, (0xf583_964a_3170_1a22, 97_422, 0));
}

#[test]
fn mavg2_with_input_trigger() {
    let filter = mavg2();
    let compiled = CompiledCrn::new(filter.crn(), &SimSpec::default())
        .rebind(&SimSpec::new(RateAssignment::from_ratio(1100.0)));
    let trigger = filter
        .input_trigger("x", &[12.0, 30.0])
        .expect("filter input");
    let sink = Cell::new(SimMetrics::default());
    let trace = Simulation::new(filter.crn(), &compiled)
        .init(&filter.initial_state())
        .schedule(&Schedule::new().trigger(trigger))
        .options(
            SsaOptions::default()
                .with_t_end(10.0)
                .with_record_interval(0.25)
                .with_seed(5)
                .with_metrics(&sink),
        )
        .run()
        .expect("mavg2 runs");
    check(
        "mavg2",
        &trace,
        sink.get(),
        (0x50d7_75f5_ffe0_41a4, 81_658, 0),
    );
}

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
            SsaOptions::default()
                .with_t_end(5.0)
                .with_record_interval(0.05)
                .with_seed(23)
                .with_metrics(&sink),
        )
        .run()
        .expect("injection run");
    check(
        "injections",
        &trace,
        sink.get(),
        (0x3604_d32f_2f10_9913, 1_174, 0),
    );
}

/// Trigger injections write raw amounts into the `f64` mirror; an amount
/// within the 1e-9 integrality tolerance leaves it off-integer until the
/// next firing rewrites the whole mirror from the counts — also for a
/// species (here `W`) the firing reaction does not touch.
#[test]
fn near_integral_trigger_amounts() {
    let crn: Crn = "X -> Y @slow\nY -> X @slow\nW -> 0 @slow".parse().unwrap();
    let x = crn.find_species("X").unwrap();
    let y = crn.find_species("Y").unwrap();
    let w = crn.find_species("W").unwrap();
    let compiled = CompiledCrn::new(&crn, &SimSpec::default());
    let mut init = State::new(&crn);
    init.set(x, 60.0);
    let schedule = Schedule::new()
        .inject(0.5, x, 4.0)
        .trigger(Trigger::inject_queue(
            Condition::Above {
                species: y,
                threshold: 30.0,
            },
            w,
            vec![5.000_000_000_4, 4.999_999_999_7, 6.0, 3.000_000_000_2],
        ));
    let sink = Cell::new(SimMetrics::default());
    let trace = Simulation::new(&crn, &compiled)
        .init(&init)
        .schedule(&schedule)
        .options(
            SsaOptions::default()
                .with_t_end(4.0)
                .with_record_interval(0.002)
                .with_seed(77)
                .with_metrics(&sink),
        )
        .run()
        .expect("trigger run");
    let off_integer = (0..trace.len())
        .filter(|&i| trace.state(i).iter().any(|v| v.fract() != 0.0))
        .count();
    println!(
        "marks {}, off-integer samples {off_integer}",
        trace.marks().len()
    );
    assert!(
        off_integer > 0,
        "the case must leave the mirror off-integer"
    );
    check(
        "near-integral triggers",
        &trace,
        sink.get(),
        (0x6faa_1466_9713_ec7b, 294, 0),
    );
}

#[test]
fn batch_of_four_counter2_lanes() {
    let counter = counter2();
    let crn = counter.system().crn();
    let base = CompiledCrn::new(crn, &SimSpec::default());
    let rebound: Vec<CompiledCrn> = [900.0, 1000.0, 1100.0, 1250.0]
        .iter()
        .map(|&r| base.rebind(&SimSpec::new(RateAssignment::from_ratio(r))))
        .collect();
    let train = counter.pulse_train(&[true]);
    let trigger = counter
        .system()
        .input_trigger("pulse", &train)
        .expect("pulse input");
    let schedule = Schedule::new().trigger(trigger);
    let init = counter.system().initial_state();
    let sinks: Vec<Cell<SimMetrics>> = (0..4).map(|_| Cell::new(SimMetrics::default())).collect();
    let lanes: Vec<SsaBatchLane> = (0..4)
        .map(|l| SsaBatchLane {
            compiled: &rebound[l],
            init: &init,
            schedule: &schedule,
            options: SsaOptions::default()
                .with_t_end(6.0)
                .with_record_interval(0.25)
                .with_seed(40 + l as u64)
                .with_metrics(&sinks[l]),
        })
        .collect();
    let mut ws = BatchedStochWorkspace::new();
    let got = run_ssa_batch(crn, &lanes, &mut ws);
    let mut rows = Vec::new();
    for (l, result) in got.iter().enumerate() {
        let trace = result.as_ref().expect("lane runs");
        let m = sinks[l].get();
        assert_eq!(m.batch_width, 4);
        rows.push((trace_hash(trace), m.ssa_events, m.lanes_retired));
        println!(
            "batch lane {l}: {:#018x} {} retired #{}",
            rows[l].0, rows[l].1, rows[l].2
        );
    }
    // (trace hash, ssa events, retirement ordinal) per lane
    let expected = [
        (0x3f96_00e1_efde_fbc2, 49_587, 3),
        (0x6ace_48e4_29fa_fd60, 48_465, 1),
        (0x99e8_a95e_8d58_eb0b, 47_937, 0),
        (0x0f63_bdd7_ecb6_e389, 49_135, 2),
    ];
    assert_eq!(rows, expected, "a lane's trace or retirement order moved");
}

#[test]
fn explicit_tau_on_a_netlist() {
    let system = compile_netlist_source(COUNTER2_NL, ClockSpec::default()).expect("lowers");
    let compiled = CompiledCrn::new(system.crn(), &SimSpec::default());
    let sink = Cell::new(SimMetrics::default());
    let trace = Simulation::new(system.crn(), &compiled)
        .init(&system.initial_state())
        .options(TauLeapOptions {
            base: SsaOptions::default()
                .with_t_end(8.0)
                .with_record_interval(0.25)
                .with_seed(3)
                .with_metrics(&sink),
            ..TauLeapOptions::default()
        })
        .run()
        .expect("tau run");
    check(
        "tau counter2.nl",
        &trace,
        sink.get(),
        (0x90a3_9d7a_5388_3d1a, 77_718, 0),
    );
}

#[test]
fn explicit_tau_leaps_with_injections() {
    let crn: Crn = "X -> Y @slow\nY -> X @slow\n2X -> Z @fast\nZ -> X @slow"
        .parse()
        .unwrap();
    let x = crn.find_species("X").unwrap();
    let compiled = CompiledCrn::new(&crn, &SimSpec::new(RateAssignment::from_ratio(300.0)));
    let mut init = State::new(&crn);
    init.set(x, 50_000.0);
    let sink = Cell::new(SimMetrics::default());
    let trace = Simulation::new(&crn, &compiled)
        .init(&init)
        .schedule(&Schedule::new().inject(0.3, x, 10_000.0))
        .options(TauLeapOptions {
            base: SsaOptions::default()
                .with_t_end(0.6)
                .with_record_interval(0.01)
                .with_seed(8)
                .with_metrics(&sink),
            ..TauLeapOptions::default()
        })
        .run()
        .expect("tau run");
    check(
        "tau leaps",
        &trace,
        sink.get(),
        (0xb88d_0a1f_e7de_360e, 22_480, 329),
    );
}
