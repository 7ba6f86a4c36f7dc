//! The next-reaction method (Gibson–Bruck) — an exact stochastic
//! simulator that scales to large networks.
//!
//! Gillespie's direct method recomputes every propensity after every
//! event: `O(M)` work per event. The next-reaction method keeps a tentative
//! firing time for every reaction in an indexed priority queue and, after
//! an event, updates only the reactions whose propensities actually changed
//! (those sharing a species with the fired reaction, via a precomputed
//! dependency graph): `O(D log M)` per event, where `D` is the dependency
//! degree. The two methods sample the same distribution; the engine
//! benchmarks compare their throughput.

use crate::compiled::CompiledCrn;
use crate::events::TriggerRuntime;
use crate::metrics::SimMetrics;
use crate::ssa::DependencyGraph;
use crate::{Schedule, SimError, SsaOptions, State, Trace};
use molseq_crn::Crn;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::ops::ControlFlow;

/// An indexed binary min-heap over `(time, reaction)`, supporting
/// decrease/increase-key by reaction index.
struct IndexedHeap {
    /// heap[i] = reaction index
    heap: Vec<usize>,
    /// position[reaction] = index into `heap`
    position: Vec<usize>,
    /// tentative firing time per reaction
    time: Vec<f64>,
}

impl IndexedHeap {
    fn new(times: Vec<f64>) -> Self {
        let m = times.len();
        let mut h = IndexedHeap {
            heap: (0..m).collect(),
            position: (0..m).collect(),
            time: times,
        };
        for i in (0..m / 2).rev() {
            h.sift_down(i);
        }
        h
    }

    fn min(&self) -> Option<(f64, usize)> {
        self.heap.first().map(|&r| (self.time[r], r))
    }

    fn update(&mut self, reaction: usize, new_time: f64) {
        let old = self.time[reaction];
        self.time[reaction] = new_time;
        let pos = self.position[reaction];
        if new_time < old {
            self.sift_up(pos);
        } else {
            self.sift_down(pos);
        }
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.time[self.heap[pos]] < self.time[self.heap[parent]] {
                self.swap(pos, parent);
                pos = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut pos: usize) {
        let len = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            let right = 2 * pos + 2;
            let mut smallest = pos;
            if left < len && self.time[self.heap[left]] < self.time[self.heap[smallest]] {
                smallest = left;
            }
            if right < len && self.time[self.heap[right]] < self.time[self.heap[smallest]] {
                smallest = right;
            }
            if smallest == pos {
                break;
            }
            self.swap(pos, smallest);
            pos = smallest;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.position[self.heap[a]] = a;
        self.position[self.heap[b]] = b;
    }
}

/// Validated entry point over a precompiled network: what the
/// [`Simulation`](crate::Simulation) builder dispatches to for
/// [`SimMethod::Nrm`](crate::SimMethod::Nrm).
pub(crate) fn run_nrm(
    crn: &Crn,
    compiled: &CompiledCrn,
    init: &State,
    schedule: &Schedule,
    opts: &SsaOptions,
) -> Result<Trace, SimError> {
    crate::ssa::validate(crn, compiled, init, opts)?;

    let mut stats = SimMetrics {
        seed: opts.seed(),
        final_time: opts.t_start(),
        ..SimMetrics::default()
    };
    let result = nrm_core(crn, compiled, init, schedule, opts, &mut stats);
    // flush even on failure: an interrupted or step-limited run still
    // reports the work it did
    SimMetrics::flush(opts.metrics(), stats);
    result
}

// Zero-propensity audit note: unlike the direct method's prefix-sum scan
// (see `crate::ssa::PropensityRow::select`), the next-reaction method cannot
// select a zero-propensity reaction by round-off — a reaction with zero
// propensity is assigned an *infinite* tentative time, and the heap
// minimum is compared against the finite stop time before firing.
fn nrm_core(
    crn: &Crn,
    compiled: &CompiledCrn,
    init: &State,
    schedule: &Schedule,
    opts: &SsaOptions,
    stats: &mut SimMetrics,
) -> Result<Trace, SimError> {
    let mut n: Vec<i64> = Vec::with_capacity(init.len());
    for &v in init.as_slice() {
        n.push(crate::ssa::to_count(v)?);
    }
    let m = compiled.reaction_count();
    let deps = DependencyGraph::new(compiled);
    let mut rng = StdRng::seed_from_u64(opts.seed());
    let mut t = opts.t_start();
    let mut trace = Trace::new(crn);
    let mut f64_state: Vec<f64> = n.iter().map(|&v| v as f64).collect();
    trace.push(t, &f64_state);
    let mut triggers = TriggerRuntime::new(schedule, &f64_state);

    let draw = |rng: &mut StdRng, a: f64, now: f64| -> f64 {
        if a > 0.0 {
            let u: f64 = 1.0 - rng.random::<f64>();
            now - u.ln() / a
        } else {
            f64::INFINITY
        }
    };

    let times: Vec<f64> = (0..m)
        .map(|j| draw(&mut rng, compiled.propensity(j, &n), t))
        .collect();
    let mut heap = IndexedHeap::new(times);

    let injections = schedule.sorted_injections();
    let mut next_injection = 0usize;
    let mut next_record = opts.t_start() + opts.record_interval();
    let mut events = 0usize;

    loop {
        let injection_time = injections
            .get(next_injection)
            .map_or(f64::INFINITY, |inj| inj.time);
        let (t_next, reaction) = heap.min().unwrap_or((f64::INFINITY, 0));

        let stop = opts.t_end().min(injection_time);
        if t_next >= stop {
            while next_record <= stop && next_record <= opts.t_end() {
                trace.push(next_record, &f64_state);
                next_record += opts.record_interval();
            }
            t = stop;
            stats.final_time = t;
            if injection_time <= opts.t_end() {
                let inj = &injections[next_injection];
                n[inj.species.index()] += crate::ssa::to_count(inj.amount)?;
                f64_state[inj.species.index()] = n[inj.species.index()] as f64;
                trace.push(t, &f64_state);
                next_injection += 1;
                for fired in triggers.poll(schedule, t, &mut f64_state) {
                    trace.push_mark(t, fired);
                    crate::ssa::sync_back(&mut n, &f64_state)?;
                }
                // all propensities may have changed
                for j in 0..m {
                    let a = compiled.propensity(j, &n);
                    heap.update(j, draw(&mut rng, a, t));
                }
                continue;
            }
            break;
        }

        if events >= opts.max_events() {
            return Err(SimError::StepLimitExceeded {
                reached: t,
                t_end: opts.t_end(),
                max_steps: opts.max_events(),
            });
        }
        events += 1;
        stats.ssa_events = events as u64;
        if let Some(hook) = opts.step_hook() {
            if let ControlFlow::Break(reason) = hook(events as u64, t) {
                return Err(SimError::Interrupted { time: t, reason });
            }
        }
        while next_record <= t_next && next_record <= opts.t_end() {
            trace.push(next_record, &f64_state);
            next_record += opts.record_interval();
        }
        t = t_next;
        stats.final_time = t;
        compiled.fire(reaction, &mut n);
        for &(i, _) in compiled.changed_species(reaction) {
            f64_state[i] = n[i] as f64;
        }
        for &dep in deps.of(reaction) {
            let a = compiled.propensity(dep, &n);
            heap.update(dep, draw(&mut rng, a, t));
        }
        if !schedule.triggers().is_empty() {
            for fired in triggers.poll(schedule, t, &mut f64_state) {
                trace.push_mark(t, fired);
                trace.push(t, &f64_state);
                crate::ssa::sync_back(&mut n, &f64_state)?;
                for j in 0..m {
                    let a = compiled.propensity(j, &n);
                    heap.update(j, draw(&mut rng, a, t));
                }
            }
        }
    }

    trace.push(t, &f64_state);
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimSpec;
    use molseq_crn::RateAssignment;

    /// Builder-backed stand-in for the deprecated free function (shadows
    /// any glob import), keeping every test on the new entry point.
    fn simulate_nrm(
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
            .method(crate::sim::SimMethod::Nrm)
            .options(*opts)
            .run()
    }

    /// Builder-backed direct-method run, for the cross-method statistics
    /// comparison below.
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
    fn heap_orders_and_updates() {
        let mut h = IndexedHeap::new(vec![5.0, 1.0, 3.0]);
        assert_eq!(h.min(), Some((1.0, 1)));
        h.update(1, 10.0);
        assert_eq!(h.min(), Some((3.0, 2)));
        h.update(0, 0.5);
        assert_eq!(h.min(), Some((0.5, 0)));
    }

    #[test]
    fn dependency_graph_links_shared_species() {
        let crn: Crn = "A -> B @slow\nB -> C @slow\nC + A -> 0 @fast"
            .parse()
            .unwrap();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let deps = DependencyGraph::new(&compiled);
        // firing r0 (A->B) changes A and B: affects r0, r1 (reads B), r2 (reads A)
        assert_eq!(deps.of(0), [0, 1, 2]);
        // firing r1 (B->C) changes B and C: affects r0? no (r0 reads A only)
        assert_eq!(deps.of(1), [1, 2]);
    }

    #[test]
    fn conserves_mass_like_the_direct_method() {
        let crn: Crn = "X -> Y @slow\nY -> X @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 100.0);
        let opts = SsaOptions::default().with_t_end(20.0).with_seed(4);
        let trace =
            simulate_nrm(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap();
        for i in 0..trace.len() {
            assert_eq!(trace.state(i)[0] + trace.state(i)[1], 100.0);
        }
    }

    #[test]
    fn matches_direct_method_statistics() {
        // X -> 0 at k=1: mean survivors after t=1 is N/e for both methods
        let crn: Crn = "X -> 0 @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let n0 = 2_000.0;
        let mut init = State::new(&crn);
        init.set(x, n0);
        let expected = n0 / std::f64::consts::E;

        let mut nrm_sum = 0.0;
        let mut ssa_sum = 0.0;
        let runs = 8;
        for seed in 0..runs {
            let opts = SsaOptions::default().with_t_end(1.0).with_seed(seed);
            nrm_sum += simulate_nrm(&crn, &init, &Schedule::new(), &opts, &SimSpec::default())
                .unwrap()
                .final_state()[x.index()];
            ssa_sum += simulate_ssa(&crn, &init, &Schedule::new(), &opts, &SimSpec::default())
                .unwrap()
                .final_state()[x.index()];
        }
        let nrm_mean = nrm_sum / f64::from(runs as u32);
        let ssa_mean = ssa_sum / f64::from(runs as u32);
        assert!(
            (nrm_mean - expected).abs() < 60.0,
            "nrm {nrm_mean} vs {expected}"
        );
        assert!(
            (ssa_mean - expected).abs() < 60.0,
            "ssa {ssa_mean} vs {expected}"
        );
    }

    #[test]
    fn injections_trigger_redraws() {
        let crn: Crn = "X -> Y @fast".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let y = crn.find_species("Y").unwrap();
        let schedule = Schedule::new().inject(5.0, x, 50.0);
        let opts = SsaOptions::default().with_t_end(20.0).with_seed(9);
        let trace = simulate_nrm(
            &crn,
            &State::new(&crn),
            &schedule,
            &opts,
            &SimSpec::new(RateAssignment::default()),
        )
        .unwrap();
        assert!(trace.value_at(y, 4.9) < 1e-9);
        assert_eq!(trace.final_state()[y.index()], 50.0);
    }

    #[test]
    fn step_hook_interrupts_event_loop() {
        let crn: Crn = "X -> Y @slow\nY -> X @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 1000.0);
        let hook = |events: u64, _t: f64| {
            if events > 40 {
                ControlFlow::Break("budget".to_owned())
            } else {
                ControlFlow::Continue(())
            }
        };
        let opts = SsaOptions::default()
            .with_t_end(1000.0)
            .with_seed(8)
            .with_step_hook(&hook);
        let err =
            simulate_nrm(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap_err();
        assert!(
            matches!(err, SimError::Interrupted { ref reason, .. } if reason == "budget"),
            "{err:?}"
        );
    }

    #[test]
    fn metrics_report_events() {
        use std::cell::Cell;

        let crn: Crn = "X -> Y @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 50.0);
        let sink = Cell::new(SimMetrics::default());
        let opts = SsaOptions::default()
            .with_t_end(50.0)
            .with_seed(3)
            .with_metrics(&sink);
        simulate_nrm(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap();
        let m = sink.get();
        assert_eq!(m.ssa_events, 50);
        assert_eq!(m.seed, 3);
        assert_eq!(m.final_time, 50.0);
    }

    #[test]
    fn rejects_fractional_counts() {
        let crn: Crn = "X -> 0 @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 0.5);
        assert!(matches!(
            simulate_nrm(
                &crn,
                &init,
                &Schedule::new(),
                &SsaOptions::default(),
                &SimSpec::default()
            ),
            Err(SimError::NonIntegerAmount { .. })
        ));
    }
}
