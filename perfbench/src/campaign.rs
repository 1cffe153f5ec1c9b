//! `attacks` and `faults`: Fig. 7 attack campaigns and fault campaigns
//! over the ten paper victims, each victim with its own attack model.
//!
//! Both workloads share one set-up: it compiles every victim and captures
//! its golden run and warm start, so the timed attack campaigns run warm;
//! fault campaigns capture what they need per call, as `FaultSpec` does.
//! One op is one round: every victim's campaign with the workload's engine,
//! each on one thread and each timed and scaled to the host speed on its
//! own. A pass is a round of each plan. One item is one injected attack or
//! fault. Every result is checked against a reference
//! run of the same plan on `nproc` threads, cold (without the warm start)
//! for attacks. The two engines are separate workloads so that a change
//! which slows one of them shows on its own.

use std::time::{Duration, Instant};

use ipds::{CampaignResult, FaultCampaignResult, Protected};
use ipds_runtime::IpdsChecker;
use ipds_sim::{
    AttackModel, CountingSink, ExecLimits, GoldenRun, Input, Interp, IpdsObserver, NullObserver,
    WarmStart,
};

use crate::refspeed::{Cost, Stopwatch};
use crate::trace::{SpanId, Tracer};
use crate::{derive, nproc, stats, Measured, Op, Size, Tally, Timed, Workload};

/// Root span of one round over the victims.
pub const ROOT_SPAN: &str = "bench.round";

/// Where the per-plan input seeds start among [`derive`]'s streams, clear
/// of the plan seeds.
const INPUTS_STREAM: u64 = 1 << 32;

/// Threads of a timed campaign. One, so that an op's CPU time does not
/// depend on when the host runs the machine's other CPUs, and so that the
/// reference kernel run after it on the same thread reads the speed the
/// op saw. Parallel scaling is measured by the `parallel.speedup` probe.
const LOOP_THREADS: usize = 1;

/// The `attacks` workload: Fig. 7 attack campaigns, warm from set-up.
pub type Attacks = Campaign<false>;

/// The `faults` workload: fault campaigns over the same victims.
pub type Faults = Campaign<true>;

/// What one victim's campaign returned.
#[derive(Debug, PartialEq)]
enum Outcome {
    Attacks(CampaignResult),
    Faults(FaultCampaignResult),
}

impl Outcome {
    /// Attacks or faults injected.
    fn items(&self) -> u64 {
        match self {
            Outcome::Attacks(r) => u64::from(r.attacks),
            Outcome::Faults(r) => u64::from(r.injected),
        }
    }
}

struct Victim {
    protected: Protected,
    model: AttackModel,
    /// Per plan: the plan's own traffic, so a run averages the cost of
    /// several draws of inputs as well as of attack plans.
    traffic: Vec<Traffic>,
}

/// A victim's inputs with what set-up captured from them.
struct Traffic {
    inputs: Vec<Input>,
    golden: GoldenRun,
    limits: ExecLimits,
    warm: WarmStart,
}

impl Traffic {
    fn capture(protected: &Protected, inputs: Vec<Input>) -> Traffic {
        let (golden, limits) = protected.campaign_artifacts(&inputs);
        let warm = protected.warm_start(&inputs, &golden, limits);
        Traffic {
            inputs,
            golden,
            limits,
            warm,
        }
    }
}

/// Set-up state of a campaign workload; `FAULTS` picks the engine its
/// loop times.
pub struct Campaign<const FAULTS: bool> {
    seed: u64,
    size: Size,
    threads: usize,
    victims: Vec<Victim>,
    /// Reference results per `plan * victims + victim`, made before the
    /// first timed loop.
    references: Vec<Outcome>,
    /// Per fault campaign of the last loop, wall ms.
    fault_ms: Vec<f64>,
}

impl<const FAULTS: bool> Campaign<FAULTS> {
    fn plan_seed(&self, plan: u64, victim: usize) -> u64 {
        derive(derive(self.seed, plan), victim as u64)
    }

    /// Input key of `(victim, plan)`.
    fn key(&self, v: usize, plan: u64) -> usize {
        plan as usize * self.victims.len() + v
    }

    /// An attack campaign, warm from set-up's capture or cold, and the
    /// chunks its pool stole.
    fn attack(&self, v: usize, plan: u64, threads: usize, warm: bool) -> (CampaignResult, f64) {
        let victim = &self.victims[v];
        let traffic = &victim.traffic[plan as usize];
        let spec = victim
            .protected
            .campaign_spec()
            .inputs(&traffic.inputs)
            .golden(&traffic.golden, traffic.limits);
        let spec = if warm {
            spec.warm_start(&traffic.warm)
        } else {
            spec
        };
        let (result, metrics) = spec
            .attacks(self.size.attacks)
            .seed(self.plan_seed(plan, v))
            .model(victim.model)
            .threads(threads)
            .run_metered();
        (result, metrics.counter("pool.chunks_stolen") as f64)
    }

    fn faults(&self, v: usize, plan: u64, threads: usize) -> FaultCampaignResult {
        let victim = &self.victims[v];
        victim
            .protected
            .fault_spec()
            .inputs(&victim.traffic[plan as usize].inputs)
            .flips(self.size.flips)
            .seed(self.plan_seed(plan, v))
            .threads(threads)
            .run()
    }

    /// One victim's campaign with the workload's engine.
    fn run(&self, v: usize, plan: u64, threads: usize) -> Outcome {
        if FAULTS {
            Outcome::Faults(self.faults(v, plan, threads))
        } else {
            Outcome::Attacks(self.attack(v, plan, threads, true).0)
        }
    }

    /// Makes the reference result of every victim and plan, once: on
    /// `nproc` threads, and cold for attacks, so a check also shows that
    /// the warm start and the thread count change no result. This is also
    /// the loop's warm-up.
    fn make_references(&mut self, tracer: &mut Tracer) {
        if !self.references.is_empty() {
            return;
        }
        let check = tracer.begin("bench.check", 0, SpanId::NONE);
        for plan in 0..self.size.plans {
            for v in 0..self.victims.len() {
                let span = tracer.begin("sim.reference", plan, check);
                let made = if FAULTS {
                    Outcome::Faults(self.faults(v, plan, self.threads))
                } else {
                    Outcome::Attacks(self.attack(v, plan, self.threads, false).0)
                };
                tracer.end(span);
                self.references.push(made);
            }
        }
        tracer.end(check);
    }

    /// Clean runs of every victim without and with the checker attached:
    /// `(ns per interpreter step, checker ns per branch)`, each run timed
    /// as the best of the probe repetitions.
    fn interp_split(&self, tally: &mut Tally) -> (Option<f64>, Option<f64>) {
        let (mut null_ns, mut ipds_ns, mut steps, mut branches) = (0.0, 0.0, 0u64, 0u64);
        for victim in &self.victims {
            let program = &victim.protected.program;
            let traffic = &victim.traffic[0];
            let main = program.main().expect("victims have main").id;
            let (mut best_null, mut best_ipds) = (f64::INFINITY, f64::INFINITY);
            let (mut run_steps, mut run_branches) = (0, 0);
            for _ in 0..self.size.probe_reps.max(1) {
                let start = Instant::now();
                let mut interp = Interp::new(program, traffic.inputs.clone(), traffic.limits);
                interp.run(&mut NullObserver);
                best_null = best_null.min(start.elapsed().as_nanos() as f64);
                run_steps = interp.steps();

                // The checker's tables are built before the clock starts,
                // so the difference is the per-branch checking alone.
                let mut obs = IpdsObserver::new(IpdsChecker::new(&victim.protected.analysis));
                obs.checker.on_call(main);
                let start = Instant::now();
                let mut interp = Interp::new(program, traffic.inputs.clone(), traffic.limits);
                interp.run(&mut obs);
                best_ipds = best_ipds.min(start.elapsed().as_nanos() as f64);
                run_branches = obs.checker.stats().branches;
                tally.check(obs.checker.alarms().is_empty() && interp.steps() == run_steps);
            }
            steps += run_steps;
            branches += run_branches;
            null_ns += best_null;
            ipds_ns += best_ipds;
        }
        (
            (steps > 0).then(|| null_ns / steps as f64),
            (branches > 0).then(|| (ipds_ns - null_ns) / branches as f64),
        )
    }

    /// Per-layer metrics of the attack engine and of the set-up: the
    /// `sim`/`runtime`/`parallel` split, measured outside the loop.
    fn attack_layers(&self, tally: &mut Tally) -> Vec<Measured> {
        let reps = self.size.probe_reps.max(1);
        let (interp_ns, checker_ns) = self.interp_split(tally);

        // 1 thread vs nproc threads on identical plans (plan 0).
        let (mut one_s, mut many_s, mut attacks) = (0.0, 0.0, 0u64);
        let mut chunks_stolen = Vec::new();
        for v in 0..self.victims.len() {
            let (mut best_one, mut best_many) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..reps.min(5) {
                let start = Instant::now();
                let (one, _) = self.attack(v, 0, 1, true);
                best_one = best_one.min(start.elapsed().as_secs_f64());
                let start = Instant::now();
                let (many, stolen) = self.attack(v, 0, self.threads, true);
                best_many = best_many.min(start.elapsed().as_secs_f64());
                chunks_stolen.push(stolen);
                tally.check(one == many);
            }
            one_s += best_one;
            many_s += best_many;
            attacks += u64::from(self.size.attacks);
        }

        // Full-fidelity per-attack counts: a counting sink wants the branch
        // stream, so these campaigns run cold.
        let (mut snap_attacks, mut branches, mut checked, mut bat, mut probes) = (0, 0, 0, 0, 0);
        let (mut steps_sum, mut steps_count) = (0u64, 0u64);
        for (v, victim) in self.victims.iter().enumerate() {
            let sink = CountingSink::new();
            let traffic = &victim.traffic[0];
            let (result, metrics) = victim
                .protected
                .campaign_spec()
                .inputs(&traffic.inputs)
                .golden(&traffic.golden, traffic.limits)
                .attacks(self.size.count_attacks)
                .seed(self.plan_seed(0, v))
                .model(victim.model)
                .threads(self.threads)
                .sink(&sink)
                .run_metered();
            let snap = sink.snapshot();
            tally.check(
                snap.attacks == u64::from(result.attacks)
                    && snap.detections == u64::from(result.detected),
            );
            snap_attacks += snap.attacks;
            branches += snap.branches;
            checked += snap.checked;
            bat += snap.bat_actions;
            probes += snap.hash_probes;
            if let Some(h) = metrics.histogram("attack_steps") {
                steps_sum += h.sum;
                steps_count += h.count;
            }
        }
        let per_attack = |n: u64| (snap_attacks > 0).then(|| n as f64 / snap_attacks as f64);

        // Capture costs, median over repetitions of the sum over victims.
        let (mut golden_ms, mut warm_ms) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            let (mut g, mut w) = (0.0, 0.0);
            for victim in &self.victims {
                let traffic = &victim.traffic[0];
                let start = Instant::now();
                let (golden, limits) = victim.protected.campaign_artifacts(&traffic.inputs);
                g += start.elapsed().as_secs_f64() * 1e3;
                let start = Instant::now();
                let warm = victim
                    .protected
                    .warm_start(&traffic.inputs, &golden, limits);
                w += start.elapsed().as_secs_f64() * 1e3;
                tally.check(golden.steps == traffic.golden.steps);
                drop(warm);
            }
            golden_ms.push(g);
            warm_ms.push(w);
        }

        vec![
            ("sim.interp_ns_per_step", interp_ns),
            ("runtime.checker_ns_per_branch", checker_ns),
            (
                "sim.attacks_per_sec_1t",
                (one_s > 0.0).then(|| attacks as f64 / one_s),
            ),
            ("parallel.speedup", (many_s > 0.0).then(|| one_s / many_s)),
            ("parallel.chunks_stolen", stats::mean(&chunks_stolen)),
            (
                "sim.attack_steps_mean",
                (steps_count > 0).then(|| steps_sum as f64 / steps_count as f64),
            ),
            ("runtime.branches_per_attack", per_attack(branches)),
            (
                "runtime.checked_ratio",
                (branches > 0).then(|| checked as f64 / branches as f64),
            ),
            ("runtime.bat_actions_per_attack", per_attack(bat)),
            ("runtime.hash_probes_per_attack", per_attack(probes)),
            ("sim.golden_capture_ms", stats::median(&golden_ms)),
            ("sim.warm_start_capture_ms", stats::median(&warm_ms)),
        ]
    }
}

impl<const FAULTS: bool> Workload for Campaign<FAULTS> {
    const SETUP_REPS: usize = 31;

    fn setup(seed: u64, size: Size) -> Self {
        let victims = ipds_workloads::all()
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let protected = Protected::compile(w).expect("paper victims compile");
                let traffic = (0..size.plans)
                    .map(|plan| {
                        let inputs = w.inputs(derive(derive(seed, INPUTS_STREAM + plan), i as u64));
                        Traffic::capture(&protected, inputs)
                    })
                    .collect();
                Victim {
                    protected,
                    model: w.vuln,
                    traffic,
                }
            })
            .collect();
        Campaign {
            seed,
            size,
            threads: nproc(),
            victims,
            references: Vec::new(),
            fault_ms: Vec::new(),
        }
    }

    fn run_for(&mut self, budget: Duration, tracer: &mut Tracer) -> Timed {
        self.make_references(tracer);
        let mut timed = Timed::default();
        self.fault_ms.clear();
        let engine = if FAULTS {
            "sim.fault_campaign"
        } else {
            "sim.attack_campaign"
        };
        let started = Instant::now();
        let mut round = 0u64;
        while started.elapsed() < budget {
            let plan = round % self.size.plans;
            let root = tracer.begin(ROOT_SPAN, round, SpanId::NONE);
            let mut op = Op {
                key: plan,
                items: 0,
                cost: Cost::default(),
            };
            let mut results = Vec::with_capacity(self.victims.len());
            for v in 0..self.victims.len() {
                let span = tracer.begin(engine, round, root);
                let watch = Stopwatch::start();
                let outcome = self.run(v, plan, LOOP_THREADS);
                let lap = watch.stop();
                tracer.end(span);
                let cost = lap.at_host_speed();
                if FAULTS {
                    self.fault_ms.push(cost.wall_s * 1e3);
                }
                op.items += outcome.items();
                op.cost.add(cost);
                results.push(outcome);
            }
            tracer.end(root);
            timed.ops.push(op);

            let check = tracer.begin("bench.check", round, SpanId::NONE);
            for (v, outcome) in results.into_iter().enumerate() {
                let ok = outcome == self.references[self.key(v, plan)]
                    && match &outcome {
                        Outcome::Attacks(r) => r.attacks == self.size.attacks,
                        Outcome::Faults(r) => r.image_undetected == 0,
                    };
                timed.tally.check(ok);
            }
            tracer.end(check);
            round += 1;
        }
        timed
    }

    fn layers(&mut self, tally: &mut Tally) -> Vec<Measured> {
        if FAULTS {
            vec![("sim.fault_campaign_ms", stats::mean(&self.fault_ms))]
        } else {
            self.attack_layers(tally)
        }
    }
}
