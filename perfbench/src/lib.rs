//! The repository benchmark: four closed-loop workloads over the IPDS
//! workspace, an untraced run that measures the end-to-end metrics and a
//! traced run that splits them into per-layer numbers.
//!
//! * `attacks` — Fig. 7 attack campaigns over the ten paper victims, warm
//!   from set-up (`sim`, `runtime`, `parallel`).
//! * `faults` — fault campaigns over the same victims (`sim`, `runtime`,
//!   `parallel`).
//! * `compile` — full-axes builds of the extended servers and of seeded
//!   generated programs (`ir`, `dataflow`, `absint`, `analysis`).
//! * `fleet` — repeated executes of one seeded `ipdsd` fleet plan
//!   (`service` channels and pool, `runtime` checker, `correlate`).
//!
//! Every timed operation is checked against a reference as the loop goes
//! (see each workload's module); a failed check is counted, never skipped.
//! Every timing is read in process CPU time and scaled to the reference
//! host speed (see [`refspeed`]).

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the process CPU clock of 64-bit Linux");

pub mod campaign;
pub mod compile;
pub mod fleet;
pub mod refspeed;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Duration;

use refspeed::{Cost, Stopwatch};
use trace::Tracer;

/// Workload names accepted by `--workload`.
pub const WORKLOADS: [&str; 4] = ["attacks", "faults", "compile", "fleet"];

/// End-to-end metrics `(name, unit)`, printed by every untraced run. What
/// an "item" and an "op" are depends on the workload (see the readme).
/// Every time is CPU time at the reference host speed.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("items_per_ref_cpu_s", "1/s"),
    ("op_ref_cpu_ms_p50", "ms"),
    ("op_ref_cpu_ms_p90", "ms"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ir.parse_us", "us"),
    ("ir.lower_us", "us"),
    ("ir.verify-ir_us", "us"),
    ("ir.ssa_us", "us"),
    ("ir.mem2reg_us", "us"),
    ("ir.deconstruct-ssa_us", "us"),
    ("ir.opt_us", "us"),
    ("dataflow.alias_us", "us"),
    ("dataflow.summaries_us", "us"),
    ("dataflow.prune-cfg_us", "us"),
    ("absint.intervals_us", "us"),
    ("analysis.analyze-functions_us", "us"),
    ("analysis.refine-correlations_us", "us"),
    ("analysis.image_us", "us"),
    ("analysis.verify-tables_us", "us"),
    ("analysis.lint-tables_us", "us"),
    ("ir.tokens", "count"),
    ("ir.functions", "count"),
    ("ir.ssa_phis", "count"),
    ("dataflow.pruned_edges", "count"),
    ("analysis.refine_proved", "count"),
    ("analysis.image_bytes", "bytes"),
    ("analysis.hash_retries_per_branch", "ratio"),
    ("sim.interp_ns_per_step", "ns"),
    ("runtime.checker_ns_per_branch", "ns"),
    ("sim.attacks_per_sec_1t", "1/s"),
    ("parallel.speedup", "x"),
    ("parallel.chunks_stolen", "count"),
    ("sim.attack_steps_mean", "count"),
    ("runtime.branches_per_attack", "count"),
    ("runtime.checked_ratio", "ratio"),
    ("runtime.bat_actions_per_attack", "count"),
    ("runtime.hash_probes_per_attack", "count"),
    ("sim.golden_capture_ms", "ms"),
    ("sim.warm_start_capture_ms", "ms"),
    ("sim.fault_campaign_ms", "ms"),
    ("service.image_verify_us", "us"),
    ("service.execute_ms", "ms"),
    ("service.correlate_us", "us"),
    ("service.stall_ratio", "ratio"),
    ("service.pool_reuse_ratio", "ratio"),
    ("service.events_ingested", "count"),
    ("service.incidents_opened", "count"),
    ("fleet.root_causes", "count"),
    ("ir.self_pct", "%"),
    ("dataflow.self_pct", "%"),
    ("absint.self_pct", "%"),
    ("analysis.self_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Per-layer counts that are a pure function of the workload seed: two
/// runs with the same seed must print them bit for bit.
pub const EXACT: &[&str] = &[
    "ir.tokens",
    "ir.functions",
    "ir.ssa_phis",
    "dataflow.pruned_edges",
    "analysis.refine_proved",
    "analysis.image_bytes",
    "analysis.hash_retries_per_branch",
    "sim.attack_steps_mean",
    "runtime.branches_per_attack",
    "runtime.checked_ratio",
    "runtime.bat_actions_per_attack",
    "runtime.hash_probes_per_attack",
    "service.events_ingested",
    "service.incidents_opened",
    "fleet.root_causes",
];

/// Input sizes. [`Size::FULL`] is what the command line runs; the
/// benchmark's own tests use [`Size::TINY`].
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Attacks per attack campaign.
    pub attacks: u32,
    /// Flips per fault site (a fault campaign injects three times this).
    pub flips: u32,
    /// Distinct seeded campaign plans the campaign loop cycles through,
    /// each with its own draw of traffic.
    pub plans: u64,
    /// Attacks per victim in the counting (full-fidelity) campaign.
    pub count_attacks: u32,
    /// Generated programs in the compile corpus, beside the 12 servers.
    pub generated: u64,
    /// Sessions in the fleet plan.
    pub sessions: usize,
    /// Whether set-up is repeated (see [`Workload::SETUP_REPS`]).
    pub repeat_setup: bool,
    /// Repetitions of each timed probe of the traced run.
    pub probe_reps: usize,
}

impl Size {
    /// The benchmark as `BENCHMARK.json` runs it.
    pub const FULL: Size = Size {
        attacks: 400,
        flips: 32,
        plans: 8,
        count_attacks: 100,
        generated: 400,
        sessions: 4096,
        repeat_setup: true,
        probe_reps: 15,
    };

    /// Small enough for a unit test.
    pub const TINY: Size = Size {
        attacks: 8,
        flips: 2,
        plans: 2,
        count_attacks: 4,
        generated: 3,
        sessions: 24,
        repeat_setup: false,
        probe_reps: 1,
    };
}

/// One printed metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A metric as a workload measures it: `None` when it measured nothing,
/// which the report counts as a failed check.
pub type Measured = (&'static str, Option<f64>);

/// Checked operations and how many of them failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Input key: operations with one key repeat the same input, and so
    /// the same items.
    pub key: u64,
    /// Items the operation processed.
    pub items: u64,
    /// What the operation cost.
    pub cost: Cost,
}

/// What one timed loop measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Every timed operation.
    pub ops: Vec<Op>,
    /// Output checks made along the way.
    pub tally: Tally,
}

impl Timed {
    /// Reference CPU time of every operation, in ms.
    pub fn op_ref_ms(&self) -> Vec<f64> {
        self.ops.iter().map(|op| op.cost.ref_s * 1e3).collect()
    }

    /// Items per second of a pass over every input seen, each input
    /// taking its median time (as `time` reads an op's cost) over its
    /// repeats in the loop, so an input the budget cut short of its last
    /// repeat weighs the same as the others. `None` when nothing ran.
    pub fn items_per_sec(&self, time: fn(&Cost) -> f64) -> Option<f64> {
        let mut by_key: BTreeMap<u64, (u64, Vec<f64>)> = BTreeMap::new();
        for op in &self.ops {
            let entry = by_key.entry(op.key).or_insert((op.items, Vec::new()));
            entry.1.push(time(&op.cost));
        }
        let (items, seconds) = by_key.values().fold((0, 0.0), |(i, t), (items, times)| {
            (i + items, t + stats::median(times).unwrap_or(0.0))
        });
        (seconds > 0.0).then(|| items as f64 / seconds)
    }
}

/// A workload: inputs made in set-up, a timed loop, and the probes of
/// the traced run.
pub trait Workload: Sized {
    /// Set-ups per untraced run; `setup_s` is their median.
    const SETUP_REPS: usize;

    /// Builds every input from `seed`. Checks made here go into
    /// [`Workload::setup_tally`].
    fn setup(seed: u64, size: Size) -> Self;

    /// Checks made during set-up.
    fn setup_tally(&self) -> Tally {
        Tally::default()
    }

    /// Runs the closed loop for `budget`, checking every output.
    fn run_for(&mut self, budget: Duration, tracer: &mut Tracer) -> Timed;

    /// Per-layer metrics of this workload's layers, measured by probes
    /// outside the timed loop and from what the last loop recorded.
    fn layers(&mut self, tally: &mut Tally) -> Vec<Measured>;
}

/// A finished run: the result line's fields.
#[derive(Debug)]
pub struct Report {
    /// Checks made by the run.
    pub tally: Tally,
    /// Every metric, in the order of [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<Metric>,
    /// Raw readings printed on the host-facts line, not gated: unscaled
    /// throughput and the host speed the run saw.
    pub info: Vec<Measured>,
}

/// `(seed, i) -> seed` derivation (splitmix64 finalizer), so inputs drawn
/// for different purposes from one workload seed never share a stream.
pub fn derive(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Worker threads every workload uses: the machine's parallelism.
pub fn nproc() -> usize {
    ipds_sim::default_threads()
}

/// Repeats set-up, keeping the last copy and the reference CPU time of
/// each.
fn setup_timed<W: Workload>(seed: u64, size: Size) -> (W, Vec<f64>) {
    let reps = if size.repeat_setup { W::SETUP_REPS } else { 1 };
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..reps {
        // Free the previous copy first so peak RSS holds one set of inputs.
        drop(state.take());
        let watch = Stopwatch::start();
        state = Some(W::setup(seed, size));
        times.push(watch.stop().at_host_speed().ref_s);
    }
    (state.expect("at least one set-up"), times)
}

/// The untraced run: set-up (repeated, median reported), then the timed
/// loop for `budget`.
pub fn run_end_to_end<W: Workload>(seed: u64, budget: Duration, size: Size) -> Report {
    let (mut w, setup_s) = setup_timed::<W>(seed, size);
    let timed = w.run_for(budget, &mut Tracer::new(false));
    let mut tally = w.setup_tally();
    tally.add(timed.tally);
    let op_ms = timed.op_ref_ms();
    let metrics = vec![
        ("setup_s", stats::median(&setup_s)),
        ("items_per_ref_cpu_s", timed.items_per_sec(|c| c.ref_s)),
        ("op_ref_cpu_ms_p50", stats::percentile(&op_ms, 50.0)),
        ("op_ref_cpu_ms_p90", stats::percentile(&op_ms, 90.0)),
    ];
    let speeds: Vec<f64> = timed
        .ops
        .iter()
        .map(|op| op.cost.ref_s / op.cost.cpu_s)
        .filter(|s| s.is_finite())
        .collect();
    let mut report = finish(metrics, tally, END_TO_END);
    report.info = vec![
        ("items_per_cpu_s", timed.items_per_sec(|c| c.cpu_s)),
        ("items_per_wall_s", timed.items_per_sec(|c| c.wall_s)),
        ("host_speed", stats::median(&speeds)),
    ];
    report
}

/// The traced run. The named workload runs untraced and then traced (their
/// throughput ratio is the tracing overhead); every other workload runs
/// traced, so every per-layer metric is printed whichever workload is
/// named. Each of these phases gets an equal share of `budget`.
pub fn run_traced(primary: &str, seed: u64, budget: Duration, size: Size) -> (Report, Tracer) {
    let share = budget / (WORKLOADS.len() as u32 + 1);
    let mut tracer = Tracer::new(true);
    let mut tally = Tally::default();
    let mut metrics: Vec<Measured> = Vec::new();
    let mut overhead = None;
    for name in WORKLOADS {
        let phase = match name {
            "attacks" => traced_phase::<campaign::Attacks>,
            "faults" => traced_phase::<campaign::Faults>,
            "compile" => traced_phase::<compile::Compile>,
            _ => traced_phase::<fleet::Fleet>,
        };
        let (layers, o) = phase(name == primary, seed, share, size, &mut tracer, &mut tally);
        metrics.extend(layers);
        overhead = overhead.or(o);
    }
    let (by_layer, totals) = tracer.self_by_root_layer();
    // Shares of a build only: a campaign round or a fleet execute is one
    // layer call with no layer spans below it, so its share would always
    // read 100%. Their layers are split by the probes instead.
    let root = compile::ROOT_SPAN;
    for (layer, name) in [
        ("ir", "ir.self_pct"),
        ("dataflow", "dataflow.self_pct"),
        ("absint", "absint.self_pct"),
        ("analysis", "analysis.self_pct"),
    ] {
        let own = by_layer.get(&(root, layer)).copied().unwrap_or(0) as f64;
        let total = totals.get(root).copied().unwrap_or(0) as f64;
        metrics.push((name, (total > 0.0).then(|| 100.0 * own / total)));
    }
    metrics.push(("trace.overhead_pct", overhead));
    metrics.push(("trace.spans", Some(tracer.spans().len() as f64)));
    (finish(metrics, tally, PER_LAYER), tracer)
}

fn traced_phase<W: Workload>(
    primary: bool,
    seed: u64,
    budget: Duration,
    size: Size,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> (Vec<Measured>, Option<f64>) {
    let mut w = W::setup(seed, size);
    tally.add(w.setup_tally());
    let untraced = primary.then(|| w.run_for(budget, &mut Tracer::new(false)));
    let timed = w.run_for(budget, tracer);
    tally.add(timed.tally);
    let overhead = untraced.and_then(|u| {
        tally.add(u.tally);
        let time = |c: &Cost| c.ref_s;
        Some(100.0 * (u.items_per_sec(time)? / timed.items_per_sec(time)? - 1.0))
    });
    (w.layers(tally), overhead)
}

/// Orders `metrics` as `declared` lists them. A missing or non-finite
/// value counts as a failed check and prints as 0, so the result line
/// stays valid JSON and the run reads as incorrect.
///
/// # Panics
///
/// Panics if `metrics` names a metric `declared` does not list, or lists
/// one twice: the printed set must be exactly the declared set.
fn finish(
    metrics: Vec<Measured>,
    mut tally: Tally,
    declared: &'static [(&'static str, &'static str)],
) -> Report {
    for (i, (name, _)) in metrics.iter().enumerate() {
        assert!(
            declared.iter().any(|(d, _)| d == name),
            "metric `{name}` is not declared"
        );
        assert!(
            metrics[..i].iter().all(|(n, _)| n != name),
            "metric `{name}` measured twice"
        );
    }
    let ordered = declared
        .iter()
        .map(|&(name, unit)| {
            let value = metrics
                .iter()
                .find(|(n, _)| *n == name)
                .and_then(|(_, v)| *v)
                .filter(|v| v.is_finite());
            if value.is_none() {
                tally.attempted += 1;
                tally.failed += 1;
            }
            Metric {
                name,
                value: value.unwrap_or(0.0),
                unit,
            }
        })
        .collect();
    Report {
        tally,
        metrics: ordered,
        info: Vec::new(),
    }
}

/// The result line: one JSON object with the keys the benchmark contract
/// names.
pub fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    // A run that checked nothing has not shown that anything is correct.
    let Tally { attempted, failed } = match report.tally {
        Tally { attempted: 0, .. } => Tally {
            attempted: 1,
            failed: 1,
        },
        t => t,
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_per_sec_sums_each_inputs_median() {
        let op = |key, items, cpu_s, ref_s| Op {
            key,
            items,
            cost: Cost {
                cpu_s,
                wall_s: cpu_s,
                ref_s,
            },
        };
        let timed = Timed {
            // Input 0: medians 3.0 s CPU, 2.0 s reference; input 1: 1.0 s,
            // 0.5 s.
            ops: vec![
                op(0, 10, 3.0, 1.0),
                op(1, 5, 1.0, 0.5),
                op(0, 10, 9.0, 2.0),
                op(0, 10, 2.0, 7.0),
            ],
            tally: Tally::default(),
        };
        assert_eq!(timed.items_per_sec(|c| c.cpu_s), Some(15.0 / 4.0));
        assert_eq!(timed.items_per_sec(|c| c.ref_s), Some(15.0 / 2.5));
        assert_eq!(Timed::default().items_per_sec(|c| c.cpu_s), None);
    }
}
