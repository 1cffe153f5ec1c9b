//! `compile`: full-axes builds, one at a time, of the 12 extended servers
//! and of seeded generated programs.
//!
//! The corpus mixes multi-function hand-written servers with single-`main`,
//! branch-dense generated programs, so a pass that scales with function
//! size and one that scales with function count both show. Every axis is
//! on, so all 16 pipeline passes run. Set-up generates the corpus, builds
//! each program once with every axis (the reference image and the exact
//! counts) and once stock (the reference clean-run output). One item is one
//! build; one op is a batch of [`BATCH`] consecutive builds of the corpus
//! (a small project), so op latency percentiles sum over several programs
//! instead of landing on whichever single program sits at the percentile;
//! one pass is one build of every program.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ipds::{BuildSpec, Protected};
use ipds_sim::{ExecStatus, Input};
use ipds_workloads::generator::{generate_program, GenConfig};

use crate::refspeed::{Cost, Stopwatch};
use crate::trace::{SpanId, Tracer};
use crate::{derive, nproc, Measured, Op, Size, Tally, Timed, Workload};

/// Root span of one build.
pub const ROOT_SPAN: &str = "bench.build";

/// Builds per op.
pub const BATCH: usize = 4;

/// Pipeline passes as `(pass name, span name, per-layer metric)`, grouped
/// by the crate that implements them. `finish` has no metric of its own.
const PASSES: &[(&str, &str, Option<&str>)] = &[
    ("parse", "ir.parse", Some("ir.parse_us")),
    ("lower", "ir.lower", Some("ir.lower_us")),
    ("verify-ir", "ir.verify-ir", Some("ir.verify-ir_us")),
    ("ssa", "ir.ssa", Some("ir.ssa_us")),
    ("mem2reg", "ir.mem2reg", Some("ir.mem2reg_us")),
    (
        "deconstruct-ssa",
        "ir.deconstruct-ssa",
        Some("ir.deconstruct-ssa_us"),
    ),
    ("opt", "ir.opt", Some("ir.opt_us")),
    ("alias", "dataflow.alias", Some("dataflow.alias_us")),
    (
        "summaries",
        "dataflow.summaries",
        Some("dataflow.summaries_us"),
    ),
    (
        "prune-cfg",
        "dataflow.prune-cfg",
        Some("dataflow.prune-cfg_us"),
    ),
    ("intervals", "absint.intervals", Some("absint.intervals_us")),
    (
        "analyze-functions",
        "analysis.analyze-functions",
        Some("analysis.analyze-functions_us"),
    ),
    (
        "refine-correlations",
        "analysis.refine-correlations",
        Some("analysis.refine-correlations_us"),
    ),
    ("image", "analysis.image", Some("analysis.image_us")),
    (
        "verify-tables",
        "analysis.verify-tables",
        Some("analysis.verify-tables_us"),
    ),
    (
        "lint-tables",
        "analysis.lint-tables",
        Some("analysis.lint-tables_us"),
    ),
    ("finish", "analysis.finish", None),
];

/// Exact per-build counters, summed over the corpus:
/// `(pipeline counter, per-layer metric)`.
const COUNTS: &[(&str, &str)] = &[
    ("pipeline.tokens", "ir.tokens"),
    ("pipeline.functions", "ir.functions"),
    ("pipeline.ssa_phis", "ir.ssa_phis"),
    ("pipeline.pruned_edges", "dataflow.pruned_edges"),
    ("pipeline.refine_proved", "analysis.refine_proved"),
    ("pipeline.image_bytes", "analysis.image_bytes"),
];

/// Every optional axis on: promote 50, prune, optimize, refine, verify
/// and lint.
fn full_axes(threads: usize) -> BuildSpec {
    Protected::build()
        .promote(50)
        .prune_feasibility(true)
        .optimize(true)
        .refine_correlations(true)
        .verify_tables(true)
        .lint_tables(true)
        .threads(threads)
}

struct Program {
    source: String,
    inputs: Vec<Input>,
    /// Status and output of the stock build's clean run.
    stock: (ExecStatus, Vec<i64>),
    /// Image bytes of the reference full-axes build.
    image: Vec<u8>,
}

/// Set-up state of the compile workload.
pub struct Compile {
    threads: usize,
    programs: Vec<Program>,
    setup: Tally,
    /// Sums of [`COUNTS`] plus branches and hash retries over the corpus.
    counts: BTreeMap<&'static str, u64>,
    /// Seconds per pass name summed over the last loop's builds.
    pass_s: BTreeMap<&'static str, f64>,
    builds: u64,
}

/// The corpus: every extended server with its seeded traffic, then
/// `generated` programs drawn from the seed with 48 seeded integer inputs.
fn corpus(seed: u64, generated: u64) -> Vec<(String, Vec<Input>)> {
    let mut out: Vec<(String, Vec<Input>)> = ipds_workloads::extended()
        .iter()
        .enumerate()
        .map(|(i, w)| (w.source.to_string(), w.inputs(derive(seed, i as u64))))
        .collect();
    for i in 0..generated {
        let s = derive(seed, 1000 + i);
        let inputs = (0..48)
            .map(|k| Input::Int((derive(s, k) % 41) as i64 - 20))
            .collect();
        out.push((generate_program(s, GenConfig::default()), inputs));
    }
    out
}

impl Workload for Compile {
    const SETUP_REPS: usize = 3;

    fn setup(seed: u64, size: Size) -> Compile {
        let threads = nproc();
        let mut setup = Tally::default();
        let mut counts = BTreeMap::new();
        let mut programs = Vec::new();
        for (source, inputs) in corpus(seed, size.generated) {
            let stock = Protected::build()
                .compile(&source)
                .and_then(|b| b.protected.session().inputs(&inputs).run());
            let reference = full_axes(threads).compile(&source);
            let (Ok(stock), Ok(reference)) = (stock, reference) else {
                setup.check(false);
                continue;
            };
            setup.check(
                stock.alarms.is_empty()
                    && reference
                        .lint
                        .as_ref()
                        .is_some_and(|l| l.error_count() == 0),
            );
            for (key, name) in COUNTS {
                *counts.entry(*name).or_insert(0) += reference.metrics.counter(key);
            }
            *counts.entry("branches").or_insert(0) += reference.counters.branches;
            *counts.entry("hash_retries").or_insert(0) += reference.counters.hash_retries;
            programs.push(Program {
                source,
                inputs,
                stock: (stock.status, stock.output),
                image: reference.image.as_bytes().to_vec(),
            });
        }
        Compile {
            threads,
            programs,
            setup,
            counts,
            pass_s: BTreeMap::new(),
            builds: 0,
        }
    }

    fn setup_tally(&self) -> Tally {
        self.setup
    }

    fn run_for(&mut self, budget: Duration, tracer: &mut Tracer) -> Timed {
        let mut timed = Timed::default();
        self.pass_s.clear();
        self.builds = 0;
        let started = Instant::now();
        'passes: while !self.programs.is_empty() {
            // The batch in progress.
            let mut batch = Op {
                key: 0,
                items: 0,
                cost: Cost::default(),
            };
            for (i, p) in self.programs.iter().enumerate() {
                if started.elapsed() >= budget {
                    break 'passes;
                }
                let op = self.builds;
                let t0 = tracer.now_ns();
                let watch = Stopwatch::start();
                let build = full_axes(self.threads).compile(&p.source);
                let lap = watch.stop();
                let t1 = tracer.now_ns();
                let root = tracer.record(ROOT_SPAN, op, SpanId::NONE, t0, t1);
                let call = tracer.record("ipds.build", op, root, t0, t1);
                self.builds += 1;
                batch.key = (i / BATCH) as u64;
                batch.items += 1;
                batch.cost.add(lap.at_host_speed());
                if batch.items == BATCH as u64 || i + 1 == self.programs.len() {
                    timed.ops.push(batch);
                    batch.items = 0;
                    batch.cost = Cost::default();
                }

                let Ok(build) = build else {
                    timed.tally.check(false);
                    continue;
                };
                // Pass spans rebuilt from the build's own timings: the
                // passes run one after another inside the call.
                let mut at = t0;
                for span in &build.timings {
                    let ns = (span.seconds * 1e9) as u64;
                    if let Some(&(pass, span_name, _)) =
                        PASSES.iter().find(|(n, ..)| *n == span.name)
                    {
                        tracer.record(span_name, op, call, at, (at + ns).min(t1));
                        *self.pass_s.entry(pass).or_insert(0.0) += span.seconds;
                    }
                    at += ns;
                }

                let check = tracer.begin("bench.check", op, SpanId::NONE);
                let run_span = tracer.begin("sim.clean_run", op, check);
                let run = build.protected.session().inputs(&p.inputs).run();
                tracer.end(run_span);
                let ok = build.lint.as_ref().is_some_and(|l| l.error_count() == 0)
                    && build.image.as_bytes() == p.image.as_slice()
                    && run.is_ok_and(|r| r.alarms.is_empty() && (r.status, r.output) == p.stock);
                tracer.end(check);
                timed.tally.check(ok);
            }
        }
        timed
    }

    fn layers(&mut self, _tally: &mut Tally) -> Vec<Measured> {
        let builds = self.builds;
        let mut out: Vec<Measured> = PASSES
            .iter()
            .filter_map(|&(pass, _, name)| {
                let mean_us = (builds > 0)
                    .then(|| self.pass_s.get(pass).copied().unwrap_or(0.0) * 1e6 / builds as f64);
                name.map(|n| (n, mean_us))
            })
            .collect();
        let count = |name: &str| self.counts.get(name).copied();
        out.extend(
            COUNTS
                .iter()
                .map(|&(_, name)| (name, count(name).map(|c| c as f64))),
        );
        let branches = count("branches").filter(|&b| b > 0);
        out.push((
            "analysis.hash_retries_per_branch",
            branches.map(|b| count("hash_retries").unwrap_or(0) as f64 / b as f64),
        ));
        out
    }
}
