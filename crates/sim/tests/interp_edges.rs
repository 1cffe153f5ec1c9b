//! Interpreter and attack-machinery edge cases beyond the unit tests.

use ipds_sim::observer::Tee;
use ipds_sim::{ExecLimits, ExecObserver, ExecStatus, Input, Interp, NullObserver};

fn run(src: &str, inputs: Vec<Input>) -> (ExecStatus, Vec<i64>) {
    let p = ipds_ir::parse(src).unwrap();
    let mut i = Interp::new(&p, inputs, ExecLimits::default());
    let s = i.run(&mut NullObserver);
    (s, i.output().to_vec())
}

#[test]
fn eof_inputs_default_to_zero_and_empty() {
    let (s, out) = run(
        "fn main() -> int { int x; int b[4]; x = read_int(); read_str(b, 3); \
         print_int(x); print_int(strlen(b)); return 0; }",
        vec![],
    );
    assert_eq!(s, ExecStatus::Exited(0));
    assert_eq!(out, vec![0, 0]);
}

#[test]
fn mismatched_input_kinds_are_skipped() {
    // read_int skips a queued string; read_str skips a queued int.
    let (s, out) = run(
        "fn main() -> int { int x; int b[8]; x = read_int(); read_str(b, 6); \
         print_int(x); print_str(b); return 0; }",
        vec![
            Input::Str("skipme".into()),
            Input::Int(5),
            Input::Int(9),
            Input::Str("ok".into()),
        ],
    );
    assert_eq!(s, ExecStatus::Exited(0));
    assert_eq!(out, vec![5, 'o' as i64, 'k' as i64]);
}

#[test]
fn negative_array_index_faults() {
    let (s, _) = run(
        "fn main() -> int { int a[4]; int i; i = read_int(); a[i] = 1; return 0; }",
        vec![Input::Int(-100_000)],
    );
    assert!(matches!(s, ExecStatus::Fault(_)), "{s:?}");
}

#[test]
fn division_and_shift_semantics_are_total() {
    let (s, out) = run(
        "fn main() -> int { int a; a = read_int(); \
         print_int(a / 0); print_int(a % 0); \
         print_int(1 << 70); print_int(a >> 65); \
         return 0; }",
        vec![Input::Int(12)],
    );
    assert_eq!(s, ExecStatus::Exited(0));
    // div/rem by zero -> 0; shifts mask the amount (70 & 63 = 6, 65 & 63 = 1).
    assert_eq!(out, vec![0, 0, 64, 6]);
}

#[test]
fn atoi_parses_and_rejects() {
    let (s, out) = run(
        "fn main() -> int { int b[8]; \
         read_str(b, 7); print_int(atoi(b)); \
         read_str(b, 7); print_int(atoi(b)); \
         read_str(b, 7); print_int(atoi(b)); \
         return 0; }",
        vec![
            Input::Str("42".into()),
            Input::Str("-7".into()),
            Input::Str("junk".into()),
        ],
    );
    assert_eq!(s, ExecStatus::Exited(0));
    assert_eq!(out, vec![42, -7, 0]);
}

#[test]
fn strncmp_respects_bound() {
    let (s, out) = run(
        "fn main() -> int { int a[8]; int b[8]; \
         strcpy(a, \"abcXYZ\"); strcpy(b, \"abcDEF\"); \
         print_int(strncmp(a, b, 3)); \
         print_int(strncmp(a, b, 4)); \
         return 0; }",
        vec![],
    );
    assert_eq!(s, ExecStatus::Exited(0));
    assert_eq!(out[0], 0, "equal in the first 3");
    assert_ne!(out[1], 0, "differ at position 3");
}

#[test]
fn memset_memcpy_roundtrip() {
    let (s, out) = run(
        "fn main() -> int { int a[4]; int b[4]; int i; int acc; \
         memset(a, 7, 4); memcpy(b, a, 4); \
         acc = 0; for (i = 0; i < 4; i = i + 1) { acc = acc + b[i]; } \
         print_int(acc); return 0; }",
        vec![],
    );
    assert_eq!(s, ExecStatus::Exited(0));
    assert_eq!(out, vec![28]);
}

#[test]
fn global_state_persists_across_calls() {
    let (s, out) = run(
        "int counter; \
         fn bump() -> int { counter = counter + 1; return counter; } \
         fn main() -> int { print_int(bump()); print_int(bump()); print_int(bump()); return counter; }",
        vec![],
    );
    assert_eq!(s, ExecStatus::Exited(3));
    assert_eq!(out, vec![1, 2, 3]);
}

#[test]
fn locals_are_fresh_per_activation() {
    // A local must not leak values between activations (frames are zeroed).
    let (s, out) = run(
        "fn probe() -> int { int x; int r; r = x; x = 99; return r; } \
         fn main() -> int { print_int(probe()); print_int(probe()); return 0; }",
        vec![],
    );
    assert_eq!(s, ExecStatus::Exited(0));
    assert_eq!(out, vec![0, 0], "stale frame data leaked");
}

#[test]
fn exit_unwinds_from_deep_in_the_stack() {
    let (s, out) = run(
        "fn deep(int n) -> int { if (n == 0) { exit(42); } return deep(n - 1); } \
         fn main() -> int { print_int(1); deep(10); print_int(2); return 0; }",
        vec![],
    );
    assert_eq!(s, ExecStatus::Exited(42));
    assert_eq!(out, vec![1], "nothing after exit runs");
}

#[test]
fn steps_accounting_is_monotonic_and_resumable() {
    let p = ipds_ir::parse(
        "fn main() -> int { int i; int s; s = 0; \
         for (i = 0; i < 100; i = i + 1) { s = s + i; } return s; }",
    )
    .unwrap();
    let mut i = Interp::new(&p, vec![], ExecLimits::default());
    let mut last = 0;
    while i.status() == &ExecStatus::Running {
        i.run_steps(17, &mut NullObserver);
        assert!(i.steps() >= last);
        last = i.steps();
    }
    assert_eq!(*i.status(), ExecStatus::Exited(4950));

    // A fresh interpreter run in one shot lands on the same step count.
    let mut j = Interp::new(&p, vec![], ExecLimits::default());
    j.run(&mut NullObserver);
    assert_eq!(i.steps(), j.steps(), "chunked and whole runs agree");
}

/// One control-flow event, as the IPDS checker consumes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Branch(u64, bool),
    Call(u32),
    Return,
}

/// Records the control-flow stream; wants no per-instruction or
/// per-access hooks.
#[derive(Debug, Default)]
struct FlowRecorder(Vec<Flow>);

impl ExecObserver for FlowRecorder {
    fn on_branch(&mut self, pc: u64, dir: bool) {
        self.0.push(Flow::Branch(pc, dir));
    }
    fn on_call(&mut self, func: ipds_ir::FuncId) {
        self.0.push(Flow::Call(func.0));
    }
    fn on_return(&mut self) {
        self.0.push(Flow::Return);
    }
}

/// Turns every capability flag on and counts the hooks it gets.
#[derive(Debug, Default)]
struct AllHooks {
    insts: u64,
    mems: u64,
}

impl ExecObserver for AllHooks {
    const WANTS_INST: bool = true;
    const WANTS_MEM: bool = true;
    const WANTS_BUILTIN_READS: bool = true;

    fn on_inst(&mut self, _pc: u64) {
        self.insts += 1;
    }
    fn on_mem(&mut self, _pc: u64, _addr: usize, _store: bool) {
        self.mems += 1;
    }
}

/// Everything a run leaves behind: flow events, status, steps, output
/// and every memory cell.
type RunResult = (Vec<Flow>, ExecStatus, u64, Vec<i64>, Vec<i64>);

fn finish(i: &Interp<'_>, flow: FlowRecorder) -> RunResult {
    let cells = (0..i.mem.len()).map(|a| i.mem.load(a)).collect();
    (
        flow.0,
        i.status().clone(),
        i.steps(),
        i.output().to_vec(),
        cells,
    )
}

/// Runs `i` to the end in `chunk`-step slices; each slice runs exactly
/// `chunk` steps unless the run ends inside it.
fn run_chunked<O: ExecObserver>(i: &mut Interp<'_>, chunk: u64, obs: &mut O) {
    while i.status() == &ExecStatus::Running {
        let before = i.steps();
        i.run_steps(chunk, obs);
        assert!(
            i.steps() == before + chunk || i.status() != &ExecStatus::Running,
            "a {chunk}-step slice ran {} steps",
            i.steps() - before
        );
    }
}

/// Runs `p` in `chunk`-step slices with the flags off, then again with
/// them on, and checks both against `reference`.
fn check_flags_do_not_change_execution(
    name: &str,
    p: &ipds_ir::Program,
    inputs: &[Input],
    limits: ExecLimits,
    chunk: u64,
    reference: &RunResult,
) {
    let mut i = Interp::new(p, inputs.to_vec(), limits);
    let mut flow = FlowRecorder::default();
    run_chunked(&mut i, chunk, &mut flow);
    let off = finish(&i, flow);
    assert_eq!(&off, reference, "{name}: flags off, chunk {chunk}");

    let mut i = Interp::new(p, inputs.to_vec(), limits);
    let mut flow = FlowRecorder::default();
    let mut hooks = AllHooks::default();
    run_chunked(&mut i, chunk, &mut Tee::new(&mut flow, &mut hooks));
    let on = finish(&i, flow);
    assert_eq!(&on, reference, "{name}: flags on, chunk {chunk}");
    // `on_inst` fires once per counted step, after the budget check: the
    // step that overruns the budget is counted but never executes.
    let overrun = u64::from(on.1 == ExecStatus::OutOfBudget);
    assert_eq!(hooks.insts, on.2 - overrun, "{name}: on_inst per step");
    assert!(hooks.mems > 0, "{name}: memory hooks fire");
}

#[test]
fn observer_flags_do_not_change_execution() {
    use ipds_workloads::generator::{generate_program, GenConfig};

    let mut cases: Vec<(String, ipds_ir::Program, Vec<Input>)> = ipds_workloads::extended()
        .iter()
        .map(|w| (w.name.to_string(), w.program(), w.inputs(7)))
        .collect();
    for seed in 0..8u64 {
        let src = generate_program(seed, GenConfig::default());
        let inputs = (0..48).map(|k| Input::Int((seed as i64 * 13 + k) % 41 - 20));
        cases.push((
            format!("gen[{seed}]"),
            ipds_ir::parse(&src).unwrap(),
            inputs.collect(),
        ));
    }
    for (idx, (name, p, inputs)) in cases.iter().enumerate() {
        let mut limits = ExecLimits::default();
        let mut i = Interp::new(p, inputs.clone(), limits);
        let mut flow = FlowRecorder::default();
        i.run(&mut flow);
        let mut reference = finish(&i, flow);
        assert!(
            matches!(reference.1, ExecStatus::Exited(_)),
            "{name}: {:?}",
            reference.1
        );
        if idx == 0 {
            // Exhaust the budget halfway through the run instead.
            limits.max_steps = reference.2 / 2;
            let mut i = Interp::new(p, inputs.clone(), limits);
            let mut flow = FlowRecorder::default();
            i.run(&mut flow);
            reference = finish(&i, flow);
            assert_eq!(reference.1, ExecStatus::OutOfBudget, "{name}");
            assert_eq!(reference.2, limits.max_steps + 1, "{name}");
        }
        for chunk in [1, 7, 64] {
            check_flags_do_not_change_execution(name, p, inputs, limits, chunk, &reference);
        }
    }
}
