//! The IR interpreter.
//!
//! Executes a [`Program`] against the flat [`Memory`] in one dispatch loop,
//! emitting events to an [`ExecObserver`]. [`Interp::run_steps`] stops after
//! any number of steps, which is what the attack injector needs: it runs to
//! a chosen instant, tampers a cell, and resumes.

use std::collections::VecDeque;

use ipds_ir::{Address, Builtin, Callee, Function, Inst, Operand, Program, Reg, Terminator, VarId};

use crate::memory::{MemSnapshot, Memory};
use crate::observer::ExecObserver;

/// One element of the program's input stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    /// Consumed by `read_int()`.
    Int(i64),
    /// Consumed by `read_str(dst, max)`.
    Str(String),
}

impl From<i64> for Input {
    fn from(v: i64) -> Self {
        Input::Int(v)
    }
}

impl From<&str> for Input {
    fn from(s: &str) -> Self {
        Input::Str(s.to_string())
    }
}

/// Why execution stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecStatus {
    /// Still runnable.
    Running,
    /// `main` returned or `exit(code)` was called.
    Exited(i64),
    /// A memory fault (wild or read-only write) terminated the program.
    Fault(String),
    /// The step budget ran out (treated as a hang).
    OutOfBudget,
}

/// Execution limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecLimits {
    /// Maximum interpreted steps (instructions + terminators).
    pub max_steps: u64,
    /// Maximum call depth.
    pub max_depth: usize,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            max_steps: 10_000_000,
            max_depth: 256,
        }
    }
}

/// Per-function PC layout: cumulative instruction offsets per block.
#[derive(Debug, Clone)]
struct PcMap {
    block_start: Vec<u64>,
}

impl PcMap {
    fn new(func: &Function) -> PcMap {
        let mut block_start = Vec::with_capacity(func.blocks.len());
        let mut off = 0u64;
        for b in &func.blocks {
            block_start.push(off);
            off += b.insts.len() as u64 + 1;
        }
        PcMap { block_start }
    }

    fn pc(&self, func: &Function, block: usize, idx: usize) -> u64 {
        func.pc_base + 4 * (self.block_start[block] + idx as u64)
    }
}

#[derive(Debug, PartialEq, Eq)]
struct Activation {
    func: u32,
    block: usize,
    idx: usize,
    regs: Vec<i64>,
    frame: usize,
    ret_dst: Option<Reg>,
}

impl Clone for Activation {
    fn clone(&self) -> Activation {
        Activation {
            func: self.func,
            block: self.block,
            idx: self.idx,
            regs: self.regs.clone(),
            frame: self.frame,
            ret_dst: self.ret_dst,
        }
    }

    // Snapshot captures clone the whole activation stack repeatedly; reusing
    // the register vectors keeps that allocation-free in steady state.
    fn clone_from(&mut self, src: &Activation) {
        self.func = src.func;
        self.block = src.block;
        self.idx = src.idx;
        self.regs.clone_from(&src.regs);
        self.frame = src.frame;
        self.ret_dst = src.ret_dst;
    }
}

/// A point-in-time copy of a *running* interpreter's mutable state (memory,
/// activation stack, remaining inputs, output, step count). Restoring one
/// via [`Interp::restore`] rewinds execution to exactly that instant — the
/// campaign warm-start engine uses mid-run golden snapshots to skip
/// re-executing the shared prefix of every attack.
#[derive(Debug, Clone, Default)]
pub struct InterpSnapshot {
    mem: MemSnapshot,
    stack: Vec<Activation>,
    inputs: VecDeque<Input>,
    output: Vec<i64>,
    steps: u64,
}

impl InterpSnapshot {
    /// The step count at which this snapshot was taken.
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

#[inline]
fn operand_of(act: &Activation, op: Operand) -> i64 {
    match op {
        Operand::Reg(r) => act.regs[r.0 as usize],
        Operand::Imm(v) => v,
    }
}

/// Resolves an address expression to an absolute cell address.
///
/// `Err(raw)` carries the computed address when it is negative — a
/// tampered or underflowed pointer. Callers turn that into a memory
/// fault: clamping it (the old behavior) silently aliased tampered
/// pointers onto cell 0, masking exactly the corruption the IPDS
/// exists to surface.
#[inline]
fn resolve_addr(mem: &Memory, act: &Activation, addr: &Address) -> Result<usize, i64> {
    let raw = match addr {
        Address::Var(v) => return Ok(mem.addr_of(act.frame, *v)),
        Address::Element { base, index } => {
            let b = mem.addr_of(act.frame, *base);
            let i = operand_of(act, *index);
            // Deliberately unchecked against the array bound: this is
            // the buffer-overflow surface. Positive overruns walk into
            // neighboring cells; negative ones are reported via `Err`.
            (b as i64).wrapping_add(i)
        }
        Address::Ptr { reg, offset } => act.regs[reg.0 as usize].wrapping_add(*offset),
    };
    usize::try_from(raw).map_err(|_| raw)
}

/// The interpreter.
#[derive(Debug)]
pub struct Interp<'a> {
    program: &'a Program,
    /// The simulated memory (public so the attack injector can tamper).
    pub mem: Memory,
    pcs: Vec<PcMap>,
    inputs: VecDeque<Input>,
    output: Vec<i64>,
    stack: Vec<Activation>,
    status: ExecStatus,
    steps: u64,
    limits: ExecLimits,
    /// Retired register vectors, recycled by calls so steady-state
    /// execution (and campaign reuse via [`Interp::reset`]) allocates no
    /// per-call register storage.
    reg_pool: Vec<Vec<i64>>,
    /// Builtin-call arguments, reused so builtins allocate no per-call
    /// argv.
    arg_scratch: Vec<i64>,
}

impl<'a> Interp<'a> {
    /// Creates an interpreter poised at the entry of `main`.
    ///
    /// # Panics
    ///
    /// Panics if the program has no `main`.
    pub fn new(
        program: &'a Program,
        inputs: impl IntoIterator<Item = Input>,
        limits: ExecLimits,
    ) -> Interp<'a> {
        let pcs = program.functions.iter().map(PcMap::new).collect();
        let mut interp = Interp {
            program,
            mem: Memory::new(program),
            pcs,
            inputs: inputs.into_iter().collect(),
            output: Vec::new(),
            stack: Vec::new(),
            status: ExecStatus::Running,
            steps: 0,
            limits,
            reg_pool: Vec::new(),
            arg_scratch: Vec::new(),
        };
        interp.enter_main();
        interp
    }

    /// Rewinds the interpreter to the entry of `main` with a fresh input
    /// stream, reusing every allocation already made (memory image, register
    /// vectors, output buffer). Equivalent to — but much cheaper than —
    /// constructing a new `Interp`.
    pub fn reset(&mut self, inputs: impl IntoIterator<Item = Input>) {
        self.mem.reset();
        self.inputs.clear();
        self.inputs.extend(inputs);
        self.output.clear();
        for act in self.stack.drain(..) {
            self.reg_pool.push(act.regs);
        }
        self.status = ExecStatus::Running;
        self.steps = 0;
        self.enter_main();
    }

    /// Pushes the activation of `main` (which takes no arguments) onto the
    /// empty stack.
    fn enter_main(&mut self) {
        let main = self.program.main().expect("program must define `main`");
        let frame = self.mem.push_frame(main);
        let mut regs = self.reg_pool.pop().unwrap_or_default();
        regs.clear();
        regs.resize(main.next_reg as usize, 0);
        self.stack.push(Activation {
            func: main.id.0,
            block: main.entry.index(),
            idx: 0,
            regs,
            frame,
            ret_dst: None,
        });
    }

    /// The current status.
    pub fn status(&self) -> &ExecStatus {
        &self.status
    }

    /// Steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Values printed so far (`print_int`; `print_str` pushes each cell).
    pub fn output(&self) -> &[i64] {
        &self.output
    }

    /// Current call depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Captures the interpreter's mutable state into `snap`, reusing its
    /// allocations (repeated captures into the same snapshot are
    /// allocation-free in steady state). Only meaningful while the status is
    /// [`ExecStatus::Running`].
    pub fn snapshot_into(&self, snap: &mut InterpSnapshot) {
        debug_assert_eq!(self.status, ExecStatus::Running, "snapshot of a dead run");
        self.mem.snapshot_into(&mut snap.mem);
        snap.stack.clone_from(&self.stack);
        snap.inputs.clone_from(&self.inputs);
        snap.output.clone_from(&self.output);
        snap.steps = self.steps;
    }

    /// True if the interpreter's live state equals the captured snapshot's —
    /// everything future execution depends on: step count, activation
    /// stack, remaining inputs and memory. Collected output is deliberately
    /// excluded: it is append-only and never read back, so it cannot
    /// influence the remaining run. Cheapest discriminators run first.
    pub fn state_eq(&self, snap: &InterpSnapshot) -> bool {
        self.steps == snap.steps
            && self.stack == snap.stack
            && self.inputs == snap.inputs
            && self.mem.state_eq(&snap.mem)
    }

    /// Like [`Interp::state_eq`], but memory only has to match on the cells
    /// set in `read_mask` (see [`Memory::state_eq_masked`]). The activation
    /// stack — including every live register — and the remaining input
    /// stream still compare exactly.
    pub fn state_eq_masked(&self, snap: &InterpSnapshot, read_mask: &[u64]) -> bool {
        self.steps == snap.steps
            && self.stack == snap.stack
            && self.inputs == snap.inputs
            && self.mem.state_eq_masked(&snap.mem, read_mask)
    }

    /// Captures the interpreter's mutable state (see
    /// [`Interp::snapshot_into`]).
    pub fn snapshot(&self) -> InterpSnapshot {
        let mut snap = InterpSnapshot::default();
        self.snapshot_into(&mut snap);
        snap
    }

    /// Rewinds the interpreter to a previously captured [`InterpSnapshot`]
    /// (taken from an interpreter over the *same* program). Equivalent to
    /// replaying the original run's first `snap.steps()` steps, but a few
    /// memcpys instead; existing allocations are reused.
    pub fn restore(&mut self, snap: &InterpSnapshot) {
        self.mem.restore(&snap.mem);
        while self.stack.len() > snap.stack.len() {
            let act = self.stack.pop().expect("len checked");
            self.reg_pool.push(act.regs);
        }
        for (i, src) in snap.stack.iter().enumerate() {
            if let Some(dst) = self.stack.get_mut(i) {
                dst.clone_from(src);
            } else {
                let mut regs = self.reg_pool.pop().unwrap_or_default();
                regs.clone_from(&src.regs);
                self.stack.push(Activation {
                    func: src.func,
                    block: src.block,
                    idx: src.idx,
                    regs,
                    frame: src.frame,
                    ret_dst: src.ret_dst,
                });
            }
        }
        self.inputs.clone_from(&snap.inputs);
        self.output.clone_from(&snap.output);
        self.steps = snap.steps;
        self.status = ExecStatus::Running;
    }

    /// Runs until exit/fault/budget, notifying `obs`.
    pub fn run<O: ExecObserver>(&mut self, obs: &mut O) -> ExecStatus {
        self.run_steps(u64::MAX, obs)
    }

    /// Runs at most `n` further steps.
    ///
    /// Every step goes through the interpreter's one dispatch loop, which
    /// leaves it only to finish a builtin call (already counted, arguments
    /// evaluated) before resuming. Any observer sees the same execution:
    /// its capability flags only decide which hooks fire.
    pub fn run_steps<O: ExecObserver>(&mut self, n: u64, obs: &mut O) -> ExecStatus {
        let target = self.steps.saturating_add(n);
        while self.status == ExecStatus::Running && self.steps < target {
            if let Some((builtin, dst, pc)) = self.dispatch(target, obs) {
                self.run_builtin(builtin, dst, pc, obs);
            }
        }
        self.status.clone()
    }

    /// The interpreter's dispatch loop: executes instructions, jumps,
    /// branches, direct calls and returns until it reaches `target` steps,
    /// a builtin call, or a terminal state. The function and basic-block
    /// references are resolved once per control transfer, not once per
    /// step.
    ///
    /// Each step is counted first (a budget overrun consumes the step and
    /// stops with [`ExecStatus::OutOfBudget`]); then
    /// [`ExecObserver::on_inst`] fires and the slot executes, reporting
    /// [`ExecObserver::on_mem`] before each load or store. Slot PCs are
    /// computed only for branches, builtin calls and observers whose
    /// capability flags ask for them, so for the campaign's observers both
    /// hooks compile away.
    ///
    /// A builtin call stops the loop with its step counted and its
    /// arguments in `arg_scratch`: it returns the builtin, its destination
    /// register and its PC for [`Interp::run_builtin`].
    fn dispatch<O: ExecObserver>(
        &mut self,
        target: u64,
        obs: &mut O,
    ) -> Option<(Builtin, Option<Reg>, u64)> {
        let program = self.program;
        let Interp {
            mem,
            pcs,
            stack,
            status,
            steps,
            limits,
            reg_pool,
            arg_scratch,
            ..
        } = self;
        'act: loop {
            let depth = stack.len();
            let Some(act) = stack.last_mut() else {
                // Only a restored frameless snapshot gets here; the step
                // exits like a return from `main`.
                *steps += 1;
                *status = if *steps > limits.max_steps {
                    ExecStatus::OutOfBudget
                } else {
                    ExecStatus::Exited(0)
                };
                return None;
            };
            let func = &program.functions[act.func as usize];
            let pcmap = &pcs[act.func as usize];
            loop {
                let bb = &func.blocks[act.block];
                while act.idx < bb.insts.len() {
                    if *steps >= target {
                        return None;
                    }
                    *steps += 1;
                    if *steps > limits.max_steps {
                        *status = ExecStatus::OutOfBudget;
                        return None;
                    }
                    if O::WANTS_INST {
                        obs.on_inst(pcmap.pc(func, act.block, act.idx));
                    }
                    match &bb.insts[act.idx] {
                        Inst::Const { dst, value } => act.regs[dst.0 as usize] = *value,
                        Inst::BinOp { dst, op, lhs, rhs } => {
                            let a = operand_of(act, *lhs);
                            let b = operand_of(act, *rhs);
                            act.regs[dst.0 as usize] = op.eval(a, b);
                        }
                        Inst::Cmp {
                            dst,
                            pred,
                            lhs,
                            rhs,
                        } => {
                            let a = operand_of(act, *lhs);
                            let b = operand_of(act, *rhs);
                            act.regs[dst.0 as usize] = pred.eval(a, b) as i64;
                        }
                        Inst::Load { dst, addr } => match resolve_addr(mem, act, addr) {
                            Ok(a) => {
                                if O::WANTS_MEM {
                                    obs.on_mem(pcmap.pc(func, act.block, act.idx), a, false);
                                }
                                act.regs[dst.0 as usize] = mem.load(a);
                            }
                            Err(raw) => {
                                *status = ExecStatus::Fault(format!(
                                    "load from out-of-bounds address {raw}"
                                ));
                                return None;
                            }
                        },
                        Inst::Store { addr, src } => match resolve_addr(mem, act, addr) {
                            Ok(a) => {
                                if O::WANTS_MEM {
                                    obs.on_mem(pcmap.pc(func, act.block, act.idx), a, true);
                                }
                                let v = operand_of(act, *src);
                                if !mem.store(a, v) {
                                    *status = ExecStatus::Fault(format!("store fault at cell {a}"));
                                    return None;
                                }
                            }
                            Err(raw) => {
                                *status = ExecStatus::Fault(format!(
                                    "store to out-of-bounds address {raw}"
                                ));
                                return None;
                            }
                        },
                        Inst::AddrOf { dst, base, offset } => {
                            let b = mem.addr_of(act.frame, *base);
                            let o = operand_of(act, *offset);
                            act.regs[dst.0 as usize] = (b as i64).wrapping_add(o);
                        }
                        Inst::Call {
                            dst,
                            callee: Callee::Builtin(b),
                            args,
                        } => {
                            arg_scratch.clear();
                            arg_scratch.extend(args.iter().map(|&a| operand_of(act, a)));
                            return Some((*b, *dst, pcmap.pc(func, act.block, act.idx)));
                        }
                        Inst::Call {
                            dst,
                            callee: Callee::Direct(fid),
                            args,
                        } => {
                            if depth >= limits.max_depth {
                                *status = ExecStatus::Fault("call stack overflow".into());
                                return None;
                            }
                            // Push the callee frame, store the arguments
                            // (frame cells were just allocated; those stores
                            // cannot fault), seed the register file from the
                            // pool.
                            let f = &program.functions[fid.0 as usize];
                            let frame = mem.push_frame(f);
                            for (i, &a) in args.iter().enumerate() {
                                let v = operand_of(act, a);
                                let addr = mem.addr_of(frame, VarId::local(i as u32));
                                let ok = mem.store(addr, v);
                                debug_assert!(ok);
                            }
                            let mut regs = reg_pool.pop().unwrap_or_default();
                            regs.clear();
                            regs.resize(f.next_reg as usize, 0);
                            act.idx += 1; // advance the caller past the call
                            stack.push(Activation {
                                func: fid.0,
                                block: f.entry.index(),
                                idx: 0,
                                regs,
                                frame,
                                ret_dst: *dst,
                            });
                            obs.on_call(*fid);
                            continue 'act;
                        }
                        // Executable programs are post-deconstruction by
                        // contract (the structural verifier rejects phis);
                        // fault rather than guess a predecessor.
                        Inst::Phi { .. } => {
                            *status = ExecStatus::Fault(
                                "phi reached the simulator (deconstruct-ssa must run first)".into(),
                            );
                            return None;
                        }
                    }
                    act.idx += 1;
                }
                if *steps >= target {
                    return None;
                }
                *steps += 1;
                if *steps > limits.max_steps {
                    *status = ExecStatus::OutOfBudget;
                    return None;
                }
                if O::WANTS_INST {
                    obs.on_inst(pcmap.pc(func, act.block, act.idx));
                }
                match &bb.term {
                    Terminator::Jump(t) => {
                        act.block = t.index();
                        act.idx = 0;
                    }
                    Terminator::Branch {
                        cond,
                        taken,
                        not_taken,
                    } => {
                        let pc = pcmap.pc(func, act.block, act.idx);
                        let dir = act.regs[cond.0 as usize] != 0;
                        let t = if dir { taken } else { not_taken };
                        act.block = t.index();
                        act.idx = 0;
                        obs.on_branch(pc, dir);
                    }
                    Terminator::Return(v) => {
                        let value = v.map(|op| operand_of(act, op));
                        let fin = stack.pop().expect("active frame");
                        mem.pop_frame();
                        if stack.is_empty() {
                            *status = ExecStatus::Exited(value.unwrap_or(0));
                            reg_pool.push(fin.regs);
                            return None;
                        }
                        obs.on_return();
                        // The caller's idx was already advanced past the
                        // call when the call executed.
                        if let Some(dst) = fin.ret_dst {
                            let caller = stack.len() - 1;
                            stack[caller].regs[dst.0 as usize] = value.unwrap_or(0);
                        }
                        reg_pool.push(fin.regs);
                        continue 'act;
                    }
                }
            }
        }
    }

    /// Finishes the builtin call [`Interp::dispatch`] stopped at: runs it
    /// on the arguments in `arg_scratch`, stores its result and advances
    /// the caller past the call. A fault or `exit` leaves the slot as is.
    fn run_builtin<O: ExecObserver>(
        &mut self,
        builtin: Builtin,
        dst: Option<Reg>,
        pc: u64,
        obs: &mut O,
    ) {
        let argv = std::mem::take(&mut self.arg_scratch);
        let result = self.exec_builtin(builtin, &argv, pc, obs);
        self.arg_scratch = argv;
        if self.status != ExecStatus::Running {
            return;
        }
        let act = self.stack.last_mut().expect("the caller frame");
        if let (Some(d), Some(v)) = (dst, result) {
            act.regs[d.0 as usize] = v;
        }
        act.idx += 1;
    }

    fn fault(&mut self, msg: impl Into<String>) {
        self.status = ExecStatus::Fault(msg.into());
    }

    /// Converts a builtin's pointer argument into a cell address, faulting
    /// on negative (tampered) values. `None` means the fault was recorded
    /// and the builtin must bail out.
    fn addr_arg(&mut self, what: &str, v: i64) -> Option<usize> {
        match usize::try_from(v) {
            Ok(a) => Some(a),
            Err(_) => {
                self.fault(format!("{what}: out-of-bounds address {v}"));
                None
            }
        }
    }

    fn read_cstr<O: ExecObserver>(
        &self,
        addr: usize,
        max: usize,
        pc: u64,
        obs: &mut O,
    ) -> Vec<i64> {
        let mut out = Vec::new();
        for i in 0..max {
            if O::WANTS_BUILTIN_READS {
                obs.on_mem(pc, addr + i, false);
            }
            let c = self.mem.load(addr + i);
            if c == 0 {
                break;
            }
            out.push(c);
        }
        out
    }

    fn exec_builtin<O: ExecObserver>(
        &mut self,
        b: Builtin,
        args: &[i64],
        pc: u64,
        obs: &mut O,
    ) -> Option<i64> {
        match b {
            Builtin::ReadInt => loop {
                match self.inputs.pop_front() {
                    Some(Input::Int(v)) => return Some(v),
                    Some(Input::Str(_)) => continue, // skip mismatched input
                    None => return Some(0),
                }
            },
            Builtin::ReadStr => {
                let dst = self.addr_arg("read_str", args[0])?;
                // A negative length reads nothing (only the NUL is written).
                let max = usize::try_from(args[1]).unwrap_or(0);
                let s = loop {
                    match self.inputs.pop_front() {
                        Some(Input::Str(s)) => break s,
                        Some(Input::Int(_)) => continue,
                        None => break String::new(),
                    }
                };
                // Unbounded against the real buffer: copies up to `max`
                // cells plus NUL. The caller passing a `max` larger than the
                // buffer is the classic overflow bug.
                let mut wrote = 0usize;
                for (i, c) in s.chars().take(max).enumerate() {
                    if O::WANTS_MEM {
                        obs.on_mem(pc, dst + i, true);
                    }
                    if !self.mem.store(dst + i, c as i64) {
                        self.fault(format!("read_str overflow fault at cell {}", dst + i));
                        return None;
                    }
                    wrote = i + 1;
                }
                if O::WANTS_MEM {
                    obs.on_mem(pc, dst + wrote, true);
                }
                if !self.mem.store(dst + wrote, 0) {
                    self.fault("read_str NUL fault");
                    return None;
                }
                Some(wrote as i64)
            }
            Builtin::PrintInt => {
                self.output.push(args[0]);
                None
            }
            Builtin::PrintStr => {
                let a = self.addr_arg("print_str", args[0])?;
                let s = self.read_cstr(a, 4096, pc, obs);
                self.output.extend(s);
                None
            }
            Builtin::StrCmp | Builtin::StrNCmp => {
                let limit = if b == Builtin::StrNCmp {
                    usize::try_from(args[2]).unwrap_or(0)
                } else {
                    4096
                };
                let lhs = self.addr_arg("strcmp", args[0])?;
                let rhs = self.addr_arg("strcmp", args[1])?;
                let a = self.read_cstr(lhs, limit, pc, obs);
                let c = self.read_cstr(rhs, limit, pc, obs);
                for i in 0..limit {
                    let x = a.get(i).copied().unwrap_or(0);
                    let y = c.get(i).copied().unwrap_or(0);
                    if x != y {
                        return Some(if x < y { -1 } else { 1 });
                    }
                    if x == 0 {
                        break;
                    }
                }
                Some(0)
            }
            Builtin::StrCpy => {
                let dst = self.addr_arg("strcpy", args[0])?;
                let from = self.addr_arg("strcpy", args[1])?;
                let src = self.read_cstr(from, 4096, pc, obs);
                for (i, &c) in src.iter().enumerate() {
                    if O::WANTS_MEM {
                        obs.on_mem(pc, dst + i, true);
                    }
                    if !self.mem.store(dst + i, c) {
                        self.fault(format!("strcpy fault at cell {}", dst + i));
                        return None;
                    }
                }
                if O::WANTS_MEM {
                    obs.on_mem(pc, dst + src.len(), true);
                }
                if !self.mem.store(dst + src.len(), 0) {
                    self.fault("strcpy NUL fault");
                }
                None
            }
            Builtin::StrLen => {
                let a = self.addr_arg("strlen", args[0])?;
                Some(self.read_cstr(a, 4096, pc, obs).len() as i64)
            }
            Builtin::Atoi => {
                let a = self.addr_arg("atoi", args[0])?;
                let s = self.read_cstr(a, 64, pc, obs);
                let text: String = s
                    .iter()
                    .map(|&c| char::from_u32(c as u32).unwrap_or('\0'))
                    .collect();
                Some(text.trim().parse::<i64>().unwrap_or(0))
            }
            Builtin::MemSet => {
                let dst = self.addr_arg("memset", args[0])?;
                let v = args[1];
                // A negative count writes nothing.
                let n = usize::try_from(args[2]).unwrap_or(0);
                for i in 0..n {
                    if O::WANTS_MEM {
                        obs.on_mem(pc, dst + i, true);
                    }
                    if !self.mem.store(dst + i, v) {
                        self.fault(format!("memset fault at cell {}", dst + i));
                        return None;
                    }
                }
                None
            }
            Builtin::MemCpy => {
                let dst = self.addr_arg("memcpy", args[0])?;
                let src = self.addr_arg("memcpy", args[1])?;
                let n = usize::try_from(args[2]).unwrap_or(0);
                for i in 0..n {
                    if O::WANTS_BUILTIN_READS {
                        obs.on_mem(pc, src + i, false);
                    }
                    let v = self.mem.load(src + i);
                    if O::WANTS_MEM {
                        obs.on_mem(pc, dst + i, true);
                    }
                    if !self.mem.store(dst + i, v) {
                        self.fault(format!("memcpy fault at cell {}", dst + i));
                        return None;
                    }
                }
                None
            }
            Builtin::Abs => Some(args[0].wrapping_abs()),
            Builtin::Exit => {
                self.status = ExecStatus::Exited(args[0]);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;

    fn run(src: &str, inputs: Vec<Input>) -> (ExecStatus, Vec<i64>) {
        let p = ipds_ir::parse(src).unwrap();
        let mut i = Interp::new(&p, inputs, ExecLimits::default());
        let s = i.run(&mut NullObserver);
        (s, i.output().to_vec())
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let (s, out) = run(
            "fn main() -> int { int i; int acc; acc = 0; \
             for (i = 1; i <= 5; i = i + 1) { acc = acc + i; } \
             print_int(acc); return acc; }",
            vec![],
        );
        assert_eq!(s, ExecStatus::Exited(15));
        assert_eq!(out, vec![15]);
    }

    #[test]
    fn inputs_and_branching() {
        let src = "fn main() -> int { int x; x = read_int(); \
                   if (x < 10) { print_int(1); } else { print_int(2); } return x; }";
        let (s, out) = run(src, vec![Input::Int(3)]);
        assert_eq!(s, ExecStatus::Exited(3));
        assert_eq!(out, vec![1]);
        let (_, out) = run(src, vec![Input::Int(30)]);
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn function_calls_and_returns() {
        let (s, out) = run(
            "fn sq(int v) -> int { return v * v; } \
             fn main() -> int { int r; r = sq(read_int()); print_int(r); return r; }",
            vec![Input::Int(7)],
        );
        assert_eq!(s, ExecStatus::Exited(49));
        assert_eq!(out, vec![49]);
    }

    #[test]
    fn recursion() {
        let (s, _) = run(
            "fn fib(int n) -> int { if (n < 2) { return n; } return fib(n-1) + fib(n-2); } \
             fn main() -> int { return fib(10); }",
            vec![],
        );
        assert_eq!(s, ExecStatus::Exited(55));
    }

    #[test]
    fn pointers_and_arrays() {
        let (s, _) = run(
            "fn bump(int *p) { *p = *p + 1; } \
             fn main() -> int { int a[3]; int i; \
             for (i = 0; i < 3; i = i + 1) { a[i] = i * 10; } \
             bump(&a[1]); return a[0] + a[1] + a[2]; }",
            vec![],
        );
        assert_eq!(s, ExecStatus::Exited(31)); // 0 + 11 + 20
    }

    #[test]
    fn string_builtins() {
        let (s, out) = run(
            "fn main() -> int { int buf[16]; int r; \
             strcpy(buf, \"admin\"); \
             r = strcmp(buf, \"admin\"); print_int(r); \
             r = strncmp(buf, \"adxxx\", 2); print_int(r); \
             r = strlen(buf); print_int(r); \
             return 0; }",
            vec![],
        );
        assert_eq!(s, ExecStatus::Exited(0));
        assert_eq!(out, vec![0, 0, 5]);
    }

    #[test]
    fn read_str_overflow_clobbers_neighbor() {
        // buf has 4 cells but read_str is allowed 8: the 5th char lands in
        // `flag` (and the NUL in `pad`).
        let (s, out) = run(
            "fn main() -> int { int buf[4]; int flag; int pad; flag = 0; pad = 1; \
             read_str(buf, 8); \
             if (flag == 0) { print_int(0); } else { print_int(1); } return flag; }",
            vec![Input::Str("AAAAZ".into())],
        );
        // 'Z' = 90 lands in flag.
        assert_eq!(s, ExecStatus::Exited('Z' as i64));
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn atoi_and_exit() {
        let (s, _) = run(
            "fn main() -> int { int buf[8]; read_str(buf, 7); exit(atoi(buf)); return 9; }",
            vec![Input::Str("42".into())],
        );
        assert_eq!(s, ExecStatus::Exited(42));
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let p = ipds_ir::parse("fn main() -> int { while (1 == 1) { } return 0; }").unwrap();
        let mut i = Interp::new(
            &p,
            vec![],
            ExecLimits {
                max_steps: 1000,
                max_depth: 64,
            },
        );
        assert_eq!(i.run(&mut NullObserver), ExecStatus::OutOfBudget);
    }

    #[test]
    fn stack_overflow_faults() {
        let p = ipds_ir::parse(
            "fn rec(int n) -> int { return rec(n + 1); } fn main() -> int { return rec(0); }",
        )
        .unwrap();
        let mut i = Interp::new(&p, vec![], ExecLimits::default());
        assert!(matches!(i.run(&mut NullObserver), ExecStatus::Fault(_)));
    }

    #[test]
    fn wild_store_faults() {
        let (s, _) = run(
            "fn main() -> int { int *p; p = 99999999; *p = 1; return 0; }",
            vec![],
        );
        assert!(matches!(s, ExecStatus::Fault(_)), "{s:?}");
    }

    #[test]
    fn negative_pointer_store_faults_instead_of_aliasing_cell_zero() {
        // Regression: `.max(0)` used to clamp this to address 0 and the
        // write landed on a live cell, silently masking the tampering.
        let (s, _) = run(
            "fn main() -> int { int *p; p = 0 - 5; *p = 1; return 0; }",
            vec![],
        );
        assert_eq!(
            s,
            ExecStatus::Fault("store to out-of-bounds address -5".into())
        );
    }

    #[test]
    fn negative_pointer_load_faults_instead_of_reading_zero() {
        // Regression: a clamped load used to quietly return cell 0.
        let (s, out) = run(
            "fn main() -> int { int *p; int v; p = 0 - 1; v = *p; print_int(v); return v; }",
            vec![],
        );
        assert_eq!(
            s,
            ExecStatus::Fault("load from out-of-bounds address -1".into())
        );
        assert!(out.is_empty(), "the faulting load must not produce output");
    }

    #[test]
    fn negative_array_index_faults() {
        let (s, _) = run(
            "fn main() -> int { int a[4]; int i; i = 0 - 100000; a[i] = 7; return 0; }",
            vec![],
        );
        assert!(
            matches!(&s, ExecStatus::Fault(m) if m.contains("out-of-bounds address")),
            "{s:?}"
        );
    }

    #[test]
    fn negative_builtin_pointer_faults() {
        let (s, _) = run(
            "fn main() -> int { int *p; p = 0 - 8; strcpy(p, \"x\"); return 0; }",
            vec![],
        );
        assert!(
            matches!(&s, ExecStatus::Fault(m) if m.contains("out-of-bounds address")),
            "{s:?}"
        );
        let (s, _) = run(
            "fn main() -> int { int *p; int n; p = 0 - 8; n = strlen(p); return n; }",
            vec![],
        );
        assert!(
            matches!(&s, ExecStatus::Fault(m) if m.contains("out-of-bounds address")),
            "{s:?}"
        );
    }

    #[test]
    fn negative_lengths_are_empty_not_wild() {
        // A negative count is a degenerate request, not a tampered address:
        // it copies/sets nothing and execution continues.
        let (s, out) = run(
            "fn main() -> int { int a[4]; int n; n = 0 - 3; \
             a[0] = 5; memset(a, 9, n); print_int(a[0]); return 0; }",
            vec![],
        );
        assert_eq!(s, ExecStatus::Exited(0));
        assert_eq!(out, vec![5], "memset with negative n must be a no-op");
    }

    #[test]
    fn observer_sees_branches_and_calls() {
        use crate::observer::BranchTrace;
        let p = ipds_ir::parse(
            "fn f() -> int { return 1; } \
             fn main() -> int { int x; x = read_int(); if (x < 5) { f(); } return 0; }",
        )
        .unwrap();
        let mut tr = BranchTrace::with_cap(0);
        let mut i = Interp::new(&p, vec![Input::Int(1)], ExecLimits::default());
        i.run(&mut tr);
        assert_eq!(tr.trace.len(), 1);
        assert!(tr.trace[0].1, "x < 5 taken");
    }
}
