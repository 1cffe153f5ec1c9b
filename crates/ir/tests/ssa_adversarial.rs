//! Adversarial CFG shapes for the SSA verifier.
//!
//! The in-crate unit tests cover the happy paths; this suite builds the
//! shapes that historically break SSA constructors — unreachable blocks,
//! self-loops, nested diamonds, loop-carried variables — and also mutates
//! well-formed SSA into broken states that `verify_ssa` must reject.

use ipds_ir::builder::assemble;
use ipds_ir::{
    build_ssa, deconstruct_ssa, mark_promoted, verify_ssa, BinOp, BlockId, FunctionBuilder, Inst,
    Operand, Pred, Program, Reg, Terminator, VarId,
};

/// Promotes everything, verifies the SSA form, deconstructs and verifies
/// the result is clean single-static-definition IR again.
fn promote_all_and_check(mut program: Program) -> Program {
    let form = build_ssa(&mut program, 100);
    mark_promoted(&mut program, &form);
    verify_ssa(&program).expect("SSA form verifies");
    deconstruct_ssa(&mut program, &form);
    ipds_ir::verify::verify_program(&program).expect("post-deconstruction IR verifies");
    program
}

#[test]
fn unreachable_blocks_with_promoted_uses_verify() {
    let mut b = FunctionBuilder::new("f", 0, true);
    let x = b.add_scalar("x");
    let exit = b.add_block();
    let dead = b.add_block();

    b.store_var(x, Operand::Imm(3));
    b.jump(exit);

    // Unreachable block both reads and writes the promoted variable.
    b.switch_to(dead);
    let v = b.load_var(x);
    let w = b.binop(BinOp::Add, v.into(), Operand::Imm(1));
    b.store_var(x, w.into());
    b.jump(exit);

    b.switch_to(exit);
    let r = b.load_var(x);
    b.ret(Some(r.into()));

    let program = assemble(Vec::new(), vec![b.finish()]).unwrap();
    promote_all_and_check(program);
}

#[test]
fn degenerate_branches_carry_reaching_values_down_a_chain() {
    // entry: x = 7; branch (both arms) -> mid
    // mid:   y = 9; branch (both arms) -> exit
    // exit:  return x + y
    // Each target has one predecessor reached over two edges: no phi, and
    // the predecessor's values must flow in rather than the zero initial
    // values.
    let mut b = FunctionBuilder::new("f", 0, true);
    let x = b.add_scalar("x");
    let y = b.add_scalar("y");
    let mid = b.add_block();
    let exit = b.add_block();

    b.store_var(x, Operand::Imm(7));
    let v = b.load_var(x);
    let c0 = b.cmp(Pred::Lt, v.into(), Operand::Imm(5));
    b.branch(c0, mid, mid);

    b.switch_to(mid);
    b.store_var(y, Operand::Imm(9));
    let w = b.load_var(y);
    let c1 = b.cmp(Pred::Gt, w.into(), Operand::Imm(5));
    b.branch(c1, exit, exit);

    b.switch_to(exit);
    let xv = b.load_var(x);
    let yv = b.load_var(y);
    let sum = b.binop(BinOp::Add, xv.into(), yv.into());
    b.ret(Some(sum.into()));

    let program = promote_all_and_check(assemble(Vec::new(), vec![b.finish()]).unwrap());
    let exit_block = &program.functions[0].blocks[exit.index()];
    assert!(
        exit_block.insts.iter().any(|i| matches!(
            i,
            Inst::BinOp {
                op: BinOp::Add,
                lhs: Operand::Imm(7),
                rhs: Operand::Imm(9),
                ..
            }
        )),
        "reaching values lost across degenerate branches: {exit_block:?}"
    );
}

#[test]
fn self_loop_carries_a_phi_that_references_itself() {
    // header: x = x - 1; if (x > 0) goto header else exit
    let mut b = FunctionBuilder::new("f", 0, true);
    let x = b.add_scalar("x");
    let header = b.add_block();
    let exit = b.add_block();

    b.store_var(x, Operand::Imm(10));
    b.jump(header);

    b.switch_to(header);
    let v = b.load_var(x);
    let dec = b.binop(BinOp::Sub, v.into(), Operand::Imm(1));
    b.store_var(x, dec.into());
    let c = b.cmp(Pred::Gt, dec.into(), Operand::Imm(0));
    b.branch(c, header, exit);

    b.switch_to(exit);
    let r = b.load_var(x);
    b.ret(Some(r.into()));

    let mut program = assemble(Vec::new(), vec![b.finish()]).unwrap();
    let form = build_ssa(&mut program, 100);
    mark_promoted(&mut program, &form);
    verify_ssa(&program).expect("self-loop SSA verifies");

    // The self-loop header needs a phi with two predecessor entries, one of
    // which is the header itself.
    let f = &program.functions[0];
    let header_phi = f
        .blocks
        .iter()
        .enumerate()
        .flat_map(|(i, bb)| bb.insts.iter().map(move |inst| (i, inst)))
        .find_map(|(i, inst)| match inst {
            Inst::Phi { args, .. } => Some((i, args.clone())),
            _ => None,
        })
        .expect("a phi exists");
    let (block_idx, args) = header_phi;
    assert_eq!(args.len(), 2, "entry pred + back edge");
    assert!(
        args.iter().any(|(p, _)| p.index() == block_idx),
        "one phi arm comes from the self edge"
    );

    deconstruct_ssa(&mut program, &form);
    ipds_ir::verify::verify_program(&program).unwrap();
}

#[test]
fn nested_diamonds_join_without_losing_definitions() {
    // Outer diamond whose then-arm is itself a diamond; x assigned on three
    // distinct paths and read at the join.
    let mut b = FunctionBuilder::new("f", 1, true);
    let p0 = VarId::local(0); // the parameter
    let x = b.add_scalar("x");
    let outer_t = b.add_block();
    let outer_f = b.add_block();
    let inner_t = b.add_block();
    let inner_f = b.add_block();
    let inner_join = b.add_block();
    let join = b.add_block();

    let pv = b.load_var(p0);
    let c0 = b.cmp(Pred::Gt, pv.into(), Operand::Imm(0));
    b.store_var(x, Operand::Imm(0));
    b.branch(c0, outer_t, outer_f);

    b.switch_to(outer_t);
    let pv2 = b.load_var(p0);
    let c1 = b.cmp(Pred::Gt, pv2.into(), Operand::Imm(10));
    b.branch(c1, inner_t, inner_f);

    b.switch_to(inner_t);
    b.store_var(x, Operand::Imm(1));
    b.jump(inner_join);

    b.switch_to(inner_f);
    b.store_var(x, Operand::Imm(2));
    b.jump(inner_join);

    b.switch_to(inner_join);
    b.jump(join);

    b.switch_to(outer_f);
    b.store_var(x, Operand::Imm(3));
    b.jump(join);

    b.switch_to(join);
    let r = b.load_var(x);
    b.ret(Some(r.into()));

    let program = assemble(Vec::new(), vec![b.finish()]).unwrap();
    let ssa = {
        let mut p = program.clone();
        let form = build_ssa(&mut p, 100);
        mark_promoted(&mut p, &form);
        verify_ssa(&p).unwrap();
        p
    };
    // The outer join merges the inner join's merged value with the else
    // arm's — at least two phis in total (inner join + outer join).
    let phi_count: usize = ssa.functions[0]
        .blocks
        .iter()
        .flat_map(|bb| bb.insts.iter())
        .filter(|i| matches!(i, Inst::Phi { .. }))
        .count();
    assert!(
        phi_count >= 2,
        "expected nested merges, got {phi_count} phis"
    );
    promote_all_and_check(program);
}

#[test]
fn variables_live_across_loop_back_edges_keep_their_values() {
    // acc defined before the loop, updated inside, read after: the header
    // phi must merge the preheader value with the back-edge value.
    let mut b = FunctionBuilder::new("f", 0, true);
    let i = b.add_scalar("i");
    let acc = b.add_scalar("acc");
    let header = b.add_block();
    let body = b.add_block();
    let exit = b.add_block();

    b.store_var(i, Operand::Imm(0));
    b.store_var(acc, Operand::Imm(100));
    b.jump(header);

    b.switch_to(header);
    let iv = b.load_var(i);
    let c = b.cmp(Pred::Lt, iv.into(), Operand::Imm(5));
    b.branch(c, body, exit);

    b.switch_to(body);
    let av = b.load_var(acc);
    let iv2 = b.load_var(i);
    let sum = b.binop(BinOp::Add, av.into(), iv2.into());
    b.store_var(acc, sum.into());
    let inc = b.binop(BinOp::Add, iv2.into(), Operand::Imm(1));
    b.store_var(i, inc.into());
    b.jump(header);

    b.switch_to(exit);
    let r = b.load_var(acc);
    b.ret(Some(r.into()));

    let program = assemble(Vec::new(), vec![b.finish()]).unwrap();
    let deconstructed = promote_all_and_check(program);
    // After deconstruction the loop-carried values still flow through
    // memory: the function must still store both variables on the back
    // edge path.
    let stores: usize = deconstructed.functions[0]
        .blocks
        .iter()
        .flat_map(|bb| bb.insts.iter())
        .filter(|i| matches!(i, Inst::Store { .. }))
        .count();
    assert!(stores >= 2, "loop-carried stores survive, got {stores}");
}

// ---- verifier rejection cases ------------------------------------------

/// A minimal diamond in valid SSA form, ready to be broken.
fn valid_ssa_diamond() -> (Program, ipds_ir::SsaForm) {
    let mut b = FunctionBuilder::new("f", 1, true);
    let p0 = VarId::local(0);
    let t = b.add_block();
    let f = b.add_block();
    let join = b.add_block();
    let x = b.add_scalar("x");

    let pv = b.load_var(p0);
    let c = b.cmp(Pred::Gt, pv.into(), Operand::Imm(0));
    b.branch(c, t, f);
    b.switch_to(t);
    b.store_var(x, Operand::Imm(1));
    b.jump(join);
    b.switch_to(f);
    b.store_var(x, Operand::Imm(2));
    b.jump(join);
    b.switch_to(join);
    let r = b.load_var(x);
    b.ret(Some(r.into()));

    let mut program = assemble(Vec::new(), vec![b.finish()]).unwrap();
    let form = build_ssa(&mut program, 100);
    mark_promoted(&mut program, &form);
    verify_ssa(&program).expect("fixture is valid SSA");
    (program, form)
}

fn first_phi_location(program: &Program) -> (usize, usize) {
    for (bi, bb) in program.functions[0].blocks.iter().enumerate() {
        for (ii, inst) in bb.insts.iter().enumerate() {
            if matches!(inst, Inst::Phi { .. }) {
                return (bi, ii);
            }
        }
    }
    panic!("fixture has no phi");
}

#[test]
fn rejects_a_phi_below_the_block_head() {
    let (mut program, _) = valid_ssa_diamond();
    let (bi, ii) = first_phi_location(&program);
    let func = &mut program.functions[0];
    let dst = Reg(func.next_reg);
    func.next_reg += 1;
    // Push a non-phi instruction above the phi.
    func.blocks[bi]
        .insts
        .insert(ii, Inst::Const { dst, value: 0 });
    assert!(verify_ssa(&program).is_err(), "phi below head must fail");
}

#[test]
fn rejects_phi_predecessors_that_disagree_with_the_cfg() {
    let (mut program, _) = valid_ssa_diamond();
    let (bi, ii) = first_phi_location(&program);
    if let Inst::Phi { args, .. } = &mut program.functions[0].blocks[bi].insts[ii] {
        args.remove(0); // drop one incoming edge
    }
    assert!(
        verify_ssa(&program).is_err(),
        "missing pred entry must fail"
    );
}

#[test]
fn rejects_duplicate_phi_predecessor_entries() {
    let (mut program, _) = valid_ssa_diamond();
    let (bi, ii) = first_phi_location(&program);
    if let Inst::Phi { args, .. } = &mut program.functions[0].blocks[bi].insts[ii] {
        args[1] = args[0]; // two entries for the same predecessor
    }
    assert!(verify_ssa(&program).is_err(), "duplicate pred must fail");
}

#[test]
fn rejects_stores_to_promoted_variables() {
    let (mut program, form) = valid_ssa_diamond();
    let promoted = *form
        .selected
        .values()
        .flat_map(|vs| vs.iter())
        .next()
        .expect("something was promoted");
    let entry = program.functions[0].entry;
    program.functions[0]
        .block_mut(entry)
        .insts
        .push(Inst::Store {
            addr: ipds_ir::Address::Var(promoted),
            src: Operand::Imm(9),
        });
    assert!(
        verify_ssa(&program).is_err(),
        "memory traffic on a promoted variable must fail"
    );
}

#[test]
fn rejects_uses_that_are_not_dominated_by_their_definition() {
    let (mut program, _) = valid_ssa_diamond();
    // Find a register defined in the then-arm (block 1) and use it from the
    // else-arm (block 2): neither dominates the other.
    let func = &mut program.functions[0];
    let then_def = func.blocks[1].insts.iter().find_map(|i| i.def());
    let Some(then_def) = then_def else {
        // Construction eliminated the arm's instructions entirely; build the
        // violation directly instead.
        let dst = Reg(func.next_reg);
        func.next_reg += 1;
        func.blocks[1].insts.push(Inst::Const { dst, value: 7 });
        func.blocks[2].insts.push(Inst::BinOp {
            dst: Reg(func.next_reg),
            op: BinOp::Add,
            lhs: Operand::Reg(dst),
            rhs: Operand::Imm(1),
        });
        func.next_reg += 1;
        assert!(verify_ssa(&program).is_err());
        return;
    };
    let dst = Reg(func.next_reg);
    func.next_reg += 1;
    func.blocks[2].insts.push(Inst::BinOp {
        dst,
        op: BinOp::Add,
        lhs: Operand::Reg(then_def),
        rhs: Operand::Imm(1),
    });
    assert!(
        verify_ssa(&program).is_err(),
        "cross-arm use without dominance must fail"
    );
}

#[test]
fn minic_programs_with_structs_survive_full_promotion() {
    // End-to-end: parse a struct-heavy MiniC program, promote everything,
    // verify, deconstruct, and confirm the promoted scalars left the BSV
    // surface while struct fields stayed memory resident.
    let src = "struct Acc { int sum; int n; }\n\
               fn add(struct Acc *a, int v) { a->sum = a->sum + v; a->n = a->n + 1; }\n\
               fn main() -> int {\n\
                 struct Acc acc; int i; int total;\n\
                 acc.sum = 0; acc.n = 0; total = 0;\n\
                 for (i = 0; i < 4; i = i + 1) { add(&acc, i); total = total + 1; }\n\
                 return acc.sum + acc.n + total;\n\
               }";
    let mut program = ipds_ir::parse(src).unwrap();
    let form = build_ssa(&mut program, 100);
    mark_promoted(&mut program, &form);
    verify_ssa(&program).unwrap();
    assert!(form.promoted > 0, "scalars i/total/v promote");
    deconstruct_ssa(&mut program, &form);
    ipds_ir::verify::verify_program(&program).unwrap();
}

#[test]
fn dead_code_behind_returns_does_not_break_construction() {
    // MiniC parks post-return statements in unreachable blocks; promotion
    // must tolerate those orphans at every budget.
    let src = "fn main() -> int {\n\
                 int x; x = read_int();\n\
                 if (x > 0) { return 1; }\n\
                 while (x < 10) { x = x + 1; if (x == 5) { break; } continue; }\n\
                 return x;\n\
               }";
    for pct in [25, 50, 75, 100] {
        let mut program = ipds_ir::parse(src).unwrap();
        let form = build_ssa(&mut program, pct);
        mark_promoted(&mut program, &form);
        verify_ssa(&program).unwrap_or_else(|e| panic!("pct {pct}: {e}"));
        deconstruct_ssa(&mut program, &form);
        ipds_ir::verify::verify_program(&program).unwrap();
    }
}

#[test]
fn terminator_shapes_stay_intact_across_the_window() {
    let (program, _) = valid_ssa_diamond();
    for bb in &program.functions[0].blocks {
        match &bb.term {
            Terminator::Branch {
                taken, not_taken, ..
            } => {
                assert_ne!(taken, not_taken, "degenerate branch");
            }
            Terminator::Jump(BlockId(_)) | Terminator::Return(_) => {}
        }
    }
}
