//! Control overhead per point (Kong & Pouchet), counted: a walk of a
//! compiled kernel's control flow alone — no memory, no clock — tallying
//! how often a sequential run does each kind of control work. The counts
//! are exact, so CI gates them and `bench_diff` diffs them untimed.

use crate::compile::{CAccess, CBound, CCond, CompiledKernel, Instr};

/// What one sequential execution of a kernel evaluates, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlMix {
    /// Loop headers evaluated (bounds computed, empty or not).
    pub loop_entries: u64,
    /// Loop iterations run (`LoopEnd`s executed).
    pub iterations: u64,
    /// Affine operands evaluated inside loop bounds…
    pub bound_operands: u64,
    /// …and the variable terms inside those operands.
    pub bound_terms: u64,
    /// Variable terms summed into hoisted access invariants at loop entry.
    pub hoist_terms: u64,
    /// `Let` bindings executed.
    pub lets: u64,
    /// Guard and filter rows evaluated (up to the first failing one).
    pub cond_rows: u64,
    /// Leaves reached while their statement was filtered out.
    pub suppressed: u64,
    /// Statement instances executed.
    pub instances: u64,
    /// Variable terms evaluated in the accesses of executed instances.
    pub access_terms: u64,
    /// Body-tape operations of executed instances.
    pub body_ops: u64,
}

impl ControlMix {
    /// Every count under its name, in declaration order.
    pub fn fields(&self) -> [(&'static str, u64); 11] {
        [
            ("loop_entries", self.loop_entries),
            ("iterations", self.iterations),
            ("bound_operands", self.bound_operands),
            ("bound_terms", self.bound_terms),
            ("hoist_terms", self.hoist_terms),
            ("lets", self.lets),
            ("cond_rows", self.cond_rows),
            ("suppressed", self.suppressed),
            ("instances", self.instances),
            ("access_terms", self.access_terms),
            ("body_ops", self.body_ops),
        ]
    }

    fn bound(&mut self, b: &CBound) {
        for e in b.groups.iter().flatten() {
            self.bound_operands += 1;
            self.bound_terms += e.terms.len() as u64;
        }
    }

    /// Evaluates a conjunction the way the engine does, counting rows.
    fn all_hold(&mut self, conds: &[CCond], vals: &[i64]) -> bool {
        conds.iter().all(|c| {
            self.cond_rows += 1;
            c.holds(vals)
        })
    }
}

/// Walks `ck` as [`run_compiled_kernel`](crate::run_compiled_kernel)
/// would (parallel markers ignored) and returns the counts.
pub fn control_mix(ck: &CompiledKernel) -> ControlMix {
    let mut mix = ControlMix::default();
    let mut vals = vec![0i64; ck.num_slots];
    vals[..ck.params.len()].copy_from_slice(&ck.params);
    let mut ubs: Vec<i64> = Vec::new();
    let mut fstack: Vec<bool> = Vec::new();
    let mut suppressed = vec![0u32; ck.num_stmts];
    let terms = |a: &CAccess| a.strides.len() as u64;
    let mut pc = 0;
    while pc < ck.code.len() {
        match &ck.code[pc] {
            Instr::Loop {
                var,
                lb,
                ub,
                exit,
                hoist,
                ..
            } => {
                let (lb, ub) = (&ck.lower[*lb as usize], &ck.upper[*ub as usize]);
                mix.loop_entries += 1;
                mix.bound(lb);
                mix.bound(ub);
                let (lo, hi) = (lb.eval_lower(&vals), ub.eval_upper(&vals));
                if lo > hi {
                    pc = *exit as usize;
                    continue;
                }
                for h in &ck.hoists[hoist.0 as usize..hoist.1 as usize] {
                    mix.hoist_terms += h.len() as u64;
                }
                vals[*var as usize] = lo;
                ubs.push(hi);
            }
            Instr::LoopEnd { var, top } => {
                mix.iterations += 1;
                vals[*var as usize] += 1;
                if vals[*var as usize] <= *ubs.last().expect("open loop frame") {
                    pc = *top as usize;
                } else {
                    ubs.pop();
                }
            }
            Instr::Let { var, expr } => {
                mix.lets += 1;
                vals[*var as usize] = ck.exprs[*expr as usize].eval_floor(&vals);
            }
            Instr::Guard { lo, hi, exit } => {
                if !mix.all_hold(&ck.conds[*lo as usize..*hi as usize], &vals) {
                    pc = *exit as usize;
                    continue;
                }
            }
            Instr::FilterEnter { stmt, lo, hi } => {
                let pass = mix.all_hold(&ck.conds[*lo as usize..*hi as usize], &vals);
                fstack.push(pass);
                suppressed[*stmt as usize] += u32::from(!pass);
            }
            Instr::FilterExit { stmt } => {
                let pass = fstack.pop().expect("open filter frame");
                suppressed[*stmt as usize] -= u32::from(!pass);
            }
            Instr::Stmt { leaf } => {
                let l = &ck.leaves[*leaf as usize];
                if suppressed[l.stmt as usize] != 0 {
                    mix.suppressed += 1;
                } else {
                    mix.instances += 1;
                    mix.access_terms += terms(&l.write) + l.reads.iter().map(terms).sum::<u64>();
                    mix.body_ops += l.body.len() as u64;
                }
            }
        }
        pc += 1;
    }
    mix
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::scale_program;
    use crate::{compile_kernel, run_compiled_kernel, Arrays};
    use pluto_codegen::{generate, original_schedule};

    #[test]
    fn counts_one_loop() {
        let prog = scale_program();
        let ast = generate(&prog, &original_schedule(&prog));
        let mut arrays = Arrays::new(vec![vec![8], vec![8]]);
        let ck = compile_kernel(&prog, &ast, &[8], &arrays);
        let mix = control_mix(&ck);
        assert_eq!(
            mix.instances,
            run_compiled_kernel(&ck, &mut arrays).instances
        );
        assert_eq!(
            mix,
            ControlMix {
                loop_entries: 1,
                iterations: 8,
                bound_operands: 2,
                bound_terms: 1,
                instances: 8,
                access_terms: 16,
                body_ops: 24,
                ..ControlMix::default()
            }
        );
    }
}
