//! PL008–PL013: translation validation of the compiled executor.
//!
//! PR 6 lowered codegen loop ASTs into flat bytecode with folded strided
//! accesses and a pooled chunk scheduler (`pluto-machine`'s `compile` /
//! `exec`). Until now all correctness evidence for that layer was
//! dynamic — the differential fuzz battery. This module extends the
//! analyzer's "re-prove from first principles" philosophy down to the
//! bytecode: a [`CompiledKernel`] is checked against its polyhedral
//! source of truth *without executing it*.
//!
//! Four independent checks:
//!
//! 1. **Access equivalence (PL008)** — walk the AST and the instruction
//!    stream in lockstep (loops, lets, guards, filters, leaves must line
//!    up structurally, bounds and conditions coefficient-for-
//!    coefficient), and at every statement leaf symbolically re-expand
//!    the IR access matrix composed with the leaf's arguments (`iters =
//!    args(loop variables, params)`), the array extents and the baked-in
//!    parameter values into `base + Σ stride·slot`, and compare it with
//!    the compiled access *summed with its hoisted invariant* (which
//!    the nearest enclosing loop must own, reading no slot written
//!    inside it). Any divergence — in the skeleton, a bound, a
//!    provenance record, a hoist, or a re-expanded access — is a
//!    miscompile.
//! 2. **Static bounds safety (PL009)** — the executor guards each raw
//!    load/store with a *flattened* offset check. Here we prove the
//!    check can never fire: for every access, the set of in-domain
//!    instances whose flat offset leaves `[0, len)` is proved empty
//!    (violation-set emptiness as in [`crate::bounds`]), with an
//!    ILP-sampled witness instance on failure. The offset is the
//!    row-major fold of the IR subscript rows — which PL008 ties to the
//!    compiled strides — with the compiled constant pulled back through
//!    the arguments, against the compiled length.
//! 3. **Dispatch partition soundness (PL010/PL011)** — the pooled
//!    scheduler carves each parallel dispatch's (possibly collapse-2)
//!    work list into chunks via [`pluto_machine::chunk_plan`]. PL010
//!    proves the plan a disjoint exact cover of the item list for every
//!    length/width in the practical envelope; PL011 proves no two
//!    *distinct work items* of a parallel dispatch can write the same
//!    array cell — a scheduler-level race check over the dispatch's
//!    compiled leaves, independent of the AST race detector (PL001: no
//!    dependence polyhedra are consulted; cell coincidence is encoded
//!    per array dimension, tied to the compiled strides by PL008). Item
//!    distinctness is `δ_r ≠ 0` at the dispatched scattering row `r`
//!    (or, for a collapsed pair, `(δ_r, δ_r2) ≠ (0, 0)`); the check is
//!    deliberately conservative in ignoring [`MIN_ITEMS_TO_ENLIST`]
//!    (tiny dispatches run inline today, but the partition must already
//!    be race-free).
//! 4. **Body-tape equivalence (PL012)** — every postfix body tape is
//!    decompiled on a symbolic stack back into an expression tree and
//!    compared node-for-node (literals bit-for-bit) with the IR
//!    statement body; `Iter(k)` reads the leaf's compiled argument `k`,
//!    which PL008 compares with the AST's.
//!
//! Plus one locality lint: **PL013** flags innermost compiled loops
//! whose minimum nonzero access stride exceeds 1 — no stride-1 stream
//! for the hardware prefetcher, the static counterpart of the cache
//! simulator's per-array miss attribution and the oracle hook for
//! intra-tile post-optimization.
//!
//! Cost shows up in profiles as the `analyze/bytecode` span and the
//! `analyze.bytecode_*` counters.

use crate::{Code, Diagnostic};
use pluto::Transformation;
use pluto_codegen::{AffExpr, Ast, Bound, CondRow};
use pluto_ir::{Access, Expr, Program};
use pluto_linalg::Int;
use pluto_machine::MIN_ITEMS_TO_ENLIST;
use pluto_machine::{BodyOp, CAccess, CAff, CBound, CCond, CompiledKernel, Instr};
use pluto_poly::ConstraintSet;
use std::collections::{BTreeMap, HashSet};

/// Everything the bytecode verifier consumes — borrowed views of the
/// pipeline's products, never mutated.
pub struct BytecodeInput<'a> {
    /// The source program (access matrices, bodies, arrays).
    pub program: &'a Program,
    /// The transformation the AST was generated from (domains and
    /// scattering rows for the instance-space proofs).
    pub transform: &'a Transformation,
    /// The AST the kernel was compiled from.
    pub ast: &'a Ast,
    /// The compiled kernel under audit.
    pub kernel: &'a CompiledKernel,
}

/// Team widths the PL010 cover sweep quantifies over (0 = coordinator
/// alone, up to 8 enlisted workers — beyond any machine this substrate
/// targets).
const COVER_MAX_WIDTH: usize = 8;

/// Work-list lengths the PL010 cover sweep quantifies over. Chunk
/// arithmetic is scale-free above `(width+1)·CHUNKS_PER_MEMBER`, so the
/// envelope comfortably covers the boundary cases.
const COVER_MAX_ITEMS: usize = 512;

/// Runs translation validation of `kernel` against its program,
/// transformation and AST. Returns *unsorted* findings; callers merging
/// into an [`analyze`](crate::analyze) run re-sort with
/// [`sort_diagnostics`](crate::sort_diagnostics).
pub fn check(input: &BytecodeInput) -> Vec<Diagnostic> {
    let _span = pluto_obs::span("bytecode");
    let mut diags = Vec::new();
    let ck = input.kernel;
    let prog = input.program;

    // Global shape: a desync here makes the lockstep walk meaningless.
    if ck.params.len() != prog.num_params()
        || ck.num_stmts != prog.stmts.len()
        || ck.extents.len() != prog.arrays.len()
    {
        diags.push(Diagnostic::new(
            Code::BytecodeDivergence,
            "kernel".into(),
            format!(
                "compiled kernel shape mismatch: {} params / {} stmts / {} arrays vs program's \
                 {} / {} / {}",
                ck.params.len(),
                ck.num_stmts,
                ck.extents.len(),
                prog.num_params(),
                prog.stmts.len(),
                prog.arrays.len()
            ),
        ));
        return diags;
    }

    let mut w = Walker {
        prog,
        ck,
        pc: 0,
        next_leaf: 0,
        par_depth: 0,
        loops: Vec::new(),
        leaves: Vec::new(),
        diags: Vec::new(),
        desynced: false,
        open: Vec::new(),
    };
    let mut path = String::new();
    if w.walk(input.ast, &mut path).is_ok() {
        if w.pc != ck.code.len() {
            w.desynced = true;
            w.diags.push(Diagnostic::new(
                Code::BytecodeDivergence,
                "kernel".into(),
                format!(
                    "bytecode has {} trailing instruction(s) past the AST (pc {} of {})",
                    ck.code.len() - w.pc,
                    w.pc,
                    ck.code.len()
                ),
            ));
        }
        if w.next_leaf != ck.leaves.len() {
            w.desynced = true;
            w.diags.push(Diagnostic::new(
                Code::BytecodeDivergence,
                "kernel".into(),
                format!(
                    "compiled kernel has {} leaves but the AST consumes {}",
                    ck.leaves.len(),
                    w.next_leaf
                ),
            ));
        }
    }
    let desynced = w.desynced;
    let loops = std::mem::take(&mut w.loops);
    let leaves = std::mem::take(&mut w.leaves);
    diags.append(&mut w.diags);

    // The instance-space and dispatch proofs need the AST↔leaf mapping
    // the walk established; skip them only on *structural* desync (a
    // mismatched access or tape doesn't invalidate the mapping).
    if !desynced {
        check_flat_bounds(input, &leaves, &mut diags);
        check_dispatches(input, &loops, &leaves, &mut diags);
        check_strides(input, &loops, &leaves, &mut diags);
    }
    diags
}

/// One loop met during the lockstep walk.
struct LoopRec {
    pc: usize,
    exit: usize,
    var: usize,
    name: String,
    parallel: bool,
    level: Option<usize>,
    /// Nested under another `parallel` loop (so never dispatched itself:
    /// team members execute it sequentially, or it is collapse-merged).
    under_parallel: bool,
    path: String,
}

/// One statement leaf met during the lockstep walk.
struct LeafRec {
    pc: usize,
    leaf: usize,
    stmt: usize,
    path: String,
    /// Write first, then reads in order (those PL008 could re-expand).
    accesses: Vec<AccRec>,
}

/// One access of a leaf, in the two spaces the later checks work in.
struct AccRec {
    what: String,
    array: u32,
    /// Statement space: the row-major fold of the IR subscript rows over
    /// the original iterators, and the compiled constant pulled back
    /// through the arguments (parameters at their compiled values).
    per_iter: Vec<Int>,
    base: Int,
    len: u32,
    /// Slot space: the compiled access with its hoist, slot → stride.
    strides: BTreeMap<usize, Int>,
}

/// A loop the walk is inside of.
struct OpenLoop {
    hoist: (u32, u32),
    /// Slots written while it runs: its variable, and every loop
    /// variable and `Let` inside its body.
    bound: Vec<usize>,
}

struct Walker<'a> {
    prog: &'a Program,
    ck: &'a CompiledKernel,
    pc: usize,
    next_leaf: usize,
    par_depth: usize,
    loops: Vec<LoopRec>,
    leaves: Vec<LeafRec>,
    diags: Vec<Diagnostic>,
    /// Structural divergence found — the AST↔bytecode mapping is void.
    desynced: bool,
    /// Enclosing loops, outermost first.
    open: Vec<OpenLoop>,
}

impl Walker<'_> {
    /// Records a structural divergence and aborts the walk.
    fn fail(&mut self, path: &str, msg: String) -> Result<(), ()> {
        self.desynced = true;
        self.diags.push(Diagnostic::new(
            Code::BytecodeDivergence,
            if path.is_empty() {
                "kernel".into()
            } else {
                path.to_string()
            },
            format!("{msg} (pc {})", self.pc),
        ));
        Err(())
    }

    fn walk(&mut self, ast: &Ast, path: &mut String) -> Result<(), ()> {
        match ast {
            Ast::Seq(v) => {
                for a in v {
                    self.walk(a, path)?;
                }
                Ok(())
            }
            Ast::Loop(l) => {
                let Some(Instr::Loop {
                    var,
                    lb,
                    ub,
                    parallel,
                    name,
                    exit,
                    hoist,
                }) = self.ck.code.get(self.pc).cloned()
                else {
                    return self.fail(
                        path,
                        format!("expected a Loop instruction for `{}`", l.name),
                    );
                };
                let saved = path.len();
                if !path.is_empty() {
                    path.push('/');
                }
                path.push_str(&l.name);
                if l.parallel {
                    path.push_str("[parallel]");
                }
                if var as usize != l.var || parallel != l.parallel {
                    let msg = format!(
                        "Loop instruction binds slot {var} (parallel: {parallel}), AST loop \
                         `{}` binds slot {} (parallel: {})",
                        l.name, l.var, l.parallel
                    );
                    return self.fail(path, msg);
                }
                if self.ck.names.get(name as usize).map(String::as_str) != Some(l.name.as_str()) {
                    return self.fail(path, format!("loop name table diverges at id {name}"));
                }
                if !self
                    .ck
                    .lower
                    .get(lb as usize)
                    .is_some_and(|b| bound_matches(b, &l.lb))
                {
                    return self.fail(path, "compiled lower bound diverges from the AST".into());
                }
                if !self
                    .ck
                    .upper
                    .get(ub as usize)
                    .is_some_and(|b| bound_matches(b, &l.ub))
                {
                    return self.fail(path, "compiled upper bound diverges from the AST".into());
                }
                match self.ck.provenance.loop_at(self.pc) {
                    Some(o) if o.level == l.level => {}
                    Some(o) => {
                        let msg = format!(
                            "loop provenance claims scattering level {:?}, AST says {:?}",
                            o.level, l.level
                        );
                        return self.fail(path, msg);
                    }
                    None => {
                        return self.fail(path, "loop has no provenance record".into());
                    }
                }
                self.loops.push(LoopRec {
                    pc: self.pc,
                    exit: exit as usize,
                    var: l.var,
                    name: l.name.clone(),
                    parallel: l.parallel,
                    level: l.level,
                    under_parallel: self.par_depth > 0,
                    path: path.clone(),
                });
                let top = self.pc;
                self.pc += 1;
                if l.parallel {
                    self.par_depth += 1;
                }
                self.open.push(OpenLoop {
                    hoist,
                    bound: vec![l.var],
                });
                self.walk(&l.body, path)?;
                let me = self.open.pop().expect("pushed above");
                self.check_hoists(&me, path);
                if let Some(outer) = self.open.last_mut() {
                    outer.bound.extend(me.bound);
                }
                if l.parallel {
                    self.par_depth -= 1;
                }
                match self.ck.code.get(self.pc) {
                    Some(Instr::LoopEnd { var: v, top: t })
                        if *v as usize == l.var && *t as usize == top =>
                    {
                        self.pc += 1;
                    }
                    _ => {
                        return self.fail(path, "expected the matching LoopEnd instruction".into());
                    }
                }
                if exit as usize != self.pc {
                    let msg = format!(
                        "Loop exit target {} does not point past LoopEnd ({})",
                        exit, self.pc
                    );
                    return self.fail(path, msg);
                }
                path.truncate(saved);
                Ok(())
            }
            Ast::Let {
                var,
                name,
                expr,
                body,
            } => {
                let Some(Instr::Let { var: v, expr: e }) = self.ck.code.get(self.pc).cloned()
                else {
                    return self.fail(path, format!("expected a Let instruction for `{name}`"));
                };
                let saved = path.len();
                if !path.is_empty() {
                    path.push('/');
                }
                path.push_str(name);
                if v as usize != *var {
                    let msg = format!("Let binds slot {v}, AST binds slot {var}");
                    return self.fail(path, msg);
                }
                if !self
                    .ck
                    .exprs
                    .get(e as usize)
                    .is_some_and(|c| aff_matches(c, expr))
                {
                    return self.fail(path, "compiled let expression diverges from the AST".into());
                }
                if let Some(l) = self.open.last_mut() {
                    l.bound.push(*var);
                }
                self.pc += 1;
                self.walk(body, path)?;
                path.truncate(saved);
                Ok(())
            }
            Ast::Guard { conds, body } => {
                let Some(Instr::Guard { lo, hi, exit }) = self.ck.code.get(self.pc).cloned() else {
                    return self.fail(path, "expected a Guard instruction".into());
                };
                self.check_conds(lo, hi, conds, path)?;
                self.pc += 1;
                self.walk(body, path)?;
                if exit as usize != self.pc {
                    let msg = format!(
                        "Guard exit target {} does not point past the body ({})",
                        exit, self.pc
                    );
                    return self.fail(path, msg);
                }
                Ok(())
            }
            Ast::Filter { stmt, conds, body } => {
                let Some(Instr::FilterEnter { stmt: s, lo, hi }) =
                    self.ck.code.get(self.pc).cloned()
                else {
                    return self.fail(path, "expected a FilterEnter instruction".into());
                };
                if s as usize != *stmt {
                    let msg = format!("FilterEnter gates statement {s}, AST gates {stmt}");
                    return self.fail(path, msg);
                }
                self.check_conds(lo, hi, conds, path)?;
                self.pc += 1;
                self.walk(body, path)?;
                match self.ck.code.get(self.pc) {
                    Some(Instr::FilterExit { stmt: s2 }) if *s2 as usize == *stmt => {
                        self.pc += 1;
                        Ok(())
                    }
                    _ => self.fail(path, "expected the matching FilterExit instruction".into()),
                }
            }
            Ast::Stmt { stmt, args } => self.leaf(*stmt, args, path),
        }
    }

    /// A loop sums its hoists once, on entry: each must exist and read
    /// no slot written while the loop runs.
    fn check_hoists(&mut self, l: &OpenLoop, path: &str) {
        for k in l.hoist.0..l.hoist.1 {
            let invariant = self
                .ck
                .hoists
                .get(k as usize)
                .is_some_and(|h| h.iter().all(|&(s, _)| !l.bound.contains(&(s as usize))));
            if !invariant {
                self.diags.push(Diagnostic::new(
                    Code::BytecodeDivergence,
                    path.to_string(),
                    format!(
                        "hoisted invariant {k} is missing or varies inside the loop that sums it"
                    ),
                ));
            }
        }
    }

    fn check_conds(&mut self, lo: u32, hi: u32, conds: &[CondRow], path: &str) -> Result<(), ()> {
        let got = self.ck.conds.get(lo as usize..hi as usize);
        let ok = got.is_some_and(|g| {
            g.len() == conds.len() && g.iter().zip(conds).all(|(c, r)| cond_matches(c, r))
        });
        if ok {
            Ok(())
        } else {
            self.fail(
                path,
                "compiled guard conditions diverge from the AST".into(),
            )
        }
    }

    fn leaf(&mut self, stmt: usize, args: &[AffExpr], path: &str) -> Result<(), ()> {
        let Some(Instr::Stmt { leaf }) = self.ck.code.get(self.pc).cloned() else {
            let name = &self.prog.stmts[stmt].name;
            return self.fail(path, format!("expected a Stmt instruction for `{name}`"));
        };
        let s = &self.prog.stmts[stmt];
        let leaf_path = if path.is_empty() {
            s.name.clone()
        } else {
            format!("{path}/{}", s.name)
        };
        if leaf as usize != self.next_leaf {
            let msg = format!(
                "leaf id {} out of lowering order (expected {})",
                leaf, self.next_leaf
            );
            return self.fail(&leaf_path, msg);
        }
        let Some(cl) = self.ck.leaves.get(leaf as usize) else {
            return self.fail(&leaf_path, format!("leaf id {leaf} out of range"));
        };
        if cl.stmt as usize != stmt {
            let msg = format!(
                "leaf compiled from statement {}, AST says {}",
                cl.stmt, stmt
            );
            return self.fail(&leaf_path, msg);
        }
        match self.ck.provenance.leaves.get(leaf as usize) {
            Some(o) if o.stmt == stmt && o.args == args => {}
            _ => {
                return self.fail(
                    &leaf_path,
                    "leaf provenance diverges from the AST leaf".into(),
                );
            }
        }
        let args_match = args.len() == s.num_iters()
            && cl.args.len() == args.len()
            && cl.args.iter().zip(args).all(|(c, a)| aff_matches(c, a));
        if !args_match {
            return self.fail(
                &leaf_path,
                "compiled statement arguments diverge from the AST leaf".into(),
            );
        }

        // (a) access equivalence — non-fatal: a wrong fold doesn't break
        // the structural mapping, so the remaining checks still run.
        let mut accesses = Vec::with_capacity(1 + s.reads.len());
        accesses.extend(self.check_access(&cl.write, &s.write, args, "write", &leaf_path));
        if cl.reads.len() != s.reads.len() {
            self.diags.push(Diagnostic::new(
                Code::BytecodeDivergence,
                leaf_path.clone(),
                format!(
                    "leaf has {} compiled reads, statement has {}",
                    cl.reads.len(),
                    s.reads.len()
                ),
            ));
        } else {
            for (i, (got, want)) in cl.reads.iter().zip(&s.reads).enumerate() {
                accesses.extend(self.check_access(
                    got,
                    want,
                    args,
                    &format!("read{i}"),
                    &leaf_path,
                ));
            }
        }
        pluto_obs::counters::ANALYZE_BYTECODE_ACCESSES.add(1 + s.reads.len() as u64);

        // (d) body-tape equivalence.
        pluto_obs::counters::ANALYZE_BYTECODE_TAPES.bump();
        match decompile(&cl.body, args.len()) {
            Ok(tree) => {
                if !expr_eq(&tree, &s.body) {
                    self.diags.push(Diagnostic::new(
                        Code::TapeDivergence,
                        leaf_path.clone(),
                        format!(
                            "postfix body tape decompiles to `{tree:?}`, statement body is `{:?}`",
                            s.body
                        ),
                    ));
                }
            }
            Err(why) => {
                self.diags.push(Diagnostic::new(
                    Code::TapeDivergence,
                    leaf_path.clone(),
                    format!("postfix body tape is malformed: {why}"),
                ));
            }
        }

        self.leaves.push(LeafRec {
            pc: self.pc,
            leaf: leaf as usize,
            stmt,
            path: leaf_path,
            accesses,
        });
        self.next_leaf += 1;
        self.pc += 1;
        Ok(())
    }

    /// Symbolically re-expands the IR access map, composed with the
    /// leaf's arguments, into the folded `base + Σ stride·slot` form
    /// (row-major, parameters at the compiled values) and compares it
    /// with what the compiler produced, hoisted part included. Returns
    /// the access in the forms PL009 and PL013 consume.
    fn check_access(
        &mut self,
        got: &CAccess,
        want: &Access,
        args: &[AffExpr],
        what: &str,
        path: &str,
    ) -> Option<AccRec> {
        let arr_name = &self.prog.arrays[want.array].name;
        let mut divergence = |msg: String| {
            self.diags.push(Diagnostic::new(
                Code::BytecodeDivergence,
                format!("{path}/{what}:{arr_name}"),
                msg,
            ));
        };
        if got.array as usize != want.array {
            divergence(format!(
                "compiled access targets array {}, source accesses `{arr_name}`",
                got.array
            ));
            return None;
        }
        let ext = &self.ck.extents[want.array];
        let np = self.prog.num_params();
        let n = args.len();
        if want.map.len() != ext.len() || want.map.iter().any(|r| r.len() != n + np + 1) {
            divergence("access rank diverges from the array extents".into());
            return None;
        }
        let param = |p: usize| self.ck.params[p] as Int;
        let mut rstride = vec![1 as Int; ext.len()];
        for k in (0..ext.len().saturating_sub(1)).rev() {
            rstride[k] = rstride[k + 1] * ext[k + 1] as Int;
        }
        // The fold over the statement's own iterators…
        let mut ir_base: Int = 0;
        let mut per_iter = vec![0 as Int; n];
        for (k, row) in want.map.iter().enumerate() {
            ir_base += row[n + np] * rstride[k];
            for p in 0..np {
                ir_base += row[n + p] * param(p) * rstride[k];
            }
            for d in 0..n {
                per_iter[d] += row[d] * rstride[k];
            }
        }
        // …and through the arguments onto slots.
        let mut base = ir_base;
        let mut expect: BTreeMap<usize, Int> = BTreeMap::new();
        for (arg, &c) in args.iter().zip(&per_iter) {
            base += c * arg.konst;
            for &(v, k) in &arg.terms {
                if v < np {
                    base += c * k * param(v);
                } else {
                    *expect.entry(v).or_insert(0) += c * k;
                }
            }
        }
        expect.retain(|_, c| *c != 0);
        let len: Int = ext.iter().map(|&e| e as Int).product::<Int>().max(1);

        let mut strides: BTreeMap<usize, Int> = BTreeMap::new();
        let owner = self.open.last().map_or((0, 0), |l| l.hoist);
        let hoisted: &[(u32, i64)] = match got.pre {
            None => &[],
            Some(k) if (owner.0..owner.1).contains(&k) && (k as usize) < self.ck.hoists.len() => {
                &self.ck.hoists[k as usize]
            }
            Some(k) => {
                divergence(format!(
                    "{what} access reads hoisted invariant {k}, which the nearest enclosing \
                     loop does not sum"
                ));
                return None;
            }
        };
        for &(slot, c) in got.strides.iter().chain(hoisted) {
            *strides.entry(slot as usize).or_insert(0) += c as Int;
        }
        strides.retain(|_, c| *c != 0);
        if got.base as Int != base || strides != expect || got.len as Int != len {
            divergence(format!(
                "{what} access to `{arr_name}` re-expands to {} but was compiled as {}",
                fmt_access(base, &expect, len),
                fmt_access(got.base as Int, &strides, got.len as Int)
            ));
        }
        Some(AccRec {
            what: what.to_string(),
            array: got.array,
            per_iter,
            base: ir_base + (got.base as Int - base),
            len: got.len,
            strides,
        })
    }
}

fn fmt_access(base: Int, strides: &BTreeMap<usize, Int>, len: Int) -> String {
    let mut s = format!("[{base}");
    for (slot, c) in strides {
        s.push_str(&format!(" + {c}·v{slot}"));
    }
    s.push_str(&format!(" : len {len}]"));
    s
}

fn aff_matches(c: &CAff, a: &AffExpr) -> bool {
    c.konst as Int == a.konst
        && c.div as Int == a.div
        && c.terms.len() == a.terms.len()
        && c.terms
            .iter()
            .zip(&a.terms)
            .all(|(&(v, k), &(av, ak))| v as usize == av && k as Int == ak)
}

fn bound_matches(c: &CBound, b: &Bound) -> bool {
    c.groups.len() == b.groups.len()
        && c.groups.iter().zip(&b.groups).all(|(cg, bg)| {
            cg.len() == bg.len() && cg.iter().zip(bg).all(|(x, y)| aff_matches(x, y))
        })
}

fn cond_matches(c: &CCond, r: &CondRow) -> bool {
    c.eq == r.eq
        && c.konst as Int == r.konst
        && c.terms.len() == r.terms.len()
        && c.terms
            .iter()
            .zip(&r.terms)
            .all(|(&(v, k), &(rv, rk))| v as usize == rv && k as Int == rk)
}

/// Decompiles a postfix tape back into an expression tree. `Iter(k)`
/// names iterator `k` of the statement's `n_iters`.
fn decompile(ops: &[BodyOp], n_iters: usize) -> Result<Expr, String> {
    let mut stack: Vec<Expr> = Vec::new();
    let bin = |stack: &mut Vec<Expr>, f: fn(Box<Expr>, Box<Expr>) -> Expr| {
        let b = stack.pop().ok_or("binary op underflows the stack")?;
        let a = stack.pop().ok_or("binary op underflows the stack")?;
        stack.push(f(Box::new(a), Box::new(b)));
        Ok::<(), String>(())
    };
    for op in ops {
        match *op {
            BodyOp::Read(k) => stack.push(Expr::Read(k as usize)),
            BodyOp::Lit(v) => stack.push(Expr::Lit(v)),
            BodyOp::Iter(k) if (k as usize) < n_iters => stack.push(Expr::Iter(k as usize)),
            BodyOp::Iter(k) => {
                return Err(format!("Iter {k} is not an iterator of the statement"));
            }
            BodyOp::Add => bin(&mut stack, Expr::Add)?,
            BodyOp::Sub => bin(&mut stack, Expr::Sub)?,
            BodyOp::Mul => bin(&mut stack, Expr::Mul)?,
            BodyOp::Div => bin(&mut stack, Expr::Div)?,
        }
    }
    match (stack.pop(), stack.is_empty()) {
        (Some(e), true) => Ok(e),
        (Some(_), false) => Err(format!("tape leaves {} extra value(s)", stack.len() + 1)),
        (None, _) => Err("tape leaves no value".into()),
    }
}

/// Structural equality with literals compared bit-for-bit (the engines'
/// bit-exactness contract makes `0.0 != -0.0` here deliberate).
fn expr_eq(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (Expr::Read(x), Expr::Read(y)) => x == y,
        (Expr::Iter(x), Expr::Iter(y)) => x == y,
        (Expr::Lit(x), Expr::Lit(y)) => x.to_bits() == y.to_bits(),
        (Expr::Add(ax, ay), Expr::Add(bx, by))
        | (Expr::Sub(ax, ay), Expr::Sub(bx, by))
        | (Expr::Mul(ax, ay), Expr::Mul(bx, by))
        | (Expr::Div(ax, ay), Expr::Div(bx, by)) => expr_eq(ax, bx) && expr_eq(ay, by),
        _ => false,
    }
}

/// The proof context over `[params…, 1]`: program `assume` constraints
/// with every parameter pinned to its compiled value.
fn pinned_ctx(prog: &Program, params: &[i64]) -> ConstraintSet {
    let np = prog.num_params();
    let mut ctx = prog.context.clone();
    for (p, &v) in params.iter().enumerate().take(np) {
        let mut row = vec![0 as Int; np + 1];
        row[p] = 1;
        row[np] = -(v as Int);
        ctx.add_eq(row);
    }
    ctx
}

/// PL009: proves every access's flattened offset stays inside `[0, len)`
/// for all in-domain instances of its statement.
fn check_flat_bounds(input: &BytecodeInput, leaves: &[LeafRec], diags: &mut Vec<Diagnostic>) {
    let prog = input.program;
    let t = input.transform;
    let np = prog.num_params();
    let ctx = pinned_ctx(prog, &input.kernel.params);
    // Split leaves compile the same statement (hence the same accesses)
    // many times; prove each distinct one once.
    type AccessKey = (usize, u32, Vec<Int>, Int, u32);
    let mut proven: HashSet<AccessKey> = HashSet::new();

    for lr in leaves {
        let s = lr.stmt;
        let nd = t.domains[s].num_vars() - np;
        let m = t.num_orig_dims[s];
        let base_set = t.domains[s].intersect(&ctx.insert_dims(0, nd));
        for acc in &lr.accesses {
            let what = &acc.what;
            if acc.per_iter.len() != m
                || !proven.insert((s, acc.array, acc.per_iter.clone(), acc.base, acc.len))
            {
                continue;
            }
            // Flat-offset row over the statement's augmented space
            // `[nd dims, params, 1]`: the fold lands on the trailing-m
            // original dims, the folded base is the constant.
            let mut row = vec![0 as Int; nd + np + 1];
            row[nd - m..nd].copy_from_slice(&acc.per_iter);
            row[nd + np] = acc.base;
            let arr_name = &prog.arrays[acc.array as usize].name;
            let offset_at = |point: &[Int]| -> Int {
                let mut v = row[nd + np];
                for (i, &x) in point.iter().enumerate().take(nd) {
                    v += row[i] * x;
                }
                v
            };
            let mut emit = |point: Vec<Int>, under: bool| {
                let val = offset_at(&point);
                let mut d = Diagnostic::new(
                    Code::BytecodeOob,
                    format!("{}/{}:{}[flat]", lr.path, what, arr_name),
                    format!(
                        "flattened offset of the {what} access to `{arr_name}` reaches {val} ({})",
                        if under {
                            "below 0".to_string()
                        } else {
                            format!("array length is {}", acc.len)
                        }
                    ),
                );
                for (i, name) in t.dim_names[s].iter().enumerate() {
                    d.witness.push((name.clone(), point[i]));
                }
                for (p, name) in prog.params.iter().enumerate() {
                    d.witness.push((name.clone(), point[nd + p]));
                }
                diags.push(d);
            };
            // Under-run: offset <= -1.
            let mut under = base_set.clone();
            let mut neg: Vec<Int> = row.iter().map(|&a| -a).collect();
            neg[nd + np] -= 1;
            under.add_ineq(neg);
            if let Some(point) = under.sample_point() {
                emit(point, true);
                continue;
            }
            // Over-run: offset >= len.
            let mut over = base_set.clone();
            let mut pos = row.clone();
            pos[nd + np] -= acc.len as Int;
            over.add_ineq(pos);
            if let Some(point) = over.sample_point() {
                emit(point, false);
            }
        }
    }
}

/// Validates that `plan` is a disjoint exact cover of the item list
/// `0..n_items`. Returns a PL010 diagnostic (path `dispatch`; callers
/// re-anchor it) naming the first uncovered, doubly-covered, or escaping
/// item. Public so golden tests can feed deliberately corrupted plans.
pub fn check_cover(n_items: usize, plan: &[(usize, usize)]) -> Option<Diagnostic> {
    let mut covered = vec![0u32; n_items];
    for (c, &(lo, hi)) in plan.iter().enumerate() {
        if lo > hi || hi > n_items {
            let mut d = Diagnostic::new(
                Code::ChunkCover,
                "dispatch".into(),
                format!("chunk {c} spans ({lo}, {hi}) which escapes the {n_items}-item work list"),
            );
            d.witness.push(("chunk".into(), c as Int));
            d.witness.push(("lo".into(), lo as Int));
            d.witness.push(("hi".into(), hi as Int));
            return Some(d);
        }
        for slot in &mut covered[lo..hi] {
            *slot += 1;
        }
    }
    for (i, &c) in covered.iter().enumerate() {
        if c != 1 {
            let mut d = Diagnostic::new(
                Code::ChunkCover,
                "dispatch".into(),
                format!(
                    "work item {i} of {n_items} is covered by {c} chunk(s) — the plan is not a \
                     disjoint exact cover"
                ),
            );
            d.witness.push(("item".into(), i as Int));
            d.witness.push(("chunks".into(), c as Int));
            return Some(d);
        }
    }
    None
}

/// PL010 + PL011 over every dispatch site (parallel loops not nested
/// under another parallel loop — exactly the loops `machine::exec`
/// routes to the pool).
fn check_dispatches(
    input: &BytecodeInput,
    loops: &[LoopRec],
    leaves: &[LeafRec],
    diags: &mut Vec<Diagnostic>,
) {
    let sites: Vec<&LoopRec> = loops
        .iter()
        .filter(|l| l.parallel && !l.under_parallel)
        .collect();
    if sites.is_empty() {
        return;
    }
    // PL010: the executor's chunk plan, proved a disjoint exact cover
    // for every work-list length and team width in the envelope. The
    // plan depends only on (length, width), so one sweep covers every
    // dispatch.
    let mut cover_fault: Option<Diagnostic> = None;
    'sweep: for width in 0..=COVER_MAX_WIDTH {
        for n in 1..=COVER_MAX_ITEMS {
            if let Some(d) = check_cover(n, &pluto_machine::chunk_plan(n, width)) {
                cover_fault = Some(d);
                break 'sweep;
            }
        }
    }
    let ctx = pinned_ctx(input.program, &input.kernel.params);
    for lp in sites {
        pluto_obs::counters::ANALYZE_BYTECODE_DISPATCHES.bump();
        if let Some(fault) = &cover_fault {
            let mut d = fault.clone();
            d.path = lp.path.clone();
            diags.push(d);
        }
        check_chunk_race(input, lp, loops, leaves, &ctx, diags);
    }
}

/// PL011: no two distinct work items of one parallel dispatch may write
/// the same array cell. Work items are iterations of the dispatched
/// loop's scattering row `r` (pairs of rows `(r, r2)` when the executor
/// collapse-merges the immediately nested parallel loop), so two
/// instances race when they agree on every outer row, differ at `r` (or
/// at `r2` with `δ_r = 0`), and their compiled write offsets coincide.
fn check_chunk_race(
    input: &BytecodeInput,
    lp: &LoopRec,
    loops: &[LoopRec],
    leaves: &[LeafRec],
    ctx: &ConstraintSet,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(r) = lp.level else {
        return; // domain-recovery loops are never marked parallel
    };
    let prog = input.program;
    let t = input.transform;
    let ck = input.kernel;
    let np = prog.num_params();
    // Mirror the executor's collapse-2 rule: the instruction directly
    // after the Loop is itself a parallel Loop ending one instruction
    // before this loop's LoopEnd. (Whether a run actually collapses
    // depends on `ParallelConfig::collapse`; checking the collapsed item
    // space is a strict superset of the uncollapsed one.)
    let r2 = match ck.code.get(lp.pc + 1) {
        Some(Instr::Loop {
            parallel: true,
            exit,
            ..
        }) if *exit as usize == lp.exit - 1 => loops
            .iter()
            .find(|o| o.pc == lp.pc + 1)
            .and_then(|o| o.level),
        _ => None,
    };
    let body: Vec<&LeafRec> = leaves
        .iter()
        .filter(|l| l.pc > lp.pc && l.pc < lp.exit)
        .collect();
    for (i, a) in body.iter().enumerate() {
        for b in &body[i..] {
            let wa = &ck.leaves[a.leaf].write;
            let wb = &ck.leaves[b.leaf].write;
            if wa.array != wb.array {
                continue;
            }
            if let Some(point) = overlap_witness(input, ctx, a, b, r, r2) {
                let mut d = Diagnostic::new(
                    Code::ChunkRace,
                    lp.path.clone(),
                    format!(
                        "two work items of parallel dispatch `{}` (scattering row c{}{}) can \
                         write the same cell of `{}` from {} and {}",
                        lp.name,
                        r + 1,
                        r2.map_or(String::new(), |x| format!(" collapsed with c{}", x + 1)),
                        prog.arrays[wa.array as usize].name,
                        prog.stmts[a.stmt].name,
                        prog.stmts[b.stmt].name,
                    ),
                );
                let nd_s = t.domains[a.stmt].num_vars() - np;
                let nd_t = t.domains[b.stmt].num_vars() - np;
                for (k, name) in t.dim_names[a.stmt].iter().enumerate() {
                    d.witness
                        .push((format!("{name}@{}", prog.stmts[a.stmt].name), point[k]));
                }
                for (k, name) in t.dim_names[b.stmt].iter().enumerate() {
                    d.witness.push((
                        format!("{name}'@{}", prog.stmts[b.stmt].name),
                        point[nd_s + k],
                    ));
                }
                for (p, name) in prog.params.iter().enumerate() {
                    d.witness.push((name.clone(), point[nd_s + nd_t + p]));
                }
                diags.push(d);
            }
        }
    }
}

/// Searches for a same-cell instance pair of leaves `a`/`b` in distinct
/// work items of the dispatch at row `r` (collapsed partner `r2`).
///
/// Cell coincidence is encoded per array dimension from the IR write
/// subscript rows rather than as one flattened compiled-stride equality:
/// PL008 proves the compiled strides are exactly the row-major fold of
/// those same rows, and with in-bounds subscripts (PL002/PL009) the
/// row-major fold is injective, so per-dimension equality and flat
/// equality coincide — while keeping the ILP coefficients small (a
/// single flat row carries extent-sized coefficients that thrash the
/// cut budget on tiled wavefront domains).
fn overlap_witness(
    input: &BytecodeInput,
    ctx: &ConstraintSet,
    a: &LeafRec,
    b: &LeafRec,
    r: usize,
    r2: Option<usize>,
) -> Option<Vec<Int>> {
    let prog = input.program;
    let t = input.transform;
    let np = prog.num_params();
    let (s, d) = (a.stmt, b.stmt);
    let nd_s = t.domains[s].num_vars() - np;
    let nd_t = t.domains[d].num_vars() - np;
    let (ms, mt) = (t.num_orig_dims[s], t.num_orig_dims[d]);
    let joint = nd_s + nd_t + np;
    let ws = &prog.stmts[s].write;
    let wd = &prog.stmts[d].write;
    if ws.array != wd.array || ws.map.len() != wd.map.len() {
        return None; // caller filters by array; rank mismatch is PL008's
    }

    let mut set = t.domains[s].insert_dims(nd_s, nd_t);
    set = set.intersect(&t.domains[d].insert_dims(0, nd_s));
    set = set.intersect(&ctx.insert_dims(0, nd_s + nd_t));
    // Same dispatch instance: every row outside the dispatched loop(s)
    // that encloses them is equal.
    for k in 0..r {
        set.add_eq(crate::race::distance_row(t, s, d, k, np));
    }
    // Same write cell: subscript rows (over `[orig dims, params, 1]`,
    // original dims at the tail of each endpoint's dim block) equal in
    // every array dimension.
    for (row_s, row_d) in ws.map.iter().zip(&wd.map) {
        let mut cell = vec![0 as Int; joint + 1];
        for j in 0..ms {
            cell[nd_s - ms + j] += row_s[j];
        }
        for j in 0..mt {
            cell[nd_s + nd_t - mt + j] -= row_d[j];
        }
        for p in 0..np {
            cell[nd_s + nd_t + p] += row_s[ms + p] - row_d[mt + p];
        }
        cell[joint] = row_s[ms + np] - row_d[mt + np];
        set.add_eq(cell);
    }

    let same_leaf = a.leaf == b.leaf;
    let delta_r = crate::race::distance_row(t, s, d, r, np);
    let feasible = |base: &ConstraintSet, row: &[Int], flip: bool| -> Option<Vec<Int>> {
        let mut probe = base.clone();
        let mut ineq: Vec<Int> = if flip {
            row.iter().map(|&x| -x).collect()
        } else {
            row.to_vec()
        };
        ineq[joint] -= 1;
        probe.add_ineq(ineq);
        probe.sample_point()
    };
    // Different outer item: δ_r >= 1 (and δ_r <= -1 for asymmetric
    // pairs; a same-leaf pair is symmetric under src/dst swap).
    if let Some(p) = feasible(&set, &delta_r, false) {
        return Some(p);
    }
    if !same_leaf {
        if let Some(p) = feasible(&set, &delta_r, true) {
            return Some(p);
        }
    }
    // Collapsed inner item: δ_r = 0 but δ_r2 != 0.
    if let Some(r2) = r2 {
        let mut inner = set.clone();
        inner.add_eq(delta_r);
        let delta_r2 = crate::race::distance_row(t, s, d, r2, np);
        if let Some(p) = feasible(&inner, &delta_r2, false) {
            return Some(p);
        }
        if !same_leaf {
            if let Some(p) = feasible(&inner, &delta_r2, true) {
                return Some(p);
            }
        }
    }
    None
}

/// PL013: innermost loops with no stride-1 access. The minimum nonzero
/// |stride| over every access in the loop body is the best case for the
/// hardware prefetcher; when even that exceeds 1, every iteration
/// changes cache line.
fn check_strides(
    input: &BytecodeInput,
    loops: &[LoopRec],
    leaves: &[LeafRec],
    diags: &mut Vec<Diagnostic>,
) {
    for lp in loops {
        // Innermost: no other loop strictly inside this one's region.
        if loops.iter().any(|o| o.pc > lp.pc && o.pc < lp.exit) {
            continue;
        }
        let mut min_nz: Option<Int> = None;
        let mut per_array: BTreeMap<u32, Vec<Int>> = BTreeMap::new();
        for lr in leaves.iter().filter(|l| l.pc > lp.pc && l.pc < lp.exit) {
            for acc in &lr.accesses {
                let stride = acc.strides.get(&lp.var).copied().unwrap_or(0);
                per_array.entry(acc.array).or_default().push(stride);
                if stride != 0 {
                    let s = stride.abs();
                    min_nz = Some(min_nz.map_or(s, |m| m.min(s)));
                }
            }
        }
        let Some(min) = min_nz else {
            continue; // every access is invariant in this loop
        };
        if min <= 1 {
            continue;
        }
        let strides: Vec<String> = per_array
            .iter()
            .map(|(arr, v)| {
                let vals: Vec<String> = v.iter().map(Int::to_string).collect();
                format!(
                    "{}: [{}]",
                    input.program.arrays[*arr as usize].name,
                    vals.join(", ")
                )
            })
            .collect();
        diags.push(Diagnostic::new(
            Code::NonUnitStride,
            lp.path.clone(),
            format!(
                "innermost loop `{}` has no stride-1 access (min nonzero stride {min}); \
                 per-array strides: {}",
                lp.name,
                strides.join("; ")
            ),
        ));
    }
}

// `MIN_ITEMS_TO_ENLIST` is referenced by the module docs; keep the
// import live even though the partition proof deliberately ignores it.
const _: usize = MIN_ITEMS_TO_ENLIST;
