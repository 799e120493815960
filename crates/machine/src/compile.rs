//! The kernel compiler: lowers a generated loop [`Ast`] once into flat
//! bytecode so execution never re-walks the tree or re-evaluates access
//! matrices per instance.
//!
//! Three things are precomputed at compile time, all per the paper's
//! observation that transformed code must stay cheap at runtime:
//!
//! * **Control flow** becomes a flat `Vec<Instr>` interpreted with a
//!   program counter and a loop-frame stack — no recursion, no
//!   `match` on boxed children per node visit.
//! * **Affine accesses** are folded into strided address polynomials:
//!   the row-major offset `Σ_k row_k(iters, params) · Π_{j>k} extent_j`,
//!   composed with the leaf's statement arguments (`iters = args(loop
//!   variables, params)`), is expanded once into `base + Σ stride ·
//!   vals[loop slot]`, with the parameter contribution folded into
//!   `base` (the executable parameters are known at compile time). The
//!   inner loop is adds and multiplies on `i64`, not matrix evaluation
//!   on `i128` — and nothing binds the iterators per instance.
//! * **Innermost-loop invariants are hoisted**: in a loop with no loop
//!   inside, the terms of each access over slots the loop body never
//!   writes are summed once at loop entry ([`CompiledKernel::hoists`]),
//!   leaving `base + pre + stride · v` per instance.
//! * **Statement bodies** become postfix op tapes evaluated on a small
//!   stack. Postfix order is the post-order of the expression tree, so
//!   the f64 operation order — and therefore the result bits — is
//!   identical to the tree-walk interpreter's recursive evaluation.
//!
//! Bounds/guard/let expressions are mirrored into `i64` (`Int = i128`
//! in the rest of the workspace); iteration coordinates and extents at
//! executable sizes are far below `i64` range. Memory safety of the
//! raw-pointer parallel backend is enforced by a per-access check of
//! the *flattened* offset against the array length; the per-subscript
//! range check (which distinguishes "wrapped into the neighboring row"
//! from a true out-of-bounds) remains with the tree-walk interpreter
//! and the static bounds prover, which the differential battery runs
//! against this engine on every fuzz kernel.

use crate::arrays::Arrays;
use pluto_codegen::{AffExpr, Ast, Bound, CondRow};
use pluto_ir::{Expr, Program};

/// An affine expression over variable slots, in `i64`.
///
/// Fields are public so the static bytecode verifier
/// (`pluto-analyze`'s `bytecode` module) can compare compiled
/// expressions coefficient-by-coefficient against their AST source —
/// and so golden tests can corrupt them to prove the checks fire.
#[derive(Debug, Clone)]
pub struct CAff {
    /// `(variable slot, coefficient)` pairs.
    pub terms: Vec<(u32, i64)>,
    /// Constant term.
    pub konst: i64,
    /// Divisor (`>= 1`; rounding direction decided by context).
    pub div: i64,
}

impl CAff {
    fn from_ast(e: &AffExpr) -> CAff {
        CAff {
            terms: e
                .terms
                .iter()
                .map(|&(v, c)| (v as u32, narrow(c)))
                .collect(),
            konst: narrow(e.konst),
            div: narrow(e.div),
        }
    }

    #[inline]
    pub(crate) fn numer(&self, vals: &[i64]) -> i64 {
        let mut v = self.konst;
        for &(var, c) in &self.terms {
            v += c * vals[var as usize];
        }
        v
    }

    /// `floord` evaluation (`div >= 1` by construction).
    #[inline]
    pub(crate) fn eval_floor(&self, vals: &[i64]) -> i64 {
        let n = self.numer(vals);
        if self.div == 1 {
            n
        } else {
            n.div_euclid(self.div)
        }
    }

    /// `ceild` evaluation.
    #[inline]
    fn eval_ceil(&self, vals: &[i64]) -> i64 {
        let n = self.numer(vals);
        if self.div == 1 {
            n
        } else {
            -(-n).div_euclid(self.div)
        }
    }
}

/// A loop bound: min-of-max (`ceild`) lower, max-of-min (`floord`) upper.
#[derive(Debug, Clone)]
pub struct CBound {
    /// One inner list per contributing statement (mirrors
    /// [`Bound::groups`]).
    pub groups: Vec<Vec<CAff>>,
}

impl CBound {
    fn from_ast(b: &Bound) -> CBound {
        CBound {
            groups: b
                .groups
                .iter()
                .map(|g| g.iter().map(CAff::from_ast).collect())
                .collect(),
        }
    }

    #[inline]
    pub(crate) fn eval_lower(&self, vals: &[i64]) -> i64 {
        self.groups
            .iter()
            .map(|g| {
                g.iter()
                    .map(|e| e.eval_ceil(vals))
                    .max()
                    .expect("empty max")
            })
            .min()
            .expect("unbounded lower bound")
    }

    #[inline]
    pub(crate) fn eval_upper(&self, vals: &[i64]) -> i64 {
        self.groups
            .iter()
            .map(|g| {
                g.iter()
                    .map(|e| e.eval_floor(vals))
                    .min()
                    .expect("empty min")
            })
            .max()
            .expect("unbounded upper bound")
    }
}

/// A guard/filter condition row: `Σ terms + konst >= 0` (or `== 0`).
#[derive(Debug, Clone)]
pub struct CCond {
    /// `(variable slot, coefficient)` pairs.
    pub terms: Vec<(u32, i64)>,
    /// Constant term.
    pub konst: i64,
    /// Equality instead of `>=`.
    pub eq: bool,
}

impl CCond {
    fn from_ast(c: &CondRow) -> CCond {
        CCond {
            terms: c
                .terms
                .iter()
                .map(|&(v, k)| (v as u32, narrow(k)))
                .collect(),
            konst: narrow(c.konst),
            eq: c.eq,
        }
    }

    #[inline]
    pub(crate) fn holds(&self, vals: &[i64]) -> bool {
        let mut v = self.konst;
        for &(var, c) in &self.terms {
            v += c * vals[var as usize];
        }
        if self.eq {
            v == 0
        } else {
            v >= 0
        }
    }

    #[inline]
    pub(crate) fn all_hold(conds: &[CCond], vals: &[i64]) -> bool {
        conds.iter().all(|c| c.holds(vals))
    }
}

/// One strided affine access: `off = base + pre + Σ stride · vals[slot]`,
/// valid iff `0 <= off < len` (checked by the executor before the raw
/// load/store).
#[derive(Debug, Clone)]
pub struct CAccess {
    /// Array id in the program.
    pub array: u32,
    /// Constant offset (parameter and constant contributions of the
    /// access and of the statement arguments folded in).
    pub base: i64,
    /// `(variable slot, stride)` pairs evaluated per instance, over loop
    /// variables (and surviving `Let`s) once composed with the leaf's
    /// arguments; with `pre` set, only those varying in the innermost loop.
    pub strides: Vec<(u32, i64)>,
    /// Index into [`CompiledKernel::hoists`] of this access's
    /// loop-invariant terms, summed once per entry of the innermost
    /// enclosing loop.
    pub pre: Option<u32>,
    /// Flattened array length the offset is checked against.
    pub len: u32,
}

impl CAccess {
    /// Flattened offset; panics (like the tree-walk interpreter's
    /// subscript assert) when the access leaves the array.
    #[inline]
    pub(crate) fn offset(&self, vals: &[i64], pre: &[i64]) -> usize {
        let mut off = self.base + self.pre.map_or(0, |k| pre[k as usize]);
        for &(slot, s) in &self.strides {
            off += s * vals[slot as usize];
        }
        assert!(
            off >= 0 && (off as u64) < self.len as u64,
            "array {}: flattened offset {off} out of 0..{}",
            self.array,
            self.len
        );
        off as usize
    }
}

/// One postfix statement-body operation.
#[derive(Debug, Clone, Copy)]
pub enum BodyOp {
    /// Push the value loaded for read access `k`.
    Read(u16),
    /// Push a literal.
    Lit(f64),
    /// Push iterator `k` of the statement as `f64`: the leaf's argument
    /// [`CStmt::args`]`[k]` evaluated at the current loop variables.
    Iter(u32),
    Add,
    Sub,
    Mul,
    Div,
}

/// One compiled statement leaf: strided accesses plus the body tape.
#[derive(Debug, Clone)]
pub struct CStmt {
    /// Statement id (indexes the suppression counters).
    pub stmt: u32,
    /// The folded write access.
    pub write: CAccess,
    /// Folded read accesses, in statement-read order.
    pub reads: Vec<CAccess>,
    /// The statement's iterators over the slots ([`BodyOp::Iter`] reads one).
    pub args: Vec<CAff>,
    /// Postfix body tape (post-order of the expression tree).
    pub body: Vec<BodyOp>,
    /// Flops per executed instance (for [`ExecStats`](crate::ExecStats)).
    pub flops: u64,
}

/// Flat bytecode instruction. `exit` indices point past the matching
/// [`Instr::LoopEnd`] / guarded region, so a failed bound or guard is a
/// single `pc` assignment.
#[derive(Debug, Clone)]
pub enum Instr {
    /// Enter a loop: evaluate bounds, bind `var`, push the upper bound
    /// on the frame stack — or jump to `exit` when empty.
    Loop {
        var: u32,
        lb: u32,
        ub: u32,
        parallel: bool,
        /// Display name id (for dispatch records and trace spans).
        name: u32,
        exit: u32,
        /// Range `[lo, hi)` of [`CompiledKernel::hoists`] summed on
        /// entry (non-empty only for loops with no loop inside).
        hoist: (u32, u32),
    },
    /// Bottom of a loop body: increment and jump to `top + 1`, or pop
    /// the frame and fall through.
    LoopEnd {
        var: u32,
        top: u32,
    },
    /// Bind `var := floord(expr)`.
    Let {
        var: u32,
        expr: u32,
    },
    /// Fall through when conds `[lo, hi)` all hold, else jump to `exit`.
    Guard {
        lo: u32,
        hi: u32,
        exit: u32,
    },
    /// Evaluate conds `[lo, hi)` once; suppress `stmt` in the region up
    /// to the matching [`Instr::FilterExit`] when they fail.
    FilterEnter {
        stmt: u32,
        lo: u32,
        hi: u32,
    },
    FilterExit {
        stmt: u32,
    },
    /// Execute statement leaf `leaf` unless its statement is suppressed.
    Stmt {
        leaf: u32,
    },
}

/// Where one compiled statement leaf came from: the IR statement and the
/// arguments that give its original iterator values. Recorded at
/// compile time (instead of being discarded with the AST) so the static
/// bytecode verifier can re-expand every folded access against the IR
/// access matrices, and so `--trace` dispatch events can name the source
/// statements a chunk executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafOrigin {
    /// IR statement id.
    pub stmt: usize,
    /// The statement's original iterators as affine expressions over
    /// slots, in statement order (a copy of the AST leaf's `args`).
    pub args: Vec<AffExpr>,
}

/// Where one compiled loop came from. One entry per [`Instr::Loop`], in
/// bytecode (= lowering) order, keyed by the instruction's `pc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopOrigin {
    /// Index of the [`Instr::Loop`] in [`CompiledKernel::code`].
    pub pc: usize,
    /// Scattering row the loop scans (`None` for leaf domain-recovery
    /// loops) — a copy of the AST loop's `level`.
    pub level: Option<usize>,
    /// Bitmask of statement ids with a leaf inside the loop body
    /// (statement ids `>= 64` saturate into bit 63).
    pub stmts: u64,
}

/// The AST↔bytecode provenance table: which statement each leaf was
/// compiled from and which scattering row each loop scans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Provenance {
    /// Per compiled leaf, aligned with [`CompiledKernel::leaves`].
    pub leaves: Vec<LeafOrigin>,
    /// Per compiled loop, in `pc` order.
    pub loops: Vec<LoopOrigin>,
}

impl Provenance {
    /// Looks up the loop origin for the [`Instr::Loop`] at `pc`.
    pub fn loop_at(&self, pc: usize) -> Option<&LoopOrigin> {
        self.loops
            .binary_search_by_key(&pc, |l| l.pc)
            .ok()
            .map(|i| &self.loops[i])
    }
}

/// A kernel lowered to bytecode for specific parameter values and array
/// extents. Execute it with [`run_compiled_kernel`](crate::run_compiled_kernel)
/// or [`run_compiled_parallel`](crate::run_compiled_parallel) against
/// arrays of the same shape.
///
/// All fields are public: the compiled form is itself an auditable
/// artifact — `pluto-analyze`'s bytecode verifier walks it in lockstep
/// with the source AST, and golden tests mutate it to prove each check
/// rejects corrupted bytecode. Mutating a kernel by hand and executing
/// it voids the safety argument of the raw-pointer parallel backend.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// Flat instruction stream.
    pub code: Vec<Instr>,
    /// Lower-bound forest, indexed by [`Instr::Loop`]'s `lb`.
    pub lower: Vec<CBound>,
    /// Upper-bound forest, indexed by [`Instr::Loop`]'s `ub`.
    pub upper: Vec<CBound>,
    /// Let-binding expressions, indexed by [`Instr::Let`]'s `expr`.
    pub exprs: Vec<CAff>,
    /// Guard/filter condition pool, indexed by `[lo, hi)` ranges.
    pub conds: Vec<CCond>,
    /// Hoisted access invariants, `Σ stride · vals[slot]` each, indexed
    /// by [`CAccess::pre`] and summed by the [`Instr::Loop`] whose
    /// `hoist` range holds them.
    pub hoists: Vec<Vec<(u32, i64)>>,
    /// Statement leaves, indexed by [`Instr::Stmt`]'s `leaf`.
    pub leaves: Vec<CStmt>,
    /// Loop display names, indexed by [`Instr::Loop`]'s `name`.
    pub names: Vec<String>,
    /// Slot-vector size (variables incl. parameters).
    pub num_slots: usize,
    /// Statement count of the source program (sizes the suppression
    /// counters).
    pub num_stmts: usize,
    /// Parameter values baked into bases and the slot prefix.
    pub params: Vec<i64>,
    /// Array extents the strides were derived for (shape-checked at
    /// execution time).
    pub extents: Vec<Vec<usize>>,
    /// AST↔bytecode provenance (which statement each leaf came from,
    /// which scattering row each loop scans).
    pub provenance: Provenance,
}

fn narrow(x: pluto_linalg::Int) -> i64 {
    i64::try_from(x).expect("coefficient exceeds i64 (not reachable at executable sizes)")
}

struct Lowerer<'p> {
    prog: &'p Program,
    params: Vec<i64>,
    extents: Vec<Vec<usize>>,
    code: Vec<Instr>,
    lower: Vec<CBound>,
    upper: Vec<CBound>,
    exprs: Vec<CAff>,
    conds: Vec<CCond>,
    hoists: Vec<Vec<(u32, i64)>>,
    leaves: Vec<CStmt>,
    names: Vec<String>,
    provenance: Provenance,
}

impl Lowerer<'_> {
    fn push_conds(&mut self, conds: &[CondRow]) -> (u32, u32) {
        let lo = self.conds.len() as u32;
        self.conds.extend(conds.iter().map(CCond::from_ast));
        (lo, self.conds.len() as u32)
    }

    fn lower(&mut self, ast: &Ast) {
        match ast {
            Ast::Seq(v) => v.iter().for_each(|a| self.lower(a)),
            Ast::Loop(l) => {
                let lb = self.lower_bound_id(&l.lb);
                let ub = self.upper_bound_id(&l.ub);
                let name = self.names.len() as u32;
                self.names.push(l.name.clone());
                let at = self.code.len();
                self.code.push(Instr::Loop {
                    var: l.var as u32,
                    lb,
                    ub,
                    parallel: l.parallel,
                    name,
                    exit: 0, // patched below
                    hoist: (0, 0),
                });
                // Loop provenance entries stay pc-sorted because `at` is
                // allocated before the body's nested loops are lowered.
                let prov_at = self.provenance.loops.len();
                self.provenance.loops.push(LoopOrigin {
                    pc: at,
                    level: l.level,
                    stmts: 0,
                });
                let leaves_before = self.leaves.len();
                self.lower(&l.body);
                let mut mask = 0u64;
                for leaf in &self.leaves[leaves_before..] {
                    mask |= 1u64 << (leaf.stmt as u64).min(63);
                }
                self.provenance.loops[prov_at].stmts = mask;
                let hoist_lo = self.hoists.len() as u32;
                if self.provenance.loops.len() == prov_at + 1 {
                    self.hoist_invariants(at, leaves_before, l.var as u32);
                }
                self.code.push(Instr::LoopEnd {
                    var: l.var as u32,
                    top: at as u32,
                });
                let (past, hoist_hi) = (self.code.len() as u32, self.hoists.len() as u32);
                if let Instr::Loop { exit, hoist, .. } = &mut self.code[at] {
                    *exit = past;
                    *hoist = (hoist_lo, hoist_hi);
                }
            }
            Ast::Let {
                var, expr, body, ..
            } => {
                let id = self.exprs.len() as u32;
                self.exprs.push(CAff::from_ast(expr));
                self.code.push(Instr::Let {
                    var: *var as u32,
                    expr: id,
                });
                self.lower(body);
            }
            Ast::Guard { conds, body } => {
                let (lo, hi) = self.push_conds(conds);
                let at = self.code.len();
                self.code.push(Instr::Guard { lo, hi, exit: 0 });
                self.lower(body);
                let exit = self.code.len() as u32;
                if let Instr::Guard { exit: e, .. } = &mut self.code[at] {
                    *e = exit;
                }
            }
            Ast::Filter { stmt, conds, body } => {
                let (lo, hi) = self.push_conds(conds);
                self.code.push(Instr::FilterEnter {
                    stmt: *stmt as u32,
                    lo,
                    hi,
                });
                self.lower(body);
                self.code.push(Instr::FilterExit { stmt: *stmt as u32 });
            }
            Ast::Stmt { stmt, args } => {
                let leaf = self.lower_stmt(*stmt, args);
                self.code.push(Instr::Stmt { leaf });
            }
        }
    }

    fn lower_bound_id(&mut self, b: &Bound) -> u32 {
        self.lower.push(CBound::from_ast(b));
        (self.lower.len() - 1) as u32
    }

    fn upper_bound_id(&mut self, b: &Bound) -> u32 {
        self.upper.push(CBound::from_ast(b));
        (self.upper.len() - 1) as u32
    }

    /// The loop opened at `at` has no loop inside: moves, out of every
    /// access in its body, the terms over slots other than `var` into a
    /// [`CompiledKernel::hoists`] entry the loop sums once on entry —
    /// unless a `Let` in the body writes one of those slots. Accesses
    /// with the same invariant terms share an entry.
    fn hoist_invariants(&mut self, at: usize, first_leaf: usize, var: u32) {
        let first = self.hoists.len();
        let written: Vec<u32> = self.code[at + 1..]
            .iter()
            .filter_map(|i| match i {
                Instr::Let { var, .. } => Some(*var),
                _ => None,
            })
            .collect();
        for leaf in &mut self.leaves[first_leaf..] {
            for acc in std::iter::once(&mut leaf.write).chain(&mut leaf.reads) {
                let (varying, inv): (Vec<_>, Vec<_>) =
                    acc.strides.iter().partition(|&&(slot, _)| slot == var);
                if inv.is_empty() || inv.iter().any(|(slot, _)| written.contains(slot)) {
                    continue;
                }
                let k = match self.hoists[first..].iter().position(|h| *h == inv) {
                    Some(k) => first + k,
                    None => {
                        self.hoists.push(inv);
                        self.hoists.len() - 1
                    }
                };
                acc.strides = varying;
                acc.pre = Some(k as u32);
            }
        }
    }

    /// Folds one access map (rows over `[iters..., params..., 1]`),
    /// composed with the leaf's arguments (`iters = args(slots)`), into
    /// a strided polynomial over variable slots, with the parameter and
    /// constant contributions collapsed into `base`.
    fn lower_access(
        &self,
        array: usize,
        rows: &[Vec<pluto_linalg::Int>],
        args: &[AffExpr],
    ) -> CAccess {
        let ext = &self.extents[array];
        assert_eq!(rows.len(), ext.len(), "access rank mismatch");
        let n_iters = args.len();
        let n_params = self.params.len();
        // Row-major: row k is scaled by the product of trailing extents.
        let mut rstride = vec![1i64; rows.len()];
        for k in (0..rows.len().saturating_sub(1)).rev() {
            rstride[k] = rstride[k + 1] * ext[k + 1] as i64;
        }
        let mut base = 0i64;
        let mut per_dim = vec![0i64; n_iters];
        for (k, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n_iters + n_params + 1, "access row width");
            base += narrow(row[n_iters + n_params]) * rstride[k];
            for (p, &pv) in self.params.iter().enumerate() {
                base += narrow(row[n_iters + p]) * pv * rstride[k];
            }
            for d in 0..n_iters {
                per_dim[d] += narrow(row[d]) * rstride[k];
            }
        }
        // Iterator d is `args[d]`: its constant and parameters go to
        // `base`, its loop-variable terms become strides.
        let mut strides: Vec<(u32, i64)> = Vec::new();
        for (arg, &c) in args.iter().zip(&per_dim) {
            debug_assert_eq!(arg.div, 1, "statement arguments are affine");
            base += c * narrow(arg.konst);
            for &(v, k) in &arg.terms {
                let k = c * narrow(k);
                if v < n_params {
                    base += k * self.params[v];
                    continue;
                }
                match strides.iter_mut().find(|s| s.0 == v as u32) {
                    Some(s) => s.1 += k,
                    None => strides.push((v as u32, k)),
                }
            }
        }
        strides.retain(|s| s.1 != 0);
        let len: usize = ext.iter().product::<usize>().max(1);
        CAccess {
            array: array as u32,
            base,
            strides,
            pre: None,
            len: u32::try_from(len).expect("array length exceeds u32"),
        }
    }

    /// Emits the postfix tape for a statement body (post-order = the
    /// tree-walk's recursive evaluation order, hence bit-exact f64).
    fn lower_body(e: &Expr, out: &mut Vec<BodyOp>) {
        match e {
            Expr::Read(k) => out.push(BodyOp::Read(*k as u16)),
            Expr::Lit(v) => out.push(BodyOp::Lit(*v)),
            Expr::Iter(k) => out.push(BodyOp::Iter(*k as u32)),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                Self::lower_body(a, out);
                Self::lower_body(b, out);
                out.push(match e {
                    Expr::Add(..) => BodyOp::Add,
                    Expr::Sub(..) => BodyOp::Sub,
                    Expr::Mul(..) => BodyOp::Mul,
                    _ => BodyOp::Div,
                });
            }
        }
    }

    fn lower_stmt(&mut self, stmt: usize, args: &[AffExpr]) -> u32 {
        let s = &self.prog.stmts[stmt];
        debug_assert_eq!(args.len(), s.num_iters());
        let write = self.lower_access(s.write.array, &s.write.map, args);
        let reads = s
            .reads
            .iter()
            .map(|r| self.lower_access(r.array, &r.map, args))
            .collect();
        let mut body = Vec::new();
        Self::lower_body(&s.body, &mut body);
        self.leaves.push(CStmt {
            stmt: stmt as u32,
            write,
            reads,
            args: args.iter().map(CAff::from_ast).collect(),
            body,
            flops: s.body.num_ops() as u64,
        });
        self.provenance.leaves.push(LeafOrigin {
            stmt,
            args: args.to_vec(),
        });
        (self.leaves.len() - 1) as u32
    }
}

/// Lowers `ast` to bytecode for the given parameter values and the
/// extents of `arrays`. One compile serves any number of executions
/// against same-shaped arrays (the bench harness compiles once and
/// samples many runs).
pub fn compile_kernel(
    prog: &Program,
    ast: &Ast,
    params: &[i64],
    arrays: &Arrays,
) -> CompiledKernel {
    let _span = pluto_obs::span("execute/compile");
    let extents: Vec<Vec<usize>> = (0..arrays.num_arrays())
        .map(|a| arrays.extents(a).to_vec())
        .collect();
    compile_kernel_with_extents(prog, ast, params, &extents)
}

/// Like [`compile_kernel`], but taking the array extents directly — for
/// callers that need the compiled form without allocating arrays (the
/// static bytecode verifier compiles the audited AST this way). Emits no
/// `execute/*` phase span, so analysis-time compiles don't masquerade as
/// execution in profiles.
pub fn compile_kernel_with_extents(
    prog: &Program,
    ast: &Ast,
    params: &[i64],
    extents: &[Vec<usize>],
) -> CompiledKernel {
    assert_eq!(params.len(), prog.num_params(), "parameter count mismatch");
    let mut lw = Lowerer {
        prog,
        params: params.to_vec(),
        extents: extents.to_vec(),
        code: Vec::new(),
        lower: Vec::new(),
        upper: Vec::new(),
        exprs: Vec::new(),
        conds: Vec::new(),
        hoists: Vec::new(),
        leaves: Vec::new(),
        names: Vec::new(),
        provenance: Provenance::default(),
    };
    lw.lower(ast);
    let num_slots = ast.num_vars().max(params.len());
    CompiledKernel {
        code: lw.code,
        lower: lw.lower,
        upper: lw.upper,
        exprs: lw.exprs,
        conds: lw.conds,
        hoists: lw.hoists,
        leaves: lw.leaves,
        names: lw.names,
        num_slots,
        num_stmts: prog.stmts.len(),
        params: params.to_vec(),
        extents: lw.extents,
        provenance: lw.provenance,
    }
}
