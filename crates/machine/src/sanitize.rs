//! The parallel-marker sanitizer: the bytecode engine in sequential
//! program order, with every loop marked `parallel` opening an
//! access-history frame and every memory access checked for
//! cross-iteration conflicts against all open frames — the dynamic
//! counterpart of the static `PL001` race check.

use crate::arrays::Arrays;
use crate::compile::{compile_kernel, CompiledKernel};
use crate::exec::{run_region, run_whole, ExecStats, OnParallel, ParLoop, State};
use crate::mem::Mem;
use pluto_codegen::Ast;
use pluto_ir::Program;
use std::collections::HashMap;

/// Access history of one cell inside a parallel region:
/// `(last writer iteration, one reader iteration, multiple-distinct-reader
/// flag)`.
type CellHistory = (Option<i64>, Option<i64>, bool);

/// One parallel loop currently being executed by the sanitizer.
struct SanFrame {
    /// Display name of the loop (for reports).
    name: String,
    /// Iteration value currently executing.
    current: i64,
    /// Per-cell access history within this parallel region, keyed by
    /// `(array, offset)`.
    cells: HashMap<(usize, usize), CellHistory>,
}

/// Sanitizing memory backend: every access is checked against the access
/// history of every *active* parallel loop before reaching the arrays.
struct SanMem<'a> {
    arrays: &'a mut Arrays,
    frames: Vec<SanFrame>,
    violations: Vec<String>,
}

impl SanMem<'_> {
    fn record(&mut self, a: usize, off: usize, is_write: bool) {
        for f in self.frames.iter_mut() {
            let cell = f.cells.entry((a, off)).or_insert((None, None, false));
            let x = f.current;
            if is_write {
                if let Some(w) = cell.0 {
                    if w != x && self.violations.len() < 8 {
                        self.violations.push(format!(
                            "write-write race on array {a} offset {off}: iterations {w} and \
                             {x} of parallel loop `{}` both write it",
                            f.name
                        ));
                    }
                }
                let reader_conflict = match (cell.1, cell.2) {
                    (_, true) => true,
                    (Some(r), _) => r != x,
                    (None, _) => false,
                };
                if reader_conflict && self.violations.len() < 8 {
                    self.violations.push(format!(
                        "read-write race on array {a} offset {off}: iteration {x} of parallel \
                         loop `{}` writes a cell another iteration reads",
                        f.name
                    ));
                }
                cell.0 = Some(x);
            } else {
                if let Some(w) = cell.0 {
                    if w != x && self.violations.len() < 8 {
                        self.violations.push(format!(
                            "read-write race on array {a} offset {off}: iteration {x} of \
                             parallel loop `{}` reads a cell iteration {w} writes",
                            f.name
                        ));
                    }
                }
                match cell.1 {
                    None => cell.1 = Some(x),
                    Some(r) if r != x => cell.2 = true,
                    Some(_) => {}
                }
            }
        }
    }
}

impl Mem for SanMem<'_> {
    #[inline]
    fn load(&mut self, a: usize, off: usize) -> f64 {
        self.record(a, off, false);
        self.arrays.load(a, off)
    }
    #[inline]
    fn store(&mut self, a: usize, off: usize, v: f64) {
        self.record(a, off, true);
        self.arrays.store(a, off, v);
    }
}

/// A `parallel` header opens a frame, each of its iterations advances
/// the frame's `current`, and loop exit closes it. Nested parallel
/// loops nest frames: the body runs through [`run_region`] with this
/// same meaning.
struct Frames;

impl<'a> OnParallel<SanMem<'a>> for Frames {
    fn run_loop(
        &mut self,
        ck: &CompiledKernel,
        l: ParLoop,
        st: &mut State,
        mem: &mut SanMem<'a>,
    ) -> bool {
        st.stats.parallel_regions += 1;
        let depth = mem.frames.len();
        mem.frames.push(SanFrame {
            name: ck.names[l.name].clone(),
            current: l.lo,
            cells: HashMap::new(),
        });
        for x in l.lo..=l.hi {
            st.vals[l.var] = x;
            mem.frames[depth].current = x;
            run_region(ck, l.pc + 1, l.exit - 1, st, mem, self);
        }
        mem.frames.pop();
        true
    }
}

/// Runs the AST sequentially while *sanitizing* its parallel markers:
/// inside every loop marked `parallel`, per-iteration read and write sets
/// are recorded and checked for cross-iteration write-write and
/// read-write overlap. Results in the arrays are identical to
/// [`run_sequential`](crate::run_sequential).
///
/// # Errors
/// Returns the recorded race reports (capped at 8) if any loop marked
/// parallel has conflicting iterations at the executed parameters.
pub fn run_sanitized(
    prog: &Program,
    ast: &Ast,
    params: &[i64],
    arrays: &mut Arrays,
) -> Result<ExecStats, Vec<String>> {
    let ck = compile_kernel(prog, ast, params, arrays);
    let _span = pluto_obs::span("execute/sanitized");
    let mut mem = SanMem {
        arrays,
        frames: Vec::new(),
        violations: Vec::new(),
    };
    let stats = run_whole(&ck, &mut mem, &mut Frames);
    if mem.violations.is_empty() {
        Ok(stats)
    } else {
        Err(mem.violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{forced_parallel, scale_program};
    use pluto_ir::{Expr, ProgramBuilder, StatementSpec};

    #[test]
    fn sanitizer_accepts_truly_parallel_loop() {
        let prog = scale_program();
        let ast = forced_parallel(&prog);
        let mut arrays = Arrays::new(vec![vec![32], vec![32]]);
        arrays.seed_with(|a, o| (a + o) as f64);
        let mut reference = arrays.clone();
        let stats = run_sanitized(&prog, &ast, &[32], &mut arrays).expect("no races");
        assert_eq!(stats.instances, 32);
        assert_eq!(stats.parallel_regions, 1);
        crate::run_sequential(&prog, &ast, &[32], &mut reference);
        assert!(arrays.bitwise_eq(&reference));
    }

    /// `for i in 0..N { b[0] = b[0] + a[i] }` — a reduction; marking the
    /// i-loop parallel is a race the sanitizer must report.
    #[test]
    fn sanitizer_flags_forced_parallel_reduction() {
        let mut b = ProgramBuilder::new("reduce", &["N"]);
        b.add_context_ineq(vec![1, -1]);
        b.add_array("a", 1);
        b.add_array("b", 1);
        b.add_statement(StatementSpec {
            name: "S1".into(),
            iters: vec!["i".into()],
            domain_ineqs: vec![vec![1, 0, 0], vec![-1, 1, -1]],
            beta: vec![0, 0],
            write: ("b".into(), vec![vec![0, 0, 0]]),
            reads: vec![
                ("b".into(), vec![vec![0, 0, 0]]),
                ("a".into(), vec![vec![1, 0, 0]]),
            ],
            body: Expr::Read(0) + Expr::Read(1),
        });
        let prog = b.build();
        let ast = forced_parallel(&prog);
        let mut arrays = Arrays::new(vec![vec![16], vec![1]]);
        arrays.seed_with(|_, o| o as f64);
        let violations = run_sanitized(&prog, &ast, &[16], &mut arrays).unwrap_err();
        assert!(
            violations.iter().any(|v| v.contains("race")),
            "expected race reports, got {violations:?}"
        );
    }
}
