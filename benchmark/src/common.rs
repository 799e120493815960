//! What every workload shares: the run's context, the failure tally, and
//! the in-process compile sequence with a span around each layer call.

use crate::layers::{self, Ast, ObsScope, Optimized, ParsedUnit, Profile};
use crate::proc::{Ran, Spawner};
use crate::trace::Tracer;
use std::cell::RefCell;
use std::path::PathBuf;

/// Operations attempted and failed. A failure is recorded with a note
/// and never aborts the run: failures are counted, not filtered.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation; `note` describes it when it failed.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // The first few notes identify a failure; thousands of
            // identical ones would only hide them.
            if self.notes.len() < 20 {
                self.notes.push(note());
            }
        }
    }
}

/// One run's fixed facts.
pub struct Ctx {
    pub seed: u64,
    pub plutoc: PathBuf,
    pub plutod: PathBuf,
    /// `benchmark/out/`, created by `main`.
    pub out_dir: PathBuf,
    /// Threads the machine offers; the harness never runs more.
    pub nproc: usize,
    /// Starts the `plutoc` processes (see `proc`).
    pub spawner: RefCell<Spawner>,
}

impl Ctx {
    /// One fresh `plutoc <args>` process, run to completion.
    pub fn run_plutoc(&self, args: &[&str]) -> Result<Ran, String> {
        let scratch = self.out_dir.join("plutoc.stderr");
        self.spawner.borrow_mut().run(&self.plutoc, args, &scratch)
    }
}

/// Products of one in-process compile.
pub struct Compiled {
    pub unit: ParsedUnit,
    pub optimized: Optimized,
    pub ast: Ast,
    pub code: String,
    /// The optimizer's satisfaction ledger, for the analyzer.
    pub ledger: Vec<Option<usize>>,
    pub profile: Profile,
}

/// Source text → C text through the library, as `plutoc --tile 32
/// --threads 1` does it: one observability session per compile, then
/// parse, dependences, search, tiling/wavefront, code generation, emit.
/// Each layer call sits in its own span of `tr`, all inside one
/// `compile` span — the timed region whose coverage the trace reports.
pub fn compile(
    tr: &mut Tracer,
    request: u64,
    source: &str,
    profiled: bool,
) -> Result<Compiled, String> {
    tr.span("compile", request, |tr| {
        let obs = ObsScope::start(profiled);
        let unit = tr.span("frontend.parse", request, |_| layers::parse(source))?;
        let prog = &unit.program;
        let deps = tr.span("ir.deps", request, |_| layers::deps(prog));
        let found = tr.span("core.search", request, |_| layers::search(prog, &deps))?;
        let optimized = tr.span("core.apply", request, |_| layers::apply(prog, deps, found));
        let ledger = obs.ledger(optimized.deps.len());
        let ast = tr.span("codegen.generate", request, |_| {
            layers::generate(prog, &optimized)
        });
        let code = tr.span("codegen.emit", request, |_| layers::emit(prog, &ast));
        let profile = obs.finish();
        Ok(Compiled {
            unit,
            optimized,
            ast,
            code,
            ledger,
            profile,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_and_keeps_the_first_notes() {
        let mut t = Tally::default();
        t.check(true, || unreachable!("no note for a success"));
        for i in 0..30 {
            t.check(false, || format!("failure {i}"));
        }
        assert_eq!((t.attempted, t.failed), (31, 30));
        assert_eq!(t.notes.len(), 20);
        assert_eq!(t.notes[0], "failure 0");
    }
}
