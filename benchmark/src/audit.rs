//! `audit_generated`: 32 seeded sources, each through a fresh
//! `plutoc --tile 32 --analyze --verify <small params>` process. Why: the
//! analyzer (race, bounds, ledger, bytecode translation validation) is
//! about half of an audited compile and runs in no other workload; many
//! small ILPs stress the emptiness cache rather than a few large Farkas
//! systems; and a seeded draw from a family wider than the 13 fixed
//! kernels guards against tuning to those.

use crate::common::{compile, Ctx, Tally};
use crate::layers;
use crate::setup::{AuditFile, Inputs};
use crate::stats::median;
use crate::trace::{self_time_by_name, Tracer};
use std::collections::BTreeMap;

#[derive(Default)]
pub struct AuditSamples {
    /// Per source: process wall time per pass, ms.
    pub source_ms: Vec<Vec<f64>>,
    pub peak_rss_mb: f64,
}

impl AuditSamples {
    pub fn passes(&self) -> usize {
        self.source_ms.first().map_or(0, Vec::len)
    }

    /// Sum over the 32 sources of each one's median wall over the
    /// passes: one slow process start in a pass does not move it, where
    /// it would move that pass's sum.
    pub fn audit_ms(&self) -> f64 {
        self.source_ms.iter().map(|s| median(s)).sum()
    }
}

/// One pass: 32 fresh audited compiles. A failure is a non-zero exit
/// (parse or search error, analyzer error, `--verify` mismatch) or a
/// run that does not report both checks as done.
pub fn pass(
    ctx: &Ctx,
    inputs: &Inputs,
    samples: &mut AuditSamples,
    tally: &mut Tally,
) -> Result<(), String> {
    samples.source_ms.resize(inputs.audit.len(), Vec::new());
    for (k, file) in inputs.audit.iter().enumerate() {
        let AuditFile {
            path,
            verify_arg,
            source,
        } = file;
        let args = ["--tile", "32", "--analyze", "--verify", verify_arg, path];
        let ran = ctx.run_plutoc(&args)?;
        samples.source_ms[k].push(ran.wall.as_secs_f64() * 1e3);
        samples.peak_rss_mb = samples.peak_rss_mb.max(ran.reaped.peak_rss_mb);
        let ok = ran.reaped.exit_code == Some(0)
            && ran.stderr.contains("analysis: 0 error(s)")
            && ran.stderr.contains("plutoc: verified")
            && !ran.stdout.is_empty();
        tally.check(ok, || {
            format!(
                "audited compile of {path} ({}) failed: exit {:?}: {}",
                source.family,
                ran.reaped.exit_code,
                ran.stderr.lines().last().unwrap_or("")
            )
        });
    }
    Ok(())
}

pub struct AuditTrace {
    /// Per pass: self time by span name, ns.
    pub self_ns: Vec<BTreeMap<&'static str, u64>>,
    /// Analyzer findings of any severity over the 32 sources.
    pub diagnostics: u64,
}

/// In-process audited compiles with a span per layer call: the compile
/// sequence, the two analyzer halves, and the `--verify` execution on
/// the reference evaluator. Request ids are `pass * 1000 + source`.
pub fn trace(inputs: &Inputs, tr: &mut Tracer, passes: usize, tally: &mut Tally) -> AuditTrace {
    let mut out = AuditTrace {
        self_ns: Vec::new(),
        diagnostics: 0,
    };
    for pass in 0..passes {
        let mut diagnostics = 0;
        for (k, file) in inputs.audit.iter().enumerate() {
            let request = (pass * 1000 + k) as u64;
            let outcome = audited(tr, request, file);
            tally.check(matches!(outcome, Ok((_, true))), || {
                format!(
                    "in-process audit of {} failed: {:?}",
                    file.path,
                    outcome.as_ref().err()
                )
            });
            diagnostics += outcome.map_or(0, |(n, _)| n);
        }
        out.diagnostics = diagnostics;
        out.self_ns.push(self_time_by_name(tr.spans(), |s| {
            s.request / 1000 == pass as u64
        }));
    }
    out
}

/// Returns the number of findings and whether the audit and the
/// verification both passed.
fn audited(tr: &mut Tracer, request: u64, file: &AuditFile) -> Result<(u64, bool), String> {
    tr.span("audit", request, |tr| {
        let c = compile(tr, request, &file.source.text, true)?;
        let prog = &c.unit.program;
        let params = &file.source.verify_params;
        let first = tr.span("analyze.audit", request, |_| {
            layers::audit(&c.unit, &c.optimized, &c.ast, &c.ledger)
        });
        let extents = layers::extents(&c.unit, params)?;
        let kernel = tr.span("machine.bytecode_compile", request, |_| {
            layers::bytecode_compile(prog, &c.ast, params, &extents)
        });
        let second = tr.span("analyze.bytecode", request, |_| {
            layers::audit_bytecode(prog, &c.optimized, &c.ast, &kernel)
        });
        let init = |a: usize, off: usize| 0.5 + ((a * 31 + off * 7) % 97) as f64 / 97.0;
        let mut reference = layers::new_arrays(&extents, init);
        let mut transformed = layers::new_arrays(&extents, init);
        let original = layers::generate_original(prog);
        tr.span("machine.exec_reference", request, |_| {
            layers::exec_reference(prog, &original, params, &mut reference);
            layers::exec_reference(prog, &c.ast, params, &mut transformed);
        });
        let verified = layers::same_arrays(&reference, &transformed);
        Ok((
            (first.diagnostics + second.diagnostics) as u64,
            first.clean && second.clean && verified,
        ))
    })
}
