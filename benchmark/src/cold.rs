//! `cold_compile`: the 13 kernels, each through a fresh `plutoc --tile 32`
//! process. Why: about 90 % of the time is the hyperplane search over
//! `ilp`/`poly`; the executor and the daemon do nothing. A change to the
//! search or to Farkas elimination must show here, a change to the
//! executor must not.

use crate::common::{compile, Ctx, Tally};
use crate::layers;
use crate::rng::Rng;
use crate::setup::{Inputs, KernelFile, STREAM_ORDER};
use crate::stats::{geomean, median};
use crate::trace::{self_time_by_name, Tracer};
use std::collections::BTreeMap;

#[derive(Default)]
pub struct ColdSamples {
    /// Per kernel (in `kernels::ALL` order): process wall per pass, ms.
    pub kernel_ms: Vec<Vec<f64>>,
    /// Largest peak RSS of a `plutoc` process.
    pub peak_rss_mb: f64,
}

impl ColdSamples {
    pub fn passes(&self) -> usize {
        self.kernel_ms.first().map_or(0, Vec::len)
    }

    fn kernel_medians(&self) -> Vec<f64> {
        self.kernel_ms.iter().map(|k| median(k)).collect()
    }

    /// Sum over the 13 kernels of each one's median wall over the
    /// passes — the printed per-kernel rows add up to it. A disturbance
    /// that slows part of a pass moves that pass's sum, but not the
    /// median of a kernel it touched in under half the passes.
    pub fn compile_cold_ms(&self) -> f64 {
        self.kernel_medians().iter().sum()
    }

    pub fn compile_cold_geomean_ms(&self) -> f64 {
        geomean(&self.kernel_medians())
    }
}

/// The order kernels are compiled in during pass `pass`: a seeded
/// shuffle, so that no kernel always runs after the same neighbour.
fn order(seed: u64, pass: usize, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    Rng::new(seed, STREAM_ORDER + 16 * pass as u64).shuffle(&mut idx);
    idx
}

/// One pass: 13 fresh processes. The C text of each must be byte-equal
/// to what `plutod` served for the same source and to every other pass.
pub fn pass(
    ctx: &Ctx,
    inputs: &mut Inputs,
    samples: &mut ColdSamples,
    tally: &mut Tally,
) -> Result<(), String> {
    let n = inputs.kernels.len();
    samples.kernel_ms.resize(n, Vec::new());
    for k in order(ctx.seed, samples.passes(), n) {
        let KernelFile { name, path, .. } = &inputs.kernels[k];
        let ran = ctx.run_plutoc(&["--tile", "32", path])?;
        samples.kernel_ms[k].push(ran.wall.as_secs_f64() * 1e3);
        samples.peak_rss_mb = samples.peak_rss_mb.max(ran.reaped.peak_rss_mb);
        let same = inputs.warm.code.same(name, &ran.stdout);
        tally.check(ran.reaped.exit_code == Some(0) && same, || {
            format!(
                "plutoc {name}: exit {:?}, C text {} plutod's",
                ran.reaped.exit_code,
                if same { "equals" } else { "differs from" }
            )
        });
    }
    Ok(())
}

/// What the traced in-process passes yield.
pub struct ColdTrace {
    /// Per traced pass: self time by span name, ns.
    pub self_ns: Vec<BTreeMap<&'static str, u64>>,
    /// Per traced pass: wall of the 13 `compile` spans, ns.
    pub traced_wall_ns: Vec<u64>,
    /// Per plain pass (no profile recorder, no spans): the same wall, ns.
    pub plain_wall_ns: Vec<u64>,
    /// Per traced pass: counters, histogram sums (ns) and phase walls (ns)
    /// of the 13 `pluto_obs` profiles, summed by name.
    pub counters: Vec<BTreeMap<String, u64>>,
    pub c_bytes: u64,
    pub stmts: u64,
}

/// Keys of [`ColdTrace::counters`] that are counts (not times) and must
/// repeat exactly from pass to pass.
fn is_count(key: &str) -> bool {
    !key.ends_with("_ns")
}

/// `passes` pairs of in-process passes over the 13 kernels, alternating
/// traced (profile recorder on, harness spans on) and plain. Request ids
/// are `pass * 1000 + kernel`.
pub fn trace(inputs: &mut Inputs, tr: &mut Tracer, passes: usize, tally: &mut Tally) -> ColdTrace {
    let mut out = ColdTrace {
        self_ns: Vec::new(),
        traced_wall_ns: Vec::new(),
        plain_wall_ns: Vec::new(),
        counters: Vec::new(),
        c_bytes: 0,
        stmts: 0,
    };
    for pass in 0..passes {
        let mut counters = BTreeMap::new();
        let (mut c_bytes, mut stmts) = (0, 0);
        for (k, file) in inputs.kernels.iter().enumerate() {
            let request = (pass * 1000 + k) as u64;
            let compiled = compile(tr, request, &file.text, true);
            let ok = compiled
                .as_ref()
                .is_ok_and(|c| inputs.warm.code.same(file.name, &c.code));
            tally.check(ok, || {
                format!(
                    "in-process compile of {} failed or its C text differs",
                    file.name
                )
            });
            if let Ok(c) = compiled {
                layers::add_profile(&mut counters, &c.profile);
                c_bytes += c.code.len() as u64;
                stmts += layers::num_statements(&c.unit) as u64;
            }
        }
        let in_pass = |s: &crate::trace::Span| s.request / 1000 == pass as u64;
        out.self_ns.push(self_time_by_name(tr.spans(), in_pass));
        out.traced_wall_ns.push(
            tr.spans()
                .iter()
                .filter(|s| s.name == "compile" && in_pass(s))
                .map(|s| s.duration_ns())
                .sum(),
        );
        out.counters.push(counters);
        (out.c_bytes, out.stmts) = (c_bytes, stmts);

        let plain = std::time::Instant::now();
        for file in &inputs.kernels {
            let compiled = compile(&mut Tracer::off(), 0, &file.text, false);
            std::hint::black_box(&compiled);
        }
        out.plain_wall_ns.push(plain.elapsed().as_nanos() as u64);
    }
    // Counts are properties of the inputs and the algorithm: two passes
    // over the same sources must agree exactly.
    let counts = |m: &BTreeMap<String, u64>| -> Vec<(String, u64)> {
        m.iter()
            .filter(|(k, _)| is_count(k))
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    };
    for later in &out.counters[1..] {
        let same = counts(later) == counts(&out.counters[0]);
        tally.check(same, || {
            "layer counts differ between two traced passes".to_string()
        });
    }
    out
}
