//! Differential fuzzing of the whole optimizer: random affine kernels are
//! pushed through dependence analysis → hyperplane search → tiling →
//! wavefront → codegen, then executed (sequentially, tiled, and with the
//! wavefront thread team) and compared bit-exactly against the original
//! program order. The fully-optimized AST runs on the tree-walk
//! reference evaluator and on the bytecode engine — sequentially, on the
//! persistent pool, and under the sanitizer backend — so every fuzz
//! kernel is also a differential proof of the engine. Every
//! emitted untiled transformation additionally passes the independent
//! `validate_legality` audit.
//!
//! The run is hermetic and reproducible: a fixed default seed, with
//! `TESTKIT_SEED=<n>` / `TESTKIT_CASES=<n>` overrides. A failure panics
//! with the exact case seed and a greedily shrunk minimal kernel spec.

use testkit::prop::{check, Config};
use testkit::{gen_spec, shrink_spec, GenConfig, OracleConfig};

/// 200 random kernels, each checked by the full differential oracle.
///
/// This is the PR's acceptance gate for the transformation stack: it has
/// caught real miscompiles (a `split_on_point` complement-bound off-by-one,
/// over-constrained supernode domains for rank-deficient statements) and
/// search non-termination (futile SCC cuts looping to the row limit).
#[test]
fn fuzz_200_kernels_bit_exact() {
    let gcfg = GenConfig::default();
    let ocfg = OracleConfig::default();
    check(
        &Config {
            cases: 200,
            seed: 0x00D1FF,
            max_shrink_steps: 40,
        }
        .from_env(),
        "fuzz_200_kernels_bit_exact",
        |rng| gen_spec(rng, &gcfg),
        shrink_spec,
        |spec| testkit::check_spec(spec, &ocfg),
    );
}
