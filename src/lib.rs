//! `pluto-repro` — umbrella crate re-exporting the whole `pluto-rs`
//! workspace, a from-scratch Rust reproduction of *"A Practical Automatic
//! Polyhedral Parallelizer and Locality Optimizer"* (PLDI 2008).
//!
//! See the repository README for the architecture map; the short version:
//!
//! * [`frontend`] parses affine C (or builds the paper's kernels);
//! * [`ir`] holds the polyhedral program and computes dependence polyhedra;
//! * [`pluto`] finds the transformation (legality + cost-bounded lexmin,
//!   tiling, wavefronting) — the paper's contribution;
//! * [`codegen`] scans the transformed polyhedra into an executable loop
//!   AST and OpenMP C;
//! * [`analyze`] independently audits the generated program — race
//!   detection for `parallel` loops, array-bounds proofs, AST lints —
//!   (wired up as [`compile::Compiled::audit`]);
//! * [`machine`] executes and measures (threads, caches, simulated
//!   quad-core);
//! * [`poly`], [`ilp`] and [`linalg`] are the exact-arithmetic substrates
//!   standing in for PolyLib and PIP;
//! * [`obs`] observes it all — phase spans and solver counters surfaced
//!   as compile profiles (`plutoc --profile`, PERFORMANCE.md);
//! * [`compile`] is the one spelling of the chain above — `plutoc`,
//!   `plutod` and [`pluto_schedule`] are adapters over it;
//! * [`daemon`] serves it all — the long-running `plutod` compile
//!   service: `pluto-rpc/1` over stdio or a Unix socket, a
//!   content-addressed schedule cache, and service-level aggregation of
//!   every request's profile (`pluto-stats/1`, DESIGN.md §12).
//!
//! DESIGN.md (repo root) is the full inventory: §1 maps every paper
//! component to its crate, §6 holds the algorithmic notes, §9 the
//! observability layer.
//!
//! # Example: end-to-end
//!
//! ```
//! use pluto::Optimizer;
//! use pluto_codegen::{generate, original_schedule};
//! use pluto_frontend::kernels;
//! use pluto_machine::{run_sequential, Arrays};
//! use pluto_repro::pluto_schedule;
//!
//! let kernel = kernels::matmul();
//! let out = pluto_schedule(&kernel.program, None, &Optimizer::new().tile_size(16), None)?;
//! assert!(out.code.contains("#pragma omp parallel for"));
//!
//! // Execute and check against the untransformed program.
//! let params = [24i64];
//! let mut a = Arrays::new((kernel.extents)(&params));
//! a.seed_with(kernels::seed_value);
//! run_sequential(&kernel.program, &out.compiled.ast, &params, &mut a);
//!
//! let mut reference = Arrays::new((kernel.extents)(&params));
//! reference.seed_with(kernels::seed_value);
//! let orig = generate(&kernel.program, &original_schedule(&kernel.program));
//! run_sequential(&kernel.program, &orig, &params, &mut reference);
//! assert!(a.bitwise_eq(&reference));
//! # Ok::<(), pluto::PlutoError>(())
//! ```

pub mod compile;
pub mod daemon;

pub use compile::{pluto_schedule, Scheduled};
pub use pluto;
pub use pluto_analyze as analyze;
pub use pluto_codegen as codegen;
pub use pluto_frontend as frontend;
pub use pluto_ilp as ilp;
pub use pluto_ir as ir;
pub use pluto_linalg as linalg;
pub use pluto_machine as machine;
pub use pluto_obs as obs;
pub use pluto_poly as poly;
