//! Polyhedral code generation — the `pluto-rs` stand-in for CLooG.
//!
//! Given a [`Program`](pluto_ir::Program) and a
//! [`Transformation`](pluto::Transformation) (scattering functions per
//! statement), this crate scans the union of the transformed statement
//! polyhedra in the new lexicographic order and produces an executable
//! loop [`Ast`]:
//!
//! * loop bounds come from exact Fourier–Motzkin projections of each
//!   statement's *extended* polyhedron (scattering dimensions prepended to
//!   the domain, CLooG-style), with `max`/`min` of affine expressions and
//!   exact `floord`/`ceild` divisions;
//! * scalar scattering dimensions split the statement set into sequenced
//!   groups (fusion structure / textual order);
//! * domain dimensions the scattering determines are substituted into
//!   the statement's arguments (`S1(c3,c4-2*c3)`; a `Let` only where
//!   the recovery is a `floord`), the rest get inner loops; bounds and
//!   guards name each operand once, with the tighter constant;
//! * statements sharing a loop carry hoisted guard conditions for their
//!   own bounds; single-statement loops are guard-free.
//!
//! The same AST both executes (see `pluto-machine`) and pretty-prints as
//! OpenMP-annotated C ([`emit_c`]), reproducing the paper's source-to-
//! source behaviour (Figs. 3, 4, 9).
//!
//! DESIGN.md §6 ("Codegen") specifies the scanning and separation mechanisms.

mod ast;
mod emit;
mod gen;
mod post;

pub use ast::{AffExpr, Ast, AstStats, Bound, CondRow, LoopNode};
pub use emit::emit_c;
pub use gen::{generate, original_schedule};
pub use post::unroll_innermost;
