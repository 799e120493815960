//! Execution and measurement substrate — the `pluto-rs` stand-in for the
//! paper's Intel Q6600 quad-core + icc + OpenMP testbed.
//!
//! The paper evaluates transformed code by compiling with icc and running
//! on real hardware. We instead *execute the generated loop ASTs
//! directly*:
//!
//! * one production engine: the loop AST is lowered once to flat
//!   bytecode with precomputed affine access strides
//!   ([`compile_kernel`]) and interpreted by a single loop that is
//!   generic over the memory it touches and over what a `parallel` loop
//!   header means. Its instantiations are the public run modes:
//!   [`run_compiled_kernel`] (plain arrays, markers ignored; the engine
//!   behind wall-clock locality measurements), [`run_parallel`] (real
//!   multi-threaded execution over a persistent worker [`pool`] of
//!   condvar-parked threads: the OpenMP `parallel for` of the paper maps
//!   to a chunked dynamically-scheduled team per parallel loop entry,
//!   the dispatching thread participating as member 0, with one implicit
//!   barrier per outer sequential iteration), [`run_with_cache`] (every
//!   access driven through a two-level set-associative write-allocate
//!   [`CacheSim`] — default geometry mirrors the paper's machine: 32 KB
//!   8-way L1, 4 MB 16-way L2, 64-byte lines — producing the locality
//!   metrics behind the single-core speedups of Figs. 6, 8, 10) and
//!   [`run_sanitized`] (per-iteration read/write sets recorded inside
//!   every parallel loop; the dynamic race check);
//! * [`run_sequential`] — the reference evaluator: a deterministic
//!   recursive walk of the AST that shares nothing with the bytecode
//!   compiler and asserts every subscript against its extent. It is the
//!   correctness oracle (original vs transformed programs must produce
//!   bitwise-identical arrays, since legality preserves each statement
//!   instance's inputs and per-instance flop order) and what the engine
//!   itself is differentially tested against;
//! * [`simulate`] — the cycle model of the simulated quad-core, a
//!   separate AST walk because it charges costs (unroll chunks,
//!   short-circuited guards) the bytecode does not represent.
//!
//! The substrate is also the *producer* side of the runtime-telemetry
//! story (`pluto_obs::trace` / `pluto_obs::exec`): when a profile
//! session or trace is active, [`run_parallel`] records per-thread
//! chunk times and begin/end events per dispatch,
//! [`run_with_cache_attributed`] attributes cache misses to the IR
//! arrays, and [`run_parallel_profiled`] returns the derived
//! load-imbalance/barrier-wait aggregate without a global session. With
//! both switches off the instrumentation reduces to one relaxed atomic
//! load per dispatch — no clock reads, no buffers.
//!
//! DESIGN.md §3.1 justifies this substitution for the paper's hardware testbed.

mod arrays;
mod cache;
mod compile;
mod exec;
mod interp;
mod mem;
mod mix;
pub mod pool;
mod sanitize;
mod simulate;
#[cfg(test)]
mod testutil;

pub use arrays::Arrays;
pub use cache::{run_with_cache, run_with_cache_attributed, CacheConfig, CacheSim, CacheStats};
pub use compile::{
    compile_kernel, compile_kernel_with_extents, BodyOp, CAccess, CAff, CBound, CCond, CStmt,
    CompiledKernel, Instr, LeafOrigin, LoopOrigin, Provenance,
};
pub use exec::{
    chunk_len, chunk_plan, run_compiled, run_compiled_kernel, run_compiled_parallel,
    run_compiled_parallel_profiled, run_parallel, run_parallel_profiled, ExecStats, ParallelConfig,
    CHUNKS_PER_MEMBER, MIN_ITEMS_TO_ENLIST,
};
pub use interp::run_sequential;
pub use mix::{control_mix, ControlMix};
pub use sanitize::run_sanitized;
pub use simulate::{simulate, MachineConfig, SimStats};
