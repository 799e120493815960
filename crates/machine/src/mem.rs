//! Memory backends of the bytecode engine. A backend sees every access as
//! `(array, flat offset)` — the one thing a compiled leaf computes — and
//! derives whatever else it needs (a simulated address, a race history)
//! from that pair.

use crate::arrays::Arrays;

/// Abstraction over the different memory backends.
pub(crate) trait Mem {
    fn load(&mut self, a: usize, off: usize) -> f64;
    fn store(&mut self, a: usize, off: usize, v: f64);
}

/// Plain single-threaded backend over the owned arrays.
pub(crate) struct Direct<'a>(pub &'a mut Arrays);

impl Mem for Direct<'_> {
    #[inline]
    fn load(&mut self, a: usize, off: usize) -> f64 {
        self.0.load(a, off)
    }
    #[inline]
    fn store(&mut self, a: usize, off: usize, v: f64) {
        self.0.store(a, off, v);
    }
}

/// Raw-pointer backend for the thread team.
///
/// Safety: distinct iterations of a loop marked parallel have disjoint
/// write sets and no read/write overlap — that is exactly the dependence
/// condition the transformation framework establishes (and the test-suite
/// re-verifies with `validate_legality`), so concurrent threads never race.
#[derive(Clone, Copy)]
pub(crate) struct RawMem<'a> {
    pub ptrs: &'a [SendPtr],
}

#[derive(Clone, Copy)]
pub(crate) struct SendPtr(pub *mut f64);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl Mem for RawMem<'_> {
    #[inline]
    fn load(&mut self, a: usize, off: usize) -> f64 {
        unsafe { *self.ptrs[a].0.add(off) }
    }
    #[inline]
    fn store(&mut self, a: usize, off: usize, v: f64) {
        unsafe { *self.ptrs[a].0.add(off) = v }
    }
}
