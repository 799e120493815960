//! The persistent worker pool shared by the execution engine and the
//! parallel dependence analyzer.
//!
//! The paper's OpenMP runtime keeps one thread team alive for the whole
//! program; a team spawned per parallel-loop entry would pay a spawn +
//! join each time — 755 spawn rounds on the jacobi-1d bench. This
//! crate provides one process-wide [`ThreadPool`] (re-exported as
//! `pluto_machine::pool` for the executor, used directly by `pluto_ir`'s
//! parallel dependence tests — `ir` sits below `machine` in the crate
//! graph, so the pool lives in this leaf crate both can depend on):
//!
//! * workers park on a condvar and are released by bumping a generation
//!   counter (a sense-reversing start barrier: the generation word *is*
//!   the sense, so a worker can never consume the same dispatch twice
//!   or miss one);
//! * completion is an atomic countdown (`active`) with a second condvar
//!   the dispatcher parks on — the join barrier;
//! * the dispatching thread participates in the team as member 0
//!   (timeline tid 0), so a `threads = n` configuration enlists only
//!   `n − 1` pool workers and small dispatches can run entirely inline
//!   without waking anyone;
//! * worker panics are caught, the barrier still completes (no deadlock,
//!   no dangling borrows of the dispatcher's stack), and the payload is
//!   re-raised on the dispatching thread; the worker itself survives for
//!   the next dispatch;
//! * workers inherit the dispatcher's [`ObsSession`](pluto_obs::ObsSession):
//!   [`ThreadPool::run`] captures the session installed on the calling
//!   thread and each enlisted worker re-installs it around its share of
//!   the job, so counters, chunk timings, and trace events recorded
//!   inside a parallel region land in the compile that dispatched it —
//!   even with concurrent compiles sharing the pool.
//!
//! Spawns are counted process-wide ([`spawn_count`]) so the bench harness
//! can assert the acceptance criterion "zero thread spawns after pool
//! init": the count must equal the pool width, once, per process.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// Threads ever spawned by any pool in this process.
static SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Total worker threads spawned by all pools in this process. With the
/// global pool warmed once, repeated dispatches must not move this.
pub fn spawn_count() -> usize {
    SPAWNED.load(Ordering::Relaxed)
}

/// The dispatch a worker runs: a borrowed `Fn(slot)` made `'static` for
/// the duration of one generation. Safety: [`ThreadPool::run`] does not
/// return (normally or by unwind) until every enlisted worker has
/// finished with the pointer, so the borrow never outlives the callee's
/// frame.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));
unsafe impl Send for JobPtr {}

struct State {
    /// Dispatch generation; bumping it is the start-barrier release.
    generation: u64,
    /// The current generation's job (valid while `active > 0`).
    job: Option<JobPtr>,
    /// The dispatcher's observability session for the current
    /// generation; enlisted workers install a clone around the job.
    session: Option<pluto_obs::ObsSession>,
    /// Worker slots enlisted in the current generation (slots
    /// `1..=team` run; higher slots skip it).
    team: usize,
    /// Enlisted workers still running the current generation.
    active: usize,
    /// First worker panic of the current generation, if any.
    panic_payload: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between generations.
    start: Condvar,
    /// The dispatcher parks here until `active` counts down to 0.
    done: Condvar,
}

/// Recover from a poisoned lock: pool state transitions are completed
/// before any user code runs (jobs execute outside the lock and under
/// `catch_unwind`), so the data is consistent even after a panic.
fn lock(m: &Mutex<State>) -> MutexGuard<'_, State> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn worker_loop(shared: Arc<Shared>, slot: usize) {
    let mut seen = 0u64;
    loop {
        let (job, session) = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    seen = st.generation;
                    if slot <= st.team {
                        break (
                            st.job.expect("job set for live generation"),
                            st.session.clone(),
                        );
                    }
                    // Not enlisted this generation: skip it and re-park.
                }
                st = shared.start.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        let r = catch_unwind(AssertUnwindSafe(|| {
            // Attribute this worker's recording to the dispatching
            // compile for the duration of the job; the guard restores
            // the (empty) slot even if the job panics.
            let _obs = session.as_ref().map(|s| s.install());
            unsafe { (*job.0)(slot) }
        }));
        let mut st = lock(&shared.state);
        if let Err(p) = r {
            st.panic_payload.get_or_insert(p);
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done.notify_one();
        }
    }
}

/// A persistent team of condvar-parked worker threads.
///
/// Dispatches are serialized per pool (one generation in flight); the
/// dispatching thread always participates as member 0.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Current worker count (monotonic; see [`ensure_width`]).
    ///
    /// [`ensure_width`]: ThreadPool::ensure_width
    width: AtomicUsize,
    /// OS threads this pool has ever spawned (its private share of
    /// [`spawn_count`]); lets tests pin "reuse must not spawn" on one
    /// pool without racing other pools in the process.
    spawned: AtomicUsize,
    /// Serializes dispatches from concurrent callers (the fuzz harness
    /// runs kernels from several test threads against the global pool).
    dispatch: Mutex<()>,
}

impl ThreadPool {
    /// Creates a pool with `width` parked workers (0 is a valid
    /// degenerate pool: every dispatch runs inline on the caller).
    pub fn new(width: usize) -> ThreadPool {
        let pool = ThreadPool {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    generation: 0,
                    job: None,
                    session: None,
                    team: 0,
                    active: 0,
                    panic_payload: None,
                    shutdown: false,
                }),
                start: Condvar::new(),
                done: Condvar::new(),
            }),
            handles: Mutex::new(Vec::new()),
            width: AtomicUsize::new(0),
            spawned: AtomicUsize::new(0),
            dispatch: Mutex::new(()),
        };
        pool.ensure_width(width);
        pool
    }

    /// Parked workers available for enlistment.
    pub fn width(&self) -> usize {
        self.width.load(Ordering::Acquire)
    }

    /// OS threads this pool has spawned over its lifetime. Monotonic:
    /// once the pool is warm, repeated dispatches must not move it.
    pub fn spawned(&self) -> usize {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Grows the pool to at least `width` workers (never shrinks). New
    /// workers take the next slot numbers; existing slots are stable, so
    /// trace timelines stay comparable across runs.
    pub fn ensure_width(&self, width: usize) {
        if self.width() >= width {
            return;
        }
        let mut handles = self.handles.lock().unwrap_or_else(|e| e.into_inner());
        let have = self.width();
        for slot in have + 1..=width {
            let shared = Arc::clone(&self.shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("pluto-worker-{slot}"))
                    .spawn(move || worker_loop(shared, slot))
                    .expect("spawn pool worker"),
            );
            SPAWNED.fetch_add(1, Ordering::Relaxed);
            self.spawned.fetch_add(1, Ordering::Relaxed);
        }
        self.width.store(width.max(have), Ordering::Release);
    }

    /// Runs `job` on `team + 1` members: the calling thread as member 0
    /// plus worker slots `1..=team` (capped at the pool width). Returns
    /// after every member finished — the implicit barrier at parallel
    /// loop exit. If any member panicked, the first payload is re-raised
    /// here after the barrier completes.
    pub fn run(&self, team: usize, job: &(dyn Fn(usize) + Sync)) {
        let team = team.min(self.width());
        let _serial = self.dispatch.lock().unwrap_or_else(|e| e.into_inner());
        if team > 0 {
            let mut st = lock(&self.shared.state);
            // Erase the borrow's lifetime; the join barrier below keeps
            // the pointer from outliving the frame it points into.
            let erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(job) };
            st.job = Some(JobPtr(erased));
            st.session = pluto_obs::ObsSession::current();
            st.generation = st.generation.wrapping_add(1);
            st.team = team;
            st.active = team;
            st.panic_payload = None;
            drop(st);
            self.shared.start.notify_all();
        }
        // Member 0 works too; its panic must not unwind past the join
        // while workers still borrow this frame through the job pointer.
        let own = catch_unwind(AssertUnwindSafe(|| job(0)));
        let worker_panic = if team > 0 {
            let mut st = lock(&self.shared.state);
            while st.active > 0 {
                st = self.shared.done.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            st.job = None;
            st.session = None;
            st.panic_payload.take()
        } else {
            None
        };
        if let Err(p) = own {
            resume_unwind(p);
        }
        if let Some(p) = worker_panic {
            resume_unwind(p);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
        }
        self.shared.start.notify_all();
        let handles = std::mem::take(&mut *self.handles.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The process-wide pool shared by the compiled executor
/// (`pluto_machine::run_parallel`) and the parallel dependence analyzer
/// (`pluto_ir`): created on first use, lazily grown to the widest
/// `threads − 1` ever requested, never dropped (workers park until
/// process exit).
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| ThreadPool::new(0))
}
