//! Runtime execution tracing: per-thread event buffers and a Chrome
//! Trace Event Format exporter.
//!
//! Where [`span`](crate::span)/[`counters`](crate::counters) answer
//! "what did the *compiler* do", this module answers "what did the
//! *generated program* do, per thread": the machine substrate's thread
//! teams record timestamped begin/end events into thread-owned buffers
//! while a trace-recording session is installed, and
//! [`Trace::to_chrome_json`] lays them out under the `trace_event/1`
//! schema — a Chrome Trace Event Format document (JSON Object Format)
//! loadable in Perfetto or `chrome://tracing` (walkthrough in
//! PERFORMANCE.md).
//!
//! # Recording model
//!
//! Tracing is a per-session recorder
//! ([`ObsSessionBuilder::trace`](crate::ObsSessionBuilder::trace)); with
//! no session installed anywhere, [`enabled`] costs one relaxed atomic
//! load. When on, each participating thread creates its own [`RingBuf`]
//! — a bounded, thread-owned event buffer written with no
//! synchronization whatsoever (the owning thread is the only writer) —
//! and [`RingBuf::submit`]s it into the owning session's collector
//! *once*, at the end of its chunk of work: one lock acquisition per
//! thread per parallel-loop dispatch, never per event. The buffer holds
//! its session handle from creation, so events land in the compile that
//! was current when the dispatch began even if the worker's installed
//! session changes. A buffer that fills up drops further events and
//! reports the drop count at submit time instead of reallocating, so
//! tracing perturbs the traced run as little as possible.
//!
//! Timestamps are relative to the owning session's construction instant,
//! so every compile's trace starts near zero and two concurrent
//! sessions' clocks are independent ([`Trace`] additionally normalizes
//! to the earliest event on export).
//!
//! Thread ids are small integers assigned by the instrumented code:
//! tid 0 is the coordinating thread, tids 1..=N are worker slots of the
//! thread team (stable across dispatches, so one Perfetto track per
//! worker slot).
//!
//! ```
//! use pluto_obs::ObsSession;
//! let session = ObsSession::builder().trace().build();
//! {
//!     let _guard = session.install();
//!     let mut buf = pluto_obs::trace::RingBuf::for_thread(1).expect("tracing is on");
//!     buf.begin("chunk", &[("items", 8)]);
//!     buf.end("chunk", &[("instances", 8)]);
//!     buf.submit();
//! }
//! let trace = session.take_trace();
//! assert_eq!(trace.events.len(), 2);
//! let doc = trace.to_chrome_json();
//! assert_eq!(doc.get("schema").unwrap().as_str(), Some("trace_event/1"));
//! ```

use crate::json::{arr, num, obj, string, Json};
use crate::SessionState;
use std::sync::Arc;

/// Default per-thread buffer capacity, in events. A wavefront dispatch
/// records two events per worker, so this bounds even pathological
/// loop-per-point traces; overflow drops events (counted) rather than
/// reallocating mid-measurement.
pub const RING_CAPACITY: usize = 1 << 16;

/// Whether the session installed on this thread records a trace (one
/// relaxed atomic load while no session is installed anywhere — the
/// entire disabled-path cost, as with [`enabled`](crate::enabled)).
#[inline]
pub fn enabled() -> bool {
    crate::current_state().is_some_and(|s| s.tracing)
}

/// Records one compile-time span event straight into `state`'s collector
/// on the coordinator timeline (tid 0). Called by
/// [`span`](crate::span)/`SpanGuard` while its session records a trace,
/// so optimizer phases (`parse`, `optimize/search`, `codegen`, …) appear
/// on the same Perfetto view as the thread team's runtime events. One
/// lock acquisition per event is fine here: spans fire per compiler
/// *phase*, not per iteration (the per-iteration runtime path keeps
/// using thread-owned [`RingBuf`]s).
pub(crate) fn record_compile_event(state: &SessionState, name: &str, ph: Phase) {
    let ts_ns = state.started.elapsed().as_nanos();
    state
        .trace_events
        .lock()
        .expect("trace buffer poisoned")
        .push(TraceEvent {
            name: name.to_string(),
            ph,
            tid: 0,
            ts_ns,
            args: Vec::new(),
        });
}

/// Event phase, mirroring the Chrome Trace Event `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span begin (`"B"`).
    Begin,
    /// Span end (`"E"`).
    End,
    /// Instant event (`"i"`).
    Instant,
}

impl Phase {
    /// The Chrome Trace Event `ph` string.
    pub fn as_str(&self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
        }
    }
}

/// One timestamped event on one thread's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (the Perfetto slice label), e.g. the parallel loop's
    /// display name.
    pub name: String,
    /// Begin / end / instant.
    pub ph: Phase,
    /// Timeline this event belongs to: 0 = coordinator, 1..=N = worker
    /// slots.
    pub tid: u32,
    /// Nanoseconds since the owning session's construction.
    pub ts_ns: u128,
    /// Numeric payload rendered into the Chrome `args` object
    /// (item counts, instance counts, milli-ratios …).
    pub args: Vec<(&'static str, u64)>,
}

/// A bounded, thread-owned event buffer: the only writer is the owning
/// thread, so recording is synchronization-free; the single lock is
/// taken once, in [`submit`](RingBuf::submit). The buffer pins the
/// session that was current at creation, so its events land in the
/// dispatching compile.
pub struct RingBuf {
    session: Arc<SessionState>,
    tid: u32,
    events: Vec<TraceEvent>,
    capacity: usize,
    /// Events discarded because the buffer was full.
    dropped: u64,
}

impl std::fmt::Debug for RingBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingBuf")
            .field("tid", &self.tid)
            .field("events", &self.events)
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped)
            .finish_non_exhaustive()
    }
}

impl RingBuf {
    /// Creates a buffer for worker slot `tid` if the session installed
    /// on this thread records a trace; `None` (no allocation) otherwise
    /// — callers hold the `Option` and stay zero-cost when tracing is
    /// off.
    pub fn for_thread(tid: u32) -> Option<RingBuf> {
        let session = crate::current_state().filter(|s| s.tracing)?;
        Some(RingBuf {
            session,
            tid,
            events: Vec::with_capacity(64),
            capacity: RING_CAPACITY,
            dropped: 0,
        })
    }

    fn push(&mut self, name: &str, ph: Phase, args: &[(&'static str, u64)]) {
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        let ts_ns = self.session.started.elapsed().as_nanos();
        self.events.push(TraceEvent {
            name: name.to_string(),
            ph,
            tid: self.tid,
            ts_ns,
            args: args.to_vec(),
        });
    }

    /// Records a span-begin event, timestamped now.
    pub fn begin(&mut self, name: &str, args: &[(&'static str, u64)]) {
        self.push(name, Phase::Begin, args);
    }

    /// Records a span-end event, timestamped now.
    pub fn end(&mut self, name: &str, args: &[(&'static str, u64)]) {
        self.push(name, Phase::End, args);
    }

    /// Records an instant event, timestamped now.
    pub fn instant(&mut self, name: &str, args: &[(&'static str, u64)]) {
        self.push(name, Phase::Instant, args);
    }

    /// Moves the buffered events into the owning session's collector —
    /// the one lock acquisition of this buffer's lifetime. Overflow is
    /// reported as a final `trace.dropped` instant event rather than
    /// lost silently.
    pub fn submit(mut self) {
        if self.dropped > 0 {
            // Bypasses the capacity check: the report must not be
            // dropped by the very condition it reports.
            let ts_ns = self.session.started.elapsed().as_nanos();
            self.events.push(TraceEvent {
                name: "trace.dropped".to_string(),
                ph: Phase::Instant,
                tid: self.tid,
                ts_ns,
                args: vec![("events", self.dropped)],
            });
        }
        if self.events.is_empty() {
            return;
        }
        self.session
            .trace_events
            .lock()
            .expect("trace buffer poisoned")
            .append(&mut self.events);
    }
}

/// A finished trace: every submitted event, sorted by timestamp.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// All events, sorted by `(ts_ns, tid)`.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Number of distinct thread timelines in the trace.
    pub fn distinct_tids(&self) -> usize {
        let mut tids: Vec<u32> = self.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        tids.len()
    }

    /// The trace as a Chrome Trace Event Format document (JSON Object
    /// Format), schema `trace_event/1`:
    ///
    /// * `schema` — `"trace_event/1"` (a pluto-rs extension field;
    ///   Chrome/Perfetto ignore unknown top-level keys);
    /// * `displayTimeUnit` — `"ns"`;
    /// * `traceEvents` — one object per event with the standard
    ///   `name`/`ph`/`pid`/`tid`/`ts`/`args` fields (`ts` in
    ///   microseconds as the format requires, nanoseconds in the
    ///   fraction, and timestamps normalized so the earliest event is
    ///   `t = 0`), after one `M`-phase `thread_name` metadata record per
    ///   timeline so Perfetto labels the tracks (`coordinator`,
    ///   `worker-1`, …).
    ///
    /// `tests/trace_golden.rs` pins the shape.
    pub fn to_chrome_json(&self) -> Json {
        let t0 = self.events.iter().map(|e| e.ts_ns).min().unwrap_or(0);
        let mut tids: Vec<u32> = self.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        let threads = tids.iter().map(|&tid| {
            let label = if tid == 0 {
                "coordinator".to_string()
            } else {
                format!("worker-{tid}")
            };
            obj([
                ("name", string("thread_name")),
                ("ph", string("M")),
                ("pid", num(1u8)),
                ("tid", num(tid)),
                ("args", obj([("name", string(label))])),
            ])
        });
        let events = self.events.iter().map(|e| {
            let mut fields = vec![
                ("name", string(&*e.name)),
                ("ph", string(e.ph.as_str())),
                ("pid", num(1u8)),
                ("tid", num(e.tid)),
                ("ts", num((e.ts_ns - t0) as f64 / 1_000.0)),
            ];
            if e.ph == Phase::Instant {
                fields.push(("s", string("t")));
            }
            fields.push(("args", obj(e.args.iter().map(|&(k, v)| (k, num(v))))));
            obj(fields)
        });
        obj([
            ("schema", string("trace_event/1")),
            ("displayTimeUnit", string("ns")),
            ("traceEvents", arr(threads.chain(events))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsSession;

    fn trace_session() -> ObsSession {
        ObsSession::builder().trace().build()
    }

    #[test]
    fn disabled_tracing_allocates_nothing() {
        assert!(!enabled());
        // No trace-recording session: no buffer is handed out.
        assert!(RingBuf::for_thread(3).is_none());
        // A profile-only session does not enable tracing either.
        let session = ObsSession::profiled();
        let _guard = session.install();
        assert!(!enabled());
        assert!(RingBuf::for_thread(3).is_none());
        assert!(session.take_trace().events.is_empty());
    }

    #[test]
    fn events_round_trip_through_buffers() {
        let session = trace_session();
        {
            let _guard = session.install();
            let mut b1 = RingBuf::for_thread(1).expect("tracing on");
            let mut b2 = RingBuf::for_thread(2).expect("tracing on");
            b1.begin("chunk", &[("items", 4)]);
            b1.end("chunk", &[("instances", 4)]);
            b2.begin("chunk", &[("items", 3)]);
            b2.end("chunk", &[]);
            b1.submit();
            b2.submit();
        }
        let t = session.take_trace();
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.distinct_tids(), 2);
        // Timestamps are sorted and monotone per thread.
        for pair in t.events.windows(2) {
            assert!(pair[0].ts_ns <= pair[1].ts_ns);
        }
        let doc = t.to_chrome_json();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("trace_event/1"));
        let evs = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 4 events + 2 thread_name metadata records.
        assert_eq!(evs.len(), 6);
    }

    #[test]
    fn submitted_events_outlive_the_install() {
        // A buffer created under an installed session keeps recording
        // into that session even after the install guard drops — the
        // worker-thread shape: the dispatching session is captured at
        // buffer creation.
        let session = trace_session();
        let mut b = {
            let _guard = session.install();
            RingBuf::for_thread(1).expect("tracing on")
        };
        b.instant("late", &[]);
        b.submit();
        let t = session.take_trace();
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].name, "late");
    }

    #[test]
    fn overflow_drops_and_reports() {
        let session = trace_session();
        {
            let _guard = session.install();
            let mut b = RingBuf::for_thread(1).expect("tracing on");
            b.capacity = 4;
            for _ in 0..6 {
                b.begin("e", &[]);
            }
            b.submit();
        }
        let t = session.take_trace();
        // 4 kept, capacity freed by the drop report replacing nothing:
        // the report itself needs a slot, so it is appended above cap.
        let dropped = t
            .events
            .iter()
            .find(|e| e.name == "trace.dropped")
            .expect("drop report present");
        assert_eq!(dropped.args, vec![("events", 2)]);
    }

    #[test]
    fn compile_spans_flow_into_the_trace() {
        let session = trace_session();
        {
            let _guard = session.install();
            let _outer = crate::span("optimize");
            let _inner = crate::span("search");
        }
        let t = session.take_trace();
        // Two begin/end pairs, all on the coordinator timeline, with
        // the nested span recorded under its joined path.
        assert_eq!(t.events.len(), 4);
        assert!(t.events.iter().all(|e| e.tid == 0));
        assert!(t
            .events
            .iter()
            .any(|e| e.name == "optimize/search" && e.ph == Phase::Begin));
        assert!(t
            .events
            .iter()
            .any(|e| e.name == "optimize" && e.ph == Phase::End));
    }

    #[test]
    fn take_trace_drains() {
        let session = trace_session();
        {
            let _guard = session.install();
            let mut b = RingBuf::for_thread(0).unwrap();
            b.instant("mark", &[]);
            b.submit();
        }
        assert_eq!(session.take_trace().events.len(), 1);
        assert!(session.take_trace().events.is_empty());
        assert!(!enabled());
    }
}
