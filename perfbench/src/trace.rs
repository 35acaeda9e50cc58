//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! library layer; nothing inside the library is instrumented. A span's
//! name is `<layer>.<what>`, so a layer's self time is the summed
//! duration of its spans minus the parts their child spans cover.
//!
//! Consecutive leaf spans of one parent with the same name and label
//! merge into one record that counts the calls and sums their busy
//! time, so a sweep of many cheap replicates stays a few records long.

use bib_core::protocol::{DynProtocol, Observer, Outcome, Protocol, RunConfig};
use bib_rng::Rng64;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
// lint:allow(D1): the benchmark's one clock; it times library calls from outside and feeds no outcome
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Traced unit this span belongs to (probes and set-up share the
    /// number of the unit they follow).
    pub run: u32,
    /// `<layer>.<what>`, e.g. `engine.allocate`.
    pub name: &'static str,
    /// Cell, family or sampler the span worked on ("" if none).
    pub label: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// [`now_ns`] at entry.
    pub start_ns: u64,
    /// [`now_ns`] at exit.
    pub end_ns: u64,
    /// Time inside the span: `end_ns − start_ns`, or for merged spans
    /// the sum of the merged intervals.
    pub busy_ns: u64,
    /// Items the span processed (replicates, draws, scans); per-item
    /// times divide by it.
    pub count: u64,
}

impl Span {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The span recorder. Open spans nest: a span entered while another is
/// open becomes its child.
#[derive(Debug, Default)]
pub struct Trace {
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Nanoseconds since the first call in this process: the only clock
/// the benchmark reads.
pub fn now_ns() -> u64 {
    // lint:allow(D1): see the import; a process-wide epoch for spans and timings
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    // lint:allow(D1): see the import
    let elapsed = EPOCH.get_or_init(Instant::now).elapsed();
    u64::try_from(elapsed.as_nanos()).expect("a run shorter than 584 years")
}

/// Seconds since `start_ns`, a reading of [`now_ns`].
pub fn secs_since(start_ns: u64) -> f64 {
    (now_ns() - start_ns) as f64 / 1e9
}

impl Trace {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the run id stamped on spans entered from now on.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Opens a span and returns its index.
    pub fn enter(&mut self, name: &'static str, label: &'static str, count: u64) -> usize {
        let id = self.spans.len();
        let start_ns = now_ns();
        self.spans.push(Span {
            run: self.run,
            name,
            label,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            busy_ns: 0,
            count,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, merging it
    /// into the previous span if that is a sibling leaf of the same kind.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let end_ns = now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - span.start_ns;
        let is_leaf = id + 1 == self.spans.len();
        if let (true, Some(prev)) = (is_leaf, id.checked_sub(1)) {
            let (p, s) = (&self.spans[prev], &self.spans[id]);
            if (p.run, p.parent, p.name, p.label) == (s.run, s.parent, s.name, s.label) {
                let s = self.spans.pop().expect("the span just closed");
                let p = &mut self.spans[prev];
                p.end_ns = s.end_ns;
                p.busy_ns += s.busy_ns;
                p.count += s.count;
            }
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"run\": {}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"label\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"busy_ns\": {}, \
                 \"count\": {}}}",
                s.run, s.name, s.label, s.start_ns, s.end_ns, s.busy_ns, s.count
            );
        }
        out
    }

    /// Self time per `(run, layer)` of the spans inside root spans named
    /// `root`: each span's busy time minus that of its direct children.
    pub fn self_ns_under(&self, root: &str) -> BTreeMap<(u32, &'static str), u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.busy_ns;
            }
        }
        let root_of = |mut i: usize| {
            while let Some(p) = self.spans[i].parent {
                i = p;
            }
            i
        };
        let mut out = BTreeMap::new();
        for (i, (s, children)) in self.spans.iter().zip(child_ns).enumerate() {
            if self.spans[root_of(i)].name == root {
                *out.entry((s.run, s.layer())).or_insert(0) += s.busy_ns.saturating_sub(children);
            }
        }
        out
    }
}

/// Runs `f` inside a span when tracing, or just runs it. The span is
/// closed even if `f` panics, so a failed check caught further out
/// leaves the recorder consistent.
pub fn span<T>(
    trace: Option<&Mutex<Trace>>,
    name: &'static str,
    label: &'static str,
    count: u64,
    f: impl FnOnce() -> T,
) -> T {
    let Some(trace) = trace else {
        return f();
    };
    let _open = Open {
        id: lock(trace).enter(name, label, count),
        trace,
    };
    f()
}

/// An open span; dropping it closes the span, on unwinding too.
struct Open<'a> {
    trace: &'a Mutex<Trace>,
    id: usize,
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        lock(self.trace).exit(self.id);
    }
}

/// The recorder is never left half-updated, so a poisoned lock is safe
/// to take.
fn lock(trace: &Mutex<Trace>) -> MutexGuard<'_, Trace> {
    trace.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A protocol that records an `engine.allocate` span around every call
/// to the wrapped protocol's `allocate`. The name is forwarded, so
/// replicate seeds are the same as for the bare protocol.
pub struct Timed<'a> {
    /// The protocol under test.
    pub inner: &'a (dyn DynProtocol + Send + Sync),
    /// Cell label stamped on the spans.
    pub label: &'static str,
    /// Where the spans go.
    pub trace: &'a Mutex<Trace>,
}

impl Protocol for Timed<'_> {
    fn name(&self) -> String {
        self.inner.dyn_name()
    }

    fn allocate<R, O>(&self, cfg: &RunConfig, rng: &mut R, obs: &mut O) -> Outcome
    where
        R: Rng64 + ?Sized,
        O: Observer + ?Sized,
    {
        span(Some(self.trace), "engine.allocate", self.label, 1, || {
            self.inner.allocate(cfg, rng, obs)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Trace::new();
        let outer = t.enter("replicate.call", "", 2);
        let inner = t.enter("engine.allocate", "", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        // A second call merges into the first record.
        let again = t.enter("engine.allocate", "", 1);
        t.exit(again);
        t.exit(outer);
        let probe = t.enter("rng.next_u64", "", 1);
        t.exit(probe);
        let selfs = t.self_ns_under("replicate.call");
        let engine = selfs[&(0, "engine")];
        let replicate = selfs[&(0, "replicate")];
        assert!(engine >= 2_000_000);
        assert_eq!(engine + replicate, t.spans()[outer].busy_ns);
        assert!(!selfs.contains_key(&(0, "rng")), "probe outside the root");
        assert_eq!(t.spans()[inner].parent, Some(outer));
        assert_eq!(t.spans()[inner].count, 2);
        assert!(t.spans()[inner].busy_ns <= t.spans()[inner].end_ns - t.spans()[inner].start_ns);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn a_panicking_span_is_closed() {
        let trace = Mutex::new(Trace::new());
        span(Some(&trace), "bench.unit", "", 1, || {
            let caught = std::panic::catch_unwind(|| {
                span(Some(&trace), "stream.serve", "", 1, || {
                    panic!("check failed")
                })
            });
            assert!(caught.is_err());
        });
        let t = trace.into_inner().expect("no panic while locked");
        assert!(t.open.is_empty());
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
