//! In-memory span recorder for the traced run.
//!
//! Each span is (id, parent, name, thread, start, end). Spans are pushed
//! to one vector under a mutex when they close — a few per cluster, so the
//! lock is noise next to the work they wrap. The parent is the innermost
//! open span on the same thread, or an explicit id for work handed to the
//! pool's worker threads.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Inclusive and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub calls: u64,
    pub inclusive_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = THREAD_IDS.fetch_add(1, Ordering::Relaxed);
}

static THREAD_IDS: AtomicU64 = AtomicU64::new(0);

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span whose parent is the innermost open span on
    /// this thread.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let parent = STACK.with(|s| s.borrow().last().copied());
        self.span_in(parent, name, f)
    }

    /// Run `f` inside a span with an explicit parent (for jobs running on
    /// pool workers whose logical parent is open on another thread).
    pub fn span_in<R>(&self, parent: Option<u64>, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().push(id));
        let start = self.t0.elapsed();
        let out = f();
        let end = self.t0.elapsed();
        STACK.with(|s| s.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            name,
            thread: THREAD.with(|t| *t),
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        };
        self.spans.lock().expect("span list poisoned").push(span);
        out
    }

    /// Id of the innermost open span on this thread.
    pub fn current(&self) -> Option<u64> {
        STACK.with(|s| s.borrow().last().copied())
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span list poisoned").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }

    /// Per-name inclusive and self time. A span's self time is its
    /// duration minus the time its children on the same thread cover;
    /// children on other threads (pool jobs) overlap each other, so they
    /// are not subtracted.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        let thread_of: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.thread)).collect();
        for s in &spans {
            if let Some(p) = s.parent {
                if thread_of.get(&p) == Some(&s.thread) {
                    *child_ns.entry(p).or_default() += s.nanos();
                }
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for s in &spans {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.inclusive_ns += s.nanos();
            e.self_ns += s
                .nanos()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.name, s.thread, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_same_thread_children() {
        let tr = Tracer::new();
        tr.span("outer", || {
            tr.span("inner", || std::thread::sleep(Duration::from_millis(5)));
            std::thread::sleep(Duration::from_millis(2));
        });
        let layers = tr.layers();
        let outer = layers["outer"];
        let inner = layers["inner"];
        assert_eq!(outer.calls, 1);
        assert!(outer.inclusive_ns >= inner.inclusive_ns + 2_000_000);
        assert_eq!(outer.self_ns, outer.inclusive_ns - inner.inclusive_ns);
        let spans = tr.spans();
        let outer_id = spans.iter().find(|s| s.name == "outer").unwrap().id;
        assert_eq!(
            spans.iter().find(|s| s.name == "inner").unwrap().parent,
            Some(outer_id)
        );
    }
}
