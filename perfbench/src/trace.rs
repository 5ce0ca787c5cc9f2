//! Spans recorded by the benchmark's own files only: one root span per
//! operation on the client thread, child spans around each public call the
//! operation makes, and one span per device operation. Spans sit in a
//! pre-sized in-memory buffer and are written out when the workload ends.
//! Spans inside the crates are a later change (ROADMAP item 2); until a
//! message carries trace context, a device span cannot name the operation
//! that caused it, so its parent and operation id are 0.

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Clone, Copy)]
pub struct Span {
    pub id: u32,
    /// Enclosing span, 0 for a root or a device span.
    pub parent: u32,
    /// Operation id shared by the spans of one operation, 0 for device spans.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Public calls the span covers (a loop of 1024 warm dereferences is
    /// one span, so that tracing costs the loop two clock reads, not 2048).
    pub calls: u32,
    /// Storage area for device spans.
    pub area: u32,
}

struct Tracer {
    on: AtomicBool,
    next_id: AtomicU32,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        // Relaxed everywhere: the flag and the id counter publish no other
        // data; the span buffer has its own mutex.
        on: AtomicBool::new(false),
        next_id: AtomicU32::new(1),
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    /// `(root span id, operation id)` of the operation this thread runs.
    static CURRENT: Cell<(u32, u64)> = const { Cell::new((0, 0)) };
}

/// Pre-sizes the buffer; a traced run calls this before measuring.
pub fn reserve(spans: usize) {
    tracer().spans.lock().expect("span buffer").reserve(spans);
}

pub fn set_on(on: bool) {
    tracer().on.store(on, Ordering::Relaxed);
}

pub fn is_on() -> bool {
    tracer().on.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    tracer().epoch.elapsed().as_nanos() as u64
}

/// An open span; recorded when dropped. Inert while tracing is off.
pub struct Guard {
    live: Option<Span>,
    root: bool,
}

impl Guard {
    fn open(name: &'static str, parent: u32, op: u64, calls: u32, area: u32, root: bool) -> Guard {
        if !is_on() {
            return Guard { live: None, root };
        }
        let id = tracer().next_id.fetch_add(1, Ordering::Relaxed);
        if root {
            CURRENT.set((id, op));
        }
        Guard {
            live: Some(Span {
                id,
                parent,
                op,
                name,
                start_ns: now_ns(),
                end_ns: 0,
                calls,
                area,
            }),
            root,
        }
    }
}

impl Guard {
    /// Renames the span once the call's outcome is known (a dereference
    /// turns out cold).
    pub fn rename(&mut self, name: &'static str) {
        if let Some(span) = &mut self.live {
            span.name = name;
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.root {
            CURRENT.set((0, 0));
        }
        if let Some(mut span) = self.live.take() {
            span.end_ns = now_ns();
            tracer().spans.lock().expect("span buffer").push(span);
        }
    }
}

/// Root span of operation `op` on the calling client thread.
pub fn op(op: u64) -> Guard {
    Guard::open("op", 0, op, 1, 0, true)
}

/// Child span around `calls` public calls of the current operation.
pub fn call(name: &'static str, calls: u32) -> Guard {
    let (parent, op) = CURRENT.get();
    Guard::open(name, parent, op, calls, 0, false)
}

/// Span of one device operation on `area`.
pub fn device(name: &'static str, area: u32) -> Guard {
    Guard::open(name, 0, 0, 1, area, false)
}

/// Takes every recorded span out of the buffer.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *tracer().spans.lock().expect("span buffer"))
}

/// One JSON object per line: name, start, end, parent, op id.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{},\"area\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, s.calls, s.area
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test: the tracer is process-wide, and `cargo test` runs tests on
    // parallel threads.
    #[test]
    fn spans_nest_under_their_operation_and_vanish_when_off() {
        set_on(false);
        drop(op(1));
        drop(call("get", 1));
        set_on(true);
        {
            let _root = op(7);
            let _child = call("get", 1024);
        }
        drop(device("read", 3));
        set_on(false);
        let spans = drain();
        let mine: Vec<&Span> = spans.iter().filter(|s| s.op == 7 || s.area == 3).collect();
        assert_eq!(mine.len(), 3);
        let root = mine.iter().find(|s| s.name == "op").expect("root span");
        let child = mine.iter().find(|s| s.name == "get").expect("child span");
        assert_eq!(child.parent, root.id);
        assert_eq!((child.op, child.calls), (7, 1024));
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        let dev = mine.iter().find(|s| s.name == "read").expect("device span");
        assert_eq!((dev.parent, dev.op, dev.area), (0, 0, 3));
        assert!(!spans.iter().any(|s| s.op == 1), "spans recorded while off");
    }
}
