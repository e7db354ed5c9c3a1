//! In-memory spans for the traced pass.
//!
//! Each span records its name, start, end and the span that was open when
//! it began. Spans stay in a per-thread buffer and are written out once,
//! when the run ends. A layer's self time is its spans' durations minus the
//! parts covered by their child spans.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Runs `f` inside a span called `name`, nested under whatever span is
/// open on this thread.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let id = t.spans.len() as u32;
        let parent = t.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        t.open.push(id);
        id
    });
    let out = f();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let end_ns = t.epoch.elapsed().as_nanos() as u64;
        t.spans[id as usize].end_ns = end_ns;
        t.open.pop();
    });
    out
}

/// Self time per span name on this thread: `(total self ns, span count)`.
pub fn self_times() -> BTreeMap<&'static str, (u64, u64)> {
    TRACER.with(|t| {
        let t = t.borrow();
        let mut covered = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, child) in t.spans.iter().zip(&covered) {
            let entry = out.entry(s.name).or_default();
            entry.0 += (s.end_ns - s.start_ns).saturating_sub(*child);
            entry.1 += 1;
        }
        out
    })
}

/// Number of spans recorded on this thread.
pub fn span_count() -> usize {
    TRACER.with(|t| t.borrow().spans.len())
}

/// Writes this thread's spans as tab-separated `id parent name start_ns
/// end_ns` lines (parent `-` for a root span) and clears the buffer.
pub fn flush_to(path: &Path) -> Result<(), String> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        let write = |out: &mut std::io::BufWriter<std::fs::File>| -> std::io::Result<()> {
            writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
            for (id, s) in t.spans.iter().enumerate() {
                let parent = if s.parent == NO_PARENT {
                    "-".to_string()
                } else {
                    s.parent.to_string()
                };
                writeln!(
                    out,
                    "{id}\t{parent}\t{}\t{}\t{}",
                    s.name, s.start_ns, s.end_ns
                )?;
            }
            out.flush()
        };
        write(&mut out).map_err(|e| format!("{}: {e}", path.display()))?;
        t.spans.clear();
        Ok(())
    })
}
