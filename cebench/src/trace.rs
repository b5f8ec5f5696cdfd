//! In-memory spans recorded around calls into the product's public
//! functions, and the per-layer table built from them.
//!
//! A span has a name, a start, an end, a parent and the id of the
//! record or request it belongs to. Each thread buffers its spans and
//! hands them to the [`Tracer`] when it finishes; nothing is written
//! until the run ends. Self time is a span's duration minus the
//! durations of its children.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Unique, nonzero.
    pub id: u64,
    /// Parent span id; 0 for a root.
    pub parent: u64,
    /// Layer name, e.g. `cescore.score`.
    pub name: &'static str,
    /// Record or request id the span belongs to.
    pub rid: u64,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span sink shared by every thread of one traced run. A disabled
/// tracer records nothing and reads no clocks, so the same driver code
/// runs untraced for the overhead comparison.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    /// A tracer; `enabled = false` makes every call a plain call.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Converts an instant taken elsewhere to tracer time.
    pub fn at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A per-thread buffer.
    pub fn local(&self) -> Local<'_> {
        Local {
            tracer: self,
            buf: Vec::new(),
        }
    }

    /// Records a span whose ends were timed by the caller (client-side
    /// spans of a real server run). Returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        rid: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.spans
            .lock()
            .expect("span sink poisoned")
            .push(SpanRec {
                id,
                parent,
                name,
                rid,
                start_ns,
                end_ns,
            });
        id
    }

    /// Every span recorded so far, ordered by start.
    pub fn take(&self) -> Vec<SpanRec> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// An open span: closing it records `[start, now]`.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    /// Its id (0 when tracing is off); children name it as parent.
    pub id: u64,
    parent: u64,
    name: &'static str,
    rid: u64,
    start_ns: u64,
}

/// One thread's span buffer; flushes into the tracer on drop.
pub struct Local<'t> {
    tracer: &'t Tracer,
    buf: Vec<SpanRec>,
}

impl Local<'_> {
    /// Opens a span (a root or an inner node with children).
    pub fn open(&mut self, name: &'static str, parent: u64, rid: u64) -> Open {
        if !self.tracer.enabled {
            return Open {
                id: 0,
                parent,
                name,
                rid,
                start_ns: 0,
            };
        }
        Open {
            id: self.tracer.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            rid,
            start_ns: self.tracer.now_ns(),
        }
    }

    /// Closes a span opened by [`Local::open`].
    pub fn close(&mut self, open: Open) {
        if self.tracer.enabled {
            let end_ns = self.tracer.now_ns();
            self.buf.push(SpanRec {
                id: open.id,
                parent: open.parent,
                name: open.name,
                rid: open.rid,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        rid: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.tracer.enabled {
            return f();
        }
        let open = self.open(name, parent, rid);
        let out = f();
        self.close(open);
        out
    }
}

impl Drop for Local<'_> {
    fn drop(&mut self) {
        if !self.buf.is_empty() {
            self.tracer
                .spans
                .lock()
                .expect("span sink poisoned")
                .append(&mut self.buf);
        }
    }
}

/// Self time of every span (same order as `spans`): duration minus the
/// summed durations of its children, floored at zero.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *children.entry(s.parent).or_default() += s.dur_ns();
    }
    spans
        .iter()
        .map(|s| {
            s.dur_ns()
                .saturating_sub(children.get(&s.id).copied().unwrap_or(0))
        })
        .collect()
}

/// Calls, summed self time and call durations of one layer.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    /// Calls made.
    pub calls: usize,
    /// Summed self time.
    pub self_ns: u64,
    /// Each call's duration, in microseconds.
    pub durations_us: Vec<f64>,
}

impl Layer {
    /// Adds one call.
    pub fn add(&mut self, dur_ns: u64, self_ns: u64) {
        self.calls += 1;
        self.self_ns += self_ns;
        self.durations_us.push(dur_ns as f64 / 1e3);
    }

    /// Nearest-rank percentile of call durations (µs), when enough
    /// calls lie beyond it.
    pub fn percentile_us(&self, q: f64) -> Option<f64> {
        stats::percentile(&stats::sorted(&self.durations_us), q)
    }
}

/// Aggregates spans into the named layers; spans of other names (record
/// and request roots) only contribute as parents.
pub fn layers(spans: &[SpanRec], names: &[&'static str]) -> BTreeMap<&'static str, Layer> {
    let mut table: BTreeMap<&'static str, Layer> =
        names.iter().map(|n| (*n, Layer::default())).collect();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        if let Some(layer) = table.get_mut(span.name) {
            layer.add(span.dur_ns(), self_ns);
        }
    }
    table
}

/// Thread time not covered by any layer's self time:
/// `wall × threads − Σ self`, in milliseconds. Negative only by clock
/// slack, which the self-tests bound.
pub fn unattributed_ms(wall_ns: u64, threads: usize, table: &BTreeMap<&'static str, Layer>) -> f64 {
    let covered: u64 = table.values().map(|l| l.self_ns).sum();
    (wall_ns as f64 * threads as f64 - covered as f64) / 1e6
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"rid\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.rid, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name,
            rid: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100] > a [10,60] > b [20,30], and root > c [70,90].
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 60),
            span(3, 2, "b", 20, 30),
            span(4, 1, "c", 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        let table = layers(&spans, &["a", "b", "c"]);
        assert_eq!(table["a"].self_ns, 40);
        assert_eq!(table["b"].calls, 1);
        // One thread over 100 ns: root's own 30 ns is not a layer.
        assert_eq!(unattributed_ms(100, 1, &table), 30.0 / 1e6);
    }

    #[test]
    fn recorded_spans_nest_and_time_real_work() {
        let tracer = Tracer::new(true);
        {
            let mut local = tracer.local();
            let root = local.open("root", 0, 7);
            local.time("leaf", root.id, 7, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            local.close(root);
        }
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        let leaf = spans.iter().find(|s| s.name == "leaf").unwrap();
        assert_eq!(leaf.parent, root.id);
        assert!(leaf.dur_ns() >= 2_000_000 && root.dur_ns() >= leaf.dur_ns());
        assert!(root.start_ns <= leaf.start_ns && leaf.end_ns <= root.end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let mut local = tracer.local();
            let root = local.open("root", 0, 1);
            assert_eq!(local.time("leaf", root.id, 1, || 5), 5);
            local.close(root);
        }
        assert_eq!(tracer.record("x", 0, 0, 0, 1), 0);
        assert!(tracer.take().is_empty());
    }
}
