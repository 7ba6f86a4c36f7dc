//! In-memory span recording and per-layer self time.
//!
//! A span marks one call into a layer of the workspace: its name (the
//! layer, e.g. `kinetics.ode`), start, end, the span that caused it, and
//! the request it belongs to (a sweep round or a wire job). Parents are
//! passed explicitly, so a cell running on a pool thread still hangs
//! under the round span of the thread that submitted it. Spans stay in
//! memory until the run ends, when [`write_jsonl`] writes them out.
//!
//! A layer's *self time* is its spans' durations minus the part of each
//! interval that child spans cover. Children may overlap one another (two
//! pool workers under one round), so coverage is the length of the union
//! of the child intervals, clipped to the parent.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id (1-based).
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The request (round or job) this span works for.
    pub request: u64,
    /// The layer name.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

/// What a child needs to know about its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx {
    id: u64,
    request: u64,
}

/// Collects spans when enabled; a disabled tracer records nothing and
/// reads no clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

/// An open span; recorded when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Span<'t> {
    tracer: &'t Tracer,
    open: Option<(SpanCtx, Option<u64>, &'static str, u64)>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&self, name: &'static str, parent: Option<u64>, request: u64) -> Span<'_> {
        if !self.is_enabled() {
            return Span {
                tracer: self,
                open: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Span {
            tracer: self,
            open: Some((SpanCtx { id, request }, parent, name, self.now_ns())),
        }
    }

    /// Opens the root span of request `request`.
    pub fn root(&self, name: &'static str, request: u64) -> Span<'_> {
        self.open(name, None, request)
    }

    /// Opens a span caused by `parent` (a root of request 0 when the
    /// parent was not recorded).
    pub fn child(&self, name: &'static str, parent: Option<SpanCtx>) -> Span<'_> {
        match parent {
            Some(p) => self.open(name, Some(p.id), p.request),
            None => self.open(name, None, 0),
        }
    }

    /// Removes and returns every finished span, in finishing order.
    pub fn take(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.spans.lock().expect("span list poisoned"))
    }
}

impl Span<'_> {
    /// The context to hand to child spans (`None` when not recording).
    #[must_use]
    pub fn ctx(&self) -> Option<SpanCtx> {
        self.open.map(|(ctx, ..)| ctx)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((ctx, parent, name, start_ns)) = self.open.take() {
            let record = SpanRecord {
                id: ctx.id,
                parent,
                request: ctx.request,
                name,
                start_ns,
                end_ns: self.tracer.now_ns(),
            };
            // never panic in drop: a poisoned list only loses this span
            if let Ok(mut spans) = self.tracer.spans.lock() {
                spans.push(record);
            }
        }
    }
}

/// Self time of every span, by id: duration minus the union of its
/// children's intervals clipped to its own.
#[must_use]
pub fn self_times(spans: &[SpanRecord]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for (a, b) in kids {
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            (s.id, duration - covered)
        })
        .collect()
}

/// One row of the per-layer table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerRow {
    /// Spans of this layer.
    pub spans: usize,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// Per-layer span count, total time and self time, by layer name.
#[must_use]
pub fn layer_table(spans: &[SpanRecord]) -> BTreeMap<&'static str, LayerRow> {
    let own = self_times(spans);
    let mut table: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for s in spans {
        let row = table.entry(s.name).or_default();
        row.spans += 1;
        row.total_ns += s.end_ns.saturating_sub(s.start_ns);
        row.self_ns += own[&s.id];
    }
    table
}

/// Renders the per-layer table as text, one layer per line, with each
/// layer's share of all self time.
#[must_use]
pub fn render_table(table: &BTreeMap<&'static str, LayerRow>) -> String {
    let all: u64 = table.values().map(|r| r.self_ns).sum::<u64>().max(1);
    let mut out = format!(
        "{:<22} {:>8} {:>12} {:>12} {:>7}\n",
        "layer", "spans", "total_s", "self_s", "self_%"
    );
    for (name, row) in table {
        out.push_str(&format!(
            "{:<22} {:>8} {:>12.6} {:>12.6} {:>7.2}\n",
            name,
            row.spans,
            row.total_ns as f64 * 1e-9,
            row.self_ns as f64 * 1e-9,
            100.0 * row.self_ns as f64 / all as f64
        ));
    }
    out
}

/// Writes one JSON object per span to `path`, creating its directory.
///
/// # Errors
///
/// Any I/O error from creating or writing the file.
pub fn write_jsonl(path: &Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let own = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, parent, s.request, s.name, s.start_ns, s.end_ns, own[&s.id]
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, a: u64, b: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            request: 1,
            name,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span(1, None, "round", 0, 100),
            span(2, Some(1), "cell", 10, 60),
            span(3, Some(2), "ode", 20, 50),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 50);
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 30);
    }

    #[test]
    fn overlapping_children_count_once() {
        // two pool workers under one round: [10,60) and [40,90) cover 80
        let spans = vec![
            span(1, None, "round", 0, 100),
            span(2, Some(1), "cell", 10, 60),
            span(3, Some(1), "cell", 40, 90),
            span(4, Some(1), "cell", 45, 55),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 20);
        let table = layer_table(&spans);
        assert_eq!(table["cell"].spans, 3);
        assert_eq!(table["cell"].self_ns, 50 + 50 + 10);
        assert_eq!(table["round"].total_ns, 100);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span(1, None, "job", 100, 200),
            span(2, Some(1), "submit", 50, 120),
            span(3, Some(1), "stream", 180, 260),
            span(4, Some(1), "outside", 300, 400),
        ];
        assert_eq!(self_times(&spans)[&1], 100 - 20 - 20);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let root = tracer.root("round", 1);
            assert!(root.ctx().is_none());
            let _child = tracer.child("cell", root.ctx());
        }
        assert!(tracer.take().is_empty());
    }

    #[test]
    fn recorded_spans_keep_parent_and_request() {
        let tracer = Tracer::new(true);
        {
            let root = tracer.root("round", 7);
            let child = tracer.child("cell", root.ctx());
            std::thread::scope(|s| {
                s.spawn(|| drop(tracer.child("kinetics.ode", child.ctx())));
            });
        }
        let spans = tracer.take();
        assert_eq!(spans.len(), 3);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let (round, cell, ode) = (by_name("round"), by_name("cell"), by_name("kinetics.ode"));
        assert_eq!(round.parent, None);
        assert_eq!(cell.parent, Some(round.id));
        assert_eq!(ode.parent, Some(cell.id));
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(round.start_ns <= cell.start_ns && cell.end_ns <= round.end_ns);
    }
}
