//! In-memory span recorder for the traced run. Spans are recorded by
//! the benchmark around calls into each layer's public functions, kept
//! in memory, and written out as JSON lines when the workload ends.

use std::io::Write;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: f64,
    pub end_ns: f64,
    pub parent: Option<usize>,
    /// The operation (one multiply or one job) the span belongs to.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> f64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { t0: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// Nanoseconds since the tracer started.
    pub fn now_ns(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e9
    }

    /// Nanoseconds from the tracer's start to `t`.
    pub fn at_ns(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64() * 1e9
    }

    /// Start a new operation; spans opened from now on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op: self.op });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let end = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Time `f` inside a span named `name`; returns its result and the
    /// span's id.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, usize) {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        (r, id)
    }

    /// Record a span whose interval was measured elsewhere (the engine's
    /// queue-wait and execution times of a job).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: f64,
        end_ns: f64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span { name, start_ns, end_ns, parent, op: self.op });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval covered by its children (overlapping children count
    /// once; parts outside the parent do not count).
    pub fn self_times_ns(&self) -> Vec<f64> {
        self_times_ns(&self.spans)
    }

    /// Write every span as one JSON object per line, with its self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, st)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{st}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

pub fn self_times_ns(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p];
            let (lo, hi) = (s.start_ns.max(ps.start_ns), s.end_ns.min(ps.end_ns));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut cs)| {
            cs.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (lo, hi) in cs {
                cur = match cur {
                    Some((clo, chi)) if lo <= chi => Some((clo, chi.max(hi))),
                    Some((clo, chi)) => {
                        covered += chi - clo;
                        Some((lo, hi))
                    }
                    None => Some((lo, hi)),
                };
            }
            if let Some((clo, chi)) = cur {
                covered += chi - clo;
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: f64, end_ns: f64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 1 }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("op", 0.0, 100.0, None),
            span("plan", 0.0, 10.0, Some(0)),
            span("symbolic", 12.0, 50.0, Some(0)),
            span("numeric", 55.0, 95.0, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![12.0, 10.0, 38.0, 40.0]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span("job", 10.0, 100.0, None),
            span("a", 0.0, 40.0, Some(0)),
            span("b", 30.0, 60.0, Some(0)),
            span("c", 90.0, 120.0, Some(0)),
        ];
        // Covered: [10, 60) and [90, 100) = 60 of the job's 90.
        assert_eq!(self_times_ns(&spans)[0], 30.0);
    }

    #[test]
    fn grandchildren_only_reduce_their_parent() {
        let spans = vec![
            span("op", 0.0, 100.0, None),
            span("mid", 0.0, 80.0, Some(0)),
            span("leaf", 0.0, 60.0, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20.0, 20.0, 60.0]);
    }

    #[test]
    fn nested_enter_exit_records_parents_and_ops() {
        let mut t = Tracer::new();
        let op = t.next_op();
        let outer = t.enter("op");
        let (seven, inner) = t.span("plan", t_noop);
        assert_eq!((seven, inner), (7, 1));
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[1].parent, s[1].op, s[0].op), (Some(0), op, op));
        assert!(t.self_times_ns()[0] >= 0.0);
    }

    fn t_noop() -> usize {
        7
    }
}
