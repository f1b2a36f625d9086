//! In-memory spans around calls into the layers, with self-time math.
//!
//! A span is `(name, start, end, parent)`. The recorder keeps a stack
//! of open spans on the benchmark thread, so a span opened inside
//! another becomes its child. Spans stay in memory and are written out
//! once, when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open, `end == 0`) span. Times are nanoseconds
/// since the recorder was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `firmware.device`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start: u64,
    /// End, ns since the recorder's epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in ns.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let end = self.now();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close in reverse order of opening");
        self.spans[id].end = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and total self time (ns) of all spans named
    /// `name`, with their count.
    #[must_use]
    pub fn totals(&self, name: &str) -> Totals {
        let self_times = self_times(&self.spans);
        let mut t = Totals::default();
        for (span, own) in self.spans.iter().zip(self_times) {
            if span.name == name {
                t.count += 1;
                t.total_ns += span.duration();
                t.self_ns += own;
            }
        }
        t
    }

    /// Writes the spans as tab-separated `id name start_ns end_ns
    /// parent` lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(out, "{id}\t{}\t{}\t{}\t{parent}", s.name, s.start, s.end)?;
        }
        out.flush()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

/// Aggregate of the spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans with the name.
    pub count: u64,
    /// Sum of their durations (ns).
    pub total_ns: u64,
    /// Sum of their self times (ns).
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover (overlapping children
/// count once; child time outside the parent does not count).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start.max(parent.start), s.end.min(parent.end));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration() - covered(kids))
        .collect()
}

/// Length of the union of `intervals`.
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(lo, hi) in intervals.iter() {
        cur = match cur {
            Some((a, b)) if lo <= b => Some((a, b.max(hi))),
            Some((a, b)) => {
                total += b - a;
                Some((lo, hi))
            }
            None => Some((lo, hi)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            span("device", 0, 100, None),
            span("sensors", 10, 30, Some(0)),
            span("sensors", 40, 70, Some(0)),
            // A grandchild reduces its parent's self time, not ours.
            span("inner", 45, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span("p", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn child_time_outside_the_parent_is_clipped() {
        let spans = [span("p", 10, 20, None), span("c", 5, 15, Some(0))];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn recorder_nests_and_totals() {
        let mut r = Recorder::new();
        r.time("outer", |r| {
            r.time("inner", |_| std::hint::black_box(1 + 1));
            r.time("inner", |_| ());
        });
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let outer = r.totals("outer");
        let inner = r.totals("inner");
        assert_eq!((outer.count, inner.count), (1, 2));
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
    }
}
