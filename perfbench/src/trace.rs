//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the calls this crate makes into each layer's
//! public functions (never inside the program), kept in memory, and written
//! out once when the run ends. A layer's *self time* is the duration of its
//! spans minus the part of each interval that the span's children cover
//! (children may run on other threads; their intervals are merged first).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Span id (index into the recorder's span list).
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Layer the span is attributed to (`core`, `burgers`, `sw-mpi`, ...).
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Thread-safe span sink.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`]. Returns its id.
    pub fn open(&self, parent: Option<usize>, layer: &'static str, name: &'static str) -> usize {
        let start_ns = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("span list poisoned by a panic");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Close an open span now.
    pub fn close(&self, id: usize) {
        let end_ns = self.ns(Instant::now());
        self.spans.lock().expect("span list poisoned by a panic")[id].end_ns = end_ns;
    }

    /// Record a finished span measured by the caller.
    pub fn record(
        &self,
        parent: Option<usize>,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let mut spans = self.spans.lock().expect("span list poisoned by a panic");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            layer,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Run `f` inside a span; `f` receives the span id for its children.
    pub fn span<R>(
        &self,
        parent: Option<usize>,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let id = self.open(parent, layer, name);
        let r = f(id);
        self.close(id);
        r
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panic")
            .clone()
    }
}

/// Self time of every span, in seconds, indexed by span id.
pub fn span_self_secs(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p];
            // Clip to the parent's interval.
            let (a, b) = (s.start_ns.max(ps.start_ns), s.end_ns.min(ps.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut ivs)| {
            ivs.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in ivs {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end_ns - s.start_ns).saturating_sub(covered) as f64 * 1e-9
        })
        .collect()
}

/// Self time per layer, in seconds.
pub fn layer_self_secs(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(span_self_secs(spans)) {
        *out.entry(s.layer).or_insert(0.0) += t;
    }
    out
}

/// Sum of the durations of the spans named `name`, and their count; with
/// `parent`, only the direct children of that span.
pub fn busy(spans: &[Span], name: &str, parent: Option<usize>) -> (f64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name && (parent.is_none() || s.parent == parent))
        .fold((0.0, 0), |(t, n), s| (t + s.secs(), n + 1))
}

/// The attribution check: self time summed over `root`'s subtree, divided
/// by the `threads` that could run spans concurrently, must not exceed the
/// root's wall time. A violation means spans overlap in a way the unit's
/// parallelism cannot explain (double counting).
pub fn check_attribution(spans: &[Span], root: usize, threads: usize) -> Result<(), String> {
    let selfs = span_self_secs(spans);
    let in_subtree = |mut id: usize| loop {
        if id == root {
            return true;
        }
        match spans[id].parent {
            Some(p) => id = p,
            None => return false,
        }
    };
    let attributed: f64 = spans
        .iter()
        .filter(|s| in_subtree(s.id))
        .map(|s| selfs[s.id])
        .sum();
    let wall = spans[root].secs();
    let per_thread = attributed / threads.max(1) as f64;
    if per_thread > wall * (1.0 + 1e-9) {
        return Err(format!(
            "attributed self time {attributed:.6} s over {threads} threads exceeds the \
             unit's wall time {wall:.6} s"
        ));
    }
    Ok(())
}

/// Write every span as one JSON object per line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut s = String::new();
    for sp in spans {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            s,
            "{{\"id\": {}, \"parent\": {parent}, \"layer\": \"{}\", \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}",
            sp.id, sp.layer, sp.name, sp.start_ns, sp.end_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: usize, parent: Option<usize>, layer: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: layer,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100; two overlapping children 10..40 and 30..60 (union
        // 50) and one disjoint 80..90: root self = 100 - 60 = 40.
        let spans = vec![
            sp(0, None, "core", 0, 100),
            sp(1, Some(0), "burgers", 10, 40),
            sp(2, Some(0), "burgers", 30, 60),
            sp(3, Some(0), "sw-mpi", 80, 90),
        ];
        let selfs = span_self_secs(&spans);
        assert!((selfs[0] - 40e-9).abs() < 1e-15);
        let layers = layer_self_secs(&spans);
        assert!((layers["burgers"] - 60e-9).abs() < 1e-15);
        assert!((layers["sw-mpi"] - 10e-9).abs() < 1e-15);
        // 40 + 60 + 10 = 110 ns of self time in 100 ns of wall: fine on two
        // threads, a double count on one.
        assert!(check_attribution(&spans, 0, 2).is_ok());
        assert!(check_attribution(&spans, 0, 1).is_err());
    }

    #[test]
    fn tracer_records_nested_spans() {
        let t = Tracer::new();
        t.span(None, "core", "outer", |id| {
            t.span(Some(id), "sw-sim", "inner", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(check_attribution(&spans, 0, 1).is_ok());
    }
}
