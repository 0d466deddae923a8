//! The benchmark's own span store.
//!
//! Spans are opened in the benchmark's files around each call into a
//! layer's public functions — never inside the program — on the host
//! clock. Each span has a layer, a name, start and end, its parent,
//! and a trace id: one per workload iteration, query or disclosure
//! transaction. Spans stay in memory and are written out at the end.
//!
//! A layer's self time is its spans' durations minus the part of each
//! interval its child spans cover. Summed over every layer (with the
//! iteration root's own self time booked to `bench`), self times
//! account exactly for the iteration's wall time.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub trace: u64,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

/// In-memory span store on the host clock; a disabled tracer records
/// nothing and costs one branch per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_trace: u64,
    /// The most recent root span, open or closed.
    last_root: Option<usize>,
    /// Self time moved between layers of one iteration root, for
    /// splits measured from outside by a twin run (see
    /// [`Tracer::reattribute`]): `(root span, from, to, ns)`.
    moves: Vec<(usize, &'static str, &'static str, u64)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_trace: 1,
            last_root: None,
            moves: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between iterations (traced runs
    /// alternate traced and untraced iterations).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled between iterations only");
        self.enabled = on;
        if !on {
            self.last_root = None;
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, layer: &'static str, name: &'static str, new_trace: bool) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let parent = self.stack.last().copied();
        let trace = match parent {
            Some(p) if !new_trace => self.spans[p].trace,
            _ => {
                self.next_trace += 1;
                self.next_trace - 1
            }
        };
        let start_ns = self.now();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            trace,
        });
        let id = self.spans.len() - 1;
        if parent.is_none() {
            self.last_root = Some(id);
        }
        self.stack.push(id);
        Open(Some(id))
    }

    /// Opens a span in the current trace (a child of the innermost
    /// open span, or a new root).
    pub fn open(&mut self, layer: &'static str, name: &'static str) -> Open {
        self.push(layer, name, false)
    }

    /// Opens a span that starts a trace of its own (an iteration, a
    /// query or a disclosure transaction), still parented to the
    /// innermost open span so time accounting nests.
    pub fn open_trace(&mut self, layer: &'static str, name: &'static str) -> Open {
        self.push(layer, name, true)
    }

    /// Closes `h`, which must be the innermost open span.
    pub fn close(&mut self, h: Open) {
        let Some(i) = h.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(i), "spans close innermost first");
        self.spans[i].end_ns = self.now();
    }

    /// Runs `f` inside a span, returning its result and its host
    /// seconds. The time is measured whether or not tracing is on.
    pub fn timed<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let h = self.open(layer, name);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.close(h);
        (out, secs)
    }

    /// Moves `secs` of self time from layer `from` to layer `to`
    /// within the current (or, once closed, the latest) iteration. Used where a call
    /// covers two layers that only a twin run can split from outside
    /// (collection: `sim_os` under `core`; ingest: `lasagna` parse
    /// under `waldo`). The total across layers is unchanged.
    pub fn reattribute(&mut self, from: &'static str, to: &'static str, secs: f64) {
        if let Some(root) = self.stack.first().copied().or(self.last_root) {
            self.moves.push((root, from, to, (secs * 1e9) as u64));
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-layer self time (ns) of every root span (iteration), in
    /// root order, with the root's own self time booked to its layer.
    pub fn iteration_self_times(&self) -> Vec<(u64, BTreeMap<&'static str, u64>)> {
        let selfs = self_times(&self.spans);
        let mut root_of = vec![0usize; self.spans.len()];
        let mut out: Vec<(u64, BTreeMap<&'static str, u64>)> = Vec::new();
        let mut slot: BTreeMap<usize, usize> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            root_of[i] = s.parent.map_or(i, |p| root_of[p]);
            if s.parent.is_none() {
                slot.insert(i, out.len());
                out.push((s.end_ns - s.start_ns, BTreeMap::new()));
            }
            let (_, layers) = &mut out[slot[&root_of[i]]];
            *layers.entry(s.layer).or_default() += selfs[i];
        }
        for &(root, from, to, ns) in &self.moves {
            let (_, layers) = &mut out[slot[&root]];
            let have = layers.get(from).copied().unwrap_or(0);
            let ns = ns.min(have);
            *layers.entry(from).or_default() -= ns;
            *layers.entry(to).or_default() += ns;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut s = String::new();
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            s.push_str(&format!(
                "{{\"id\":{i},\"trace\":{},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                sp.trace, sp.layer, sp.name, sp.start_ns, sp.end_ns
            ));
        }
        s
    }
}

/// Self time of every span: its duration minus the length of the
/// union of its children's intervals, each clipped to the parent.
/// Children may overlap one another (work on parallel threads); the
/// overlap is counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: "x",
            start_ns: start,
            end_ns: end,
            parent,
            trace: 1,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span("bench", 0, 100, None),
            span("waldo", 10, 30, Some(0)),
            span("pql", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two member threads overlap in [20, 40]: covered is [10, 60].
        let spans = vec![
            span("cluster", 0, 100, None),
            span("waldo", 10, 40, Some(0)),
            span("waldo", 20, 60, Some(0)),
            // Nested inside the second child: does not reduce the root.
            span("lasagna", 25, 35, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 30, 10]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![span("bench", 10, 50, None), span("waldo", 0, 30, Some(0))];
        assert_eq!(self_times(&spans), vec![20, 30]);
        // A child covering the whole parent leaves no self time.
        let spans = vec![span("bench", 10, 50, None), span("waldo", 0, 90, Some(0))];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn iteration_self_times_account_for_the_wall_time() {
        let mut t = Tracer::new(true);
        for _ in 0..3 {
            let it = t.open_trace("bench", "iteration");
            let (_, _) = t.timed("core", "collect", || {
                std::hint::black_box((0..10_000u64).sum::<u64>())
            });
            let q = t.open_trace("pql", "query");
            let (_, _) = t.timed("pql", "parse", || std::hint::black_box(1 + 1));
            t.close(q);
            t.reattribute("core", "sim_os", 1e-9);
            t.close(it);
        }
        let iters = t.iteration_self_times();
        assert_eq!(iters.len(), 3);
        for (wall, layers) in iters {
            assert_eq!(layers.values().sum::<u64>(), wall);
            assert!(layers.contains_key("sim_os"));
        }
        // Query spans start traces of their own.
        let traces: std::collections::BTreeSet<u64> = t.spans().iter().map(|s| s.trace).collect();
        assert_eq!(traces.len(), 6);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let h = t.open("bench", "iteration");
        let (v, secs) = t.timed("waldo", "ingest", || 7);
        t.close(h);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
