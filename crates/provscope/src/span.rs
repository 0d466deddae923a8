//! The span model: scopes, windows, trace binding, latency
//! attribution, and the bounded flight recorder.
//!
//! # Span model
//!
//! A [`Scope`] is a shared handle threaded through every layer of one
//! machine. Layers call [`Scope::open`]/[`Scope::close`] around their
//! work; because the whole commit path is synchronous, the open-span
//! *stack* gives each new span its parent for free.
//!
//! The complication is the trace id. A disclosure transaction's
//! natural identity is its volume-salted batch id — but Lasagna
//! allocates that id *deep inside* the call chain, after the kernel
//! and DPAPI spans have already opened. Spans are therefore born
//! **trace-pending**: they belong to the current *window* (the period
//! from the stack becoming non-empty to it emptying again) and wait
//! for [`Scope::bind_trace`], which Lasagna calls the moment it
//! frames a group. Binding retroactively stamps every pending span of
//! the window and registers the window's root so later, asynchronous
//! work (Waldo ingesting the group frame during a poll) can re-join
//! the tree via [`Scope::open_linked`] with nothing but the batch id
//! it finds in the log.
//!
//! Windows that never bind (single-op commits log plainly and
//! allocate no batch id; plain syscalls too) are stamped with a
//! *synthetic* trace id when the window closes — bit 62, disjoint
//! from the bit-63 batch-id space — so every span always ends up in
//! exactly one trace.
//!
//! # Flight recorder
//!
//! Every enabled scope is a flight recorder: [`Scope::recording`]
//! retains spans under a [`RecorderConfig`]. The default config keeps
//! everything (no capacity bound, every tree sampled, no slow
//! pinning) — right for tests and one-shot runs; an always-on service
//! bounds span memory with a finite config:
//!
//! * **Ring retention.** Completed trace trees (no open spans, no
//!   live window still bound to the trace) move into a ring. When a
//!   new span would push the live span count past `capacity`, whole
//!   completed trees are evicted oldest-first — a tree is dropped in
//!   its entirety or kept in its entirety, never torn. Spans of
//!   still-incomplete trees are never evicted; if *nothing* is
//!   evictable at capacity, the new span is **shed** (the caller gets
//!   [`SpanHandle::NONE`], its children parent to the grandparent, and
//!   `spans_shed` counts the loss). `spans_high_water ≤ capacity`
//!   therefore holds unconditionally.
//! * **Deterministic head sampling.** On completion a tree is kept
//!   iff `splitmix64(seed ^ trace_id) % 1_000_000 <
//!   sample_per_million`. The key is the volume-salted trace id and a
//!   configured seed — zero ambient entropy, so two same-seed runs
//!   retain byte-identical sampled trace sets.
//! * **Tail-based slow-trace retention.** A completed tree whose
//!   *root* span duration (on the injected virtual clock) reaches
//!   `slow_threshold_ns` is pinned into a separate slow ring
//!   regardless of the sampling verdict — a slow-batch log for free.
//!   The slow ring is bounded by `slow_capacity` spans (oldest slow
//!   trees evicted first, always keeping the newest).
//!
//! A completed tree that later gains linked spans (a Waldo poll
//! ingesting a group frame long after the commit window closed) is
//! *revived* out of its ring back into the live set, extended, and
//! re-completed — the sampling verdict is recomputed from the same
//! key, so determinism is unaffected. A late joiner shed at capacity
//! re-completes the revived tree at once. Eviction drops the trace's
//! root registration too: late joiners of a dropped trace start a
//! fresh (deterministically re-sampled) fragment tree.
//!
//! The recorder never advances the clock, never allocates ids in the
//! observed system, and never writes to any store — the provtorture
//! byte-equality oracle holds with the recorder on.
//!
//! # Threads
//!
//! A scope is `Send + Sync` and may be shared across worker threads
//! (the threaded cluster runtime ingests on one OS thread per
//! member). Span storage, ids and trace roots are global to the
//! scope, but the *window* — the open-span stack and its pending
//! trace binding — is per thread: each thread's synchronous call
//! chain parents only its own spans, so concurrent windows cannot
//! corrupt each other's parentage. Linked spans
//! ([`Scope::open_linked`]) never touch any stack and join the
//! registered root of their trace regardless of which thread opens
//! them. Under concurrency, span *ids* interleave
//! nondeterministically; single-threaded runs remain byte-identical
//! across same-seed executions. The *set* of sampled trace ids is
//! deterministic even under threading (the verdict is a pure function
//! of the trace id), though ring ordering may interleave.

use std::collections::{btree_map, BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

/// Virtual nanoseconds, as read from the injected now-function.
pub type Nanos = u64;

/// Identity of one trace (one causally-connected span tree).
///
/// For batched disclosure transactions this is the volume-salted
/// batch id (`lasagna::batch_txn_id`: tag bit 63 | volume << 28 |
/// 28-bit sequence). Windows that never produce a batch get a
/// synthetic id with [`TraceId::SYNTHETIC_BIT`] set instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Tag bit of synthetic (non-batch) trace ids. Disjoint from the
    /// batch-id space, whose tag is bit 63.
    pub const SYNTHETIC_BIT: u64 = 1 << 62;

    /// True for trace ids that are volume-salted batch ids (bit 63).
    pub fn is_batch(self) -> bool {
        self.0 & (1 << 63) != 0
    }

    /// True for synthetic ids assigned to windows without a batch.
    pub fn is_synthetic(self) -> bool {
        !self.is_batch() && self.0 & Self::SYNTHETIC_BIT != 0
    }
}

/// Identity of one span within a [`Scope`] (allocated sequentially
/// from 1; after flight-recorder eviction the *live* id set may be
/// sparse, but ids remain strictly increasing in open order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// The trace context at a point of execution: which trace the current
/// window belongs to (if already bound), the innermost open span, and
/// its parent. This is what a disclosure transaction "carries" —
/// implicitly, via the synchronous stack, rather than as extra bytes
/// on the wire or in the log (which would break byte-equality of
/// traced and untraced runs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// The window's trace, once bound ([`Scope::bind_trace`]).
    pub trace: Option<TraceId>,
    /// The innermost open span.
    pub span: SpanId,
    /// Its parent span, if any.
    pub parent: Option<SpanId>,
}

/// One enter/exit record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Span id (strictly increasing in open order).
    pub id: SpanId,
    /// Parent span within the same scope, if any.
    pub parent: Option<SpanId>,
    /// The trace this span belongs to. `None` only while the span's
    /// window is still open and unbound; every snapshot taken after
    /// the window closed has `Some`.
    pub trace: Option<TraceId>,
    /// The layer that recorded the span (`"kernel"`, `"dpapi"`,
    /// `"lasagna"`, `"pa-nfs"`, `"waldo"`, `"pql"`).
    pub layer: &'static str,
    /// Operation name within the layer (`"pass_commit"`, …).
    pub name: String,
    /// Virtual time at [`Scope::open`].
    pub start_ns: Nanos,
    /// Virtual time at [`Scope::close`]; `None` while open.
    pub end_ns: Option<Nanos>,
}

impl Span {
    /// Duration in virtual nanoseconds (0 while still open).
    pub fn duration_ns(&self) -> Nanos {
        self.end_ns.unwrap_or(self.start_ns) - self.start_ns
    }
}

/// Handle returned by [`Scope::open`]; pass it back to
/// [`Scope::close`]. A disabled scope hands out inert handles, so
/// instrumented code needs no `if enabled` branches. A recording
/// scope at capacity with nothing evictable also hands out inert
/// handles (span shedding) rather than growing without bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanHandle(Option<SpanId>);

impl SpanHandle {
    /// The inert handle (what a disabled scope returns).
    pub const NONE: SpanHandle = SpanHandle(None);

    /// The span id, when the scope was enabled.
    pub fn id(self) -> Option<SpanId> {
        self.0
    }
}

/// splitmix64 finalizer — the flight recorder's sampling hash. Kept
/// private and local (waldo depends on provscope, not vice versa).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Retention policy of the flight recorder every enabled scope runs
/// ([`Scope::recording`]). The default keeps everything; finite
/// values bound it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Hard bound on live spans. Whole completed trees are evicted
    /// oldest-first to stay under it; incoming spans are shed when
    /// nothing is evictable. `provscope.spans_high_water ≤ capacity`
    /// always holds. `usize::MAX` (the default) never evicts.
    pub capacity: usize,
    /// Head-sampling rate in parts per million: a completed tree is
    /// retained iff `splitmix64(seed ^ trace_id) % 1_000_000 <
    /// sample_per_million`. `1_000_000` (the default) keeps every
    /// tree; `0` keeps none (slow trees are still pinned).
    pub sample_per_million: u32,
    /// Salt for the sampling hash. Same seed ⇒ byte-identical sampled
    /// trace set across runs.
    pub seed: u64,
    /// Root-span duration (virtual ns) at or above which a completed
    /// tree is pinned into the slow ring regardless of sampling.
    /// `u64::MAX` (the default) disables tail retention.
    pub slow_threshold_ns: Nanos,
    /// Bound on total spans held by the slow ring; oldest slow trees
    /// are evicted first (the newest slow tree is always kept).
    /// `usize::MAX` by default.
    pub slow_capacity: usize,
}

/// Keep everything: no capacity bound, every tree sampled, no slow
/// pinning — a recorder that never evicts, samples out or sheds.
impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            capacity: usize::MAX,
            sample_per_million: 1_000_000,
            seed: 0,
            slow_threshold_ns: u64::MAX,
            slow_capacity: usize::MAX,
        }
    }
}

impl RecorderConfig {
    /// The deterministic head-sampling verdict for `trace`: a pure
    /// function of the trace id and the configured seed — no ambient
    /// entropy, no state.
    pub fn samples(&self, trace: TraceId) -> bool {
        if self.sample_per_million >= 1_000_000 {
            return true;
        }
        splitmix64(self.seed ^ trace.0) % 1_000_000 < u64::from(self.sample_per_million)
    }
}

/// Counters exposing the flight recorder's behavior (all zero on a
/// disabled scope).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Spans currently held (live + retained rings).
    pub spans_live: u64,
    /// Maximum of `spans_live` ever observed.
    pub spans_high_water: u64,
    /// Completed trees evicted from a ring to make room.
    pub trees_evicted: u64,
    /// Completed trees dropped by the head-sampling verdict.
    pub trees_sampled_out: u64,
    /// Completed sampled trees currently in the main ring.
    pub trees_retained: u64,
    /// Slow trees currently pinned in the slow ring.
    pub slow_trees: u64,
    /// Spans refused at capacity because nothing was evictable
    /// (evictions-before-completion pressure).
    pub spans_shed: u64,
}

/// Digest of one tree pinned by tail-based slow-trace retention.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlowTraceInfo {
    /// The tree's trace id.
    pub trace: TraceId,
    /// Layer of the root span (`"?"` if the root was shed).
    pub root_layer: &'static str,
    /// Name of the root span.
    pub root_name: String,
    /// Root-span duration in virtual nanoseconds.
    pub duration_ns: Nanos,
    /// Spans in the tree.
    pub spans: u64,
}

/// One thread's synchronous window: the open-span stack and the spans
/// waiting for a trace binding.
#[derive(Default)]
struct Window {
    /// Open spans of the current synchronous window, outermost first.
    stack: Vec<SpanId>,
    /// Window spans not yet assigned a trace.
    pending: Vec<SpanId>,
    /// The current window's trace, once bound.
    trace: Option<TraceId>,
}

/// Bookkeeping for one not-yet-completed trace tree.
#[derive(Default)]
struct TreeState {
    /// Span ids of the tree, in add order.
    spans: Vec<u64>,
    /// Spans of the tree still open.
    open: usize,
    /// Live windows currently bound to the trace.
    windows: usize,
}

/// A slow tree pinned in the tail-retention ring.
struct SlowTree {
    trace: u64,
    root_layer: &'static str,
    root_name: String,
    duration_ns: Nanos,
    span_ids: Vec<u64>,
}

/// The retention state of a recording scope.
struct Recorder {
    cfg: RecorderConfig,
    /// Live (incomplete) trees, keyed by canonical trace id.
    trees: BTreeMap<u64, TreeState>,
    /// Completed sampled trees (trace id, span ids), keyed by
    /// completion number: oldest first.
    ring: BTreeMap<u64, (u64, Vec<u64>)>,
    /// Completed slow trees, keyed by completion number.
    slow: BTreeMap<u64, SlowTree>,
    /// Trace id → completion number of its tree in `ring` or `slow`.
    /// Every new trace asks whether it has a retained tree to revive,
    /// and a keep-everything ring holds every completed tree, so the
    /// answer must not cost a scan.
    retained: BTreeMap<u64, u64>,
    /// Trees completed so far (the next completion number).
    completed: u64,
    /// Total spans held by `slow`.
    slow_spans: usize,
    trees_evicted: u64,
    trees_sampled_out: u64,
    spans_shed: u64,
}

impl Recorder {
    fn new(cfg: RecorderConfig) -> Recorder {
        Recorder {
            cfg,
            trees: BTreeMap::new(),
            ring: BTreeMap::new(),
            slow: BTreeMap::new(),
            retained: BTreeMap::new(),
            completed: 0,
            slow_spans: 0,
            trees_evicted: 0,
            trees_sampled_out: 0,
            spans_shed: 0,
        }
    }

    /// Moves a retained (completed) tree back into the live set so
    /// late linked spans can extend it instead of tearing it.
    fn revive(&mut self, t: u64) {
        if self.trees.contains_key(&t) {
            return;
        }
        let Some(n) = self.retained.remove(&t) else {
            return;
        };
        let spans = match self.ring.remove(&n) {
            Some((_, ids)) => ids,
            None => {
                let st = self.slow.remove(&n).expect("a retained tree is in a ring");
                self.slow_spans -= st.span_ids.len();
                st.span_ids
            }
        };
        self.trees.insert(
            t,
            TreeState {
                spans,
                open: 0,
                windows: 0,
            },
        );
    }

    /// Drops the oldest slow tree, returning its span ids.
    fn pop_slow(&mut self) -> Option<Vec<u64>> {
        let (_, st) = self.slow.pop_first()?;
        self.retained.remove(&st.trace);
        self.slow_spans -= st.span_ids.len();
        self.trees_evicted += 1;
        Some(st.span_ids)
    }

    /// Evicts the oldest retained tree (main ring first, then the
    /// slow ring), returning its span ids, or `None` if nothing is
    /// evictable.
    fn evict_oldest_retained(&mut self) -> Option<Vec<u64>> {
        let Some((_, (t, ids))) = self.ring.pop_first() else {
            return self.pop_slow();
        };
        self.retained.remove(&t);
        self.trees_evicted += 1;
        Some(ids)
    }

    /// Places a completed tree (slow ring, sampled ring, or dropped)
    /// and returns the span ids the caller must drop from storage.
    /// `root` is the tree's root span, if still held.
    fn complete(&mut self, t: u64, span_ids: Vec<u64>, root: Option<&Span>) -> Vec<u64> {
        let mut drops = Vec::new();
        let dur = root.map_or(0, Span::duration_ns);
        let n = self.completed;
        self.completed += 1;
        if dur >= self.cfg.slow_threshold_ns {
            self.slow_spans += span_ids.len();
            self.slow.insert(
                n,
                SlowTree {
                    trace: t,
                    root_layer: root.map_or("?", |s| s.layer),
                    root_name: root.map_or_else(String::new, |s| s.name.clone()),
                    duration_ns: dur,
                    span_ids,
                },
            );
            self.retained.insert(t, n);
            while self.slow_spans > self.cfg.slow_capacity.max(1) && self.slow.len() > 1 {
                drops.extend(self.pop_slow().unwrap());
            }
        } else if self.cfg.samples(TraceId(t)) {
            self.ring.insert(n, (t, span_ids));
            self.retained.insert(t, n);
        } else {
            self.trees_sampled_out += 1;
            drops = span_ids;
        }
        drops
    }
}

struct Inner {
    now: Box<dyn Fn() -> Nanos + Send + Sync>,
    /// Span storage keyed by id — sparse once the recorder evicts.
    spans: BTreeMap<u64, Span>,
    /// Next span id to allocate (ids are never reused).
    next_id: u64,
    /// High-water mark of `spans.len()`.
    high_water: u64,
    /// Per-thread windows; an entry exists only while its thread has
    /// an open (or pending-stamp) window.
    windows: HashMap<ThreadId, Window>,
    /// Trace id → the root span detached work should link under.
    roots: BTreeMap<u64, SpanId>,
    /// Root span id → the trace ids registered on it in `roots` (more
    /// than one when a multi-volume transaction binds several batch
    /// ids), so dropping a tree removes its registrations without
    /// scanning every root.
    root_keys: BTreeMap<u64, Vec<u64>>,
    next_synthetic: u64,
    /// Retention state: live trees and the completed-tree rings.
    recorder: Recorder,
}

impl Inner {
    fn span_mut(&mut self, id: SpanId) -> &mut Span {
        self.spans.get_mut(&id.0).expect("live span")
    }

    fn window(&mut self, t: ThreadId) -> &mut Window {
        self.windows.entry(t).or_default()
    }

    fn alloc_id(&mut self) -> SpanId {
        self.next_id += 1;
        SpanId(self.next_id)
    }

    fn insert_span(&mut self, s: Span) {
        self.spans.insert(s.id.0, s);
        self.high_water = self.high_water.max(self.spans.len() as u64);
    }

    /// Registers `root` as the span detached work of `trace` links
    /// under, unless `trace` already has one.
    fn register_root(&mut self, trace: u64, root: SpanId) {
        if let btree_map::Entry::Vacant(e) = self.roots.entry(trace) {
            e.insert(root);
            self.root_keys.entry(root.0).or_default().push(trace);
        }
    }

    /// Removes evicted/dropped spans and every root registration
    /// (including multi-bind aliases) that points at them.
    fn drop_spans(&mut self, ids: &[u64]) {
        for id in ids {
            self.spans.remove(id);
            for trace in self.root_keys.remove(id).unwrap_or_default() {
                self.roots.remove(&trace);
            }
        }
    }

    /// Makes room for one new span. Returns `false` (shed) when the
    /// recorder is at capacity with nothing evictable.
    fn reserve_slot(&mut self) -> bool {
        while self.spans.len() >= self.recorder.cfg.capacity.max(1) {
            match self.recorder.evict_oldest_retained() {
                Some(ids) => self.drop_spans(&ids),
                None => {
                    self.recorder.spans_shed += 1;
                    return false;
                }
            }
        }
        true
    }

    /// Registers `id` with trace `t`'s live tree (reviving a retained
    /// tree if a late joiner arrives).
    fn tree_add(&mut self, t: u64, id: u64, open: bool) {
        self.recorder.revive(t);
        let ts = self.recorder.trees.entry(t).or_default();
        ts.spans.push(id);
        if open {
            ts.open += 1;
        }
    }

    fn tree_close(&mut self, t: u64) {
        if let Some(ts) = self.recorder.trees.get_mut(&t) {
            ts.open = ts.open.saturating_sub(1);
        }
        self.maybe_complete(t);
    }

    fn tree_bind_window(&mut self, t: u64) {
        self.recorder.revive(t);
        self.recorder.trees.entry(t).or_default().windows += 1;
    }

    fn tree_unbind_window(&mut self, t: u64) {
        if let Some(ts) = self.recorder.trees.get_mut(&t) {
            ts.windows = ts.windows.saturating_sub(1);
        }
        self.maybe_complete(t);
    }

    /// Completes trace `t`'s tree (moves it into a ring or drops it)
    /// once no span of it is open and no window is bound to it.
    fn maybe_complete(&mut self, t: u64) {
        let done = matches!(
            self.recorder.trees.get(&t),
            Some(ts) if ts.open == 0 && ts.windows == 0
        );
        if !done {
            return;
        }
        let root = self.roots.get(&t).and_then(|sid| self.spans.get(&sid.0));
        let tree = self.recorder.trees.remove(&t).unwrap();
        let drops = self.recorder.complete(t, tree.spans, root);
        self.drop_spans(&drops);
    }

    /// Stamps an unbound window's spans with a synthetic trace when
    /// its stack empties, and retires the window.
    fn finish_window(&mut self, t: ThreadId) {
        let Some(w) = self.windows.remove(&t) else {
            return;
        };
        if let Some(trace) = w.trace {
            self.tree_unbind_window(trace.0);
        } else if !w.pending.is_empty() {
            self.next_synthetic += 1;
            let trace = TraceId(TraceId::SYNTHETIC_BIT | self.next_synthetic);
            self.register_root(trace.0, w.pending[0]);
            for &id in &w.pending {
                self.span_mut(id).trace = Some(trace);
            }
            for id in w.pending {
                let open = self.spans.get(&id.0).is_some_and(|s| s.end_ns.is_none());
                self.tree_add(trace.0, id.0, open);
            }
            self.maybe_complete(trace.0);
        }
    }
}

/// A shared tracing scope — cheap to clone, `Default`-disabled.
///
/// Every layer of one machine holds a clone of the same scope; see
/// the module docs for the window/binding model and the flight
/// recorder. A disabled scope (the default) makes every operation a
/// no-op on an immediate `None`, so threading it through hot paths
/// costs one branch.
#[derive(Clone, Default)]
pub struct Scope(Option<Arc<Mutex<Inner>>>);

impl Scope {
    /// A disabled scope: records nothing, costs (almost) nothing.
    pub fn disabled() -> Scope {
        Scope(None)
    }

    /// An enabled scope reading time from `now` — inject the virtual
    /// clock (`move || clock.now()`), never a wall clock, or traces
    /// stop being deterministic. Spans are retained under `cfg`:
    /// [`RecorderConfig::default`] keeps every span; a finite config
    /// bounds memory with whole-tree ring retention, deterministic
    /// head sampling and tail-based slow-trace pinning. See the module
    /// docs for semantics.
    pub fn recording(
        now: impl Fn() -> Nanos + Send + Sync + 'static,
        cfg: RecorderConfig,
    ) -> Scope {
        Scope(Some(Arc::new(Mutex::new(Inner {
            now: Box::new(now),
            spans: BTreeMap::new(),
            next_id: 0,
            high_water: 0,
            windows: HashMap::new(),
            roots: BTreeMap::new(),
            root_keys: BTreeMap::new(),
            next_synthetic: 0,
            recorder: Recorder::new(cfg),
        }))))
    }

    /// True when spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Flight-recorder counters (all zero when the scope is disabled).
    pub fn recorder_stats(&self) -> RecorderStats {
        let Some(inner) = &self.0 else {
            return RecorderStats::default();
        };
        let g = inner.lock().unwrap();
        let r = &g.recorder;
        RecorderStats {
            spans_live: g.spans.len() as u64,
            spans_high_water: g.high_water,
            trees_evicted: r.trees_evicted,
            trees_sampled_out: r.trees_sampled_out,
            trees_retained: r.ring.len() as u64,
            slow_trees: r.slow.len() as u64,
            spans_shed: r.spans_shed,
        }
    }

    /// Digests of the trees currently pinned by tail-based slow-trace
    /// retention, oldest first.
    pub fn slow_traces(&self) -> Vec<SlowTraceInfo> {
        let Some(inner) = &self.0 else {
            return Vec::new();
        };
        let g = inner.lock().unwrap();
        g.recorder
            .slow
            .values()
            .map(|s| SlowTraceInfo {
                trace: TraceId(s.trace),
                root_layer: s.root_layer,
                root_name: s.root_name.clone(),
                duration_ns: s.duration_ns,
                spans: s.span_ids.len() as u64,
            })
            .collect()
    }

    /// Publishes the scope's memory telemetry into `reg` as gauges
    /// (`provscope.spans_live`, `provscope.spans_high_water`,
    /// `provscope.trees_evicted`, …). No-op on a disabled scope.
    pub fn export_metrics(&self, reg: &mut crate::metrics::Registry) {
        if !self.is_enabled() {
            return;
        }
        let st = self.recorder_stats();
        reg.set_gauge("provscope.spans_live", st.spans_live);
        reg.gauge_max("provscope.spans_high_water", st.spans_high_water);
        reg.set_gauge("provscope.trees_evicted", st.trees_evicted);
        reg.set_gauge("provscope.trees_sampled_out", st.trees_sampled_out);
        reg.set_gauge("provscope.trees_retained", st.trees_retained);
        reg.set_gauge("provscope.slow_trees", st.slow_trees);
        reg.set_gauge("provscope.spans_shed", st.spans_shed);
    }

    /// Opens a span as a child of the calling thread's innermost open
    /// span (or as a window root). Must be paired with
    /// [`Scope::close`] on the same thread. Returns
    /// [`SpanHandle::NONE`] when the span was shed at capacity.
    pub fn open(&self, layer: &'static str, name: &str) -> SpanHandle {
        let Some(inner) = &self.0 else {
            return SpanHandle::NONE;
        };
        let mut g = inner.lock().unwrap();
        if !g.reserve_slot() {
            return SpanHandle::NONE;
        }
        let now = (g.now)();
        let id = g.alloc_id();
        let w = g.window(std::thread::current().id());
        let parent = w.stack.last().copied();
        let trace = w.trace;
        if trace.is_none() {
            w.pending.push(id);
        }
        w.stack.push(id);
        g.insert_span(Span {
            id,
            parent,
            trace,
            layer,
            name: name.to_string(),
            start_ns: now,
            end_ns: None,
        });
        if let Some(t) = trace {
            g.tree_add(t.0, id.0, true);
        }
        SpanHandle(Some(id))
    }

    /// Opens a *detached* span linked to `trace`'s registered root —
    /// how asynchronous work (Waldo ingesting a group frame found in
    /// a log) re-joins the tree of the synchronous commit that
    /// produced it. Detached spans never join any stack — which also
    /// makes them safe to open from worker threads; if no root is
    /// registered for `trace` (e.g. the commit predates this scope,
    /// or the recorder already evicted the tree), the span becomes
    /// the root of a fresh (fragment) tree itself.
    pub fn open_linked(&self, layer: &'static str, name: &str, trace: TraceId) -> SpanHandle {
        let Some(inner) = &self.0 else {
            return SpanHandle::NONE;
        };
        let mut g = inner.lock().unwrap();
        let (parent, t) = match g.roots.get(&trace.0).copied() {
            // Adopt the root's canonical trace: a multi-volume
            // transaction registers several batch ids onto one root,
            // and the tree must stay single-trace.
            Some(root) => (
                Some(root),
                g.spans.get(&root.0).and_then(|s| s.trace).unwrap_or(trace),
            ),
            None => (None, trace),
        };
        // Revive the target tree before making room, so the eviction
        // scan can't tear the tree this span is about to join. If the
        // span is shed anyway, re-complete the revived tree: left live
        // with nothing open, it would sit outside every ring, never
        // evictable, and wedge the recorder into shedding forever.
        g.recorder.revive(t.0);
        if !g.reserve_slot() {
            g.maybe_complete(t.0);
            return SpanHandle::NONE;
        }
        let now = (g.now)();
        let id = g.alloc_id();
        g.insert_span(Span {
            id,
            parent,
            trace: Some(t),
            layer,
            name: name.to_string(),
            start_ns: now,
            end_ns: None,
        });
        if parent.is_none() {
            g.register_root(trace.0, id);
        }
        g.tree_add(t.0, id.0, true);
        SpanHandle(Some(id))
    }

    /// Closes a span (stack or linked). Closing the outermost span of
    /// the calling thread's stack ends that thread's window, stamping
    /// unbound spans synthetically. Completed trees move into the
    /// flight-recorder rings on a recording scope.
    pub fn close(&self, h: SpanHandle) {
        let Some(inner) = &self.0 else { return };
        let Some(id) = h.0 else { return };
        let mut g = inner.lock().unwrap();
        let now = (g.now)();
        g.span_mut(id).end_ns = Some(now);
        let trace = g.spans.get(&id.0).and_then(|s| s.trace);
        let tid = std::thread::current().id();
        let w = g.window(tid);
        if let Some(pos) = w.stack.iter().rposition(|s| *s == id) {
            w.stack.remove(pos);
        }
        if w.stack.is_empty() {
            g.finish_window(tid);
        }
        if let Some(t) = trace {
            g.tree_close(t.0);
        }
    }

    /// Binds the calling thread's current window to `trace` — called
    /// by the layer that *allocates* the transaction's identity
    /// (Lasagna, when it frames a group record). All pending spans of
    /// the window are stamped retroactively; spans opened later in
    /// the window inherit the binding at birth. A second bind in one
    /// window (a transaction spanning volumes allocates one batch id
    /// per volume) keeps the first trace for the tree but registers
    /// the extra id onto the same root, so each batch's asynchronous
    /// ingest still links into the one tree.
    pub fn bind_trace(&self, trace: TraceId) {
        let Some(inner) = &self.0 else { return };
        let mut g = inner.lock().unwrap();
        let tid = std::thread::current().id();
        let w = g.window(tid);
        let Some(&root) = w.stack.first() else {
            // No open window on this thread: nothing to bind. Drop
            // the freshly created empty window again.
            g.windows.remove(&tid);
            return;
        };
        if w.trace.is_none() {
            w.trace = Some(trace);
            let pending = std::mem::take(&mut w.pending);
            for &id in &pending {
                g.span_mut(id).trace = Some(trace);
            }
            g.tree_bind_window(trace.0);
            for id in pending {
                let open = g.spans.get(&id.0).is_some_and(|s| s.end_ns.is_none());
                g.tree_add(trace.0, id.0, open);
            }
        }
        g.register_root(trace.0, root);
    }

    /// The trace context at the current point of execution on the
    /// calling thread, if any span is open there.
    pub fn current_ctx(&self) -> Option<TraceCtx> {
        let inner = self.0.as_ref()?;
        let g = inner.lock().unwrap();
        let w = g.windows.get(&std::thread::current().id())?;
        let &id = w.stack.last()?;
        let s = g.spans.get(&id.0)?;
        Some(TraceCtx {
            trace: s.trace.or(w.trace),
            span: id,
            parent: s.parent,
        })
    }

    /// A snapshot of every span currently held, in id order. On a
    /// recording scope this is the live spans plus the retained
    /// rings; evicted and sampled-out trees are absent (the id
    /// sequence may be sparse, but remains strictly increasing).
    pub fn snapshot(&self) -> Trace {
        match &self.0 {
            Some(inner) => Trace {
                spans: inner.lock().unwrap().spans.values().cloned().collect(),
            },
            None => Trace { spans: Vec::new() },
        }
    }

    /// Number of spans currently held.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |i| i.lock().unwrap().spans.len())
    }

    /// True when nothing is held (or the scope is disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all recorded spans, trace-root registrations, and
    /// flight-recorder state (the next span starts a fresh trace
    /// universe from id 1). Call only between windows; clearing
    /// mid-commit severs the links pending asynchronous work would
    /// need.
    pub fn clear(&self) {
        if let Some(inner) = &self.0 {
            let mut g = inner.lock().unwrap();
            g.spans.clear();
            g.next_id = 0;
            g.high_water = 0;
            g.windows.clear();
            g.roots.clear();
            g.root_keys.clear();
            g.next_synthetic = 0;
            g.recorder = Recorder::new(g.recorder.cfg);
        }
    }
}

/// Per-layer latency attribution over one [`Trace`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerLatency {
    /// The layer.
    pub layer: &'static str,
    /// Spans recorded by the layer.
    pub spans: u64,
    /// Sum of span durations (inclusive of child layers).
    pub total_ns: Nanos,
    /// Sum of *self* times: each span's duration minus the durations
    /// of its direct children — where the layer itself spent virtual
    /// time, the number the attribution table is about.
    pub self_ns: Nanos,
}

/// An immutable snapshot of a scope's spans, with analysis helpers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// All spans, in open order (span id order; possibly sparse after
    /// flight-recorder eviction).
    pub spans: Vec<Span>,
}

impl Trace {
    fn get(&self, id: SpanId) -> Option<&Span> {
        self.spans
            .binary_search_by_key(&id.0, |s| s.id.0)
            .ok()
            .map(|i| &self.spans[i])
    }

    /// Structural well-formedness: span ids strictly increasing,
    /// every span closed with `end >= start`, every span traced,
    /// every parent a held earlier span that started no later, and
    /// parent and child in the same trace. Returns the first
    /// violation. (Ids need not be dense: the flight recorder evicts
    /// whole trees, leaving gaps but never dangling parents.)
    pub fn validate(&self) -> Result<(), String> {
        let mut prev = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            if s.id.0 <= prev {
                return Err(format!(
                    "span #{i} id {} not increasing (prev {prev})",
                    s.id.0
                ));
            }
            prev = s.id.0;
            let Some(end) = s.end_ns else {
                return Err(format!(
                    "span {} ({}/{}) never closed",
                    s.id.0, s.layer, s.name
                ));
            };
            if end < s.start_ns {
                return Err(format!("span {} ends before it starts", s.id.0));
            }
            let Some(trace) = s.trace else {
                return Err(format!("span {} has no trace", s.id.0));
            };
            if let Some(p) = s.parent {
                let Some(parent) = self.get(p) else {
                    return Err(format!("span {} parent {} does not exist", s.id.0, p.0));
                };
                if p >= s.id {
                    return Err(format!("span {} parent {} is not earlier", s.id.0, p.0));
                }
                if parent.start_ns > s.start_ns {
                    return Err(format!("span {} starts before its parent {}", s.id.0, p.0));
                }
                if parent.trace != Some(trace) {
                    return Err(format!(
                        "span {} (trace {:#x}) and parent {} disagree on trace",
                        s.id.0, trace.0, p.0
                    ));
                }
            }
        }
        Ok(())
    }

    /// The distinct trace ids, ascending (synthetic ids sort below
    /// batch ids, whose tag bit is higher).
    pub fn traces(&self) -> Vec<TraceId> {
        let mut out: Vec<TraceId> = self.spans.iter().filter_map(|s| s.trace).collect();
        out.sort();
        out.dedup();
        out
    }

    /// The batch traces only — one per multi-op disclosure
    /// transaction that reached a volume.
    pub fn batch_traces(&self) -> Vec<TraceId> {
        self.traces().into_iter().filter(|t| t.is_batch()).collect()
    }

    /// Spans of one trace, in span-id order.
    pub fn spans_of(&self, trace: TraceId) -> Vec<&Span> {
        self.spans
            .iter()
            .filter(|s| s.trace == Some(trace))
            .collect()
    }

    /// The distinct layers that recorded spans in `trace`.
    pub fn layers_of(&self, trace: TraceId) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = self.spans_of(trace).iter().map(|s| s.layer).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// True when `trace`'s spans form exactly one connected tree:
    /// precisely one root, every other span reachable from it through
    /// parent links within the trace.
    pub fn is_connected_tree(&self, trace: TraceId) -> bool {
        let spans = self.spans_of(trace);
        if spans.is_empty() {
            return false;
        }
        let roots = spans.iter().filter(|s| s.parent.is_none()).count();
        if roots != 1 {
            return false;
        }
        // Parent ids are strictly smaller, so one pass in id order
        // proves reachability: a span is connected iff its parent is
        // the root or already proven connected.
        let root = spans.iter().find(|s| s.parent.is_none()).unwrap().id;
        let mut connected = std::collections::BTreeSet::new();
        connected.insert(root);
        for s in &spans {
            if let Some(p) = s.parent {
                if connected.contains(&p) {
                    connected.insert(s.id);
                }
            }
        }
        connected.len() == spans.len()
    }

    /// Per-layer latency attribution: total and *self* (exclusive)
    /// virtual time per layer, ordered by descending self time. This
    /// is the "where did this batch spend its time" table.
    pub fn layer_latency(&self) -> Vec<LayerLatency> {
        // Positional child-duration accumulation; parents are found
        // by binary search because ids may be sparse.
        let mut child_ns: Vec<Nanos> = vec![0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                if let Ok(i) = self.spans.binary_search_by_key(&p.0, |x| x.id.0) {
                    child_ns[i] += s.duration_ns();
                }
            }
        }
        let mut by_layer: BTreeMap<&'static str, LayerLatency> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by_layer.entry(s.layer).or_insert(LayerLatency {
                layer: s.layer,
                spans: 0,
                total_ns: 0,
                self_ns: 0,
            });
            e.spans += 1;
            let d = s.duration_ns();
            e.total_ns += d;
            // Linked children (Waldo ingest) may outlive the parent
            // window; saturate rather than attribute negative time.
            e.self_ns += d.saturating_sub(child_ns[i]);
        }
        let mut out: Vec<LayerLatency> = by_layer.into_values().collect();
        out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.layer.cmp(b.layer)));
        out
    }

    /// Renders [`Trace::layer_latency`] as an aligned text table.
    pub fn render_latency_table(&self) -> String {
        let rows = self.layer_latency();
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:>7} {:>14} {:>14} {:>8}\n",
            "layer", "spans", "total_us", "self_us", "self%"
        ));
        let grand_self: Nanos = rows.iter().map(|r| r.self_ns).sum();
        for r in &rows {
            let pct = if grand_self == 0 {
                0.0
            } else {
                r.self_ns as f64 / grand_self as f64 * 100.0
            };
            out.push_str(&format!(
                "{:<10} {:>7} {:>14.3} {:>14.3} {:>7.1}%\n",
                r.layer,
                r.spans,
                r.total_ns as f64 / 1_000.0,
                r.self_ns as f64 / 1_000.0,
                pct
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A scope on a clock that advances 10 ns per read.
    fn ticking(cfg: RecorderConfig) -> Scope {
        let t = Arc::new(AtomicU64::new(0));
        Scope::recording(move || t.fetch_add(10, Ordering::Relaxed), cfg)
    }

    #[test]
    fn disabled_scope_is_inert() {
        let s = Scope::disabled();
        let h = s.open("kernel", "x");
        assert_eq!(h, SpanHandle::NONE);
        s.bind_trace(TraceId(1 << 63));
        s.close(h);
        assert!(s.snapshot().spans.is_empty());
        assert!(!s.is_enabled());
        assert_eq!(s.recorder_stats(), RecorderStats::default());
        assert!(s.slow_traces().is_empty());
    }

    #[test]
    fn nesting_gives_parents_and_binding_stamps_the_window() {
        let s = ticking(RecorderConfig::default());
        let a = s.open("kernel", "pass_commit");
        let b = s.open("dpapi", "dp_commit");
        let batch = TraceId((1 << 63) | 42);
        s.bind_trace(batch);
        let c = s.open("lasagna", "pass_commit");
        s.close(c);
        s.close(b);
        s.close(a);
        let t = s.snapshot();
        t.validate().unwrap();
        assert_eq!(t.traces(), vec![batch]);
        assert!(t.is_connected_tree(batch));
        assert_eq!(t.spans[1].parent, Some(SpanId(1)));
        assert_eq!(t.spans[2].parent, Some(SpanId(2)));
        assert_eq!(t.layers_of(batch), vec!["dpapi", "kernel", "lasagna"]);
    }

    #[test]
    fn unbound_window_gets_a_synthetic_trace() {
        let s = ticking(RecorderConfig::default());
        let a = s.open("kernel", "read");
        s.close(a);
        let t = s.snapshot();
        t.validate().unwrap();
        let traces = t.traces();
        assert_eq!(traces.len(), 1);
        assert!(traces[0].is_synthetic());
        assert!(!traces[0].is_batch());
    }

    #[test]
    fn linked_spans_join_the_batch_tree() {
        let s = ticking(RecorderConfig::default());
        let batch = TraceId((1 << 63) | 7);
        let a = s.open("kernel", "pass_commit");
        s.bind_trace(batch);
        s.close(a);
        // Later, asynchronously: Waldo ingests the group frame.
        let w = s.open_linked("waldo", "ingest_batch", batch);
        s.close(w);
        let t = s.snapshot();
        t.validate().unwrap();
        assert!(t.is_connected_tree(batch));
        assert_eq!(t.spans_of(batch).len(), 2);
        assert_eq!(t.spans[1].parent, Some(SpanId(1)));
    }

    #[test]
    fn linked_span_without_a_root_becomes_one() {
        let s = ticking(RecorderConfig::default());
        let batch = TraceId((1 << 63) | 9);
        let w = s.open_linked("waldo", "ingest_batch", batch);
        s.close(w);
        let t = s.snapshot();
        t.validate().unwrap();
        assert!(t.is_connected_tree(batch));
    }

    #[test]
    fn second_bind_in_one_window_aliases_onto_the_first_root() {
        let s = ticking(RecorderConfig::default());
        let b1 = TraceId((1 << 63) | 1);
        let b2 = TraceId((1 << 63) | 2);
        let a = s.open("kernel", "pass_commit");
        s.bind_trace(b1);
        s.bind_trace(b2); // second volume of the same transaction
        s.close(a);
        let w = s.open_linked("waldo", "ingest_batch", b2);
        s.close(w);
        let t = s.snapshot();
        t.validate().unwrap();
        // One tree under b1; the b2 ingest adopted the canonical trace.
        assert_eq!(t.traces(), vec![b1]);
        assert!(t.is_connected_tree(b1));
    }

    #[test]
    fn current_ctx_reports_the_open_stack() {
        let s = ticking(RecorderConfig::default());
        assert!(s.current_ctx().is_none());
        let a = s.open("kernel", "pass_commit");
        let ctx = s.current_ctx().unwrap();
        assert_eq!(ctx.span, SpanId(1));
        assert_eq!(ctx.parent, None);
        assert_eq!(ctx.trace, None);
        let batch = TraceId((1 << 63) | 3);
        s.bind_trace(batch);
        let b = s.open("dpapi", "dp_commit");
        let ctx = s.current_ctx().unwrap();
        assert_eq!(ctx.span, SpanId(2));
        assert_eq!(ctx.parent, Some(SpanId(1)));
        assert_eq!(ctx.trace, Some(batch));
        s.close(b);
        s.close(a);
        assert!(s.current_ctx().is_none());
    }

    #[test]
    fn layer_latency_attributes_self_time() {
        // kernel [0,100); dpapi [10,90) nested → kernel self 20,
        // dpapi self 80.
        let t = Arc::new(AtomicU64::new(0));
        let t2 = t.clone();
        let s = Scope::recording(
            move || t2.load(Ordering::Relaxed),
            RecorderConfig::default(),
        );
        let a = s.open("kernel", "pass_commit");
        t.store(10, Ordering::Relaxed);
        let b = s.open("dpapi", "dp_commit");
        t.store(90, Ordering::Relaxed);
        s.close(b);
        t.store(100, Ordering::Relaxed);
        s.close(a);
        let lat = s.snapshot().layer_latency();
        let kernel = lat.iter().find(|l| l.layer == "kernel").unwrap();
        let dpapi = lat.iter().find(|l| l.layer == "dpapi").unwrap();
        assert_eq!(kernel.total_ns, 100);
        assert_eq!(kernel.self_ns, 20);
        assert_eq!(dpapi.self_ns, 80);
        // The table renders and mentions both layers.
        let table = s.snapshot().render_latency_table();
        assert!(table.contains("kernel") && table.contains("dpapi"));
    }

    #[test]
    fn validate_rejects_malformed_trees() {
        let s = ticking(RecorderConfig::default());
        let a = s.open("kernel", "x");
        s.close(a);
        let mut t = s.snapshot();
        t.spans[0].parent = Some(SpanId(5));
        assert!(t.validate().is_err());
        let mut t2 = s.snapshot();
        t2.spans[0].end_ns = None;
        assert!(t2.validate().is_err());
    }

    #[test]
    fn clear_resets_the_universe() {
        let s = ticking(RecorderConfig::default());
        let a = s.open("kernel", "x");
        s.close(a);
        s.clear();
        assert!(s.is_empty());
        let b = s.open("kernel", "y");
        s.close(b);
        assert_eq!(s.snapshot().spans[0].id, SpanId(1));
    }

    /// Concurrent windows on separate threads never cross-parent:
    /// each thread's nested spans parent within that thread, every
    /// window stamps its own trace, and the combined snapshot still
    /// validates.
    #[test]
    fn threads_keep_independent_windows() {
        let s = ticking(RecorderConfig::default());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        let a = s.open("waldo", "drain_logs");
                        let b = s.open("waldo", "group_commit");
                        s.close(b);
                        s.close(a);
                    }
                });
            }
        });
        let t = s.snapshot();
        t.validate().unwrap();
        assert_eq!(t.spans.len(), 4 * 50 * 2);
        // Every window became its own 2-span synthetic tree.
        let traces = t.traces();
        assert_eq!(traces.len(), 4 * 50);
        for trace in traces {
            assert!(trace.is_synthetic());
            assert!(t.is_connected_tree(trace));
            assert_eq!(t.spans_of(trace).len(), 2);
        }
    }

    /// Linked spans opened concurrently from worker threads all join
    /// the one registered root of their batch trace.
    #[test]
    fn threaded_linked_spans_join_one_tree() {
        let s = ticking(RecorderConfig::default());
        let batch = TraceId((1 << 63) | 11);
        let a = s.open("kernel", "pass_commit");
        s.bind_trace(batch);
        s.close(a);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..25 {
                        let w = s.open_linked("waldo", "ingest_batch", batch);
                        s.close(w);
                    }
                });
            }
        });
        let t = s.snapshot();
        t.validate().unwrap();
        assert!(t.is_connected_tree(batch));
        assert_eq!(t.spans_of(batch).len(), 1 + 4 * 25);
    }

    // ------------------------------------------------------------
    // Flight recorder
    // ------------------------------------------------------------

    #[test]
    fn ring_evicts_whole_completed_trees_oldest_first() {
        let s = ticking(RecorderConfig {
            capacity: 6,
            ..RecorderConfig::default()
        });
        // Five 2-span synthetic trees; capacity holds three.
        for _ in 0..5 {
            let a = s.open("kernel", "outer");
            let b = s.open("dpapi", "inner");
            s.close(b);
            s.close(a);
        }
        let st = s.recorder_stats();
        assert_eq!(st.trees_evicted, 2);
        assert_eq!(st.trees_retained, 3);
        assert_eq!(st.spans_live, 6);
        assert!(st.spans_high_water <= 6);
        assert_eq!(st.spans_shed, 0);
        let t = s.snapshot();
        t.validate().unwrap();
        // The three *newest* trees survive (synthetic ids 3, 4, 5);
        // evicted traces have no spans left at all.
        let traces = t.traces();
        assert_eq!(traces.len(), 3);
        for (i, tr) in traces.iter().enumerate() {
            assert_eq!(tr.0, TraceId::SYNTHETIC_BIT | (3 + i as u64));
            assert!(t.is_connected_tree(*tr));
            assert_eq!(t.spans_of(*tr).len(), 2);
        }
        assert!(t.spans_of(TraceId(TraceId::SYNTHETIC_BIT | 1)).is_empty());
        // Sparse ids still attribute latency and render.
        assert!(!t.layer_latency().is_empty());
        assert!(!t.render_latency_table().is_empty());
    }

    #[test]
    fn live_spans_never_torn_but_shed_at_capacity() {
        let s = ticking(RecorderConfig {
            capacity: 2,
            ..RecorderConfig::default()
        });
        let a = s.open("kernel", "outer");
        let b = s.open("dpapi", "mid");
        // Both live spans belong to an incomplete tree: nothing is
        // evictable, so the third open sheds instead of tearing.
        let c = s.open("lasagna", "inner");
        assert_eq!(c, SpanHandle::NONE);
        assert_eq!(s.recorder_stats().spans_shed, 1);
        s.close(c);
        s.close(b);
        s.close(a);
        let st = s.recorder_stats();
        assert_eq!(st.spans_live, 2);
        assert!(st.spans_high_water <= 2);
        let t = s.snapshot();
        t.validate().unwrap();
        let traces = t.traces();
        assert_eq!(traces.len(), 1);
        assert!(t.is_connected_tree(traces[0]));
    }

    #[test]
    fn head_sampling_is_deterministic_on_the_trace_id() {
        let cfg = RecorderConfig {
            sample_per_million: 500_000,
            seed: 7,
            ..RecorderConfig::default()
        };
        let run = || {
            let s = ticking(cfg);
            for i in 0..32u64 {
                let a = s.open("kernel", "pass_commit");
                s.bind_trace(TraceId((1 << 63) | i));
                s.close(a);
            }
            s.snapshot().traces()
        };
        let kept1 = run();
        let kept2 = run();
        assert_eq!(kept1, kept2, "same seed must keep the same trace set");
        assert!(!kept1.is_empty() && kept1.len() < 32, "sampling must bite");
        for i in 0..32u64 {
            let t = TraceId((1 << 63) | i);
            assert_eq!(kept1.contains(&t), cfg.samples(t));
        }
        // A different seed keeps a different (still deterministic) set.
        let other = RecorderConfig { seed: 8, ..cfg };
        assert!((0..32u64).any(|i| {
            let t = TraceId((1 << 63) | i);
            cfg.samples(t) != other.samples(t)
        }));
    }

    #[test]
    fn slow_trees_are_pinned_regardless_of_sampling() {
        let s = ticking(RecorderConfig {
            sample_per_million: 0,
            slow_threshold_ns: 25,
            ..RecorderConfig::default()
        });
        // Tree 1: root spans ticks 0..30 → duration 30 ≥ 25 → slow.
        let a = s.open("kernel", "pass_commit");
        let b = s.open("dpapi", "dp_commit");
        s.close(b);
        s.close(a);
        // Tree 2: single span, duration 10 → sampled out (rate 0).
        let c = s.open("kernel", "read");
        s.close(c);
        let st = s.recorder_stats();
        assert_eq!(st.slow_trees, 1);
        assert_eq!(st.trees_retained, 0);
        assert_eq!(st.trees_sampled_out, 1);
        assert_eq!(st.spans_live, 2);
        let slow = s.slow_traces();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].root_layer, "kernel");
        assert_eq!(slow[0].root_name, "pass_commit");
        assert_eq!(slow[0].duration_ns, 30);
        assert_eq!(slow[0].spans, 2);
        let t = s.snapshot();
        t.validate().unwrap();
        assert_eq!(t.spans.len(), 2);
    }

    #[test]
    fn completed_tree_revives_on_linked_rejoin() {
        let s = ticking(RecorderConfig {
            capacity: 16,
            ..RecorderConfig::default()
        });
        let batch = TraceId((1 << 63) | 5);
        let a = s.open("kernel", "pass_commit");
        s.bind_trace(batch);
        s.close(a);
        assert_eq!(s.recorder_stats().trees_retained, 1);
        // The asynchronous ingest revives the completed tree…
        let w = s.open_linked("waldo", "ingest_batch", batch);
        let st = s.recorder_stats();
        assert_eq!(st.trees_retained, 0);
        assert_eq!(st.spans_live, 2);
        // …and completion re-retains it, one tree, still connected.
        s.close(w);
        assert_eq!(s.recorder_stats().trees_retained, 1);
        let t = s.snapshot();
        t.validate().unwrap();
        assert!(t.is_connected_tree(batch));
        assert_eq!(t.spans_of(batch).len(), 2);
    }

    /// A linked join that revives a retained tree and is then shed
    /// must put the tree back in the ring: left live with nothing
    /// open, it would be neither retained nor evictable, and every
    /// later span would be shed.
    #[test]
    fn shed_linked_join_does_not_wedge_the_recorder() {
        let s = ticking(RecorderConfig {
            capacity: 1,
            ..RecorderConfig::default()
        });
        let batch = TraceId((1 << 63) | 13);
        let a = s.open("kernel", "pass_commit");
        s.bind_trace(batch);
        s.close(a);
        assert_eq!(s.recorder_stats().trees_retained, 1);
        // The batch's own single span fills capacity, so the late
        // joiner is shed…
        let w = s.open_linked("waldo", "ingest_batch", batch);
        assert_eq!(w, SpanHandle::NONE);
        let st = s.recorder_stats();
        assert_eq!(st.spans_shed, 1);
        assert_eq!(st.trees_retained, 1, "the revived tree is re-retained");
        // …and the batch tree stays evictable: later windows evict it
        // instead of shedding.
        for _ in 0..6 {
            let h = s.open("kernel", "read");
            assert_ne!(h, SpanHandle::NONE);
            s.close(h);
        }
        let st = s.recorder_stats();
        assert_eq!(st.spans_shed, 1);
        assert_eq!(st.trees_retained, 1);
        assert_eq!(st.spans_live, 1);
        s.snapshot().validate().unwrap();
    }

    /// The default config keeps everything, however many spans a run
    /// opens: no eviction, no sampling, no shedding.
    #[test]
    fn default_config_keeps_every_span() {
        let s = ticking(RecorderConfig::default());
        let n = 100_000u64;
        for _ in 0..n {
            let h = s.open("kernel", "read");
            s.close(h);
        }
        let st = s.recorder_stats();
        assert_eq!((st.spans_live, st.trees_retained), (n, n));
        assert_eq!(
            (st.trees_evicted, st.trees_sampled_out, st.spans_shed),
            (0, 0, 0)
        );
    }

    #[test]
    fn recorder_metrics_export_and_clear_reset() {
        let s = ticking(RecorderConfig {
            capacity: 2,
            ..RecorderConfig::default()
        });
        for _ in 0..3 {
            let a = s.open("kernel", "x");
            s.close(a);
        }
        let mut reg = crate::metrics::Registry::new();
        s.export_metrics(&mut reg);
        assert_eq!(reg.gauge("provscope.spans_live"), 2);
        let hw = reg.gauge("provscope.spans_high_water");
        assert!(hw > 0 && hw <= 2);
        assert_eq!(reg.gauge("provscope.trees_evicted"), 1);
        s.clear();
        let st = s.recorder_stats();
        assert_eq!(st, RecorderStats::default());
        // The id universe restarts from 1 with the recorder intact.
        let b = s.open("kernel", "y");
        s.close(b);
        assert_eq!(s.snapshot().spans[0].id, SpanId(1));
        // The capacity survives the clear.
        for _ in 0..2 {
            let c = s.open("kernel", "z");
            s.close(c);
        }
        assert_eq!(s.recorder_stats().trees_evicted, 1);
    }

    /// Evicting a tree drops its root registrations — the second
    /// batch id a multi-volume commit binds onto the same root
    /// included — and leaves every retained tree's untouched.
    #[test]
    fn eviction_drops_exactly_the_evicted_trees_roots() {
        let s = ticking(RecorderConfig {
            capacity: 4,
            ..RecorderConfig::default()
        });
        let batch = |i: u64| TraceId((1 << 63) | i);
        let alias = |i: u64| TraceId((1 << 63) | (1000 + i));
        for i in 0..10 {
            let h = s.open("kernel", "pass_commit");
            s.bind_trace(batch(i));
            s.bind_trace(alias(i));
            s.close(h);
        }
        assert_eq!(s.recorder_stats().trees_evicted, 6);
        {
            let g = s.0.as_ref().unwrap().lock().unwrap();
            for i in 0..10 {
                let live = i >= 6;
                assert_eq!(g.roots.contains_key(&batch(i).0), live, "batch {i}");
                assert_eq!(g.roots.contains_key(&alias(i).0), live, "alias {i}");
            }
            assert_eq!(g.roots.len(), 8);
            assert!(g.roots.values().all(|r| g.spans.contains_key(&r.0)));
            assert_eq!(g.root_keys.len(), 4);
        }
        // Detached work of an evicted trace starts a fragment tree; a
        // retained trace's alias still links under its root.
        let orphan = s.open_linked("waldo", "ingest", alias(0));
        let linked = s.open_linked("waldo", "ingest", alias(9));
        let spans = s.snapshot().spans;
        let find = |h: SpanHandle| spans.iter().find(|sp| Some(sp.id) == h.0).unwrap();
        assert_eq!(find(orphan).parent, None);
        assert!(find(linked).parent.is_some());
        assert_eq!(find(linked).trace, Some(batch(9)));
    }
}
