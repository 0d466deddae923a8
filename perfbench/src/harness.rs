//! What every workload shares: the run accumulator, the disclosure
//! stream through the sluice, the read-back query phase and the
//! output checks.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use dpapi::{Attribute, Bundle, Dpapi, Handle, ProvenanceRecord, Value};
use sluice::{BackpressurePolicy, ClientId, Sluice, SluiceConfig};
use waldo::{CacheStats, Cluster, Waldo};

use crate::gen::{QueryClass, QueryMix, Rng};
use crate::spans::Tracer;

/// Everything one run measures, across its iterations.
#[derive(Default)]
pub struct Acc {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed, for the log.
    pub mismatches: Vec<String>,
    pub setup_s: Vec<f64>,
    pub collect_ops_per_s: Vec<f64>,
    pub ingest_entries_per_s: Vec<f64>,
    pub e2e_us_per_record: Vec<f64>,
    pub commit_us: Vec<f64>,
    pub query_us: Vec<f64>,
    /// Queries per second of each query phase (one per iteration).
    pub query_rates: Vec<f64>,
    pub class_us: BTreeMap<QueryClass, Vec<f64>>,
    pub restart_s: Vec<f64>,
    pub space_amp: Vec<f64>,
    /// Iteration wall times with tracing off and on (traced runs
    /// alternate the two; the ratio is the tracing overhead).
    pub wall_untraced: Vec<f64>,
    pub wall_traced: Vec<f64>,
    /// Per-layer samples, one per iteration (or per call), by metric.
    pub layer: BTreeMap<&'static str, Vec<f64>>,
    /// `(virtual ns, records)` of the first iteration: every rerun of
    /// the same inputs must reproduce both exactly.
    pub reference: Option<(u64, u64)>,
    /// Queries drawn for the naive-evaluator check, verified outside
    /// the timed loop by [`verify_naive`].
    pub naive_sample: Vec<String>,
    /// The iteration's query texts, parsed on their own for
    /// `pql.parse_us` once the iteration is over (see
    /// [`Acc::time_parses`]), so the harness's parse adds nothing to
    /// the iteration or to the `pql` layer's self time.
    pub parse_queue: Vec<String>,
}

impl Acc {
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.layer.entry(name).or_default().push(v);
    }

    /// Counts one output check; a mismatch fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let msg = what();
            eprintln!("perfbench: check failed: {msg}");
            self.mismatches.push(msg);
        }
    }

    /// Counts `n` attempted operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Times `pql::parse` of every queued query text, one sample each.
    pub fn time_parses(&mut self) {
        for text in std::mem::take(&mut self.parse_queue) {
            let t = Instant::now();
            let ok = pql::parse(&text).is_ok();
            self.sample("pql.parse_us", t.elapsed().as_secs_f64() * 1e6);
            self.check(ok, || {
                format!("the mix drew a query that does not parse: {text}")
            });
        }
    }

    /// The same-inputs rerun check: virtual elapsed time and record
    /// count must repeat exactly.
    pub fn rerun(&mut self, virtual_ns: u64, records: u64) {
        match self.reference {
            None => self.reference = Some((virtual_ns, records)),
            Some(r) => self.check(r == (virtual_ns, records), || {
                format!(
                    "same-seed rerun diverged: virtual ns / records {r:?} then {:?}",
                    (virtual_ns, records)
                )
            }),
        }
    }
}

/// Sluice settings of every disclosure stream: the default Block
/// policy, a fixed coalescing depth, and a queue budget small enough
/// that submitters drain inline.
pub fn sluice_config() -> SluiceConfig {
    SluiceConfig {
        max_queued_ops: 128,
        coalesce_ops: 32,
        policy: BackpressurePolicy::Block,
        ..SluiceConfig::default()
    }
}

/// What one disclosure stream did.
#[derive(Default)]
pub struct Disclosed {
    pub txns: u64,
    pub ops: u64,
    pub secs: f64,
}

/// Submits `n` small disclosure transactions about handle `h`
/// through a fresh sluice into `layer`, one client, closed loop: each
/// transaction is two records plus a sync. Records per-transaction
/// submit→resolution host latency into `acc.commit_us`.
pub fn disclose_stream(
    layer: &mut dyn Dpapi,
    h: Handle,
    n: usize,
    tag: &str,
    tr: &mut Tracer,
    acc: &mut Acc,
) -> Disclosed {
    let mut pipe = Sluice::new(sluice_config());
    let done: Rc<RefCell<Vec<(usize, Instant, bool)>>> = Rc::default();
    let mut submitted = Vec::with_capacity(n);
    let mut out = Disclosed::default();
    let t0 = Instant::now();
    let mut submit_s = 0.0;
    let mut rejected = 0u64;
    for i in 0..n {
        let mut bundle = Bundle::new();
        bundle.push(
            h,
            ProvenanceRecord::new(
                Attribute::Other("EVENT".into()),
                Value::str(format!("{tag} event {i}")),
            ),
        );
        bundle.push(
            h,
            ProvenanceRecord::new(Attribute::Other("SEQ".into()), Value::Int(i as i64)),
        );
        let mut txn = dpapi::Txn::new();
        txn.disclose(h, bundle).sync(h);
        out.ops += txn.len() as u64;
        let sink = done.clone();
        let span = tr.open_trace("sluice", "submit");
        let t = Instant::now();
        let r = pipe.submit_with(
            layer,
            ClientId(1),
            txn,
            move |_, c: dpapi::Result<Vec<dpapi::OpResult>>| {
                sink.borrow_mut().push((i, Instant::now(), c.is_ok()))
            },
        );
        submit_s += t.elapsed().as_secs_f64();
        tr.close(span);
        submitted.push(t);
        if r.is_err() {
            rejected += 1;
        }
    }
    let (_, drain_s) = tr.timed("sluice", "drain", || pipe.drain(layer));
    out.secs = t0.elapsed().as_secs_f64();
    out.txns = n as u64;
    let done = done.borrow();
    let failed =
        done.iter().filter(|(_, _, ok)| !ok).count() as u64 + (n as u64 - done.len() as u64);
    acc.ops(n as u64, failed);
    for &(i, at, ok) in done.iter() {
        if ok {
            acc.commit_us
                .push(at.duration_since(submitted[i]).as_secs_f64() * 1e6);
        }
    }
    let s = pipe.stats();
    acc.sample("sluice.submit_s", submit_s);
    acc.sample("sluice.drain_s", drain_s);
    acc.sample("sluice.frames", s.frames as f64);
    acc.sample(
        "sluice.ops_per_frame",
        s.frame_ops as f64 / s.frames.max(1) as f64,
    );
    acc.sample(
        "sluice.rejected",
        (rejected + s.rejected_queue_ops + s.rejected_queue_bytes) as f64,
    );
    let mut reg = provscope::Registry::new();
    pipe.export_metrics("", &mut reg);
    acc.sample("sluice.queue_peak_ops", reg.gauge("queue.peak_ops") as f64);
    out
}

/// A store that answers PQL: one daemon or a cluster.
pub trait QueryTarget {
    fn query(&mut self, text: &str) -> Result<pql::QueryOutput, pql::PqlError>;
    /// The naive reference evaluator over the same data.
    fn naive(&self, q: &pql::Query) -> Result<pql::ResultSet, pql::PqlError>;
    /// Counters of the PQL closure cache (`label*` steps), whose
    /// capacity is `WaldoConfig::ancestry_cache`.
    fn cache_stats(&self) -> CacheStats;
}

impl QueryTarget for Waldo {
    fn query(&mut self, text: &str) -> Result<pql::QueryOutput, pql::PqlError> {
        Waldo::query(self, text)
    }
    fn naive(&self, q: &pql::Query) -> Result<pql::ResultSet, pql::PqlError> {
        pql::execute_naive(q, &self.db)
    }
    fn cache_stats(&self) -> CacheStats {
        self.db.closure_cache_stats()
    }
}

impl QueryTarget for Cluster {
    fn query(&mut self, text: &str) -> Result<pql::QueryOutput, pql::PqlError> {
        Cluster::query(self, text)
    }
    fn naive(&self, q: &pql::Query) -> Result<pql::ResultSet, pql::PqlError> {
        pql::execute_naive(q, &self.graph())
    }
    fn cache_stats(&self) -> CacheStats {
        let mut t = CacheStats::default();
        for m in self.members() {
            let s = m.db.closure_cache_stats();
            t.hits += s.hits;
            t.misses += s.misses;
            t.invalidated += s.invalidated;
        }
        t
    }
}

/// Rows as a sorted list of their printed form: planned execution may
/// order rows differently from the naive evaluator.
fn row_set(rs: &pql::ResultSet) -> Vec<String> {
    let mut v: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

/// Closure-cache lookups and hits of a set of queries.
#[derive(Default)]
struct CacheUse {
    lookups: u64,
    hits: u64,
}

impl CacheUse {
    fn add(&mut self, before: &CacheStats, after: &CacheStats) {
        self.hits += after.hits - before.hits;
        self.lookups += (after.hits + after.misses) - (before.hits + before.misses);
    }

    fn record(&self, acc: &mut Acc, ratio: &'static str, base: &'static str) {
        acc.sample(base, self.lookups as f64);
        acc.sample(ratio, self.hits as f64 / self.lookups.max(1) as f64);
    }
}

/// Sends `n` queries of `mix` back to back to `target`, one
/// trace per query. Every query draws a seeded coin: with
/// probability `naive_share` it joins `acc.naive_sample`, for
/// [`verify_naive`] to check once the iteration is over. Closure-cache
/// use is booked to the hot set or the tail by each query's target.
pub fn run_queries(
    target: &mut dyn QueryTarget,
    mix: &mut QueryMix,
    n: usize,
    naive_share: f64,
    coin: &mut Rng,
    tr: &mut Tracer,
    acc: &mut Acc,
) {
    let cache0 = target.cache_stats();
    let (mut hot, mut tail) = (CacheUse::default(), CacheUse::default());
    let mut planner = pql::PlanStats::default();
    let mut rows = 0u64;
    let mut failed = 0u64;
    let mut busy_s = 0.0;
    for _ in 0..n {
        let q = mix.next_query();
        let before = target.cache_stats();
        let span = tr.open_trace("pql", "query");
        let t = Instant::now();
        let out = target.query(&q.text);
        let secs = t.elapsed().as_secs_f64();
        tr.close(span);
        let after = target.cache_stats();
        if q.hot { &mut hot } else { &mut tail }.add(&before, &after);
        busy_s += secs;
        let us = secs * 1e6;
        acc.query_us.push(us);
        acc.class_us.entry(q.class).or_default().push(us);
        match out {
            Ok(out) => {
                rows += out.result.len() as u64;
                planner.absorb(&out.stats);
                if coin.unit() < naive_share {
                    acc.naive_sample.push(q.text.clone());
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: query failed: {}: {e}", q.text);
            }
        }
        acc.parse_queue.push(q.text);
    }
    acc.ops(n as u64, failed);
    acc.query_rates.push(n as f64 / busy_s);
    let c = target.cache_stats();
    let mut all = CacheUse::default();
    all.add(&cache0, &c);
    all.record(acc, "waldo.cache_hit_ratio", "waldo.cache_lookups");
    hot.record(acc, "waldo.cache_hit_ratio_hot", "waldo.cache_lookups_hot");
    tail.record(
        acc,
        "waldo.cache_hit_ratio_tail",
        "waldo.cache_lookups_tail",
    );
    acc.sample(
        "waldo.cache_invalidated",
        (c.invalidated - cache0.invalidated) as f64,
    );
    acc.sample("pql.index_hits", planner.index_hits as f64);
    acc.sample("pql.rows_pruned", planner.rows_pruned as f64);
    acc.sample(
        "pql.closure_calls_saved",
        planner.closure_calls_saved as f64,
    );
    acc.sample("pql.naive_fallbacks", planner.naive_fallbacks as f64);
    acc.sample("pql.rows_returned", rows as f64);
}

/// Checks the planned rows of every query in `acc.naive_sample`
/// (at most `cap` of them) against the naive evaluator over the same
/// store, then clears the sample.
pub fn verify_naive(target: &mut dyn QueryTarget, cap: usize, acc: &mut Acc) {
    let sample = std::mem::take(&mut acc.naive_sample);
    for text in sample.iter().take(cap) {
        let planned = target.query(text);
        let naive = pql::parse(text).and_then(|q| target.naive(&q));
        let ok = match (&planned, &naive) {
            (Ok(p), Ok(n)) => row_set(&p.result) == row_set(n),
            _ => false,
        };
        acc.check(ok, || {
            format!("planned rows differ from the naive evaluator: {text}")
        });
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
