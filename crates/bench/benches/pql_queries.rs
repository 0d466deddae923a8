//! PQL query latency versus provenance graph size — and the planner's
//! effect on it: indexed pushdown vs class scan vs the naive
//! evaluator, at growing graph sizes. The gap between `indexed` and
//! `scan`/`naive` must grow with the graph (indexed work is
//! proportional to the result, scans to the volume); CI runs this in
//! quick mode so the query path can't silently regress to scans.

use criterion::{criterion_group, BenchmarkId, Criterion};
use dpapi::{Attribute, ObjectRef, Pnode, ProvenanceRecord, Value, Version, VolumeId};
use lasagna::LogEntry;
use pql::{EdgeLabel, GraphSource};
use std::hint::black_box;
use waldo::{ProvDb, WaldoConfig};

fn r(n: u64) -> ObjectRef {
    ObjectRef::new(Pnode::new(VolumeId(1), n), Version(0))
}

fn prov(subject: ObjectRef, attr: Attribute, value: Value) -> LogEntry {
    LogEntry::Prov {
        subject,
        record: ProvenanceRecord::new(attr, value),
    }
}

/// A layered build graph: `files` source files feeding processes
/// feeding outputs, chained in generations.
fn build_entries(files: u64) -> Vec<LogEntry> {
    let mut entries = Vec::new();
    for i in 0..files {
        entries.push(prov(r(i), Attribute::Type, Value::str("FILE")));
        entries.push(prov(
            r(i),
            Attribute::Name,
            Value::str(format!("/src/f{i}.c")),
        ));
    }
    for p in 0..files {
        let proc_id = files + p;
        entries.push(prov(r(proc_id), Attribute::Type, Value::str("PROC")));
        entries.push(prov(r(proc_id), Attribute::Input, Value::Xref(r(p))));
        entries.push(prov(
            r(proc_id),
            Attribute::Input,
            Value::Xref(r((p + 1) % files)),
        ));
        let out = 2 * files + p;
        entries.push(prov(r(out), Attribute::Type, Value::str("FILE")));
        entries.push(prov(
            r(out),
            Attribute::Name,
            Value::str(format!("/obj/f{p}.o")),
        ));
        entries.push(prov(r(out), Attribute::Input, Value::Xref(r(proc_id))));
    }
    // A final link step depending on every object file.
    let ld = 3 * files;
    entries.push(prov(r(ld), Attribute::Type, Value::str("PROC")));
    for p in 0..files {
        entries.push(prov(r(ld), Attribute::Input, Value::Xref(r(2 * files + p))));
    }
    let image = 3 * files + 1;
    entries.push(prov(r(image), Attribute::Type, Value::str("FILE")));
    entries.push(prov(r(image), Attribute::Name, Value::str("/vmlinux")));
    entries.push(prov(r(image), Attribute::Input, Value::Xref(r(ld))));
    entries
}

/// Cache disabled: the `pql/*` benchmarks measure raw traversal cost.
fn build_db(files: u64) -> ProvDb {
    let db = ProvDb::with_config(WaldoConfig {
        shards: 8,
        ingest_batch: 64,
        ancestry_cache: 0,
        ..WaldoConfig::default()
    });
    db.ingest(&build_entries(files));
    db
}

/// The store with its `lookup_attr` / `class_size` overrides hidden:
/// the planner still plans (pushdown, reorder, streaming) but every
/// pushed predicate resolves through the trait's scan-based default —
/// isolating what the *index* buys over the *plan*.
struct ScanOnly<'a>(&'a ProvDb);

impl GraphSource for ScanOnly<'_> {
    fn class_members(&self, class: &str) -> Vec<ObjectRef> {
        self.0.class_members(class)
    }
    fn attr(&self, node: ObjectRef, name: &str) -> Option<Value> {
        GraphSource::attr(self.0, node, name)
    }
    fn out_edges(&self, node: ObjectRef, label: &EdgeLabel) -> Vec<ObjectRef> {
        self.0.out_edges(node, label)
    }
    fn in_edges(&self, node: ObjectRef, label: &EdgeLabel) -> Vec<ObjectRef> {
        self.0.in_edges(node, label)
    }
    fn closure(&self, node: ObjectRef, label: &EdgeLabel, inverse: bool) -> Vec<ObjectRef> {
        self.0.closure(node, label, inverse)
    }
    // lookup_attr / class_size deliberately not forwarded: the
    // defaults scan.
}

/// Indexed pushdown vs planner-without-index vs the naive evaluator,
/// on the paper's §5.7 query shape, at growing graph sizes.
fn bench_planner(c: &mut Criterion) {
    let mut group = c.benchmark_group("pql_planner");
    for files in [100u64, 400, 1600] {
        let db = build_db(files);
        // A selective target (one object file, shallow ancestry): the
        // root lookup dominates, so the indexed-vs-scan gap tracks
        // graph size. `/vmlinux` (whole-graph ancestry) is measured
        // separately in the `pql/*` group.
        let query = "select A from Provenance.file as F F.input* as A \
                     where F.name = '/obj/f17.o'";
        let parsed = pql::parse(query).unwrap();
        group.bench_with_input(BenchmarkId::new("indexed", files), &db, |b, db| {
            b.iter(|| {
                let out = pql::plan::execute(&parsed, db).unwrap();
                assert!(out.stats.index_hits >= 1);
                black_box(out.result.len())
            });
        });
        group.bench_with_input(BenchmarkId::new("scan", files), &db, |b, db| {
            let scan = ScanOnly(db);
            b.iter(|| {
                let out = pql::plan::execute(&parsed, &scan).unwrap();
                assert_eq!(out.stats.index_hits, 0);
                black_box(out.result.len())
            });
        });
        group.bench_with_input(BenchmarkId::new("naive", files), &db, |b, db| {
            b.iter(|| {
                let rs = pql::execute_naive(&parsed, db).unwrap();
                black_box(rs.len())
            });
        });
    }
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("pql");
    for files in [100u64, 400] {
        let db = build_db(files);
        group.bench_with_input(
            BenchmarkId::new("full_ancestry_closure", files),
            &db,
            |b, db| {
                b.iter(|| {
                    let rs = pql::query(
                        "select A from Provenance.file as F F.input* as A \
                         where F.name = '/vmlinux'",
                        db,
                    )
                    .unwrap();
                    black_box(rs.len())
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("name_filter_only", files), &db, |b, db| {
            b.iter(|| {
                let rs = pql::query(
                    "select F.name from Provenance.file as F \
                         where F.name like '/obj/*'",
                    db,
                )
                .unwrap();
                black_box(rs.len())
            });
        });
        group.bench_with_input(BenchmarkId::new("count_aggregate", files), &db, |b, db| {
            b.iter(|| {
                let rs = pql::query(
                    "select count(A) from Provenance.file as F F.input+ as A \
                         where F.name = '/vmlinux'",
                    db,
                )
                .unwrap();
                black_box(rs.rows[0][0].clone())
            });
        });
    }
    group.finish();

    // The same ancestry closure with the store's query caches on:
    // after the first run, edge expansions are answered from the
    // generation-validated LRU, so repeats measure the cached path.
    let mut group = c.benchmark_group("pql_cached");
    for files in [100u64, 400] {
        let cached = ProvDb::new();
        cached.ingest(&build_entries(files));
        group.bench_with_input(
            BenchmarkId::new("full_ancestry_closure", files),
            &cached,
            |b, db| {
                b.iter(|| {
                    let rs = pql::query(
                        "select A from Provenance.file as F F.input* as A \
                         where F.name = '/vmlinux'",
                        db,
                    )
                    .unwrap();
                    black_box(rs.len())
                });
            },
        );
        println!(
            "pql_cached/closure_cache_stats/{files}: {:?}",
            cached.closure_cache_stats()
        );
    }
    group.finish();
}

/// `PROVSCOPE_TRACE=1` mode: one traced planner run instead of the
/// criterion timing loops. Query evaluation never advances the
/// virtual clock (the cost model charges I/O, not graph traversal),
/// so spans are shown on a deterministic tick counter: the output is
/// the plan/bind/filter/project *span structure*, not wall time.
fn trace_mode() {
    let db = build_db(400);
    let tick = std::sync::atomic::AtomicU64::new(0);
    let scope = provscope::Scope::recording(
        move || tick.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        provscope::RecorderConfig::default(),
    );
    let query = "select A from Provenance.file as F F.input* as A \
                 where F.name = '/obj/f17.o'";
    let out = pql::query_traced(query, &db, &scope).expect("traced query");
    println!(
        "pql_queries trace: {} rows, {} index hits, {} rows pruned",
        out.result.len(),
        out.stats.index_hits,
        out.stats.rows_pruned,
    );
    let trace = scope.snapshot();
    for s in &trace.spans {
        println!(
            "  #{:<3} {:>10}/{:<8} parent={:?} ticks {}..{}",
            s.id.0,
            s.layer,
            s.name,
            s.parent.map(|p| p.0),
            s.start_ns,
            s.end_ns.unwrap_or(s.start_ns),
        );
    }
}

criterion_group!(benches, bench_queries, bench_planner);

fn main() {
    if std::env::var_os("PROVSCOPE_TRACE").is_some() {
        trace_mode();
        return;
    }
    benches();
}
