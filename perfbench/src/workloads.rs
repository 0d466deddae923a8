//! The four workloads. Each is a closed loop with one client: an
//! iteration runs the whole stack once (collect → rotate → durable
//! ingest → checkpoint → read back → crash and cold restart), with
//! the workload's shape deciding which layers carry the load.
//!
//! Calls into each layer are timed from outside, in spans opened
//! here. Where one call covers two layers that only a twin run can
//! split (collection: `sim_os` under `core`; durable ingest: the
//! `lasagna` parse under `waldo`), traced iterations run the twin
//! beside the iteration and move the twin's time between the layers.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use dpapi::{Dpapi, VolumeId};
use pa_nfs::NfsServer;
use passv2::{LibPass, Pass, System, SystemBuilder};
use sim_os::clock::Clock;
use sim_os::cost::CostModel;
use sim_os::fs::basefs::BaseFs;
use sim_os::fs::{DpapiVolume, FileSystem};
use sim_os::proc::Pid;
use sim_os::syscall::Kernel;
use waldo::{CheckpointStats, ClusterRuntime, IngestStats, ProvDb, Store, Waldo, WaldoConfig};
use workloads::{MultiVolume, Postmark, Workload};

use crate::gen::{BuildPlan, QueryMix, Rng, Targets};
use crate::harness::{disclose_stream, run_queries, verify_naive, Acc};
use crate::spans::Tracer;

/// Sizes of every workload, fixed here so that only the seed varies
/// between runs.
pub mod size {
    /// `build_ingest`: compilation units and shared headers.
    pub const BUILD_UNITS: usize = 600;
    pub const BUILD_HEADERS: usize = 60;
    /// Per-target disclosure transactions the build tool submits.
    pub const BUILD_DISCLOSURES: usize = 300;
    /// Read-back queries after each durable ingest.
    pub const READBACK_QUERIES: usize = 64;
    /// `panfs_disclose`: Postmark pool, transactions, body sizes.
    pub const PM_FILES: usize = 300;
    pub const PM_TRANSACTIONS: usize = 600;
    pub const PM_MIN: usize = 16 * 1024;
    pub const PM_MAX: usize = 160 * 1024;
    pub const PM_SUBDIRS: usize = 8;
    /// App disclosure transactions over the PA-NFS wire.
    pub const PANFS_DISCLOSURES: usize = 2000;
    /// `query_mix`: preloaded build, queries per iteration in phases,
    /// and the disclosure batch committed between phases. 4500 units give
    /// 4500 ancestry and 4500 descendant targets, each population more
    /// than the 4096-entry closure cache holds.
    pub const QM_UNITS: usize = 4500;
    pub const QM_HEADERS: usize = 200;
    /// The preload's file bodies are cut 16-fold: the read path never
    /// reads them, and the process then holds the store, not file data.
    pub const QM_SIZE_DIV: usize = 16;
    pub const QM_QUERIES: usize = 1000;
    pub const QM_PHASES: usize = 4;
    pub const QM_BATCH: usize = 32;
    /// `query_mix` cold-restarts the preload after every this many
    /// iterations (set-up warm-ups included), and once at the end.
    pub const QM_RESTART_EVERY: usize = 8;
    /// Naive-evaluator checks per `query_mix` run.
    pub const QM_NAIVE_CHECKS: usize = 6;
    /// Zipf exponent of `query_mix` targets: YCSB's default request
    /// skew (Cooper et al., SoCC 2010), a key-value benchmark's
    /// choice, not one measured on provenance queries.
    pub const ZIPF_S: f64 = 0.99;
    /// Read-back targets are drawn uniformly (Zipf exponent 0): the
    /// read-back checks the whole store is queryable.
    pub const READBACK_S: f64 = 0.0;
    /// Share of queries whose rows are checked against the naive
    /// evaluator.
    pub const NAIVE_SHARE: f64 = 0.02;
    /// `cluster_fanin`: units per volume (4 volumes, 2 members).
    pub const CLUSTER_UNITS: usize = 150;
    pub const CLUSTER_HEADERS: usize = 30;
    pub const CLUSTER_DISCLOSURES: usize = 300;
}
use size::*;

/// One workload: set-up (timed by the caller, repeated), then
/// iterations until the run's time is up, then a final phase.
pub trait Bench {
    fn setup(seed: u64, acc: &mut Acc) -> Self
    where
        Self: Sized;
    fn iterate(&mut self, tr: &mut Tracer, acc: &mut Acc);
    fn finish(&mut self, _tr: &mut Tracer, _acc: &mut Acc) {}
}

const DB: &str = "/waldo-db";

fn cfg() -> WaldoConfig {
    WaldoConfig::default()
}

fn pass_machine() -> System {
    SystemBuilder::new(CostModel::default())
        .pass_volume("/", VolumeId(1))
        .waldo_config(cfg())
        .build()
}

/// Host seconds of `wl` on the no-provenance twin (Ext3 config).
fn twin_run(wl: &dyn Workload, base_mounts: &[&str]) -> f64 {
    let mut b = SystemBuilder::new(CostModel::default()).without_provenance();
    for m in base_mounts {
        b = b.plain_volume(m);
    }
    let mut sys = b.build();
    let parent = sys.spawn("make");
    let t = Instant::now();
    let ok = wl.run(&mut sys.kernel, parent, "/").is_ok() && sys.kernel.sync_all().is_ok();
    let s = t.elapsed().as_secs_f64();
    assert!(ok, "the no-provenance twin runs the same inputs");
    s
}

/// Collection counters of one phase, from the kernel and the module.
struct Counters {
    k: sim_os::syscall::KernelStats,
    p: passv2::PassStats,
}

impl Counters {
    fn take(kernel: &Kernel, pass: &Pass) -> Counters {
        Counters {
            k: kernel.stats(),
            p: pass.stats(),
        }
    }

    /// Records the deltas since `self`; returns (app ops, user bytes).
    fn since(&self, now: &Counters, acc: &mut Acc) -> (u64, u64) {
        let syscalls = now.k.syscalls - self.k.syscalls;
        let bytes = now.k.bytes_written - self.k.bytes_written;
        acc.sample("sim_os.syscalls", syscalls as f64);
        acc.sample("sim_os.bytes_written", bytes as f64);
        acc.sample(
            "core.records_emitted",
            (now.p.records_emitted - self.p.records_emitted) as f64,
        );
        acc.sample(
            "core.records_cached",
            (now.p.records_cached - self.p.records_cached) as f64,
        );
        acc.sample(
            "core.materializations",
            (now.p.materializations - self.p.materializations) as f64,
        );
        acc.sample(
            "core.txn_commits",
            (now.p.txn_commits - self.p.txn_commits) as f64,
        );
        let dpapi_ops = now.k.dpapi_txn_ops - self.k.dpapi_txn_ops;
        (syscalls + dpapi_ops, bytes)
    }
}

/// The collection phase on a PASS machine: the build, then the build
/// tool's disclosure transactions through the sluice. Returns (host
/// seconds, app ops, user bytes).
fn collect(
    sys: &mut System,
    wl: &dyn Workload,
    disclosures: usize,
    twin_s: Option<f64>,
    tr: &mut Tracer,
    acc: &mut Acc,
) -> (f64, u64, u64) {
    let c0 = Counters::take(&sys.kernel, &sys.pass);
    let parent = sys.spawn("make");
    let (r, build_s) = tr.timed("core", "collect", || {
        wl.run(&mut sys.kernel, parent, "/")
            .and_then(|_| sys.kernel.sync_all())
    });
    if let Err(e) = &r {
        eprintln!("perfbench: workload failed: {e:?}");
    }
    acc.ops(1, r.is_err() as u64);
    if let Some(t) = twin_s {
        tr.reattribute("core", "sim_os", t);
        acc.sample("sim_os.run_s", t);
        acc.sample("core.collect_s", (build_s - t).max(0.0));
    }
    let mut lib = LibPass::new(&mut sys.kernel, parent);
    let d = match lib.pass_mkobj(None) {
        Ok(h) => {
            let d = disclose_stream(&mut lib, h, disclosures, "make", tr, acc);
            let _ = lib.pass_close(h);
            d
        }
        Err(e) => {
            eprintln!("perfbench: mkobj failed: {e}");
            acc.ops(1, 1);
            Default::default()
        }
    };
    let c1 = Counters::take(&sys.kernel, &sys.pass);
    let (ops, bytes) = c0.since(&c1, acc);
    acc.ops(ops, 0);
    (build_s + d.secs, ops, bytes)
}

/// Reads rotated logs through the kernel as an exempt process: the
/// bytes the output checks and the twin parse/apply use.
fn read_logs(sys: &mut System, paths: &[String], tr: &mut Tracer) -> Vec<Vec<u8>> {
    let h = tr.open("bench", "read_logs");
    let pid = sys.kernel.spawn_init("reader");
    sys.pass.exempt(pid);
    let out = paths
        .iter()
        .map(|p| sys.kernel.read_file(pid, p).unwrap_or_default())
        .collect();
    tr.close(h);
    out
}

/// Parses and applies `images` on an engine-only store, timing each
/// side; returns the store's segment images.
fn engine_twin(images: &[Vec<u8>], acc: &mut Acc) -> (Vec<Vec<u8>>, f64) {
    let db = ProvDb::with_config(cfg());
    let (mut parse_s, mut apply_s) = (0.0, 0.0);
    for img in images {
        let t = Instant::now();
        let (entries, _) = lasagna::parse_log(img);
        parse_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        db.ingest(&entries);
        apply_s += t.elapsed().as_secs_f64();
    }
    acc.sample("lasagna.parse_s", parse_s);
    acc.sample("waldo.apply_s", apply_s);
    acc.sample(
        "lasagna.log_bytes",
        images.iter().map(Vec::len).sum::<usize>() as f64,
    );
    (db.segment_images(), parse_s)
}

/// Records the end-to-end rates of one iteration, and the sizes the
/// summary reports beside them. `stores` together hold the data.
fn record_iteration(
    acc: &mut Acc,
    (collect_s, ops): (f64, u64),
    (ingest_s, entries): (f64, u64),
    stores: &[&Store],
) {
    acc.collect_ops_per_s.push(ops as f64 / collect_s);
    acc.ingest_entries_per_s.push(entries as f64 / ingest_s);
    acc.e2e_us_per_record
        .push((collect_s + ingest_s) * 1e6 / entries.max(1) as f64);
    let objects: usize = stores.iter().map(|s| s.object_count()).sum();
    acc.sample("size.store_objects", objects as f64);
    acc.sample("size.records", entries as f64);
}

/// Records `space_amp`: Waldo's `db_bytes + index_bytes` in `stores`
/// per byte of user data written.
fn record_space(acc: &mut Acc, stores: &[&Store], user_bytes: u64) {
    let bytes: u64 = stores
        .iter()
        .map(|s| s.size())
        .map(|s| s.db_bytes + s.index_bytes)
        .sum();
    acc.space_amp.push(bytes as f64 / user_bytes.max(1) as f64);
    acc.sample("size.user_bytes", user_bytes as f64);
}

/// Books one durable ingest; `before` is the daemon's checkpoint
/// counters and WAL errors before it.
fn record_ingest(
    acc: &mut Acc,
    st: &IngestStats,
    w: &Waldo,
    before: (CheckpointStats, u64),
    ingest_s: f64,
    ckpt_s: f64,
) {
    acc.sample("waldo.ingest_s", ingest_s);
    acc.sample("waldo.checkpoint_s", ckpt_s);
    acc.sample("waldo.group_commits", st.group_commits as f64);
    let (c0, wal0) = before;
    let c = w.checkpoint_stats();
    acc.sample("waldo.checkpoints", (c.checkpoints - c0.checkpoints) as f64);
    acc.sample(
        "waldo.segment_bytes",
        (c.segment_bytes - c0.segment_bytes) as f64,
    );
    acc.ops(1, w.wal_errors() - wal0 + c.failures - c0.failures);
}

fn record_restart(acc: &mut Acc, w: &Waldo, secs: f64) {
    acc.restart_s.push(secs);
    acc.sample("waldo.restart_s", secs);
    if let Some(r) = w.restart_report() {
        acc.sample("waldo.replayed_entries", r.replayed_entries as f64);
        acc.sample(
            "waldo.wal_frames_beyond_checkpoint",
            r.wal_frames_beyond_checkpoint as f64,
        );
    }
}

/// Closes the iteration's root span and books its wall time, then
/// times the parse of the iteration's queries outside it.
fn end_iteration(tr: &mut Tracer, it: crate::spans::Open, wall: Instant, acc: &mut Acc) {
    tr.close(it);
    let s = wall.elapsed().as_secs_f64();
    if tr.enabled() {
        acc.wall_traced.push(s);
    } else {
        acc.wall_untraced.push(s);
    }
    acc.time_parses();
}

// ---- build_ingest --------------------------------------------------------

/// PASSv2 single volume: a seeded compile, rotation, durable Waldo
/// ingest, a final checkpoint and a cold restart.
pub struct BuildIngest {
    plan: BuildPlan,
    mix: QueryMix,
    next: Option<System>,
    coin: Rng,
}

impl Bench for BuildIngest {
    fn setup(seed: u64, _acc: &mut Acc) -> Self {
        let plan = BuildPlan::new(seed, BUILD_UNITS, BUILD_HEADERS, 1);
        BuildIngest {
            mix: QueryMix::new(seed, plan.targets("/"), READBACK_S),
            plan,
            next: Some(pass_machine()),
            coin: Rng::new(seed ^ 0xc01),
        }
    }

    fn iterate(&mut self, tr: &mut Tracer, acc: &mut Acc) {
        let mut sys = self.next.take().unwrap_or_else(pass_machine);
        let twin_s = tr.enabled().then(|| twin_run(&self.plan, &["/"]));
        let clock = sys.clock();
        let v0 = clock.now();
        let wall = Instant::now();
        let it = tr.open_trace("bench", "iteration");
        let (collect_s, ops, user_bytes) =
            collect(&mut sys, &self.plan, BUILD_DISCLOSURES, twin_s, tr, acc);
        let (rot, rotate_s) = tr.timed("lasagna", "rotate", || sys.rotate_all_logs());
        let paths: Vec<String> = rot.into_iter().flat_map(|(_, l)| l).collect();
        let images = read_logs(&mut sys, &paths, tr);
        let wrote0 = sys.kernel.stats().bytes_written;
        let ((mut w, st), ingest_s) = tr.timed("waldo", "ingest", || {
            let mut w = sys.spawn_waldo_durable(DB);
            let mut st = IngestStats::default();
            for p in &paths {
                st += w.ingest_log_file(&mut sys.kernel, p);
            }
            (w, st)
        });
        let (ck, ckpt_s) = tr.timed("waldo", "checkpoint", || w.checkpoint(&mut sys.kernel));
        acc.ops(1, ck.is_err() as u64);
        let wrote = sys.kernel.stats().bytes_written - wrote0;
        record_ingest(acc, &st, &w, Default::default(), ingest_s, ckpt_s);
        let entries = st.applied as u64;
        record_iteration(
            acc,
            (collect_s, ops),
            (rotate_s + ingest_s + ckpt_s, entries),
            &[&w.db],
        );
        record_space(acc, &[&w.db], user_bytes);
        run_queries(
            &mut w,
            &mut self.mix,
            READBACK_QUERIES,
            NAIVE_SHARE,
            &mut self.coin,
            tr,
            acc,
        );
        let h = tr.open("bench", "snapshot");
        let before = w.db.segment_images();
        tr.close(h);
        drop(w); // machine crash: memory gone, disks survive
        let (mut w, restart_s) = tr.timed("waldo", "restart", || sys.restart_waldo(DB));
        record_restart(acc, &w, restart_s);
        end_iteration(tr, it, wall, acc);

        acc.sample("lasagna.rotate_s", rotate_s);
        let (engine, parse_s) = engine_twin(&images, acc);
        if twin_s.is_some() {
            tr.reattribute("waldo", "lasagna", parse_s);
        }
        let log_bytes = images.iter().map(Vec::len).sum::<usize>();
        acc.sample("waldo.write_amp", wrote as f64 / log_bytes.max(1) as f64);
        acc.check(engine == before, || {
            "durable daemon store differs from engine-only ingest of the same logs".into()
        });
        acc.check(w.db.segment_images() == before, || {
            "restarted store differs from the pre-crash store".into()
        });
        verify_naive(&mut w, usize::MAX, acc);
        acc.rerun(clock.now() - v0, entries);
    }
}

// ---- panfs_disclose ------------------------------------------------------

/// The PA-NFS machine: a client kernel with the PASS module over a
/// provenance-aware export, plus a local disk for the server-side
/// Waldo's durable home.
struct PanfsMachine {
    kernel: Kernel,
    pass: Rc<Pass>,
    server: Rc<RefCell<NfsServer>>,
    clock: Clock,
}

const PANFS_DB: &str = "/local/waldo-db";
/// The app's event log on the export: the object its disclosures
/// describe.
const EVENTS: &str = "/events";

fn panfs_machine(pass_aware: bool) -> PanfsMachine {
    let model = CostModel::default();
    let clock = Clock::new();
    let mut kernel = Kernel::new(clock.clone(), model);
    let server = if pass_aware {
        pa_nfs::pa_server(clock.clone(), model, VolumeId(10))
    } else {
        pa_nfs::plain_server(clock.clone(), model)
    };
    kernel.mount("/", Box::new(pa_nfs::client(&server, clock.clone(), model)));
    kernel.mount("/local", Box::new(BaseFs::new(clock.clone(), model)));
    let pass = Pass::new_shared();
    if pass_aware {
        kernel.install_module(pass.clone());
    }
    PanfsMachine {
        kernel,
        pass,
        server,
        clock,
    }
}

fn spawn_exempt(kernel: &mut Kernel, pass: &Pass, name: &str) -> Pid {
    let pid = kernel.spawn_init(name);
    pass.exempt(pid);
    pid
}

/// PA-NFS: a seeded data-heavy Postmark, then a stream of small app
/// disclosures through the sluice over the PA-NFS wire; the server
/// drains its logs into a durable store.
pub struct PanfsDisclose {
    pm: Postmark,
    mix: QueryMix,
    next: Option<PanfsMachine>,
    coin: Rng,
}

impl Bench for PanfsDisclose {
    fn setup(seed: u64, _acc: &mut Acc) -> Self {
        // Lookups and scans cover the pool. Postmark runs as one
        // process, so a pool file's closure spans whatever that process
        // touched before it — a seed-dependent size; closures instead
        // walk the app's event log, whose shape the seed does not move.
        let targets = Targets {
            point: (0..PM_FILES)
                .map(|i| format!("/pm/s{}/file{i}", i % PM_SUBDIRS))
                .collect(),
            ancestry: vec![EVENTS.to_string()],
            descendants: vec![EVENTS.to_string()],
            scan: (0..PM_SUBDIRS).map(|d| format!("/pm/s{d}/")).collect(),
        };
        PanfsDisclose {
            mix: QueryMix::new(seed, targets, READBACK_S),
            pm: Postmark {
                files: PM_FILES,
                transactions: PM_TRANSACTIONS,
                subdirs: PM_SUBDIRS,
                min_size: PM_MIN,
                max_size: PM_MAX,
                seed,
            },
            next: Some(panfs_machine(true)),
            coin: Rng::new(seed ^ 0xf5),
        }
    }

    fn iterate(&mut self, tr: &mut Tracer, acc: &mut Acc) {
        let mut m = self.next.take().unwrap_or_else(|| panfs_machine(true));
        let twin_s = tr.enabled().then(|| {
            let mut t = panfs_machine(false);
            let parent = t.kernel.spawn_init("postmark");
            let s = Instant::now();
            let ok = self.pm.run(&mut t.kernel, parent, "/").is_ok();
            assert!(ok, "the no-provenance twin runs the same inputs");
            s.elapsed().as_secs_f64()
        });
        let v0 = m.clock.now();
        let wall = Instant::now();
        let it = tr.open_trace("bench", "iteration");

        // Collection: Postmark through the kernel, then the app's
        // disclosure stream on its own wire client.
        let c0 = Counters::take(&m.kernel, &m.pass);
        let parent = m.kernel.spawn_init("postmark");
        let (r, pm_s) = tr.timed("core", "collect", || {
            self.pm
                .run(&mut m.kernel, parent, "/")
                .and_then(|_| m.kernel.sync_all())
        });
        acc.ops(1, r.is_err() as u64);
        if let Some(t) = twin_s {
            tr.reattribute("core", "sim_os", t);
            acc.sample("sim_os.run_s", t);
            acc.sample("core.collect_s", (pm_s - t).max(0.0));
        }
        let c1 = Counters::take(&m.kernel, &m.pass);
        let (mut ops, user_bytes) = c0.since(&c1, acc);
        let mut app = pa_nfs::client(&m.server, m.clock.clone(), CostModel::default());
        let root = app.root();
        let h = app
            .create(root, &EVENTS[1..])
            .ok()
            .and_then(|ino| app.handle_for_ino(ino).ok());
        let wire0 = app.stats();
        let d = match h {
            Some(h) => disclose_stream(&mut app, h, PANFS_DISCLOSURES, "app", tr, acc),
            None => {
                eprintln!("perfbench: the disclosure target could not be created");
                acc.ops(1, 1);
                Default::default()
            }
        };
        ops += d.ops;
        acc.ops(ops, 0);
        let wire = app.stats();
        let srv = m.server.borrow().stats();
        acc.sample("pa_nfs.rpcs", srv.requests as f64);
        acc.sample("pa_nfs.disclosure_txns", d.txns as f64);
        acc.sample(
            "pa_nfs.wire_bytes_per_txn",
            ((wire.bytes_sent + wire.bytes_received) - (wire0.bytes_sent + wire0.bytes_received))
                as f64
                / d.txns.max(1) as f64,
        );
        let collect_s = pm_s + d.secs;

        // The server drains its logs into the server-side store.
        let (images, drain_s) = tr.timed("pa_nfs", "drain", || {
            m.server.borrow_mut().drain_provenance_logs()
        });
        acc.sample("pa_nfs.drain_s", drain_s);
        let wpid = spawn_exempt(&mut m.kernel, &m.pass, "waldo");
        let wrote0 = m.kernel.stats().bytes_written;
        let ((mut w, st, attached), ingest_s) = tr.timed("waldo", "ingest", || {
            let mut w = Waldo::with_config(wpid, cfg());
            let attached = w.attach_db_dir(&mut m.kernel, PANFS_DB).is_ok();
            let mut st = IngestStats::default();
            if attached {
                for img in &images {
                    st += w.ingest_log_image(&mut m.kernel, img);
                }
            }
            (w, st, attached)
        });
        acc.ops(1, (!attached) as u64);
        let (ck, ckpt_s) = tr.timed("waldo", "checkpoint", || w.checkpoint(&mut m.kernel));
        acc.ops(1, ck.is_err() as u64);
        let wrote = m.kernel.stats().bytes_written - wrote0;
        record_ingest(acc, &st, &w, Default::default(), ingest_s, ckpt_s);
        let entries = st.applied as u64;
        record_iteration(
            acc,
            (collect_s, ops),
            (drain_s + ingest_s + ckpt_s, entries),
            &[&w.db],
        );
        record_space(acc, &[&w.db], user_bytes);
        run_queries(
            &mut w,
            &mut self.mix,
            READBACK_QUERIES,
            NAIVE_SHARE,
            &mut self.coin,
            tr,
            acc,
        );
        let h = tr.open("bench", "snapshot");
        let before = w.db.segment_images();
        tr.close(h);
        drop(w);
        let rpid = spawn_exempt(&mut m.kernel, &m.pass, "waldo");
        let (w, restart_s) = tr.timed("waldo", "restart", || {
            Waldo::restart(rpid, &mut m.kernel, cfg(), PANFS_DB, &[])
        });
        end_iteration(tr, it, wall, acc);

        let (engine, parse_s) = engine_twin(&images, acc);
        if twin_s.is_some() {
            tr.reattribute("waldo", "lasagna", parse_s);
        }
        let log_bytes = images.iter().map(Vec::len).sum::<usize>();
        acc.sample("waldo.write_amp", wrote as f64 / log_bytes.max(1) as f64);
        acc.check(engine == before, || {
            "server-side durable store differs from engine-only ingest of the drained logs".into()
        });
        match w {
            Ok(mut w) => {
                record_restart(acc, &w, restart_s);
                acc.check(w.db.segment_images() == before, || {
                    "restarted server-side store differs from the pre-crash store".into()
                });
                verify_naive(&mut w, usize::MAX, acc);
            }
            Err(e) => acc.check(false, || format!("server-side restart failed: {e}")),
        }
        acc.rerun(m.clock.now() - v0, entries);
    }
}

// ---- query_mix -----------------------------------------------------------

/// Durable home of each `query_mix` iteration's daemon. The preload
/// stays in [`DB`], untouched after set-up.
const QM_ITER_DB: &str = "/waldo-iter";

/// One analyst over a preloaded store several times the closure
/// cache: a Zipf-skewed query mix, with a small disclosure batch
/// committed through the kernel and ingested after every
/// `QM_QUERIES / QM_PHASES` queries but the last ones. Each iteration runs on a fresh copy of the
/// preloaded store, so every iteration queries a store of the same
/// size with cold caches, whatever the number of iterations before it.
pub struct QueryMixBench {
    sys: System,
    /// The preloaded store, as checkpointed in [`DB`].
    preload: Store,
    /// The daemon the next iteration runs on, made outside iterations.
    w: Option<Waldo>,
    mix: QueryMix,
    coin: Rng,
    /// Iterations run so far, warm-up included.
    iters: usize,
}

impl QueryMixBench {
    /// A durable daemon over a fresh copy of the preloaded store.
    fn fresh_daemon(sys: &mut System, preload: &Store) -> Waldo {
        let db = Store::with_config(cfg());
        db.merge(preload)
            .expect("a committed store merges into an empty one");
        let pid = spawn_exempt(&mut sys.kernel, &sys.pass, "waldo");
        let mut w = Waldo::resume(pid, db);
        w.attach_db_dir(&mut sys.kernel, QM_ITER_DB)
            .expect("attaching the iteration's database directory");
        w
    }

    /// The disclosure batch: committed through the kernel, rotated and
    /// ingested into `w`, which advances shard generations under the
    /// query caches. Returns the log images it ingested and the bytes
    /// the daemon wrote.
    fn batch(&mut self, w: &mut Waldo, tr: &mut Tracer, acc: &mut Acc) -> (Vec<Vec<u8>>, u64) {
        let sys = &mut self.sys;
        let c0 = Counters::take(&sys.kernel, &sys.pass);
        let parent = sys.spawn("analyst");
        let mut lib = LibPass::new(&mut sys.kernel, parent);
        let d = match lib.pass_mkobj(None) {
            Ok(h) => {
                let d = disclose_stream(&mut lib, h, QM_BATCH, "note", tr, acc);
                let _ = lib.pass_close(h);
                d
            }
            Err(_) => {
                acc.ops(1, 1);
                Default::default()
            }
        };
        let c1 = Counters::take(&sys.kernel, &sys.pass);
        let (ops, _) = c0.since(&c1, acc);
        acc.ops(ops, 0);
        let (rot, rotate_s) = tr.timed("lasagna", "rotate", || sys.rotate_all_logs());
        let paths: Vec<String> = rot.into_iter().flat_map(|(_, l)| l).collect();
        let images = read_logs(sys, &paths, tr);
        let before = (w.checkpoint_stats(), w.wal_errors());
        let wrote0 = sys.kernel.stats().bytes_written;
        let (st, ingest_s) = tr.timed("waldo", "ingest", || {
            let mut st = IngestStats::default();
            for p in &paths {
                st += w.ingest_log_file(&mut sys.kernel, p);
            }
            st
        });
        record_ingest(acc, &st, w, before, ingest_s, 0.0);
        let wrote = sys.kernel.stats().bytes_written - wrote0;
        acc.sample("lasagna.rotate_s", rotate_s);
        record_iteration(
            acc,
            (d.secs, ops),
            (rotate_s + ingest_s, st.applied as u64),
            &[&w.db],
        );
        (images, wrote)
    }

    /// A cold restart of the preloaded store from its checkpoint,
    /// between iterations and outside their spans. Mounts are not
    /// rescanned: the batches' retained logs went into the copies.
    fn restart(&mut self, acc: &mut Acc) {
        let sys = &mut self.sys;
        let pid = spawn_exempt(&mut sys.kernel, &sys.pass, "waldo");
        let t = Instant::now();
        let w = Waldo::restart(pid, &mut sys.kernel, cfg(), DB, &[]);
        let secs = t.elapsed().as_secs_f64();
        match w {
            Ok(w) => {
                record_restart(acc, &w, secs);
                acc.check(
                    w.db.segment_images() == self.preload.segment_images(),
                    || "restarted store differs from the preloaded store".into(),
                );
            }
            Err(e) => acc.check(false, || format!("restart of the preload failed: {e}")),
        }
    }
}

impl Bench for QueryMixBench {
    fn setup(seed: u64, acc: &mut Acc) -> Self {
        let plan = BuildPlan::new(seed, QM_UNITS, QM_HEADERS, QM_SIZE_DIV);
        let mut sys = pass_machine();
        let parent = sys.spawn("make");
        let v0 = sys.clock().now();
        let ok = plan.run(&mut sys.kernel, parent, "/").is_ok() && sys.kernel.sync_all().is_ok();
        acc.ops(1, (!ok) as u64);
        let user_bytes = sys.kernel.stats().bytes_written;
        let paths: Vec<String> = sys
            .rotate_all_logs()
            .into_iter()
            .flat_map(|(_, l)| l)
            .collect();
        // The preload is applied engine-only, then made durable by one
        // checkpoint: the durable ingest path is what `build_ingest`
        // measures, and it would make set-up ten times longer here.
        let images = read_logs(&mut sys, &paths, &mut Tracer::new(false));
        let preload = Store::with_config(cfg());
        let mut st = IngestStats::default();
        for img in &images {
            st += preload.ingest(&lasagna::parse_log(img).0);
        }
        let pid = spawn_exempt(&mut sys.kernel, &sys.pass, "waldo");
        let mut w = Waldo::resume(pid, preload);
        let attached = w.attach_db_dir(&mut sys.kernel, DB).is_ok();
        let ck = w.checkpoint(&mut sys.kernel);
        acc.ops(1, (!attached) as u64 + ck.is_err() as u64 + w.wal_errors());
        acc.rerun(sys.clock().now() - v0, st.applied as u64);
        // Measured once, on the preload: the iterations' batches go
        // into copies and never change it.
        record_space(acc, &[&w.db], user_bytes);
        acc.sample("size.preload_records", st.applied as f64);
        acc.sample("size.preload_objects", w.db.object_count() as f64);
        let preload = std::mem::take(&mut w.db);
        drop(w);
        let next = Self::fresh_daemon(&mut sys, &preload);
        acc.check(next.db.segment_images() == preload.segment_images(), || {
            "a copy of the preloaded store differs from it".into()
        });
        QueryMixBench {
            mix: QueryMix::new(seed, plan.targets("/"), ZIPF_S),
            sys,
            preload,
            w: Some(next),
            coin: Rng::new(seed ^ 0x9a),
            iters: 0,
        }
    }

    fn iterate(&mut self, tr: &mut Tracer, acc: &mut Acc) {
        let mut w = self.w.take().expect("a daemon is ready between iterations");
        let wall = Instant::now();
        let it = tr.open_trace("bench", "iteration");
        let (mut images, mut wrote) = (Vec::new(), 0);
        for phase in 0..QM_PHASES {
            run_queries(
                &mut w,
                &mut self.mix,
                QM_QUERIES / QM_PHASES,
                NAIVE_SHARE,
                &mut self.coin,
                tr,
                acc,
            );
            if phase + 1 < QM_PHASES {
                let (img, b) = self.batch(&mut w, tr, acc);
                images.extend(img);
                wrote += b;
            }
        }
        end_iteration(tr, it, wall, acc);
        if tr.enabled() {
            let (_, parse_s) = engine_twin(&images, acc);
            tr.reattribute("waldo", "lasagna", parse_s);
            let log_bytes = images.iter().map(Vec::len).sum::<usize>();
            acc.sample("waldo.write_amp", wrote as f64 / log_bytes.max(1) as f64);
        }
        self.w = Some(Self::fresh_daemon(&mut self.sys, &self.preload));
        self.iters += 1;
        if self.iters.is_multiple_of(QM_RESTART_EVERY) {
            self.restart(acc);
        }
    }

    /// Checks a capped sample of the mix against the naive evaluator
    /// (a whole-store scan per query at this size), then restarts the
    /// preload once more.
    fn finish(&mut self, _tr: &mut Tracer, acc: &mut Acc) {
        let w = self
            .w
            .as_mut()
            .expect("a daemon is ready between iterations");
        verify_naive(w, QM_NAIVE_CHECKS, acc);
        self.restart(acc);
    }
}

// ---- cluster_fanin -------------------------------------------------------

/// Volume ids that split 2/2 across a 2-member cluster (the routing
/// hash is a fixed splitmix).
const VOLS: [u32; 4] = [1, 2, 6, 7];
const CLUSTER_DB: &str = "/db/cluster";
const MEMBERS: usize = 2;

fn cluster_machine() -> System {
    let mut b = SystemBuilder::new(CostModel::default())
        .waldo_config(cfg())
        .plain_volume("/db");
    for v in VOLS {
        b = b.pass_volume(&format!("/v{v}"), VolumeId(v));
    }
    b.build()
}

/// Four PASS volumes running the build shape, drained by a 2-member
/// durable cluster on the threaded runtime.
pub struct ClusterFanin {
    wl: MultiVolume<BuildPlan>,
    mix: QueryMix,
    next: Option<System>,
    coin: Rng,
    checked_merge: bool,
}

impl Bench for ClusterFanin {
    fn setup(seed: u64, _acc: &mut Acc) -> Self {
        let plan = BuildPlan::new(seed, CLUSTER_UNITS, CLUSTER_HEADERS, 1);
        let mounts: Vec<String> = VOLS.iter().map(|v| format!("/v{v}")).collect();
        let mut targets = Targets::default();
        for m in &mounts {
            targets.extend(plan.targets(m));
        }
        ClusterFanin {
            wl: MultiVolume { base: plan, mounts },
            mix: QueryMix::new(seed, targets, READBACK_S),
            next: Some(cluster_machine()),
            coin: Rng::new(seed ^ 0xc1),
            checked_merge: false,
        }
    }

    fn iterate(&mut self, tr: &mut Tracer, acc: &mut Acc) {
        let mut sys = self.next.take().unwrap_or_else(cluster_machine);
        let twin_s = tr.enabled().then(|| {
            let mounts: Vec<&str> = self.wl.mounts.iter().map(String::as_str).collect();
            twin_run(&self.wl, &mounts)
        });
        let clock = sys.clock();
        let v0 = clock.now();
        let wall = Instant::now();
        let it = tr.open_trace("bench", "iteration");
        let (collect_s, ops, user_bytes) =
            collect(&mut sys, &self.wl, CLUSTER_DISCLOSURES, twin_s, tr, acc);
        let volumes = sys.volumes.clone();
        let (_, rotate_s) = tr.timed("lasagna", "rotate", || {
            sys.kernel.barrier();
            for (_, m, _) in &volumes {
                if let Some(d) = sys.kernel.dpapi_at(*m) {
                    d.force_log_rotation();
                }
            }
        });
        let wrote0 = sys.kernel.stats().bytes_written;
        let ((mut cluster, report), poll_s) = tr.timed("cluster", "poll", || {
            let mut c = sys.spawn_cluster_durable(MEMBERS, CLUSTER_DB);
            c.set_runtime(ClusterRuntime::Threaded);
            let r = c.poll_volumes_report(&mut sys.kernel, &volumes);
            (c, r)
        });
        let (ck, ckpt_s) = tr.timed("waldo", "checkpoint", || {
            cluster.checkpoint_all(&mut sys.kernel)
        });
        acc.ops(1, ck.is_err() as u64 + report.issues().len() as u64);
        let wrote = sys.kernel.stats().bytes_written - wrote0;
        let st = report.total;
        let entries = st.applied as u64;
        acc.sample("cluster.poll_s", poll_s);
        acc.sample("waldo.ingest_s", poll_s);
        acc.sample("waldo.checkpoint_s", ckpt_s);
        acc.sample("waldo.group_commits", st.group_commits as f64);
        let walls: Vec<f64> = report
            .member_timings
            .iter()
            .map(|t| t.wall_ns as f64 / 1e9)
            .collect();
        let max = walls.iter().copied().fold(0.0, f64::max);
        let min = walls.iter().copied().fold(f64::INFINITY, f64::min);
        acc.sample("cluster.member_wall_max_s", max);
        acc.sample("cluster.skew", if min > 0.0 { max / min } else { 0.0 });
        let mut lock = provscope::Histogram::default();
        for m in cluster.members() {
            let mut reg = provscope::Registry::new();
            m.db.export_contention("", &mut reg);
            for level in ["meta", "shard", "cache"] {
                if let Some(h) = reg.histogram(&format!("lock.{level}_wait_ns")) {
                    lock.merge(h);
                }
            }
        }
        acc.sample("cluster.lock_wait_p99_ns", lock.quantile(0.99) as f64);
        let (mut ckpts, mut seg_bytes) = (0, 0);
        for m in cluster.members() {
            let c = m.checkpoint_stats();
            ckpts += c.checkpoints;
            seg_bytes += c.segment_bytes;
            acc.ops(0, m.wal_errors() + c.failures);
        }
        acc.sample("waldo.checkpoints", ckpts as f64);
        acc.sample("waldo.segment_bytes", seg_bytes as f64);
        let stores: Vec<&Store> = cluster.members().iter().map(|m| &m.db).collect();
        record_iteration(
            acc,
            (collect_s, ops),
            (rotate_s + poll_s + ckpt_s, entries),
            &stores,
        );
        record_space(acc, &stores, user_bytes);
        run_queries(
            &mut cluster,
            &mut self.mix,
            READBACK_QUERIES,
            NAIVE_SHARE,
            &mut self.coin,
            tr,
            acc,
        );
        let h = tr.open("bench", "snapshot");
        let before: Vec<Vec<Vec<u8>>> = cluster
            .members()
            .iter()
            .map(|m| m.db.segment_images())
            .collect();
        tr.close(h);
        drop(cluster);
        let (restarted, restart_s) = tr.timed("waldo", "restart", || {
            sys.try_restart_cluster(MEMBERS, CLUSTER_DB)
        });
        end_iteration(tr, it, wall, acc);

        acc.restart_s.push(restart_s);
        acc.sample("waldo.restart_s", restart_s);
        acc.sample("lasagna.rotate_s", rotate_s);
        let mut merged = None;
        match restarted {
            Ok(mut c) => {
                verify_naive(&mut c, usize::MAX, acc);
                if !self.checked_merge {
                    merged = Some(c.merged_store().segment_images());
                }
                let (mut replayed, mut beyond) = (0, 0);
                for m in c.members() {
                    if let Some(r) = m.restart_report() {
                        replayed += r.replayed_entries;
                        beyond += r.wal_frames_beyond_checkpoint;
                    }
                }
                acc.sample("waldo.replayed_entries", replayed as f64);
                acc.sample("waldo.wal_frames_beyond_checkpoint", beyond as f64);
                let after: Vec<Vec<Vec<u8>>> =
                    c.members().iter().map(|m| m.db.segment_images()).collect();
                acc.check(after == before, || {
                    "restarted cluster members differ from their pre-crash stores".into()
                });
            }
            Err(e) => acc.check(false, || format!("cluster restart failed: {e}")),
        }

        // The parse/apply twin, over the same log bytes the cluster
        // drained, read from a same-inputs twin machine: the kernel
        // cannot hand them over once the members have retired them.
        if tr.enabled() || !self.checked_merge {
            let mut twin = cluster_machine();
            let mut twin_acc = Acc::default();
            collect(
                &mut twin,
                &self.wl,
                CLUSTER_DISCLOSURES,
                None,
                &mut Tracer::new(false),
                &mut twin_acc,
            );
            acc.ops(twin_acc.attempted, twin_acc.failed);
            let paths: Vec<String> = twin
                .rotate_all_logs()
                .into_iter()
                .flat_map(|(_, l)| l)
                .collect();
            let images = read_logs(&mut twin, &paths, &mut Tracer::new(false));
            if tr.enabled() {
                let (_, parse_s) = engine_twin(&images, acc);
                // Members parse their own volumes in parallel, so the
                // poll's wall time holds about one member's share.
                tr.reattribute("cluster", "lasagna", parse_s / MEMBERS as f64);
                let log_bytes = images.iter().map(Vec::len).sum::<usize>();
                acc.sample("waldo.write_amp", wrote as f64 / log_bytes.max(1) as f64);
            }
            if !self.checked_merge {
                // The merged fleet store equals one sequential daemon's.
                let mut single = twin.spawn_waldo();
                for p in &paths {
                    single.ingest_log_file(&mut twin.kernel, p);
                }
                acc.check(merged == Some(single.db.segment_images()), || {
                    "merged cluster store differs from a sequential single daemon's".into()
                });
                self.checked_merge = true;
            }
        }
        acc.rerun(clock.now() - v0, entries);
    }
}
