//! Whole-system assembly: kernel + Lasagna volumes + the PASS module.
//!
//! This module wires together the seven components of Figure 2:
//! libpass (user level), the interceptor and observer (the installed
//! [`Pass`] module), the analyzer and distributor (inside the
//! module), Lasagna (mounted volumes) and Waldo (driven externally by
//! the `waldo` crate via log-rotation polling; the storage engine's
//! tuning — shard count, ingest batch, ancestry cache — threads
//! through [`SystemBuilder::waldo_config`]).

use std::rc::Rc;

use dpapi::VolumeId;
use lasagna::{Lasagna, LasagnaConfig};
use sim_os::clock::Clock;
use sim_os::cost::CostModel;
use sim_os::fs::basefs::{BaseFs, BaseFsConfig};
use sim_os::proc::{MountId, Pid};
use sim_os::syscall::Kernel;
use waldo::cluster::route_volume;
use waldo::{Cluster, RestartError, Waldo, WaldoConfig};

use crate::module::{ObserverBatchConfig, Pass};

/// Why [`System::try_restart_cluster`] could not bring the fleet
/// back: the member that failed (so an operator can repair exactly
/// that durable home) and the underlying [`RestartError`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterRestartError {
    /// Index of the member whose restart failed; members before it
    /// restarted cleanly (and were discarded — a partial cluster
    /// would silently drop the failed member's volumes).
    pub member: usize,
    /// What went wrong on that member's durable home.
    pub source: RestartError,
}

impl std::fmt::Display for ClusterRestartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cluster member {} failed to restart: {}",
            self.member, self.source
        )
    }
}

impl std::error::Error for ClusterRestartError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// A fully assembled PASSv2 machine.
pub struct System {
    /// The simulated kernel, with the module installed.
    pub kernel: Kernel,
    /// The provenance module (shared with the kernel).
    pub pass: Rc<Pass>,
    /// Mounted PASS volumes: (mount point, mount id, volume id).
    pub volumes: Vec<(String, MountId, VolumeId)>,
    /// Storage-engine tuning for Waldo daemons this system spawns.
    pub waldo_cfg: WaldoConfig,
    /// Flight-recorder retention for [`System::enable_tracing`].
    recorder: provscope::RecorderConfig,
}

/// Builder for [`System`].
pub struct SystemBuilder {
    model: CostModel,
    clock: Clock,
    base_cfg: BaseFsConfig,
    mounts: Vec<(String, Option<VolumeId>)>,
    provenance_enabled: bool,
    waldo_cfg: WaldoConfig,
    observer_batch: Option<ObserverBatchConfig>,
    recorder: provscope::RecorderConfig,
}

impl SystemBuilder {
    /// Starts a builder with the given cost model.
    pub fn new(model: CostModel) -> Self {
        SystemBuilder {
            model,
            clock: Clock::new(),
            base_cfg: BaseFsConfig::default(),
            mounts: Vec::new(),
            provenance_enabled: true,
            waldo_cfg: WaldoConfig::default(),
            observer_batch: None,
            recorder: provscope::RecorderConfig::default(),
        }
    }

    /// Bounds the tracing scope [`System::enable_tracing`] creates
    /// with a flight recorder: ring retention of completed trace
    /// trees, deterministic head sampling on the volume-salted trace
    /// id, and tail-based slow-trace pinning (see
    /// [`provscope::RecorderConfig`]). Without this, the recorder
    /// keeps every span for the life of the scope
    /// ([`provscope::RecorderConfig::default`]).
    pub fn flight_recorder(mut self, cfg: provscope::RecorderConfig) -> Self {
        self.recorder = cfg;
        self
    }

    /// Enables observer-side write batching: the module aggregates a
    /// process's pure write bursts into one volume transaction instead
    /// of a `pass_write` per intercepted write. The batched store is
    /// byte-equal to the unbatched one (see
    /// [`ObserverBatchConfig`]); only the RPC count changes.
    pub fn observer_batch(mut self, cfg: ObserverBatchConfig) -> Self {
        self.observer_batch = Some(cfg);
        self
    }

    /// Overrides the base file-system configuration.
    pub fn base_config(mut self, cfg: BaseFsConfig) -> Self {
        self.base_cfg = cfg;
        self
    }

    /// Overrides the Waldo storage-engine tuning (shards, ingest
    /// batch, ancestry cache) used by [`System::spawn_waldo`].
    pub fn waldo_config(mut self, cfg: WaldoConfig) -> Self {
        self.waldo_cfg = cfg;
        self
    }

    /// Disables provenance collection entirely: volumes become plain
    /// base file systems and no module is installed. This is the
    /// "vanilla ext3" baseline of Table 2.
    pub fn without_provenance(mut self) -> Self {
        self.provenance_enabled = false;
        self
    }

    /// Adds a PASS (Lasagna-over-base) volume at `path`.
    pub fn pass_volume(mut self, path: &str, volume: VolumeId) -> Self {
        self.mounts.push((path.to_string(), Some(volume)));
        self
    }

    /// Adds a plain (non-provenance-aware) volume at `path`.
    pub fn plain_volume(mut self, path: &str) -> Self {
        self.mounts.push((path.to_string(), None));
        self
    }

    /// Builds the machine and boots an init process.
    pub fn build(self) -> System {
        let mut kernel = Kernel::new(self.clock.clone(), self.model);
        let mut volumes = Vec::new();
        for (path, vol) in self.mounts {
            match vol {
                Some(v) if self.provenance_enabled => {
                    let base = BaseFs::with_config(self.clock.clone(), self.model, self.base_cfg);
                    let fs = Lasagna::new(
                        Box::new(base),
                        self.clock.clone(),
                        self.model,
                        LasagnaConfig::new(v),
                    )
                    .expect("lasagna volume creation cannot fail on a fresh base fs");
                    let m = kernel.mount(&path, Box::new(fs));
                    volumes.push((path, m, v));
                }
                _ => {
                    let base = BaseFs::with_config(self.clock.clone(), self.model, self.base_cfg);
                    kernel.mount(&path, Box::new(base));
                }
            }
        }
        let pass = Pass::new_shared();
        pass.set_observer_batch(self.observer_batch);
        if self.provenance_enabled {
            kernel.install_module(pass.clone());
        }
        System {
            kernel,
            pass,
            volumes,
            waldo_cfg: self.waldo_cfg,
            recorder: self.recorder,
        }
    }
}

impl System {
    /// A one-volume PASS machine mounted at `/`, the common test
    /// configuration.
    pub fn single_volume() -> System {
        SystemBuilder::new(CostModel::default())
            .pass_volume("/", VolumeId(1))
            .build()
    }

    /// A plain machine (no provenance) mounted at `/` — the ext3
    /// baseline.
    pub fn baseline() -> System {
        SystemBuilder::new(CostModel::default())
            .plain_volume("/")
            .without_provenance()
            .build()
    }

    /// Spawns a process (fork from init or first process).
    pub fn spawn(&mut self, exe: &str) -> Pid {
        self.kernel.spawn_init(exe)
    }

    /// Turns on cross-layer span tracing for this machine: one
    /// [`provscope::Scope`] on the kernel's virtual clock, shared by
    /// the kernel, the PASS module, and every provenance-aware volume
    /// (current and future mounts). Daemons spawned separately
    /// ([`Waldo`]/cluster members) join via their own `set_scope`.
    ///
    /// Tracing only *reads* the clock — it never advances it, and it
    /// never perturbs batch-id allocation or log bytes, so a traced
    /// run is byte-identical to an untraced one. The scope retains
    /// spans under [`SystemBuilder::flight_recorder`]'s policy, which
    /// keeps everything unless bounded.
    pub fn enable_tracing(&mut self) -> provscope::Scope {
        let clock = self.kernel.clock();
        let scope = provscope::Scope::recording(move || clock.now(), self.recorder);
        self.kernel.set_scope(scope.clone());
        self.pass.set_scope(scope.clone());
        scope
    }

    /// Spawns the Waldo daemon: an observation-exempt process whose
    /// store is wired with this system's [`WaldoConfig`].
    pub fn spawn_waldo(&mut self) -> Waldo {
        let pid = self.kernel.spawn_init("waldo");
        self.pass.exempt(pid);
        Waldo::with_config(pid, self.waldo_cfg)
    }

    /// Spawns a Waldo daemon with its durable home attached at
    /// `db_dir` (the WAL plus the checkpoint directory): the
    /// checkpoint policy of this system's [`WaldoConfig`]
    /// (`checkpoint_commits` / `checkpoint_wal_bytes`) becomes active
    /// and fully committed logs are retained until a checkpoint
    /// covers them.
    pub fn spawn_waldo_durable(&mut self, db_dir: &str) -> Waldo {
        let mut w = self.spawn_waldo();
        w.attach_db_dir(&mut self.kernel, db_dir)
            .expect("attaching the Waldo database directory on a fresh volume");
        w
    }

    /// Cold-starts a Waldo daemon after a simulated **machine** crash
    /// (nothing in memory survives; the disks do): rebuilds the store
    /// from `db_dir`'s newest complete checkpoint, then replays
    /// retained logs across every PASS volume. See `Waldo::restart`.
    pub fn restart_waldo(&mut self, db_dir: &str) -> Waldo {
        let pid = self.kernel.spawn_init("waldo");
        self.pass.exempt(pid);
        let mounts: Vec<String> = self.volumes.iter().map(|(p, _, _)| p.clone()).collect();
        let refs: Vec<&str> = mounts.iter().map(String::as_str).collect();
        Waldo::restart(pid, &mut self.kernel, self.waldo_cfg, db_dir, &refs)
            .expect("reattaching the Waldo database directory on restart")
    }

    /// Spawns an `n`-member Waldo cluster — the multi-daemon fan-in
    /// tier (`waldo::cluster`): each member is an observation-exempt
    /// daemon wired with this system's [`WaldoConfig`], and every PASS
    /// volume is deterministically routed to one member. Drive ingest
    /// with `cluster.poll_volumes(&mut sys.kernel, &sys.volumes)`.
    pub fn spawn_cluster(&mut self, n: usize) -> Cluster {
        let members = (0..n).map(|_| self.spawn_waldo()).collect();
        Cluster::new(members)
    }

    /// [`System::spawn_cluster`] with the multi-core ingest runtime
    /// selected: members run their kernel-free ingest on OS threads
    /// (`waldo::ClusterRuntime::Threaded`) while the coordinator
    /// keeps the single-threaded kernel. The member stores are
    /// byte-identical to a sequential cluster's for the same sweep;
    /// only wall-clock time and durability *timing* differ.
    pub fn spawn_cluster_threaded(&mut self, n: usize) -> Cluster {
        let mut cluster = self.spawn_cluster(n);
        cluster.set_runtime(waldo::ClusterRuntime::Threaded);
        cluster
    }

    /// Spawns an `n`-member cluster with each member's durable home
    /// attached at `{base_dir}/member{i}` — per-member WAL, checkpoint
    /// policy and log retention, exactly the single-daemon PR 2
    /// machinery multiplied out. Pair with [`System::restart_cluster`]
    /// at the **same member count** after a machine crash.
    pub fn spawn_cluster_durable(&mut self, n: usize, base_dir: &str) -> Cluster {
        let members = (0..n)
            .map(|i| self.spawn_waldo_durable(&format!("{base_dir}/member{i}")))
            .collect();
        Cluster::new(members)
    }

    /// Cold-starts an `n`-member cluster after a simulated machine
    /// crash: member `i` restarts from `{base_dir}/member{i}` and
    /// replays retained logs from exactly the volumes that route to
    /// it — volume→member routing is deterministic, so a restarted
    /// member finds its own replay marks and never ingests (or
    /// unlinks) another member's logs. `n` must match the member
    /// count the cluster ran at; resizing re-routes volumes away from
    /// the members holding their state.
    pub fn restart_cluster(&mut self, n: usize, base_dir: &str) -> Cluster {
        self.try_restart_cluster(n, base_dir)
            .expect("reattaching every cluster member's database directory on restart")
    }

    /// [`System::restart_cluster`], surfacing a failed member as a
    /// member-indexed [`ClusterRestartError`] instead of panicking —
    /// so an operator (or the fault harness) learns *which* durable
    /// home is missing or damaged. All-or-nothing: the survivors'
    /// restarts are discarded on failure, because a partial cluster
    /// would silently drop the failed member's routed volumes from
    /// every answer.
    pub fn try_restart_cluster(
        &mut self,
        n: usize,
        base_dir: &str,
    ) -> Result<Cluster, ClusterRestartError> {
        let mut members = Vec::with_capacity(n);
        for i in 0..n {
            let pid = self.kernel.spawn_init("waldo");
            self.pass.exempt(pid);
            let mounts: Vec<String> = self
                .volumes
                .iter()
                .filter(|(_, _, v)| route_volume(*v, n) == i)
                .map(|(p, _, _)| p.clone())
                .collect();
            let refs: Vec<&str> = mounts.iter().map(String::as_str).collect();
            let member = Waldo::restart(
                pid,
                &mut self.kernel,
                self.waldo_cfg,
                &format!("{base_dir}/member{i}"),
                &refs,
            )
            .map_err(|source| ClusterRestartError { member: i, source })?;
            members.push(member);
        }
        Ok(Cluster::new(members))
    }

    /// Answers a PQL query from `waldo`'s database through the
    /// planned, index-backed pipeline, returning the rows together
    /// with the planner statistics (index hits, rows pruned, closure
    /// calls saved). The counters also accumulate on the daemon
    /// (`Waldo::query_ops`), so long-running systems can report them
    /// alongside the ingest-side op counters.
    ///
    /// This is the top of the paper's query stack: PQL → Waldo →
    /// sharded store, with `where` predicates pushed down into the
    /// store's secondary indexes instead of scanning the volume.
    pub fn query(&self, waldo: &mut Waldo, text: &str) -> Result<pql::QueryOutput, pql::PqlError> {
        waldo.query(text)
    }

    /// Forces every PASS volume to rotate its log so Waldo can ingest
    /// all pending provenance, then returns the rotated log paths per
    /// mount, absolute.
    pub fn rotate_all_logs(&mut self) -> Vec<(MountId, Vec<String>)> {
        // Visibility barrier: land any observer-side write burst in
        // the logs before sealing them.
        self.kernel.barrier();
        let mut out = Vec::new();
        for (path, m, _) in &self.volumes {
            if let Some(d) = self.kernel.dpapi_at(*m) {
                d.force_log_rotation();
                let logs = d
                    .take_log_rotations()
                    .into_iter()
                    .map(|rel| {
                        if path == "/" {
                            format!("/{rel}")
                        } else {
                            format!("{path}/{rel}")
                        }
                    })
                    .collect();
                out.push((*m, logs));
            }
        }
        out
    }

    /// The virtual clock.
    pub fn clock(&self) -> Clock {
        self.kernel.clock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_os::syscall::OpenFlags;

    #[test]
    fn single_volume_machine_boots_and_writes() {
        let mut sys = System::single_volume();
        let pid = sys.spawn("/bin/sh");
        sys.kernel.write_file(pid, "/greeting", b"hello").unwrap();
        assert_eq!(sys.kernel.read_file(pid, "/greeting").unwrap(), b"hello");
        // Provenance was generated: the module emitted records.
        assert!(sys.pass.stats().records_emitted > 0);
    }

    #[test]
    fn baseline_machine_generates_no_provenance() {
        let mut sys = System::baseline();
        let pid = sys.spawn("/bin/sh");
        sys.kernel.write_file(pid, "/f", b"data").unwrap();
        assert_eq!(sys.pass.stats().records_emitted, 0);
        assert_eq!(sys.pass.analyzer_stats().presented, 0);
    }

    #[test]
    fn rotate_all_logs_returns_absolute_paths() {
        let mut sys = System::single_volume();
        let pid = sys.spawn("/bin/sh");
        sys.kernel.write_file(pid, "/f", b"data").unwrap();
        let rotations = sys.rotate_all_logs();
        assert_eq!(rotations.len(), 1);
        let (_, logs) = &rotations[0];
        assert_eq!(logs.len(), 1);
        assert!(logs[0].starts_with("/.pass/log."), "got {}", logs[0]);
        // The log is readable through the kernel by an exempt process.
        let waldo = sys.kernel.spawn_init("waldo");
        sys.pass.exempt(waldo);
        let bytes = sys.kernel.read_file(waldo, &logs[0]).unwrap();
        assert!(!bytes.is_empty());
    }

    #[test]
    fn durable_waldo_survives_machine_crash() {
        let mut sys = System::single_volume();
        let pid = sys.spawn("/bin/sh");
        sys.kernel.write_file(pid, "/artifact", b"bytes").unwrap();
        let (_, m, _) = sys.volumes[0];
        sys.kernel.dpapi_at(m).unwrap().force_log_rotation();
        let mut w = sys.spawn_waldo_durable("/waldo-db");
        w.poll_volume(&mut sys.kernel, m, "/");
        w.checkpoint(&mut sys.kernel).unwrap();
        let images = w.db.segment_images();
        drop(w); // machine crash: memory gone, disks survive
        let restarted = sys.restart_waldo("/waldo-db");
        assert_eq!(restarted.db.segment_images(), images);
        assert_eq!(restarted.db.find_by_name("/artifact").len(), 1);
    }

    #[test]
    fn reads_and_writes_flow_through_dpapi() {
        let mut sys = System::single_volume();
        let pid = sys.spawn("/bin/sh");
        sys.kernel.write_file(pid, "/in", b"source data").unwrap();
        let fd_in = sys.kernel.open(pid, "/in", OpenFlags::RDONLY).unwrap();
        let data = sys.kernel.read(pid, fd_in, 6).unwrap();
        sys.kernel.close(pid, fd_in).unwrap();
        let out = sys
            .kernel
            .open(pid, "/out", OpenFlags::WRONLY_CREATE)
            .unwrap();
        sys.kernel.write(pid, out, &data).unwrap();
        sys.kernel.close(pid, out).unwrap();
        // The analyzer saw both the read and write dependencies.
        let s = sys.pass.analyzer_stats();
        assert!(s.presented >= 2);
    }
}
