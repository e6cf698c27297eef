//! The four workloads, run against full `Mvedsua` sessions with tracing
//! off: set-up, the measured window, the update lifecycles, and the
//! checks that hold for every run whatever its seed.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsu::{FaultPlan, Version, VersionRegistry};
use mvedsua::{Mvedsua, MvedsuaConfig, Stage, TimelineEvent, UpdatePackage};
use servers::{memcached, redis, vsftpd};
use vos::VirtualKernel;

use crate::client::{self, ClientReport, Conn, KvShape, Proto, Shared};
use crate::util::{self, median, LatencyHist, Rng};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    KvSingle,
    KvMonitored,
    FtpBulk,
    McUpdate,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::KvSingle,
        Workload::KvMonitored,
        Workload::FtpBulk,
        Workload::McUpdate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvSingle => "kv_single",
            Workload::KvMonitored => "kv_monitored",
            Workload::FtpBulk => "ftp_bulk",
            Workload::McUpdate => "mc_update",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the measured window runs in the outdated-leader stage.
    pub fn monitored_window(self) -> bool {
        matches!(self, Workload::KvMonitored | Workload::FtpBulk)
    }
}

/// Input sizes. The README explains each choice.
pub const REDIS_PORT: u16 = 6379;
pub const REDIS_KEYS: u64 = 10_000;
pub const REDIS_VALUE_LEN: usize = 32;
pub const MC_PORT: u16 = 11211;
pub const MC_WORKERS: usize = 4;
pub const MC_KEYS: u64 = 100_000;
pub const MC_VALUE_LEN: usize = 64;
pub const MC_RING: usize = 1 << 16;
pub const FTP_PORT: u16 = 21;
pub const FTP_FILE: &str = "bench.bin";
pub const FTP_FILE_LEN: usize = 1 << 20;
/// Ring capacity of the steady workloads: the controller's default.
pub const STEADY_RING: usize = 256;
/// Set-ups per run: at least `SETUPS_MIN`, then more until `SETUP_BUDGET`
/// has passed or `SETUPS_MAX` were made; `setup_s` is their median. A
/// `ftp_bulk` set-up takes about 2 ms and five of them spread by half
/// their median between runs; `mc_update`'s take 0.5 s and stay at five.
pub const SETUPS_MIN: usize = 5;
pub const SETUPS_MAX: usize = 41;
pub const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Update lifecycles measured after the window of the steady workloads:
/// all rolled back, except that `ftp_bulk` promotes and finalizes the
/// last. A hundred: the median of 25 such pauses spread by a third
/// between identical runs. Successive pauses move together with the
/// host's speed over about half a second, so the lifecycles are spaced
/// to cover about seven seconds.
pub const PROBE_LIFECYCLES: usize = 100;
pub const PROBE_MONITOR: Duration = Duration::from_millis(50);
/// Lifecycles in `mc_update`'s window: along 1.2.2→1.2.3, then
/// 1.2.3→1.2.4, seven rolled back and the eighth promoted on each pair.
pub const MC_LIFECYCLES: usize = 16;
const WARMUP: Duration = Duration::from_millis(300);
const WAIT: Duration = Duration::from_secs(60);
const PRELOAD_BATCH: usize = 256;

/// Client connections, each a closed loop on its own thread. One: with
/// two, the clients and the variants outnumber two cores and a run's
/// throughput depended on how the scheduler happened to place them.
pub const CLIENTS: u64 = 1;

/// What a workload serves and how it updates.
pub struct ServerSpec {
    pub registry: Arc<VersionRegistry>,
    pub initial: Version,
    pub ring_capacity: usize,
    pub kv: Option<KvShape>,
}

pub fn server_spec(w: Workload) -> ServerSpec {
    match w {
        Workload::KvSingle | Workload::KvMonitored => ServerSpec {
            registry: redis::registry(&redis::RedisOptions::new(REDIS_PORT)),
            initial: dsu::v("2.0.0"),
            ring_capacity: STEADY_RING,
            kv: Some(KvShape {
                proto: Proto::Redis,
                port: REDIS_PORT,
                keys: REDIS_KEYS,
                value_len: REDIS_VALUE_LEN,
            }),
        },
        Workload::FtpBulk => ServerSpec {
            registry: vsftpd::registry(FTP_PORT),
            initial: dsu::v("2.0.5"),
            ring_capacity: STEADY_RING,
            kv: None,
        },
        Workload::McUpdate => ServerSpec {
            registry: memcached::registry(MC_PORT, MC_WORKERS),
            initial: dsu::v("1.2.2"),
            ring_capacity: MC_RING,
            kv: Some(KvShape {
                proto: Proto::Memcached,
                port: MC_PORT,
                keys: MC_KEYS,
                value_len: MC_VALUE_LEN,
            }),
        },
    }
}

/// The package taking `from` to `to`, with the server's real rules.
pub fn package(w: Workload, from: &Version, to: &Version) -> UpdatePackage {
    match w {
        Workload::KvSingle | Workload::KvMonitored => redis::update_package(from, to),
        Workload::FtpBulk => vsftpd::update_package(from, to),
        Workload::McUpdate => memcached::update_package(to, FaultPlan::none()),
    }
}

/// The next version along the workload's chain.
pub fn next_version(w: Workload, from: &Version) -> Version {
    let next = match (w, from.to_string().as_str()) {
        (Workload::KvSingle | Workload::KvMonitored, "2.0.0") => "2.0.1",
        (Workload::FtpBulk, "2.0.5") => "2.0.6",
        (Workload::McUpdate, "1.2.2") => "1.2.3",
        (Workload::McUpdate, "1.2.3") => "1.2.4",
        (w, v) => panic!("{} has no update after {v}", w.name()),
    };
    dsu::v(next)
}

/// The update a lifecycle under load makes. Redis runs its real
/// 2.0.0→2.0.1 state transformation (every entry revalidated) as a
/// same-version update, so without rewrite rules: with them, repeated
/// under load, the follower of about one lifecycle in a thousand
/// diverged (see CHANGES.md). The real update with its rule runs in
/// every `kv_monitored` set-up and carries that workload's window.
pub fn lifecycle_update(w: Workload, from: &Version) -> (Version, UpdatePackage) {
    match w {
        Workload::KvSingle | Workload::KvMonitored => (
            from.clone(),
            UpdatePackage::new(from.clone()).with_transformer(redis::transformer_200_to_201()),
        ),
        _ => {
            let to = next_version(w, from);
            let pkg = package(w, from, &to);
            (to, pkg)
        }
    }
}

/// The seeded initial contents: one model per client connection, each
/// owning the keys `k` with `k % clients == index`.
pub fn initial_models(shape: &KvShape, seed: u64, clients: u64) -> Vec<Vec<(u64, Vec<u8>)>> {
    let mut rng = Rng::new(seed, 1);
    let mut models = vec![Vec::new(); clients as usize];
    for key in 0..shape.keys {
        let value = client::make_value(&mut rng, key, 0, shape.value_len);
        models[(key % clients) as usize].push((key, value));
    }
    models
}

/// The seeded file `ftp_bulk` downloads.
pub fn seeded_file(seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed, 2);
    let mut file = Vec::with_capacity(FTP_FILE_LEN);
    while file.len() < FTP_FILE_LEN {
        file.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    file.truncate(FTP_FILE_LEN);
    file
}

/// Writes the workload's inputs into a fresh kernel: the keyspace
/// through the protocol, the file through the kernel's file system (the
/// FTP server has no upload command).
pub fn preload(
    kernel: &Arc<VirtualKernel>,
    kv: Option<&KvShape>,
    models: &[Vec<(u64, Vec<u8>)>],
    file: &[u8],
) -> Result<(), String> {
    let Some(shape) = kv else {
        return kernel
            .fs()
            .write_file(&format!("/{FTP_FILE}"), file)
            .map_err(|e| format!("write file: {e:?}"));
    };
    let mut conn = Conn::connect(kernel, shape.port).map_err(|e| e.to_string())?;
    for model in models {
        client::bulk_set(&mut conn, shape.proto, model, PRELOAD_BATCH)
            .map_err(|e| format!("preload: {e}"))?;
    }
    conn.close();
    Ok(())
}

/// A launched, loaded session.
pub struct Rig {
    pub session: Mvedsua,
    pub kernel: Arc<VirtualKernel>,
    /// When the kernel clock read zero, to place timeline entries on the
    /// client's clock.
    pub kernel_boot: Instant,
}

impl Rig {
    pub fn at(&self, at_nanos: u64) -> Instant {
        self.kernel_boot + Duration::from_nanos(at_nanos)
    }
}

/// Set-up: launch, preload and, for the monitored workloads, the update
/// into the outdated-leader stage, up to `UpdateCompleted`.
pub fn setup(w: Workload, models: &[Vec<(u64, Vec<u8>)>], file: &[u8]) -> Result<Rig, String> {
    let spec = server_spec(w);
    let kernel = VirtualKernel::new();
    let kernel_boot = Instant::now() - Duration::from_nanos(kernel.now_nanos());
    if spec.kv.is_none() {
        preload(&kernel, None, models, file)?;
    }
    let session = Mvedsua::launch(
        kernel.clone(),
        spec.registry.clone(),
        spec.initial.clone(),
        MvedsuaConfig {
            ring_capacity: spec.ring_capacity,
            ..MvedsuaConfig::default()
        },
    )
    .map_err(|e| format!("launch: {e}"))?;
    let rig = Rig {
        session,
        kernel,
        kernel_boot,
    };
    if spec.kv.is_some() {
        preload(&rig.kernel, spec.kv.as_ref(), models, file)?;
    }
    if w.monitored_window() {
        let to = next_version(w, &spec.initial);
        let base = rig.session.timeline().len();
        rig.session
            .request_update(package(w, &spec.initial, &to))
            .map_err(|e| format!("request_update: {e}"))?;
        // An idle server forks only when its 10 ms poll times out; a
        // connection wakes it, as the first client of a live one would.
        let port = spec.kv.map_or(FTP_PORT, |s| s.port);
        Conn::connect(&rig.kernel, port)
            .map_err(|e| format!("connect: {e}"))?
            .close();
        wait_event(&rig, base, |e| {
            matches!(e, TimelineEvent::UpdateCompleted { .. })
        })?;
    }
    Ok(rig)
}

fn wait_event(
    rig: &Rig,
    base: usize,
    want: impl Fn(&TimelineEvent) -> bool,
) -> Result<u64, String> {
    wait_event_for(rig, base, WAIT, want)
}

/// Waits up to `timeout` for the first entry after `base` matching
/// `want`; an update failure, divergence, crash or rollback first is an
/// error.
pub fn wait_event_for(
    rig: &Rig,
    base: usize,
    timeout: Duration,
    want: impl Fn(&TimelineEvent) -> bool,
) -> Result<u64, String> {
    let timeline = rig.session.timeline();
    let mut found = None;
    let mut bad = None;
    timeline.wait_for(timeout, |entries| {
        for e in &entries[base..] {
            if want(&e.event) {
                found = Some(e.at_nanos);
                return true;
            }
            if matches!(
                e.event,
                TimelineEvent::UpdateFailed { .. }
                    | TimelineEvent::UpdateAbandoned
                    | TimelineEvent::Diverged { .. }
                    | TimelineEvent::Crashed { .. }
                    | TimelineEvent::RolledBack
            ) {
                bad = Some(format!("{:?}", e.event));
                return true;
            }
        }
        false
    });
    match (found, bad) {
        (Some(at), _) => Ok(at),
        (None, Some(b)) => Err(format!("update lifecycle hit {b}")),
        (None, None) => Err("timed out waiting for the update lifecycle".into()),
    }
}

/// How an update lifecycle ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ending {
    Rollback,
    PromoteFinalize,
}

/// What one update lifecycle measured.
#[derive(Clone, Debug, Default)]
pub struct Lifecycle {
    pub id: u64,
    /// `UpdateCompleted` on the client clock (ns since the shared epoch).
    pub completed_at: u64,
    pub apply_ms: f64,
    pub request_us: f64,
    pub fork_wait_ms: f64,
    pub forked_to_ready_ms: f64,
    pub snapshot_reported_ms: f64,
    pub rollback_ms: Option<f64>,
    pub promote_ms: Option<f64>,
    pub finalize_ms: Option<f64>,
    pub ring: ring::RingStats,
    pub ops: u64,
}

/// Drives one update lifecycle under load: request, wait for the fork
/// and the transformation, monitor until `until`, check that the
/// follower consumed every record the leader had published, then end it
/// as the operator chooses and check the version that then leads.
#[allow(clippy::too_many_arguments)]
fn lifecycle(
    w: Workload,
    rig: &Rig,
    shared: &Shared,
    clients: &Clients,
    id: u64,
    until: Instant,
    ending: Ending,
) -> Result<Lifecycle, String> {
    let session = &rig.session;
    let from = session.active_version();
    let (to, pkg) = lifecycle_update(w, &from);
    let base = session.timeline().len();
    let ops_before = clients.ops();
    shared.open_lifecycle(id);
    let begin = Instant::now();
    session
        .request_update(pkg)
        .map_err(|e| format!("request_update: {e}"))?;
    let request_us = begin.elapsed().as_secs_f64() * 1e6;
    let forked = wait_event(rig, base, |e| matches!(e, TimelineEvent::Forked { .. }))?;
    let done = wait_event(rig, base, |e| {
        matches!(e, TimelineEvent::UpdateCompleted { .. })
    })?;
    let snapshot_nanos = session
        .timeline()
        .entries()
        .iter()
        .skip(base)
        .find_map(|e| match e.event {
            TimelineEvent::Forked { snapshot_nanos } => Some(snapshot_nanos),
            _ => None,
        })
        .unwrap_or(0);
    let completed = rig.at(done);
    let completed_at = completed.saturating_duration_since(shared.epoch).as_nanos() as u64;
    let mut lc = Lifecycle {
        id,
        completed_at,
        apply_ms: completed.saturating_duration_since(begin).as_secs_f64() * 1e3,
        request_us,
        fork_wait_ms: rig
            .at(forked)
            .saturating_duration_since(begin)
            .as_secs_f64()
            * 1e3,
        forked_to_ready_ms: (done.saturating_sub(forked)) as f64 / 1e6,
        snapshot_reported_ms: snapshot_nanos as f64 / 1e6,
        ..Lifecycle::default()
    };
    if let Some(rest) = until.checked_duration_since(Instant::now()) {
        std::thread::sleep(rest);
    }
    lc.ring = drain_check(rig)?;
    lc.ops = clients.ops() - ops_before;
    let ended = session.timeline().len();
    let expect = match ending {
        Ending::Rollback => {
            let begin = Instant::now();
            session.rollback().map_err(|e| format!("rollback: {e}"))?;
            if !session.timeline().wait_for_stage(Stage::SingleLeader, WAIT) {
                return Err("rollback did not reach the single-leader stage".into());
            }
            lc.rollback_ms = Some(begin.elapsed().as_secs_f64() * 1e3);
            from
        }
        Ending::PromoteFinalize => {
            let begin = Instant::now();
            session.promote().map_err(|e| format!("promote: {e}"))?;
            if !session
                .timeline()
                .wait_for_stage(Stage::UpdatedLeader, WAIT)
            {
                return Err("promotion did not reach the updated-leader stage".into());
            }
            lc.promote_ms = Some(begin.elapsed().as_secs_f64() * 1e3);
            let begin = Instant::now();
            session.finalize().map_err(|e| format!("finalize: {e}"))?;
            if !session.timeline().wait_for_stage(Stage::SingleLeader, WAIT) {
                return Err("finalize did not reach the single-leader stage".into());
            }
            lc.finalize_ms = Some(begin.elapsed().as_secs_f64() * 1e3);
            to
        }
    };
    // The next lifecycle starts once the variant left behind has exited
    // and dropped its copy of the state.
    let retired = session.timeline().wait_for(WAIT, |entries| {
        entries[ended..]
            .iter()
            .any(|e| matches!(e.event, TimelineEvent::Retired { .. }))
    });
    if !retired {
        return Err(format!("the variant ended by lifecycle {id} never retired"));
    }
    shared.close_lifecycle();
    let active = session.active_version();
    if active != expect {
        return Err(format!(
            "after lifecycle {id} version {active} leads, expected {expect}"
        ));
    }
    Ok(lc)
}

/// The follower must consume every record the leader published up to
/// now: `popped` catches up with the `pushed` read here.
fn drain_check(rig: &Rig) -> Result<ring::RingStats, String> {
    let first = rig
        .session
        .update_ring_stats()
        .ok_or("no update is being monitored")?;
    let until = Instant::now() + Duration::from_secs(20);
    loop {
        let now = rig
            .session
            .update_ring_stats()
            .ok_or("the update ended early")?;
        if now.popped >= first.pushed {
            return Ok(first);
        }
        if Instant::now() > until {
            return Err(format!(
                "the follower consumed {} of the {} records the leader published",
                now.popped, first.pushed
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Everything a run on a session measured.
#[derive(Default)]
pub struct SessionRun {
    pub setup_s: f64,
    pub window_ops: u64,
    /// Per block of the window: (operations per second, bytes per second).
    pub blocks: Vec<(f64, f64)>,
    pub p50_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
    pub lifecycles: Vec<Lifecycle>,
    pub pauses_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub peak_rss_mib: f64,
    pub window_cpu_us: f64,
    pub window_intercepted: f64,
    pub window_ring: Option<(ring::RingStats, ring::RingStats)>,
    pub rss_growth_mib_per_update: f64,
}

impl SessionRun {
    /// Verified operations per second: the median over the window's
    /// blocks of consecutive operations.
    pub fn throughput(&self) -> f64 {
        median(&self.blocks.iter().map(|b| b.0).collect::<Vec<_>>())
    }

    /// Verified payload MiB per second, the median over blocks.
    pub fn goodput_mib_s(&self) -> f64 {
        median(&self.blocks.iter().map(|b| b.1).collect::<Vec<_>>()) / (1024.0 * 1024.0)
    }
}

/// The running load clients of one run.
pub struct Clients {
    handles: Vec<std::thread::JoinHandle<ClientReport>>,
    pub counters: Arc<Vec<client::OpCounter>>,
}

impl Clients {
    /// Operations completed so far.
    pub fn ops(&self) -> u64 {
        self.counters.iter().map(|c| c.get()).sum()
    }

    /// Summed client-call time so far (traced clients only).
    pub fn timing(&self) -> client::ClientTiming {
        self.counters
            .iter()
            .map(|c| c.timing())
            .fold(client::ClientTiming::default(), |a, b| {
                client::ClientTiming {
                    send_ns: a.send_ns + b.send_ns,
                    recv_wait_ns: a.recv_wait_ns + b.recv_wait_ns,
                }
            })
    }

    /// Waits for every client; `shared.stop` must be set first.
    pub fn join(self) -> Vec<ClientReport> {
        self.handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    }
}

/// Starts the workload's closed-loop clients against `kernel`.
pub fn start_clients(
    kernel: &Arc<VirtualKernel>,
    spec: &ServerSpec,
    seed: u64,
    models: &[Vec<(u64, Vec<u8>)>],
    file: &Arc<Vec<u8>>,
    shared: &Arc<Shared>,
) -> Clients {
    let n = if spec.kv.is_some() { models.len() } else { 1 };
    let counters: Arc<Vec<client::OpCounter>> =
        Arc::new((0..n).map(|_| client::OpCounter::default()).collect());
    let handles = (0..n)
        .map(|i| {
            let kernel = kernel.clone();
            let shared = shared.clone();
            let counters = counters.clone();
            let model = models.get(i).cloned().unwrap_or_default();
            let file = file.clone();
            let kv = spec.kv;
            std::thread::Builder::new()
                .name(format!("client-{i}"))
                .spawn(move || match kv {
                    Some(shape) => client::kv_client(
                        kernel,
                        shape,
                        shared,
                        Rng::new(seed, 100 + i as u64),
                        model,
                        &counters[i],
                    ),
                    None => client::ftp_client(
                        kernel,
                        FTP_PORT,
                        shared,
                        FTP_FILE.to_string(),
                        file,
                        &counters[i],
                    ),
                })
                .expect("spawn client")
        })
        .collect();
    Clients { handles, counters }
}

/// Runs workload `w` with a measured window of `window`.
pub fn run(w: Workload, seed: u64, window: Duration) -> SessionRun {
    let mut out = SessionRun::default();
    if let Err(e) = run_inner(w, seed, window, &mut out) {
        out.errors.push(e);
    }
    out
}

fn run_inner(w: Workload, seed: u64, window: Duration, out: &mut SessionRun) -> Result<(), String> {
    let spec = server_spec(w);
    let models = spec
        .kv
        .as_ref()
        .map(|s| initial_models(s, seed, CLIENTS))
        .unwrap_or_default();
    let file = Arc::new(if spec.kv.is_none() {
        seeded_file(seed)
    } else {
        Vec::new()
    });

    let mut setups = Vec::new();
    let mut rig: Option<Rig> = None;
    let first = Instant::now();
    while setups.len() < SETUPS_MIN
        || (setups.len() < SETUPS_MAX && first.elapsed() < SETUP_BUDGET)
    {
        let begin = Instant::now();
        let fresh = setup(w, &models, &file)?;
        setups.push(begin.elapsed().as_secs_f64());
        if let Some(old) = rig.replace(fresh) {
            old.session.shutdown();
        }
    }
    out.setup_s = median(&setups);
    let rig = rig.expect("at least one set-up");

    let shared = Shared::new(false);
    let clients = start_clients(&rig.kernel, &spec, seed, &models, &file, &shared);
    let result = drive(w, &rig, &shared, &clients, window, out);
    shared.stop.store(true, Ordering::SeqCst);
    let mut reports = clients.join();
    for r in &mut reports {
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.errors.append(&mut r.wrong);
    }
    result?;

    // Whatever ran, the whole keyspace (or the file) must read back as
    // the model says.
    let mut check = Conn::connect(&rig.kernel, spec.kv.map_or(FTP_PORT, |s| s.port))
        .map_err(|e| format!("final check: {e}"))?;
    match spec.kv {
        Some(shape) => {
            for r in &reports {
                out.attempted += client::bulk_check(&mut check, shape.proto, &r.model, 256)
                    .map_err(|e| format!("final read-back: {e}"))?;
            }
        }
        None => {
            client::ftp_login(&mut check).map_err(|e| format!("final download: {e}"))?;
            client::ftp_download(&mut check, FTP_FILE, &file)
                .map_err(|e| format!("final download: {e}"))?;
            out.attempted += 1;
        }
    }
    check.close();

    let report = rig.session.shutdown();
    let requested_rollbacks = out
        .lifecycles
        .iter()
        .filter(|l| l.rollback_ms.is_some())
        .count()
        + usize::from(w.monitored_window());
    let mut rollbacks = 0;
    for e in &report.entries {
        match &e.event {
            TimelineEvent::RolledBack => rollbacks += 1,
            TimelineEvent::Diverged { .. }
            | TimelineEvent::Crashed { .. }
            | TimelineEvent::UpdateFailed { .. }
            | TimelineEvent::UpdateAbandoned => out
                .errors
                .push(format!("unrequested timeline event {:?}", e.event)),
            _ => {}
        }
    }
    if rollbacks != requested_rollbacks {
        out.errors.push(format!(
            "{rollbacks} rollbacks on the timeline, {requested_rollbacks} requested"
        ));
    }

    let mut hist = LatencyHist::new();
    for r in &reports {
        hist.merge(&r.window);
        out.blocks.extend(r.blocks.iter().map(|(nanos, bytes)| {
            let secs = *nanos as f64 / 1e9;
            (r.block_ops as f64 / secs, *bytes as f64 / secs)
        }));
    }
    out.window_ops = hist.count();
    out.p50_us = hist.quantile(0.5) as f64 / 1e3;
    out.p99_us = hist.quantile(0.99) as f64 / 1e3;
    out.max_us = hist.max() as f64 / 1e3;
    for lc in &out.lifecycles {
        let longest = reports
            .iter()
            .filter_map(|r| {
                r.lifecycle_ops
                    .iter()
                    .filter(|(id, start, _)| *id == lc.id && *start <= lc.completed_at)
                    .map(|(_, _, dur)| *dur)
                    .max()
            })
            .max()
            .unwrap_or(0);
        out.pauses_ms.push(longest as f64 / 1e6);
    }
    out.peak_rss_mib = util::peak_rss_mib();
    Ok(())
}

/// The measured part: warm-up, window, and the update lifecycles.
fn drive(
    w: Workload,
    rig: &Rig,
    shared: &Shared,
    clients: &Clients,
    window: Duration,
    out: &mut SessionRun,
) -> Result<(), String> {
    std::thread::sleep(WARMUP);
    let intercepted = || rig.session.metrics().counter("syscalls.total");
    let (cpu0, int0, ring0) = (
        util::cpu_us(),
        intercepted(),
        rig.session.update_ring_stats(),
    );
    let mut rss0 = util::rss_mib();
    let begin = Instant::now();
    shared.in_window.store(true, Ordering::SeqCst);
    if w == Workload::McUpdate {
        let per = window / MC_LIFECYCLES as u32;
        for i in 0..MC_LIFECYCLES {
            let ending = if i % (MC_LIFECYCLES / 2) == MC_LIFECYCLES / 2 - 1 {
                Ending::PromoteFinalize
            } else {
                Ending::Rollback
            };
            let until = begin + per * (i as u32 + 1);
            out.lifecycles
                .push(lifecycle(w, rig, shared, clients, i as u64, until, ending)?);
        }
    } else {
        std::thread::sleep(window);
    }
    shared.in_window.store(false, Ordering::SeqCst);
    out.window_cpu_us = util::cpu_us() - cpu0;
    out.window_intercepted = (intercepted() - int0) as f64;
    if let Some(r0) = ring0 {
        let r1 = rig
            .session
            .update_ring_stats()
            .ok_or("the monitored update ended")?;
        out.window_ring = Some((r0, r1));
    }
    if w != Workload::McUpdate {
        if w.monitored_window() {
            // The set-up's update ends the way the probes' do.
            drain_check(rig)?;
            rig.session
                .rollback()
                .map_err(|e| format!("rollback: {e}"))?;
        }
        rss0 = util::rss_mib();
        for i in 0..PROBE_LIFECYCLES {
            // Redis is not promoted: its updated-leader stage once
            // diverged at the promotion boundary (see CHANGES.md).
            let ending = if i + 1 == PROBE_LIFECYCLES && w == Workload::FtpBulk {
                Ending::PromoteFinalize
            } else {
                Ending::Rollback
            };
            let until = Instant::now() + PROBE_MONITOR;
            out.lifecycles
                .push(lifecycle(w, rig, shared, clients, i as u64, until, ending)?);
        }
    }
    out.rss_growth_mib_per_update = (util::rss_mib() - rss0) / out.lifecycles.len() as f64;
    Ok(())
}
