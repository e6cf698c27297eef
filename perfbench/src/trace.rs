//! The traced run: per-layer figures.
//!
//! `Mvedsua` builds each variant's `VariantOs` inside the controller, so
//! the traced run assembles the same pieces itself, as the controller
//! does: the leader boots in a single-role `VariantOs`, and at a
//! quiescent step boundary it snapshots, allocates the ring, attaches it,
//! and hands the snapshot to a follower thread that transforms, resumes
//! the new version and replays the leader's records through the
//! package's forward rules. Each variant's OS is wrapped in [`TracedOs`],
//! which times every call into `vos::Os`. The standalone layer calls
//! (snapshot, transform, resume, ring allocation, the rule engine) are
//! timed where they are made. The timers stay in memory and are read
//! out when the run ends.
//!
//! A traced run first runs the workload on a real session with tracing
//! off for half of its window (the lifecycle, ring and process figures,
//! and the untraced throughput `trace.overhead_pct` compares against),
//! then the traced pair: a quarter of the window with the leader alone,
//! a quarter with the follower attached.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dsl::{Builtins, RuleSet};
use dsu::{DsuApp, StateTransformer, StepOutcome, Version, VersionRegistry};
use mve::{
    EventRecord, EventRing, FollowerConfig, LeaderConfig, RetireReason, RetiredSignal, VariantOs,
};
use vos::{Buf, CtlOp, Fd, FileStat, OpenMode, Os, OsResult, SysRet, Syscall, VirtualKernel};

use crate::client::Shared;
use crate::session::{self, SessionRun, Workload};
use crate::util::{median, Metric};

/// Running totals of one variant's OS calls and steps.
#[derive(Default)]
pub struct OsTimers {
    calls: AtomicU64,
    /// Time in calls other than `epoll_wait`, which blocks while no
    /// request is ready.
    os_ns: AtomicU64,
    wait_ns: AtomicU64,
    bytes: AtomicU64,
    step_ns: AtomicU64,
    /// The variant's epoll instance (raw fd + 1; 0 before it exists).
    epoll: AtomicU64,
}

#[derive(Clone, Copy, Default)]
struct TimerSample {
    calls: u64,
    os_ns: u64,
    wait_ns: u64,
    bytes: u64,
    step_ns: u64,
}

impl OsTimers {
    fn sample(&self) -> TimerSample {
        TimerSample {
            calls: self.calls.load(Ordering::Relaxed),
            os_ns: self.os_ns.load(Ordering::Relaxed),
            wait_ns: self.wait_ns.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            step_ns: self.step_ns.load(Ordering::Relaxed),
        }
    }
}

/// The leader's recorded `(call, result)` stream, for the rule engine.
struct Recorder {
    on: AtomicBool,
    events: Mutex<Vec<(Syscall, SysRet)>>,
}

const RECORD_EVENTS: usize = 50_000;

/// A timing adapter around a variant's OS.
pub struct TracedOs {
    inner: VariantOs,
    timers: Arc<OsTimers>,
    recorder: Option<Arc<Recorder>>,
}

fn ret_of<T>(r: &OsResult<T>, ok: impl FnOnce(&T) -> SysRet) -> SysRet {
    match r {
        Ok(v) => ok(v),
        Err(e) => SysRet::Err(*e),
    }
}

impl TracedOs {
    fn new(inner: VariantOs, timers: Arc<OsTimers>, recorder: Option<Arc<Recorder>>) -> Self {
        TracedOs {
            inner,
            timers,
            recorder,
        }
    }

    fn done(&self, begin: Instant, bytes: usize) {
        self.timers
            .os_ns
            .fetch_add(begin.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.timers.calls.fetch_add(1, Ordering::Relaxed);
        if bytes > 0 {
            self.timers.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }

    fn record(&self, event: impl FnOnce() -> (Syscall, SysRet)) {
        if let Some(rec) = self
            .recorder
            .as_ref()
            .filter(|r| r.on.load(Ordering::Relaxed))
        {
            let mut events = rec.events.lock().expect("recorder lock");
            if events.len() < RECORD_EVENTS {
                events.push(event());
            } else {
                rec.on.store(false, Ordering::Relaxed);
            }
        }
    }
}

impl Os for TracedOs {
    fn listen(&mut self, port: u16) -> OsResult<Fd> {
        let t = Instant::now();
        let r = self.inner.listen(port);
        self.done(t, 0);
        self.record(|| (Syscall::Listen { port }, ret_of(&r, |f| SysRet::Fd(*f))));
        r
    }

    fn accept(&mut self, listener: Fd) -> OsResult<Fd> {
        let t = Instant::now();
        let r = self.inner.accept(listener);
        self.done(t, 0);
        self.record(|| (Syscall::Accept { listener }, ret_of(&r, |f| SysRet::Fd(*f))));
        r
    }

    fn read(&mut self, fd: Fd, max: usize) -> OsResult<Buf> {
        let t = Instant::now();
        let r = self.inner.read(fd, max);
        self.done(t, r.as_ref().map_or(0, |b| b.len()));
        self.record(|| {
            (
                Syscall::Read { fd, max },
                ret_of(&r, |b| SysRet::Data(b.clone())),
            )
        });
        r
    }

    fn read_timeout(&mut self, fd: Fd, max: usize, timeout_ms: u64) -> OsResult<Buf> {
        let t = Instant::now();
        let r = self.inner.read_timeout(fd, max, timeout_ms);
        self.done(t, r.as_ref().map_or(0, |b| b.len()));
        self.record(|| {
            (
                Syscall::ReadTimeout {
                    fd,
                    max,
                    timeout_ms,
                },
                ret_of(&r, |b| SysRet::Data(b.clone())),
            )
        });
        r
    }

    fn write(&mut self, fd: Fd, data: &[u8]) -> OsResult<usize> {
        let t = Instant::now();
        let r = self.inner.write(fd, data);
        self.done(t, *r.as_ref().unwrap_or(&0));
        self.record(|| {
            (
                Syscall::Write {
                    fd,
                    data: Buf::copy_from_slice(data),
                },
                ret_of(&r, |n| SysRet::Size(*n)),
            )
        });
        r
    }

    fn write_buf(&mut self, fd: Fd, data: Buf) -> OsResult<usize> {
        let t = Instant::now();
        let kept = self
            .recorder
            .as_ref()
            .filter(|r| r.on.load(Ordering::Relaxed))
            .map(|_| data.clone());
        let r = self.inner.write_buf(fd, data);
        self.done(t, *r.as_ref().unwrap_or(&0));
        if let Some(data) = kept {
            self.record(|| {
                (
                    Syscall::Write { fd, data },
                    ret_of(&r, |n| SysRet::Size(*n)),
                )
            });
        }
        r
    }

    fn close(&mut self, fd: Fd) -> OsResult<()> {
        let t = Instant::now();
        let r = self.inner.close(fd);
        self.done(t, 0);
        self.record(|| (Syscall::Close { fd }, ret_of(&r, |_| SysRet::Unit)));
        r
    }

    fn epoll_create(&mut self) -> OsResult<Fd> {
        let t = Instant::now();
        let r = self.inner.epoll_create();
        self.done(t, 0);
        if let Ok(ep) = &r {
            self.timers.epoll.store(ep.as_raw() + 1, Ordering::Relaxed);
        }
        self.record(|| (Syscall::EpollCreate, ret_of(&r, |f| SysRet::Fd(*f))));
        r
    }

    fn epoll_ctl(&mut self, ep: Fd, op: CtlOp, fd: Fd) -> OsResult<()> {
        let t = Instant::now();
        let r = self.inner.epoll_ctl(ep, op, fd);
        self.done(t, 0);
        self.record(|| {
            (
                Syscall::EpollCtl { ep, op, fd },
                ret_of(&r, |_| SysRet::Unit),
            )
        });
        r
    }

    fn epoll_wait(&mut self, ep: Fd, max: usize, timeout_ms: u64) -> OsResult<Vec<Fd>> {
        let t = Instant::now();
        let r = self.inner.epoll_wait(ep, max, timeout_ms);
        self.timers
            .wait_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.timers.calls.fetch_add(1, Ordering::Relaxed);
        self.record(|| {
            (
                Syscall::EpollWait {
                    ep,
                    max,
                    timeout_ms,
                },
                ret_of(&r, |fds| SysRet::Fds(fds.clone())),
            )
        });
        r
    }

    fn fs_open(&mut self, path: &str, mode: OpenMode) -> OsResult<Fd> {
        let t = Instant::now();
        let r = self.inner.fs_open(path, mode);
        self.done(t, 0);
        self.record(|| {
            (
                Syscall::FsOpen {
                    path: path.to_string(),
                    mode,
                },
                ret_of(&r, |f| SysRet::Fd(*f)),
            )
        });
        r
    }

    fn fs_unlink(&mut self, path: &str) -> OsResult<()> {
        let t = Instant::now();
        let r = self.inner.fs_unlink(path);
        self.done(t, 0);
        self.record(|| {
            (
                Syscall::FsUnlink {
                    path: path.to_string(),
                },
                ret_of(&r, |_| SysRet::Unit),
            )
        });
        r
    }

    fn fs_stat(&mut self, path: &str) -> OsResult<FileStat> {
        let t = Instant::now();
        let r = self.inner.fs_stat(path);
        self.done(t, 0);
        self.record(|| {
            (
                Syscall::FsStat {
                    path: path.to_string(),
                },
                ret_of(&r, |s| SysRet::Stat(*s)),
            )
        });
        r
    }

    fn fs_list(&mut self, path: &str) -> OsResult<Vec<String>> {
        let t = Instant::now();
        let r = self.inner.fs_list(path);
        self.done(t, 0);
        self.record(|| {
            (
                Syscall::FsList {
                    path: path.to_string(),
                },
                ret_of(&r, |n| SysRet::Names(n.clone())),
            )
        });
        r
    }

    fn fs_mkdir(&mut self, path: &str) -> OsResult<()> {
        let t = Instant::now();
        let r = self.inner.fs_mkdir(path);
        self.done(t, 0);
        self.record(|| {
            (
                Syscall::FsMkdir {
                    path: path.to_string(),
                },
                ret_of(&r, |_| SysRet::Unit),
            )
        });
        r
    }

    fn fs_rename(&mut self, from: &str, to: &str) -> OsResult<()> {
        let t = Instant::now();
        let r = self.inner.fs_rename(from, to);
        self.done(t, 0);
        self.record(|| {
            (
                Syscall::FsRename {
                    from: from.to_string(),
                    to: to.to_string(),
                },
                ret_of(&r, |_| SysRet::Unit),
            )
        });
        r
    }

    fn now(&mut self) -> u64 {
        let t = Instant::now();
        let r = self.inner.now();
        self.done(t, 0);
        self.record(|| (Syscall::Now, SysRet::Time(r)));
        r
    }

    fn pid(&mut self) -> u32 {
        let t = Instant::now();
        let r = self.inner.pid();
        self.done(t, 0);
        self.record(|| (Syscall::Pid, SysRet::Pid(r)));
        r
    }
}

/// What the leader thread does at its next quiescent step boundary.
struct ForkPlan {
    to: Version,
    transformer: Arc<dyn StateTransformer>,
    registry: Arc<VersionRegistry>,
    rules: Arc<RuleSet>,
    builtins: Arc<Builtins>,
    ring_capacity: usize,
    follower_timers: Arc<OsTimers>,
    stop: Arc<AtomicBool>,
    ready: mpsc::Sender<Result<ForkTimes, String>>,
}

/// The fork-path calls, timed where the controller makes them.
#[derive(Default)]
struct ForkTimes {
    snapshot_ns: u64,
    alloc_ns: u64,
    xform_ns: u64,
    resume_ns: u64,
}

/// The follower thread: `Err` when it crashed or diverged.
type Follower = std::thread::JoinHandle<Result<(), String>>;

/// The leader's step loop: honours one fork request at a quiescent
/// boundary, as the controller's runner does.
fn leader_loop(
    mut app: Box<dyn DsuApp>,
    mut os: TracedOs,
    stop: Arc<AtomicBool>,
    fork: Arc<Mutex<Option<ForkPlan>>>,
) -> Option<(EventRing, Follower)> {
    let mut pair = None;
    let timers = os.timers.clone();
    while !stop.load(Ordering::Relaxed) {
        if pair.is_none() && app.quiescent() {
            if let Some(plan) = fork.lock().expect("fork lock").take() {
                pair = Some(fork_follower(&mut app, &mut os, plan));
            }
        }
        let begin = Instant::now();
        let outcome = app.step(&mut os);
        timers
            .step_ns
            .fetch_add(begin.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let StepOutcome::Shutdown = outcome {
            break;
        }
    }
    pair
}

fn fork_follower(
    app: &mut Box<dyn DsuApp>,
    os: &mut TracedOs,
    plan: ForkPlan,
) -> (EventRing, Follower) {
    let mut times = ForkTimes::default();
    let begin = Instant::now();
    let snapshot = app.snapshot();
    times.snapshot_ns = begin.elapsed().as_nanos() as u64;
    app.reset_ephemeral();
    let begin = Instant::now();
    let ring: EventRing = Arc::new(ring::Ring::with_capacity(plan.ring_capacity));
    times.alloc_ns = begin.elapsed().as_nanos() as u64;
    let follower_os = VariantOs::follower(
        1,
        os.inner.kernel().clone(),
        FollowerConfig {
            ring: ring.clone(),
            rules: plan.rules.clone(),
            builtins: plan.builtins.clone(),
            promote_to: None,
            lag: None,
        },
        None,
    );
    os.inner.attach_follower(LeaderConfig {
        ring: ring.clone(),
        lockstep: None,
    });
    let failure_ring = ring.clone();
    let handle = std::thread::Builder::new()
        .name("traced-follower".into())
        .spawn(move || {
            let begin = Instant::now();
            let transformed = plan.transformer.transform(snapshot);
            times.xform_ns = begin.elapsed().as_nanos() as u64;
            let begin = Instant::now();
            let resumed = transformed.and_then(|s| plan.registry.resume(&plan.to, s));
            times.resume_ns = begin.elapsed().as_nanos() as u64;
            let mut app = match resumed {
                Ok(app) => app,
                Err(e) => {
                    let _ = plan.ready.send(Err(format!("traced update: {e}")));
                    return Ok(());
                }
            };
            let _ = plan.ready.send(Ok(times));
            let mut os = TracedOs::new(follower_os, plan.follower_timers, None);
            let run = catch_unwind(AssertUnwindSafe(|| {
                while !plan.stop.load(Ordering::Relaxed) {
                    if let StepOutcome::Shutdown = app.step(&mut os) {
                        break;
                    }
                }
            }));
            let Err(payload) = run else { return Ok(()) };
            let failure = match RetiredSignal::from_payload(&*payload) {
                Some(RetiredSignal(RetireReason::Terminated)) => return Ok(()),
                Some(RetiredSignal(RetireReason::Diverged(d))) => format!("diverged: {d}"),
                None => format!("crashed: {}", dsu::panic_message(&*payload)),
            };
            // Poisoning the ring reverts the leader to single mode, so
            // it does not wait on a ring nobody drains.
            failure_ring.poison();
            Err(format!("traced follower {failure}"))
        })
        .expect("spawn traced follower");
    (ring, handle)
}

/// Readings at one instant of the traced pair.
#[derive(Clone, Copy, Default)]
struct Sample {
    at: Option<Instant>,
    ops: u64,
    send_ns: u64,
    recv_wait_ns: u64,
    leader: TimerSample,
    follower: TimerSample,
    wakeups: u64,
}

/// Per-operation figures between two samples.
struct Span {
    secs: f64,
    ops: f64,
    a: Sample,
    b: Sample,
}

impl Span {
    fn new(a: Sample, b: Sample) -> Span {
        let secs = match (a.at, b.at) {
            (Some(x), Some(y)) => y.duration_since(x).as_secs_f64(),
            _ => 0.0,
        };
        Span {
            secs,
            ops: (b.ops - a.ops).max(1) as f64,
            a,
            b,
        }
    }

    fn per_op(&self, f: impl Fn(&Sample) -> u64) -> f64 {
        (f(&self.b) - f(&self.a)) as f64 / self.ops
    }

    fn throughput(&self) -> f64 {
        (self.b.ops - self.a.ops) as f64 / self.secs
    }
}

/// What the traced pair measured.
struct PairRun {
    single: Span,
    paired: Span,
    fork: ForkTimes,
    alloc_ms: Vec<f64>,
    events: Vec<(Syscall, SysRet)>,
    rules: Arc<RuleSet>,
    builtins: Arc<Builtins>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn run_pair(w: Workload, seed: u64, quarter: Duration) -> Result<PairRun, String> {
    let spec = session::server_spec(w);
    let models = spec
        .kv
        .as_ref()
        .map(|s| session::initial_models(s, seed, session::CLIENTS))
        .unwrap_or_default();
    let file = Arc::new(if spec.kv.is_none() {
        session::seeded_file(seed)
    } else {
        Vec::new()
    });
    let kernel = VirtualKernel::new();
    if spec.kv.is_none() {
        session::preload(&kernel, None, &models, &file)?;
    }
    let leader_timers = Arc::new(OsTimers::default());
    let follower_timers = Arc::new(OsTimers::default());
    let recorder = Arc::new(Recorder {
        on: AtomicBool::new(false),
        events: Mutex::new(Vec::with_capacity(RECORD_EVENTS)),
    });
    let app = spec
        .registry
        .boot(&spec.initial)
        .map_err(|e| format!("boot: {e}"))?;
    let os = TracedOs::new(
        VariantOs::single(0, kernel.clone(), None),
        leader_timers.clone(),
        Some(recorder.clone()),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let fork = Arc::new(Mutex::new(None));
    let leader = {
        let (stop, fork) = (stop.clone(), fork.clone());
        std::thread::Builder::new()
            .name("traced-leader".into())
            .spawn(move || leader_loop(app, os, stop, fork))
            .expect("spawn traced leader")
    };
    if spec.kv.is_some() {
        session::preload(&kernel, spec.kv.as_ref(), &models, &file)?;
    }
    let shared = Shared::new(true);
    let clients = session::start_clients(&kernel, &spec, seed, &models, &file, &shared);
    let sample = || {
        let timing = clients.timing();
        let ep = leader_timers.epoll.load(Ordering::Relaxed);
        Sample {
            at: Some(Instant::now()),
            ops: clients.ops(),
            send_ns: timing.send_ns,
            recv_wait_ns: timing.recv_wait_ns,
            leader: leader_timers.sample(),
            follower: follower_timers.sample(),
            wakeups: if ep == 0 {
                0
            } else {
                kernel.epoll_wakeups(Fd::from_raw(ep - 1)).unwrap_or(0)
            },
        }
    };

    std::thread::sleep(Duration::from_millis(300));
    let s0 = sample();
    std::thread::sleep(quarter);
    let s1 = sample();

    let to = session::next_version(w, &spec.initial);
    let package = session::package(w, &spec.initial, &to);
    let transformer = spec
        .registry
        .update_spec(&spec.initial, &to)
        .map_err(|e| format!("update spec: {e}"))?
        .transformer
        .clone();
    let rules = Arc::new(RuleSet::parse(&package.fwd_rules).map_err(|e| format!("rules: {e}"))?);
    let follower_stop = Arc::new(AtomicBool::new(false));
    let (ready_tx, ready_rx) = mpsc::channel();
    *fork.lock().expect("fork lock") = Some(ForkPlan {
        to,
        transformer,
        registry: spec.registry.clone(),
        rules: rules.clone(),
        builtins: package.builtins.clone(),
        ring_capacity: spec.ring_capacity,
        follower_timers: follower_timers.clone(),
        stop: follower_stop.clone(),
        ready: ready_tx,
    });
    let fork_times = ready_rx
        .recv_timeout(Duration::from_secs(60))
        .map_err(|_| "the traced fork did not complete".to_string())
        .and_then(|r| r);

    let mut paired = (Sample::default(), Sample::default());
    if fork_times.is_ok() {
        std::thread::sleep(Duration::from_millis(100));
        paired.0 = sample();
        std::thread::sleep(quarter);
        paired.1 = sample();
        recorder.on.store(true, Ordering::SeqCst);
        let until = Instant::now() + Duration::from_secs(1);
        while recorder.on.load(Ordering::SeqCst) && Instant::now() < until {
            std::thread::sleep(Duration::from_millis(5));
        }
        recorder.on.store(false, Ordering::SeqCst);
    }

    shared.stop.store(true, Ordering::SeqCst);
    let reports = clients.join();
    stop.store(true, Ordering::SeqCst);
    follower_stop.store(true, Ordering::SeqCst);
    let pair = leader
        .join()
        .map_err(|_| "traced leader panicked".to_string())?;
    if let Some((ring, follower)) = pair {
        ring.poison();
        follower
            .join()
            .map_err(|_| "traced follower panicked".to_string())??;
    }
    let fork_times = fork_times?;

    let mut alloc_ms = vec![fork_times.alloc_ns as f64 / 1e6];
    for _ in 0..2 {
        let begin = Instant::now();
        let ring = ring::Ring::<EventRecord>::with_capacity(spec.ring_capacity);
        alloc_ms.push(begin.elapsed().as_secs_f64() * 1e3);
        drop(std::hint::black_box(ring));
    }
    let events = std::mem::take(&mut *recorder.events.lock().expect("recorder lock"));
    let mut out = PairRun {
        single: Span::new(s0, s1),
        paired: Span::new(paired.0, paired.1),
        fork: fork_times,
        alloc_ms,
        events,
        rules,
        builtins: package.builtins,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    for mut r in reports {
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.errors.append(&mut r.wrong);
    }
    Ok(out)
}

/// Applies the forward rules to the recorded leader stream the way the
/// follower consumes it. Returns (ns per event, rewrites per event).
fn rule_engine(pair: &PairRun) -> Result<(f64, f64), String> {
    let events: Vec<dsl::Event> = pair
        .events
        .iter()
        .map(|(call, ret)| mve::syscall_event(call, ret))
        .collect();
    if events.is_empty() {
        return Err("no leader events were recorded".into());
    }
    let window = pair.rules.max_window();
    let mut rewrites = 0u64;
    let begin = Instant::now();
    let mut i = 0;
    while i < events.len() {
        let end = (i + window).min(events.len());
        let outcome = pair
            .rules
            .apply(std::hint::black_box(&events[i..end]), &pair.builtins)
            .map_err(|e| format!("rule engine: {e}"))?;
        if outcome.rule.is_some() {
            rewrites += 1;
        }
        i += outcome.consumed;
    }
    let ns = begin.elapsed().as_nanos() as f64;
    Ok((
        ns / events.len() as f64,
        rewrites as f64 / events.len() as f64,
    ))
}

pub struct TraceRun {
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn lifecycle_median(run: &SessionRun, f: impl Fn(&session::Lifecycle) -> Option<f64>) -> f64 {
    let v: Vec<f64> = run.lifecycles.iter().filter_map(f).collect();
    median(&v)
}

/// Runs the traced measurement of `w`.
pub fn run(w: Workload, seed: u64, window: Duration) -> TraceRun {
    let untraced = session::run(w, seed, window / 2);
    let mut out = TraceRun {
        errors: untraced.errors.clone(),
        attempted: untraced.attempted,
        failed: untraced.failed,
        metrics: Vec::new(),
    };
    let pair = match run_pair(w, seed, window / 4) {
        Ok(p) => p,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    out.attempted += pair.attempted;
    out.failed += pair.failed;
    out.errors.extend(pair.errors.iter().cloned());
    let (dsl_ns, rewrites_per_event) = rule_engine(&pair).unwrap_or_else(|e| {
        out.errors.push(e);
        (0.0, 0.0)
    });

    let ops = untraced.window_ops.max(1) as f64;
    let (single, paired) = (&pair.single, &pair.paired);
    // The traced configuration that matches the workload's window.
    let matching = if w == Workload::KvSingle {
        single
    } else {
        paired
    };
    let kernel_us = single.per_op(|s| s.leader.os_ns) / 1e3;
    let leader_us = paired.per_op(|s| s.leader.os_ns) / 1e3;
    let (records, ops_with_ring, high_water, stalls, stall_ns) = match untraced.window_ring {
        Some((a, b)) => (
            b.pushed - a.pushed,
            untraced.window_ops,
            b.high_water,
            b.producer_stalls - a.producer_stalls,
            b.producer_stall_nanos - a.producer_stall_nanos,
        ),
        None => untraced.lifecycles.iter().fold((0, 0, 0, 0, 0), |acc, l| {
            (
                acc.0 + l.ring.pushed,
                acc.1 + l.ops,
                acc.2.max(l.ring.high_water),
                acc.3 + l.ring.producer_stalls,
                acc.4 + l.ring.producer_stall_nanos,
            )
        }),
    };
    let m = |name: &'static str, unit: &'static str, value: f64| Metric { name, unit, value };
    out.metrics = vec![
        m("workload.latency_p99_us", "us", untraced.p99_us),
        m("workload.latency_max_us", "us", untraced.max_us),
        m(
            "workload.client_send_us",
            "us",
            matching.per_op(|s| s.send_ns) / 1e3,
        ),
        m(
            "workload.client_recv_wait_us",
            "us",
            matching.per_op(|s| s.recv_wait_ns) / 1e3,
        ),
        m("vos.kernel_us_per_op", "us", kernel_us),
        m(
            "vos.syscalls_per_op",
            "count",
            single.per_op(|s| s.leader.calls),
        ),
        m(
            "vos.epoll_wakeups_per_op",
            "count",
            single.per_op(|s| s.wakeups),
        ),
        m("vos.bytes_per_op", "B", single.per_op(|s| s.leader.bytes)),
        m("mve.leader_us_per_op", "us", leader_us),
        m("mve.leader_overhead_us_per_op", "us", leader_us - kernel_us),
        m(
            "mve.follower_us_per_op",
            "us",
            paired.per_op(|s| s.follower.os_ns + s.follower.wait_ns) / 1e3,
        ),
        m(
            "mve.intercepted_per_op",
            "count",
            untraced.window_intercepted / ops,
        ),
        m(
            "ring.records_per_op",
            "count",
            records as f64 / ops_with_ring.max(1) as f64,
        ),
        m("ring.high_water", "count", high_water as f64),
        m("ring.producer_stalls", "count", stalls as f64),
        m("ring.producer_stall_ms", "ms", stall_ns as f64 / 1e6),
        m("ring.alloc_ms", "ms", median(&pair.alloc_ms)),
        m("dsl.ns_per_event", "ns", dsl_ns),
        m(
            "dsl.rewrites_per_op",
            "count",
            rewrites_per_event * paired.per_op(|s| s.leader.calls),
        ),
        m(
            "servers.step_self_us_per_op",
            "us",
            single.per_op(|s| s.leader.step_ns - s.leader.os_ns - s.leader.wait_ns) / 1e3,
        ),
        m("dsu.snapshot_ms", "ms", pair.fork.snapshot_ns as f64 / 1e6),
        m("dsu.xform_ms", "ms", pair.fork.xform_ns as f64 / 1e6),
        m("dsu.resume_ms", "ms", pair.fork.resume_ns as f64 / 1e6),
        m(
            "core.request_update_us",
            "us",
            lifecycle_median(&untraced, |l| Some(l.request_us)),
        ),
        m(
            "core.fork_wait_ms",
            "ms",
            lifecycle_median(&untraced, |l| Some(l.fork_wait_ms)),
        ),
        m(
            "core.forked_to_ready_ms",
            "ms",
            lifecycle_median(&untraced, |l| Some(l.forked_to_ready_ms)),
        ),
        m(
            "core.promote_ms",
            "ms",
            lifecycle_median(&untraced, |l| l.promote_ms),
        ),
        m(
            "core.finalize_ms",
            "ms",
            lifecycle_median(&untraced, |l| l.finalize_ms),
        ),
        m(
            "core.rollback_ms",
            "ms",
            lifecycle_median(&untraced, |l| l.rollback_ms),
        ),
        m(
            "core.snapshot_reported_ms",
            "ms",
            lifecycle_median(&untraced, |l| Some(l.snapshot_reported_ms)),
        ),
        m("process.cpu_us_per_op", "us", untraced.window_cpu_us / ops),
        m(
            "process.rss_growth_mib_per_update",
            "MiB",
            untraced.rss_growth_mib_per_update,
        ),
        m(
            "trace.overhead_pct",
            "%",
            (1.0 - matching.throughput() / untraced.throughput()) * 100.0,
        ),
    ];
    out
}
