//! The benchmark's own closed-loop client: connections through the
//! virtual kernel's client side, the Redis, memcached and FTP requests
//! it sends, and the checks on every reply.
//!
//! Every value the client writes is `k<key>w<counter>x` followed by
//! seeded letters, so a reply carrying another key's value or an older
//! write of the same key fails the comparison with the client's model.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vos::{Errno, Fd, VirtualKernel};

use crate::util::{LatencyHist, Rng};

/// Why an operation did not complete as the model says it must.
#[derive(Debug)]
pub enum OpError {
    /// The connection failed or timed out: the operation failed.
    Io(String),
    /// A reply arrived but was not the one the model predicts.
    Wrong(String),
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::Io(m) => write!(f, "i/o: {m}"),
            OpError::Wrong(m) => write!(f, "wrong reply: {m}"),
        }
    }
}

const OP_TIMEOUT: Duration = Duration::from_secs(20);

/// Time spent inside the kernel's client calls (traced runs only).
#[derive(Default, Clone, Copy)]
pub struct ClientTiming {
    pub send_ns: u64,
    pub recv_wait_ns: u64,
}

/// One client connection with receive buffering.
pub struct Conn {
    kernel: Arc<VirtualKernel>,
    fd: Fd,
    buf: Vec<u8>,
    pos: usize,
    pub timing: Option<ClientTiming>,
}

impl Conn {
    /// Connects, retrying while the server has not yet listened.
    pub fn connect(kernel: &Arc<VirtualKernel>, port: u16) -> Result<Conn, OpError> {
        let until = Instant::now() + Duration::from_secs(10);
        loop {
            match kernel.connect(port) {
                Ok(fd) => {
                    return Ok(Conn {
                        kernel: kernel.clone(),
                        fd,
                        buf: Vec::with_capacity(1 << 16),
                        pos: 0,
                        timing: None,
                    })
                }
                Err(Errno::ConnRefused) if Instant::now() < until => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(OpError::Io(format!("connect: {e:?}"))),
            }
        }
    }

    pub fn send(&mut self, data: &[u8]) -> Result<(), OpError> {
        let begin = self.timing.map(|_| Instant::now());
        let sent = self.kernel.client_send(self.fd, data);
        if let (Some(t), Some(b)) = (self.timing.as_mut(), begin) {
            t.send_ns += b.elapsed().as_nanos() as u64;
        }
        match sent {
            Ok(n) if n == data.len() => Ok(()),
            Ok(n) => Err(OpError::Io(format!("short send {n}/{}", data.len()))),
            Err(e) => Err(OpError::Io(format!("send: {e:?}"))),
        }
    }

    fn fill(&mut self, deadline: Instant) -> Result<(), OpError> {
        let now = Instant::now();
        if now >= deadline {
            return Err(OpError::Io("timed out".into()));
        }
        if self.pos > 0 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let data = self
            .kernel
            .client_recv_timeout(self.fd, 1 << 16, deadline - now);
        if let Some(t) = self.timing.as_mut() {
            t.recv_wait_ns += now.elapsed().as_nanos() as u64;
        }
        match data {
            Ok(d) if d.is_empty() => Err(OpError::Io("connection closed".into())),
            Ok(d) => {
                self.buf.extend_from_slice(d.as_slice());
                Ok(())
            }
            Err(e) => Err(OpError::Io(format!("recv: {e:?}"))),
        }
    }

    /// The next CRLF-terminated line, without its terminator.
    pub fn line(&mut self) -> Result<&[u8], OpError> {
        let deadline = Instant::now() + OP_TIMEOUT;
        // Bytes after `pos` already searched; `fill` may move `pos`.
        let mut scanned = 0;
        loop {
            let from = self.pos + scanned;
            if let Some(i) = self.buf[from..].iter().position(|b| *b == b'\n') {
                let end = from + i;
                if end == self.pos || self.buf[end - 1] != b'\r' {
                    return Err(OpError::Wrong("line not terminated by CRLF".into()));
                }
                let start = self.pos;
                self.pos = end + 1;
                return Ok(&self.buf[start..end - 1]);
            }
            scanned = self.buf.len() - self.pos;
            self.fill(deadline)?;
        }
    }

    /// The next `n` bytes.
    pub fn exact(&mut self, n: usize) -> Result<&[u8], OpError> {
        let deadline = Instant::now() + OP_TIMEOUT;
        while self.buf.len() - self.pos < n {
            self.fill(deadline)?;
        }
        let start = self.pos;
        self.pos += n;
        Ok(&self.buf[start..start + n])
    }

    fn expect_line(&mut self, want: &[u8]) -> Result<(), OpError> {
        let got = self.line()?;
        if got == want {
            Ok(())
        } else {
            Err(OpError::Wrong(format!(
                "expected {:?}, got {:?}",
                String::from_utf8_lossy(want),
                String::from_utf8_lossy(got)
            )))
        }
    }

    pub fn close(self) {
        let _ = self.kernel.close(self.fd);
    }
}

/// The two key-value protocols the workloads speak.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    Redis,
    Memcached,
}

/// Key-value input shape of one workload.
#[derive(Clone, Copy, Debug)]
pub struct KvShape {
    pub proto: Proto,
    pub port: u16,
    pub keys: u64,
    pub value_len: usize,
}

/// The value the benchmark writes for `key` at write number `counter`.
pub fn make_value(rng: &mut Rng, key: u64, counter: u64, len: usize) -> Vec<u8> {
    let mut v = format!("k{key}w{counter}x").into_bytes();
    let fill = len.saturating_sub(v.len());
    rng.fill_alnum(&mut v, fill);
    v
}

fn encode_set(out: &mut Vec<u8>, proto: Proto, key: u64, value: &[u8]) {
    match proto {
        Proto::Redis => out.extend_from_slice(format!("SET key:{key} ").as_bytes()),
        Proto::Memcached => {
            out.extend_from_slice(format!("set key:{key} 0 0 {}\r\n", value.len()).as_bytes())
        }
    }
    out.extend_from_slice(value);
    out.extend_from_slice(b"\r\n");
}

fn encode_get(out: &mut Vec<u8>, proto: Proto, key: u64) {
    let cmd = match proto {
        Proto::Redis => "GET",
        Proto::Memcached => "get",
    };
    out.extend_from_slice(format!("{cmd} key:{key}\r\n").as_bytes());
}

fn read_set_reply(conn: &mut Conn, proto: Proto) -> Result<(), OpError> {
    conn.expect_line(match proto {
        Proto::Redis => b"+OK",
        Proto::Memcached => b"STORED",
    })
}

/// Reads one GET reply and checks it against `expected`. Returns the
/// number of value bytes verified.
fn read_get_reply(
    conn: &mut Conn,
    proto: Proto,
    key: u64,
    expected: &[u8],
) -> Result<usize, OpError> {
    let header = String::from_utf8_lossy(conn.line()?).into_owned();
    let len = match proto {
        Proto::Redis => header
            .strip_prefix('$')
            .and_then(|n| n.parse::<usize>().ok()),
        Proto::Memcached => {
            let want = format!("VALUE key:{key} 0 ");
            header
                .strip_prefix(want.as_str())
                .and_then(|n| n.parse::<usize>().ok())
        }
    };
    let Some(len) = len else {
        return Err(OpError::Wrong(format!(
            "GET key:{key}: header {header:?} (value missing or misrouted)"
        )));
    };
    let body = conn.exact(len + 2)?;
    if &body[..len] != expected || &body[len..] != b"\r\n" {
        return Err(OpError::Wrong(format!(
            "GET key:{key}: got {:?}, the last write was {:?}",
            String::from_utf8_lossy(&body[..len]),
            String::from_utf8_lossy(expected)
        )));
    }
    if proto == Proto::Memcached {
        conn.expect_line(b"END")?;
    }
    Ok(len)
}

/// Writes every `(key, value)` pair, `batch` requests per send.
pub fn bulk_set(
    conn: &mut Conn,
    proto: Proto,
    items: &[(u64, Vec<u8>)],
    batch: usize,
) -> Result<(), OpError> {
    let mut out = Vec::new();
    for chunk in items.chunks(batch) {
        out.clear();
        for (key, value) in chunk {
            encode_set(&mut out, proto, *key, value);
        }
        conn.send(&out)?;
        for _ in chunk {
            read_set_reply(conn, proto)?;
        }
    }
    Ok(())
}

/// Reads every key back, `batch` requests per send, and checks each
/// reply against the model. Returns the number of reads.
pub fn bulk_check(
    conn: &mut Conn,
    proto: Proto,
    model: &[(u64, Vec<u8>)],
    batch: usize,
) -> Result<u64, OpError> {
    let mut out = Vec::new();
    for chunk in model.chunks(batch) {
        out.clear();
        for (key, _) in chunk {
            encode_get(&mut out, proto, *key);
        }
        conn.send(&out)?;
        for (key, value) in chunk {
            read_get_reply(conn, proto, *key, value)?;
        }
    }
    Ok(model.len() as u64)
}

/// Operations per throughput block: about a millisecond of work each.
/// The reported rates are medians over blocks, so the milliseconds at a
/// time that a 2-vCPU guest loses its processors to the host move the
/// blocks they fall in and not the median.
const KV_BLOCK: u64 = 40;
const FTP_BLOCK: u64 = 2;

/// State the controlling thread shares with the load clients.
pub struct Shared {
    pub epoch: Instant,
    pub stop: AtomicBool,
    /// Whether completed operations count in the measured window.
    pub in_window: AtomicBool,
    /// `id + 1` of the open update lifecycle, 0 when none is open.
    pub lifecycle: AtomicU64,
    /// Start of the open lifecycle's window, ns since `epoch`.
    pub lifecycle_start: AtomicU64,
    pub traced: bool,
}

impl Shared {
    pub fn new(traced: bool) -> Arc<Shared> {
        Arc::new(Shared {
            epoch: Instant::now(),
            stop: AtomicBool::new(false),
            in_window: AtomicBool::new(false),
            lifecycle: AtomicU64::new(0),
            lifecycle_start: AtomicU64::new(0),
            traced,
        })
    }

    pub fn nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open_lifecycle(&self, id: u64) {
        self.lifecycle_start.store(self.nanos(), Ordering::SeqCst);
        self.lifecycle.store(id + 1, Ordering::SeqCst);
    }

    pub fn close_lifecycle(&self) {
        self.lifecycle.store(0, Ordering::SeqCst);
    }
}

/// A client's running totals, on a cache line of its own so the
/// controlling thread can read them without slowing the client.
#[derive(Default)]
#[repr(align(128))]
pub struct OpCounter {
    ops: AtomicU64,
    send_ns: AtomicU64,
    recv_wait_ns: AtomicU64,
}

impl OpCounter {
    pub fn get(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    pub fn timing(&self) -> ClientTiming {
        ClientTiming {
            send_ns: self.send_ns.load(Ordering::Relaxed),
            recv_wait_ns: self.recv_wait_ns.load(Ordering::Relaxed),
        }
    }

    fn bump(&self, conn: &Conn) {
        if let Some(t) = conn.timing {
            self.send_ns.store(t.send_ns, Ordering::Relaxed);
            self.recv_wait_ns.store(t.recv_wait_ns, Ordering::Relaxed);
        }
        self.ops.fetch_add(1, Ordering::Relaxed);
    }
}

/// What one load client measured.
pub struct ClientReport {
    pub window: LatencyHist,
    /// Operations per block; see `blocks`.
    pub block_ops: u64,
    /// Each whole block of `block_ops` consecutive operations completed
    /// in the window: (duration ns, verified payload bytes).
    pub blocks: Vec<(u64, u64)>,
    block_start: Option<u64>,
    block_bytes: u64,
    block_done: u64,
    /// Per open lifecycle: the running maxima `(id, start_ns, dur_ns)` of
    /// operations that ended after the lifecycle opened, in start order.
    pub lifecycle_ops: Vec<(u64, u64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
    /// The model: the last value written to each key this client owns.
    pub model: Vec<(u64, Vec<u8>)>,
}

impl ClientReport {
    fn new(block_ops: u64) -> ClientReport {
        ClientReport {
            window: LatencyHist::new(),
            block_ops,
            blocks: Vec::new(),
            block_start: None,
            block_bytes: 0,
            block_done: 0,
            lifecycle_ops: Vec::new(),
            attempted: 0,
            failed: 0,
            wrong: Vec::new(),
            model: Vec::new(),
        }
    }

    fn note(&mut self, shared: &Shared, start: u64, end: u64, bytes: usize) {
        let dur = end - start;
        if shared.in_window.load(Ordering::Relaxed) {
            self.window.record(dur);
            let block_start = *self.block_start.get_or_insert(start);
            self.block_done += 1;
            self.block_bytes += bytes as u64;
            if self.block_done == self.block_ops {
                self.blocks.push((end - block_start, self.block_bytes));
                self.block_start = Some(end);
                self.block_done = 0;
                self.block_bytes = 0;
            }
        } else {
            self.block_start = None;
            self.block_done = 0;
            self.block_bytes = 0;
        }
        let lc = shared.lifecycle.load(Ordering::SeqCst);
        if lc != 0 && end >= shared.lifecycle_start.load(Ordering::SeqCst) {
            let id = lc - 1;
            let beaten = self
                .lifecycle_ops
                .iter()
                .rev()
                .take_while(|(i, _, _)| *i == id)
                .any(|(_, _, d)| *d >= dur);
            if !beaten {
                self.lifecycle_ops.push((id, start, dur));
            }
        }
    }

    fn fail(&mut self, e: OpError) {
        match e {
            OpError::Io(m) => {
                self.failed += 1;
                self.wrong.push(format!("failed operation: {m}"));
            }
            OpError::Wrong(m) => self.wrong.push(m),
        }
    }
}

/// One closed-loop key-value client: 90% GETs checked against the
/// model, 10% SETs of fresh values, over the keys of its `model` (no
/// other client writes them).
pub fn kv_client(
    kernel: Arc<VirtualKernel>,
    shape: KvShape,
    shared: Arc<Shared>,
    mut rng: Rng,
    mut model: Vec<(u64, Vec<u8>)>,
    done: &OpCounter,
) -> ClientReport {
    let mut report = ClientReport::new(KV_BLOCK);
    let mut conn = match Conn::connect(&kernel, shape.port) {
        Ok(c) => c,
        Err(e) => {
            report.fail(e);
            report.model = model;
            return report;
        }
    };
    if shared.traced {
        conn.timing = Some(ClientTiming::default());
    }
    let owned = model.len() as u64;
    let mut counter = 0u64;
    let mut out = Vec::with_capacity(256);
    while !shared.stop.load(Ordering::Relaxed) {
        let slot = rng.below(owned) as usize;
        let key = model[slot].0;
        let read = rng.below(10) < 9;
        out.clear();
        let fresh = if read {
            encode_get(&mut out, shape.proto, key);
            None
        } else {
            counter += 1;
            let v = make_value(&mut rng, key, counter, shape.value_len);
            encode_set(&mut out, shape.proto, key, &v);
            Some(v)
        };
        report.attempted += 1;
        let start = shared.nanos();
        let result = conn.send(&out).and_then(|()| match &fresh {
            None => read_get_reply(&mut conn, shape.proto, key, &model[slot].1),
            Some(_) => read_set_reply(&mut conn, shape.proto).map(|()| 0),
        });
        let end = shared.nanos();
        match result {
            Ok(bytes) => {
                if let Some(v) = fresh {
                    model[slot].1 = v;
                }
                done.bump(&conn);
                report.note(&shared, start, end, bytes);
            }
            Err(e) => {
                report.fail(e);
                break;
            }
        }
    }
    conn.close();
    report.model = model;
    report
}

/// The FTP session's fixed replies.
const FTP_DONE: &[u8] = b"226 Transfer complete.";

/// Logs in as the workload's one FTP user.
pub fn ftp_login(conn: &mut Conn) -> Result<(), OpError> {
    let banner = conn.line()?;
    if !banner.starts_with(b"220 ") {
        return Err(OpError::Wrong(format!(
            "banner {:?}",
            String::from_utf8_lossy(banner)
        )));
    }
    conn.send(b"USER bench\r\n")?;
    conn.expect_line(b"331 Please specify the password.")?;
    conn.send(b"PASS bench\r\n")?;
    conn.expect_line(b"230 Login successful.")
}

/// Downloads `name` and checks it byte for byte against `file`.
pub fn ftp_download(conn: &mut Conn, name: &str, file: &[u8]) -> Result<usize, OpError> {
    conn.send(format!("RETR {name}\r\n").as_bytes())?;
    let want = format!(
        "150 Opening BINARY mode data connection for {name} ({} bytes).",
        file.len()
    );
    conn.expect_line(want.as_bytes())?;
    let body = conn.exact(file.len())?;
    if body != file {
        let at = body.iter().zip(file).position(|(a, b)| a != b).unwrap_or(0);
        return Err(OpError::Wrong(format!(
            "RETR {name}: download differs from the seeded file at byte {at}"
        )));
    }
    conn.expect_line(FTP_DONE)?;
    Ok(file.len())
}

/// The FTP client: one logged-in session downloading `name` in a loop.
pub fn ftp_client(
    kernel: Arc<VirtualKernel>,
    port: u16,
    shared: Arc<Shared>,
    name: String,
    file: Arc<Vec<u8>>,
    done: &OpCounter,
) -> ClientReport {
    let mut report = ClientReport::new(FTP_BLOCK);
    let mut conn =
        match Conn::connect(&kernel, port).and_then(|mut c| ftp_login(&mut c).map(|()| c)) {
            Ok(c) => c,
            Err(e) => {
                report.fail(e);
                return report;
            }
        };
    if shared.traced {
        conn.timing = Some(ClientTiming::default());
    }
    while !shared.stop.load(Ordering::Relaxed) {
        report.attempted += 1;
        let start = shared.nanos();
        let result = ftp_download(&mut conn, &name, &file);
        let end = shared.nanos();
        match result {
            Ok(bytes) => {
                done.bump(&conn);
                report.note(&shared, start, end, bytes);
            }
            Err(e) => {
                report.fail(e);
                break;
            }
        }
    }
    conn.close();
    report
}
