//! Small helpers: the seeded generator, order statistics, process
//! readings from `/proc/self`, and the result line.

use std::fmt::Write as _;

/// SplitMix64: the benchmark's own seeded generator, so the inputs depend
/// only on `--seed` and not on any crate the program under test uses.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fills `out` with letters and digits (valid inside a Redis inline
    /// command and a memcached data line).
    pub fn fill_alnum(&mut self, out: &mut Vec<u8>, len: usize) {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
        let mut word = 0u64;
        for i in 0..len {
            if i % 8 == 0 {
                word = self.next_u64();
            }
            out.push(ALPHABET[(word & 0x3f) as usize % ALPHABET.len()]);
            word >>= 8;
        }
    }
}

/// Confines this process to one processor: the lowest it is allowed to
/// use. Called before any thread starts, so every thread inherits it.
/// On the 2-vCPU reference machine, whose host takes a processor away
/// for milliseconds at a time, a run that spread its threads over both
/// depended on both being present at once, and throughput swung by up to
/// ±35% between identical runs. Returns false where the affinity calls
/// are unavailable (another system, more than 64 processors); the run
/// then goes on unconfined.
pub fn pin_to_one_cpu() -> bool {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        const SYS_SCHED_SETAFFINITY: usize = 203;
        const SYS_SCHED_GETAFFINITY: usize = 204;
        let mut mask: u64 = 0;
        // SAFETY: sched_getaffinity(0, 8, &mut mask) writes at most the 8
        // bytes of `mask`, which outlives the call. The `syscall`
        // instruction clobbers rcx and r11, declared here, and touches no
        // stack memory.
        let got = unsafe { syscall3(SYS_SCHED_GETAFFINITY, 0, 8, &mut mask as *mut u64 as usize) };
        if got <= 0 || mask == 0 {
            return false;
        }
        let lowest: u64 = 1 << mask.trailing_zeros();
        // SAFETY: as above; sched_setaffinity reads the 8 bytes of
        // `lowest` and changes only this thread's processor mask.
        let set = unsafe { syscall3(SYS_SCHED_SETAFFINITY, 0, 8, &lowest as *const u64 as usize) };
        set == 0
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        false
    }
}

/// A raw three-argument Linux system call.
///
/// # Safety
/// The arguments must be valid for system call `nr`: any pointer among
/// them must point to memory the call may read or write for its
/// duration.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn syscall3(nr: usize, a: usize, b: usize, c: usize) -> isize {
    let ret: isize;
    // SAFETY: the caller upholds the call's requirements; `syscall`
    // clobbers only rcx and r11 besides rax.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `values` without the lowest and the highest tenth (0 for an
/// empty slice). Single update lifecycles spread nearly evenly over a
/// range as wide as their median (an `ftp_bulk` apply takes 0.5 to
/// 3.5 ms), and over such a spread the mean of a hundred repeats twice
/// as closely as their median; the trimmed tenths keep one stall from
/// moving it.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let cut = v.len() / 10;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Exact latency distribution: one counter per nanosecond below
/// `2^17` ns, and every longer operation kept as it was measured. The
/// table is written in full when made, so the benchmark's own resident
/// set does not depend on where the latencies fall.
pub struct LatencyHist {
    counts: Vec<u32>,
    long: Vec<u64>,
    total: u64,
}

const HIST_NS: usize = 1 << 17;

impl LatencyHist {
    pub fn new() -> LatencyHist {
        // Not `vec![0; n]`: that maps zero pages lazily, on first use.
        #[allow(clippy::slow_vector_initialization)]
        let mut counts = Vec::with_capacity(HIST_NS);
        counts.resize(HIST_NS, 0);
        LatencyHist {
            counts,
            long: Vec::new(),
            total: 0,
        }
    }

    pub fn record(&mut self, nanos: u64) {
        self.total += 1;
        match self.counts.get_mut(nanos as usize) {
            Some(c) => *c += 1,
            None => self.long.push(nanos),
        }
    }

    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.long.extend_from_slice(&other.long);
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The sample of rank `ceil(q * n)` (nearest-rank percentile), in ns.
    pub fn quantile(&mut self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (nanos, c) in self.counts.iter().enumerate() {
            seen += u64::from(*c);
            if seen >= rank {
                return nanos as u64;
            }
        }
        self.long.sort_unstable();
        self.long[(rank - seen - 1) as usize]
    }

    pub fn max(&self) -> u64 {
        if let Some(m) = self.long.iter().max() {
            return *m;
        }
        self.counts
            .iter()
            .rposition(|c| *c > 0)
            .map_or(0, |i| i as u64)
    }
}

fn status_kib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// Current resident set (`VmRSS`), MiB.
pub fn rss_mib() -> f64 {
    status_kib("VmRSS:") / 1024.0
}

/// User plus system CPU time of this process, microseconds (`USER_HZ`
/// is 100 on Linux).
pub fn cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of those.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 10_000.0
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result line the benchmark prints last.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            value,
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact() {
        let mut h = LatencyHist::new();
        for n in [5u64, 1, 3, 2, 4, 2_000_000, 3_000_000] {
            h.record(n);
        }
        assert_eq!(h.quantile(0.5), 4);
        assert_eq!(h.quantile(1.0), 3_000_000);
        assert_eq!(h.quantile(0.8), 2_000_000);
        assert_eq!(h.max(), 3_000_000);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        let mut tenth: Vec<f64> = (1..=9).map(f64::from).collect();
        tenth.push(1000.0);
        assert_eq!(trimmed_mean(&tenth), 5.5);
        assert_eq!(trimmed_mean(&[4.0, 2.0]), 3.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
