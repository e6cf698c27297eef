//! `perfbench`: the end-to-end and per-layer benchmark of MVEDSUA.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kv_single --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod client;
mod selftest;
mod session;
mod trace;
mod util;

use std::time::Duration;

use session::{SessionRun, Workload};
use util::{trimmed_mean, Metric};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--self-test") {
        return Ok(None);
    }
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name}"))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let seconds = number("--seconds")?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1 to 60".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Some(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    }))
}

/// The end-to-end metrics of a run with tracing off.
pub(crate) fn end_to_end(run: &SessionRun) -> Vec<Metric> {
    let pauses = &run.pauses_ms;
    let applies: Vec<f64> = run.lifecycles.iter().map(|l| l.apply_ms).collect();
    vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: run.setup_s,
        },
        Metric {
            name: "throughput_ops",
            unit: "ops/s",
            value: run.throughput(),
        },
        Metric {
            name: "latency_p50_us",
            unit: "us",
            value: run.p50_us,
        },
        Metric {
            name: "goodput_mib_s",
            unit: "MiB/s",
            value: run.goodput_mib_s(),
        },
        Metric {
            name: "update_pause_ms",
            unit: "ms",
            value: trimmed_mean(pauses),
        },
        Metric {
            name: "update_apply_ms",
            unit: "ms",
            value: trimmed_mean(&applies),
        },
        Metric {
            name: "peak_rss_mib",
            unit: "MiB",
            value: run.peak_rss_mib,
        },
    ]
}

fn main() {
    util::pin_to_one_cpu();
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => std::process::exit(selftest::run()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <1-60> --trace <0|1>\n       perfbench --self-test",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let window = Duration::from_secs(args.seconds);
    let (errors, attempted, failed, metrics) = if args.trace {
        let t = trace::run(args.workload, args.seed, window);
        (t.errors, t.attempted, t.failed, t.metrics)
    } else {
        let run = session::run(args.workload, args.seed, window);
        let m = end_to_end(&run);
        (run.errors, run.attempted, run.failed, m)
    };
    for e in &errors {
        eprintln!("perfbench {}: {e}", args.workload.name());
    }
    let correct = errors.is_empty();
    println!(
        "{}",
        util::result_json(correct, attempted.max(1), failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
