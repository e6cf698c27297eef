//! `--self-test`: a short run of every workload, traced and untraced,
//! plus planted faults that each check must catch.

use std::time::Duration;

use dsu::{FaultPlan, XformFault};
use mvedsua::TimelineEvent;
use servers::memcached;

use crate::client::{self, Conn, OpError, Proto};
use crate::session::{self, Workload};
use crate::trace;

fn check(name: &str, ok: bool, detail: String) -> bool {
    println!(
        "{} {name}{}",
        if ok { "ok  " } else { "FAIL" },
        if ok {
            String::new()
        } else {
            format!(": {detail}")
        }
    );
    ok
}

/// A reply check must reject a value the model does not hold.
fn rejects_wrong_values() -> Result<bool, String> {
    let spec = session::server_spec(Workload::KvSingle);
    let shape = spec.kv.expect("redis shape");
    let models = vec![session::initial_models(&shape, 7, 1)[0][..4].to_vec()];
    let rig = session::setup(Workload::KvSingle, &models, &[])?;
    let mut conn = Conn::connect(&rig.kernel, shape.port).map_err(|e| e.to_string())?;
    let (k1, v1) = models[0][1].clone();
    let (k2, _) = models[0][2].clone();
    let mut ok = check(
        "read-back of the preloaded keys",
        client::bulk_check(&mut conn, Proto::Redis, &models[0], 4).is_ok(),
        "the model disagrees with a fresh preload".into(),
    );
    // Another key's value: a misrouted reply.
    let misrouted = client::bulk_check(&mut conn, Proto::Redis, &[(k2, v1.clone())], 1);
    ok &= check(
        "a misrouted value is rejected",
        matches!(misrouted, Err(OpError::Wrong(_))),
        format!("{misrouted:?}"),
    );
    // An older write of the same key: a stale reply.
    let mut rng = crate::util::Rng::new(7, 9);
    let newer = client::make_value(&mut rng, k1, 1, shape.value_len);
    client::bulk_set(&mut conn, Proto::Redis, &[(k1, newer)], 1).map_err(|e| e.to_string())?;
    let stale = client::bulk_check(&mut conn, Proto::Redis, &[(k1, v1)], 1);
    ok &= check(
        "a stale value is rejected",
        matches!(stale, Err(OpError::Wrong(_))),
        format!("{stale:?}"),
    );
    conn.close();
    rig.session.shutdown();
    Ok(ok)
}

/// The download check must reject a file whose chunks were reordered.
fn rejects_reordered_file() -> Result<bool, String> {
    let file = session::seeded_file(7);
    let mut reordered = file.clone();
    let half = reordered.len() / 2;
    reordered.rotate_left(half);
    let rig = session::setup(Workload::FtpBulk, &[], &reordered)?;
    let mut conn = Conn::connect(&rig.kernel, session::FTP_PORT).map_err(|e| e.to_string())?;
    client::ftp_login(&mut conn).map_err(|e| e.to_string())?;
    let got = client::ftp_download(&mut conn, session::FTP_FILE, &file);
    let ok = check(
        "a reordered download is rejected",
        matches!(got, Err(OpError::Wrong(_))),
        format!("{got:?}"),
    );
    // A fresh session: the rejected reply's trailer is still unread.
    conn.close();
    let mut conn = Conn::connect(&rig.kernel, session::FTP_PORT).map_err(|e| e.to_string())?;
    client::ftp_login(&mut conn).map_err(|e| e.to_string())?;
    let again = client::ftp_download(&mut conn, session::FTP_FILE, &reordered);
    let ok = ok
        & check(
            "the same download matches its own bytes",
            again.is_ok(),
            format!("{again:?}"),
        );
    conn.close();
    rig.session.shutdown();
    Ok(ok)
}

/// A lifecycle that the program rolls back on its own must be reported.
fn rejects_unrequested_rollback() -> Result<bool, String> {
    let spec = session::server_spec(Workload::McUpdate);
    let shape = spec.kv.expect("memcached shape");
    let models = vec![session::initial_models(&shape, 7, 1)[0][..16].to_vec()];
    let rig = session::setup(Workload::McUpdate, &models, &[])?;
    let base = rig.session.timeline().len();
    let broken = memcached::update_package(
        &dsu::v("1.2.3"),
        FaultPlan::with_xform(XformFault::CorruptField),
    );
    rig.session
        .request_update(broken)
        .map_err(|e| format!("request_update: {e}"))?;
    let mut conn = Conn::connect(&rig.kernel, shape.port).map_err(|e| e.to_string())?;
    // The corrupted follower answers `get` differently and diverges.
    let mut outcome = Ok(0);
    for _ in 0..50 {
        let _ = client::bulk_check(&mut conn, Proto::Memcached, &models[0], 16);
        outcome = session::wait_event_for(&rig, base, Duration::from_millis(20), |e| {
            matches!(e, TimelineEvent::Promoted { .. })
        });
        if outcome.is_err() {
            break;
        }
    }
    let caught = matches!(&outcome, Err(e) if !e.starts_with("timed out"));
    conn.close();
    rig.session.shutdown();
    Ok(check(
        "an unrequested rollback fails the lifecycle",
        caught,
        format!("{outcome:?}"),
    ))
}

/// Every metric a run prints must be declared, with its unit, in the
/// repository's `BENCHMARK.json`, and the run must print as many as the
/// file declares for its kind (end-to-end metrics carry a bound).
fn declared(metrics: &[crate::util::Metric], end_to_end: bool) -> Result<(), String> {
    let spec =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let bounded = spec.matches("\"bound\"").count();
    let want = if end_to_end {
        bounded
    } else {
        spec.matches("\"better\"").count() - bounded
    };
    if metrics.len() != want {
        return Err(format!(
            "{} metrics printed, {want} declared",
            metrics.len()
        ));
    }
    let missing: Vec<&str> = metrics
        .iter()
        .filter(|m| {
            !spec.contains(&format!(
                "\"name\": \"{}\", \"unit\": \"{}\"",
                m.name, m.unit
            ))
        })
        .map(|m| m.name)
        .collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "not declared in BENCHMARK.json: {}",
            missing.join(", ")
        ))
    }
}

/// Runs every check; returns the process exit code.
pub fn run() -> i32 {
    let mut ok = true;
    for test in [
        rejects_wrong_values as fn() -> Result<bool, String>,
        rejects_reordered_file,
        rejects_unrequested_rollback,
    ] {
        ok &= test().unwrap_or_else(|e| check("planted-fault set-up", false, e));
    }
    for w in Workload::ALL {
        let run = session::run(w, 11, Duration::from_secs(2));
        let names = declared(&crate::end_to_end(&run), true);
        ok &= check(
            &format!("{} untraced run", w.name()),
            run.errors.is_empty() && run.failed == 0 && run.window_ops > 0 && names.is_ok(),
            format!("{} {:?}", run.errors.join("; "), names),
        );
        let traced = trace::run(w, 11, Duration::from_secs(4));
        let names = declared(&traced.metrics, false);
        ok &= check(
            &format!("{} traced run", w.name()),
            traced.errors.is_empty() && traced.failed == 0 && names.is_ok(),
            format!("{} {:?}", traced.errors.join("; "), names),
        );
    }
    if ok {
        println!("self-test passed");
        0
    } else {
        println!("self-test FAILED");
        1
    }
}
