//! End-to-end loopback validation: a campaign driven through a real
//! TCP `serve` worker must be *bit-identical* to the in-process run.
//!
//! This is the acceptance bar of the backend redesign — local threads
//! and remote sockets are interchangeable execution venues behind the
//! same streaming API, so with a fixed seed the adaptive driver must
//! produce the same outcome counts, intervals, batch trajectory, and
//! stop reason over either.

use avf_inject::{Campaign, CampaignConfig, LocalBackend, StoreSource};
use avf_service::{spawn_local, RemoteBackend, ServeOptions};
use avf_sim::MachineConfig;

use avf_workloads::testkit::register_chain;

mod common;
use common::assert_reports_identical;

fn adaptive_config() -> CampaignConfig {
    CampaignConfig {
        injections: 400,
        seed: 11,
        threads: 2,
        instr_budget: 6_000,
        ci_target: Some(0.14),
        batch_size: 64,
        ..CampaignConfig::default()
    }
}

fn serve_options(threads: usize) -> ServeOptions {
    ServeOptions {
        threads,
        ..ServeOptions::default()
    }
}

#[test]
fn loopback_remote_matches_local_adaptive_campaign() {
    let machine = MachineConfig::baseline();
    let program = register_chain();
    let config = adaptive_config();

    let local = Campaign::new(&machine, &program, config.clone())
        .run_on(&LocalBackend::new(2))
        .expect("local run");

    let addr = spawn_local(serve_options(2)).expect("bind loopback server");
    let remote_backend = RemoteBackend::new(vec![addr.to_string()]);
    let remote = Campaign::new(&machine, &program, config)
        .run_on(&remote_backend)
        .expect("loopback remote run");

    assert!(local.injections > 0, "campaign actually ran");
    assert_reports_identical(&local, &remote);
    // A fresh worker executed the golden pass itself.
    assert_eq!(remote.provisioning.len(), 1);
    assert_eq!(remote.provisioning[0].source, StoreSource::GoldenRun);
}

#[test]
fn second_identical_campaign_hits_the_worker_cache_and_still_matches() {
    let machine = MachineConfig::baseline();
    let program = register_chain();
    let mut config = adaptive_config();
    config.ci_target = Some(0.2);
    config.injections = 256;

    // Reference: the same campaign on the local venue.
    let local = Campaign::new(&machine, &program, config.clone())
        .run_on(&LocalBackend::new(1))
        .expect("local run");

    // Over the wire the worker runs the golden pass once, and a second
    // campaign against the same worker hits its cache instead of
    // re-running it.
    let opts = serve_options(1);
    let cache = std::sync::Arc::clone(&opts.cache);
    let addr = spawn_local(opts).expect("bind loopback server");
    let backend = RemoteBackend::new(vec![addr.to_string()]);

    let first = Campaign::new(&machine, &program, config.clone())
        .run_on(&backend)
        .expect("golden-run remote run");
    assert_reports_identical(&local, &first);
    assert_eq!(first.provisioning[0].source, StoreSource::GoldenRun);
    assert_eq!(cache.stats().hits, 0);

    let second = Campaign::new(&machine, &program, config)
        .run_on(&backend)
        .expect("cache-hit remote run");
    assert_reports_identical(&local, &second);
    assert_eq!(
        second.provisioning[0].source,
        StoreSource::Cached,
        "an identical job must not re-run the golden pass"
    );
    assert_eq!(cache.stats().hits, 1);
}

#[test]
fn two_workers_split_the_campaign_and_still_match() {
    let machine = MachineConfig::baseline();
    let program = register_chain();
    let mut config = adaptive_config();
    // Keep the two-worker variant cheap: it checks fan-out equivalence,
    // not convergence depth.
    config.ci_target = Some(0.2);
    config.injections = 256;

    let local = Campaign::new(&machine, &program, config.clone())
        .run_on(&LocalBackend::new(1))
        .expect("local run");

    // Two independent single-threaded server processes-worth of state
    // on one loopback: the driver strides each batch across both.
    let a = spawn_local(serve_options(1)).expect("worker a");
    let b = spawn_local(serve_options(1)).expect("worker b");
    let remote_backend = RemoteBackend::new(vec![a.to_string(), b.to_string()]);
    let remote = Campaign::new(&machine, &program, config)
        .run_on(&remote_backend)
        .expect("two-worker remote run");

    assert_reports_identical(&local, &remote);
}

/// Pulls one metric value out of a `/metrics` exposition body.
fn metric(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix(name).map(str::trim))
        .unwrap_or_else(|| panic!("metric `{name}` missing from:\n{body}"))
        .parse()
        .unwrap_or_else(|e| panic!("metric `{name}` is not a counter: {e}"))
}

fn scrape(addr: std::net::SocketAddr) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect metrics");
    write!(stream, "GET /metrics HTTP/1.0\r\n\r\n").expect("request");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("response");
    body
}

/// The worker's operational counters — store-cache hits/misses and
/// session totals — must be observable over the HTTP metrics plane and
/// must move as campaigns run, because that scrape is exactly how CI
/// (and operators) watch a fleet.
#[test]
fn metrics_endpoint_tracks_cache_hits_and_sessions_across_campaigns() {
    use avf_service::spawn_metrics;

    let machine = MachineConfig::baseline();
    let program = register_chain();
    let mut config = adaptive_config();
    config.ci_target = Some(0.2);
    config.injections = 256;

    let opts = serve_options(1);
    let cache = std::sync::Arc::clone(&opts.cache);
    let stats = std::sync::Arc::clone(&opts.stats);
    let worker = spawn_local(opts).expect("worker");
    let metrics_addr =
        spawn_metrics("127.0.0.1:0", move || stats.render(&cache)).expect("metrics endpoint");

    let before = scrape(metrics_addr);
    assert_eq!(metric(&before, "avf_store_cache_hits"), 0);
    assert_eq!(metric(&before, "avf_store_cache_misses"), 0);
    assert_eq!(metric(&before, "avf_serve_sessions_ok"), 0);

    // First campaign runs the golden pass (a miss), the second re-uses
    // it (a hit) — both visible through the scrape, not just in-process.
    let backend = RemoteBackend::new(vec![worker.to_string()]);
    for _ in 0..2 {
        Campaign::new(&machine, &program, config.clone())
            .run_on(&backend)
            .expect("campaign");
    }
    let after = scrape(metrics_addr);
    assert_eq!(metric(&after, "avf_store_cache_misses"), 1, "{after}");
    assert_eq!(metric(&after, "avf_store_cache_hits"), 1, "{after}");
    // The worker's session-side counters (batch completions, session
    // teardown) land asynchronously to the driver seeing its report —
    // poll the scrape until they settle.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let body = scrape(metrics_addr);
        if metric(&body, "avf_serve_sessions_ok") == 2
            && metric(&body, "avf_serve_batches_served") >= 2
            && metric(&body, "avf_serve_events_streamed") >= 256
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "session counters never settled:\n{body}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

#[test]
fn unreachable_worker_fails_loudly_not_wrongly() {
    let machine = MachineConfig::baseline();
    let program = register_chain();
    let mut config = adaptive_config();
    config.injections = 32;
    // A port nothing listens on: the campaign must error, never
    // silently fall back or return a partial report.
    let backend = RemoteBackend::new(vec!["127.0.0.1:1".to_owned()]);
    let err = Campaign::new(&machine, &program, config)
        .run_on(&backend)
        .expect_err("connecting to a dead port must fail");
    assert!(err.to_string().contains("connect"), "{err}");
}
