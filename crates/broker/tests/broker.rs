//! End-to-end broker tests against in-process workers.
//!
//! The load-bearing property throughout: a campaign routed through the
//! broker — by either plane — produces a report *statistically
//! identical* to the same-seed direct run, because trial outcomes are
//! pure functions of the spec. Only venue metadata (worker count,
//! dispatch trajectory, wall clock) may differ.

use std::path::PathBuf;

use avf_broker::{
    Broker, BrokerClient, BrokerOptions, BrokeredBackend, CampaignSpec, CampaignStore, LogRecord,
    RejectReason, SubmitError,
};
use avf_inject::{Campaign, CampaignConfig, CampaignReport, LocalBackend};
use avf_service::{spawn_local, AuthKey, ServeOptions};
use avf_sim::MachineConfig;

fn workers(n: usize, key: Option<AuthKey>) -> Vec<String> {
    (0..n)
        .map(|_| {
            spawn_local(ServeOptions {
                threads: 1,
                auth: key,
                ..ServeOptions::default()
            })
            .expect("spawn worker")
            .to_string()
        })
        .collect()
}

fn tmp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("avf-broker-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("campaigns.log")
}

fn config(seed: u64, injections: u64) -> CampaignConfig {
    CampaignConfig {
        injections,
        seed,
        threads: 1,
        instr_budget: 3_000,
        batch_size: 64,
        ..CampaignConfig::default()
    }
}

fn spec(seed: u64, injections: u64) -> CampaignSpec {
    CampaignSpec::from_config(
        MachineConfig::baseline(),
        avf_workloads::testkit::idle_loop(),
        &config(seed, injections),
    )
}

/// A direct same-seed run on the local backend — the reference every
/// brokered report must match.
fn direct_report(seed: u64, injections: u64) -> CampaignReport {
    let machine = MachineConfig::baseline();
    let program = avf_workloads::testkit::idle_loop();
    Campaign::new(&machine, &program, config(seed, injections))
        .run_on(&LocalBackend::new(1))
        .expect("direct run")
}

/// The venue-independent part of a rendered report: everything except
/// the worker count, the re-dispatch note, and the throughput figure.
fn fingerprint(report: &CampaignReport) -> String {
    report
        .to_string()
        .lines()
        .filter(|l| !l.contains("re-dispatched"))
        .map(|l| {
            let l = if l.contains("inj/s") {
                l.rsplit_once(" (").map_or(l, |(head, _)| head)
            } else {
                l
            };
            l.split(", ")
                .filter(|tok| !tok.ends_with("worker(s)"))
                .collect::<Vec<_>>()
                .join(", ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn two_tenants_submit_concurrently_and_reports_match_direct_runs() {
    let opts = BrokerOptions {
        workers: workers(2, None),
        store_path: tmp_store("two-tenants"),
        ..BrokerOptions::default()
    };
    let broker = Broker::start(opts).unwrap();
    let addr = broker.spawn_local().unwrap().to_string();

    let jobs = [("team-a", 42, 200), ("team-b", 7, 150)];
    let handles: Vec<_> = jobs
        .map(|(tenant, seed, injections)| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = BrokerClient::connect(&addr, tenant, None).expect("connect");
                assert_eq!(client.workers(), 2);
                let id = client.submit(&spec(seed, injections)).expect("submit");
                client.wait(id).expect("report")
            })
        })
        .into_iter()
        .collect();
    for (handle, (_, seed, injections)) in handles.into_iter().zip(jobs) {
        let brokered = handle.join().expect("tenant thread");
        assert_eq!(
            fingerprint(&brokered),
            fingerprint(&direct_report(seed, injections)),
            "brokered report diverged from the direct same-seed run"
        );
    }
    let metrics = broker.render_metrics();
    assert!(metrics.contains("avf_broker_accepted_total 2"), "{metrics}");
    assert!(
        metrics.contains("avf_broker_completed_total 2"),
        "{metrics}"
    );
}

#[test]
fn interactive_brokered_backend_matches_direct_run() {
    let opts = BrokerOptions {
        workers: workers(2, None),
        store_path: tmp_store("interactive"),
        ..BrokerOptions::default()
    };
    let broker = Broker::start(opts).unwrap();
    let addr = broker.spawn_local().unwrap().to_string();

    let machine = MachineConfig::baseline();
    let program = avf_workloads::testkit::idle_loop();
    let backend = BrokeredBackend::connect(&addr, "team-ix", None).expect("connect");
    let brokered = Campaign::new(&machine, &program, config(13, 180))
        .run_on(&backend)
        .expect("brokered run");
    assert_eq!(brokered.workers, 2, "report must record the fleet size");
    assert_eq!(fingerprint(&brokered), fingerprint(&direct_report(13, 180)));
    assert!(
        broker
            .render_metrics()
            .contains("avf_broker_mux_sessions_total 1"),
        "interactive session must be counted"
    );
}

/// Regression: a finished interactive session must release its
/// scheduler slot. With one slot and three back-to-back campaigns on
/// one persistent connection, a leaked slot deadlocks campaign two.
#[test]
fn sequential_interactive_campaigns_release_their_slots() {
    let opts = BrokerOptions {
        workers: workers(1, None),
        store_path: tmp_store("sequential"),
        max_running: 1,
        ..BrokerOptions::default()
    };
    let broker = Broker::start(opts).unwrap();
    let addr = broker.spawn_local().unwrap().to_string();

    let machine = MachineConfig::baseline();
    let program = avf_workloads::testkit::idle_loop();
    let backend = BrokeredBackend::connect(&addr, "serial", None).expect("connect");
    for (seed, injections) in [(2, 120), (3, 96), (4, 80)] {
        let report = Campaign::new(&machine, &program, config(seed, injections))
            .run_on(&backend)
            .expect("sequential brokered run");
        assert_eq!(
            fingerprint(&report),
            fingerprint(&direct_report(seed, injections))
        );
    }
}

#[test]
fn restarted_broker_requeues_unfinished_campaigns_and_attach_gets_the_report() {
    // Simulate a broker that accepted a campaign and crashed before
    // running it: the durable log holds Accepted with no terminal
    // record.
    let store_path = tmp_store("restart");
    {
        let (mut store, _) = CampaignStore::open(&store_path).unwrap();
        store
            .append(&LogRecord::Accepted {
                id: 5,
                tenant: "team-r".to_owned(),
                spec: Box::new(spec(21, 160)),
            })
            .unwrap();
    }
    let opts = BrokerOptions {
        workers: workers(2, None),
        store_path: store_path.clone(),
        ..BrokerOptions::default()
    };
    let broker = Broker::start(opts).unwrap();
    let addr = broker.spawn_local().unwrap().to_string();

    // Attach from a fresh connection — the original submitter is long
    // gone. The re-run must produce the identical report.
    let mut client = BrokerClient::connect(&addr, "team-r", None).expect("connect");
    client.attach(5).expect("attach");
    let report = client.wait(5).expect("report after restart");
    assert_eq!(fingerprint(&report), fingerprint(&direct_report(21, 160)));

    // The terminal record is durable now: a second restart serves the
    // stored report without re-running (same fingerprint either way,
    // but the id space must continue past the replayed campaign).
    let opts = BrokerOptions {
        workers: workers(1, None),
        store_path,
        ..BrokerOptions::default()
    };
    let broker2 = Broker::start(opts).unwrap();
    let addr2 = broker2.spawn_local().unwrap().to_string();
    let mut client2 = BrokerClient::connect(&addr2, "team-r", None).expect("connect");
    client2.attach(5).expect("attach");
    let stored = client2.wait(5).expect("stored report");
    assert_eq!(fingerprint(&stored), fingerprint(&report));
    let id = client2.submit(&spec(3, 96)).expect("submit after restart");
    assert!(id > 5, "id space must continue past replayed campaigns");
}

#[test]
fn admission_rejections_are_typed() {
    let opts = BrokerOptions {
        workers: workers(1, None),
        store_path: tmp_store("admission"),
        max_running: 1,
        per_tenant_pending: 1,
        max_pending: 2,
        ..BrokerOptions::default()
    };
    let broker = Broker::start(opts).unwrap();
    let addr = broker.spawn_local().unwrap().to_string();
    let mut client = BrokerClient::connect(&addr, "greedy", None).expect("connect");

    // Saturate: one campaign runs (or queues), then fill the tenant
    // quota. Submitting past it must reject typed, leaving earlier
    // campaigns unharmed.
    let first = client.submit(&spec(1, 200)).expect("first submit");
    let mut ids = vec![first];
    let mut quota_hit = false;
    for seed in 2..8 {
        match client.submit(&spec(seed, 200)) {
            Ok(id) => ids.push(id),
            Err(SubmitError::Rejected { reason, detail }) => {
                assert!(
                    matches!(
                        reason,
                        RejectReason::QuotaExceeded | RejectReason::QueueFull
                    ),
                    "unexpected reason {reason:?}"
                );
                assert!(!detail.is_empty());
                quota_hit = true;
                break;
            }
            Err(e) => panic!("expected a typed rejection, got {e}"),
        }
    }
    assert!(quota_hit, "admission limits never engaged");
    // Every admitted campaign still completes.
    for id in ids {
        client.wait(id).expect("admitted campaign must finish");
    }
    assert!(
        broker
            .render_metrics()
            .contains("avf_broker_rejected_total"),
        "rejections must be counted"
    );
}

#[test]
fn wrong_key_driver_is_rejected_typed_and_right_key_works() {
    let key = AuthKey::from_hex("00112233445566778899aabbccddeeff").unwrap();
    let wrong = AuthKey::from_hex("ffeeddccbbaa99887766554433221100").unwrap();
    let opts = BrokerOptions {
        workers: workers(1, Some(key)),
        auth: Some(key),
        store_path: tmp_store("auth"),
        ..BrokerOptions::default()
    };
    let broker = Broker::start(opts).unwrap();
    let addr = broker.spawn_local().unwrap().to_string();

    // Wrong key: the broker must refuse the session with a typed
    // error — never a hang, never a panic.
    let err = BrokerClient::connect(&addr, "mallory", Some(wrong))
        .err()
        .expect("wrong key must not authenticate");
    let msg = err.to_string();
    assert!(!msg.is_empty());
    assert!(
        broker
            .render_metrics()
            .contains("avf_broker_auth_rejects_total 1"),
        "auth reject must be counted"
    );

    // Right key: full campaign over the authenticated path, still
    // bit-identical to the plain direct run (auth wraps frames, it
    // does not touch trial semantics).
    let mut client = BrokerClient::connect(&addr, "alice", Some(key)).expect("connect");
    let id = client.submit(&spec(5, 120)).expect("submit");
    let report = client.wait(id).expect("report");
    assert_eq!(fingerprint(&report), fingerprint(&direct_report(5, 120)));
}

/// A scripted broker: acknowledges the hello, answers the campaign
/// setup with a fabricated `JOB_READY`, then replies to the first trial
/// batch with `replies` (each MUX-wrapped under the session's tag).
fn scripted_broker(replies: Vec<Vec<u8>>) -> String {
    use avf_service::frame::{read_frame, write_frame};
    use avf_service::protocol::{JobReady, Mux, ServerMessage};
    use std::io::Write;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake broker");
    let addr = listener.local_addr().expect("local addr").to_string();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = std::io::BufReader::new(&stream);
        let mut w = std::io::BufWriter::new(&stream);
        let _hello = read_frame(&mut reader).expect("hello").expect("hello");
        write_frame(
            &mut w,
            &avf_broker::Reply::HelloAck { workers: 1 }.to_wire(),
        )
        .unwrap();
        w.flush().unwrap();
        let setup = Mux::from_wire(&read_frame(&mut reader).unwrap().unwrap()).unwrap();
        let ready = ServerMessage::Ready {
            ready: JobReady {
                store_hash: 0,
                golden: avf_sim::GoldenRun {
                    cycles: 5_000,
                    committed: 4_000,
                    digest: 0x1234,
                },
                checkpoints: 1,
                prune: None,
            },
            source: avf_inject::StoreSource::GoldenRun,
        };
        write_frame(&mut w, &Mux::wrap(setup.tag, ready.to_wire()).to_wire()).unwrap();
        w.flush().unwrap();
        let _batch = read_frame(&mut reader).unwrap().unwrap();
        for reply in replies {
            write_frame(&mut w, &Mux::wrap(setup.tag, reply).to_wire()).unwrap();
        }
        w.flush().unwrap();
        // Hold the connection until the driver's end-of-session marker.
        let _ = read_frame(&mut reader);
    });
    addr
}

#[test]
fn brokered_campaign_rejects_a_duplicated_event() {
    use avf_inject::{BackendError, CampaignBackend, JobSpec, Outcome, Trial};
    use avf_inject::{FaultModel, TrialEvent};
    use avf_service::protocol::ServerMessage;
    use avf_sim::InjectionTarget;

    // Trial 0's event arrives twice and trial 1's never does; the
    // count still adds up to the batch size, so only a per-index
    // acknowledgement catches it.
    let event = TrialEvent {
        index: 0,
        target: InjectionTarget::Rob,
        outcome: Outcome::Sdc,
    };
    let addr = scripted_broker(vec![
        ServerMessage::Event(event).to_wire(),
        ServerMessage::Event(event).to_wire(),
        ServerMessage::Done { events: 2 }.to_wire(),
    ]);
    let backend = BrokeredBackend::connect(&addr, "dup", None).expect("hello");
    let opened = backend
        .open(JobSpec {
            machine: MachineConfig::baseline(),
            program: avf_workloads::testkit::register_chain(),
            instr_budget: 6_000,
            fault_model: FaultModel::default(),
            checkpoint_interval: 512,
            prune: false,
        })
        .expect("setup");
    let mut session = opened.session;
    let trials: Vec<Trial> = (0..2)
        .map(|index| Trial {
            index,
            target: InjectionTarget::Rob,
            cycle: 1 + index,
            entry: 0,
            bit: 0,
        })
        .collect();
    let results: Vec<_> = session.submit(&trials).expect("submit").collect();
    assert_eq!(results.len(), 2, "one event, then the typed error");
    assert!(results[0].as_ref().is_ok_and(|ev| ev.index == 0));
    match &results[1] {
        Err(BackendError::Protocol(msg)) => assert!(msg.contains("item 0"), "{msg}"),
        other => panic!("expected Protocol, got {other:?}"),
    }
}
