//! Failure-path validation of the distributed campaign service.
//!
//! The acceptance bar of the fault-tolerance work: a campaign whose
//! worker dies mid-batch must complete on the survivors with a
//! [`CampaignReport`] *bit-identical* to the fault-free run at the
//! same seed — outcomes are pure functions of each planned trial, so
//! re-dispatching a dead worker's unacknowledged trials changes where
//! work ran, never what it measured. Alongside that, the failure
//! taxonomy itself: a connection that dies (clean close or truncation
//! mid-frame) must surface as the typed, retryable
//! [`BackendError::Disconnected`], distinct from a worker-*reported*
//! `SERVICE_ERROR` (fatal [`BackendError::Remote`]) and from protocol
//! violations — never as a decode panic.
//!
//! [`CampaignReport`]: avf_inject::CampaignReport

use std::io::Write;
use std::net::{TcpListener, TcpStream};

use avf_inject::{BackendError, CampaignBackend};
use avf_inject::{
    Campaign, CampaignConfig, GoldenSpec, JobSpec, LocalBackend, Outcome, Trial, TrialEvent,
};
use avf_service::{spawn_local, RemoteBackend, ServeOptions};
use avf_sim::{GoldenRun, InjectionTarget, MachineConfig};
use avf_workloads::testkit::register_chain;

mod common;
use common::assert_reports_identical;

fn adaptive_config() -> CampaignConfig {
    CampaignConfig {
        injections: 400,
        seed: 11,
        threads: 1,
        instr_budget: 6_000,
        ci_target: Some(0.14),
        batch_size: 64,
        ..CampaignConfig::default()
    }
}

#[test]
fn worker_death_mid_batch_redispatches_and_stays_bit_identical() {
    let machine = MachineConfig::baseline();
    let program = register_chain();
    let config = adaptive_config();

    // The fault-free reference at the same seed.
    let clean = Campaign::new(&machine, &program, config.clone())
        .run_on(&LocalBackend::new(1))
        .expect("fault-free run");
    assert!(
        clean.batches.len() >= 2,
        "the scenario needs a second batch for the fault to land in"
    );

    // Worker B aborts its connection midway through batch 1 (after the
    // first streamed batch); worker A survives the whole campaign.
    let a = spawn_local(ServeOptions {
        threads: 1,
        ..ServeOptions::default()
    })
    .expect("healthy worker");
    let b = spawn_local(ServeOptions {
        threads: 1,
        die_mid_batch: Some(1),
        ..ServeOptions::default()
    })
    .expect("doomed worker");
    let backend = RemoteBackend::new(vec![a.to_string(), b.to_string()]);
    let survived = Campaign::new(&machine, &program, config)
        .run_on(&backend)
        .expect("campaign must survive one worker death");

    assert_reports_identical(&clean, &survived);
    assert!(
        survived.redispatched_trials() > 0,
        "the injected fault must actually have fired"
    );
    let redispatches: Vec<_> = survived
        .dispatches
        .iter()
        .filter(|d| d.redispatched)
        .collect();
    assert!(
        redispatches.iter().all(|d| d.worker == a.to_string()),
        "re-dispatched shards must land on the survivor: {redispatches:?}"
    );
    assert!(
        redispatches.iter().all(|d| d.batch == 1),
        "the fault was injected in batch 1: {redispatches:?}"
    );
    // Batches after the death go to the survivor only.
    assert!(
        survived
            .dispatches
            .iter()
            .filter(|d| d.batch > 1)
            .all(|d| d.worker == a.to_string()),
        "a dead worker must not be dispatched to again"
    );
}

#[test]
fn losing_every_worker_is_a_typed_disconnect_not_a_panic() {
    let machine = MachineConfig::baseline();
    let program = register_chain();
    let mut config = adaptive_config();
    config.threads = 1;

    // The only worker dies during the first batch: nothing remains to
    // re-dispatch to, so the campaign fails with the typed
    // connection-death error.
    let addr = spawn_local(ServeOptions {
        threads: 1,
        die_mid_batch: Some(0),
        ..ServeOptions::default()
    })
    .expect("doomed worker");
    let backend = RemoteBackend::new(vec![addr.to_string()]);
    let err = Campaign::new(&machine, &program, config)
        .run_on(&backend)
        .expect_err("no survivor means no campaign");
    assert!(
        matches!(err, BackendError::Disconnected { .. }),
        "expected Disconnected, got {err}"
    );
}

/// A scripted fake worker: accepts one connection, performs the setup
/// handshake with a fabricated golden run, then hands the connection to
/// `batch_script` once the first trial batch arrives.
fn scripted_worker(
    batch_script: impl FnOnce(&TcpStream, &[u8]) + Send + 'static,
) -> std::net::SocketAddr {
    use avf_service::frame::{read_frame, write_frame};
    use avf_service::protocol::{JobReady, ServerMessage};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake worker");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = std::io::BufReader::new(&stream);
        let _setup = read_frame(&mut reader)
            .expect("setup frame")
            .expect("setup");
        let ready = JobReady {
            store_hash: 0xFA4E,
            golden: GoldenRun {
                cycles: 5_000,
                committed: 4_000,
                digest: 0x1234,
            },
            checkpoints: 1,
            prune: None,
        };
        let mut w = std::io::BufWriter::new(&stream);
        let reply = ServerMessage::Ready {
            ready,
            source: avf_inject::StoreSource::GoldenRun,
        };
        write_frame(&mut w, &reply.to_wire()).unwrap();
        w.flush().unwrap();
        drop(w);
        let batch = read_frame(&mut reader)
            .expect("batch frame")
            .expect("batch");
        drop(reader);
        batch_script(&stream, &batch);
    });
    addr
}

fn delegated_spec() -> JobSpec {
    JobSpec {
        machine: MachineConfig::baseline(),
        program: register_chain(),
        instr_budget: 6_000,
        fault_model: avf_inject::FaultModel::default(),
        golden: GoldenSpec::Delegated {
            checkpoint_interval: 512,
        },
        prune: false,
    }
}

fn two_trials() -> Vec<Trial> {
    (0..2)
        .map(|index| Trial {
            index,
            target: InjectionTarget::Rob,
            cycle: 1 + index,
            entry: 0,
            bit: 0,
        })
        .collect()
}

// ------------------------------------------------------------- broker paths

/// Broker-routed failure scenarios: the broker owns campaign execution,
/// so a *driver* death must not cost any work — the campaign finishes
/// on the fleet and a later `attach` (same tenant, new connection)
/// retrieves the identical report from the durable log.
#[test]
fn driver_death_mid_campaign_loses_nothing_and_attach_gets_the_report() {
    use avf_broker::{Broker, BrokerClient, BrokerOptions, CampaignSpec};

    let machine = MachineConfig::baseline();
    let program = register_chain();
    let config = adaptive_config();
    let clean = Campaign::new(&machine, &program, config.clone())
        .run_on(&LocalBackend::new(1))
        .expect("fault-free reference");

    let worker = spawn_local(ServeOptions {
        threads: 1,
        ..ServeOptions::default()
    })
    .expect("worker");
    let store = std::env::temp_dir().join(format!(
        "avf-resilience-driver-death-{}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store);
    let broker = Broker::start(BrokerOptions {
        workers: vec![worker.to_string()],
        store_path: store,
        ..BrokerOptions::default()
    })
    .expect("broker");
    let addr = broker.spawn_local().expect("broker addr").to_string();

    // Submit, then die: drop the client the moment the campaign is
    // accepted, exactly like a driver process being killed.
    let id = {
        let mut doomed = BrokerClient::connect(&addr, "mortal", None).expect("connect");
        doomed
            .submit(&CampaignSpec::from_config(
                machine.clone(),
                program.clone(),
                &config,
            ))
            .expect("submit")
        // `doomed` drops here — the TCP connection closes.
    };

    // A brand-new connection attaches by id and collects the report.
    let mut heir = BrokerClient::connect(&addr, "mortal", None).expect("reconnect");
    heir.attach(id).expect("attach");
    let recovered = heir.wait(id).expect("report despite the driver death");
    assert_reports_identical(&clean, &recovered);
}

/// Queue overflow is an *admission* failure: the driver gets a typed
/// rejection naming the limit, and campaigns already admitted — and the
/// workers running them — are completely undisturbed.
#[test]
fn queue_overflow_rejects_typed_without_disrupting_admitted_work() {
    use avf_broker::{
        Broker, BrokerClient, BrokerOptions, CampaignSpec, RejectReason, SubmitError,
    };

    let machine = MachineConfig::baseline();
    let program = register_chain();
    let config = adaptive_config();

    let worker = spawn_local(ServeOptions {
        threads: 1,
        ..ServeOptions::default()
    })
    .expect("worker");
    let store = std::env::temp_dir().join(format!(
        "avf-resilience-overflow-{}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store);
    let broker = Broker::start(BrokerOptions {
        workers: vec![worker.to_string()],
        store_path: store,
        max_running: 1,
        per_tenant_pending: 1,
        max_pending: 1,
        ..BrokerOptions::default()
    })
    .expect("broker");
    let addr = broker.spawn_local().expect("broker addr").to_string();

    let mut client = BrokerClient::connect(&addr, "flood", None).expect("connect");
    let spec = CampaignSpec::from_config(machine.clone(), program.clone(), &config);
    let first = client.submit(&spec).expect("first submit admitted");
    let mut admitted = vec![first];
    let mut rejected = false;
    for _ in 0..8 {
        match client.submit(&spec) {
            Ok(id) => admitted.push(id),
            Err(SubmitError::Rejected { reason, detail }) => {
                assert!(
                    matches!(
                        reason,
                        RejectReason::QuotaExceeded | RejectReason::QueueFull
                    ),
                    "unexpected rejection reason {reason:?}"
                );
                assert!(!detail.is_empty(), "the rejection must name the limit");
                rejected = true;
                break;
            }
            Err(other) => panic!("expected a typed admission rejection, got {other}"),
        }
    }
    assert!(rejected, "the admission limits never engaged");

    // Everything admitted before the overflow still completes, and the
    // reports are the fault-free ones — the flood touched nothing.
    let clean = Campaign::new(&machine, &program, config)
        .run_on(&LocalBackend::new(1))
        .expect("fault-free reference");
    for id in admitted {
        let report = client.wait(id).expect("admitted campaign completes");
        assert_reports_identical(&clean, &report);
    }
}

#[test]
fn frame_truncation_mid_stream_is_disconnected_not_a_decode_panic() {
    use avf_service::frame::write_frame;
    use avf_service::protocol::ServerMessage;

    // After one good event, the worker emits a frame header promising
    // 100 bytes, delivers 10, and drops dead.
    let addr = scripted_worker(|stream, _batch| {
        let mut w = std::io::BufWriter::new(stream);
        let event = TrialEvent {
            index: 0,
            target: InjectionTarget::Rob,
            outcome: Outcome::Masked,
        };
        write_frame(&mut w, &ServerMessage::Event(event).to_wire()).unwrap();
        w.write_all(&100u32.to_le_bytes()).unwrap();
        w.write_all(&[0u8; 10]).unwrap();
        w.flush().unwrap();
        // Dropping the stream here closes the socket mid-frame.
    });

    let backend = RemoteBackend::new(vec![addr.to_string()]);
    let opened = backend.open(delegated_spec()).expect("handshake");
    let mut session = opened.session;
    let results: Vec<_> = session.submit(&two_trials()).expect("submit").collect();
    assert_eq!(results.len(), 2, "one event, then the typed error");
    assert!(results[0].as_ref().is_ok_and(|ev| ev.index == 0));
    match &results[1] {
        Err(BackendError::Disconnected { detail, .. }) => {
            assert!(detail.contains("frame"), "names the truncation: {detail}");
        }
        other => panic!("expected Disconnected, got {other:?}"),
    }
}

#[test]
fn service_error_mid_stream_is_remote_and_never_redispatched() {
    use avf_service::frame::write_frame;
    use avf_service::protocol::ServerMessage;

    // The worker is alive and *reports* a failure: that is fatal — the
    // driver must not mistake it for connection death and retry it
    // elsewhere, which could mask a real job-level problem.
    let addr = scripted_worker(|stream, _batch| {
        let mut w = std::io::BufWriter::new(stream);
        write_frame(
            &mut w,
            &ServerMessage::Error("checkpoint decode exploded".to_owned()).to_wire(),
        )
        .unwrap();
        w.flush().unwrap();
    });

    let backend = RemoteBackend::new(vec![addr.to_string()]);
    let opened = backend.open(delegated_spec()).expect("handshake");
    let mut session = opened.session;
    let results: Vec<_> = session.submit(&two_trials()).expect("submit").collect();
    assert_eq!(results.len(), 1);
    match &results[0] {
        Err(BackendError::Remote(msg)) => assert!(msg.contains("exploded"), "{msg}"),
        other => panic!("expected Remote, got {other:?}"),
    }
}
