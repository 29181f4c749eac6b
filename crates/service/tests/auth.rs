//! Negative-path validation of keyed-frame authentication over real
//! TCP sessions, plus wire-version skew.
//!
//! The unit tests in `avf_service::auth` prove the tag construction
//! rejects what it must; these tests prove a *live worker* holds the
//! line: every rejected frame surfaces as a typed error on the driver
//! side, moves the worker's `auth_rejects`/`sessions_failed` counters,
//! and never takes the worker down — a subsequent well-formed session
//! on the same process must still succeed. The frame writers are
//! checked to agree byte for byte, signed and plain.

use std::io::{BufReader, BufWriter, Cursor, Write};
use std::net::TcpStream;
use std::sync::Arc;

use avf_inject::{BackendError, Campaign, CampaignConfig, JobSpec, LocalBackend};
use avf_service::auth::{read_frame_verified, write_frame_signed, ConnectionAuth, AUTH_TAG_BYTES};
use avf_service::frame::{read_frame, write_frame, FrameBatcher, MAX_FRAME_BYTES};
use avf_service::protocol::ServerMessage;
use avf_service::{spawn_local, AuthKey, RemoteBackend, ServeOptions};
use avf_sim::MachineConfig;
use avf_workloads::testkit::register_chain;

mod common;
use common::assert_reports_identical;

fn key() -> AuthKey {
    AuthKey::from_hex("00112233445566778899aabbccddeeff").unwrap()
}

fn wrong_key() -> AuthKey {
    AuthKey::from_hex("ffeeddccbbaa99887766554433221100").unwrap()
}

fn keyed_options() -> ServeOptions {
    ServeOptions {
        threads: 1,
        auth: Some(key()),
        ..ServeOptions::default()
    }
}

fn small_config() -> CampaignConfig {
    CampaignConfig {
        injections: 64,
        seed: 17,
        threads: 1,
        instr_budget: 4_000,
        batch_size: 32,
        ..CampaignConfig::default()
    }
}

fn delegated_setup() -> JobSpec {
    JobSpec {
        machine: MachineConfig::baseline(),
        program: register_chain(),
        instr_budget: 4_000,
        fault_model: avf_inject::FaultModel::default(),
        prune: false,
        checkpoint_interval: 512,
    }
}

/// Runs a small campaign with the right key against `addr` and checks
/// it matches the local reference — the "worker still works" probe
/// every negative test ends with.
fn assert_worker_still_healthy(addr: &std::net::SocketAddr) {
    let machine = MachineConfig::baseline();
    let program = register_chain();
    let local = Campaign::new(&machine, &program, small_config())
        .run_on(&LocalBackend::new(1))
        .expect("local reference");
    let keyed = Campaign::new(&machine, &program, small_config())
        .run_on(&RemoteBackend::with_auth(vec![addr.to_string()], key()))
        .expect("authenticated campaign after the attack");
    assert_reports_identical(&local, &keyed);
}

#[test]
fn wrong_key_driver_gets_a_typed_error_and_the_worker_survives() {
    let opts = keyed_options();
    let stats = std::sync::Arc::clone(&opts.stats);
    let addr = spawn_local(opts).expect("keyed worker");

    let backend = RemoteBackend::with_auth(vec![addr.to_string()], wrong_key());
    let err = Campaign::new(
        &MachineConfig::baseline(),
        &register_chain(),
        small_config(),
    )
    .run_on(&backend)
    .expect_err("wrong key must not authenticate");
    // The driver sees a typed error — its own verifier rejects the
    // worker's (differently-keyed) error frame, or the transport drops.
    // What it must never see is a hang, a panic, or a report.
    assert!(
        matches!(
            err,
            BackendError::Auth(_) | BackendError::Remote(_) | BackendError::Disconnected { .. }
        ),
        "expected a typed rejection, got {err}"
    );
    assert!(
        stats
            .auth_rejects
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1,
        "the worker must count the auth reject"
    );
    assert_worker_still_healthy(&addr);
}

#[test]
fn plain_driver_to_keyed_worker_is_rejected_not_hung() {
    let opts = keyed_options();
    let stats = std::sync::Arc::clone(&opts.stats);
    let addr = spawn_local(opts).expect("keyed worker");

    // An unauthenticated driver: under the tag-inside-length layout the
    // worker consumes the whole plain frame and rejects it typed.
    let backend = RemoteBackend::new(vec![addr.to_string()]);
    let err = Campaign::new(
        &MachineConfig::baseline(),
        &register_chain(),
        small_config(),
    )
    .run_on(&backend)
    .expect_err("plain frames must not pass a keyed worker");
    // The worker's signed error frame carries 8 tag bytes the plain
    // reader cannot strip, so the driver surfaces the mismatch as a
    // wire decode error ("trailing bytes") — typed, and identifiable
    // as a keyed/plain mismatch per the auth module docs.
    assert!(
        matches!(
            err,
            BackendError::Wire(_) | BackendError::Remote(_) | BackendError::Disconnected { .. }
        ),
        "expected a typed rejection, got {err}"
    );
    assert!(
        stats
            .auth_rejects
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1,
        "the worker must count the auth reject"
    );
    assert_worker_still_healthy(&addr);
}

#[test]
fn truncated_tag_kills_only_that_session() {
    let opts = keyed_options();
    let stats = std::sync::Arc::clone(&opts.stats);
    let addr = spawn_local(opts).expect("keyed worker");

    // Sign a real setup frame, then deliver all but the last 3 tag
    // bytes and slam the connection: the worker sees transport
    // truncation, fails the session, and must not take down the
    // process.
    let auth = ConnectionAuth::client(key());
    let mut bytes = Vec::new();
    write_frame_signed(&mut bytes, &delegated_setup().to_wire(), Some(&auth.signer)).unwrap();
    bytes.truncate(bytes.len() - 3);
    let stream = TcpStream::connect(addr).unwrap();
    let mut w = BufWriter::new(&stream);
    w.write_all(&bytes).unwrap();
    w.flush().unwrap();
    drop(w);
    drop(stream); // close mid-frame

    // The failure is asynchronous to the drop; poll the counter.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while stats
        .sessions_failed
        .load(std::sync::atomic::Ordering::Relaxed)
        == 0
    {
        assert!(
            std::time::Instant::now() < deadline,
            "worker never registered the truncated session"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_worker_still_healthy(&addr);
}

#[test]
fn replayed_setup_frame_is_rejected_after_the_original_verifies() {
    let opts = keyed_options();
    let stats = std::sync::Arc::clone(&opts.stats);
    let addr = spawn_local(opts).expect("keyed worker");

    // Byte-identical re-send of a frame that *did* verify: the second
    // copy hits the worker's advanced sequence counter.
    let auth = ConnectionAuth::client(key());
    let mut signed = Vec::new();
    write_frame_signed(
        &mut signed,
        &delegated_setup().to_wire(),
        Some(&auth.signer),
    )
    .unwrap();
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(&stream);
    let mut w = BufWriter::new(&stream);
    w.write_all(&signed).unwrap();
    w.flush().unwrap();
    // The original authenticates: the worker runs its golden pass and
    // answers Ready.
    let first = read_frame(&mut reader)
        .expect("setup reply")
        .expect("frame");
    assert!(!first.is_empty());
    // Now the replay, in place of the trial batch the worker expects.
    w.write_all(&signed).unwrap();
    w.flush().unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while stats
        .auth_rejects
        .load(std::sync::atomic::Ordering::Relaxed)
        == 0
    {
        assert!(
            std::time::Instant::now() < deadline,
            "worker never rejected the replayed frame"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_worker_still_healthy(&addr);
}

#[test]
fn wire_version_skew_is_a_typed_mismatch_not_a_decode_panic() {
    let addr = spawn_local(ServeOptions {
        threads: 1,
        ..ServeOptions::default()
    })
    .expect("plain worker");

    // A well-formed frame whose envelope announces the previous wire
    // version — the exact shape an old driver would send a new fleet.
    let mut payload = delegated_setup().to_wire();
    assert_eq!(payload[4], avf_isa::wire::WIRE_VERSION);
    payload[4] = avf_isa::wire::WIRE_VERSION - 1;
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(&stream);
    let mut w = BufWriter::new(&stream);
    write_frame(&mut w, &payload).unwrap();
    w.flush().unwrap();

    // The worker must answer with a typed error frame naming the
    // version mismatch — decoding must not panic the session handler.
    let reply = read_frame(&mut reader)
        .expect("error frame")
        .expect("frame");
    match ServerMessage::from_wire(&reply).expect("decodable reply") {
        ServerMessage::Error(msg) => {
            assert!(
                msg.contains("version"),
                "the error must name the version skew: {msg}"
            );
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
}

/// Writes `payloads` through a [`FrameBatcher`] and, separately, one
/// [`write_frame_signed`] call each, each writer signing with its own
/// fresh client half when `keyed`; returns both byte streams.
fn both_writers(payloads: &[Vec<u8>], keyed: bool) -> (Vec<u8>, Vec<u8>) {
    let batched_auth = keyed.then(|| ConnectionAuth::client(key()));
    let direct_auth = keyed.then(|| ConnectionAuth::client(key()));
    let mut batched = Vec::new();
    let mut b = FrameBatcher::new(&mut batched)
        .with_signer(batched_auth.as_ref().map(|a| Arc::clone(&a.signer)));
    for p in payloads {
        b.push(p).unwrap();
    }
    b.flush().unwrap();
    drop(b);
    let mut direct = Vec::new();
    for p in payloads {
        let signer = direct_auth.as_ref().map(|a| a.signer.as_ref());
        write_frame_signed(&mut direct, p, signer).unwrap();
    }
    (batched, direct)
}

#[test]
fn frame_writers_agree_byte_for_byte() {
    let payloads = vec![
        b"alpha".to_vec(),
        Vec::new(),
        vec![7u8; 1000],
        delegated_setup().to_wire(),
    ];
    let (batched, direct) = both_writers(&payloads, false);
    assert_eq!(batched, direct, "plain frames differ");
    let mut plain = Vec::new();
    for p in &payloads {
        write_frame(&mut plain, p).unwrap();
    }
    assert_eq!(
        direct, plain,
        "an unsigned write_frame_signed is write_frame"
    );

    let (batched, direct) = both_writers(&payloads, true);
    assert_eq!(batched, direct, "signed frames differ");
    assert_eq!(
        direct.len(),
        plain.len() + payloads.len() * AUTH_TAG_BYTES,
        "each signed frame carries one tag inside its length"
    );
    let server = ConnectionAuth::server(key());
    let mut r = Cursor::new(direct);
    for p in &payloads {
        let got = read_frame_verified(&mut r, Some(&server.verifier)).unwrap();
        assert_eq!(got.as_ref(), Some(p));
    }
}

#[test]
fn oversized_frames_are_rejected_by_both_writers_without_consuming_a_sequence_number() {
    // Fits unsigned, but not with its tag: only a signed writer must
    // reject it. The zeroed buffer is never touched, so it costs no
    // resident memory.
    let huge = vec![0u8; MAX_FRAME_BYTES as usize - AUTH_TAG_BYTES + 1];
    let oversized = BackendError::Oversized {
        len: u64::from(MAX_FRAME_BYTES) + 1,
        max: u64::from(MAX_FRAME_BYTES),
    };

    let batched_auth = ConnectionAuth::client(key());
    let mut batched = Vec::new();
    let mut b = FrameBatcher::new(&mut batched).with_signer(Some(Arc::clone(&batched_auth.signer)));
    assert_eq!(b.push(&huge), Err(oversized.clone()));
    b.push(b"next").unwrap();
    b.flush().unwrap();
    drop(b);

    let direct_auth = ConnectionAuth::client(key());
    let mut direct = Vec::new();
    assert_eq!(
        write_frame_signed(&mut direct, &huge, Some(&direct_auth.signer)),
        Err(oversized)
    );
    write_frame_signed(&mut direct, b"next", Some(&direct_auth.signer)).unwrap();

    assert_eq!(batched, direct, "nothing of the rejected frame was written");
    // The next frame still carries sequence number 0, so a fresh
    // verifier accepts it.
    for stream in [batched, direct] {
        let server = ConnectionAuth::server(key());
        let got = read_frame_verified(&mut Cursor::new(stream), Some(&server.verifier));
        assert_eq!(got, Ok(Some(b"next".to_vec())));
    }
}
