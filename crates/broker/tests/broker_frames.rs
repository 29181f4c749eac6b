//! Hostile bytes against the broker plane: the driver's [`Request`]s
//! (hello, a submit carrying a full [`CampaignSpec`], attach), the
//! broker's [`Reply`]s (a whole campaign report included) and the
//! durable log's [`LogRecord`]s, which a restarted broker reads back
//! from disk. Garbage, truncation and version skew must all come back
//! as a typed [`WireError`], never a panic; valid frames must
//! round-trip byte for byte. A log whose tail holds a well-framed but
//! undecodable record must replay up to it, drop it, and take appends
//! again.

use std::sync::OnceLock;

use avf_broker::{
    CampaignPhase, CampaignSpec, CampaignStore, LogRecord, RejectReason, Reply, Request,
};
use avf_inject::{Campaign, CampaignConfig, CampaignReport, FaultModel, PruneMode};
use avf_isa::wire::{kind, WireError, WIRE_MAGIC, WIRE_VERSION};
use avf_service::frame::write_frame;
use avf_sim::MachineConfig;
use avf_workloads::testkit::{idle_loop, register_chain};
use proptest::collection::vec;
use proptest::prelude::*;

fn any_byte() -> impl Strategy<Value = u8> {
    (0u16..256).prop_map(|b| b as u8)
}

/// One of 48 (machine, program, CI target, fault model, prune mode)
/// combinations, with the numeric knobs derived from `seed`.
fn spec(variant: usize, seed: u64) -> CampaignSpec {
    let machines = [MachineConfig::baseline(), MachineConfig::config_a()];
    let programs = [idle_loop(), register_chain()];
    let ci_targets = [None, Some(0.05 + (seed % 100) as f64 / 1_000.0)];
    let models = [FaultModel::Replay, FaultModel::Trap];
    let prunes = [PruneMode::Off, PruneMode::On, PruneMode::Audit];
    CampaignSpec {
        machine: machines[variant & 1].clone(),
        program: programs[(variant >> 1) & 1].clone(),
        injections: seed % 100_000,
        seed,
        instr_budget: seed.rotate_left(9),
        ci_target: ci_targets[(variant >> 2) & 1],
        batch_size: seed % 4096,
        checkpoint_interval: seed >> 40,
        fault_model: models[(variant >> 3) & 1],
        prune: prunes[(variant >> 4) % 3],
    }
}

/// A real report (targets, batches, provisioning and dispatches all
/// populated), from one small campaign run once.
fn report() -> &'static CampaignReport {
    static REPORT: OnceLock<CampaignReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let config = CampaignConfig {
            injections: 48,
            seed: 5,
            threads: 2,
            instr_budget: 2_000,
            ci_target: Some(0.2),
            batch_size: 16,
            ..CampaignConfig::default()
        };
        let report = Campaign::new(&MachineConfig::baseline(), &idle_loop(), config).run();
        assert!(report.batches.len() > 1 && !report.provisioning.is_empty());
        assert!(report.dispatches.len() > 1 && !report.targets.is_empty());
        report
    })
}

/// Which decoder a frame belongs to.
#[derive(Debug, Clone, Copy)]
enum Plane {
    Request,
    Reply,
    Log,
}

/// Decodes `bytes` as `plane` and re-encodes what came back.
fn round_trip(plane: Plane, bytes: &[u8]) -> Result<Vec<u8>, WireError> {
    match plane {
        Plane::Request => Request::from_wire(bytes).map(|m| m.to_wire()),
        Plane::Reply => Reply::from_wire(bytes).map(|m| m.to_wire()),
        Plane::Log => LogRecord::from_wire(bytes).map(|m| m.to_wire()),
    }
}

/// Runs every decoder over `bytes`; each must return, whatever it
/// returns.
fn decode_all(bytes: &[u8]) {
    let _ = Request::from_wire(bytes);
    let _ = Reply::from_wire(bytes);
    let _ = LogRecord::from_wire(bytes);
}

/// One valid frame of every broker-plane message, derived from `seed`.
fn frames(seed: u64) -> Vec<(Plane, Vec<u8>)> {
    let spec = || Box::new(spec(seed as usize, seed));
    let report = || Box::new(report().clone());
    let reason = [RejectReason::QuotaExceeded, RejectReason::QueueFull][(seed & 1) as usize];
    let phase = [
        CampaignPhase::Queued,
        CampaignPhase::Running,
        CampaignPhase::Done,
        CampaignPhase::Failed,
    ][(seed % 4) as usize];
    let text = format!("detail {seed}");
    vec![
        (
            Plane::Request,
            Request::Hello {
                tenant: format!("team-{seed}"),
            }
            .to_wire(),
        ),
        (Plane::Request, Request::Submit(spec()).to_wire()),
        (Plane::Request, Request::Attach { id: seed }.to_wire()),
        (Plane::Reply, Reply::HelloAck { workers: seed }.to_wire()),
        (Plane::Reply, Reply::Accepted { id: seed }.to_wire()),
        (
            Plane::Reply,
            Reply::Rejected {
                reason,
                detail: text.clone(),
            }
            .to_wire(),
        ),
        (
            Plane::Reply,
            Reply::Status {
                id: seed,
                phase,
                trials_done: !seed,
            }
            .to_wire(),
        ),
        (
            Plane::Reply,
            Reply::Report {
                id: seed,
                report: report(),
            }
            .to_wire(),
        ),
        (
            Plane::Reply,
            Reply::Failed {
                id: seed,
                error: text.clone(),
            }
            .to_wire(),
        ),
        (
            Plane::Log,
            LogRecord::Accepted {
                id: seed,
                tenant: format!("team-{seed}"),
                spec: spec(),
            }
            .to_wire(),
        ),
        (
            Plane::Log,
            LogRecord::Progress {
                id: seed,
                trials_done: seed >> 3,
            }
            .to_wire(),
        ),
        (
            Plane::Log,
            LogRecord::Report {
                id: seed,
                report: report(),
            }
            .to_wire(),
        ),
        (
            Plane::Log,
            LogRecord::Failed {
                id: seed,
                error: text,
            }
            .to_wire(),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_fail_typed(bytes in vec(any_byte(), 0..512)) {
        prop_assert!(Request::from_wire(&bytes).is_err());
        prop_assert!(Reply::from_wire(&bytes).is_err());
        prop_assert!(LogRecord::from_wire(&bytes).is_err());
    }

    #[test]
    fn garbage_behind_a_valid_envelope_never_panics(
        tail in vec(any_byte(), 0..512),
        which in 0usize..11,
    ) {
        // Past the envelope the decoders read attacker-chosen lengths,
        // tags and whole programs; whatever they return, they must
        // return.
        let kinds = [
            kind::BROKER_HELLO,
            kind::BROKER_SUBMIT,
            kind::BROKER_ATTACH,
            kind::BROKER_HELLO_ACK,
            kind::BROKER_ACCEPTED,
            kind::BROKER_REJECTED,
            kind::BROKER_STATUS,
            kind::BROKER_REPORT,
            kind::BROKER_FAILED,
            kind::LOG_ACCEPTED,
            kind::LOG_PROGRESS,
        ];
        let mut bytes = Vec::from(WIRE_MAGIC);
        bytes.push(WIRE_VERSION);
        bytes.push(kinds[which]);
        bytes.extend_from_slice(&tail);
        decode_all(&bytes);
    }

    #[test]
    fn corrupted_valid_frames_never_panic(
        seed: u64,
        edits in vec((0usize..1 << 20, any_byte()), 1..8),
    ) {
        // Overwriting bytes of a real frame reaches the deep fields
        // (program text, report tables) that random tails rarely do.
        for (_, mut bytes) in frames(seed) {
            for &(at, byte) in &edits {
                let at = at % bytes.len();
                bytes[at] = byte;
            }
            decode_all(&bytes);
        }
    }

    #[test]
    fn frames_round_trip_exactly(seed: u64) {
        for (which, (plane, bytes)) in frames(seed).into_iter().enumerate() {
            prop_assert_eq!(round_trip(plane, &bytes), Ok(bytes), "frame {}", which);
        }
    }
}

#[test]
fn every_truncated_frame_fails_typed() {
    for seed in [0, 1, 6, 0xDEAD_BEEF, u64::MAX] {
        for (which, (plane, bytes)) in frames(seed).into_iter().enumerate() {
            for cut in 0..bytes.len() {
                let result = round_trip(plane, &bytes[..cut]);
                assert!(
                    matches!(result, Err(WireError::Truncated | WireError::BadMagic(_))),
                    "frame {which} (seed {seed}): cut at {cut} of {} gave {result:?}",
                    bytes.len()
                );
            }
        }
    }
}

#[test]
fn version_skewed_frames_name_both_versions() {
    let skewed = WIRE_VERSION - 1;
    for (which, (plane, mut bytes)) in frames(3).into_iter().enumerate() {
        bytes[WIRE_MAGIC.len()] = skewed;
        assert_eq!(
            round_trip(plane, &bytes),
            Err(WireError::UnsupportedVersion {
                found: skewed,
                expected: WIRE_VERSION,
            }),
            "frame {which}"
        );
    }
}

#[test]
fn an_undecodable_tail_record_is_dropped_and_appends_replay() {
    let dir = std::env::temp_dir().join(format!("avf-broker-frames-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("campaigns.log");
    let (mut store, _) = CampaignStore::open(&path).unwrap();
    store
        .append(&LogRecord::Accepted {
            id: 1,
            tenant: "t".to_owned(),
            spec: Box::new(spec(0, 96)),
        })
        .unwrap();
    drop(store);
    let good_len = std::fs::metadata(&path).unwrap().len();

    // Not a torn write: the length prefix is intact and the whole
    // payload is there, but it is no log record (a valid envelope of
    // the wrong kind, then plain garbage).
    let mut bytes = std::fs::read(&path).unwrap();
    let mut wrong_kind = Vec::from(WIRE_MAGIC);
    wrong_kind.extend_from_slice(&[WIRE_VERSION, kind::BROKER_HELLO, 0, 0]);
    write_frame(&mut bytes, &wrong_kind).unwrap();
    write_frame(&mut bytes, b"not a log record").unwrap();
    std::fs::write(&path, &bytes).unwrap();

    let (mut store, replayed) = CampaignStore::open(&path).unwrap();
    assert_eq!(replayed.len(), 1);
    assert_eq!(replayed[0].id, 1);
    assert!(replayed[0].outcome.is_none());
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        good_len,
        "the undecodable tail must be chopped off"
    );
    store
        .append(&LogRecord::Failed {
            id: 1,
            error: "gave up".to_owned(),
        })
        .unwrap();
    drop(store);
    let (_store, replayed) = CampaignStore::open(&path).unwrap();
    assert_eq!(replayed.len(), 1);
    assert_eq!(
        replayed[0].outcome.as_ref().unwrap().as_ref().unwrap_err(),
        "gave up"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
