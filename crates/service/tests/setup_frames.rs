//! Hostile bytes against the session-setup frames: `JOB_SETUP` is the
//! first thing a worker parses from an unauthenticated peer, and
//! `JOB_READY` the first thing a driver parses from a worker. Garbage,
//! truncation and version skew must all come back as a typed
//! [`WireError`], never a panic; valid frames must round-trip exactly.

use std::sync::OnceLock;

use avf_inject::{JobSpec, StoreSource};
use avf_isa::wire::{content_hash64, kind, WireError, WIRE_MAGIC, WIRE_VERSION};
use avf_prune::PruneMap;
use avf_service::protocol::{delegated_job_key, ClientMessage, JobReady, ServerMessage};
use avf_sim::{FaultModel, GoldenRun, MachineConfig};
use avf_workloads::testkit::{idle_loop, register_chain};
use proptest::collection::vec;
use proptest::prelude::*;

fn any_byte() -> impl Strategy<Value = u8> {
    (0u16..256).prop_map(|b| b as u8)
}

/// One of eight (machine, program, fault model) combinations.
fn setup(variant: usize, instr_budget: u64, prune: bool, checkpoint_interval: u64) -> JobSpec {
    let machines = [MachineConfig::baseline(), MachineConfig::config_a()];
    let programs = [idle_loop(), register_chain()];
    let models = [FaultModel::Replay, FaultModel::Trap];
    JobSpec {
        machine: machines[variant & 1].clone(),
        program: programs[(variant >> 1) & 1].clone(),
        instr_budget,
        fault_model: models[(variant >> 2) & 1],
        prune,
        checkpoint_interval,
    }
}

/// A real prune map, built once from a short instrumented golden pass.
fn prune_map() -> &'static PruneMap {
    static MAP: OnceLock<PruneMap> = OnceLock::new();
    MAP.get_or_init(|| {
        let machine = MachineConfig::baseline();
        let program = idle_loop();
        let (_, _, evidence) =
            avf_sim::golden_run_with_evidence(&machine, &program, 600, 128, avf_sim::PRUNE_WINDOW);
        PruneMap::build(&machine, &program, FaultModel::Replay, &evidence)
    })
}

/// A `JOB_READY` whose fields all derive from `seed`.
fn ready(with_map: bool, source: StoreSource, seed: u64) -> ServerMessage {
    let ready = JobReady {
        store_hash: seed.rotate_left(17),
        golden: GoldenRun {
            cycles: seed % 1_000_000,
            committed: seed % 777_777,
            digest: !seed,
        },
        checkpoints: seed % 4096,
        prune: with_map.then(|| prune_map().clone()),
    };
    ServerMessage::Ready { ready, source }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_fail_typed(bytes in vec(any_byte(), 0..512)) {
        prop_assert!(ClientMessage::from_wire(&bytes).is_err());
        prop_assert!(ServerMessage::from_wire(&bytes).is_err());
    }

    #[test]
    fn garbage_behind_a_valid_envelope_never_panics(
        tail in vec(any_byte(), 0..512),
        ready_kind: bool,
    ) {
        // Past the envelope the decoders read attacker-chosen lengths
        // and tags; whatever they return, they must return.
        let mut bytes = Vec::from(WIRE_MAGIC);
        bytes.push(WIRE_VERSION);
        bytes.push(if ready_kind { kind::JOB_READY } else { kind::JOB_SETUP });
        bytes.extend_from_slice(&tail);
        let _ = ClientMessage::from_wire(&bytes);
        let _ = ServerMessage::from_wire(&bytes);
    }

    #[test]
    fn corrupted_valid_frames_never_panic(
        variant in 0usize..8,
        with_map: bool,
        edits in vec((0usize..1 << 20, any_byte()), 1..8),
    ) {
        // Overwriting bytes of a real frame reaches the deep fields
        // (program text, prune strata) that random tails rarely do.
        for mut bytes in [
            setup(variant, 30_000, with_map, 512).to_wire(),
            ready(with_map, StoreSource::Cached, 7).to_wire(),
        ] {
            for &(at, byte) in &edits {
                let at = at % bytes.len();
                bytes[at] = byte;
            }
            let _ = ClientMessage::from_wire(&bytes);
            let _ = ServerMessage::from_wire(&bytes);
        }
    }

    #[test]
    fn job_setup_round_trips_exactly(
        variant in 0usize..8,
        instr_budget: u64,
        prune: bool,
        checkpoint_interval in 1u64..u64::MAX,
    ) {
        let sent = setup(variant, instr_budget, prune, checkpoint_interval);
        let bytes = sent.to_wire();
        let ClientMessage::Setup(back) = ClientMessage::from_wire(&bytes).unwrap() else {
            panic!("a JOB_SETUP frame decoded as another message");
        };
        prop_assert_eq!(&back.machine, &sent.machine);
        prop_assert_eq!(back.instr_budget, sent.instr_budget);
        prop_assert_eq!(back.fault_model, sent.fault_model);
        prop_assert_eq!(back.prune, sent.prune);
        prop_assert_eq!(back.checkpoint_interval, sent.checkpoint_interval);
        // Byte identity of the re-encoding covers the program too.
        prop_assert_eq!(back.to_wire(), bytes);
    }

    #[test]
    fn job_ready_round_trips_exactly(seed: u64, with_map: bool, cached: bool) {
        let source = if cached { StoreSource::Cached } else { StoreSource::GoldenRun };
        let sent = ready(with_map, source, seed);
        prop_assert_eq!(ServerMessage::from_wire(&sent.to_wire()).unwrap(), sent);
    }
}

#[test]
fn every_truncated_setup_or_ready_frame_fails_typed() {
    for variant in 0..4 {
        let bytes = setup(variant, 30_000, variant % 2 == 0, 512).to_wire();
        for cut in 0..bytes.len() {
            let result = ClientMessage::from_wire(&bytes[..cut]);
            assert!(
                matches!(result, Err(WireError::Truncated | WireError::BadMagic(_))),
                "setup variant {variant}: cut at {cut} of {} gave {result:?}",
                bytes.len()
            );
        }
    }
    for with_map in [false, true] {
        let bytes = ready(with_map, StoreSource::GoldenRun, 0xDEAD_BEEF).to_wire();
        for cut in 0..bytes.len() {
            let result = ServerMessage::from_wire(&bytes[..cut]);
            assert!(result.is_err(), "ready: cut at {cut} of {}", bytes.len());
        }
    }
}

#[test]
fn a_v7_setup_frame_fails_with_the_version_error() {
    let mut bytes = setup(0, 30_000, false, 512).to_wire();
    bytes[WIRE_MAGIC.len()] = 7;
    assert_eq!(
        ClientMessage::from_wire(&bytes).map(|_| ()),
        Err(WireError::UnsupportedVersion {
            found: 7,
            expected: 8,
        })
    );
}

/// The `JOB_SETUP` bytes and the worker cache key of two fixed jobs:
/// a change to the setup codec or to the key derivation shows up here
/// as a changed hash, not as workers silently missing their caches.
#[test]
fn setup_frames_and_cache_keys_are_pinned() {
    let jobs = [
        (
            JobSpec {
                machine: MachineConfig::baseline(),
                program: register_chain(),
                instr_budget: 4_000,
                fault_model: FaultModel::Replay,
                prune: false,
                checkpoint_interval: 512,
            },
            0x0bf0_1b6c_e73d_d92a,
            0xb68e_d5a8_7c65_4b50,
        ),
        (
            JobSpec {
                machine: MachineConfig::config_a(),
                program: idle_loop(),
                instr_budget: 30_000,
                fault_model: FaultModel::Trap,
                prune: true,
                checkpoint_interval: 750,
            },
            0x8207_9a90_b1ff_5316,
            0x77ce_786d_0548_2a4a,
        ),
    ];
    for (job, frame_hash, key) in jobs {
        let bytes = job.to_wire();
        assert_eq!(
            content_hash64(0, &bytes),
            frame_hash,
            "JOB_SETUP bytes of {job:?} ({} bytes)",
            bytes.len()
        );
        assert_eq!(
            delegated_job_key(
                &job.machine,
                &job.program,
                job.instr_budget,
                job.checkpoint_interval
            ),
            key,
            "cache key of {job:?}"
        );
    }
}
