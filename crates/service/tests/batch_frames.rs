//! Hostile bytes against every frame the fleet dispatcher's drain
//! decodes, and the batch frames a worker decodes from the driver:
//! `TRIAL_BATCH`, `TRIAL_EVENT`, the `SERVER_MESSAGE` replies (event,
//! done, error), `EVAL_BATCH`, `EVAL_RESULT` and the broker's `MUX`
//! wrapper. Garbage, truncation and version skew must all come back as
//! a typed [`WireError`], never a panic; valid frames must round-trip
//! exactly.

use avf_ace::{FaultRates, Fitness, FitnessScope};
use avf_codegen::GENOME_LEN;
use avf_inject::{decode_trial_batch, encode_trial_batch, Outcome, Trial, TrialEvent};
use avf_isa::wire::{kind, WireError, WIRE_MAGIC, WIRE_VERSION};
use avf_service::protocol::{Mux, ServerMessage};
use avf_service::{EvalBatch, EvalContext, EvalReply, EvalScore};
use avf_sim::{InjectionTarget, MachineConfig};
use proptest::collection::vec;
use proptest::prelude::*;

fn any_byte() -> impl Strategy<Value = u8> {
    (0u16..256).prop_map(|b| b as u8)
}

fn trial(index: u64, target: usize, cycle: u64, entry: u64, bit: u32) -> Trial {
    Trial {
        index,
        target: InjectionTarget::ALL[target % InjectionTarget::ALL.len()],
        cycle,
        entry,
        bit,
    }
}

fn event(index: u64, target: usize, outcome: u8) -> TrialEvent {
    TrialEvent {
        index,
        target: InjectionTarget::ALL[target % InjectionTarget::ALL.len()],
        outcome: Outcome::from_wire_code(outcome % 5).expect("five outcome codes"),
    }
}

fn batch(variant: usize, generation: u64, genes: &[u64]) -> EvalBatch {
    let machines = [MachineConfig::baseline(), MachineConfig::config_a()];
    let rates = [FaultRates::baseline(), FaultRates::rhc(), FaultRates::edr()];
    let scopes = [FitnessScope::Overall, FitnessScope::Core];
    EvalBatch {
        context: EvalContext {
            machine: machines[variant & 1].clone(),
            fitness: Fitness::with_scope(rates[(variant >> 1) % 3].clone(), scopes[variant & 1]),
            instr_budget: 1 + generation % 1_000_000,
        },
        generation,
        individuals: genes
            .chunks_exact(GENOME_LEN)
            .enumerate()
            .map(|(i, g)| (i as u64 * 7, g.iter().map(|&b| f64::from_bits(b)).collect()))
            .collect(),
    }
}

/// One valid frame of every decoded kind, derived from `seed`.
fn frames(seed: u64) -> Vec<Vec<u8>> {
    let trials: Vec<Trial> = (0..(seed % 5))
        .map(|i| trial(i, (seed + i) as usize, seed ^ i, i, (seed >> 7) as u32))
        .collect();
    let ev = event(seed, seed as usize, (seed >> 3) as u8);
    vec![
        encode_trial_batch(&trials),
        ev.to_wire(),
        ServerMessage::Event(ev).to_wire(),
        ServerMessage::Done { events: seed }.to_wire(),
        ServerMessage::Error(format!("worker error {seed}")).to_wire(),
        batch(
            seed as usize,
            seed,
            &[seed, !seed, seed >> 1].repeat(GENOME_LEN),
        )
        .to_wire(),
        EvalScore {
            index: seed,
            score: f64::from_bits(seed),
            cached: seed & 1 == 1,
        }
        .to_wire(),
        Mux::wrap(seed, ev.to_wire()).to_wire(),
    ]
}

/// Runs every decoder over `bytes`; each must return, whatever it
/// returns.
fn decode_all(bytes: &[u8]) {
    let _ = decode_trial_batch(bytes);
    let _ = TrialEvent::from_wire(bytes);
    let _ = ServerMessage::from_wire(bytes);
    let _ = EvalBatch::from_wire(bytes);
    let _ = EvalReply::from_wire(bytes);
    let _ = Mux::from_wire(bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_fail_typed(bytes in vec(any_byte(), 0..512)) {
        // Without the magic no decoder may accept anything.
        prop_assert!(decode_trial_batch(&bytes).is_err());
        prop_assert!(TrialEvent::from_wire(&bytes).is_err());
        prop_assert!(ServerMessage::from_wire(&bytes).is_err());
        prop_assert!(EvalBatch::from_wire(&bytes).is_err());
        prop_assert!(EvalReply::from_wire(&bytes).is_err());
        prop_assert!(Mux::from_wire(&bytes).is_err());
    }

    #[test]
    fn garbage_behind_a_valid_envelope_never_panics(
        tail in vec(any_byte(), 0..512),
        which in 0usize..6,
    ) {
        // Past the envelope the decoders read attacker-chosen lengths,
        // counts and tags; whatever they return, they must return.
        let kinds = [
            kind::TRIAL_BATCH,
            kind::TRIAL_EVENT,
            kind::BATCH_DONE,
            kind::EVAL_BATCH,
            kind::EVAL_RESULT,
            kind::MUX,
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
        for mut bytes in frames(seed) {
            for &(at, byte) in &edits {
                let at = at % bytes.len();
                bytes[at] = byte;
            }
            decode_all(&bytes);
        }
    }

    #[test]
    fn trial_batches_round_trip_exactly(
        raw in vec(((0u64..1 << 40, 0usize..8), (0u64..1 << 40, 0u64..4096, 0u32..512)), 0..64),
    ) {
        let trials: Vec<Trial> = raw
            .iter()
            .map(|&((index, target), (cycle, entry, bit))| trial(index, target, cycle, entry, bit))
            .collect();
        prop_assert_eq!(decode_trial_batch(&encode_trial_batch(&trials)).unwrap(), trials);
    }

    #[test]
    fn events_and_replies_round_trip_exactly(index: u64, target: u8, outcome: u8, count: u64) {
        let ev = event(index, target as usize, outcome);
        prop_assert_eq!(TrialEvent::from_wire(&ev.to_wire()).unwrap(), ev);
        for msg in [
            ServerMessage::Event(ev),
            ServerMessage::Done { events: count },
            ServerMessage::Error(format!("code {count}")),
        ] {
            prop_assert_eq!(ServerMessage::from_wire(&msg.to_wire()).unwrap(), msg);
        }
        prop_assert_eq!(
            EvalReply::from_wire(&ServerMessage::Done { events: count }.to_wire()).unwrap(),
            EvalReply::Done { results: count }
        );
    }

    #[test]
    fn eval_frames_round_trip_exactly(
        variant in 0usize..12,
        generation: u64,
        genes in vec(0u64..u64::MAX, GENOME_LEN..8 * GENOME_LEN),
        index: u64,
        bits: u64,
        cached: bool,
    ) {
        let sent = batch(variant, generation, &genes);
        let bytes = sent.to_wire();
        let back = EvalBatch::from_wire(&bytes).unwrap();
        prop_assert_eq!(back.generation, generation);
        // Byte identity of the re-encoding covers the context and every
        // gene's exact bits (NaN payloads and -0.0 included).
        prop_assert_eq!(back.to_wire(), bytes);
        let score = EvalScore { index, score: f64::from_bits(bits), cached };
        let EvalReply::Score(got) = EvalReply::from_wire(&score.to_wire()).unwrap() else {
            panic!("an EVAL_RESULT frame decoded as another reply");
        };
        prop_assert_eq!((got.index, got.score.to_bits(), got.cached), (index, bits, cached));
    }

    #[test]
    fn mux_frames_round_trip_exactly(tag: u64, inner in vec(any_byte(), 0..256)) {
        let mux = Mux::wrap(tag, inner);
        prop_assert_eq!(Mux::from_wire(&mux.to_wire()).unwrap(), mux);
    }
}

#[test]
fn every_truncated_frame_fails_typed() {
    for seed in [0, 1, 4, 0xDEAD_BEEF, u64::MAX] {
        for (which, bytes) in frames(seed).into_iter().enumerate() {
            for cut in 0..bytes.len() {
                let prefix = &bytes[..cut];
                let result = match which {
                    0 => decode_trial_batch(prefix).map(|_| ()),
                    1 => TrialEvent::from_wire(prefix).map(|_| ()),
                    2..=4 => ServerMessage::from_wire(prefix).map(|_| ()),
                    5 => EvalBatch::from_wire(prefix).map(|_| ()),
                    6 => EvalReply::from_wire(prefix).map(|_| ()),
                    _ => Mux::from_wire(prefix).map(|_| ()),
                };
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
    for (which, mut bytes) in frames(3).into_iter().enumerate() {
        bytes[WIRE_MAGIC.len()] = skewed;
        let result = match which {
            0 => decode_trial_batch(&bytes).map(|_| ()),
            1 => TrialEvent::from_wire(&bytes).map(|_| ()),
            2..=4 => ServerMessage::from_wire(&bytes).map(|_| ()),
            5 => EvalBatch::from_wire(&bytes).map(|_| ()),
            6 => EvalReply::from_wire(&bytes).map(|_| ()),
            _ => Mux::from_wire(&bytes).map(|_| ()),
        };
        assert_eq!(
            result,
            Err(WireError::UnsupportedVersion {
                found: skewed,
                expected: WIRE_VERSION,
            }),
            "frame {which}"
        );
    }
}
