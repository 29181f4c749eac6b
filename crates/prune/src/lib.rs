//! # avf-prune
//!
//! Pre-campaign injection-site pruning: a static masked-site classifier
//! that partitions the full `(structure, entry, bit, cycle)` injection
//! space into *provably-masked* strata and a *residual* stratum, so the
//! adaptive sampler spends trials only where a flip could possibly
//! matter.
//!
//! The classifier consumes the golden run's occupancy/deadness evidence
//! ([`avf_sim::PruneEvidence`], recorded by [`avf_sim::golden_pass`]
//! when asked for evidence) plus the machine geometry and program text,
//! and emits a compact [`PruneMap`]. Every pruned site
//! carries an auditable [`ProofTag`] naming the argument for why the
//! injection engine would classify it masked without running:
//!
//! | tag | argument | scope |
//! |-----|----------|-------|
//! | [`ProofTag::IdleEntry`] | entry index ≥ the window's max occupancy ⇒ vacant on every cycle of the window | ROB, IQ, LQ, SQ, DTLB |
//! | [`ProofTag::UnAcePadding`] | bit lies past the implemented width of a byte-padded opcode/tag field ⇒ masked for every entry state | ROB, IQ (replay model only) |
//! | [`ProofTag::NarrowAccess`] | data bit ≥ 32 in a program whose text has no quad-width memory op ⇒ un-ACE for every occupant | LQ, SQ (both models) |
//! | [`ProofTag::DeadValueResidency`] | register free or newest-definition superseded on every cycle of the window | RF |
//!
//! Soundness contract: for every site the map prunes, a real injection
//! at that site classifies `Masked` — `crates/prune/tests` cross-checks
//! this exhaustively against [`avf_sim::InjectionSim::probe_bit`] on
//! witness programs under both fault models, and campaigns offer a
//! `--prune audit` mode that injects into a deterministic sample of
//! pruned sites and hard-fails on any non-masked observation.
//!
//! ## The stratified estimator
//!
//! With residual fraction `w = R / N` (R residual sites of N total),
//! sampling uniformly over the residual space and measuring `p̂_R` with
//! Wilson interval `[lo, hi]` gives the overall AVF as `w·p̂_R` with
//! interval `[w·lo, w·hi]`: the pruned mass contributes exact zeros, so
//! the absolute half-width shrinks by `w` and the same precision target
//! needs provably fewer trials.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use avf_isa::wire::{WireError, WireReader, WireWriter};
use avf_isa::{AccessSize, Opcode, Program};
use avf_sim::{FaultModel, InjectionTarget, MachineConfig, PruneEvidence};

/// Whether (and how) a campaign prunes its injection space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PruneMode {
    /// Sample the full space uniformly (the pre-pruning behavior).
    #[default]
    Off,
    /// Build a [`PruneMap`] from the golden pass and sample only the
    /// residual stratum, crediting pruned mass analytically.
    On,
    /// Like `On`, plus a deterministic audit batch injecting into a
    /// sample of *pruned* sites; any non-masked observation hard-fails
    /// the campaign (a classifier bug must be loud, never a silently
    /// wrong AVF).
    Audit,
}

impl PruneMode {
    /// Short name used in reports and on the CLI.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PruneMode::Off => "off",
            PruneMode::On => "on",
            PruneMode::Audit => "audit",
        }
    }

    /// Parses a CLI spelling of the mode.
    #[must_use]
    pub fn parse(s: &str) -> Option<PruneMode> {
        match s {
            "off" => Some(PruneMode::Off),
            "on" => Some(PruneMode::On),
            "audit" => Some(PruneMode::Audit),
            _ => None,
        }
    }

    /// Stable wire code.
    #[must_use]
    pub fn wire_code(self) -> u8 {
        match self {
            PruneMode::Off => 0,
            PruneMode::On => 1,
            PruneMode::Audit => 2,
        }
    }

    /// Inverse of [`PruneMode::wire_code`].
    #[must_use]
    pub fn from_wire_code(code: u8) -> Option<PruneMode> {
        match code {
            0 => Some(PruneMode::Off),
            1 => Some(PruneMode::On),
            2 => Some(PruneMode::Audit),
            _ => None,
        }
    }

    /// Whether this mode needs a [`PruneMap`] at all.
    #[must_use]
    pub fn enabled(self) -> bool {
        self != PruneMode::Off
    }
}

impl std::fmt::Display for PruneMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The auditable argument attached to every pruned stratum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofTag {
    /// The entry index is at or past the window's maximum occupancy, so
    /// the flip lands on a vacant entry on every cycle of the window.
    IdleEntry,
    /// The bit lies past the implemented width of a byte-padded
    /// opcode/tag field — masked for every entry state under the replay
    /// model's field decode.
    UnAcePadding,
    /// The bit indexes the upper data half of an LQ/SQ entry in a
    /// program whose text contains no quad-width memory access, so no
    /// occupant's access ever makes those bits ACE.
    NarrowAccess,
    /// The physical register was free, or its newest definition already
    /// superseded, on every cycle of the window.
    DeadValueResidency,
}

impl ProofTag {
    /// Short name used in reports and audit errors.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ProofTag::IdleEntry => "idle-entry",
            ProofTag::UnAcePadding => "un-ace-padding",
            ProofTag::NarrowAccess => "narrow-access",
            ProofTag::DeadValueResidency => "dead-value",
        }
    }
}

impl std::fmt::Display for ProofTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One target's share of the [`PruneMap`]: static per-bit masks plus
/// per-window occupancy/deadness strata, with the exact pruned and
/// total site masses they account for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetPrune {
    target: InjectionTarget,
    entries: u64,
    entry_bits: u32,
    /// Bits provably masked for every `(entry, cycle)` because they are
    /// padding past an implemented field width (`ceil(entry_bits / 64)`
    /// words; empty when no bit qualifies).
    padding_mask: Vec<u64>,
    /// Bits provably un-ACE for every occupant because the program
    /// performs no quad-width memory access (same layout).
    narrow_mask: Vec<u64>,
    /// Per-window maximum occupancy; empty when occupancy pruning does
    /// not apply to this target.
    occ_max: Vec<u64>,
    /// Per-window register-deadness bitmaps (RF only; empty otherwise).
    dead_windows: Vec<Vec<u64>>,
    /// Provably-masked site count over the sampled space.
    pruned: u64,
    /// Total site count `(cycles − 1) × entries × entry_bits`.
    total: u64,
}

impl TargetPrune {
    /// The injection target this stratification covers.
    #[must_use]
    pub fn target(&self) -> InjectionTarget {
        self.target
    }

    /// Provably-masked site count.
    #[must_use]
    pub fn pruned(&self) -> u64 {
        self.pruned
    }

    /// Total site count of the sampled space.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Residual fraction `w = (total − pruned) / total`; 1.0 when the
    /// space is empty or nothing was pruned.
    #[must_use]
    pub fn residual_fraction(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        (self.total - self.pruned) as f64 / self.total as f64
    }

    fn mask_bit(mask: &[u64], bit: u32) -> bool {
        mask.get((bit / 64) as usize)
            .is_some_and(|w| (w >> (bit % 64)) & 1 == 1)
    }

    fn static_words(&self) -> usize {
        (self.entry_bits as usize).div_ceil(64)
    }

    /// Recomputes `pruned`/`total` from the strata — called after build
    /// and after decode, so the masses are always consistent with the
    /// masks and never trusted from the wire. `None` when the geometry
    /// cannot describe a real map: a site count past `u64`, static masks
    /// wider than the entry, or more pruned sites than exist.
    fn finalize(&mut self, cycles: u64, window: u64) -> Option<()> {
        let span = cycles.saturating_sub(1);
        let mut static_bits = 0u64;
        for i in 0..self.static_words() {
            let a = self.padding_mask.get(i).copied().unwrap_or(0);
            let b = self.narrow_mask.get(i).copied().unwrap_or(0);
            static_bits += u64::from((a | b).count_ones());
        }
        let live_bits = u64::from(self.entry_bits).checked_sub(static_bits)?;
        let cycle_entries = span.checked_mul(self.entries)?;
        self.total = cycle_entries.checked_mul(u64::from(self.entry_bits))?;
        let mut pruned = cycle_entries.checked_mul(static_bits)?;
        for w in 0..self.occ_max.len().max(self.dead_windows.len()) {
            let lo = (w as u64).checked_mul(window)?.checked_add(1)?;
            if lo > span {
                break;
            }
            let hi = span.min((w as u64 + 1).saturating_mul(window));
            let n = hi - lo + 1;
            let mut vacant = 0u64;
            if let Some(&occ) = self.occ_max.get(w) {
                vacant = vacant.checked_add(self.entries.saturating_sub(occ))?;
            }
            if let Some(dead) = self.dead_windows.get(w) {
                let dead_entries: u64 = dead.iter().map(|d| u64::from(d.count_ones())).sum();
                vacant = vacant.checked_add(dead_entries.min(self.entries))?;
            }
            pruned = pruned.checked_add(n.checked_mul(vacant)?.checked_mul(live_bits)?)?;
        }
        self.pruned = pruned;
        (pruned <= self.total).then_some(())
    }

    fn encode(&self, w: &mut WireWriter) {
        w.u8(self.target.wire_code());
        w.u64(self.entries);
        w.u32(self.entry_bits);
        for mask in [&self.padding_mask, &self.narrow_mask] {
            w.usize(mask.len());
            for word in mask {
                w.u64(*word);
            }
        }
        w.usize(self.occ_max.len());
        for occ in &self.occ_max {
            w.u64(*occ);
        }
        w.usize(self.dead_windows.len());
        for dead in &self.dead_windows {
            w.usize(dead.len());
            for word in dead {
                w.u64(*word);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<TargetPrune, WireError> {
        let code = r.u8()?;
        let target = InjectionTarget::from_wire_code(code).ok_or(WireError::BadTag(code))?;
        let entries = r.u64()?;
        let entry_bits = r.u32()?;
        let mut masks = [Vec::new(), Vec::new()];
        let words = (entry_bits as usize).div_ceil(64);
        for mask in &mut masks {
            let n = r.seq_len(8)?;
            if n != 0 && n != words {
                return Err(WireError::Invalid("prune mask does not match geometry"));
            }
            for _ in 0..n {
                mask.push(r.u64()?);
            }
        }
        let [padding_mask, narrow_mask] = masks;
        let n_occ = r.seq_len(8)?;
        let mut occ_max = Vec::with_capacity(n_occ);
        for _ in 0..n_occ {
            occ_max.push(r.u64()?);
        }
        let n_dead = r.seq_len(8)?;
        let mut dead_windows = Vec::with_capacity(n_dead);
        for _ in 0..n_dead {
            let n = r.seq_len(8)?;
            if n != (entries as usize).div_ceil(64) {
                return Err(WireError::Invalid("prune bitmap does not match geometry"));
            }
            let mut dead = Vec::with_capacity(n);
            for _ in 0..n {
                dead.push(r.u64()?);
            }
            dead_windows.push(dead);
        }
        Ok(TargetPrune {
            target,
            entries,
            entry_bits,
            padding_mask,
            narrow_mask,
            occ_max,
            dead_windows,
            pruned: 0,
            total: 0,
        })
    }
}

/// The pre-campaign stratification of the full injection space: one
/// [`TargetPrune`] per [`InjectionTarget`], in `ALL` order.
///
/// `PartialEq`/`Eq` are load-bearing for venue symmetry: the stratified
/// sampler is a pure function of `(seed, PruneMap)`, so local and
/// remote campaigns stay bit-identical exactly when their maps are
/// equal — which the distributed driver cross-checks per worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PruneMap {
    window: u64,
    cycles: u64,
    targets: Vec<TargetPrune>,
}

impl PruneMap {
    /// Builds the map from the golden pass evidence, the machine
    /// geometry, the program text, and the campaign's fault model.
    ///
    /// The fault model is baked in: the padding strata rely on the
    /// replay oracle's field decode (the trap model turns the same
    /// flips into detected errors), so they are only emitted under
    /// [`FaultModel::Replay`]. Occupancy, deadness, and narrow-access
    /// strata are model-independent.
    #[must_use]
    pub fn build(
        machine: &MachineConfig,
        program: &Program,
        fault_model: FaultModel,
        evidence: &PruneEvidence,
    ) -> PruneMap {
        let sizes = machine.structure_sizes();
        let tag_width = {
            let regs = machine.phys_regs.max(2);
            usize::BITS - (regs - 1).leading_zeros()
        };
        let opcode_width = usize::BITS - (Opcode::ALL.len() - 1).leading_zeros();
        let replay = fault_model == FaultModel::Replay;
        let has_quad = program
            .insts()
            .iter()
            .any(|i| i.op.access_size() == Some(AccessSize::Quad));
        let mut targets = Vec::with_capacity(InjectionTarget::ALL.len());
        for target in InjectionTarget::ALL {
            let entries = target.entries(machine);
            let entry_bits = target.entry_bits(&sizes);
            let mut t = TargetPrune {
                target,
                entries,
                entry_bits,
                padding_mask: Vec::new(),
                narrow_mask: Vec::new(),
                occ_max: Vec::new(),
                dead_windows: Vec::new(),
                pruned: 0,
                total: 0,
            };
            let words = t.static_words();
            match target {
                InjectionTarget::Rob => {
                    if replay && tag_width < 8 {
                        // Control half: dest-tag field occupies bits
                        // 64..72; bits past the implemented tag width
                        // decode as padding under replay for every
                        // entry state (vacant, wrong-path, NOP, live).
                        let mut mask = vec![0u64; words];
                        for bit in 64 + tag_width..72 {
                            mask[(bit / 64) as usize] |= 1 << (bit % 64);
                        }
                        t.padding_mask = mask;
                    }
                    t.occ_max = evidence.rob_max.clone();
                }
                InjectionTarget::Iq => {
                    if replay {
                        // Byte 0 is the opcode field, bytes 1..3 are
                        // operand/destination tags; each is padded to a
                        // byte past its implemented width.
                        let mut mask = vec![0u64; words];
                        for bit in opcode_width..8 {
                            mask[0] |= 1 << bit;
                        }
                        for byte in 1..4u32 {
                            for bit in byte * 8 + tag_width..(byte + 1) * 8 {
                                mask[0] |= 1 << bit;
                            }
                        }
                        if mask.iter().any(|&w| w != 0) {
                            t.padding_mask = mask;
                        }
                    }
                    t.occ_max = evidence.iq_max.clone();
                }
                InjectionTarget::Lq | InjectionTarget::Sq => {
                    if !has_quad {
                        // Data half bits past word width: no occupant's
                        // access ever makes them ACE, under either
                        // fault model.
                        let mut mask = vec![0u64; words];
                        for bit in 64 + 32..128u32 {
                            mask[(bit / 64) as usize] |= 1 << (bit % 64);
                        }
                        t.narrow_mask = mask;
                    }
                    t.occ_max = if target == InjectionTarget::Lq {
                        evidence.lq_max.clone()
                    } else {
                        evidence.sq_max.clone()
                    };
                }
                InjectionTarget::RegFile => {
                    t.dead_windows = evidence.rf_dead.clone();
                }
                InjectionTarget::Dtlb => {
                    t.occ_max = evidence.dtlb_max.clone();
                }
                // Cache lines are not prefix-indexed by residency, so
                // valid-line vacancy admits no per-window proof — the
                // caches stay fully residual (recorded in the ROADMAP
                // as the next fidelity frontier).
                InjectionTarget::Dl1 | InjectionTarget::L2 => {}
            }
            t.finalize(evidence.cycles, evidence.window)
                .expect("a map built from a golden pass describes a real site space");
            targets.push(t);
        }
        PruneMap {
            window: evidence.window,
            cycles: evidence.cycles,
            targets,
        }
    }

    /// Cycle-window width of the occupancy/deadness strata.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Golden-run cycle count; sampled cycles span `1..cycles`.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Per-target stratification, in [`InjectionTarget::ALL`] order.
    #[must_use]
    pub fn targets(&self) -> &[TargetPrune] {
        &self.targets
    }

    /// The target's stratification record.
    #[must_use]
    pub fn of(&self, target: InjectionTarget) -> &TargetPrune {
        &self.targets[usize::from(target.wire_code())]
    }

    /// Residual fraction of the target's site space.
    #[must_use]
    pub fn residual_fraction(&self, target: InjectionTarget) -> f64 {
        self.of(target).residual_fraction()
    }

    /// Classifies one site: `Some(tag)` when the site is provably
    /// masked (with the stratum's proof tag), `None` when it is
    /// residual and must be sampled.
    #[must_use]
    pub fn classify(
        &self,
        target: InjectionTarget,
        entry: u64,
        bit: u32,
        cycle: u64,
    ) -> Option<ProofTag> {
        let t = self.of(target);
        if TargetPrune::mask_bit(&t.padding_mask, bit) {
            return Some(ProofTag::UnAcePadding);
        }
        if TargetPrune::mask_bit(&t.narrow_mask, bit) {
            return Some(ProofTag::NarrowAccess);
        }
        if cycle == 0 || cycle >= self.cycles {
            return None;
        }
        let w = ((cycle - 1) / self.window) as usize;
        if let Some(&occ) = t.occ_max.get(w) {
            if entry >= occ {
                return Some(ProofTag::IdleEntry);
            }
        }
        if let Some(dead) = t.dead_windows.get(w) {
            if dead
                .get((entry / 64) as usize)
                .is_some_and(|word| (word >> (entry % 64)) & 1 == 1)
            {
                return Some(ProofTag::DeadValueResidency);
            }
        }
        None
    }

    /// Whether the site is provably masked.
    #[must_use]
    pub fn is_pruned(&self, target: InjectionTarget, entry: u64, bit: u32, cycle: u64) -> bool {
        self.classify(target, entry, bit, cycle).is_some()
    }

    /// Serializes the map into a wire writer (the masses are
    /// recomputed, never shipped).
    pub fn encode(&self, w: &mut WireWriter) {
        w.u64(self.window);
        w.u64(self.cycles);
        w.usize(self.targets.len());
        for t in &self.targets {
            t.encode(w);
        }
    }

    /// Decodes a map written by [`PruneMap::encode`], revalidating the
    /// per-target geometry and recomputing the stratum masses.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation, an unknown target code,
    /// targets out of [`InjectionTarget::ALL`] order, masks that do not
    /// match the declared geometry, or strata whose masses overflow or
    /// exceed the site space.
    pub fn decode(r: &mut WireReader<'_>) -> Result<PruneMap, WireError> {
        let window = r.u64()?;
        if window == 0 {
            return Err(WireError::Invalid("prune window must be positive"));
        }
        let cycles = r.u64()?;
        let n = r.seq_len(10)?;
        if n != InjectionTarget::ALL.len() {
            return Err(WireError::Invalid("prune map must cover every target"));
        }
        let mut targets = Vec::with_capacity(n);
        for expected in InjectionTarget::ALL {
            let mut t = TargetPrune::decode(r)?;
            if t.target != expected {
                return Err(WireError::Invalid("prune map targets out of order"));
            }
            t.finalize(cycles, window).ok_or(WireError::Invalid(
                "prune map geometry describes no real site space",
            ))?;
            targets.push(t);
        }
        Ok(PruneMap {
            window,
            cycles,
            targets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avf_sim::{golden_run_with_evidence, PRUNE_WINDOW};

    fn build_for(model: FaultModel) -> (MachineConfig, PruneMap) {
        let machine = MachineConfig::baseline();
        let program = avf_workloads::testkit::idle_loop();
        let (_, _, ev) = golden_run_with_evidence(&machine, &program, 2_000, 256, PRUNE_WINDOW);
        let map = PruneMap::build(&machine, &program, model, &ev);
        (machine, map)
    }

    #[test]
    fn padding_strata_are_replay_only() {
        let (_, replay) = build_for(FaultModel::Replay);
        let (_, trap) = build_for(FaultModel::Trap);
        // ROB dest-tag padding bit (tag width 7 on an 80-register file).
        assert_eq!(
            replay.classify(InjectionTarget::Rob, 0, 71, 1),
            Some(ProofTag::UnAcePadding)
        );
        assert_ne!(
            trap.classify(InjectionTarget::Rob, 0, 71, 1),
            Some(ProofTag::UnAcePadding)
        );
        // IQ tag-byte padding bit.
        assert_eq!(
            replay.classify(InjectionTarget::Iq, 0, 15, 1),
            Some(ProofTag::UnAcePadding)
        );
    }

    #[test]
    fn narrow_access_requires_no_quad_ops() {
        let machine = MachineConfig::baseline();
        // register_chain stores with stq — quad access, no narrow stratum.
        let program = avf_workloads::testkit::register_chain();
        let (_, _, ev) = golden_run_with_evidence(&machine, &program, 2_000, 256, PRUNE_WINDOW);
        let map = PruneMap::build(&machine, &program, FaultModel::Replay, &ev);
        assert_ne!(
            map.classify(InjectionTarget::Lq, 0, 100, 1),
            Some(ProofTag::NarrowAccess)
        );
        // idle_loop has no memory ops at all: the whole upper data half
        // is a narrow-access stratum.
        let (_, map) = build_for(FaultModel::Replay);
        assert_eq!(
            map.classify(InjectionTarget::Sq, 0, 127, 1),
            Some(ProofTag::NarrowAccess)
        );
    }

    #[test]
    fn idle_entries_and_dead_registers_prune() {
        let (machine, map) = build_for(FaultModel::Replay);
        // The idle loop cannot fill the last ROB entry's worth of
        // occupancy at every cycle of every window; the top entry of an
        // 80-entry ROB is certainly idle somewhere.
        let last = InjectionTarget::Rob.entries(&machine) - 1;
        assert_eq!(
            map.classify(InjectionTarget::Rob, last, 0, 1),
            Some(ProofTag::IdleEntry)
        );
        let rf = map.of(InjectionTarget::RegFile);
        assert!(rf.pruned() > 0, "idle loop must have dead registers");
        assert!(rf.residual_fraction() < 1.0);
    }

    #[test]
    fn masses_are_exact_and_fractions_bounded() {
        let (_, map) = build_for(FaultModel::Replay);
        for t in map.targets() {
            assert!(t.pruned() <= t.total(), "{}", t.target());
            let w = t.residual_fraction();
            assert!((0.0..=1.0).contains(&w), "{}: {w}", t.target());
        }
        // Caches admit no proof: fully residual.
        assert_eq!(map.of(InjectionTarget::Dl1).pruned(), 0);
        assert_eq!(map.of(InjectionTarget::L2).pruned(), 0);
        assert!((map.residual_fraction(InjectionTarget::Dl1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wire_round_trip_preserves_equality() {
        for model in [FaultModel::Trap, FaultModel::Replay] {
            let (_, map) = build_for(model);
            let mut w = WireWriter::new();
            map.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            let back = PruneMap::decode(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back, map);
            // Truncation fails typed, never panics.
            let mut r = WireReader::new(&bytes[..bytes.len() / 2]);
            assert!(PruneMap::decode(&mut r).is_err());
        }
    }

    #[test]
    fn classify_out_of_evidence_cycle_is_residual() {
        let (_, map) = build_for(FaultModel::Replay);
        assert_eq!(map.classify(InjectionTarget::Rob, 79, 0, 0), None);
        assert_eq!(
            map.classify(InjectionTarget::Rob, 79, 0, map.cycles() + 10),
            None
        );
    }
}
