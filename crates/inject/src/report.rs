//! Campaign results: per-structure measured-vs-ACE AVF comparison.

use std::fmt;
use std::time::Duration;

use avf_ace::{AceGap, AvfReport};
use avf_isa::wire::{WireError, WireReader, WireWriter};
use avf_prune::PruneMode;
use avf_sim::{FaultModel, GoldenRun, InjectionTarget};

use crate::backend::{DispatchRecord, StoreSource, WorkerProvision};
use crate::stats::OutcomeCounts;

/// Numerical slack when comparing a point estimate to a CI edge.
const EPS: f64 = 1e-9;

/// How the ACE estimate relates to the injection measurement for one
/// structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The ACE AVF lies inside the 95% CI of the measurement.
    Agree,
    /// The ACE AVF lies above the CI: the analysis is conservative
    /// here, which is its design intent (lifetime over-approximation,
    /// whole-entry ACE credit).
    Bounded,
    /// The ACE AVF lies *below* the CI: injection observed more
    /// vulnerability than the analysis claims — a soundness red flag
    /// that must not happen.
    Violation,
}

impl Verdict {
    /// Short name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Agree => "agree",
            Verdict::Bounded => "bounded",
            Verdict::Violation => "VIOLATION",
        }
    }
}

/// One structure's campaign result.
#[derive(Debug, Clone)]
pub struct TargetReport {
    /// Injected structure.
    pub target: InjectionTarget,
    /// Classified trial tally.
    pub counts: OutcomeCounts,
    /// ACE-estimated AVF of the same structure on the same run
    /// (bit-weighted across tag/data arrays where the target spans
    /// both).
    pub ace_avf: f64,
    /// Residual fraction of the target's bit×cycle space under
    /// pre-campaign pruning (1.0 without a prune map). Trials sample
    /// only the residual stratum; the pruned strata are provably masked,
    /// so the stratified estimator scales the residual proportion — and
    /// its interval — by this mass.
    pub residual: f64,
}

impl TargetReport {
    /// Injection-measured AVF — the stratified estimate `w · p̂_R`,
    /// where `w` is the residual fraction and `p̂_R` the unmasked
    /// proportion observed over the residual stratum. Without pruning
    /// `w = 1` and this is the plain proportion.
    #[must_use]
    pub fn measured_avf(&self) -> f64 {
        self.residual * self.counts.avf()
    }

    /// 95% Wilson interval of the measurement. Under pruning both ends
    /// scale by the residual fraction: the pruned strata contribute
    /// exact zeros, so the stratified interval is `[w·lo, w·hi]`.
    #[must_use]
    pub fn ci95(&self) -> (f64, f64) {
        let (lo, hi) = self.counts.ci95();
        (self.residual * lo, self.residual * hi)
    }

    /// Half-width of [`TargetReport::ci95`] — the overall precision of
    /// the stratified estimate (`w` times the raw half-width).
    #[must_use]
    pub fn half_width95(&self) -> f64 {
        self.residual * self.counts.half_width95()
    }

    /// Trials the stratified estimator avoided for this target: the
    /// expected number of draws that would have landed in pruned space
    /// had the same residual-stratum sample been taken by uniform
    /// sampling, `n·(1−w)/w`. Zero without pruning (and for a
    /// fully-pruned target, which needs no trials at all).
    #[must_use]
    pub fn trials_saved(&self) -> u64 {
        let n = self.counts.total() + self.counts.unreached;
        if self.residual <= 0.0 || self.residual >= 1.0 {
            return 0;
        }
        (n as f64 * (1.0 - self.residual) / self.residual).round() as u64
    }

    /// The measured-vs-ACE gap for this structure: how much of the
    /// analysis' conservatism the measurement leaves uncovered. The
    /// replay oracle's reason to exist is making this strictly smaller
    /// on the queueing structures than the trap model does.
    #[must_use]
    pub fn gap(&self) -> AceGap {
        AceGap {
            ace_avf: self.ace_avf,
            measured_avf: self.measured_avf(),
        }
    }

    /// Relation of the ACE estimate to the measurement.
    ///
    /// The violation test is one-sided at 99.5% (z = 2.576) rather
    /// than reusing the displayed 95% interval, and requires at least
    /// 30 trials *and* at least 3 unmasked events: a `validate` run
    /// makes 32 simultaneous comparisons (8 structures × 4 programs),
    /// so a 2.5% one-sided test would flag ~0.8 borderline false
    /// alarms per clean run, and near-zero ACE estimates make 1–2
    /// unlucky events in a small sample clear the strict bound (e.g.
    /// 2 DUEs in 30 trials against a true rate the larger-sample
    /// measurement confirms) — the standard rare-event minimum-count
    /// guard. A genuine soundness bug produces many unmasked events
    /// and overshoots by far more than the gap between the quantiles
    /// (and shows up at any sane campaign size).
    #[must_use]
    pub fn verdict(&self) -> Verdict {
        let (_, hi) = self.ci95();
        let (raw_strict_lo, _) =
            crate::stats::wilson_interval(self.counts.unmasked(), self.counts.total(), 2.576);
        // Under pruning the measurement (and thus both quantile bounds)
        // scales by the residual mass — the pruned strata are exact
        // zeros, never evidence against the ACE bound.
        let strict_lo = self.residual * raw_strict_lo;
        if self.counts.total() >= 30
            && self.counts.unmasked() >= 3
            && self.ace_avf + EPS < strict_lo
        {
            Verdict::Violation
        } else if self.ace_avf <= hi + EPS {
            Verdict::Agree
        } else {
            Verdict::Bounded
        }
    }
}

/// Why a campaign stopped planning batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Non-adaptive campaign: the single fixed-size plan ran to the end.
    FixedPlan,
    /// Every target's 95% CI half-width fell below the configured
    /// `ci_target` — the sequential-sampling early exit.
    CiTarget,
    /// The trial cap was reached before every target converged.
    TrialCap,
}

impl StopReason {
    /// Short name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StopReason::FixedPlan => "fixed plan exhausted",
            StopReason::CiTarget => "CI target reached",
            StopReason::TrialCap => "trial cap reached",
        }
    }

    /// Stable wire code (broker report codec).
    #[must_use]
    pub fn wire_code(self) -> u8 {
        match self {
            StopReason::FixedPlan => 0,
            StopReason::CiTarget => 1,
            StopReason::TrialCap => 2,
        }
    }

    /// Inverse of [`StopReason::wire_code`].
    #[must_use]
    pub fn from_wire_code(code: u8) -> Option<StopReason> {
        match code {
            0 => Some(StopReason::FixedPlan),
            1 => Some(StopReason::CiTarget),
            2 => Some(StopReason::TrialCap),
            _ => None,
        }
    }
}

/// Progress of one adaptive batch, recorded as the campaign aggregates
/// incrementally.
#[derive(Debug, Clone, Copy)]
pub struct BatchProgress {
    /// Batch index (0-based).
    pub batch: u64,
    /// Trials executed in this batch.
    pub trials: u64,
    /// Trials executed so far, this batch included.
    pub cumulative: u64,
    /// The least-converged target after this batch.
    pub widest: InjectionTarget,
    /// That target's 95% CI half-width after this batch.
    pub max_half_width: f64,
}

/// Full result of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Program name.
    pub program: String,
    /// Injections actually executed (for an adaptive campaign this is
    /// where sequential sampling stopped, not the configured cap).
    pub injections: u64,
    /// How queueing-structure control/tag flips were resolved.
    pub fault_model: FaultModel,
    /// Plan seed.
    pub seed: u64,
    /// Worker threads used.
    pub workers: usize,
    /// The fault-free reference run.
    pub golden: GoldenRun,
    /// Per-structure results, in configured target order.
    pub targets: Vec<TargetReport>,
    /// CI half-width target of an adaptive campaign (`None` = fixed plan).
    pub ci_target: Option<f64>,
    /// Pre-campaign pruning mode the campaign ran under.
    pub prune: PruneMode,
    /// Audit trials executed against pruned strata (`--prune audit`
    /// only; each one observed masked, or the campaign hard-failed).
    pub audited: u64,
    /// Why the campaign stopped.
    pub stop: StopReason,
    /// Per-batch convergence progress.
    pub batches: Vec<BatchProgress>,
    /// Golden-run checkpoints the trial workers restored from.
    pub checkpoints: usize,
    /// How each worker obtained the checkpoint store at job setup
    /// (cache hit, or its own golden run).
    pub provisioning: Vec<WorkerProvision>,
    /// Every dispatch of trials to a worker, in dispatch order — the
    /// per-worker trajectory, including re-dispatches of shards whose
    /// worker died mid-batch. Venue-dependent metadata: two runs with
    /// different worker fates still produce identical statistical
    /// results (counts, CIs, trajectory, stop reason).
    pub dispatches: Vec<DispatchRecord>,
    /// Campaign wall-clock time.
    pub wall: Duration,
}

impl CampaignReport {
    /// Structures whose measurement the ACE estimate fails to cover.
    #[must_use]
    pub fn violations(&self) -> usize {
        self.targets
            .iter()
            .filter(|t| t.verdict() == Verdict::Violation)
            .count()
    }

    /// Structures where the ACE AVF falls inside the measurement CI.
    #[must_use]
    pub fn agreements(&self) -> usize {
        self.targets
            .iter()
            .filter(|t| t.verdict() == Verdict::Agree)
            .count()
    }

    /// Whether the campaign is consistent with ACE analysis being a
    /// sound upper bound (no violations).
    #[must_use]
    pub fn consistent(&self) -> bool {
        self.violations() == 0
    }

    /// Injection trials per second of wall-clock time.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.injections as f64 / secs
        }
    }

    /// Trials whose planned cycle the fault-free prefix never reached
    /// (must be zero on a healthy plan/golden pair).
    #[must_use]
    pub fn unreached(&self) -> u64 {
        self.targets.iter().map(|t| t.counts.unreached).sum()
    }

    /// Whether every target's overall 95% CI half-width (residual-scaled
    /// under pruning) is at or below `target`.
    #[must_use]
    pub fn converged_to(&self, target: f64) -> bool {
        self.targets.iter().all(|t| t.half_width95() <= target)
    }

    /// Trials the stratified estimator avoided across all targets
    /// (zero without pruning).
    #[must_use]
    pub fn trials_saved(&self) -> u64 {
        self.targets.iter().map(TargetReport::trials_saved).sum()
    }

    /// Trials that had to be re-dispatched because their worker's
    /// connection died mid-batch (0 on a fault-free run).
    #[must_use]
    pub fn redispatched_trials(&self) -> u64 {
        crate::backend::redispatched_trials(&self.dispatches)
    }

    /// Serializes the complete report (every field, bit-exact floats)
    /// into `w`. The broker's durable log and its `BROKER_REPORT`
    /// frames carry reports this way, so a driver that re-attaches
    /// after a disconnect receives a report bit-identical to the one a
    /// connected driver would have streamed.
    pub fn encode(&self, w: &mut WireWriter) {
        w.str(&self.program);
        w.u64(self.injections);
        w.u8(self.fault_model.wire_code());
        w.u64(self.seed);
        w.usize(self.workers);
        w.u64(self.golden.cycles);
        w.u64(self.golden.committed);
        w.u64(self.golden.digest);
        w.usize(self.targets.len());
        for t in &self.targets {
            w.u8(t.target.wire_code());
            w.u64(t.counts.masked);
            w.u64(t.counts.sdc);
            w.u64(t.counts.due);
            w.u64(t.counts.diverged);
            w.u64(t.counts.unreached);
            w.f64(t.ace_avf);
            w.f64(t.residual);
        }
        match self.ci_target {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                w.f64(v);
            }
        }
        w.u8(self.prune.wire_code());
        w.u64(self.audited);
        w.u8(self.stop.wire_code());
        w.usize(self.batches.len());
        for b in &self.batches {
            w.u64(b.batch);
            w.u64(b.trials);
            w.u64(b.cumulative);
            w.u8(b.widest.wire_code());
            w.f64(b.max_half_width);
        }
        w.usize(self.checkpoints);
        w.usize(self.provisioning.len());
        for p in &self.provisioning {
            w.str(&p.worker);
            w.u8(p.source.wire_code());
        }
        w.usize(self.dispatches.len());
        for d in &self.dispatches {
            w.u64(d.batch);
            w.str(&d.worker);
            w.u64(d.trials);
            w.bool(d.redispatched);
        }
        w.u64(self.wall.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Decodes a report written by [`CampaignReport::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation or unknown codes.
    pub fn decode(r: &mut WireReader<'_>) -> Result<CampaignReport, WireError> {
        let program = r.str()?;
        let injections = r.u64()?;
        let model_code = r.u8()?;
        let fault_model =
            FaultModel::from_wire_code(model_code).ok_or(WireError::BadTag(model_code))?;
        let seed = r.u64()?;
        let workers = r.usize()?;
        let golden = GoldenRun {
            cycles: r.u64()?,
            committed: r.u64()?,
            digest: r.u64()?,
        };
        // Each count is checked against its element's least wire size,
        // so a hostile count cannot reserve many times the frame's size.
        let n_targets = r.seq_len(1 + 5 * 8 + 2 * 8)?;
        let mut targets = Vec::with_capacity(n_targets);
        for _ in 0..n_targets {
            let code = r.u8()?;
            let target = InjectionTarget::from_wire_code(code).ok_or(WireError::BadTag(code))?;
            let counts = OutcomeCounts {
                masked: r.u64()?,
                sdc: r.u64()?,
                due: r.u64()?,
                diverged: r.u64()?,
                unreached: r.u64()?,
            };
            targets.push(TargetReport {
                target,
                counts,
                ace_avf: r.f64()?,
                residual: r.f64()?,
            });
        }
        let ci_target = match r.u8()? {
            0 => None,
            1 => Some(r.f64()?),
            t => return Err(WireError::BadTag(t)),
        };
        let prune_code = r.u8()?;
        let prune = PruneMode::from_wire_code(prune_code).ok_or(WireError::BadTag(prune_code))?;
        let audited = r.u64()?;
        let stop_code = r.u8()?;
        let stop = StopReason::from_wire_code(stop_code).ok_or(WireError::BadTag(stop_code))?;
        let n_batches = r.seq_len(3 * 8 + 1 + 8)?;
        let mut batches = Vec::with_capacity(n_batches);
        for _ in 0..n_batches {
            let batch = r.u64()?;
            let trials = r.u64()?;
            let cumulative = r.u64()?;
            let code = r.u8()?;
            let widest = InjectionTarget::from_wire_code(code).ok_or(WireError::BadTag(code))?;
            batches.push(BatchProgress {
                batch,
                trials,
                cumulative,
                widest,
                max_half_width: r.f64()?,
            });
        }
        let checkpoints = r.usize()?;
        let n_prov = r.seq_len(8 + 1)?;
        let mut provisioning = Vec::with_capacity(n_prov);
        for _ in 0..n_prov {
            let worker = r.str()?;
            let code = r.u8()?;
            let source = StoreSource::from_wire_code(code).ok_or(WireError::BadTag(code))?;
            provisioning.push(WorkerProvision { worker, source });
        }
        let n_disp = r.seq_len(8 + 8 + 8 + 1)?;
        let mut dispatches = Vec::with_capacity(n_disp);
        for _ in 0..n_disp {
            dispatches.push(DispatchRecord {
                batch: r.u64()?,
                worker: r.str()?,
                trials: r.u64()?,
                redispatched: r.bool()?,
            });
        }
        let wall = Duration::from_nanos(r.u64()?);
        Ok(CampaignReport {
            program,
            injections,
            fault_model,
            seed,
            workers,
            golden,
            targets,
            ci_target,
            prune,
            audited,
            stop,
            batches,
            checkpoints,
            provisioning,
            dispatches,
            wall,
        })
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fault-injection campaign: `{}` — {} injections, {} fault model, seed {}, \
             {} worker(s), golden {} cycles / {} instrs, {} checkpoint(s)",
            self.program,
            self.injections,
            self.fault_model,
            self.seed,
            self.workers,
            self.golden.cycles,
            self.golden.committed,
            self.checkpoints
        )?;
        if let Some(target) = self.ci_target {
            for b in &self.batches {
                writeln!(
                    f,
                    "  batch {:>3}: {:>5} trials ({:>6} total), widest CI ±{:.4} ({})",
                    b.batch, b.trials, b.cumulative, b.max_half_width, b.widest
                )?;
            }
            writeln!(
                f,
                "  adaptive stop: {} (target ±{:.4} after {} trials)",
                self.stop.name(),
                target,
                self.injections
            )?;
        }
        // Pruning columns append AFTER the verdict so the first twelve
        // whitespace-separated fields of each row are identical with
        // pruning off — CI scripts parse those by position.
        let prune = self.prune.enabled();
        writeln!(
            f,
            "{:<6} {:>7} {:>7} {:>6} {:>6} {:>6} {:>9} {:>17} {:>9} {:>8}  verdict{}",
            "struct",
            "trials",
            "masked",
            "sdc",
            "due",
            "divg",
            "inj-AVF",
            "95% CI",
            "ACE-AVF",
            "gap",
            if prune { "  pruned   saved" } else { "" }
        )?;
        for t in &self.targets {
            let (lo, hi) = t.ci95();
            write!(
                f,
                "{:<6} {:>7} {:>7} {:>6} {:>6} {:>6} {:>9.4} [{:>6.4}, {:>6.4}] {:>9.4} {:>8.4}  {}",
                t.target.name(),
                t.counts.total(),
                t.counts.masked,
                t.counts.sdc,
                t.counts.due,
                t.counts.diverged,
                t.measured_avf(),
                lo,
                hi,
                t.ace_avf,
                t.gap().gap(),
                t.verdict().name()
            )?;
            if prune {
                write!(f, " {:>8.4} {:>7}", 1.0 - t.residual, t.trials_saved())?;
            }
            writeln!(f)?;
        }
        if prune {
            writeln!(
                f,
                "  prune {}: stratified estimator skipped ~{} trial(s); {} audit trial(s), all masked",
                self.prune,
                self.trials_saved(),
                self.audited
            )?;
        }
        if self.redispatched_trials() > 0 {
            writeln!(
                f,
                "  re-dispatched {} trial(s) to surviving workers after connection loss",
                self.redispatched_trials()
            )?;
        }
        if self.unreached() > 0 {
            writeln!(
                f,
                "WARNING: {} trial(s) planned past the end of the fault-free prefix \
                 (excluded from AVF estimates)",
                self.unreached()
            )?;
        }
        writeln!(
            f,
            "agreement: {} within CI, {} bounded above, {} violations — {} ({:.0} inj/s)",
            self.agreements(),
            self.targets.len() - self.agreements() - self.violations(),
            self.violations(),
            if self.consistent() {
                "ACE bound holds"
            } else {
                "ACE BOUND VIOLATED"
            },
            self.throughput()
        )
    }
}

/// Bit-weighted ACE AVF of the arrays an injection target spans.
#[must_use]
pub fn ace_avf_of(report: &AvfReport, target: InjectionTarget) -> f64 {
    report.merged_avf(target.ace_structures())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OutcomeCounts;

    fn report_with(unmasked: u64, total: u64, ace_avf: f64) -> TargetReport {
        TargetReport {
            target: InjectionTarget::Dtlb,
            counts: OutcomeCounts {
                masked: total - unmasked,
                sdc: 0,
                due: unmasked,
                diverged: 0,
                unreached: 0,
            },
            ace_avf,
            residual: 1.0,
        }
    }

    #[test]
    fn sparse_events_never_flag_a_violation() {
        // 2 DUEs in 30 trials against a small-but-correct ACE estimate:
        // the strict interval clears the estimate, but two events are
        // rare-event noise, not evidence (regression: seed-level flake
        // in the CI smoke campaign).
        let t = report_with(2, 30, 0.0075);
        assert_ne!(t.verdict(), Verdict::Violation);
    }

    #[test]
    fn gross_overshoot_still_flags() {
        // A genuine soundness bug: measured ~0.33 against ACE ~0.
        let t = report_with(10, 30, 0.0001);
        assert_eq!(t.verdict(), Verdict::Violation);
    }

    #[test]
    fn tiny_samples_never_flag() {
        let t = report_with(5, 10, 0.0);
        assert_ne!(t.verdict(), Verdict::Violation);
    }

    #[test]
    fn campaign_report_wire_round_trips_bit_exact() {
        let report = CampaignReport {
            program: "avf-stressmark".to_owned(),
            injections: 800,
            fault_model: FaultModel::Replay,
            seed: 42,
            workers: 2,
            golden: GoldenRun {
                cycles: 123_456,
                committed: 30_000,
                digest: 0xDEAD_BEEF_CAFE_F00D,
            },
            targets: vec![
                report_with(2, 30, 0.0075),
                TargetReport {
                    target: InjectionTarget::Rob,
                    counts: OutcomeCounts {
                        masked: 70,
                        sdc: 11,
                        due: 13,
                        diverged: 5,
                        unreached: 1,
                    },
                    ace_avf: 0.123_456_789,
                    residual: 0.75,
                },
            ],
            ci_target: Some(0.1),
            prune: PruneMode::Audit,
            audited: 64,
            stop: StopReason::CiTarget,
            batches: vec![BatchProgress {
                batch: 0,
                trials: 128,
                cumulative: 128,
                widest: InjectionTarget::Lq,
                max_half_width: 0.217,
            }],
            checkpoints: 9,
            provisioning: vec![
                WorkerProvision {
                    worker: "127.0.0.1:7001".to_owned(),
                    source: StoreSource::GoldenRun,
                },
                WorkerProvision {
                    worker: "127.0.0.1:7002".to_owned(),
                    source: StoreSource::Cached,
                },
            ],
            dispatches: vec![DispatchRecord {
                batch: 0,
                worker: "127.0.0.1:7001".to_owned(),
                trials: 64,
                redispatched: true,
            }],
            wall: Duration::from_nanos(987_654_321),
        };
        let mut w = WireWriter::new();
        report.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = CampaignReport::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.program, report.program);
        assert_eq!(back.injections, report.injections);
        assert_eq!(back.fault_model, report.fault_model);
        assert_eq!(back.seed, report.seed);
        assert_eq!(back.workers, report.workers);
        assert_eq!(back.golden, report.golden);
        assert_eq!(back.targets.len(), report.targets.len());
        for (a, b) in back.targets.iter().zip(&report.targets) {
            assert_eq!(a.target, b.target);
            assert_eq!(a.counts, b.counts);
            assert_eq!(a.ace_avf.to_bits(), b.ace_avf.to_bits());
            assert_eq!(a.residual.to_bits(), b.residual.to_bits());
        }
        assert_eq!(
            back.ci_target.map(f64::to_bits),
            report.ci_target.map(f64::to_bits)
        );
        assert_eq!(back.prune, report.prune);
        assert_eq!(back.audited, report.audited);
        assert_eq!(back.stop, report.stop);
        assert_eq!(back.batches.len(), report.batches.len());
        assert_eq!(back.batches[0].widest, report.batches[0].widest);
        assert_eq!(
            back.batches[0].max_half_width.to_bits(),
            report.batches[0].max_half_width.to_bits()
        );
        assert_eq!(back.checkpoints, report.checkpoints);
        assert_eq!(back.provisioning, report.provisioning);
        assert_eq!(back.dispatches, report.dispatches);
        assert_eq!(back.wall, report.wall);
    }

    #[test]
    fn report_decode_rejects_unknown_codes() {
        let mut w = WireWriter::new();
        w.str("p");
        w.u64(1);
        w.u8(99); // no such fault model
        let bytes = w.into_bytes();
        let err = CampaignReport::decode(&mut WireReader::new(&bytes)).unwrap_err();
        assert_eq!(err, WireError::BadTag(99));
    }

    #[test]
    fn residual_scales_estimate_interval_and_verdict() {
        let mut t = report_with(30, 100, 0.08);
        // Unpruned: measured 0.30 against ACE 0.08 → a gross overshoot.
        assert_eq!(t.verdict(), Verdict::Violation);
        // The same counts over a 25% residual stratum estimate
        // 0.25·0.30 = 0.075 overall — inside the bound.
        t.residual = 0.25;
        assert!((t.measured_avf() - 0.075).abs() < 1e-12);
        let (lo, hi) = t.ci95();
        let (raw_lo, raw_hi) = t.counts.ci95();
        assert!((lo - 0.25 * raw_lo).abs() < 1e-12);
        assert!((hi - 0.25 * raw_hi).abs() < 1e-12);
        assert!((t.half_width95() - 0.25 * t.counts.half_width95()).abs() < 1e-12);
        assert_ne!(t.verdict(), Verdict::Violation);
        // 100 residual trials over w = 0.25 stand in for ~300 pruned-space draws.
        assert_eq!(t.trials_saved(), 300);
    }
}
