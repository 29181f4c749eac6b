//! Experiment drivers: one function per figure/table of the paper's
//! evaluation (Sections VI and VII). Each driver is self-contained and
//! renders paper-shaped output; `avf-bench` wraps them as regenerable
//! benchmark targets, and EXPERIMENTS.md records paper-vs-measured values.

use std::fmt;

use avf_ace::{FaultRates, Structure, StructureClass};
use avf_ga::{par_map, GaParams, GenerationStats};
use avf_inject::{Campaign, CampaignConfig, CampaignReport};
use avf_sim::{simulate, MachineConfig, SimResult};
use avf_workloads::Workload;

use crate::bounds::{instantaneous_qs_bound, raw_sum_core};
use crate::search::{generate_stressmark, SearchConfig, SearchOutcome};
use crate::table::Table;
use avf_ace::Fitness;

/// Budgets and GA scale for experiment regeneration.
///
/// Defaults are the scaled-down budgets of DESIGN.md §7; the paper's scale
/// (100M-instruction SimPoints, 50×50 GA) is reachable by raising them.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Instructions per workload measurement.
    pub workload_instructions: u64,
    /// Instructions per GA candidate evaluation.
    pub eval_instructions: u64,
    /// Instructions for final stressmark measurements.
    pub final_instructions: u64,
    /// GA parameters.
    pub ga: GaParams,
    /// Worker threads for workload sweeps, searches and campaigns (0 =
    /// one per available core).
    pub threads: usize,
}

impl ExperimentConfig {
    /// Default experiment scale (minutes for the full set).
    #[must_use]
    pub fn standard() -> ExperimentConfig {
        ExperimentConfig {
            workload_instructions: 2_000_000,
            eval_instructions: 120_000,
            final_instructions: 2_000_000,
            ga: GaParams::quick(),
            threads: 0,
        }
    }

    /// Tiny scale for unit/integration tests (seconds).
    #[must_use]
    pub fn smoke() -> ExperimentConfig {
        ExperimentConfig {
            workload_instructions: 60_000,
            eval_instructions: 10_000,
            final_instructions: 60_000,
            ga: GaParams {
                population: 6,
                generations: 4,
                ..GaParams::quick()
            },
            threads: 0,
        }
    }

    fn search_config(&self, machine: MachineConfig, fitness: Fitness) -> SearchConfig {
        SearchConfig {
            machine,
            fitness,
            ga: self.ga.clone(),
            eval_instructions: self.eval_instructions,
            final_instructions: self.final_instructions,
            backend: crate::SearchBackend::Local {
                threads: self.threads,
            },
        }
    }
}

/// Runs every workload on `machine` for `instructions`, on `threads`
/// threads (0 = one per available core), in input order.
#[must_use]
pub fn run_suite(
    machine: &MachineConfig,
    workloads: &[Workload],
    instructions: u64,
    threads: usize,
) -> Vec<(Workload, SimResult)> {
    par_map(threads, workloads, |w| {
        (w.clone(), simulate(machine, &w.build(), instructions))
    })
}

/// Bit-weighted AVF over a group of structures (merges tag/data arrays for
/// the per-structure figures).
#[must_use]
pub fn merged_avf(result: &SimResult, structures: &[Structure]) -> f64 {
    result.report.merged_avf(structures)
}

fn ser_row(result: &SimResult, rates: &FaultRates) -> Vec<f64> {
    let ser = result.report.ser(rates);
    vec![ser.qs(), ser.qs_rf(), ser.dl1_dtlb(), ser.l2()]
}

const SER_COLUMNS: [&str; 4] = ["QS", "QS+RF", "DL1+DTLB", "L2"];

/// Generates the stressmark for `machine` under `rates` (overall-SER
/// fitness, as in the paper).
#[must_use]
pub fn stressmark_for(
    cfg: &ExperimentConfig,
    machine: MachineConfig,
    rates: FaultRates,
) -> SearchOutcome {
    generate_stressmark(&cfg.search_config(machine, Fitness::overall(rates)))
        .expect("local search cannot fail")
}

/// Figure 3: normalized SER of the stressmark vs the SPEC CPU2006 proxies
/// on the baseline configuration.
#[must_use]
pub fn fig3(cfg: &ExperimentConfig) -> Table {
    let machine = MachineConfig::baseline();
    let rates = FaultRates::baseline();
    let sm = stressmark_for(cfg, machine.clone(), rates.clone());
    let runs = run_suite(
        &machine,
        &avf_workloads::spec_all(),
        cfg.workload_instructions,
        cfg.threads,
    );
    let mut t = Table::new(
        "Figure 3: SER (units/bit), stressmark vs SPEC CPU2006, baseline",
        &SER_COLUMNS,
    );
    t.push("Stressmark:Baseline", ser_row(&sm.result, &rates));
    for (w, r) in &runs {
        t.push(w.name(), ser_row(r, &rates));
    }
    t
}

/// Figure 4: normalized SER of the stressmark vs the MiBench proxies on the
/// baseline configuration.
#[must_use]
pub fn fig4(cfg: &ExperimentConfig) -> Table {
    let machine = MachineConfig::baseline();
    let rates = FaultRates::baseline();
    let sm = stressmark_for(cfg, machine.clone(), rates.clone());
    let runs = run_suite(
        &machine,
        &avf_workloads::mibench(),
        cfg.workload_instructions,
        cfg.threads,
    );
    let mut t = Table::new(
        "Figure 4: SER (units/bit), stressmark vs MiBench, baseline",
        &SER_COLUMNS,
    );
    t.push("Stressmark:Baseline", ser_row(&sm.result, &rates));
    for (w, r) in &runs {
        t.push(w.name(), ser_row(r, &rates));
    }
    t
}

/// Figure 5: the GA's solution (knob settings, 5a) and its convergence
/// history (5b).
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// The winning stressmark's knobs and derived properties (Figure 5a).
    pub outcome: SearchOutcome,
    /// Per-generation mean/best fitness (Figure 5b).
    pub convergence: Vec<GenerationStats>,
}

impl fmt::Display for Fig5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== Figure 5(a): knob settings of the final GA solution =="
        )?;
        write!(f, "{}", KnobSettings::of(&self.outcome))?;
        writeln!(
            f,
            "== Figure 5(b): GA convergence (mean fitness per generation) =="
        )?;
        for g in &self.convergence {
            writeln!(
                f,
                "gen {:>3}  mean {:.4}  best {:.4}{}",
                g.generation,
                g.mean,
                g.best,
                if g.cataclysm { "  <- cataclysm" } else { "" }
            )?;
        }
        Ok(())
    }
}

/// Figure 5 driver (baseline machine and rates).
#[must_use]
pub fn fig5(cfg: &ExperimentConfig) -> Fig5 {
    let outcome = stressmark_for(cfg, MachineConfig::baseline(), FaultRates::baseline());
    let convergence = outcome.ga.history.clone();
    Fig5 {
        outcome,
        convergence,
    }
}

/// Knob-settings rendering shared by Figures 5a, 8c, 8d and 9b.
#[derive(Debug, Clone)]
pub struct KnobSettings {
    lines: Vec<(String, String)>,
}

impl KnobSettings {
    /// Extracts the settings table from a search outcome.
    #[must_use]
    pub fn of(outcome: &SearchOutcome) -> KnobSettings {
        let k = &outcome.stressmark.knobs;
        let d = &outcome.stressmark.derived;
        let lines = vec![
            ("Loop Size".to_owned(), k.loop_size.to_string()),
            ("No. of loads".to_owned(), k.n_loads.to_string()),
            ("No. of stores".to_owned(), k.n_stores.to_string()),
            (
                "No. of Independent Arithmetic Instructions".to_owned(),
                d.indep_ops.to_string(),
            ),
            (
                match k.l2_mode {
                    avf_codegen::L2Mode::Miss => "No. of instructions dependent on L2 miss",
                    avf_codegen::L2Mode::Hit => "No. of instructions dependent on L2 hit",
                }
                .to_owned(),
                k.n_dep_on_miss.to_string(),
            ),
            (
                "Avg. Dependence Chain Length".to_owned(),
                format!("{:.2}", d.avg_chain_len),
            ),
            ("Dependency Distance".to_owned(), k.dep_distance.to_string()),
            (
                "Fraction of Long Latency Arithmetic".to_owned(),
                format!("{:.2}", k.frac_long_latency),
            ),
            (
                "Fraction of Reg-Reg arithmetic instructions".to_owned(),
                format!("{:.2}", k.frac_reg_reg),
            ),
            ("Template".to_owned(), format!("{:?}", k.l2_mode)),
        ];
        KnobSettings { lines }
    }

    /// The `(parameter, value)` pairs.
    #[must_use]
    pub fn lines(&self) -> &[(String, String)] {
        &self.lines
    }
}

impl fmt::Display for KnobSettings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.lines {
            writeln!(f, "  {k:<44} {v}")?;
        }
        Ok(())
    }
}

const AVF_COLUMNS: [&str; 9] = ["ROB", "IQ", "LQ", "SQ", "FU", "RF", "DL1", "DTLB", "L2"];

fn avf_row(result: &SimResult) -> Vec<f64> {
    vec![
        merged_avf(result, &[Structure::Rob]),
        merged_avf(result, &[Structure::Iq]),
        merged_avf(result, &[Structure::LqTag, Structure::LqData]),
        merged_avf(result, &[Structure::SqTag, Structure::SqData]),
        merged_avf(result, &[Structure::Fu]),
        merged_avf(result, &[Structure::RegFile]),
        merged_avf(result, &[Structure::Dl1Data, Structure::Dl1Tag]),
        merged_avf(result, &[Structure::Dtlb]),
        merged_avf(result, &[Structure::L2Data, Structure::L2Tag]),
    ]
}

/// Figure 6: per-structure AVF of every workload (one table per suite,
/// stressmark included in each for reference).
#[must_use]
pub fn fig6(cfg: &ExperimentConfig) -> [Table; 3] {
    let machine = MachineConfig::baseline();
    let sm = stressmark_for(cfg, machine.clone(), FaultRates::baseline());
    let mut tables = Vec::new();
    for (title, workloads) in [
        (
            "Figure 6(a): AVF, SPEC CPU2006 integer",
            avf_workloads::spec_int(),
        ),
        (
            "Figure 6(b): AVF, SPEC CPU2006 fp",
            avf_workloads::spec_fp(),
        ),
        ("Figure 6(c): AVF, MiBench", avf_workloads::mibench()),
    ] {
        let runs = run_suite(&machine, &workloads, cfg.workload_instructions, cfg.threads);
        let mut t = Table::new(title, &AVF_COLUMNS);
        t.push("Stressmark:Baseline", avf_row(&sm.result));
        for (w, r) in &runs {
            t.push(w.name(), avf_row(r));
        }
        tables.push(t);
    }
    tables.try_into().expect("three suites")
}

/// Figure 7: core SER of all workloads and the re-targeted stressmarks on
/// the RHC (a) and EDR (b) fault-rate configurations.
#[must_use]
pub fn fig7(cfg: &ExperimentConfig) -> [Table; 2] {
    let machine = MachineConfig::baseline();
    let runs = run_suite(
        &machine,
        &avf_workloads::all(),
        cfg.workload_instructions,
        cfg.threads,
    );
    let mut out = Vec::new();
    for rates in [FaultRates::rhc(), FaultRates::edr()] {
        let sm = stressmark_for(cfg, machine.clone(), rates.clone());
        let title = format!(
            "Figure 7: core SER (units/bit) under {} fault rates",
            rates.name()
        );
        let mut t = Table::new(title, &["QS", "QS+RF"]);
        let ser = sm.result.report.ser(&rates);
        t.push(
            format!("Stressmark:{}", rates.name()),
            vec![ser.qs(), ser.qs_rf()],
        );
        for (w, r) in &runs {
            let ser = r.report.ser(&rates);
            t.push(w.name(), vec![ser.qs(), ser.qs_rf()]);
        }
        out.push(t);
    }
    out.try_into().expect("two rate configs")
}

/// Figure 8: stressmark adaptation to circuit-level fault rates — queueing
/// AVF of the three stressmarks (8b) plus their knob settings (8c/8d).
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// Queueing-structure AVF of the Baseline/RHC/EDR stressmarks (8b).
    pub avf: Table,
    /// Knob settings for each stressmark (5a / 8c / 8d).
    pub knobs: Vec<(String, KnobSettings)>,
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.avf)?;
        for (name, k) in &self.knobs {
            writeln!(f, "-- knobs for {name} --")?;
            write!(f, "{k}")?;
        }
        Ok(())
    }
}

/// Figure 8 driver.
#[must_use]
pub fn fig8(cfg: &ExperimentConfig) -> Fig8 {
    let machine = MachineConfig::baseline();
    let mut avf = Table::new(
        "Figure 8(b): stressmark AVF of queueing structures per fault-rate config",
        &AVF_COLUMNS,
    );
    let mut knobs = Vec::new();
    for rates in [FaultRates::baseline(), FaultRates::rhc(), FaultRates::edr()] {
        let name = format!("Stressmark:{}", rates.name());
        let sm = stressmark_for(cfg, machine.clone(), rates);
        avf.push(name.clone(), avf_row(&sm.result));
        knobs.push((name, KnobSettings::of(&sm)));
    }
    Fig8 { avf, knobs }
}

/// Figure 9: stressmark re-targeted to the scaled-up Configuration A.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// Queueing AVF: baseline stressmark vs Config A stressmark (9a).
    pub avf: Table,
    /// Config A knob settings (9b).
    pub knobs: KnobSettings,
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.avf)?;
        writeln!(f, "-- knobs for Stressmark:ConfigA --")?;
        write!(f, "{}", self.knobs)
    }
}

/// Figure 9 driver.
#[must_use]
pub fn fig9(cfg: &ExperimentConfig) -> Fig9 {
    let base = stressmark_for(cfg, MachineConfig::baseline(), FaultRates::baseline());
    let a = stressmark_for(cfg, MachineConfig::config_a(), FaultRates::baseline());
    let mut avf = Table::new(
        "Figure 9(a): stressmark AVF, Baseline vs Config A",
        &AVF_COLUMNS,
    );
    avf.push("Stressmark:Baseline", avf_row(&base.result));
    avf.push("Stressmark:ConfigA", avf_row(&a.result));
    Fig9 {
        avf,
        knobs: KnobSettings::of(&a),
    }
}

/// Table III: comparison of worst-case core-SER estimation methodologies.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Columns: Stressmark, Best individual program, Sum of highest
    /// per-structure SER, Raw circuit-level sum, Instantaneous QS bound.
    pub table: Table,
    /// Name of the best individual program per rate configuration.
    pub best_programs: Vec<(String, String)>,
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table)?;
        for (config, name) in &self.best_programs {
            writeln!(f, "  best individual program under {config}: {name}")?;
        }
        Ok(())
    }
}

/// Table III driver: for each fault-rate configuration, compare the
/// stressmark's core SER against (i) the best individual program, (ii) the
/// sum of the highest per-structure SERs across the suite, (iii) the raw
/// circuit-level sum, and (iv) the instantaneous occupancy bound of
/// Section VI.
#[must_use]
pub fn table3(cfg: &ExperimentConfig) -> Table3 {
    let machine = MachineConfig::baseline();
    let sizes = machine.structure_sizes();
    let runs = run_suite(
        &machine,
        &avf_workloads::all(),
        cfg.workload_instructions,
        cfg.threads,
    );
    let core: Vec<Structure> = Structure::ALL
        .iter()
        .copied()
        .filter(|s| matches!(s.class(), StructureClass::Qs | StructureClass::Rf))
        .collect();
    let core_bits: u64 = core.iter().map(|&s| sizes.bits(s)).sum();

    let mut table = Table::new(
        "Table III: worst-case core SER estimation methodologies (units/bit)",
        &[
            "Stressmark",
            "BestProgram",
            "SumHighest",
            "RawSum",
            "InstQSBound",
        ],
    );
    let mut best_programs = Vec::new();
    for rates in [FaultRates::baseline(), FaultRates::rhc(), FaultRates::edr()] {
        let sm = stressmark_for(cfg, machine.clone(), rates.clone());
        let sm_core = sm.result.report.ser(&rates).qs_rf();

        let (best_name, best_core) = runs
            .iter()
            .map(|(w, r)| (w.name().to_owned(), r.report.ser(&rates).qs_rf()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("suite non-empty");

        // "Sum of highest per-structure SER": per structure, the maximum
        // over all workloads.
        let sum_highest: f64 = core
            .iter()
            .map(|&s| {
                runs.iter()
                    .map(|(_, r)| r.report.ser(&rates).structure_units(s))
                    .max_by(f64::total_cmp)
                    .unwrap_or(0.0)
            })
            .sum::<f64>()
            / core_bits as f64;

        table.push(
            rates.name(),
            vec![
                sm_core,
                best_core,
                sum_highest,
                raw_sum_core(&sizes, &rates),
                instantaneous_qs_bound(&sizes, &rates),
            ],
        );
        best_programs.push((rates.name().to_owned(), best_name));
    }
    Table3 {
        table,
        best_programs,
    }
}

/// The profiles the injection-vs-ACE validation sweeps alongside the
/// stressmark: a memory-bound SPEC proxy, a compute-bound SPEC proxy,
/// and an embedded MiBench kernel.
pub const VALIDATION_PROFILES: [&str; 3] = ["429.mcf", "456.hmmer", "susan"];

/// Cross-validation of ACE-based AVF by statistical fault injection:
/// one campaign per program, stressmark included.
#[derive(Debug, Clone)]
pub struct InjectionValidation {
    /// One campaign report per program.
    pub reports: Vec<CampaignReport>,
}

impl InjectionValidation {
    /// Programs whose ACE estimate lies within the measurement's 95%
    /// CI for every structure that ACE does not bound from above
    /// (i.e. no violations).
    #[must_use]
    pub fn consistent_programs(&self) -> usize {
        self.reports.iter().filter(|r| r.consistent()).count()
    }

    /// Whether every campaign is consistent with ACE analysis being a
    /// sound per-structure upper bound.
    #[must_use]
    pub fn all_consistent(&self) -> bool {
        self.consistent_programs() == self.reports.len()
    }
}

impl fmt::Display for InjectionValidation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.reports {
            writeln!(f, "{r}")?;
        }
        writeln!(
            f,
            "summary: ACE bound holds on {}/{} programs ({} structures within CI overall)",
            self.consistent_programs(),
            self.reports.len(),
            self.reports
                .iter()
                .map(CampaignReport::agreements)
                .sum::<usize>()
        )
    }
}

/// Runs fault-injection campaigns on the paper-baseline stressmark and
/// the [`VALIDATION_PROFILES`] workloads, comparing injection-measured
/// AVF (±95% CI) against the ACE estimate per structure.
///
/// `base` carries the full campaign configuration — budget/cap, seed,
/// threads, instruction budget, and the adaptive knobs (`ci_target`,
/// `batch_size`, `checkpoint_interval`); each program's campaign is a
/// clone of it. With `ci_target` set, every campaign runs the adaptive
/// sequential-sampling engine and stops at the precision target instead
/// of spending the whole cap.
///
/// The stressmark used is the paper's hand-tuned baseline knob setting
/// (no GA search): validation targets the *measurement* machinery, so
/// it wants a representative near-worst-case program, not a fresh
/// search per run.
#[must_use]
pub fn injection_vs_ace(machine: &MachineConfig, base: &CampaignConfig) -> InjectionValidation {
    injection_vs_ace_on(machine, base, &avf_inject::LocalBackend::new(base.threads))
        .expect("the local backend is infallible")
}

/// [`injection_vs_ace`] over an arbitrary campaign execution backend —
/// the same validation sweep, but trials run wherever the backend puts
/// them (in-process thread pool, or remote `serve` workers via
/// `avf-service`'s `RemoteBackend`). With a fixed seed the resulting
/// reports are identical across backends.
///
/// # Errors
///
/// Returns a [`avf_inject::BackendError`] if the backend cannot execute
/// a campaign (unreachable workers, protocol violation).
pub fn injection_vs_ace_on(
    machine: &MachineConfig,
    base: &CampaignConfig,
    backend: &dyn avf_inject::CampaignBackend,
) -> Result<InjectionValidation, avf_inject::BackendError> {
    let stressmark = avf_codegen::generate(
        &avf_codegen::Knobs::paper_baseline(),
        &crate::target_params(machine),
    );
    let mut programs = vec![stressmark.program];
    for name in VALIDATION_PROFILES {
        programs.push(
            avf_workloads::by_name(name)
                .expect("validation profile exists")
                .build(),
        );
    }
    let reports = programs
        .iter()
        .map(|program| Campaign::new(machine, program, base.clone()).run_on(backend))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(InjectionValidation { reports })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_suite_runs_everything_in_parallel() {
        let machine = MachineConfig::baseline();
        let ws = avf_workloads::mibench();
        let results = run_suite(&machine, &ws, 5_000, 4);
        assert_eq!(results.len(), ws.len());
        for (w, r) in &results {
            assert!(r.stats.committed > 0, "{} committed nothing", w.name());
        }
    }

    #[test]
    fn merged_avf_is_bit_weighted() {
        let machine = MachineConfig::baseline();
        let w = &avf_workloads::mibench()[0];
        let r = simulate(&machine, &w.build(), 5_000);
        let lq = merged_avf(&r, &[Structure::LqTag, Structure::LqData]);
        let a = r.report.avf(Structure::LqTag);
        let b = r.report.avf(Structure::LqData);
        assert!(lq >= a.min(b) && lq <= a.max(b));
    }

    #[test]
    fn fig5_produces_history_and_knobs() {
        let cfg = ExperimentConfig::smoke();
        let f = fig5(&cfg);
        assert_eq!(f.convergence.len(), cfg.ga.generations);
        let text = f.to_string();
        assert!(text.contains("Loop Size"));
        assert!(text.contains("gen"));
    }

    #[test]
    fn table3_has_three_rate_rows() {
        let cfg = ExperimentConfig::smoke();
        let t3 = table3(&cfg);
        assert_eq!(t3.table.rows().len(), 3);
        assert_eq!(t3.best_programs.len(), 3);
        // Raw sum must dominate every measured number (it ignores masking).
        for (name, vals) in t3.table.rows() {
            assert!(
                vals[3] >= vals[0] * 0.99,
                "{name}: raw sum must be pessimistic"
            );
        }
    }
}
