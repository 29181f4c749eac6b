//! The end-to-end stressmark search: GA over code-generator knobs with
//! simulated SER as the fitness (paper Figure 2's outer loop).
//!
//! The GA consumes a pluggable [`avf_ga::FitnessEvaluator`], and
//! [`SearchBackend`] selects who implements it: an in-process memoizing
//! thread pool, a fleet of `serve` workers spoken to directly, or the
//! campaign broker. Scores are deterministic functions of
//! (machine, fitness, budget, genome), through the program the genome
//! generates, so at a fixed seed the GA history — per-generation best
//! fitness, final genome, and evaluation count — is bit-identical
//! across all three venues, including runs where a worker dies
//! mid-generation and its unacknowledged individuals are re-dispatched.

use avf_ace::Fitness;
use avf_broker::BrokeredEvaluator;
use avf_codegen::{generate, Knobs, Stressmark, GENOME_LEN};
use avf_ga::{optimize, EvalError, GaParams, GaResult, LocalEvaluator};
use avf_service::{AuthKey, EvalContext, RemoteEvaluator, ScoreCache, Scorer};
use avf_sim::{simulate, MachineConfig, SimResult};

pub use avf_service::target_params;

/// Where fitness evaluation runs.
#[derive(Debug, Clone)]
pub enum SearchBackend {
    /// In-process evaluation on a persistent memoizing thread pool
    /// ([`LocalEvaluator`]), scoring each distinct program once through
    /// a [`ScoreCache`] as a `serve` worker does.
    Local {
        /// Worker threads (0 = all available cores).
        threads: usize,
    },
    /// Generations fan out across a fleet of `serve` workers
    /// (`search --workers host:port,...`).
    Workers {
        /// Worker addresses (`host:port`).
        addrs: Vec<String>,
        /// Shared frame-authentication key (`--auth-key-file`).
        auth: Option<AuthKey>,
    },
    /// Generations relay through the campaign broker into its fleet
    /// (`search --broker addr --tenant name`).
    Broker {
        /// Broker address (`host:port`).
        addr: String,
        /// Tenant the search bills to under fair scheduling.
        tenant: String,
        /// Shared frame-authentication key (`--auth-key-file`).
        auth: Option<AuthKey>,
    },
}

impl Default for SearchBackend {
    fn default() -> SearchBackend {
        SearchBackend::Local { threads: 0 }
    }
}

/// Configuration of one stressmark search.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Target microarchitecture.
    pub machine: MachineConfig,
    /// Fitness function (fault rates + scope).
    pub fitness: Fitness,
    /// GA parameters.
    pub ga: GaParams,
    /// Instructions simulated per candidate evaluation (scaled-down
    /// default; the paper ran 100M per candidate).
    pub eval_instructions: u64,
    /// Instructions simulated for the final re-evaluation of the winner.
    pub final_instructions: u64,
    /// Who evaluates each generation.
    pub backend: SearchBackend,
}

impl SearchConfig {
    /// A fast default: baseline machine, overall-SER fitness under the
    /// given rates, quick GA, 150k-instruction evaluations, local
    /// evaluation on all cores.
    #[must_use]
    pub fn quick(machine: MachineConfig, fitness: Fitness) -> SearchConfig {
        SearchConfig {
            machine,
            fitness,
            ga: GaParams::quick(),
            eval_instructions: 150_000,
            final_instructions: 3_000_000,
            backend: SearchBackend::default(),
        }
    }

    /// The paper-scale configuration (50 × 50 GA); candidate budgets stay
    /// simulator-scaled per DESIGN.md §7.
    #[must_use]
    pub fn paper(machine: MachineConfig, fitness: Fitness) -> SearchConfig {
        SearchConfig {
            ga: GaParams::paper(),
            ..SearchConfig::quick(machine, fitness)
        }
    }

    fn eval_context(&self) -> EvalContext {
        EvalContext {
            machine: self.machine.clone(),
            fitness: self.fitness.clone(),
            instr_budget: self.eval_instructions,
        }
    }
}

/// Everything the search produced.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The winning stressmark (program + knobs + derived properties).
    pub stressmark: Stressmark,
    /// Long-budget re-evaluation of the winner.
    pub result: SimResult,
    /// Its fitness score at the final budget.
    pub score: f64,
    /// GA provenance (convergence history for Figure 5b).
    pub ga: GaResult,
}

/// Runs the full search loop of Figure 2: the GA proposes knob values, the
/// code generator materializes candidates, the configured
/// [`SearchBackend`] measures their SER, and the best candidate is
/// re-evaluated locally at the final budget.
///
/// # Errors
///
/// Returns an [`EvalError`] when a remote or brokered backend fails —
/// every worker dead, a protocol violation, or a refused connection.
/// Local searches cannot fail.
pub fn generate_stressmark(config: &SearchConfig) -> Result<SearchOutcome, EvalError> {
    let ga = match &config.backend {
        SearchBackend::Local { threads } => {
            let scorer = Scorer::new(config.eval_context(), ScoreCache::shared());
            let mut evaluator =
                LocalEvaluator::new(*threads, move |genes: &[f64]| scorer.score(genes));
            optimize(GENOME_LEN, &config.ga, &mut evaluator)?
        }
        SearchBackend::Workers { addrs, auth } => {
            let mut evaluator = RemoteEvaluator::connect(addrs, *auth, config.eval_context())
                .map_err(|e| EvalError(e.to_string()))?;
            optimize(GENOME_LEN, &config.ga, &mut evaluator)?
        }
        SearchBackend::Broker { addr, tenant, auth } => {
            let mut evaluator =
                BrokeredEvaluator::connect(addr, tenant, *auth, config.eval_context())
                    .map_err(|e| EvalError(e.to_string()))?;
            optimize(GENOME_LEN, &config.ga, &mut evaluator)?
        }
    };

    let params = target_params(&config.machine);
    let knobs = Knobs::from_genome(&ga.best_genome, &params);
    let stressmark = generate(&knobs, &params);
    let result = simulate(
        &config.machine,
        &stressmark.program,
        config.final_instructions,
    );
    let score = config.fitness.score(&result.report);
    Ok(SearchOutcome {
        stressmark,
        result,
        score,
        ga,
    })
}

/// Evaluates fixed knob values (no search) at the given budget — useful for
/// ablations and regression tests.
#[must_use]
pub fn evaluate_knobs(
    machine: &MachineConfig,
    fitness: &Fitness,
    knobs: &Knobs,
    instructions: u64,
) -> (Stressmark, SimResult, f64) {
    let params = target_params(machine);
    let sm = generate(knobs, &params);
    let result = simulate(machine, &sm.program, instructions);
    let score = fitness.score(&result.report);
    (sm, result, score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use avf_ace::FaultRates;

    #[test]
    fn target_params_track_machine() {
        let p = target_params(&MachineConfig::config_a());
        assert_eq!(p.rob_entries, 96);
        assert_eq!(p.dtlb_entries, 512);
        assert_eq!(p.l2_bytes, 2 * 1024 * 1024);
    }

    fn tiny_config() -> SearchConfig {
        let mut config = SearchConfig::quick(
            MachineConfig::baseline(),
            Fitness::overall(FaultRates::baseline()),
        );
        config.ga = GaParams {
            population: 6,
            generations: 5,
            ..GaParams::quick()
        };
        config.eval_instructions = 8_000;
        config.final_instructions = 20_000;
        config
    }

    #[test]
    fn tiny_search_improves_over_first_generation() {
        let outcome = generate_stressmark(&tiny_config()).expect("local search cannot fail");
        assert!(outcome.ga.history.len() == 5);
        let first = outcome.ga.history[0].best;
        assert!(
            outcome.ga.best_fitness >= first,
            "search must never regress: {} vs {}",
            outcome.ga.best_fitness,
            first
        );
        assert!(outcome.score > 0.0);
        assert!(outcome.stressmark.knobs.loop_size >= 10);
    }

    #[test]
    fn search_is_thread_count_invariant() {
        let mut one = tiny_config();
        one.backend = SearchBackend::Local { threads: 1 };
        let mut four = tiny_config();
        four.backend = SearchBackend::Local { threads: 4 };
        let a = generate_stressmark(&one).expect("local search cannot fail");
        let b = generate_stressmark(&four).expect("local search cannot fail");
        assert_eq!(a.ga.best_genome, b.ga.best_genome);
        assert_eq!(a.ga.evaluations, b.ga.evaluations);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        for (x, y) in a.ga.history.iter().zip(&b.ga.history) {
            assert_eq!(x.best.to_bits(), y.best.to_bits());
            assert_eq!(x.mean.to_bits(), y.mean.to_bits());
        }
    }

    #[test]
    fn evaluate_knobs_is_deterministic() {
        let fitness = Fitness::overall(FaultRates::baseline());
        let machine = MachineConfig::baseline();
        let knobs = Knobs::paper_baseline();
        let (_, _, a) = evaluate_knobs(&machine, &fitness, &knobs, 20_000);
        let (_, _, b) = evaluate_knobs(&machine, &fitness, &knobs, 20_000);
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
