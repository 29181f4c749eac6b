//! # avf-ga
//!
//! A compact genetic-algorithm framework — the reproduction's substitute
//! for the IBM SNAP tool the AVF stressmark paper obtained under NDA
//! (Nair, John & Eeckhout, MICRO 2010, Section V).
//!
//! It reproduces every behaviour the paper relies on:
//!
//! * crossover rate 0.73 and mutation probability 0.05
//!   ([`GaParams::paper`]), per Grefenstette / Srinivas & Patnaik;
//! * elitist generational replacement with tournament selection;
//! * **migration** — periodic injection of fresh random individuals;
//! * **cataclysm** — when the population converges or stagnates, the best
//!   solution is moved into a new random population (the abrupt
//!   average-fitness dip at generation 30 of Figure 5b);
//! * per-generation statistics ([`GenerationStats`]) for convergence plots.
//!
//! Genomes are vectors of `[0, 1]` genes; the stressmark layer maps them
//! onto code-generator knobs.
//!
//! Fitness evaluation is pluggable: [`optimize`] scores each generation
//! through a [`FitnessEvaluator`] — wrap a closure in
//! [`ClosureEvaluator`], use [`LocalEvaluator`] to memoize scores and
//! compute the new ones on local threads, or supply a remote backend
//! (the stressmark layer ships one that fans generations out across a
//! worker fleet).
//!
//! [`par_map`] is the workspace's ordered parallel map: the local
//! evaluator, the worker's fitness batches and the workload sweeps all
//! run on it.
//!
//! ## Example
//!
//! ```
//! use avf_ga::{optimize, ClosureEvaluator, GaParams};
//!
//! let params = GaParams { population: 16, generations: 12, ..GaParams::quick() };
//! let mut fitness = ClosureEvaluator::new(|g: &[f64]| -(g[0] - 0.5).abs() - g[1] * g[2]);
//! let result = optimize(3, &params, &mut fitness).expect("local evaluation cannot fail");
//! assert_eq!(result.history.len(), 12);
//! assert!(result.best_fitness <= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod evaluator;
mod history;
mod ops;
mod par;
mod params;

pub use engine::{optimize, GaResult};
pub use evaluator::{genome_bits, ClosureEvaluator, EvalError, FitnessEvaluator, LocalEvaluator};
pub use history::{mean_std, GenerationStats};
pub use ops::{crossover, mutate, random_genome, tournament};
pub use par::par_map;
pub use params::GaParams;
