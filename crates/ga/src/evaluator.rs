//! Pluggable fitness evaluation.
//!
//! The generational loop in [`crate::optimize`] does not own execution:
//! it hands each generation to a [`FitnessEvaluator`] and gets scores
//! back. Where and how those scores are computed — inline, on local
//! threads ([`LocalEvaluator`]), or across a remote worker fleet — is
//! the evaluator's business, which is what lets the stressmark search
//! run distributed without the GA knowing.
//!
//! Evaluators also own the *evaluation count*: [`GaResult::evaluations`]
//! reports actual fitness computations, so an evaluator that memoizes
//! (every evaluator here except [`ClosureEvaluator`]) counts distinct
//! genomes, not calls. Re-scored elites are cache hits, and a remote
//! evaluator that re-dispatches work after a worker death must not
//! double-count — keeping the paper's evaluations-to-convergence
//! comparison honest across execution venues.
//!
//! [`GaResult::evaluations`]: crate::GaResult::evaluations

use std::collections::HashMap;

use crate::par_map;

/// A fitness evaluation failed in a way the evaluator cannot recover
/// from (e.g. every remote worker died). Local evaluation is
/// infallible and never returns this.
#[derive(Debug, Clone)]
pub struct EvalError(pub String);

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fitness evaluation failed: {}", self.0)
    }
}

impl std::error::Error for EvalError {}

/// Scores whole generations of genomes for [`crate::optimize`].
///
/// Implementations must be *deterministic*: the same genome always
/// scores identically, no matter which call, thread, or worker computes
/// it. The GA's fixed-seed reproducibility guarantee rests on this.
pub trait FitnessEvaluator {
    /// Scores every genome of `generation`, in order.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] only on unrecoverable failure (local
    /// evaluators are infallible).
    fn evaluate(&mut self, generation: &[Vec<f64>]) -> Result<Vec<f64>, EvalError>;

    /// Actual fitness computations performed so far: cache hits are
    /// excluded and redundant/re-dispatched computations of one genome
    /// count once.
    fn evaluations(&self) -> u64;
}

/// The exact bit pattern of a genome, used as a memoization key.
///
/// Genomes are compared by `f64` bit pattern, not value, so `-0.0` and
/// `0.0` are distinct keys — exactness matters more than canonicalizing
/// values the GA's own operators never produce.
#[must_use]
pub fn genome_bits(genome: &[f64]) -> Vec<u64> {
    genome.iter().map(|g| g.to_bits()).collect()
}

/// The trivial evaluator: calls a closure once per individual, no
/// caching, no threads. `evaluations` counts every call.
///
/// This is the convenience path for tests and cheap analytic fitness
/// functions; real sim-backed searches want [`LocalEvaluator`] (or a
/// remote backend) so duplicate genomes are not re-simulated.
pub struct ClosureEvaluator<F> {
    fitness: F,
    evaluations: u64,
}

impl<F: Fn(&[f64]) -> f64> ClosureEvaluator<F> {
    /// Wraps `fitness` as an evaluator.
    pub fn new(fitness: F) -> ClosureEvaluator<F> {
        ClosureEvaluator {
            fitness,
            evaluations: 0,
        }
    }
}

impl<F: Fn(&[f64]) -> f64> FitnessEvaluator for ClosureEvaluator<F> {
    fn evaluate(&mut self, generation: &[Vec<f64>]) -> Result<Vec<f64>, EvalError> {
        self.evaluations += generation.len() as u64;
        Ok(generation.iter().map(|g| (self.fitness)(g)).collect())
    }

    fn evaluations(&self) -> u64 {
        self.evaluations
    }
}

type FitnessFn = dyn Fn(&[f64]) -> f64 + Send + Sync;

/// In-process parallel evaluator with a genome-keyed memo cache.
///
/// Each generation's uncached genomes are scored through [`par_map`]
/// on `threads` threads. Scores are memoized by exact genome bits, so
/// elites carried across generations (and duplicate genomes within one)
/// are evaluated exactly once; `evaluations` therefore counts *distinct*
/// genomes, matching what a remote fleet would report for the same
/// search. The cache is unbounded: a search touches at most
/// `population × generations` genomes, a few megabytes at paper scale.
pub struct LocalEvaluator {
    threads: usize,
    fitness: Box<FitnessFn>,
    cache: HashMap<Vec<u64>, f64>,
    evaluations: u64,
}

impl LocalEvaluator {
    /// An evaluator scoring `fitness` on `threads` threads (0 = one per
    /// available core).
    pub fn new<F>(threads: usize, fitness: F) -> LocalEvaluator
    where
        F: Fn(&[f64]) -> f64 + Send + Sync + 'static,
    {
        LocalEvaluator {
            threads,
            fitness: Box::new(fitness),
            cache: HashMap::new(),
            evaluations: 0,
        }
    }
}

impl FitnessEvaluator for LocalEvaluator {
    fn evaluate(&mut self, generation: &[Vec<f64>]) -> Result<Vec<f64>, EvalError> {
        let mut scores = vec![0.0f64; generation.len()];
        // One job per *distinct* uncached genome; duplicates within the
        // generation share the single result.
        let mut fresh: Vec<(Vec<u64>, Vec<usize>)> = Vec::new();
        let mut slot_of: HashMap<Vec<u64>, usize> = HashMap::new();
        for (i, genome) in generation.iter().enumerate() {
            let key = genome_bits(genome);
            if let Some(&score) = self.cache.get(&key) {
                scores[i] = score;
            } else if let Some(&slot) = slot_of.get(&key) {
                fresh[slot].1.push(i);
            } else {
                slot_of.insert(key.clone(), fresh.len());
                fresh.push((key, vec![i]));
            }
        }
        let fitness = &self.fitness;
        let fresh_scores = par_map(self.threads, &fresh, |(_, indices)| {
            fitness(&generation[indices[0]])
        });
        for ((key, indices), score) in fresh.into_iter().zip(fresh_scores) {
            self.cache.insert(key, score);
            self.evaluations += 1;
            for i in indices {
                scores[i] = score;
            }
        }
        Ok(scores)
    }

    fn evaluations(&self) -> u64 {
        self.evaluations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(genome: &[f64]) -> f64 {
        genome.iter().sum()
    }

    #[test]
    fn local_matches_closure_bit_for_bit() {
        let generation: Vec<Vec<f64>> = (0..7)
            .map(|i| vec![i as f64 * 0.1, 0.5, 1.0 / (i + 1) as f64])
            .collect();
        let mut closure = ClosureEvaluator::new(sum);
        let mut local = LocalEvaluator::new(3, sum);
        let a = closure.evaluate(&generation).unwrap();
        let b = local.evaluate(&generation).unwrap();
        let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn local_counts_distinct_genomes_only() {
        let gen_a: Vec<Vec<f64>> = vec![vec![0.1, 0.2], vec![0.3, 0.4], vec![0.1, 0.2]];
        let mut local = LocalEvaluator::new(2, sum);
        local.evaluate(&gen_a).unwrap();
        assert_eq!(local.evaluations(), 2, "in-generation duplicate is one job");
        // Re-scoring the same genomes (elites surviving a generation) is
        // free.
        local.evaluate(&gen_a).unwrap();
        assert_eq!(local.evaluations(), 2, "re-scored genomes are cache hits");
        local.evaluate(&[vec![0.9, 0.9]]).unwrap();
        assert_eq!(local.evaluations(), 3);
    }

    #[test]
    fn closure_counts_every_call() {
        let generation = vec![vec![0.5], vec![0.5]];
        let mut closure = ClosureEvaluator::new(sum);
        closure.evaluate(&generation).unwrap();
        closure.evaluate(&generation).unwrap();
        assert_eq!(closure.evaluations(), 4);
    }

    #[test]
    fn genome_bits_distinguishes_negative_zero() {
        assert_ne!(genome_bits(&[0.0]), genome_bits(&[-0.0]));
        assert_eq!(genome_bits(&[0.25, 0.5]), genome_bits(&[0.25, 0.5]));
    }
}
