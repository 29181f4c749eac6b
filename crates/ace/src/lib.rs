//! # avf-ace
//!
//! ACE analysis — the measurement half of the AVF stressmark methodology
//! (Nair, John & Eeckhout, MICRO 2010, Section II).
//!
//! Architectural Vulnerability Factor (AVF, Mukherjee et al. MICRO'03) is
//! the probability that a radiation-induced fault in a structure becomes
//! visible in program output:
//!
//! ```text
//! AVF(structure) = Σ_bits ACE-cycles(bit) / (bits × cycles)
//! ```
//!
//! This crate computes AVF for the core's queueing structures, the register
//! file, and the cache hierarchy, then derates by circuit-level fault rates
//! to obtain SER ("AVF + Sum of Failure Rates"):
//!
//! * [`DeadnessEngine`] resolves *dynamically dead* instructions (Butts &
//!   Sohi): it keeps a 16-byte record per committed instruction (kind,
//!   source registers, destination, memory words) plus the data-field
//!   residency and register lifetimes still to credit, and decides every
//!   instruction's ACE-ness in one backward sweep at the end of the run;
//! * [`CacheLifetime`] / [`TlbLifetime`] perform Biswas-style lifetime
//!   analysis on address-based structures (Fill⇒Read, Write⇒Evict, ...);
//! * [`FaultRates`] holds the paper's Figure 8(a) fault-rate tables;
//! * [`AvfAnalyzer`] is the facade a simulator drives, producing an
//!   [`AvfReport`] whose [`SerReport`] reproduces the paper's normalized
//!   "units/bit" metrics.
//!
//! ## Example
//!
//! ```
//! use avf_ace::{AvfAnalyzer, AceKind, FaultRates, InstrRecord, Slice, Structure, StructureSizes};
//!
//! let mut analyzer = AvfAnalyzer::new("demo", StructureSizes::baseline());
//! // A value producer resident in the ROB, later consumed by a branch.
//! let mut producer = InstrRecord::of_kind(AceKind::Value);
//! producer.dest = Some(1);
//! producer.residency.push(Slice { structure: Structure::Rob, start: 0, end: 40, bits: 76 });
//! analyzer.commit(producer);
//! let mut branch = InstrRecord::of_kind(AceKind::Branch);
//! branch.srcs[0] = Some(1);
//! analyzer.commit(branch);
//!
//! let report = analyzer.finish(100);
//! assert!(report.avf(Structure::Rob) > 0.0);
//! let ser = report.ser(&FaultRates::baseline());
//! assert!(ser.qs() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyzer;
mod deadness;
mod faultrates;
mod fitness;
mod lifetime;
mod record;
mod report;
mod structures;

pub use analyzer::AvfAnalyzer;
pub use deadness::{DeadnessEngine, DeadnessStats};
pub use faultrates::FaultRates;
pub use fitness::{Fitness, FitnessScope};
pub use lifetime::{CacheLifetime, TlbLifetime};
pub use record::{AceKind, DynId, InstrRecord, MemRef, PregRecord, Residency, Slice};
pub use report::{AceGap, AvfReport, SerReport};
pub use structures::{Structure, StructureClass, StructureSizes};
