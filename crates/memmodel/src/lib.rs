//! Executable axiomatic memory models for Lasagne (paper §6–§7).
//!
//! This crate is the reproduction's substitute for the paper's ~12k lines
//! of Agda: instead of mechanised proofs, the mapping theorems (7.3, 7.4)
//! and the transformation-soundness results (Figure 11, Theorem 7.5) are
//! *model-checked* by exhaustive enumeration of candidate executions over
//! litmus programs — the paper's own examples (SB, MP, Figures 9 and 10)
//! plus randomly generated programs (see `tests/`).
//!
//! Contents:
//!
//! * [`rel`] — the relation calculus of §6.1 (composition, closures,
//!   acyclicity) over dense bit matrices;
//! * [`exec`] — litmus programs, events, and exhaustive enumeration of
//!   `⟨E, po, rf, co, rmw⟩` candidate executions;
//! * [`models`] — the x86-TSO, Armv8 and LIMM consistency predicates
//!   (Figures 6 and 7);
//! * [`mapping`] — the Figure 8 mapping schemes and the Theorem 7.1
//!   inclusion checker;
//! * [`litmus`] — the paper's litmus programs;
//! * [`transform`] — Figure 11 swap/elimination validation (Theorem 7.5).
//!
//! # Example
//!
//! ```
//! use lasagne_memmodel::litmus;
//! use lasagne_memmodel::mapping::check_chain;
//! use lasagne_pool::Pool;
//!
//! // Theorems 7.3 + 7.4 on the message-passing litmus test: translating
//! // MP from x86 through LIMM to Arm introduces no new behaviours (one
//! // job: the enumeration runs inline on the calling thread).
//! check_chain(Pool::shared(), 1, &litmus::mp()).unwrap();
//! ```

#![warn(missing_docs)]

pub mod exec;
pub mod litmus;
pub mod mapping;
pub mod models;
pub mod rel;
pub mod transform;

pub use exec::{Event, Execution, FenceTy, Lab, Op, Outcome, Program};
pub use litmus::{sweep_row, sweep_suite, SuiteRow};
pub use models::{consistent, outcomes, outcomes_par, Model};
