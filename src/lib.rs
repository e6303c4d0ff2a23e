//! Reproduction of **"Lasagne: A Static Binary Translator for Weak Memory
//! Model Architectures"** (Rocha et al., PLDI 2022) as a Rust workspace.
//!
//! This umbrella crate re-exports the workspace's public surface; see the
//! individual crates for the subsystems:
//!
//! | crate | paper section | contents |
//! |---|---|---|
//! | [`x86`] | §4 | x86-64 ISA, assembler, disassembler |
//! | [`lir`] | §3/§6 | the typed IR, interpreter, SSA utilities |
//! | [`lifter`] | §4 | binary lifting (CFG recon, type discovery, translation) |
//! | [`refine`] | §5 | pointer-exposing peepholes + parameter promotion |
//! | [`memmodel`] | §6–7 | x86-TSO / Armv8 / LIMM axiomatic models, litmus checking |
//! | [`fences`] | §7–8 | fence placement, merging, Figure 11 legality |
//! | [`opt`] | §9.4 | the Figure 17 optimization passes |
//! | [`armgen`] | §8 | AArch64 backend + cost-model interpreter |
//! | [`phoenix`] | §9.1 | the Phoenix benchmarks as x86 binaries |
//! | [`translator`] | §3 | the end-to-end pipeline and §9.1 versions |
//! | [`mod@bench`] | §9 | measurement harness behind `report` and `lasagne run` |
//! | [`cache`] | — | content-addressed on-disk translation cache |
//! | [`trace`] | — | structured tracing, metrics, Chrome trace export |
//! | [`pool`] | — | std-only work-stealing pool shared by the pipeline and `memmodel` |

pub use lasagne as translator;
pub use lasagne_armgen as armgen;
pub use lasagne_bench as bench;
pub use lasagne_cache as cache;
pub use lasagne_fences as fences;
pub use lasagne_lifter as lifter;
pub use lasagne_lir as lir;
pub use lasagne_memmodel as memmodel;
pub use lasagne_opt as opt;
pub use lasagne_phoenix as phoenix;
pub use lasagne_pool as pool;
pub use lasagne_refine as refine;
pub use lasagne_trace as trace;
pub use lasagne_x86 as x86;
