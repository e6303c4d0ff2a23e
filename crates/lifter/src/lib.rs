//! Static binary lifter: x86-64 machine code → LIR (paper §4).
//!
//! The pipeline mirrors Figure 4 of the paper: the binary is disassembled
//! (`lasagne-x86`), control-flow graphs are reconstructed per function
//! ([`xcfg`]), function types are discovered from the System-V calling
//! convention via live-register analysis ([`typedisc`]), and instructions
//! are translated to LIR ([`translate`]) with the stack reconstructed as a
//! byte-array `alloca`, only the live flag effects materialised, and
//! registers and flags built as SSA values while lifting.
//!
//! # Example
//!
//! ```
//! use lasagne_lifter::lift_binary;
//! use lasagne_x86::asm::Asm;
//! use lasagne_x86::binary::BinaryBuilder;
//! use lasagne_x86::inst::{AluOp, Inst, Rm};
//! use lasagne_x86::reg::{Gpr, Width};
//!
//! // f(x) = x + 1, as real machine code.
//! let mut b = BinaryBuilder::new();
//! let mut a = Asm::new();
//! a.push(Inst::MovRRm { w: Width::W64, dst: Gpr::Rax, src: Rm::Reg(Gpr::Rdi) });
//! a.push(Inst::AluRmI { op: AluOp::Add, w: Width::W64, dst: Rm::Reg(Gpr::Rax), imm: 1 });
//! a.push(Inst::Ret);
//! let addr = b.next_function_addr();
//! b.add_function("inc", a.finish(addr)?);
//! let module = lift_binary(&b.finish())?;
//! assert!(module.func_by_name("inc").is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod liveness;
pub mod translate;
pub mod typedisc;
pub mod xcfg;

use lasagne_lir::func::{ExternDecl, Function, GlobalVar, Module};
use lasagne_lir::types::{Pointee, Ty};
use lasagne_x86::binary::Binary;
use std::collections::BTreeMap;
use translate::SymbolEnv;
use typedisc::{FuncType, SigTable};

/// Machine-code and type-discovery profile of one function, reported by
/// [`LiftPlan::function_profile`]; the pipeline's lifter counters and
/// `lift-function` events are derived from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuncProfile {
    /// x86 entry address.
    pub addr: u64,
    /// x86 instructions across all blocks.
    pub x86_insts: usize,
    /// Parameters discovered by the §4 live-register analysis.
    pub params: usize,
}

/// Errors produced by [`lift_binary`].
#[derive(Debug)]
pub enum LiftError {
    /// The named function symbol's byte range is empty or does not lie
    /// inside the text section.
    Symbol(String),
    /// CFG reconstruction failed.
    Cfg(xcfg::CfgError),
    /// Instruction translation failed.
    Translate(translate::TranslateError),
    /// The produced module failed verification (a lifter bug).
    Verify(Vec<lasagne_lir::verify::VerifyError>),
}

impl std::fmt::Display for LiftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiftError::Symbol(name) => write!(f, "symbol `{name}` is empty or lies outside .text"),
            LiftError::Cfg(e) => write!(f, "cfg: {e}"),
            LiftError::Translate(e) => write!(f, "translate: {e}"),
            LiftError::Verify(es) => {
                write!(f, "verification failed: {} errors ({})", es.len(), es[0])
            }
        }
    }
}

impl std::error::Error for LiftError {}

/// Signature of a known C-library/pthread extern: `(type, variadic)`.
///
/// Pointer-typed parameters appear as raw `i64` at lift time (the machine
/// has no pointer types); declared return pointers are typed `i8*`.
pub fn extern_signature(name: &str) -> Option<(FuncType, bool)> {
    let t = |params: Vec<Ty>, ret: Ty, v: bool| Some((FuncType { params, ret }, v));
    match name {
        "malloc" | "valloc" => t(vec![Ty::I64], Ty::Ptr(Pointee::I8), false),
        "calloc" => t(vec![Ty::I64, Ty::I64], Ty::Ptr(Pointee::I8), false),
        "free" => t(vec![Ty::I64], Ty::Void, false),
        "memset" | "memcpy" => t(vec![Ty::I64, Ty::I64, Ty::I64], Ty::I64, false),
        "strlen" => t(vec![Ty::I64], Ty::I64, false),
        "printf" => t(vec![Ty::I64], Ty::I32, true),
        "puts" => t(vec![Ty::I64], Ty::I32, false),
        "exit" | "abort" => t(vec![Ty::I64], Ty::Void, false),
        "sqrt" => t(vec![Ty::F64], Ty::F64, false),
        "pthread_create" => t(vec![Ty::I64, Ty::I64, Ty::I64, Ty::I64], Ty::I32, false),
        "pthread_join" => t(vec![Ty::I64, Ty::I64], Ty::I32, false),
        "pthread_exit" => t(vec![Ty::I64], Ty::Void, false),
        "pthread_mutex_init" | "pthread_mutex_destroy" => t(vec![Ty::I64, Ty::I64], Ty::I32, false),
        "pthread_mutex_lock" | "pthread_mutex_unlock" => t(vec![Ty::I64], Ty::I32, false),
        "sysconf" => t(vec![Ty::I64], Ty::I64, false),
        _ => None,
    }
}

/// Lifts a whole binary image to an LIR module: [`LiftPlan::prepare`]
/// followed by lifting every function in address order and
/// [`LiftPlan::finish`] — the one-shot serial form of the two-phase API.
///
/// # Errors
///
/// Returns a [`LiftError`] if any function cannot be decoded, reconstructed,
/// or translated, or if the produced module fails verification.
pub fn lift_binary(bin: &Binary) -> Result<Module, LiftError> {
    let plan = LiftPlan::prepare(bin)?;
    let bodies = (0..plan.num_functions())
        .map(|i| plan.lift_function(i))
        .collect::<Result<Vec<_>, _>>()?;
    plan.finish(bodies)
}

/// The serial front half of lifting, split off so the per-function body
/// translations can run on worker threads.
///
/// [`LiftPlan::prepare`] performs every whole-binary step — global and
/// extern registration, CFG reconstruction, bottom-up function-type
/// discovery, and function-shell creation (so [`lasagne_lir::FuncId`]s
/// exist before any body is translated). After that,
/// [`LiftPlan::lift_function`] is a *pure* function of the plan: it reads
/// only immutable shared state, so any subset of functions may be lifted
/// concurrently, in any order, with byte-identical results.
/// [`LiftPlan::finish`] installs the bodies and verifies the module.
pub struct LiftPlan {
    /// Module with globals, externs, and empty function shells installed.
    module: Module,
    /// Symbol environment shared (read-only) by every body translation.
    env: SymbolEnv,
    /// Per-function work items in address order: `(addr, name, cfg)`.
    /// Index `i` corresponds to `module.funcs[i]`.
    work: Vec<(u64, String, xcfg::XCfg)>,
    /// Discovered signature per work item.
    tys: Vec<FuncType>,
    /// Extern id of `sqrt` (needed by `sqrtsd` translation).
    sqrt_id: lasagne_lir::inst::ExternId,
}

impl LiftPlan {
    /// Runs the whole-binary analysis phase.
    ///
    /// # Errors
    ///
    /// Returns [`LiftError::Symbol`] if a function symbol is empty or lies
    /// outside the text section, and [`LiftError::Cfg`] if any function's
    /// control flow cannot be reconstructed.
    pub fn prepare(bin: &Binary) -> Result<LiftPlan, LiftError> {
        let mut module = Module::new();

        // Globals.
        let mut global_ranges = Vec::new();
        for g in &bin.globals {
            let id = module.add_global(GlobalVar {
                name: g.name.clone(),
                size: g.size,
                init: g.init.clone(),
                addr: g.addr,
            });
            global_ranges.push((g.addr, g.size, id));
        }

        // Externs: declared stubs plus `sqrt`, which the translator needs
        // for `sqrtsd` even when the binary does not import it.
        let mut sigs = SigTable::new();
        let mut extern_map = BTreeMap::new();
        for e in &bin.externs {
            let (fty, variadic) = extern_signature(&e.name).unwrap_or((
                FuncType {
                    params: vec![],
                    ret: Ty::I64,
                },
                true,
            ));
            let id = module.declare_extern(ExternDecl {
                name: e.name.clone(),
                params: fty.params.clone(),
                ret: fty.ret,
                variadic,
            });
            sigs.insert(e.addr, fty.clone());
            extern_map.insert(e.addr, (id, fty, variadic));
        }
        let (sqrt_ty, _) = extern_signature("sqrt").unwrap();
        let sqrt_id = module.declare_extern(ExternDecl {
            name: "sqrt".into(),
            params: sqrt_ty.params.clone(),
            ret: sqrt_ty.ret,
            variadic: false,
        });

        // Build machine CFGs for every function; `jmp` to another function
        // or extern stub is a tail call.
        let call_targets: std::collections::BTreeSet<u64> = bin
            .functions
            .iter()
            .map(|f| f.addr)
            .chain(bin.externs.iter().map(|e| e.addr))
            .collect();
        let mut cfgs: BTreeMap<u64, (String, xcfg::XCfg)> = BTreeMap::new();
        for f in &bin.functions {
            let code = bin.code_of(f).filter(|c| !c.is_empty());
            let code = code.ok_or_else(|| LiftError::Symbol(f.name.clone()))?;
            let cfg = xcfg::build_xcfg(code, f.addr, |t| t != f.addr && call_targets.contains(&t))
                .map_err(LiftError::Cfg)?;
            cfgs.insert(f.addr, (f.name.clone(), cfg));
        }

        // Function type discovery, bottom-up over the call graph: iterate
        // until every function whose callees are all known has been
        // discovered, then force the rest (recursion / cycles) with what is
        // known.
        let mut discovered: BTreeMap<u64, FuncType> = BTreeMap::new();
        loop {
            let mut progressed = false;
            for (addr, (_, cfg)) in &cfgs {
                if discovered.contains_key(addr) {
                    continue;
                }
                let callees_known =
                    cfg.blocks
                        .iter()
                        .flat_map(|b| &b.insts)
                        .all(|d| match d.inst {
                            lasagne_x86::Inst::Call {
                                target: lasagne_x86::inst::Target::Abs(t),
                            } => sigs.get(t).is_some() || t == *addr,
                            // Tail calls: a jmp out of the function.
                            lasagne_x86::Inst::Jmp {
                                target: lasagne_x86::inst::Target::Abs(t),
                            } if cfg.block_index(t).is_none() => {
                                sigs.get(t).is_some() || t == *addr
                            }
                            _ => true,
                        });
                if callees_known {
                    let fty = typedisc::discover(cfg, &sigs);
                    sigs.insert(*addr, fty.clone());
                    discovered.insert(*addr, fty);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        for (addr, (_, cfg)) in &cfgs {
            discovered.entry(*addr).or_insert_with(|| {
                let fty = typedisc::discover(cfg, &sigs);
                sigs.insert(*addr, fty.clone());
                fty
            });
        }

        // Create function shells so ids exist before bodies are translated.
        let mut env = SymbolEnv {
            funcs: BTreeMap::new(),
            externs: extern_map,
            globals: global_ranges,
        };
        for (addr, (name, _)) in &cfgs {
            let fty = &discovered[addr];
            let id = module.add_func(Function::new(name, fty.params.clone(), fty.ret));
            env.funcs.insert(*addr, (id, fty.clone()));
        }

        // Freeze the per-function work list in address order (the same
        // order the shells were added, so work index `i` == `FuncId(i)`).
        let mut work = Vec::with_capacity(cfgs.len());
        let mut tys = Vec::with_capacity(cfgs.len());
        for (addr, (name, cfg)) in cfgs {
            tys.push(discovered[&addr].clone());
            work.push((addr, name, cfg));
        }

        Ok(LiftPlan {
            module,
            env,
            work,
            tys,
            sqrt_id,
        })
    }

    /// Number of functions awaiting body translation.
    pub fn num_functions(&self) -> usize {
        self.work.len()
    }

    /// Name of work item `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn function_name(&self, i: usize) -> &str {
        &self.work[i].1
    }

    /// x86 entry address of work item `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn function_addr(&self, i: usize) -> u64 {
        self.work[i].0
    }

    /// The module as every per-function pass will see it: globals and
    /// externs with an **empty** function table.
    ///
    /// [`LiftPlan::finish`] only installs function bodies, so this is
    /// byte-identical to the post-`finish` module with `funcs` taken out
    /// — the exact read-only shell the pipeline's per-function driver
    /// hands to passes. A fused schedule can therefore run shell-only
    /// passes (e.g. refinement round 0) *before* the finish join without
    /// changing what any pass observes.
    pub fn shell_module(&self) -> Module {
        let mut shell = self.module.clone();
        shell.funcs = Vec::new();
        shell
    }

    /// Pre-lift profile of work item `i`: its machine-code size and
    /// discovered parameter count.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn function_profile(&self, i: usize) -> FuncProfile {
        let (addr, _, cfg) = &self.work[i];
        FuncProfile {
            addr: *addr,
            x86_insts: cfg.blocks.iter().map(|b| b.insts.len()).sum(),
            params: self.tys[i].params.len(),
        }
    }

    /// Translates the body of work item `i`.
    ///
    /// This reads only immutable plan state, so distinct work items may be
    /// lifted concurrently and the result for a given item is independent
    /// of the order (or thread) in which the others run.
    ///
    /// # Errors
    ///
    /// Returns [`LiftError::Translate`] for unsupported instruction shapes
    /// or calls to unknown targets.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn lift_function(&self, i: usize) -> Result<Function, LiftError> {
        let (_, name, cfg) = &self.work[i];
        let mut func =
            translate::translate_function(name, cfg, &self.tys[i], &self.env, self.sqrt_id)
                .map_err(LiftError::Translate)?;
        func.compact();
        Ok(func)
    }

    /// Installs the translated bodies (one per work item, in work-item
    /// order) and verifies the completed module.
    ///
    /// # Errors
    ///
    /// Returns [`LiftError::Verify`] if the assembled module fails
    /// verification (a lifter bug).
    ///
    /// # Panics
    ///
    /// Panics if `bodies.len() != self.num_functions()`.
    pub fn finish(mut self, bodies: Vec<Function>) -> Result<Module, LiftError> {
        assert_eq!(bodies.len(), self.work.len(), "one body per work item");
        for (i, body) in bodies.into_iter().enumerate() {
            let (fid, _) = self.env.funcs[&self.work[i].0];
            *self.module.func_mut(fid) = body;
        }
        lasagne_lir::verify::verify_module(&self.module).map_err(LiftError::Verify)?;
        Ok(self.module)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasagne_lir::interp::{Machine, Val};
    use lasagne_x86::asm::Asm;
    use lasagne_x86::binary::BinaryBuilder;
    use lasagne_x86::inst::{AluOp, FpPrec, Inst, MemRef, Rm, SseOp, Target, XmmRm};
    use lasagne_x86::reg::{Cond, Gpr, Width, Xmm};

    fn lift_one(name: &str, mut build: impl FnMut(&mut Asm)) -> (Module, lasagne_lir::FuncId) {
        let mut b = BinaryBuilder::new();
        let mut a = Asm::new();
        build(&mut a);
        let addr = b.next_function_addr();
        b.add_function(name, a.finish(addr).unwrap());
        let m = lift_binary(&b.finish()).unwrap();
        let id = m.func_by_name(name).unwrap();
        (m, id)
    }

    fn run(m: &Module, id: lasagne_lir::FuncId, args: &[Val]) -> Val {
        let mut machine = Machine::new(m);
        machine.run(id, args).unwrap().ret.expect("return value")
    }

    #[test]
    fn lift_add_function() {
        let (m, id) = lift_one("add", |a| {
            a.push(Inst::MovRRm {
                w: Width::W64,
                dst: Gpr::Rax,
                src: Rm::Reg(Gpr::Rdi),
            });
            a.push(Inst::AluRRm {
                op: AluOp::Add,
                w: Width::W64,
                dst: Gpr::Rax,
                src: Rm::Reg(Gpr::Rsi),
            });
            a.push(Inst::Ret);
        });
        assert_eq!(m.func(id).params, vec![Ty::I64, Ty::I64]);
        assert_eq!(run(&m, id, &[Val::B64(40), Val::B64(2)]), Val::B64(42));
    }

    #[test]
    fn lift_branching_max() {
        // max(rdi, rsi)
        let (m, id) = lift_one("max", |a| {
            let ret_a = a.label();
            a.push(Inst::MovRRm {
                w: Width::W64,
                dst: Gpr::Rax,
                src: Rm::Reg(Gpr::Rdi),
            });
            a.push(Inst::AluRRm {
                op: AluOp::Cmp,
                w: Width::W64,
                dst: Gpr::Rdi,
                src: Rm::Reg(Gpr::Rsi),
            });
            a.jcc(Cond::Ge, ret_a);
            a.push(Inst::MovRRm {
                w: Width::W64,
                dst: Gpr::Rax,
                src: Rm::Reg(Gpr::Rsi),
            });
            a.bind(ret_a);
            a.push(Inst::Ret);
        });
        assert_eq!(run(&m, id, &[Val::B64(7), Val::B64(3)]), Val::B64(7));
        assert_eq!(run(&m, id, &[Val::B64(3), Val::B64(7)]), Val::B64(7));
        // Signed comparison: -1 < 3.
        assert_eq!(
            run(&m, id, &[Val::B64(-1i64 as u64), Val::B64(3)]),
            Val::B64(3)
        );
    }

    #[test]
    fn lift_loop_sum() {
        // sum = 0; for (i = 0; i != n; i++) sum += i
        let (m, id) = lift_one("sum", |a| {
            let top = a.label();
            let done = a.label();
            a.push(Inst::MovRmI {
                w: Width::W64,
                dst: Rm::Reg(Gpr::Rax),
                imm: 0,
            });
            a.push(Inst::MovRmI {
                w: Width::W64,
                dst: Rm::Reg(Gpr::Rcx),
                imm: 0,
            });
            a.bind(top);
            a.push(Inst::AluRRm {
                op: AluOp::Cmp,
                w: Width::W64,
                dst: Gpr::Rcx,
                src: Rm::Reg(Gpr::Rdi),
            });
            a.jcc(Cond::E, done);
            a.push(Inst::AluRRm {
                op: AluOp::Add,
                w: Width::W64,
                dst: Gpr::Rax,
                src: Rm::Reg(Gpr::Rcx),
            });
            a.push(Inst::AluRmI {
                op: AluOp::Add,
                w: Width::W64,
                dst: Rm::Reg(Gpr::Rcx),
                imm: 1,
            });
            a.jmp(top);
            a.bind(done);
            a.push(Inst::Ret);
        });
        assert_eq!(run(&m, id, &[Val::B64(10)]), Val::B64(45));
    }

    #[test]
    fn lift_stack_spill_reload() {
        // Push/pop and [rsp] traffic must hit the reconstructed stack array.
        let (m, id) = lift_one("spill", |a| {
            a.push(Inst::Push { src: Gpr::Rbp });
            a.push(Inst::MovRmR {
                w: Width::W64,
                dst: Rm::Reg(Gpr::Rbp),
                src: Gpr::Rsp,
            });
            a.push(Inst::AluRmI {
                op: AluOp::Sub,
                w: Width::W64,
                dst: Rm::Reg(Gpr::Rsp),
                imm: 16,
            });
            // [rbp-8] = rdi; rax = [rbp-8] * 2
            a.push(Inst::MovRmR {
                w: Width::W64,
                dst: Rm::Mem(MemRef::base_disp(Gpr::Rbp, -8)),
                src: Gpr::Rdi,
            });
            a.push(Inst::MovRRm {
                w: Width::W64,
                dst: Gpr::Rax,
                src: Rm::Mem(MemRef::base_disp(Gpr::Rbp, -8)),
            });
            a.push(Inst::AluRRm {
                op: AluOp::Add,
                w: Width::W64,
                dst: Gpr::Rax,
                src: Rm::Reg(Gpr::Rax),
            });
            a.push(Inst::AluRmI {
                op: AluOp::Add,
                w: Width::W64,
                dst: Rm::Reg(Gpr::Rsp),
                imm: 16,
            });
            a.push(Inst::Pop { dst: Gpr::Rbp });
            a.push(Inst::Ret);
        });
        assert_eq!(run(&m, id, &[Val::B64(21)]), Val::B64(42));
    }

    #[test]
    fn lift_float_add() {
        let (m, id) = lift_one("fadd", |a| {
            a.push(Inst::SseScalar {
                op: SseOp::Add,
                prec: FpPrec::Double,
                dst: Xmm(0),
                src: XmmRm::Reg(Xmm(1)),
            });
            a.push(Inst::Ret);
        });
        assert_eq!(m.func(id).params, vec![Ty::F64, Ty::F64]);
        assert_eq!(m.func(id).ret, Ty::F64);
        let r = run(
            &m,
            id,
            &[Val::B64(1.5f64.to_bits()), Val::B64(2.25f64.to_bits())],
        );
        assert_eq!(r.f64(), 3.75);
    }

    #[test]
    fn lift_global_access() {
        // counter global: rax = [counter]; [counter] = rax + 1
        let mut b = BinaryBuilder::new();
        let g = b.add_global("counter", 8, 7u64.to_le_bytes().to_vec());
        let mut a = Asm::new();
        a.push(Inst::MovRRm {
            w: Width::W64,
            dst: Gpr::Rax,
            src: Rm::Mem(MemRef::rip(g)),
        });
        a.push(Inst::AluRmI {
            op: AluOp::Add,
            w: Width::W64,
            dst: Rm::Reg(Gpr::Rax),
            imm: 1,
        });
        a.push(Inst::MovRmR {
            w: Width::W64,
            dst: Rm::Mem(MemRef::rip(g)),
            src: Gpr::Rax,
        });
        a.push(Inst::Ret);
        let addr = b.next_function_addr();
        b.add_function("bump", a.finish(addr).unwrap());
        let m = lift_binary(&b.finish()).unwrap();
        let id = m.func_by_name("bump").unwrap();
        let mut machine = Machine::new(&m);
        let r = machine.run(id, &[]).unwrap();
        assert_eq!(r.ret, Some(Val::B64(8)));
        // And the global was updated in memory.
        assert_eq!(machine.mem.read_u64(0x60_0000), 8);
    }

    #[test]
    fn lift_call_between_functions() {
        // callee(rdi) = rdi * 3; caller(rdi) = callee(rdi) + 1
        let mut b = BinaryBuilder::new();
        let mut a = Asm::new();
        a.push(Inst::IMul3 {
            w: Width::W64,
            dst: Gpr::Rax,
            src: Rm::Reg(Gpr::Rdi),
            imm: 3,
        });
        a.push(Inst::Ret);
        let callee_addr = b.next_function_addr();
        b.add_function("triple", a.finish(callee_addr).unwrap());

        let mut a = Asm::new();
        let caller_addr = b.next_function_addr();
        a.push(Inst::Call {
            target: Target::Abs(callee_addr),
        });
        a.push(Inst::AluRmI {
            op: AluOp::Add,
            w: Width::W64,
            dst: Rm::Reg(Gpr::Rax),
            imm: 1,
        });
        a.push(Inst::Ret);
        b.add_function("caller", a.finish(caller_addr).unwrap());

        let m = lift_binary(&b.finish()).unwrap();
        let id = m.func_by_name("caller").unwrap();
        assert_eq!(m.func(id).params, vec![Ty::I64]);
        assert_eq!(run(&m, id, &[Val::B64(5)]), Val::B64(16));
    }

    #[test]
    fn lift_extern_call_malloc() {
        // p = malloc(8); [p] = 42; return [p]
        let mut b = BinaryBuilder::new();
        let malloc = b.declare_extern("malloc");
        let mut a = Asm::new();
        a.push(Inst::MovRmI {
            w: Width::W64,
            dst: Rm::Reg(Gpr::Rdi),
            imm: 8,
        });
        a.push(Inst::Call {
            target: Target::Abs(malloc),
        });
        a.push(Inst::MovRmI {
            w: Width::W64,
            dst: Rm::Mem(MemRef::base(Gpr::Rax)),
            imm: 42,
        });
        a.push(Inst::MovRRm {
            w: Width::W64,
            dst: Gpr::Rax,
            src: Rm::Mem(MemRef::base(Gpr::Rax)),
        });
        a.push(Inst::Ret);
        let addr = b.next_function_addr();
        b.add_function("alloc42", a.finish(addr).unwrap());
        let m = lift_binary(&b.finish()).unwrap();
        let id = m.func_by_name("alloc42").unwrap();
        assert_eq!(run(&m, id, &[]), Val::B64(42));
    }

    #[test]
    fn lift_atomic_rmw() {
        // lock xadd [rdi], rsi; return old value
        let (m, id) = lift_one("fetch_add", |a| {
            a.push(Inst::LockXadd {
                w: Width::W64,
                mem: MemRef::base(Gpr::Rdi),
                src: Gpr::Rsi,
            });
            a.push(Inst::MovRRm {
                w: Width::W64,
                dst: Gpr::Rax,
                src: Rm::Reg(Gpr::Rsi),
            });
            a.push(Inst::Ret);
        });
        let mut machine = Machine::new(&m);
        machine.mem.write_u64(lasagne_lir::interp::HEAP_BASE, 100);
        let r = machine
            .run(id, &[Val::B64(lasagne_lir::interp::HEAP_BASE), Val::B64(5)])
            .unwrap();
        assert_eq!(r.ret, Some(Val::B64(100)));
        assert_eq!(machine.mem.read_u64(lasagne_lir::interp::HEAP_BASE), 105);
        assert_eq!(r.stats.rmws, 1);
    }

    #[test]
    fn lift_mfence_becomes_fsc() {
        let (m, id) = lift_one("fenced", |a| {
            a.push(Inst::MovRmI {
                w: Width::W64,
                dst: Rm::Mem(MemRef::base(Gpr::Rdi)),
                imm: 1,
            });
            a.push(Inst::Mfence);
            a.push(Inst::MovRRm {
                w: Width::W64,
                dst: Gpr::Rax,
                src: Rm::Mem(MemRef::base(Gpr::Rsi)),
            });
            a.push(Inst::Ret);
        });
        let fsc = m.count_insts(|i| {
            matches!(
                i.kind,
                lasagne_lir::InstKind::Fence {
                    kind: lasagne_lir::inst::FenceKind::Fsc
                }
            )
        });
        assert_eq!(fsc, 1);
        let _ = id;
    }

    #[test]
    fn lift_32bit_zero_extension() {
        // mov eax, edi must clear the upper half.
        let (m, id) = lift_one("low32", |a| {
            a.push(Inst::MovRRm {
                w: Width::W32,
                dst: Gpr::Rax,
                src: Rm::Reg(Gpr::Rdi),
            });
            a.push(Inst::Ret);
        });
        let r = run(&m, id, &[Val::B64(0xFFFF_FFFF_0000_0001)]);
        assert_eq!(r, Val::B64(1));
    }

    #[test]
    fn lift_cvt_roundtrip() {
        // double(rdi) doubled, truncated back to int
        let (m, id) = lift_one("cvt", |a| {
            a.push(Inst::CvtSi2F {
                prec: FpPrec::Double,
                iw: Width::W64,
                dst: Xmm(0),
                src: Rm::Reg(Gpr::Rdi),
            });
            a.push(Inst::SseScalar {
                op: SseOp::Add,
                prec: FpPrec::Double,
                dst: Xmm(0),
                src: XmmRm::Reg(Xmm(0)),
            });
            a.push(Inst::CvtF2Si {
                prec: FpPrec::Double,
                iw: Width::W64,
                dst: Gpr::Rax,
                src: XmmRm::Reg(Xmm(0)),
            });
            a.push(Inst::Ret);
        });
        assert_eq!(run(&m, id, &[Val::B64(21)]), Val::B64(42));
    }

    #[test]
    fn unknown_call_target_is_error() {
        let mut b = BinaryBuilder::new();
        let mut a = Asm::new();
        a.push(Inst::Call {
            target: Target::Abs(0x40_F000),
        });
        a.push(Inst::Ret);
        let addr = b.next_function_addr();
        b.add_function("bad", a.finish(addr).unwrap());
        let err = lift_binary(&b.finish()).unwrap_err();
        assert!(matches!(
            err,
            LiftError::Translate(translate::TranslateError::UnknownCallTarget { .. })
        ));
    }

    #[test]
    fn lifted_code_contains_inttoptr_bloat() {
        // The naive lifting must leave integer/pointer casts behind — the
        // raw material of §5 refinement (Figure 13).
        let (m, _) = lift_one("store_param", |a| {
            a.push(Inst::MovRmR {
                w: Width::W64,
                dst: Rm::Mem(MemRef::base(Gpr::Rdi)),
                src: Gpr::Rsi,
            });
            a.push(Inst::Ret);
        });
        let casts = m.count_insts(|i| i.kind.is_int_ptr_cast());
        assert!(
            casts >= 1,
            "expected inttoptr in lifted store, found {casts}"
        );
    }
}
