//! AArch64 assembly printer.

use crate::inst::{ABlock, ACallee, AFunc, AInst, AModule, ATerm, AluOp, Sz};
use std::fmt::Write;

fn sz_suffix(sz: Sz) -> &'static str {
    match sz {
        Sz::B => "b",
        Sz::H => "h",
        Sz::W | Sz::X | Sz::Q => "",
    }
}

fn reg_name(sz: Sz, x: crate::inst::X) -> String {
    match sz {
        Sz::W | Sz::H | Sz::B => {
            if x.0 == 31 {
                "wzr".to_string()
            } else {
                format!("w{}", x.0)
            }
        }
        _ => x.to_string(),
    }
}

fn freg_name(sz: Sz, d: crate::inst::D) -> String {
    match sz {
        Sz::W => format!("s{}", d.0),
        Sz::Q => format!("q{}", d.0),
        _ => format!("d{}", d.0),
    }
}

/// Renders one instruction.
pub fn inst_to_string(m: &AModule, i: &AInst) -> String {
    match i {
        AInst::MovImm { rd, imm } => format!("mov {rd}, #{imm:#x}"),
        AInst::MovReg { rd, rm } => format!("mov {rd}, {rm}"),
        AInst::Alu {
            op: AluOp::MSub,
            rd,
            rn,
            rm,
            ra,
        } => {
            format!("msub {rd}, {rn}, {rm}, {ra}")
        }
        AInst::Alu { op, rd, rn, rm, .. } => format!("{} {rd}, {rn}, {rm}", op.mnemonic()),
        AInst::AddImm { rd, rn, imm } => {
            if *imm < 0 {
                format!("sub {rd}, {rn}, #{}", -imm)
            } else {
                format!("add {rd}, {rn}, #{imm}")
            }
        }
        AInst::Cmp { rn, rm } => format!("cmp {rn}, {rm}"),
        AInst::CSet { rd, cc } => format!("cset {rd}, {cc}"),
        AInst::CSel { rd, rn, rm, cc } => format!("csel {rd}, {rn}, {rm}, {cc}"),
        AInst::SExt { rd, rn, bits } => match bits {
            8 => format!("sxtb {rd}, {}", reg_name(Sz::W, *rn)),
            16 => format!("sxth {rd}, {}", reg_name(Sz::W, *rn)),
            _ => format!("sxtw {rd}, {}", reg_name(Sz::W, *rn)),
        },
        AInst::ZExt { rd, rn, bits } => match bits {
            1 => format!("and {rd}, {rn}, #1"),
            8 => format!("uxtb {}, {}", reg_name(Sz::W, *rd), reg_name(Sz::W, *rn)),
            16 => format!("uxth {}, {}", reg_name(Sz::W, *rd), reg_name(Sz::W, *rn)),
            _ => format!("mov {}, {}", reg_name(Sz::W, *rd), reg_name(Sz::W, *rn)),
        },
        AInst::Ldr { sz, rt, mem } => {
            format!("ldr{} {}, {mem}", sz_suffix(*sz), reg_name(*sz, *rt))
        }
        AInst::Str { sz, rt, mem } => {
            format!("str{} {}, {mem}", sz_suffix(*sz), reg_name(*sz, *rt))
        }
        AInst::LdrF { sz, dt, mem } => format!("ldr {}, {mem}", freg_name(*sz, *dt)),
        AInst::StrF { sz, dt, mem } => format!("str {}, {mem}", freg_name(*sz, *dt)),
        AInst::Ldxr { sz, rt, rn } => {
            format!("ldxr{} {}, [{rn}]", sz_suffix(*sz), reg_name(*sz, *rt))
        }
        AInst::Stxr { sz, rs, rt, rn } => {
            format!(
                "stxr{} {}, {}, [{rn}]",
                sz_suffix(*sz),
                reg_name(Sz::W, *rs),
                reg_name(*sz, *rt)
            )
        }
        AInst::Fp { op, dp, dd, dn, dm } => {
            let sz = if *dp { Sz::X } else { Sz::W };
            if matches!(op, crate::inst::FpOp::FSqrt | crate::inst::FpOp::FNeg) {
                format!(
                    "{} {}, {}",
                    op.mnemonic(),
                    freg_name(sz, *dd),
                    freg_name(sz, *dn)
                )
            } else {
                format!(
                    "{} {}, {}, {}",
                    op.mnemonic(),
                    freg_name(sz, *dd),
                    freg_name(sz, *dn),
                    freg_name(sz, *dm)
                )
            }
        }
        AInst::FpVec { op, dp, dd, dn, dm } => {
            let lanes = if *dp { "2d" } else { "4s" };
            format!(
                "{} v{}.{lanes}, v{}.{lanes}, v{}.{lanes}",
                op.mnemonic(),
                dd.0,
                dn.0,
                dm.0
            )
        }
        AInst::FCmp { dp, dn, dm } => {
            let sz = if *dp { Sz::X } else { Sz::W };
            format!("fcmp {}, {}", freg_name(sz, *dn), freg_name(sz, *dm))
        }
        AInst::Scvtf { dp, from64, dd, rn } => {
            let d = freg_name(if *dp { Sz::X } else { Sz::W }, *dd);
            let r = if *from64 {
                rn.to_string()
            } else {
                reg_name(Sz::W, *rn)
            };
            format!("scvtf {d}, {r}")
        }
        AInst::Fcvtzs { dp, to64, rd, dn } => {
            let d = freg_name(if *dp { Sz::X } else { Sz::W }, *dn);
            let r = if *to64 {
                rd.to_string()
            } else {
                reg_name(Sz::W, *rd)
            };
            format!("fcvtzs {r}, {d}")
        }
        AInst::Fcvt { to_double, dd, dn } => {
            if *to_double {
                format!("fcvt d{}, s{}", dd.0, dn.0)
            } else {
                format!("fcvt s{}, d{}", dd.0, dn.0)
            }
        }
        AInst::FMovToX { rd, dn } => format!("fmov {rd}, {dn}"),
        AInst::FMovFromX { dd, rn } => format!("fmov {dd}, {rn}"),
        AInst::DmbI { kind } => format!("dmb {kind}"),
        AInst::Bl { callee } => match callee {
            ACallee::Func(fi) => format!("bl {}", m.funcs[*fi as usize].name),
            ACallee::Extern(e) => format!("bl {}", m.externs[*e as usize]),
            ACallee::Reg(r) => format!("blr {r}"),
        },
        AInst::AdrFunc { rd, func } => format!("adr {rd}, {}", m.funcs[*func as usize].name),
        AInst::AdrGlobal { rd, global } => {
            format!("adrp+add {rd}, {}", m.globals[*global as usize].0)
        }
    }
}

/// Renders one function as assembly text.
pub fn print_function(m: &AModule, f: &AFunc) -> String {
    let mut s = String::new();
    write_function(m, f, &mut s);
    s
}

fn write_function(m: &AModule, f: &AFunc, s: &mut String) {
    let _ = writeln!(s, "{}:", f.name);
    let _ = writeln!(s, "    sub sp, sp, #{}", f.frame_size);
    let _ = writeln!(s, "    mov x29, sp");
    for (bi, b) in f.blocks.iter().enumerate() {
        let _ = writeln!(s, ".L{bi}:");
        print_block(m, b, s);
    }
}

fn print_block(m: &AModule, b: &ABlock, s: &mut String) {
    for i in &b.insts {
        let _ = writeln!(s, "    {}", inst_to_string(m, i));
    }
    match b.term {
        Some(ATerm::B(t)) => {
            let _ = writeln!(s, "    b {t}");
        }
        Some(ATerm::Cbnz { rn, then, els }) => {
            let _ = writeln!(s, "    cbnz {rn}, {then}");
            let _ = writeln!(s, "    b {els}");
        }
        Some(ATerm::Ret) => {
            let _ = writeln!(s, "    add sp, sp, #<frame>; ret");
        }
        Some(ATerm::Brk) | None => {
            let _ = writeln!(s, "    brk #0");
        }
    }
}

/// Renders the whole module into one exact-sized `String`
/// (`capacity() == len()`), so a cache that charges a listing its length
/// charges all the memory it holds.
///
/// The listing is copied out of its growth buffer rather than shrunk in
/// place, so the buffer is freed whole. glibc raises its mmap and trim
/// thresholds when it frees a large mapped block. Shrinking in place
/// left them low, and hot hits on the largest listings (70–130 KB) got
/// 6–12% slower, because the daemon's per-request frame buffers of that
/// size were then mapped or trimmed each time.
pub fn print_module(m: &AModule) -> String {
    let mut s = String::new();
    for (name, addr, size, _) in &m.globals {
        let _ = writeln!(s, "// .data {name} at {addr:#x}, {size} bytes");
    }
    for f in &m.funcs {
        let _ = writeln!(s);
        write_function(m, f, &mut s);
    }
    s.as_str().to_owned()
}
