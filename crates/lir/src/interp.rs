//! Reference interpreter for LIR modules.
//!
//! Used to validate lifted code end-to-end (run the x86-semantics IR and
//! compare against expected outputs) and to gather dynamic statistics
//! (instructions retired, fences executed). Externs go to the [`runtime`]
//! shared with the x86 and Arm interpreters. [`Machine`] lowers each
//! function on its first call into a flat form over dense value slots and
//! runs it on an explicit frame stack.

use crate::func::Module;
use crate::inst::{BinOp, CastOp, FPred, FenceKind, FuncId, IPred, InstKind};
use crate::types::Ty;
use flat::{Flat, Frame, Scratch};
use runtime::{critical_path, Runtime};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::ops::Range;

mod flat;
pub mod runtime;

/// Pseudo-address base where functions are "linked" so function pointers
/// (e.g. the `pthread_create` start routine) have addressable values.
pub const FUNC_ADDR_BASE: u64 = 0x10_0000;
/// Heap base for `malloc`.
pub const HEAP_BASE: u64 = 0x7000_0000;
/// Stack top for the main thread (stacks grow down).
pub const STACK_TOP: u64 = 0x6000_0000;
/// Bytes reserved per simulated thread stack.
pub const STACK_SIZE: u64 = 1 << 20;

/// Runtime errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Access to an address no segment covers.
    UnmappedMemory {
        /// Offending address.
        addr: u64,
    },
    /// Call to an unknown extern or bad indirect target.
    BadCall(String),
    /// Integer division by zero, or similar trap.
    Trap(String),
    /// The configured step limit was exceeded.
    StepLimit,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnmappedMemory { addr } => write!(f, "unmapped memory at {addr:#x}"),
            ExecError::BadCall(s) => write!(f, "bad call: {s}"),
            ExecError::Trap(s) => write!(f, "trap: {s}"),
            ExecError::StepLimit => write!(f, "step limit exceeded"),
        }
    }
}

impl std::error::Error for ExecError {}

/// A runtime value: 64-bit bits, or a 128-bit vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val {
    /// Scalar (integers, pointers, and floats as bit patterns).
    B64(u64),
    /// 128-bit vector bytes.
    B128([u8; 16]),
}

impl Val {
    /// Scalar bits.
    ///
    /// # Panics
    ///
    /// Panics on a vector value.
    pub fn bits(self) -> u64 {
        match self {
            Val::B64(b) => b,
            Val::B128(_) => panic!("scalar use of vector value"),
        }
    }

    /// As `f64`.
    pub fn f64(self) -> f64 {
        f64::from_bits(self.bits())
    }

    /// As `f32` (low 32 bits).
    pub fn f32(self) -> f32 {
        f32::from_bits(self.bits() as u32)
    }

    /// Vector bytes.
    ///
    /// # Panics
    ///
    /// Panics on a scalar value.
    pub fn v128(self) -> [u8; 16] {
        match self {
            Val::B128(b) => b,
            Val::B64(_) => panic!("vector use of scalar value"),
        }
    }
}

/// Bytes per guest page.
const PAGE_SIZE: usize = 4096;
/// `log2(PAGE_SIZE)`: an address's page number is `addr >> PAGE_SHIFT`.
const PAGE_SHIFT: u32 = 12;
/// Mask of an address's offset within its page.
const PAGE_MASK: u64 = PAGE_SIZE as u64 - 1;
/// Entries in [`Memory`]'s direct-mapped page cache (a power of two).
const CACHE_PAGES: usize = 64;
/// A cache entry's page number when it holds no page. Page numbers are
/// `addr >> PAGE_SHIFT`, so no real page has this one.
const NO_PAGE: u64 = u64::MAX;
/// Bytes [`Memory::copy`] moves per chunk.
const COPY_CHUNK: usize = 1024;

/// Sparse guest memory shared by every interpreter: the LIR
/// [`Machine`], the x86 interpreter and the Arm core.
///
/// A page is mapped, zero-filled, by the first write that touches it.
/// Reads never map a page: unmapped memory reads as zeros. Addresses wrap
/// around at `u64::MAX`. Mapped pages are found through a direct-mapped
/// cache of 64 `(page, frame)` entries indexed by the page number's low
/// bits, backed by an ordered page table, so stack and heap accesses that
/// alternate do not evict each other. An integer access of up to 8 bytes
/// whose address is at least 8 bytes below its page's end is one cache
/// probe and one 8-byte load or masked store; other accesses are split
/// page by page.
#[derive(Debug)]
pub struct Memory {
    /// Page number → index of its frame in `frames`.
    index: BTreeMap<u64, usize>,
    frames: Vec<Box<[u8; PAGE_SIZE]>>,
    /// Mapped pages used recently, as `(page number, frame index)` at
    /// `page % CACHE_PAGES`; `NO_PAGE` marks an empty entry.
    cache: [Cell<(u64, usize)>; CACHE_PAGES],
}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            index: BTreeMap::new(),
            frames: Vec::new(),
            cache: std::array::from_fn(|_| Cell::new((NO_PAGE, 0))),
        }
    }
}

impl Memory {
    /// Creates empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.frames.len()
    }

    /// The frame index of mapped page `page`, if any.
    #[inline]
    fn frame_of(&self, page: u64) -> Option<usize> {
        let slot = &self.cache[page as usize % CACHE_PAGES];
        match slot.get() {
            (p, f) if p == page => Some(f),
            _ => {
                let f = *self.index.get(&page)?;
                slot.set((page, f));
                Some(f)
            }
        }
    }

    /// The frame of page `page`, mapping it zero-filled if needed.
    #[inline]
    fn frame_mut(&mut self, page: u64) -> &mut [u8; PAGE_SIZE] {
        let f = match self.frame_of(page) {
            Some(f) => f,
            None => self.map(page),
        };
        &mut self.frames[f]
    }

    /// Maps unmapped page `page` zero-filled and returns its frame index.
    #[cold]
    fn map(&mut self, page: u64) -> usize {
        let f = self.frames.len();
        self.frames.push(Box::new([0; PAGE_SIZE]));
        self.index.insert(page, f);
        self.cache[page as usize % CACHE_PAGES].set((page, f));
        f
    }

    /// Splits the `len` bytes at `addr` into per-page pieces and calls
    /// `each(page, offset in page, range of the buffer)` for each.
    fn for_each_page(addr: u64, len: usize, mut each: impl FnMut(u64, usize, Range<usize>)) {
        let (mut a, mut done) = (addr, 0);
        while done < len {
            let off = (a & PAGE_MASK) as usize;
            let n = (PAGE_SIZE - off).min(len - done);
            each(a >> PAGE_SHIFT, off, done..done + n);
            done += n;
            a = a.wrapping_add(n as u64);
        }
    }

    /// Fills `buf` from the bytes at `addr`; unmapped bytes read as zero.
    pub fn read_into(&self, addr: u64, buf: &mut [u8]) {
        Memory::for_each_page(addr, buf.len(), |page, off, r| {
            let dst = &mut buf[r];
            match self.frame_of(page) {
                Some(f) => dst.copy_from_slice(&self.frames[f][off..off + dst.len()]),
                None => dst.fill(0),
            }
        });
    }

    /// Reads `len` bytes into the front of a zeroed 16-byte array.
    ///
    /// # Panics
    ///
    /// Panics if `len > 16`.
    pub fn read(&self, addr: u64, len: usize) -> [u8; 16] {
        let mut out = [0u8; 16];
        self.read_into(addr, &mut out[..len]);
        out
    }

    /// Writes `bytes` at `addr`, of any length, mapping the pages it
    /// touches.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) {
        Memory::for_each_page(addr, bytes.len(), |page, off, r| {
            let src = &bytes[r];
            self.frame_mut(page)[off..off + src.len()].copy_from_slice(src);
        });
    }

    /// Writes `n` copies of `byte` at `addr`, page by page, mapping the
    /// pages it touches.
    pub fn fill(&mut self, addr: u64, byte: u8, n: usize) {
        Memory::for_each_page(addr, n, |page, off, r| {
            self.frame_mut(page)[off..off + r.len()].fill(byte);
        });
    }

    /// Copies `n` bytes from `src` to `dst` through a fixed-size buffer.
    /// Overlapping ranges behave like `memmove`: when `dst` lies inside
    /// `[src, src + n)` the chunks go from the back, so no source byte is
    /// overwritten before it is read.
    pub fn copy(&mut self, dst: u64, src: u64, n: usize) {
        let mut buf = [0u8; COPY_CHUNK];
        let backwards = dst.wrapping_sub(src) < n as u64;
        let mut done = 0;
        while done < n {
            let len = COPY_CHUNK.min(n - done);
            let at = if backwards { n - done - len } else { done } as u64;
            self.read_into(src.wrapping_add(at), &mut buf[..len]);
            self.write(dst.wrapping_add(at), &buf[..len]);
            done += len;
        }
    }

    /// Reads the `len <= 8` bytes at `addr` as a little-endian unsigned
    /// integer.
    #[inline]
    pub fn read_uint(&self, addr: u64, len: usize) -> u64 {
        let off = (addr & PAGE_MASK) as usize;
        if off <= PAGE_SIZE - 8 {
            let Some(f) = self.frame_of(addr >> PAGE_SHIFT) else {
                return 0;
            };
            let word: [u8; 8] = self.frames[f][off..off + 8].try_into().unwrap();
            return u64::from_le_bytes(word) & low_bytes(len);
        }
        let mut b = [0u8; 8];
        self.read_into(addr, &mut b[..len]);
        u64::from_le_bytes(b)
    }

    /// Writes the low `len <= 8` bytes of `v` at `addr`, little-endian.
    #[inline]
    pub fn write_uint(&mut self, addr: u64, len: usize, v: u64) {
        let off = (addr & PAGE_MASK) as usize;
        if off <= PAGE_SIZE - 8 {
            let word = &mut self.frame_mut(addr >> PAGE_SHIFT)[off..off + 8];
            let old = u64::from_le_bytes((&*word).try_into().unwrap());
            let mask = low_bytes(len);
            word.copy_from_slice(&((old & !mask) | (v & mask)).to_le_bytes());
            return;
        }
        self.write(addr, &v.to_le_bytes()[..len]);
    }

    /// Reads a `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read_uint(addr, 8)
    }

    /// Writes a `u64`.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write_uint(addr, 8, v);
    }

    /// Reads a NUL-terminated C string (up to 64 KiB).
    pub fn read_cstr(&self, addr: u64) -> String {
        const MAX: usize = 65536;
        let mut s = Vec::new();
        let mut a = addr;
        while s.len() < MAX {
            let off = (a & PAGE_MASK) as usize;
            let n = (PAGE_SIZE - off).min(MAX - s.len());
            let Some(f) = self.frame_of(a >> PAGE_SHIFT) else {
                break;
            };
            let chunk = &self.frames[f][off..off + n];
            match chunk.iter().position(|&b| b == 0) {
                Some(end) => {
                    s.extend_from_slice(&chunk[..end]);
                    break;
                }
                None => s.extend_from_slice(chunk),
            }
            a = a.wrapping_add(n as u64);
        }
        String::from_utf8_lossy(&s).into_owned()
    }
}

/// The mask of an integer's low `len <= 8` bytes.
#[inline]
fn low_bytes(len: usize) -> u64 {
    const MASKS: [u64; 9] = [
        0,
        0xff,
        0xffff,
        0xff_ffff,
        0xffff_ffff,
        0xff_ffff_ffff,
        0xffff_ffff_ffff,
        0xff_ffff_ffff_ffff,
        u64::MAX,
    ];
    MASKS[len]
}

/// Dynamic execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions retired.
    pub insts: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Fences executed, by kind: (Frm, Fww, Fsc).
    pub fences: (u64, u64, u64),
    /// Atomic RMWs executed.
    pub rmws: u64,
    /// Abstract cycle count: per instruction, 4 for a load, store or
    /// call, 16 for `Frm`/`Fww`, 40 for `Fsc`, 48 for `atomicrmw` and
    /// `cmpxchg`, 20 for an integer division, 15 for `fdiv` and 1
    /// otherwise, plus what `memset`/`memcpy` charge.
    pub cycles: u64,
}

/// Outcome of a completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Value returned by the entry function (if non-void).
    pub ret: Option<Val>,
    /// Whole-run statistics.
    pub stats: ExecStats,
    /// Per-spawned-thread cycle counts, in spawn order.
    pub thread_cycles: Vec<u64>,
    /// Captured `printf` output.
    pub output: String,
}

impl RunResult {
    /// Fork–join critical path: main-thread cycles plus the slowest child
    /// (children execute concurrently in the modelled machine).
    pub fn critical_path_cycles(&self) -> u64 {
        critical_path(self.stats.cycles, &self.thread_cycles)
    }
}

/// The interpreter. Each function is lowered on its first call into a
/// flat form over dense value slots, which an explicit frame stack runs,
/// so guest calls do not recurse on the host stack.
pub struct Machine<'m> {
    module: &'m Module,
    /// Simulated memory.
    pub mem: Memory,
    rt: Runtime,
    stack_next: u64,
    stats: ExecStats,
    steps_left: u64,
    /// Each function's lowered form, made on its first call.
    flats: Vec<Option<Flat<'m>>>,
    /// The running calls, innermost last.
    frames: Vec<Frame>,
    /// Every frame's slots, each frame's above its caller's.
    slots: Vec<Option<Val>>,
    scratch: Scratch,
}

impl<'m> Machine<'m> {
    /// Creates a machine for `module`, mapping its globals into memory.
    pub fn new(module: &'m Module) -> Machine<'m> {
        Machine {
            module,
            mem: initial_memory(module),
            rt: Runtime::default(),
            stack_next: STACK_TOP,
            stats: ExecStats::default(),
            steps_left: 500_000_000,
            flats: module.funcs.iter().map(|_| None).collect(),
            frames: Vec::new(),
            slots: Vec::new(),
            scratch: Scratch::default(),
        }
    }

    /// Sets the execution step limit.
    pub fn set_step_limit(&mut self, limit: u64) {
        self.steps_left = limit;
    }

    /// Runs function `id` with the given arguments to completion.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on memory faults, traps, bad calls, or if
    /// the step limit is exhausted. Guest recursion deeper than the guest
    /// stack holds traps.
    pub fn run(&mut self, id: FuncId, args: &[Val]) -> Result<RunResult, ExecError> {
        let ret = self.exec(id, args)?;
        Ok(RunResult {
            ret,
            stats: self.stats,
            thread_cycles: self.rt.thread_cycles.clone(),
            output: std::mem::take(&mut self.rt.output),
        })
    }

    /// Accumulated statistics so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }
}

/// Guest memory with `module`'s globals mapped.
fn initial_memory(module: &Module) -> Memory {
    let mut mem = Memory::new();
    for g in &module.globals {
        let mut bytes = g.init.clone();
        bytes.resize(g.size as usize, 0);
        mem.write(g.addr, &bytes);
    }
    mem
}

/// Cycles per instruction on the modelled weak-memory core, where fences
/// are the expensive operations. [`cost_of`] maps an instruction to one
/// of these; the lowered machine charges them per operation.
mod cost {
    /// A load, a store or a call.
    pub const ACCESS: u64 = 4;
    /// An `Frm` or `Fww` fence.
    pub const FENCE: u64 = 16;
    /// An `Fsc` fence.
    pub const FENCE_SC: u64 = 40;
    /// An `atomicrmw` or a `cmpxchg`.
    pub const RMW: u64 = 48;
    /// An integer division or remainder.
    pub const DIV: u64 = 20;
    /// An `fdiv`.
    pub const FDIV: u64 = 15;
    /// Any other instruction, phis included.
    pub const OTHER: u64 = 1;
}

/// The cycles instruction `kind` costs.
fn cost_of(kind: &InstKind) -> u64 {
    match kind {
        InstKind::Load { .. } | InstKind::Store { .. } | InstKind::Call { .. } => cost::ACCESS,
        InstKind::Fence {
            kind: FenceKind::Fsc,
        } => cost::FENCE_SC,
        InstKind::Fence { .. } => cost::FENCE,
        InstKind::AtomicRmw { .. } | InstKind::CmpXchg { .. } => cost::RMW,
        InstKind::Bin {
            op: BinOp::UDiv | BinOp::SDiv | BinOp::URem | BinOp::SRem,
            ..
        } => cost::DIV,
        InstKind::Bin {
            op: BinOp::FDiv, ..
        } => cost::FDIV,
        _ => cost::OTHER,
    }
}

/// The stack pointer after an alloca of `size` bytes (rounded up to 16)
/// below `next`, or `None` if that would pass address zero.
fn alloca_below(next: u64, size: u64) -> Option<u64> {
    next.checked_sub(size.checked_add(15)? & !15)
}

fn load_typed(mem: &Memory, addr: u64, ty: Ty) -> Val {
    match ty {
        Ty::V2F64 | Ty::V4F32 | Ty::V2I64 | Ty::V4I32 => Val::B128(mem.read(addr, 16)),
        t => Val::B64(mem.read_uint(addr, t.size() as usize)),
    }
}

fn store_typed(mem: &mut Memory, addr: u64, ty: Ty, v: Val) {
    match v {
        Val::B128(bytes) => mem.write(addr, &bytes),
        Val::B64(bits) => mem.write_uint(addr, ty.size() as usize, bits),
    }
}

fn mask_ty(v: u64, ty: Ty) -> u64 {
    match ty.int_bits() {
        Some(64) | None => v,
        Some(b) => v & ((1u64 << b) - 1),
    }
}

fn sext(v: u64, bits: u32) -> i64 {
    let shift = 64 - bits;
    ((v << shift) as i64) >> shift
}

fn eval_bin(op: BinOp, ty: Ty, l: Val, r: Val) -> Result<Val, ExecError> {
    if ty.is_vector() {
        return eval_bin_vector(op, ty, l, r);
    }
    if op.is_float() {
        let v = if ty == Ty::F32 {
            let (a, b) = (l.f32(), r.f32());
            let x = match op {
                BinOp::FAdd => a + b,
                BinOp::FSub => a - b,
                BinOp::FMul => a * b,
                BinOp::FDiv => a / b,
                BinOp::FMin => a.min(b),
                BinOp::FMax => a.max(b),
                _ => unreachable!(),
            };
            u64::from(x.to_bits())
        } else {
            let (a, b) = (l.f64(), r.f64());
            let x = match op {
                BinOp::FAdd => a + b,
                BinOp::FSub => a - b,
                BinOp::FMul => a * b,
                BinOp::FDiv => a / b,
                BinOp::FMin => a.min(b),
                BinOp::FMax => a.max(b),
                _ => unreachable!(),
            };
            x.to_bits()
        };
        return Ok(Val::B64(v));
    }
    let bits = ty.int_bits().unwrap_or(64);
    let (a, b) = (mask_ty(l.bits(), ty), mask_ty(r.bits(), ty));
    let v = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::UDiv => {
            if b == 0 {
                return Err(ExecError::Trap("division by zero".to_string()));
            }
            a / b
        }
        BinOp::SDiv => {
            if b == 0 {
                return Err(ExecError::Trap("division by zero".to_string()));
            }
            (sext(a, bits).wrapping_div(sext(b, bits))) as u64
        }
        BinOp::URem => {
            if b == 0 {
                return Err(ExecError::Trap("division by zero".to_string()));
            }
            a % b
        }
        BinOp::SRem => {
            if b == 0 {
                return Err(ExecError::Trap("division by zero".to_string()));
            }
            (sext(a, bits).wrapping_rem(sext(b, bits))) as u64
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32 % bits),
        BinOp::LShr => a.wrapping_shr(b as u32 % bits),
        BinOp::AShr => (sext(a, bits) >> (b as u32 % bits)) as u64,
        _ => unreachable!(),
    };
    Ok(Val::B64(mask_ty(v, ty)))
}

fn eval_bin_vector(op: BinOp, ty: Ty, l: Val, r: Val) -> Result<Val, ExecError> {
    let (a, b) = (l.v128(), r.v128());
    let mut out = [0u8; 16];
    match ty {
        Ty::V2F64 => {
            for i in 0..2 {
                let x = f64::from_le_bytes(a[i * 8..i * 8 + 8].try_into().unwrap());
                let y = f64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().unwrap());
                let z = match op {
                    BinOp::FAdd => x + y,
                    BinOp::FSub => x - y,
                    BinOp::FMul => x * y,
                    BinOp::FDiv => x / y,
                    BinOp::FMin => x.min(y),
                    BinOp::FMax => x.max(y),
                    BinOp::Xor => f64::from_bits(x.to_bits() ^ y.to_bits()),
                    _ => return Err(ExecError::Trap(format!("vector op {op:?}"))),
                };
                out[i * 8..i * 8 + 8].copy_from_slice(&z.to_le_bytes());
            }
        }
        Ty::V4F32 => {
            for i in 0..4 {
                let x = f32::from_le_bytes(a[i * 4..i * 4 + 4].try_into().unwrap());
                let y = f32::from_le_bytes(b[i * 4..i * 4 + 4].try_into().unwrap());
                let z = match op {
                    BinOp::FAdd => x + y,
                    BinOp::FSub => x - y,
                    BinOp::FMul => x * y,
                    BinOp::FDiv => x / y,
                    BinOp::FMin => x.min(y),
                    BinOp::FMax => x.max(y),
                    BinOp::Xor => f32::from_bits(x.to_bits() ^ y.to_bits()),
                    _ => return Err(ExecError::Trap(format!("vector op {op:?}"))),
                };
                out[i * 4..i * 4 + 4].copy_from_slice(&z.to_le_bytes());
            }
        }
        Ty::V2I64 | Ty::V4I32 => {
            for i in 0..16 {
                out[i] = match op {
                    BinOp::And => a[i] & b[i],
                    BinOp::Or => a[i] | b[i],
                    BinOp::Xor => a[i] ^ b[i],
                    _ => return Err(ExecError::Trap(format!("vector int op {op:?}"))),
                };
            }
        }
        _ => unreachable!(),
    }
    Ok(Val::B128(out))
}

fn eval_icmp(pred: IPred, ty: Ty, l: u64, r: u64) -> bool {
    let bits = ty.int_bits().unwrap_or(64);
    let (a, b) = (mask_ty(l, ty), mask_ty(r, ty));
    let (sa, sb) = (sext(a, bits), sext(b, bits));
    match pred {
        IPred::Eq => a == b,
        IPred::Ne => a != b,
        IPred::Ult => a < b,
        IPred::Ule => a <= b,
        IPred::Ugt => a > b,
        IPred::Uge => a >= b,
        IPred::Slt => sa < sb,
        IPred::Sle => sa <= sb,
        IPred::Sgt => sa > sb,
        IPred::Sge => sa >= sb,
    }
}

fn eval_fcmp(pred: FPred, a: f64, b: f64) -> bool {
    let unordered = a.is_nan() || b.is_nan();
    match pred {
        FPred::Oeq => !unordered && a == b,
        FPred::One => !unordered && a != b,
        FPred::Olt => !unordered && a < b,
        FPred::Ole => !unordered && a <= b,
        FPred::Ogt => !unordered && a > b,
        FPred::Oge => !unordered && a >= b,
        FPred::Une => unordered || a != b,
        FPred::Uno => unordered,
        FPred::Ord => !unordered,
    }
}

fn eval_cast(op: CastOp, from: Ty, to: Ty, v: Val) -> Val {
    match op {
        CastOp::Trunc => Val::B64(mask_ty(v.bits(), to)),
        CastOp::ZExt => Val::B64(mask_ty(v.bits(), from)),
        CastOp::SExt => {
            let bits = from.int_bits().unwrap_or(64);
            Val::B64(mask_ty(sext(mask_ty(v.bits(), from), bits) as u64, to))
        }
        CastOp::FpToSi => {
            let x = if from == Ty::F32 {
                f64::from(v.f32())
            } else {
                v.f64()
            };
            Val::B64(mask_ty((x as i64) as u64, to))
        }
        CastOp::SiToFp => {
            let bits = from.int_bits().unwrap_or(64);
            let x = sext(mask_ty(v.bits(), from), bits) as f64;
            if to == Ty::F32 {
                Val::B64(u64::from((x as f32).to_bits()))
            } else {
                Val::B64(x.to_bits())
            }
        }
        CastOp::FpExt => Val::B64(f64::from(v.f32()).to_bits()),
        CastOp::FpTrunc => Val::B64(u64::from((v.f64() as f32).to_bits())),
        CastOp::BitCast | CastOp::IntToPtr | CastOp::PtrToInt => {
            // Pure reinterpretation; handle 64↔128 widening for SSE casts.
            match (v, to.is_vector()) {
                (Val::B64(b), true) => {
                    let mut out = [0u8; 16];
                    out[..8].copy_from_slice(&b.to_le_bytes());
                    Val::B128(out)
                }
                (Val::B128(b), false) => Val::B64(u64::from_le_bytes(b[..8].try_into().unwrap())),
                (v, _) => v,
            }
        }
    }
}

/// The tree-walking interpreter [`Machine`] ran before its lowered form:
/// it walks `Function` itself and recurses on the host stack for calls.
/// Kept as the reference the lowered machine must agree with, error for
/// error, on generated modules (see `tests::lowered_machine_matches_the_reference`).
#[cfg(test)]
mod reference {
    use super::runtime::{Extern, Runtime};
    use super::*;
    use crate::func::Function;
    use crate::inst::{Callee, InstId, Operand, RmwOp, Terminator};

    pub struct RefMachine<'m> {
        module: &'m Module,
        pub mem: Memory,
        rt: Runtime,
        stack_next: u64,
        stats: ExecStats,
        steps_left: u64,
        phi_writes: Vec<(InstId, Val)>,
    }

    struct Frame {
        vals: Vec<Option<Val>>,
        args: Vec<Val>,
        alloca_next: u64,
    }

    impl<'m> RefMachine<'m> {
        pub fn new(module: &'m Module) -> RefMachine<'m> {
            RefMachine {
                module,
                mem: initial_memory(module),
                rt: Runtime::default(),
                stack_next: STACK_TOP,
                stats: ExecStats::default(),
                steps_left: 500_000_000,
                phi_writes: Vec::new(),
            }
        }

        pub fn set_step_limit(&mut self, limit: u64) {
            self.steps_left = limit;
        }

        pub fn run(&mut self, id: FuncId, args: &[Val]) -> Result<RunResult, ExecError> {
            let ret = self.call(id, args.to_vec())?;
            Ok(RunResult {
                ret,
                stats: self.stats,
                thread_cycles: self.rt.thread_cycles.clone(),
                output: std::mem::take(&mut self.rt.output),
            })
        }

        pub fn stats(&self) -> ExecStats {
            self.stats
        }

        fn call(&mut self, id: FuncId, args: Vec<Val>) -> Result<Option<Val>, ExecError> {
            let f = self.module.func(id);
            let mut frame = Frame {
                vals: vec![None; f.insts.len()],
                args,
                alloca_next: self.stack_next,
            };
            // Reserve a generous frame region; restored on return.
            let saved_stack = self.stack_next;
            self.stack_next = saved_stack.checked_sub(flat::FRAME_BYTES).ok_or_else(|| {
                ExecError::Trap(format!("guest stack overflow calling @{}", f.name))
            })?;

            let mut block = f.entry();
            let mut prev_block = f.entry();
            // Empty blocks reached in a row with no step between them: more
            // than the function has and it spins in a cycle of them.
            let (mut idle_mark, mut idle_runs) = (self.steps_left, 0);
            loop {
                // Phi reads must all happen against values from the
                // predecessor, so evaluate them as a parallel copy.
                let blk = f.block(block);
                if blk.insts.is_empty() {
                    if self.steps_left != idle_mark {
                        (idle_mark, idle_runs) = (self.steps_left, 0);
                    }
                    idle_runs += 1;
                    if idle_runs > f.blocks.len() {
                        return Err(ExecError::StepLimit);
                    }
                }
                let mut phi_writes = std::mem::take(&mut self.phi_writes);
                for idx in &blk.insts {
                    let inst = f.inst(*idx);
                    if let InstKind::Phi { incoming } = &inst.kind {
                        let (_, op) =
                            incoming
                                .iter()
                                .find(|(p, _)| *p == prev_block)
                                .ok_or_else(|| {
                                    ExecError::Trap(format!(
                                        "phi missing incoming for {prev_block} in @{}",
                                        f.name
                                    ))
                                })?;
                        let v = self.eval(f, &frame, op)?;
                        phi_writes.push((*idx, v));
                    } else {
                        break;
                    }
                }
                // The phis are the block's prefix, one write each.
                let n_phis = phi_writes.len();
                for (idx, v) in phi_writes.drain(..) {
                    frame.vals[idx.0 as usize] = Some(v);
                    self.tick(&InstKind::Phi { incoming: vec![] })?;
                }
                self.phi_writes = phi_writes;
                // Straight-line execution of the remainder.
                for idx in &blk.insts[n_phis..] {
                    let inst = f.inst(*idx);
                    self.tick(&inst.kind)?;
                    let v = self.exec_inst(f, &mut frame, *idx)?;
                    frame.vals[idx.0 as usize] = v;
                }
                match &blk.term {
                    Terminator::Br { dest } => {
                        prev_block = block;
                        block = *dest;
                    }
                    Terminator::CondBr {
                        cond,
                        if_true,
                        if_false,
                    } => {
                        let c = self.eval(f, &frame, cond)?.bits() & 1;
                        prev_block = block;
                        block = if c != 0 { *if_true } else { *if_false };
                    }
                    Terminator::Ret { val } => {
                        let out = match val {
                            Some(v) => Some(self.eval(f, &frame, v)?),
                            None => None,
                        };
                        self.stack_next = saved_stack;
                        return Ok(out);
                    }
                    Terminator::Unreachable => {
                        return Err(ExecError::Trap(format!(
                            "reached unreachable in @{}",
                            f.name
                        )))
                    }
                }
            }
        }

        fn tick(&mut self, kind: &InstKind) -> Result<(), ExecError> {
            if self.steps_left == 0 {
                return Err(ExecError::StepLimit);
            }
            self.steps_left -= 1;
            self.stats.insts += 1;
            self.stats.cycles += cost_of(kind);
            match kind {
                InstKind::Load { .. } => self.stats.loads += 1,
                InstKind::Store { .. } => self.stats.stores += 1,
                InstKind::Fence { kind } => match kind {
                    FenceKind::Frm => self.stats.fences.0 += 1,
                    FenceKind::Fww => self.stats.fences.1 += 1,
                    FenceKind::Fsc => self.stats.fences.2 += 1,
                },
                InstKind::AtomicRmw { .. } | InstKind::CmpXchg { .. } => self.stats.rmws += 1,
                _ => {}
            }
            Ok(())
        }

        fn eval(&mut self, f: &Function, frame: &Frame, op: &Operand) -> Result<Val, ExecError> {
            Ok(match op {
                Operand::Inst(id) => frame.vals[id.0 as usize].ok_or_else(|| {
                    ExecError::Trap(format!("use of unevaluated %{} in @{}", id.0, f.name))
                })?,
                Operand::Param(i) => *frame.args.get(*i as usize).ok_or_else(|| {
                    ExecError::Trap(format!(
                        "@{} called with {} args but uses parameter {}",
                        f.name,
                        frame.args.len(),
                        i
                    ))
                })?,
                Operand::ConstInt { val, .. } => Val::B64(*val),
                Operand::ConstF32(b) => Val::B64(u64::from(*b)),
                Operand::ConstF64(b) => Val::B64(*b),
                Operand::Global(g) => Val::B64(self.module.global(*g).addr),
                Operand::Func(fi) => Val::B64(FUNC_ADDR_BASE + 16 * u64::from(fi.0)),
                Operand::Undef(ty) => {
                    if ty.is_vector() {
                        Val::B128([0; 16])
                    } else {
                        Val::B64(0)
                    }
                }
            })
        }

        fn exec_inst(
            &mut self,
            f: &Function,
            frame: &mut Frame,
            id: InstId,
        ) -> Result<Option<Val>, ExecError> {
            let inst = f.inst(id);
            let ty = inst.ty;
            Ok(match &inst.kind {
                InstKind::Bin { op, lhs, rhs } => {
                    let l = self.eval(f, frame, lhs)?;
                    let r = self.eval(f, frame, rhs)?;
                    Some(eval_bin(*op, ty, l, r)?)
                }
                InstKind::ICmp { pred, lhs, rhs } => {
                    let lty = self.module.operand_ty(f, lhs);
                    let l = self.eval(f, frame, lhs)?.bits();
                    let r = self.eval(f, frame, rhs)?.bits();
                    Some(Val::B64(u64::from(eval_icmp(*pred, lty, l, r))))
                }
                InstKind::FCmp { pred, lhs, rhs } => {
                    let lty = self.module.operand_ty(f, lhs);
                    let (a, b) = if lty == Ty::F32 {
                        (
                            f64::from(self.eval(f, frame, lhs)?.f32()),
                            f64::from(self.eval(f, frame, rhs)?.f32()),
                        )
                    } else {
                        (
                            self.eval(f, frame, lhs)?.f64(),
                            self.eval(f, frame, rhs)?.f64(),
                        )
                    };
                    Some(Val::B64(u64::from(eval_fcmp(*pred, a, b))))
                }
                InstKind::Load { ptr, .. } => {
                    let addr = self.eval(f, frame, ptr)?.bits();
                    Some(load_typed(&self.mem, addr, ty))
                }
                InstKind::Store { ptr, val, .. } => {
                    let addr = self.eval(f, frame, ptr)?.bits();
                    let vty = self.module.operand_ty(f, val);
                    let v = self.eval(f, frame, val)?;
                    store_typed(&mut self.mem, addr, vty, v);
                    None
                }
                InstKind::Fence { .. } => None,
                InstKind::AtomicRmw { op, ptr, val } => {
                    let addr = self.eval(f, frame, ptr)?.bits();
                    let v = self.eval(f, frame, val)?.bits();
                    let old = load_typed(&self.mem, addr, ty).bits();
                    let new = match op {
                        RmwOp::Xchg => v,
                        RmwOp::Add => old.wrapping_add(v),
                        RmwOp::Sub => old.wrapping_sub(v),
                        RmwOp::And => old & v,
                        RmwOp::Or => old | v,
                        RmwOp::Xor => old ^ v,
                    };
                    store_typed(&mut self.mem, addr, ty, Val::B64(new));
                    Some(Val::B64(mask_ty(old, ty)))
                }
                InstKind::CmpXchg { ptr, expected, new } => {
                    let addr = self.eval(f, frame, ptr)?.bits();
                    let exp = mask_ty(self.eval(f, frame, expected)?.bits(), ty);
                    let newv = self.eval(f, frame, new)?.bits();
                    let old = mask_ty(load_typed(&self.mem, addr, ty).bits(), ty);
                    if old == exp {
                        store_typed(&mut self.mem, addr, ty, Val::B64(newv));
                    }
                    Some(Val::B64(old))
                }
                InstKind::Alloca { size } => {
                    frame.alloca_next =
                        alloca_below(frame.alloca_next, *size).ok_or_else(|| {
                            ExecError::Trap(format!("guest stack overflow in @{}", f.name))
                        })?;
                    Some(Val::B64(frame.alloca_next))
                }
                InstKind::Gep {
                    base,
                    offset,
                    elem_size,
                } => {
                    let b = self.eval(f, frame, base)?.bits();
                    let o = self.eval(f, frame, offset)?.bits();
                    Some(Val::B64(b.wrapping_add(o.wrapping_mul(*elem_size))))
                }
                InstKind::Cast { op, val } => {
                    let vty = self.module.operand_ty(f, val);
                    let v = self.eval(f, frame, val)?;
                    Some(eval_cast(*op, vty, ty, v))
                }
                InstKind::Select {
                    cond,
                    if_true,
                    if_false,
                } => {
                    let c = self.eval(f, frame, cond)?.bits() & 1;
                    Some(if c != 0 {
                        self.eval(f, frame, if_true)?
                    } else {
                        self.eval(f, frame, if_false)?
                    })
                }
                InstKind::Call { callee, args } => {
                    let mut argv = Vec::with_capacity(args.len());
                    for a in args {
                        argv.push(self.eval(f, frame, a)?);
                    }
                    match callee {
                        Callee::Func(fi) => self.call(*fi, argv)?,
                        Callee::Extern(e) => {
                            let module = self.module;
                            self.call_extern(&module.ext(*e).name, f, args, &argv)?
                        }
                        Callee::Indirect(target) => {
                            let addr = self.eval(f, frame, target)?.bits();
                            let fi = flat::resolve_func(self.module, addr)?;
                            self.call(fi, argv)?
                        }
                    }
                }
                InstKind::Phi { .. } => {
                    return Err(ExecError::Trap("phi executed out of prefix".to_string()))
                }
                InstKind::ExtractElement { vec, idx } => {
                    let v = self.eval(f, frame, vec)?.v128();
                    let lane = ty.size() as usize;
                    let off = *idx as usize * lane;
                    let mut b = [0u8; 8];
                    b[..lane].copy_from_slice(&v[off..off + lane]);
                    Some(Val::B64(u64::from_le_bytes(b)))
                }
                InstKind::InsertElement { vec, elt, idx } => {
                    let mut v = match self.eval(f, frame, vec)? {
                        Val::B128(b) => b,
                        Val::B64(_) => [0u8; 16],
                    };
                    let ety = self.module.operand_ty(f, elt);
                    let lane = ety.size() as usize;
                    let e = self.eval(f, frame, elt)?.bits();
                    let off = *idx as usize * lane;
                    v[off..off + lane].copy_from_slice(&e.to_le_bytes()[..lane]);
                    Some(Val::B128(v))
                }
            })
        }

        /// Calls extern `name` on the values `argv` of operands `args` of
        /// `f`, split by type into the runtime's integer and
        /// floating-point arguments, as the Arm lowering marshals them.
        fn call_extern(
            &mut self,
            name: &str,
            f: &Function,
            args: &[Operand],
            argv: &[Val],
        ) -> Result<Option<Val>, ExecError> {
            let ext = Extern::parse(name)
                .ok_or_else(|| ExecError::BadCall(format!("unknown extern @{name}")))?;
            let (mut ints, mut floats) = (vec![], vec![]);
            for (a, v) in args.iter().zip(argv) {
                if self.module.operand_ty(f, a).is_float() {
                    floats.push(v.f64());
                } else {
                    ints.push(v.bits());
                }
            }
            let val = match ext {
                Extern::Sqrt => Some(floats.first().map_or(0.0, |x| x.sqrt()).to_bits()),
                Extern::PthreadCreate => {
                    let now = self.stats.cycles;
                    let t = self.rt.begin_thread(&mut self.mem, &ints, now);
                    let fi = flat::resolve_func(self.module, t.entry)?;
                    let parent_stack = std::mem::replace(&mut self.stack_next, t.stack_top);
                    self.call(fi, vec![Val::B64(t.arg)])?;
                    self.stack_next = parent_stack;
                    self.rt.end_thread(t, self.stats.cycles);
                    Some(0)
                }
                _ => {
                    let r = self.rt.call(ext, &mut self.mem, &ints, &floats);
                    let (val, cycles) = r.map_err(|t| ExecError::Trap(t.0))?;
                    self.stats.cycles += cycles;
                    val
                }
            };
            Ok(val.map(Val::B64))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::runtime::Extern;
    use super::*;
    use crate::func::Function;
    use crate::inst::{Callee, InstKind, Operand, Ordering, RmwOp, Terminator};
    use crate::types::Pointee;

    fn run_func(f: Function, args: &[Val]) -> RunResult {
        let mut m = Module::new();
        let id = m.add_func(f);
        let mut machine = Machine::new(&m);
        machine.run(id, args).unwrap()
    }

    #[test]
    fn reads_do_not_map_pages() {
        let mut mem = Memory::new();
        assert_eq!(mem.read_u64(0x1234_5ff8), 0);
        assert_eq!(mem.read_cstr(0x4000_0000), "");
        assert!(mem.frames.is_empty() && mem.index.is_empty());
        mem.write(0x1fff, &[1, 2]);
        assert_eq!(mem.frames.len(), 2, "a write maps each page it touches");
        assert_eq!(mem.read_u64(0x1ffe), 0x0002_0100);
        assert_eq!(
            mem.read_cstr(0x1fff),
            "\u{1}\u{2}",
            "the next page is unmapped"
        );
        assert_eq!(mem.frames.len(), 2);
    }

    #[test]
    fn arithmetic() {
        let mut f = Function::new("f", vec![Ty::I64, Ty::I64], Ty::I64);
        let e = f.entry();
        let a = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Mul,
                lhs: Operand::Param(0),
                rhs: Operand::Param(1),
            },
        );
        let b = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(a),
                rhs: Operand::i64(5),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(b)),
            },
        );
        let r = run_func(f, &[Val::B64(6), Val::B64(7)]);
        assert_eq!(r.ret, Some(Val::B64(47)));
        assert_eq!(r.stats.insts, 2);
    }

    #[test]
    fn memory_roundtrip() {
        let mut f = Function::new("f", vec![], Ty::I32);
        let e = f.entry();
        let slot = f.push(e, Ty::Ptr(Pointee::I32), InstKind::Alloca { size: 4 });
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(slot),
                val: Operand::i32(-3),
                order: Ordering::NotAtomic,
            },
        );
        let l = f.push(
            e,
            Ty::I32,
            InstKind::Load {
                ptr: Operand::Inst(slot),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );
        let r = run_func(f, &[]);
        assert_eq!(r.ret, Some(Val::B64(0xFFFF_FFFD)));
        assert_eq!(r.stats.loads, 1);
        assert_eq!(r.stats.stores, 1);
    }

    #[test]
    fn loop_with_phi() {
        // sum 0..n via phi
        let mut f = Function::new("sum", vec![Ty::I64], Ty::I64);
        let entry = f.entry();
        let header = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        f.set_term(entry, Terminator::Br { dest: header });
        let phi_i = f.push(header, Ty::I64, InstKind::Phi { incoming: vec![] });
        let phi_s = f.push(header, Ty::I64, InstKind::Phi { incoming: vec![] });
        let cond = f.push(
            header,
            Ty::I1,
            InstKind::ICmp {
                pred: IPred::Ult,
                lhs: Operand::Inst(phi_i),
                rhs: Operand::Param(0),
            },
        );
        f.set_term(
            header,
            Terminator::CondBr {
                cond: Operand::Inst(cond),
                if_true: body,
                if_false: exit,
            },
        );
        let s2 = f.push(
            body,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(phi_s),
                rhs: Operand::Inst(phi_i),
            },
        );
        let i2 = f.push(
            body,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(phi_i),
                rhs: Operand::i64(1),
            },
        );
        f.set_term(body, Terminator::Br { dest: header });
        f.inst_mut(phi_i).kind = InstKind::Phi {
            incoming: vec![(entry, Operand::i64(0)), (body, Operand::Inst(i2))],
        };
        f.inst_mut(phi_s).kind = InstKind::Phi {
            incoming: vec![(entry, Operand::i64(0)), (body, Operand::Inst(s2))],
        };
        f.set_term(
            exit,
            Terminator::Ret {
                val: Some(Operand::Inst(phi_s)),
            },
        );

        let r = run_func(f, &[Val::B64(10)]);
        assert_eq!(r.ret, Some(Val::B64(45)));
    }

    #[test]
    fn division_by_zero_traps() {
        let mut f = Function::new("f", vec![Ty::I64], Ty::I64);
        let e = f.entry();
        let d = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::SDiv,
                lhs: Operand::i64(1),
                rhs: Operand::Param(0),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(d)),
            },
        );
        let mut m = Module::new();
        let id = m.add_func(f);
        let mut machine = Machine::new(&m);
        let err = machine.run(id, &[Val::B64(0)]).unwrap_err();
        assert!(matches!(err, ExecError::Trap(_)));
    }

    #[test]
    fn fences_are_counted_and_costed() {
        let mut f = Function::new("f", vec![], Ty::Void);
        let e = f.entry();
        f.push(
            e,
            Ty::Void,
            InstKind::Fence {
                kind: FenceKind::Frm,
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Fence {
                kind: FenceKind::Fww,
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Fence {
                kind: FenceKind::Fsc,
            },
        );
        f.set_term(e, Terminator::Ret { val: None });
        let r = run_func(f, &[]);
        assert_eq!(r.stats.fences, (1, 1, 1));
        assert!(r.stats.cycles >= 40 + 16 + 16);
    }

    #[test]
    fn step_limit_enforced() {
        let mut f = Function::new("spin", vec![], Ty::Void);
        let e = f.entry();
        let l = f.add_block();
        f.set_term(e, Terminator::Br { dest: l });
        f.push(
            l,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::i64(0),
                rhs: Operand::i64(0),
            },
        );
        f.set_term(l, Terminator::Br { dest: l });
        let mut m = Module::new();
        let id = m.add_func(f);
        let mut machine = Machine::new(&m);
        machine.set_step_limit(1000);
        assert_eq!(machine.run(id, &[]).unwrap_err(), ExecError::StepLimit);
    }

    #[test]
    fn atomics() {
        let mut f = Function::new("f", vec![], Ty::I64);
        let e = f.entry();
        let slot = f.push(e, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 8 });
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(slot),
                val: Operand::i64(10),
                order: Ordering::NotAtomic,
            },
        );
        let old = f.push(
            e,
            Ty::I64,
            InstKind::AtomicRmw {
                op: RmwOp::Add,
                ptr: Operand::Inst(slot),
                val: Operand::i64(5),
            },
        );
        let old2 = f.push(
            e,
            Ty::I64,
            InstKind::CmpXchg {
                ptr: Operand::Inst(slot),
                expected: Operand::i64(15),
                new: Operand::i64(100),
            },
        );
        let s = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(old),
                rhs: Operand::Inst(old2),
            },
        );
        let cur = f.push(
            e,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Inst(slot),
                order: Ordering::SeqCst,
            },
        );
        let t = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(s),
                rhs: Operand::Inst(cur),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(t)),
            },
        );
        let r = run_func(f, &[]);
        // old=10, old2=15, cur=100 → 125
        assert_eq!(r.ret, Some(Val::B64(125)));
        assert_eq!(r.stats.rmws, 2);
    }

    #[test]
    fn extern_malloc_and_threads() {
        // worker(arg): *arg += 1
        let mut m = Module::new();
        let mut w = Function::new("worker", vec![Ty::Ptr(Pointee::I64)], Ty::I64);
        let e = w.entry();
        let l = w.push(
            e,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Param(0),
                order: Ordering::NotAtomic,
            },
        );
        let a = w.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(l),
                rhs: Operand::i64(1),
            },
        );
        w.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Param(0),
                val: Operand::Inst(a),
                order: Ordering::NotAtomic,
            },
        );
        w.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::i64(0)),
            },
        );
        let worker = m.add_func(w);

        let pc = m.declare_extern(crate::func::ExternDecl {
            name: Extern::PthreadCreate.name().into(),
            params: vec![Ty::I64, Ty::I64, Ty::I64, Ty::I64],
            ret: Ty::I32,
            variadic: false,
        });
        let malloc = m.declare_extern(crate::func::ExternDecl {
            name: Extern::Malloc.name().into(),
            params: vec![Ty::I64],
            ret: Ty::Ptr(Pointee::I8),
            variadic: false,
        });

        let mut main = Function::new("main", vec![], Ty::I64);
        let e = main.entry();
        let buf = main.push(
            e,
            Ty::Ptr(Pointee::I8),
            InstKind::Call {
                callee: Callee::Extern(malloc),
                args: vec![Operand::i64(16)],
            },
        );
        main.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(buf),
                val: Operand::i64(41),
                order: Ordering::NotAtomic,
            },
        );
        let tslot = main.push(e, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 8 });
        let tptr = main.push(
            e,
            Ty::I64,
            InstKind::Cast {
                op: CastOp::PtrToInt,
                val: Operand::Inst(tslot),
            },
        );
        let bufi = main.push(
            e,
            Ty::I64,
            InstKind::Cast {
                op: CastOp::PtrToInt,
                val: Operand::Inst(buf),
            },
        );
        let fnptr = main.push(
            e,
            Ty::I64,
            InstKind::Cast {
                op: CastOp::PtrToInt,
                val: Operand::Func(worker),
            },
        );
        main.push(
            e,
            Ty::I32,
            InstKind::Call {
                callee: Callee::Extern(pc),
                args: vec![
                    Operand::Inst(tptr),
                    Operand::i64(0),
                    Operand::Inst(fnptr),
                    Operand::Inst(bufi),
                ],
            },
        );
        let out = main.push(
            e,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Inst(buf),
                order: Ordering::NotAtomic,
            },
        );
        main.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(out)),
            },
        );
        let main_id = m.add_func(main);

        let mut machine = Machine::new(&m);
        let r = machine.run(main_id, &[]).unwrap();
        assert_eq!(r.ret, Some(Val::B64(42)));
        assert_eq!(r.thread_cycles.len(), 1);
        assert!(r.critical_path_cycles() <= r.stats.cycles);
    }

    #[test]
    fn printf_capture() {
        let mut m = Module::new();
        let g = m.add_global(crate::func::GlobalVar {
            name: "fmt".into(),
            size: 8,
            init: b"n=%d\n\0".to_vec(),
            addr: 0x60_0000,
        });
        let pf = m.declare_extern(crate::func::ExternDecl {
            name: Extern::Printf.name().into(),
            params: vec![Ty::Ptr(Pointee::I8)],
            ret: Ty::I32,
            variadic: true,
        });
        let mut f = Function::new("main", vec![], Ty::Void);
        let e = f.entry();
        f.push(
            e,
            Ty::I32,
            InstKind::Call {
                callee: Callee::Extern(pf),
                args: vec![Operand::Global(g), Operand::i64(7)],
            },
        );
        f.set_term(e, Terminator::Ret { val: None });
        let id = m.add_func(f);
        let mut machine = Machine::new(&m);
        let r = machine.run(id, &[]).unwrap();
        assert_eq!(r.output, "n=7\n");
    }
}

/// The lowered [`Machine`] against [`reference::RefMachine`] on generated
/// modules: up to four functions of up to five blocks each, with loops,
/// phis (some missing an edge's entry, some out of their block's prefix),
/// direct, indirect and extern calls (`pthread_create` included), every
/// integer width, floats, vectors, memory, atomics and random step limits.
/// Operands are drawn mostly from values their block defined, so most
/// runs go deep, and sometimes from anywhere, so uses of unevaluated
/// values trap too. Both machines must return the same `Result`, error
/// included, end with the same statistics and mapped pages, and agree
/// again on a second run on the same machine.
#[cfg(test)]
mod equivalence {
    use super::reference::RefMachine;
    use super::runtime::Extern;
    use super::*;
    use crate::func::{ExternDecl, Function, GlobalVar};
    use crate::inst::{BlockId, Callee, ExternId, Operand, Ordering, RmwOp, Terminator};
    use crate::types::Pointee;
    use lasagne_qc::collection;
    use lasagne_qc::prelude::*;

    const INTS: [Ty; 5] = [Ty::I1, Ty::I8, Ty::I16, Ty::I32, Ty::I64];
    const FLOATS: [Ty; 2] = [Ty::F32, Ty::F64];
    const VECTORS: [Ty; 4] = [Ty::V2F64, Ty::V4F32, Ty::V2I64, Ty::V4I32];
    const PTR: Ty = Ty::Ptr(Pointee::I8);
    /// Every type a generated value has.
    const VALUE_TYS: [Ty; 12] = [
        Ty::I1,
        Ty::I8,
        Ty::I16,
        Ty::I32,
        Ty::I64,
        Ty::F32,
        Ty::F64,
        Ty::V2F64,
        Ty::V4F32,
        Ty::V2I64,
        Ty::V4I32,
        PTR,
    ];
    const GLOBAL_ADDR: u64 = 0x60_0000;
    /// A block no value is defined in.
    const NOWHERE: BlockId = BlockId(u32::MAX);
    /// The externs a generated call may name, plus one the runtime lacks.
    const EXTERNS: [Option<Extern>; 12] = [
        Some(Extern::Malloc),
        Some(Extern::Printf),
        Some(Extern::Memset),
        Some(Extern::Memcpy),
        Some(Extern::Strlen),
        Some(Extern::Sqrt),
        Some(Extern::PthreadCreate),
        Some(Extern::PthreadMutexLock),
        Some(Extern::PthreadMutexUnlock),
        Some(Extern::Free),
        Some(Extern::Puts),
        None,
    ];

    /// The choice words a module is decoded from; past the end every
    /// word reads 0, so shorter tapes give smaller modules.
    struct Words<'a> {
        words: &'a [u64],
        at: usize,
    }

    impl Words<'_> {
        fn below(&mut self, n: usize) -> usize {
            let w = self.words.get(self.at).copied().unwrap_or(0);
            self.at += 1;
            (w % n as u64) as usize
        }

        /// True `p` times in 100; false on an exhausted tape.
        fn percent(&mut self, p: usize) -> bool {
            self.below(100) >= 100 - p
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len())]
        }

        fn raw(&mut self) -> u64 {
            let w = self.words.get(self.at).copied().unwrap_or(0);
            self.at += 1;
            w
        }
    }

    /// Builds one function; `arity[j]` is function `j`'s parameter count.
    struct FnGen<'a, 'w> {
        w: &'a mut Words<'w>,
        f: Function,
        me: usize,
        arity: &'a [usize],
        externs: &'a [ExternId],
        /// Values and their types, with the block that defines each
        /// (`None`: parameters, usable anywhere).
        vals: Vec<(Operand, Ty, Option<BlockId>)>,
    }

    impl FnGen<'_, '_> {
        fn constant(&mut self, ty: Ty) -> Operand {
            match ty {
                Ty::F32 => Operand::f32(self.w.below(9) as f32 - 4.0),
                Ty::F64 => Operand::f64(self.w.below(9) as f64 / 2.0 - 2.0),
                t if t.is_vector() => Operand::Undef(t),
                Ty::Ptr(_) => match self.w.below(3) {
                    0 => Operand::Undef(ty),
                    _ => Operand::Global(crate::inst::GlobalId(0)),
                },
                t => {
                    let val = match self.w.below(4) {
                        0 => self.w.raw(),
                        _ => self.w.below(9) as u64,
                    };
                    Operand::ConstInt {
                        ty: t,
                        val: mask_ty(val, t),
                    }
                }
            }
        }

        /// An operand of type `ty` for block `b`: mostly a value `b` or
        /// the parameters define, sometimes any value, else a constant.
        fn operand(&mut self, ty: Ty, b: BlockId) -> Operand {
            let anywhere = self.w.percent(2);
            let fits: Vec<Operand> = self
                .vals
                .iter()
                .filter(|(_, t, at)| *t == ty && (anywhere || at.is_none_or(|at| at == b)))
                .map(|(op, _, _)| *op)
                .collect();
            if !fits.is_empty() && self.w.percent(75) {
                self.w.pick(&fits)
            } else {
                self.constant(ty)
            }
        }

        fn push(&mut self, b: BlockId, ty: Ty, kind: InstKind) {
            let id = self.f.push(b, ty, kind);
            if ty != Ty::Void {
                self.vals.push((Operand::Inst(id), ty, Some(b)));
            }
        }

        /// Appends one random instruction to block `b`.
        fn inst(&mut self, b: BlockId) {
            match self.w.below(21) {
                0 | 1 => {
                    let ty = self.w.pick(&INTS);
                    let op = self.w.pick(&[
                        BinOp::Add,
                        BinOp::Sub,
                        BinOp::Mul,
                        BinOp::UDiv,
                        BinOp::SDiv,
                        BinOp::URem,
                        BinOp::SRem,
                        BinOp::And,
                        BinOp::Or,
                        BinOp::Xor,
                        BinOp::Shl,
                        BinOp::LShr,
                        BinOp::AShr,
                    ]);
                    let (lhs, rhs) = (self.operand(ty, b), self.operand(ty, b));
                    self.push(b, ty, InstKind::Bin { op, lhs, rhs });
                }
                2 => {
                    let ty = self.w.pick(&FLOATS);
                    let op = self.w.pick(&[
                        BinOp::FAdd,
                        BinOp::FSub,
                        BinOp::FMul,
                        BinOp::FDiv,
                        BinOp::FMin,
                        BinOp::FMax,
                    ]);
                    let (lhs, rhs) = (self.operand(ty, b), self.operand(ty, b));
                    self.push(b, ty, InstKind::Bin { op, lhs, rhs });
                }
                3 => {
                    // Now and then an operation the vector type lacks.
                    let ty = self.w.pick(&VECTORS);
                    let op = match (self.w.percent(5), ty) {
                        (true, _) => self.w.pick(&[BinOp::Add, BinOp::FAdd, BinOp::And]),
                        (false, Ty::V2F64 | Ty::V4F32) => self.w.pick(&[
                            BinOp::FAdd,
                            BinOp::FSub,
                            BinOp::FMul,
                            BinOp::FDiv,
                            BinOp::FMin,
                            BinOp::FMax,
                            BinOp::Xor,
                        ]),
                        (false, _) => self.w.pick(&[BinOp::And, BinOp::Or, BinOp::Xor]),
                    };
                    let (lhs, rhs) = (self.operand(ty, b), self.operand(ty, b));
                    self.push(b, ty, InstKind::Bin { op, lhs, rhs });
                }
                4 => {
                    let ty = self
                        .w
                        .pick(&[Ty::I1, Ty::I8, Ty::I16, Ty::I32, Ty::I64, PTR]);
                    let pred = self.w.pick(&[
                        IPred::Eq,
                        IPred::Ne,
                        IPred::Ult,
                        IPred::Ule,
                        IPred::Ugt,
                        IPred::Uge,
                        IPred::Slt,
                        IPred::Sle,
                        IPred::Sgt,
                        IPred::Sge,
                    ]);
                    let (lhs, rhs) = (self.operand(ty, b), self.operand(ty, b));
                    self.push(b, Ty::I1, InstKind::ICmp { pred, lhs, rhs });
                }
                5 => {
                    let ty = self.w.pick(&FLOATS);
                    let pred = self.w.pick(&[
                        FPred::Oeq,
                        FPred::One,
                        FPred::Olt,
                        FPred::Ole,
                        FPred::Ogt,
                        FPred::Oge,
                        FPred::Une,
                        FPred::Uno,
                        FPred::Ord,
                    ]);
                    let (lhs, rhs) = (self.operand(ty, b), self.operand(ty, b));
                    self.push(b, Ty::I1, InstKind::FCmp { pred, lhs, rhs });
                }
                6 | 7 => self.cast(b),
                8 => {
                    let ty = self.w.pick(&VALUE_TYS);
                    let cond = self.operand(Ty::I1, b);
                    let (if_true, if_false) = (self.operand(ty, b), self.operand(ty, b));
                    self.push(
                        b,
                        ty,
                        InstKind::Select {
                            cond,
                            if_true,
                            if_false,
                        },
                    );
                }
                9 | 10 => {
                    let ty = self.w.pick(&VALUE_TYS);
                    let ptr = self.operand(PTR, b);
                    let order = self.w.pick(&[Ordering::NotAtomic, Ordering::SeqCst]);
                    self.push(b, ty, InstKind::Load { ptr, order });
                }
                11 | 12 => {
                    let ty = self.w.pick(&VALUE_TYS);
                    let (ptr, val) = (self.operand(PTR, b), self.operand(ty, b));
                    let order = self.w.pick(&[Ordering::NotAtomic, Ordering::SeqCst]);
                    self.push(b, Ty::Void, InstKind::Store { ptr, val, order });
                }
                13 => {
                    let ty = self.w.pick(&[Ty::I8, Ty::I32, Ty::I64]);
                    let ptr = self.operand(PTR, b);
                    let kind = if self.w.percent(50) {
                        let op = self.w.pick(&[
                            RmwOp::Xchg,
                            RmwOp::Add,
                            RmwOp::Sub,
                            RmwOp::And,
                            RmwOp::Or,
                            RmwOp::Xor,
                        ]);
                        let val = self.operand(ty, b);
                        InstKind::AtomicRmw { op, ptr, val }
                    } else {
                        let (expected, new) = (self.operand(ty, b), self.operand(ty, b));
                        InstKind::CmpXchg { ptr, expected, new }
                    };
                    self.push(b, ty, kind);
                }
                14 => {
                    let size = self.w.pick(&[1, 8, 16, 24, 100]);
                    self.push(b, PTR, InstKind::Alloca { size });
                }
                15 => {
                    let base = self.operand(PTR, b);
                    let offset = self.operand(Ty::I64, b);
                    let elem_size = self.w.pick(&[1, 4, 8, 1 << 40]);
                    self.push(
                        b,
                        PTR,
                        InstKind::Gep {
                            base,
                            offset,
                            elem_size,
                        },
                    );
                }
                16 => {
                    let (vty, lane, lanes) = self.w.pick(&[
                        (Ty::V2F64, Ty::F64, 2),
                        (Ty::V4F32, Ty::F32, 4),
                        (Ty::V2I64, Ty::I64, 2),
                        (Ty::V4I32, Ty::I32, 4),
                    ]);
                    let vec = self.operand(vty, b);
                    let idx = self.w.below(lanes) as u32;
                    if self.w.percent(50) {
                        self.push(b, lane, InstKind::ExtractElement { vec, idx });
                    } else {
                        let elt = self.operand(lane, b);
                        self.push(b, vty, InstKind::InsertElement { vec, elt, idx });
                    }
                }
                17 => {
                    let kind = self
                        .w
                        .pick(&[FenceKind::Frm, FenceKind::Fww, FenceKind::Fsc]);
                    self.push(b, Ty::Void, InstKind::Fence { kind });
                }
                _ => self.call(b),
            }
        }

        fn cast(&mut self, b: BlockId) {
            let (op, from, to) = match self.w.below(10) {
                0 => {
                    let (x, y) = (self.w.below(5), self.w.below(5));
                    (CastOp::Trunc, INTS[x.max(y)], INTS[x.min(y)])
                }
                1 | 2 => {
                    let (x, y) = (self.w.below(5), self.w.below(5));
                    let op = self.w.pick(&[CastOp::ZExt, CastOp::SExt]);
                    (op, INTS[x.min(y)], INTS[x.max(y)])
                }
                3 => (
                    CastOp::FpToSi,
                    self.w.pick(&FLOATS),
                    self.w.pick(&INTS[1..]),
                ),
                4 => (CastOp::SiToFp, self.w.pick(&INTS), self.w.pick(&FLOATS)),
                5 => (CastOp::FpExt, Ty::F32, Ty::F64),
                6 => (CastOp::FpTrunc, Ty::F64, Ty::F32),
                7 => (CastOp::PtrToInt, PTR, Ty::I64),
                8 => (CastOp::IntToPtr, Ty::I64, PTR),
                _ => self.w.pick(&[
                    (CastOp::BitCast, Ty::I64, Ty::F64),
                    (CastOp::BitCast, Ty::F64, Ty::I64),
                    (CastOp::BitCast, Ty::I32, Ty::F32),
                    (CastOp::BitCast, Ty::I64, Ty::V2I64),
                    (CastOp::BitCast, Ty::F64, Ty::V2F64),
                    (CastOp::BitCast, Ty::V4I32, Ty::I64),
                    (CastOp::BitCast, Ty::V2F64, Ty::V4F32),
                ]),
            };
            let val = self.operand(from, b);
            self.push(b, to, InstKind::Cast { op, val });
        }

        /// A call to a later function (directly or through its address),
        /// so calls form a DAG, or to an extern.
        fn call(&mut self, b: BlockId) {
            let later = self.me + 1..self.arity.len();
            let direct = !later.is_empty() && self.w.percent(50);
            if direct {
                let j = later.start + self.w.below(later.len());
                // Sometimes one argument short: the callee traps on it.
                let n = self.arity[j].saturating_sub(usize::from(self.w.percent(10)));
                let args = (0..n).map(|_| self.operand(Ty::I64, b)).collect();
                let callee = match self.w.below(4) {
                    0 => Callee::Indirect(Operand::Func(FuncId(j as u32))),
                    1 if self.w.percent(20) => Callee::Indirect(self.operand(Ty::I64, b)),
                    _ => Callee::Func(FuncId(j as u32)),
                };
                self.push(b, Ty::I64, InstKind::Call { callee, args });
                return;
            }
            let e = self.w.below(EXTERNS.len());
            let (params, ret): (Vec<Ty>, Ty) = match EXTERNS[e] {
                Some(Extern::Malloc) => (vec![Ty::I64], PTR),
                Some(Extern::Printf) => (vec![PTR, Ty::I64, Ty::F64], Ty::I32),
                Some(Extern::Memset) => (vec![PTR, Ty::I64, Ty::I64], PTR),
                Some(Extern::Memcpy) => (vec![PTR, PTR, Ty::I64], PTR),
                Some(Extern::Strlen) => (vec![PTR], Ty::I64),
                Some(Extern::Sqrt) => (vec![Ty::F64], Ty::F64),
                Some(Extern::PthreadCreate) => (vec![PTR, Ty::I64, PTR, Ty::I64], Ty::I32),
                Some(Extern::Free) => (vec![PTR], Ty::Void),
                None => (vec![Ty::I64], Ty::I64),
                Some(_) => (vec![PTR], Ty::I32),
            };
            let mut args: Vec<Operand> = params.iter().map(|t| self.operand(*t, b)).collect();
            match EXTERNS[e] {
                Some(Extern::Memset | Extern::Memcpy) => {
                    args[2] = Operand::i64(self.w.below(300) as i64);
                }
                Some(Extern::Printf | Extern::Puts) => args[0] = self.constant(PTR),
                Some(Extern::PthreadCreate) if !later.is_empty() => {
                    args[2] =
                        Operand::Func(FuncId((later.start + self.w.below(later.len())) as u32));
                }
                _ => {}
            }
            self.push(
                b,
                ret,
                InstKind::Call {
                    callee: Callee::Extern(self.externs[e]),
                    args,
                },
            );
        }
    }

    /// Decodes a module from `words`; function 0 is the entry. Returns it
    /// with the entry's arity.
    fn module(words: &[u64]) -> (Module, usize) {
        let w = &mut Words { words, at: 0 };
        let mut m = Module::new();
        let mut global = b"n=%d x=%f\n\0".to_vec();
        global.resize(64, 7);
        m.add_global(GlobalVar {
            name: "g".into(),
            size: 64,
            init: global,
            addr: GLOBAL_ADDR,
        });
        let externs: Vec<ExternId> = EXTERNS
            .iter()
            .map(|e| {
                m.declare_extern(ExternDecl {
                    name: e.map_or("no_such_extern", Extern::name).into(),
                    params: vec![],
                    ret: Ty::I64,
                    variadic: true,
                })
            })
            .collect();
        let n_funcs = 1 + w.below(4);
        let arity: Vec<usize> = (0..n_funcs).map(|_| w.below(3)).collect();
        for me in 0..n_funcs {
            let mut g = FnGen {
                w: &mut *w,
                f: Function::new(&format!("f{me}"), vec![Ty::I64; arity[me]], Ty::I64),
                me,
                arity: &arity,
                externs: &externs,
                vals: (0..arity[me] as u32)
                    .map(|i| (Operand::Param(i), Ty::I64, None))
                    .collect(),
            };
            let n_blocks = 1 + g.w.below(5);
            for _ in 1..n_blocks {
                g.f.add_block();
            }
            // Successors first, so each block's phis know its predecessors.
            let succs: Vec<Vec<BlockId>> = (0..n_blocks)
                .map(|_| match g.w.below(10) {
                    0..=2 => vec![BlockId(g.w.below(n_blocks) as u32)],
                    3..=6 => vec![
                        BlockId(g.w.below(n_blocks) as u32),
                        BlockId(g.w.below(n_blocks) as u32),
                    ],
                    7 if g.w.percent(30) => vec![BlockId(u32::MAX)],
                    _ => vec![],
                })
                .collect();
            let mut phis = Vec::new();
            for bi in 0..n_blocks {
                let b = BlockId(bi as u32);
                for _ in 0..g.w.below(3) {
                    let ty = g.w.pick(&VALUE_TYS);
                    let id = g.f.push(b, ty, InstKind::Phi { incoming: vec![] });
                    g.vals.push((Operand::Inst(id), ty, Some(b)));
                    phis.push((b, id, ty));
                }
                // Empty blocks too: a cycle of them takes no step, and both
                // machines must still stop it.
                for _ in 0..g.w.below(9) {
                    g.inst(b);
                }
                if g.w.percent(1) {
                    g.f.push(b, Ty::I64, InstKind::Phi { incoming: vec![] });
                }
            }
            for (b, id, ty) in phis {
                let preds = (0..n_blocks)
                    .filter(|p| succs[*p].contains(&b))
                    .map(|p| BlockId(p as u32));
                // The entry block is entered from itself on a call, when
                // only the parameters and constants are defined.
                let start = (b == BlockId(0) && !succs[0].contains(&b)).then_some(b);
                let mut incoming = Vec::new();
                for p in preds.chain(start) {
                    if !g.w.percent(1) {
                        let from = if p == b && b == BlockId(0) {
                            NOWHERE
                        } else {
                            p
                        };
                        incoming.push((p, g.operand(ty, from)));
                    }
                }
                g.f.inst_mut(id).kind = InstKind::Phi { incoming };
            }
            for (bi, s) in succs.iter().enumerate() {
                let b = BlockId(bi as u32);
                let term = match s[..] {
                    [BlockId(u32::MAX)] => Terminator::Unreachable,
                    [dest] => Terminator::Br { dest },
                    [if_true, if_false] => Terminator::CondBr {
                        cond: g.operand(Ty::I1, b),
                        if_true,
                        if_false,
                    },
                    _ => Terminator::Ret {
                        val: Some(g.operand(Ty::I64, b)),
                    },
                };
                g.f.set_term(b, term);
            }
            m.add_func(g.f);
        }
        (m, arity[0])
    }

    properties! {
        config = Config::with_cases(256);

        fn lowered_machine_matches_the_reference(
            words in collection::vec(any::<u64>(), 0..600),
            limit in 0u64..6000,
            short in 0usize..8,
        ) {
            let (m, arity) = module(&words);
            // Now and then the entry is called one argument short.
            let n = arity.saturating_sub(usize::from(short == 0));
            let args: Vec<Val> = (0..n as u64).map(|i| Val::B64(i * 3 + 1)).collect();
            let mut flat = Machine::new(&m);
            let mut tree = RefMachine::new(&m);
            for round in 0..2 {
                flat.set_step_limit(limit);
                tree.set_step_limit(limit);
                let (got, want) = (flat.run(FuncId(0), &args), tree.run(FuncId(0), &args));
                let listing = crate::print::print_module(&m);
                prop_assert_eq!(&got, &want, "round {round}\n{listing}");
                prop_assert_eq!(flat.stats(), tree.stats(), "round {round}\n{listing}");
                prop_assert_eq!(
                    flat.mem.mapped_pages(),
                    tree.mem.mapped_pages(),
                    "round {round}\n{listing}"
                );
            }
        }
    }
}
