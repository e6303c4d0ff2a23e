//! The guest runtime the LIR, x86 and Arm interpreters share: the C-library
//! and pthread externs, a bump heap, mutexes, and sequential fork–join
//! threads with per-thread cycle buckets. Heap pointers, thread ids, child
//! stacks, cycle charges and printed text are thus the same in every leg by
//! construction; a machine keeps only its register marshalling, `sqrt` and
//! running a thread body. A bug here would be shared by all three legs of
//! the differential test, so `crates/lir/tests/runtime_model.rs` checks the
//! runtime against hand-computed values.

use super::{Memory, HEAP_BASE, STACK_SIZE, STACK_TOP};
use std::collections::BTreeSet;

/// Declares [`Extern`] from one `Variant = "symbol"` table.
macro_rules! externs {
    ($($variant:ident = $name:literal,)*) => {
        /// An extern the runtime implements, named by its C symbol.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Extern {
            $(#[doc = concat!("`", $name, "`")] $variant,)*
        }

        impl Extern {
            /// Every extern, in table order.
            pub const ALL: &'static [Extern] = &[$(Extern::$variant),*];

            /// The C symbol name.
            pub fn name(self) -> &'static str {
                match self {
                    $(Extern::$variant => $name,)*
                }
            }

            /// The extern named `name`, if the runtime implements it.
            pub fn parse(name: &str) -> Option<Extern> {
                match name {
                    $($name => Some(Extern::$variant),)*
                    _ => None,
                }
            }
        }
    };
}

externs! {
    Malloc = "malloc",
    Valloc = "valloc",
    Calloc = "calloc",
    Free = "free",
    Memset = "memset",
    Memcpy = "memcpy",
    Strlen = "strlen",
    Printf = "printf",
    Puts = "puts",
    Exit = "exit",
    Abort = "abort",
    Sqrt = "sqrt",
    PthreadCreate = "pthread_create",
    PthreadJoin = "pthread_join",
    PthreadExit = "pthread_exit",
    PthreadMutexInit = "pthread_mutex_init",
    PthreadMutexDestroy = "pthread_mutex_destroy",
    PthreadMutexLock = "pthread_mutex_lock",
    PthreadMutexUnlock = "pthread_mutex_unlock",
    Sysconf = "sysconf",
}

/// The largest length `memset` and `memcpy` accept; a longer one traps
/// rather than mapping that much guest memory. 64 MiB is far above what
/// any workload here writes in one call.
pub const MAX_BULK_BYTES: u64 = 64 << 20;

/// The message of a runtime call that stops the guest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trap(pub String);

/// A `pthread_create`d thread, between [`Runtime::begin_thread`] and
/// [`Runtime::end_thread`].
#[derive(Debug)]
pub struct Thread {
    /// 1 for the first thread spawned (main is 0).
    pub tid: u64,
    /// Address of the start routine.
    pub entry: u64,
    /// The argument passed to it.
    pub arg: u64,
    /// Top of its own stack: `STACK_TOP - tid * STACK_SIZE`.
    pub stack_top: u64,
    start_cycles: u64,
}

/// One machine's runtime state.
#[derive(Debug)]
pub struct Runtime {
    /// Next free heap address; blocks are 64-byte granules, never reused.
    pub heap_next: u64,
    held: BTreeSet<u64>,
    /// Cycles of each spawned thread, in spawn order.
    pub thread_cycles: Vec<u64>,
    /// Captured `printf`/`puts` output.
    pub output: String,
}

impl Default for Runtime {
    fn default() -> Runtime {
        Runtime {
            heap_next: HEAP_BASE,
            held: BTreeSet::new(),
            thread_cycles: Vec::new(),
            output: String::new(),
        }
    }
}

impl Runtime {
    /// Runs `ext` on its integer and floating-point arguments, each in
    /// argument order (missing ones read as 0). Returns the value for the
    /// integer return register (`None` leaves it untouched) and the cycles
    /// the machine adds to its count: `n / 8` for `memset`, `n / 4` for
    /// `memcpy`, else 0.
    ///
    /// # Errors
    ///
    /// Traps on `exit`, `abort`, locking a held mutex (a deadlock under
    /// sequential fork–join), a `memset` or `memcpy` longer than
    /// [`MAX_BULK_BYTES`], and on `sqrt` and `pthread_create`, which the
    /// machine runs itself.
    pub fn call(
        &mut self,
        ext: Extern,
        mem: &mut Memory,
        ints: &[u64],
        floats: &[f64],
    ) -> Result<(Option<u64>, u64), Trap> {
        let [a0, a1, a2] = [0, 1, 2].map(|i| nth(ints, i));
        let ret = match ext {
            Extern::Malloc | Extern::Valloc => self.malloc(a0),
            Extern::Calloc => self.malloc(a0.wrapping_mul(a1)),
            Extern::Memset | Extern::Memcpy if a2 > MAX_BULK_BYTES => {
                return Err(Trap(format!(
                    "{}() of {a2} bytes exceeds the {MAX_BULK_BYTES}-byte limit",
                    ext.name()
                )));
            }
            Extern::Memset => {
                mem.fill(a0, a1 as u8, a2 as usize);
                return Ok((Some(a0), a2 / 8));
            }
            Extern::Memcpy => {
                mem.copy(a0, a1, a2 as usize);
                return Ok((Some(a0), a2 / 4));
            }
            Extern::Strlen => mem.read_cstr(a0).len() as u64,
            Extern::Printf => {
                let (mut ints, mut floats) = (ints.iter().skip(1), floats.iter());
                let text = format_c(
                    &mem.read_cstr(a0),
                    || ints.next().copied().unwrap_or(0),
                    || floats.next().copied().unwrap_or(0.0),
                );
                self.output.push_str(&text);
                0
            }
            Extern::Puts => {
                self.output.push_str(&mem.read_cstr(a0));
                self.output.push('\n');
                0
            }
            Extern::PthreadMutexLock => {
                if !self.held.insert(a0) {
                    return Err(Trap(format!(
                        "deadlock: mutex {a0:#x} locked twice under sequential fork-join"
                    )));
                }
                0
            }
            Extern::PthreadMutexUnlock => {
                self.held.remove(&a0);
                0
            }
            Extern::PthreadJoin | Extern::PthreadMutexInit | Extern::PthreadMutexDestroy => 0,
            // _SC_NPROCESSORS_ONLN: the modelled machine has 4 cores.
            Extern::Sysconf => 4,
            Extern::Free | Extern::PthreadExit => return Ok((None, 0)),
            Extern::Exit | Extern::Abort => return Err(Trap(format!("{}() called", ext.name()))),
            Extern::Sqrt | Extern::PthreadCreate => {
                return Err(Trap(format!("{}() is run by the machine", ext.name())));
            }
        };
        Ok((Some(ret), 0))
    }

    fn malloc(&mut self, size: u64) -> u64 {
        let addr = self.heap_next;
        self.heap_next = addr.wrapping_add(size.wrapping_add(63) & !63);
        addr
    }

    /// Begins `pthread_create(tid_ptr, attr, entry, arg)`, given its
    /// integer arguments, at machine cycle count `cycles`: numbers the
    /// thread and stores its id at `tid_ptr`. The machine then runs
    /// `entry(arg)` to completion (sequential fork–join) on `stack_top`
    /// and calls [`Runtime::end_thread`].
    pub fn begin_thread(&mut self, mem: &mut Memory, ints: &[u64], cycles: u64) -> Thread {
        self.thread_cycles.push(0);
        let tid = self.thread_cycles.len() as u64;
        mem.write_u64(nth(ints, 0), tid);
        Thread {
            tid,
            entry: nth(ints, 2),
            arg: nth(ints, 3),
            stack_top: STACK_TOP.wrapping_sub(tid.wrapping_mul(STACK_SIZE)),
            start_cycles: cycles,
        }
    }

    /// Ends thread `t` at machine cycle count `cycles`.
    pub fn end_thread(&mut self, t: Thread, cycles: u64) {
        self.thread_cycles[t.tid as usize - 1] = cycles - t.start_cycles;
    }
}

/// Argument `i`, or 0 if missing.
fn nth(ints: &[u64], i: usize) -> u64 {
    ints.get(i).copied().unwrap_or(0)
}

/// Fork–join critical path of a run of `cycles` in all: the main thread's
/// own cycles plus the slowest child's, as the children run concurrently.
pub fn critical_path(cycles: u64, thread_cycles: &[u64]) -> u64 {
    let children: u64 = thread_cycles.iter().sum();
    let slowest = thread_cycles.iter().copied().max().unwrap_or(0);
    cycles.saturating_sub(children) + slowest
}

/// A small C `printf`: `%d %i %u %x %c %s` take the next integer argument
/// (`%s` prints `<str>`), `%f %g %e` the next floating-point one, and `%%`
/// prints `%`. Flags, width, precision and length are skipped; any other
/// conversion prints its letter.
pub fn format_c(
    fmt: &str,
    mut next_int: impl FnMut() -> u64,
    mut next_float: impl FnMut() -> f64,
) -> String {
    let mut out = String::new();
    let mut it = fmt.chars().peekable();
    while let Some(c) = it.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        while it
            .next_if(|n| n.is_ascii_digit() || matches!(n, '.' | 'l' | 'z' | '-'))
            .is_some()
        {}
        match it.next() {
            Some('d' | 'i') => out.push_str(&(next_int() as i64).to_string()),
            Some('u') => out.push_str(&next_int().to_string()),
            Some('x') => out.push_str(&format!("{:x}", next_int())),
            Some('f' | 'g' | 'e') => out.push_str(&format!("{:.6}", next_float())),
            Some('c') => out.push(next_int() as u8 as char),
            Some('s') => {
                next_int();
                out.push_str("<str>");
            }
            Some(other) => out.push(other),
            None => break,
        }
    }
    out
}
