//! The guest runtime's own oracle. The LIR, x86 and Arm interpreters all
//! call one `Runtime`, so a bug in it would be shared by every leg of the
//! differential test and never show up as a divergence. These tables pin
//! its values by hand instead: heap rounding, thread ids and stacks, the
//! bulk-memory cycle charges, the `printf` formatter, mutexes and the
//! fork–join critical path.

use lasagne_lir::interp::runtime::{
    critical_path, format_c, Extern, Runtime, Trap, MAX_BULK_BYTES,
};
use lasagne_lir::interp::{Memory, HEAP_BASE, STACK_TOP};

/// Calls `ext` with integer arguments only.
fn call(rt: &mut Runtime, mem: &mut Memory, ext: Extern, ints: &[u64]) -> (Option<u64>, u64) {
    rt.call(ext, mem, ints, &[]).expect("runtime call")
}

#[test]
fn heap_blocks_round_up_to_64_bytes() {
    let (mut rt, mut mem) = (Runtime::default(), Memory::new());
    // (extern, arguments, returned address, heap_next afterwards)
    let table: &[(Extern, &[u64], u64, u64)] = &[
        (Extern::Malloc, &[0], 0x7000_0000, 0x7000_0000),
        (Extern::Malloc, &[1], 0x7000_0000, 0x7000_0040),
        (Extern::Malloc, &[64], 0x7000_0040, 0x7000_0080),
        (Extern::Malloc, &[65], 0x7000_0080, 0x7000_0100),
        (Extern::Valloc, &[10], 0x7000_0100, 0x7000_0140),
        (Extern::Calloc, &[3, 20], 0x7000_0140, 0x7000_0180),
        (Extern::Calloc, &[0, 99], 0x7000_0180, 0x7000_0180),
        (Extern::Calloc, &[4, 32], 0x7000_0180, 0x7000_0200),
    ];
    assert_eq!(rt.heap_next, HEAP_BASE);
    for &(ext, args, addr, next) in table {
        let got = call(&mut rt, &mut mem, ext, args);
        assert_eq!(got, (Some(addr), 0), "{ext:?}{args:?}");
        assert_eq!(rt.heap_next, next, "{ext:?}{args:?}");
    }
    // A fresh block is never reused memory, so calloc's reads as zero.
    assert_eq!(mem.read_u64(0x7000_0180), 0);
    assert_eq!(
        call(&mut rt, &mut mem, Extern::Free, &[0x7000_0000]),
        (None, 0)
    );
    assert_eq!(rt.heap_next, 0x7000_0200, "free does not give memory back");
}

#[test]
fn threads_are_numbered_in_spawn_order_on_their_own_stacks() {
    let (mut rt, mut mem) = (Runtime::default(), Memory::new());
    // pthread_create(tid_ptr, attr, entry, arg), begun at cycle count 100.
    let a = rt.begin_thread(&mut mem, &[0x1000, 0, 0x10_0010, 7], 100);
    assert_eq!((a.tid, a.entry, a.arg), (1, 0x10_0010, 7));
    assert_eq!(a.stack_top, 0x5ff0_0000);
    assert_eq!(mem.read_u64(0x1000), 1, "the id is stored at tid_ptr");
    // A thread spawned from inside thread 1 gets the next id and stack.
    let b = rt.begin_thread(&mut mem, &[0x1008, 0, 0x10_0020, 8], 150);
    assert_eq!((b.tid, b.stack_top), (2, 0x5fe0_0000));
    assert_eq!(mem.read_u64(0x1008), 2);
    rt.end_thread(b, 170);
    rt.end_thread(a, 200);
    assert_eq!(
        rt.thread_cycles,
        [100, 20],
        "cycles are kept in spawn order"
    );
    // Missing arguments read as 0.
    let c = rt.begin_thread(&mut mem, &[0x1010], 300);
    assert_eq!((c.tid, c.entry, c.arg), (3, 0, 0));
    assert_eq!(c.stack_top, STACK_TOP - 3 * (1 << 20));
    rt.end_thread(c, 345);
    assert_eq!(rt.thread_cycles, [100, 20, 45]);
}

#[test]
fn memset_and_memcpy_charge_n_over_8_and_n_over_4() {
    let (mut rt, mut mem) = (Runtime::default(), Memory::new());
    // (n, memset charge, memcpy charge)
    let table = [
        (0, 0, 0),
        (3, 0, 0),
        (7, 0, 1),
        (8, 1, 2),
        (100, 12, 25),
        (4096, 512, 1024),
        (5000, 625, 1250),
    ];
    for (n, set, cpy) in table {
        let got = call(&mut rt, &mut mem, Extern::Memset, &[0x2000, 0x1ab, n]);
        assert_eq!(got, (Some(0x2000), set), "memset n={n}");
        let got = call(&mut rt, &mut mem, Extern::Memcpy, &[0x9000, 0x2000, n]);
        assert_eq!(got, (Some(0x9000), cpy), "memcpy n={n}");
    }
    // memset stores the low byte of its value argument.
    let mut buf = [0u8; 5000];
    mem.read_into(0x9000, &mut buf);
    assert!(buf.iter().all(|&b| b == 0xab));
    assert_eq!(mem.read(0x9000 + 5000, 1)[0], 0);
}

#[test]
fn memset_and_memcpy_straddle_pages_like_memmove() {
    let (mut rt, mut mem) = (Runtime::default(), Memory::new());
    // memset over three pages: 16 bytes, a whole page, 16 bytes.
    call(&mut rt, &mut mem, Extern::Memset, &[0x2ff0, 0x5a, 0x1020]);
    let mut buf = vec![0u8; 0x1040];
    mem.read_into(0x2fe0, &mut buf);
    assert!(buf[..0x10].iter().all(|&b| b == 0), "before the range");
    assert!(buf[0x10..0x1030].iter().all(|&b| b == 0x5a));
    assert!(buf[0x1030..].iter().all(|&b| b == 0), "after the range");
    assert_eq!(mem.mapped_pages(), 3);

    // A pattern across a page boundary, then copies that overlap it in
    // both directions, each longer than one page: every byte lands where
    // a copy through a temporary would put it.
    let pattern: Vec<u8> = (0..6000u32).map(|i| (i * 7 % 251) as u8 + 1).collect();
    for (dst, src) in [(0x8100u64, 0x7f00u64), (0x7e00, 0x7f00), (0x7f00, 0x7f00)] {
        mem.write(0x7f00, &pattern);
        let mut want = vec![0u8; 0x3000];
        mem.read_into(0x7000, &mut want);
        let (d, s) = ((dst - 0x7000) as usize, (src - 0x7000) as usize);
        want.copy_within(s..s + 5000, d);
        let got = call(&mut rt, &mut mem, Extern::Memcpy, &[dst, src, 5000]);
        assert_eq!(got, (Some(dst), 1250));
        let mut seen = vec![0u8; 0x3000];
        mem.read_into(0x7000, &mut seen);
        assert!(seen == want, "memcpy({dst:#x}, {src:#x}, 5000)");
    }
}

#[test]
fn memset_and_memcpy_beyond_the_bulk_limit_trap() {
    let (mut rt, mut mem) = (Runtime::default(), Memory::new());
    assert_eq!(MAX_BULK_BYTES, 64 << 20);
    for n in [MAX_BULK_BYTES + 1, u64::MAX] {
        for (ext, args) in [
            (Extern::Memset, [0x1000, 0xff, n]),
            (Extern::Memcpy, [0x1000, 0x9000, n]),
        ] {
            let msg = format!(
                "{}() of {n} bytes exceeds the 67108864-byte limit",
                ext.name()
            );
            assert_eq!(rt.call(ext, &mut mem, &args, &[]), Err(Trap(msg)));
        }
    }
    assert_eq!(mem.mapped_pages(), 0, "a trapping call maps nothing");
}

#[test]
fn strlen_counts_up_to_the_nul() {
    let (mut rt, mut mem) = (Runtime::default(), Memory::new());
    mem.write(0x3000, b"hello\0world\0");
    for (addr, len) in [(0x3000, 5), (0x3006, 5), (0x3005, 0), (0x8000, 0)] {
        let got = call(&mut rt, &mut mem, Extern::Strlen, &[addr]);
        assert_eq!(got, (Some(len), 0), "strlen({addr:#x})");
    }
}

#[test]
fn formatter_table() {
    // (format, integer arguments, floating-point arguments, output)
    let table: &[(&str, &[u64], &[f64], &str)] = &[
        ("n=%d\n", &[7], &[], "n=7\n"),
        ("%d %i", &[u64::MAX, 42], &[], "-1 42"),
        ("%u", &[u64::MAX], &[], "18446744073709551615"),
        ("%x", &[255], &[], "ff"),
        ("%ld|%lu|%5d|%-3d|%zu", &[1, 2, 3, 4, 5], &[], "1|2|3|4|5"),
        ("%c%c", &[72, 0x169], &[], "Hi"),
        ("%s %d", &[0x3000, 7], &[], "<str> 7"),
        (
            "%f %g %e",
            &[],
            &[2.5, 0.1, -1.0],
            "2.500000 0.100000 -1.000000",
        ),
        ("%.2f", &[], &[1.23456], "1.234560"),
        ("%d %f %d %f", &[1, 2], &[0.5, 4.0], "1 0.500000 2 4.000000"),
        ("%d %s %d", &[9], &[], "9 <str> 0"),
        ("%f", &[], &[], "0.000000"),
        ("100%%", &[], &[], "100%"),
        ("%q!", &[], &[], "q!"),
        ("tail %", &[], &[], "tail "),
        ("no conversions", &[1], &[1.0], "no conversions"),
    ];
    for &(fmt, ints, floats, want) in table {
        let (mut i, mut f) = (ints.iter(), floats.iter());
        let got = format_c(
            fmt,
            || i.next().copied().unwrap_or(0),
            || f.next().copied().unwrap_or(0.0),
        );
        assert_eq!(got, want, "format {fmt:?}");
    }
}

#[test]
fn printf_and_puts_append_to_the_output() {
    let (mut rt, mut mem) = (Runtime::default(), Memory::new());
    mem.write(0x3000, b"%s=%d %f\n\0");
    mem.write(0x3100, b"done\0");
    let got = rt.call(Extern::Printf, &mut mem, &[0x3000, 0x3100, 7], &[1.5]);
    assert_eq!(got, Ok((Some(0), 0)));
    let got = call(&mut rt, &mut mem, Extern::Puts, &[0x3100]);
    assert_eq!(got, (Some(0), 0));
    assert_eq!(rt.output, "<str>=7 1.500000\ndone\n");
}

#[test]
fn a_second_lock_of_a_held_mutex_traps() {
    let (mut rt, mut mem) = (Runtime::default(), Memory::new());
    for ext in [
        Extern::PthreadMutexInit,
        Extern::PthreadMutexLock,
        Extern::PthreadMutexUnlock,
        Extern::PthreadMutexLock,
    ] {
        assert_eq!(call(&mut rt, &mut mem, ext, &[0x4000]), (Some(0), 0));
    }
    // A different mutex is independent.
    assert_eq!(
        call(&mut rt, &mut mem, Extern::PthreadMutexLock, &[0x4008]),
        (Some(0), 0)
    );
    assert_eq!(
        rt.call(Extern::PthreadMutexLock, &mut mem, &[0x4000], &[]),
        Err(Trap(
            "deadlock: mutex 0x4000 locked twice under sequential fork-join".into()
        ))
    );
}

#[test]
fn the_remaining_externs_return_fixed_values_or_trap() {
    let (mut rt, mut mem) = (Runtime::default(), Memory::new());
    // (extern, integer return value, or the trap message)
    let table: &[(Extern, Result<Option<u64>, &str>)] = &[
        (Extern::Free, Ok(None)),
        (Extern::PthreadExit, Ok(None)),
        (Extern::PthreadJoin, Ok(Some(0))),
        (Extern::PthreadMutexDestroy, Ok(Some(0))),
        (Extern::Sysconf, Ok(Some(4))),
        (Extern::Exit, Err("exit() called")),
        (Extern::Abort, Err("abort() called")),
        // The machine runs these two itself.
        (Extern::Sqrt, Err("sqrt() is run by the machine")),
        (
            Extern::PthreadCreate,
            Err("pthread_create() is run by the machine"),
        ),
    ];
    for &(ext, want) in table {
        let got = rt.call(ext, &mut mem, &[84, 0], &[2.0]);
        let want = want.map(|v| (v, 0)).map_err(|m| Trap(m.to_string()));
        assert_eq!(got, want, "{ext:?}");
    }
    assert_eq!(rt.heap_next, HEAP_BASE);
    assert!(rt.thread_cycles.is_empty() && rt.output.is_empty());
}

#[test]
fn extern_names_parse_back() {
    assert_eq!(Extern::ALL.len(), 20);
    for &ext in Extern::ALL {
        assert_eq!(Extern::parse(ext.name()), Some(ext));
    }
    for name in ["", "fopen", "Malloc", "malloc ", "pthread_"] {
        assert_eq!(Extern::parse(name), None, "{name:?}");
    }
}

#[test]
fn critical_path_is_main_plus_the_slowest_child() {
    // (whole-run cycles, per-thread cycles, critical path)
    let table: &[(u64, &[u64], u64)] = &[
        (100, &[], 100),
        (100, &[30, 20], 80),
        (1000, &[100, 100, 100, 100], 700),
        (19016, &[885, 885, 885, 885], 16361),
        (10, &[30], 30),
    ];
    for &(cycles, threads, want) in table {
        assert_eq!(critical_path(cycles, threads), want, "{cycles} {threads:?}");
    }
}
