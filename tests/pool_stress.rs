//! Stress tests for the persistent work-stealing pool under nesting and
//! panics.
//!
//! The pool is shared process-wide: the pipeline's fused sections, the
//! memory-model litmus sweeps, and any `Pool::par_map` caller all submit to the
//! same worker set. The two hazards of that design are (a) deadlock —
//! a worker that blocks on a nested fan-out while every sibling does the
//! same would starve the queue — and (b) lost panics — a work item that
//! panics on a worker thread must resurface on the submitting caller, not
//! hang the join or kill the pool. Both are exercised here against the
//! real shared pool (not a private test pool), so the tests also prove
//! the pool survives for later translations in the same process.

use lasagne_pool::Pool;
use lasagne_repro::armgen::print::print_module;
use lasagne_repro::memmodel;
use lasagne_repro::phoenix::all_benchmarks;
use lasagne_repro::translator::{Pipeline, Version};

/// Nested fan-out on the shared pool must not deadlock: an outer
/// `par_map` whose work items each run a full litmus sweep — itself
/// several layers of `par_map` (suite → per-model outcome enumeration →
/// per-partition) — on the same workers. Help-while-waiting makes this
/// safe: a runner blocked on its nested join executes queued tasks
/// instead of parking.
#[test]
fn nested_litmus_sweep_inside_par_map_does_not_deadlock() {
    let pool = Pool::shared();
    pool.ensure_workers(4);
    let serial = memmodel::sweep_suite(pool, 1);
    let nested = pool.par_map(4, vec![4usize, 2, 4], |_, jobs| {
        memmodel::sweep_suite(pool, jobs)
    });
    for rows in &nested {
        assert_eq!(rows, &serial, "nested sweep diverged from serial");
    }
}

/// A litmus sweep nested inside a *pipeline stage* work item: translation
/// fan-outs and memory-model fan-outs interleave on one worker set. The
/// translation must still be byte-identical to serial.
#[test]
fn litmus_sweep_nested_inside_a_pipeline_translation_is_safe() {
    let b = &all_benchmarks(24)[0];
    let (serial, _) = Pipeline::new(Version::PPOpt).run(&b.binary).unwrap();
    let out = Pool::shared().par_map(4, vec![(); 2], |i, ()| {
        if i == 0 {
            let rows = memmodel::sweep_suite(Pool::shared(), 4);
            assert!(rows.iter().all(|r| r.chain.is_ok()));
        }
        let (t, _) = Pipeline::new(Version::PPOpt)
            .with_jobs(4)
            .run(&b.binary)
            .unwrap();
        print_module(&t.arm)
    });
    for asm in &out {
        assert_eq!(asm, &print_module(&serial.arm));
    }
}

/// A panicking work item must surface as a panic on the caller — not a
/// hang, and not a poisoned pool. The follow-up translation proves the
/// shared pool still works afterwards.
#[test]
fn work_item_panic_surfaces_and_pool_survives() {
    Pool::shared().ensure_workers(4);
    let caught = std::panic::catch_unwind(|| {
        Pool::shared().par_map(4, (0..16).collect::<Vec<u32>>(), |_, i| {
            if i == 7 {
                panic!("injected work-item failure");
            }
            i * 2
        })
    });
    let err = caught.expect_err("panic must propagate out of par_map");
    let msg = err
        .downcast_ref::<&str>()
        .copied()
        .map(str::to_string)
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(
        msg.contains("injected work-item failure"),
        "wrong panic payload: {msg:?}"
    );

    let b = &all_benchmarks(24)[0];
    let (serial, _) = Pipeline::new(Version::PPOpt).run(&b.binary).unwrap();
    let (parallel, _) = Pipeline::new(Version::PPOpt)
        .with_jobs(4)
        .run(&b.binary)
        .unwrap();
    assert_eq!(
        print_module(&serial.arm),
        print_module(&parallel.arm),
        "pool produced divergent output after a work-item panic"
    );
}

/// The `steals` counter must mean what it says: cross-thread deque
/// raids, and nothing else. A flat schedule — every fan-out submitted by
/// the external caller — routes all tasks through the injector, so no
/// worker deque is ever loaded and zero steals is the honest reading
/// (this is why BENCH_pipeline.json rows legitimately show `steals: 0`).
/// A *nested* fan-out, by contrast, pushes its tasks onto the submitting
/// worker's own deque; a sibling that goes dry must raid it, and that
/// raid has to show up in the counter. A private pool keeps the deltas
/// isolated from concurrently running tests on the shared pool.
#[test]
fn nested_fan_out_provokes_a_cross_thread_steal() {
    let pool = Pool::new(2);

    let before = pool.stats();
    let flat = pool.par_map(2, (0..8).collect::<Vec<u32>>(), |_, i| i * 2);
    assert_eq!(flat, (0..8).map(|i| i * 2).collect::<Vec<u32>>());
    assert_eq!(
        pool.stats().since(&before).steals,
        0,
        "flat external fan-out routed through the injector must not steal"
    );

    // Item 0 lands on a worker and its nested fan-out loads that worker's
    // own deque with slow tasks; item 1 is free, so its worker goes dry
    // while the deque is still full and must steal. Scheduling can
    // occasionally let the owner drain everything first, so retry.
    let mut stole = false;
    for _ in 0..32 {
        let before = pool.stats();
        let out = pool.par_map(2, vec![0u32, 1], |_, outer| {
            if outer == 0 {
                pool.par_map(2, (0..8).collect::<Vec<u32>>(), |_, i| {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    i + 1
                })
                .into_iter()
                .sum()
            } else {
                outer
            }
        });
        assert_eq!(out, vec![36, 1]);
        if pool.stats().since(&before).steals > 0 {
            stole = true;
            break;
        }
    }
    assert!(
        stole,
        "nested fan-out never produced a cross-thread steal in 32 attempts"
    );
    pool.shutdown();
}

/// A panic inside a *pipeline* work item must come out of `Pipeline::run`
/// as a panic (the driver re-raises the first worker panic at the join),
/// not a deadlock. Uses a binary whose lift succeeds but injects the
/// panic through a par_map running on the same pool as the pipeline.
#[test]
fn nested_panic_under_load_still_propagates() {
    Pool::shared().ensure_workers(4);
    let caught = std::panic::catch_unwind(|| {
        Pool::shared().par_map(4, (0..4).collect::<Vec<u32>>(), |_, outer| {
            // Inner fan-out: one branch panics while siblings grind real
            // enumeration work, so the panic has to cross a nested join.
            Pool::shared().par_map(2, vec![outer, outer + 10], |_, inner| {
                if inner == 12 {
                    panic!("nested failure");
                }
                memmodel::sweep_suite(Pool::shared(), 1).len()
            })
        })
    });
    assert!(caught.is_err(), "nested panic was swallowed");
}
