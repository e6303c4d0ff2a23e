//! Golden interpreter statistics: every Phoenix benchmark at a small fixed
//! scale, on the byte-level x86 interpreter, the LIR interpreter (PPOpt)
//! and the Arm core (PPOpt and native). The pinned lines hold the return
//! value, the whole-run statistics and the per-thread cycle buckets, so a
//! change to an interpreter's speed that moves any executed count, cycle
//! or result fails here by benchmark and leg. The PPOpt rows of KM, MM
//! and WC, and SM's Arm row, were re-recorded when the lifter began
//! building registers and flags as SSA values: refine then promotes more
//! parameters to pointers there (same return values).

use lasagne_repro::armgen::machine::ArmMachine;
use lasagne_repro::armgen::{lower_module, AModule};
use lasagne_repro::lir::interp::{Machine, Val};
use lasagne_repro::phoenix::{all_benchmarks, Workload};
use lasagne_repro::translator::{Pipeline, Version};
use lasagne_repro::x86::X86Machine;

/// Small enough to keep the test quick, large enough that every
/// benchmark spawns its worker threads.
const SCALE: usize = 48;

/// `(benchmark, leg, "ret=… <stats> threads=[…]")`.
const GOLDEN: &[(&str, &str, &str)] = &[
    ("HT", "x86", "ret=25524 X86Stats { insts: 9360, loads: 2733, stores: 1275, fences: (0, 0, 0), rmws: 0, cycles: 19016 } threads=[885, 885, 885, 885]"),
    ("HT", "lir-ppopt", "ret=25524 ExecStats { insts: 21894, loads: 2712, stores: 1250, fences: (1496, 20, 1216), rmws: 0, cycles: 105299 } threads=[4161, 4161, 4161, 4161]"),
    ("HT", "arm-ppopt", "ret=25524 ArmStats { insts: 62798, cycles: 259287, dmbs: (1496, 20, 1216), exclusives: 0 } threads=[9066, 9066, 9066, 9066]"),
    ("HT", "arm-native", "ret=25524 ArmStats { insts: 52166, cycles: 185493, dmbs: (0, 0, 0), exclusives: 0 } threads=[6477, 6477, 6477, 6477]"),
    ("KM", "x86", "ret=21111 X86Stats { insts: 19898, loads: 5923, stores: 2782, fences: (0, 0, 0), rmws: 0, cycles: 45944 } threads=[3429, 3429, 3429, 3429, 3419, 3419, 3414, 3424, 3419, 3419, 3414, 3424]"),
    ("KM", "lir-ppopt", "ret=21111 ExecStats { insts: 35033, loads: 4409, stores: 1972, fences: (4764, 815, 347), rmws: 0, cycles: 154376 } threads=[11368, 11368, 11368, 11368, 11328, 11328, 11308, 11348, 11328, 11328, 11308, 11348]"),
    ("KM", "arm-ppopt", "ret=21111 ArmStats { insts: 98378, cycles: 417586, dmbs: (4764, 815, 347), exclusives: 0 } threads=[30915, 30915, 30915, 30915, 30845, 30845, 30810, 30880, 30845, 30845, 30810, 30880]"),
    ("KM", "arm-native", "ret=21111 ArmStats { insts: 73434, cycles: 265913, dmbs: (0, 0, 0), exclusives: 0 } threads=[18992, 18992, 18992, 18992, 18992, 18992, 18992, 18992, 18992, 18992, 18992, 18992]"),
    ("LR", "x86", "ret=100196 X86Stats { insts: 1105, loads: 159, stores: 67, fences: (0, 0, 0), rmws: 0, cycles: 1797 } threads=[347, 347, 347, 347]"),
    ("LR", "lir-ppopt", "ret=100196 ExecStats { insts: 1650, loads: 132, stores: 55, fences: (132, 32, 0), rmws: 0, cycles: 4724 } threads=[894, 894, 894, 894]"),
    ("LR", "arm-ppopt", "ret=100196 ArmStats { insts: 5019, cycles: 20678, dmbs: (132, 32, 0), exclusives: 0 } threads=[4197, 4197, 4197, 4197]"),
    ("LR", "arm-native", "ret=100196 ArmStats { insts: 5167, cycles: 19744, dmbs: (0, 0, 0), exclusives: 0 } threads=[4073, 4073, 4073, 4073]"),
    ("MM", "x86", "ret=12299 X86Stats { insts: 7797, loads: 1471, stores: 199, fences: (0, 0, 0), rmws: 0, cycles: 12807 } threads=[2990, 2990, 2990, 2990]"),
    ("MM", "lir-ppopt", "ret=12299 ExecStats { insts: 12648, loads: 1372, stores: 122, fences: (1308, 28, 64), rmws: 0, cycles: 39897 } threads=[9290, 9290, 9290, 9290]"),
    ("MM", "arm-ppopt", "ret=12299 ArmStats { insts: 38387, cycles: 160222, dmbs: (1308, 28, 64), exclusives: 0 } threads=[37177, 37177, 37177, 37177]"),
    ("MM", "arm-native", "ret=12299 ArmStats { insts: 31368, cycles: 120812, dmbs: (0, 0, 0), exclusives: 0 } threads=[28041, 28041, 28041, 28041]"),
    ("PCA", "x86", "ret=4647468300 X86Stats { insts: 9445, loads: 2651, stores: 309, fences: (0, 0, 0), rmws: 0, cycles: 18105 } threads=[4082, 4082, 4082, 4082]"),
    ("PCA", "lir-ppopt", "ret=4647468300 ExecStats { insts: 19572, loads: 2268, stores: 210, fences: (2460, 104, 80), rmws: 0, cycles: 68903 } threads=[15100, 15100, 15100, 15100]"),
    ("PCA", "arm-ppopt", "ret=4647468300 ArmStats { insts: 57857, cycles: 243380, dmbs: (2460, 104, 80), exclusives: 0 } threads=[55141, 55141, 55141, 55141]"),
    ("PCA", "arm-native", "ret=4647468300 ArmStats { insts: 52085, cycles: 198060, dmbs: (0, 0, 0), exclusives: 0 } threads=[45362, 45362, 45362, 45362]"),
    ("SM", "x86", "ret=4 X86Stats { insts: 8758, loads: 1991, stores: 1227, fences: (0, 0, 0), rmws: 0, cycles: 18412 } threads=[4515, 4525, 4517, 4513]"),
    ("SM", "lir-ppopt", "ret=4 ExecStats { insts: 10038, loads: 796, stores: 634, fences: (796, 24, 0), rmws: 0, cycles: 28407 } threads=[6874, 6874, 6875, 6873]"),
    ("SM", "arm-ppopt", "ret=4 ArmStats { insts: 33308, cycles: 118877, dmbs: (796, 24, 0), exclusives: 0 } threads=[28970, 29030, 28993, 28947]"),
    ("SM", "arm-native", "ret=4 ArmStats { insts: 15665, cycles: 55070, dmbs: (0, 0, 0), exclusives: 0 } threads=[13188, 13188, 13188, 13188]"),
    ("WC", "x86", "ret=9192534839428 X86Stats { insts: 39745, loads: 10340, stores: 4466, fences: (0, 0, 0), rmws: 0, cycles: 76419 } threads=[4422, 4422, 4422, 4422]"),
    ("WC", "lir-ppopt", "ret=9192534839428 ExecStats { insts: 84061, loads: 10200, stores: 4342, fences: (5912, 20, 4288), rmws: 0, cycles: 389391 } threads=[10225, 10225, 10225, 10225]"),
    ("WC", "arm-ppopt", "ret=9192534839428 ArmStats { insts: 245598, cycles: 1001934, dmbs: (5912, 20, 4288), exclusives: 0 } threads=[41900, 41900, 41900, 41900]"),
    ("WC", "arm-native", "ret=9192534839428 ArmStats { insts: 240105, cycles: 852104, dmbs: (0, 0, 0), exclusives: 0 } threads=[61914, 61914, 61914, 61914]"),
];

fn arm_line(arm: &AModule, w: &Workload) -> String {
    let idx = arm.func_by_name("main").expect("main");
    let mut m = ArmMachine::new(arm);
    for (addr, bytes) in &w.mem_init {
        m.mem.write(*addr, bytes);
    }
    let r = m.run(idx, &w.args, &[]).expect("arm run");
    format!("ret={} {:?} threads={:?}", r.ret, r.stats, r.thread_cycles)
}

fn actual() -> Vec<(&'static str, &'static str, String)> {
    let mut out = Vec::new();
    for b in all_benchmarks(SCALE) {
        let w = &b.workload;

        let mut x86 = X86Machine::new(&b.binary);
        for (addr, bytes) in &w.mem_init {
            x86.mem.write(*addr, bytes);
        }
        let r = x86.run("main", &w.args, &[]).expect("x86 run");
        let line = format!("ret={} {:?} threads={:?}", r.ret, r.stats, r.thread_cycles);
        out.push((b.abbrev, "x86", line));

        let (t, _) = Pipeline::new(Version::PPOpt)
            .run(&b.binary)
            .expect("PPOpt translation");
        let id = t.module.func_by_name("main").expect("main");
        let mut lir = Machine::new(&t.module);
        for (addr, bytes) in &w.mem_init {
            lir.mem.write(*addr, bytes);
        }
        let args: Vec<Val> = w.args.iter().map(|a| Val::B64(*a)).collect();
        let r = lir.run(id, &args).expect("LIR run");
        let ret = r.ret.map(Val::bits).unwrap_or(0);
        let line = format!("ret={ret} {:?} threads={:?}", r.stats, r.thread_cycles);
        out.push((b.abbrev, "lir-ppopt", line));

        out.push((b.abbrev, "arm-ppopt", arm_line(&t.arm, w)));
        out.push((
            b.abbrev,
            "arm-native",
            arm_line(&lower_module(&b.native), w),
        ));
    }
    out
}

#[test]
fn interpreter_statistics_match_the_pinned_values() {
    let got = actual();
    let table: String = got
        .iter()
        .map(|(b, leg, line)| format!("    ({b:?}, {leg:?}, {line:?}),\n"))
        .collect();
    let want: Vec<_> = GOLDEN
        .iter()
        .map(|(b, leg, line)| (*b, *leg, (*line).to_string()))
        .collect();
    assert!(
        got == want,
        "interpreter statistics moved; actual table:\n{table}"
    );
}
