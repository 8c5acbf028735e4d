//! Golden-trace pins for the scheduler: the heap-ordered run loop must
//! replay the exact instruction interleaving the original `min_by` scan
//! produced. The expected `(thread, index)` sequences below were captured
//! from the pre-heap scheduler on pinned litmus shapes; any tie-break or
//! ordering drift in the scheduler rewrite shows up as a trace mismatch
//! long before it would surface as a baseline diff.

use wmm_sim::arch::{armv8_xgene1, power7};
use wmm_sim::isa::{AccessOrd, FenceKind, Instr, Loc};
use wmm_sim::{Machine, MachineScratch, Probe, Program, WorkloadCtx};

/// Records the global begin-order of every instruction as `(thread, index)`.
struct TraceProbe {
    events: Vec<(usize, usize)>,
}

impl Probe for TraceProbe {
    fn begin(&mut self, thread: usize, index: usize, _instr: &Instr) {
        self.events.push((thread, index));
    }
}

fn store(line: u64) -> Instr {
    Instr::Store {
        loc: Loc::SharedRw(line),
        ord: AccessOrd::Plain,
    }
}

fn load(line: u64) -> Instr {
    Instr::Load {
        loc: Loc::SharedRw(line),
        ord: AccessOrd::Plain,
    }
}

fn trace_of(machine: &Machine, program: &Program, seed: u64) -> Vec<(usize, usize)> {
    let mut probe = TraceProbe { events: vec![] };
    machine.run_in(
        program,
        &WorkloadCtx::default(),
        seed,
        &mut probe,
        &mut MachineScratch::new(),
    );
    assert_eq!(
        probe.events.len(),
        program.len(),
        "every instruction begins"
    );
    probe.events
}

fn sb_program(fence: FenceKind) -> Program {
    Program::new(vec![
        vec![store(1), Instr::Fence(fence), load(2)],
        vec![store(2), Instr::Fence(fence), load(1)],
    ])
}

fn mp_program() -> Program {
    Program::new(vec![
        vec![store(10), Instr::Fence(FenceKind::DmbIshSt), store(11)],
        vec![
            load(11),
            Instr::Fence(FenceKind::DmbIshLd),
            load(10),
            Instr::Compute { cycles: 5 },
        ],
    ])
}

fn iriw_program() -> Program {
    Program::new(vec![
        vec![store(1)],
        vec![store(2)],
        vec![load(1), Instr::Fence(FenceKind::DmbIsh), load(2)],
        vec![load(2), Instr::Fence(FenceKind::DmbIsh), load(1)],
    ])
}

/// Paced ping-pong over one shared line: keeps all four cores concurrently
/// live for dozens of events, so the scheduler's pick order is consulted at
/// nearly every step.
fn contended_program() -> Program {
    let paced = |tid: u64| -> Vec<Instr> {
        (0..8)
            .flat_map(|i| {
                vec![
                    Instr::Compute { cycles: 30 },
                    if (i + tid).is_multiple_of(2) {
                        store(7)
                    } else {
                        load(7)
                    },
                ]
            })
            .collect()
    };
    Program::new(vec![paced(0), paced(1), paced(2), paced(3)])
}

const SB_ARM: &[(usize, usize)] = &[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)];

const MP_ARM: &[(usize, usize)] = &[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (1, 3)];

const IRIW_ARM: &[(usize, usize)] = &[
    (0, 0),
    (1, 0),
    (2, 0),
    (3, 0),
    (2, 1),
    (2, 2),
    (3, 1),
    (3, 2),
];

const SB_POWER: &[(usize, usize)] = &[(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (1, 2)];

#[rustfmt::skip]
const CONTENDED_ARM: &[(usize, usize)] = &[
    (0, 0), (1, 0), (0, 1), (0, 2), (2, 0), (1, 1), (0, 3), (0, 4), (3, 0), (2, 1),
    (2, 2), (0, 5), (0, 6), (3, 1), (2, 3), (1, 2), (0, 7), (0, 8), (2, 4), (1, 3),
    (1, 4), (3, 2), (0, 9), (0, 10), (2, 5), (2, 6), (1, 5), (3, 3), (3, 4), (0, 11),
    (2, 7), (2, 8), (3, 5), (3, 6), (1, 6), (0, 12), (2, 9), (2, 10), (3, 7), (3, 8),
    (1, 7), (1, 8), (0, 13), (0, 14), (2, 11), (3, 9), (1, 9), (0, 15), (3, 10),
    (1, 10), (2, 12), (3, 11), (3, 12), (1, 11), (1, 12), (2, 13), (2, 14), (3, 13),
    (1, 13), (2, 15), (1, 14), (3, 14), (1, 15), (3, 15),
];

#[test]
fn sb_trace_matches_pre_heap_scheduler() {
    let arm = Machine::new(armv8_xgene1());
    assert_eq!(trace_of(&arm, &sb_program(FenceKind::DmbIsh), 7), SB_ARM);
}

#[test]
fn mp_trace_matches_pre_heap_scheduler() {
    let arm = Machine::new(armv8_xgene1());
    assert_eq!(trace_of(&arm, &mp_program(), 7), MP_ARM);
}

#[test]
fn iriw_trace_matches_pre_heap_scheduler() {
    let arm = Machine::new(armv8_xgene1());
    assert_eq!(trace_of(&arm, &iriw_program(), 7), IRIW_ARM);
}

#[test]
fn sb_power_trace_matches_pre_heap_scheduler() {
    let pow = Machine::new(power7());
    assert_eq!(trace_of(&pow, &sb_program(FenceKind::HwSync), 7), SB_POWER);
}

#[test]
fn contended_trace_matches_pre_heap_scheduler() {
    // 64 events across 4 concurrently-live cores: the scheduler's pick
    // order is consulted at nearly every step, so any heap/tie-break drift
    // breaks this long before it would shift an aggregate baseline.
    let arm = Machine::new(armv8_xgene1());
    assert_eq!(trace_of(&arm, &contended_program(), 7), CONTENDED_ARM);
}

#[test]
fn traces_are_seed_stable() {
    // Different seed, same shape: trace may differ between seeds, but each
    // seed must replay identically run-to-run.
    let arm = Machine::new(armv8_xgene1());
    let a = trace_of(&arm, &contended_program(), 1234);
    let b = trace_of(&arm, &contended_program(), 1234);
    assert_eq!(a, b);
}
