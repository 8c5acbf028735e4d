//! Raw typed event capture: a deterministic bounded ring buffer.

use std::collections::VecDeque;

use wmm_sim::isa::Instr;
use wmm_sim::mem::AccessOutcome;
use wmm_sim::{FenceKind, Probe};

/// One structured execution event, as emitted through the simulator's
/// [`Probe`] seam. Values are exactly what the executor computed — the
/// event stream is a faithful transcript of a run, in the machine's
/// deterministic interleave order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// An instruction at site `(thread, index)` began executing.
    Begin {
        /// Thread (core) index.
        thread: u32,
        /// Instruction index within the thread's stream.
        index: u32,
    },
    /// A fence retired after stalling `cycles` (0 for compiler barriers).
    FenceRetired {
        /// The fence kind.
        kind: FenceKind,
        /// Stall cycles paid.
        cycles: f64,
    },
    /// The store buffer was at capacity and stalled the core.
    SbStall {
        /// Stall cycles paid.
        cycles: f64,
    },
    /// A memory access resolved, exposing `cycles` on the critical path.
    Access {
        /// Where in the hierarchy the access was served.
        outcome: AccessOutcome,
        /// Exposed (post-overlap) cycles.
        cycles: f64,
    },
    /// The instruction at `(thread, index)` retired.
    Retire {
        /// Thread (core) index.
        thread: u32,
        /// Instruction index within the thread's stream.
        index: u32,
        /// Cycles the instruction advanced the core's clock by.
        cycles: f64,
        /// The core's clock after retirement.
        now: f64,
    },
}

/// A bounded, deterministic ring of [`Event`]s.
///
/// **Overflow contract.** The ring retains exactly the `capacity` *newest*
/// events: when a push finds the ring full, the single oldest event is
/// evicted and counted in [`EventBuffer::dropped`] — overflow is reported,
/// never silent. Equivalently, after `n` pushes the buffer holds the last
/// `min(n, capacity)` events in arrival order and
/// `dropped() == n - len()` (see [`EventBuffer::total_seen`]). Because the
/// event stream itself is deterministic, the retained window and the drop
/// count are bit-identical across repeated runs. Implements [`Probe`], so
/// it can be passed straight to `Machine::run_in`.
#[derive(Debug)]
pub struct EventBuffer {
    capacity: usize,
    events: VecDeque<Event>,
    dropped: u64,
}

impl EventBuffer {
    /// A ring holding at most `capacity` events (clamped up to 1: a
    /// zero-capacity ring would drop everything silently, which the
    /// overflow contract forbids).
    pub fn new(capacity: usize) -> Self {
        EventBuffer {
            capacity: capacity.max(1),
            events: VecDeque::with_capacity(capacity.clamp(1, 4096)),
            dropped: 0,
        }
    }

    /// The configured capacity (post-clamp).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Every event ever pushed: retained plus dropped. The conservation
    /// invariant `total_seen() == len() + dropped()` holds at all times.
    pub fn total_seen(&self) -> u64 {
        self.events.len() as u64 + self.dropped
    }

    /// Empty the ring and reset the drop count, keeping the capacity.
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }

    fn push(&mut self, event: Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

impl Probe for EventBuffer {
    fn begin(&mut self, thread: usize, index: usize, _instr: &Instr) {
        self.push(Event::Begin {
            thread: thread as u32,
            index: index as u32,
        });
    }

    fn fence_retired(&mut self, kind: FenceKind, cycles: f64) {
        self.push(Event::FenceRetired { kind, cycles });
    }

    fn sb_stall(&mut self, cycles: f64) {
        self.push(Event::SbStall { cycles });
    }

    fn access(&mut self, outcome: AccessOutcome, cycles: f64) {
        self.push(Event::Access { outcome, cycles });
    }

    fn retire(&mut self, thread: usize, index: usize, cycles: f64, now: f64) {
        self.push(Event::Retire {
            thread: thread as u32,
            index: index as u32,
            cycles,
            now,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_sim::arch::armv8_xgene1;
    use wmm_sim::isa::{AccessOrd, Loc};
    use wmm_sim::{Machine, MachineScratch, Program, WorkloadCtx};

    fn program() -> Program {
        let thread = vec![
            Instr::Store {
                loc: Loc::SharedRw(1),
                ord: AccessOrd::Plain,
            },
            Instr::Fence(FenceKind::DmbIsh),
            Instr::Load {
                loc: Loc::SharedRw(2),
                ord: AccessOrd::Plain,
            },
        ];
        Program::new(vec![thread.clone(), thread])
    }

    #[test]
    fn buffer_captures_a_faithful_transcript() {
        let machine = Machine::new(armv8_xgene1());
        let mut buf = EventBuffer::new(1 << 16);
        machine.run_in(
            &program(),
            &WorkloadCtx::default(),
            7,
            &mut buf,
            &mut MachineScratch::new(),
        );
        assert_eq!(buf.dropped(), 0);
        let begins = buf
            .events()
            .filter(|e| matches!(e, Event::Begin { .. }))
            .count();
        let retires = buf
            .events()
            .filter(|e| matches!(e, Event::Retire { .. }))
            .count();
        // 3 instructions on each of 2 threads.
        assert_eq!(begins, 6);
        assert_eq!(retires, 6);
        assert_eq!(
            buf.events()
                .filter(|e| matches!(e, Event::FenceRetired { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn event_stream_is_deterministic() {
        let machine = Machine::new(armv8_xgene1());
        let capture = || {
            let mut buf = EventBuffer::new(1 << 16);
            machine.run_in(
                &program(),
                &WorkloadCtx::default(),
                42,
                &mut buf,
                &mut MachineScratch::new(),
            );
            buf.events().copied().collect::<Vec<_>>()
        };
        assert_eq!(capture(), capture());
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut buf = EventBuffer::new(2);
        for cycles in [1.0, 2.0, 3.0] {
            buf.sb_stall(cycles);
        }
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.dropped(), 1);
        let kept: Vec<Event> = buf.events().copied().collect();
        assert_eq!(
            kept,
            vec![
                Event::SbStall { cycles: 2.0 },
                Event::SbStall { cycles: 3.0 }
            ]
        );
    }

    #[test]
    fn overflow_conserves_events_and_retains_the_newest_window() {
        // Push far past capacity: the ring must hold exactly the last
        // `capacity` events in arrival order, and every evicted event must
        // be accounted for in `dropped` — the conservation invariant.
        let mut buf = EventBuffer::new(8);
        assert_eq!(buf.capacity(), 8);
        for i in 0..100 {
            buf.sb_stall(i as f64);
        }
        assert_eq!(buf.len(), 8);
        assert_eq!(buf.dropped(), 92);
        assert_eq!(buf.total_seen(), 100);
        let kept: Vec<f64> = buf
            .events()
            .map(|e| match e {
                Event::SbStall { cycles } => *cycles,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(kept, (92..100).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn zero_capacity_clamps_instead_of_dropping_silently() {
        let mut buf = EventBuffer::new(0);
        assert_eq!(buf.capacity(), 1);
        buf.sb_stall(1.0);
        buf.sb_stall(2.0);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.dropped(), 1);
        assert_eq!(
            buf.events().copied().collect::<Vec<_>>(),
            vec![Event::SbStall { cycles: 2.0 }]
        );
    }

    #[test]
    fn undersized_ring_reports_run_overflow_deterministically() {
        // A real probed run into a too-small ring: the drop count and the
        // retained suffix are part of the deterministic transcript, and the
        // conservation invariant ties them to the full event count.
        let machine = Machine::new(armv8_xgene1());
        let mut full = EventBuffer::new(1 << 16);
        machine.run_in(
            &program(),
            &WorkloadCtx::default(),
            7,
            &mut full,
            &mut MachineScratch::new(),
        );
        assert_eq!(full.dropped(), 0);
        let total = full.len() as u64;
        assert!(total > 4, "program must emit more events than the ring");

        let mut small = EventBuffer::new(4);
        machine.run_in(
            &program(),
            &WorkloadCtx::default(),
            7,
            &mut small,
            &mut MachineScratch::new(),
        );
        assert_eq!(small.len(), 4);
        assert_eq!(small.dropped(), total - 4);
        assert_eq!(small.total_seen(), total);
        // The retained window is exactly the transcript's suffix.
        let tail: Vec<Event> = full.events().copied().skip(full.len() - 4).collect();
        assert_eq!(small.events().copied().collect::<Vec<_>>(), tail);
        // clear() resets contents and the drop count, not the capacity.
        small.clear();
        assert!(small.is_empty());
        assert_eq!((small.dropped(), small.capacity()), (0, 4));
    }
}
