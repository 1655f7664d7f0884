//! Randomized invariant tests of the LSF link scheduler — chiefly
//! Theorem I of the paper: with a frame-sized buffer and
//! Condition (1), virtual credits never go negative, no matter how
//! adversarial the scheduling/return interleaving is.
//!
//! Cases are drawn from the workspace's deterministic RNG so the
//! suite needs no external crates and failures replay exactly.

use loft::lsf::{LinkScheduler, LsfParams, PendingQuantum};
use noc_sim::flit::FlowId;
use noc_sim::rng::Xoshiro256;

#[derive(Debug, Clone, Copy)]
enum Action {
    /// Schedule a quantum for flow `i % flows`.
    Schedule(u8),
    /// Return the credit of the oldest outstanding arrival, `extra`
    /// slots after its arrival.
    ReturnOldest { extra: u8 },
    /// Advance the current slot.
    Advance,
    /// Forward the earliest pending quantum (speculative completion).
    CompleteFirst,
    /// Local reset, if permitted.
    TryReset,
}

fn random_action(rng: &mut Xoshiro256) -> Action {
    match rng.next_below(5) {
        0 => Action::Schedule(rng.next_below(8) as u8),
        1 => Action::ReturnOldest {
            extra: rng.next_below(12) as u8,
        },
        2 => Action::Advance,
        3 => Action::CompleteFirst,
        _ => Action::TryReset,
    }
}

/// Theorem I under arbitrary interleavings, plus structural
/// invariants: booked slots are unique and inside the window.
#[test]
fn theorem1_and_structural_invariants() {
    let mut rng = Xoshiro256::seed_from(0x15F_0001);
    for _case in 0..64 {
        let params = LsfParams {
            frame_quanta: 8,
            frame_window: 3,
            flits_per_quantum: 1,
            buffer_quanta: 8,
            sink: false,
        };
        // Keep the allocation feasible: ΣR ≤ F.
        let mut reservations: Vec<u32> = Vec::new();
        let flows = 1 + rng.next_below(5) as usize;
        let mut total = 0;
        for _ in 0..flows {
            let r = 1 + rng.next_below(5) as u32;
            if total + r > params.frame_quanta {
                break;
            }
            total += r;
            reservations.push(r);
        }
        if reservations.is_empty() {
            reservations.push(1);
        }
        let steps = 1 + rng.next_below(399) as usize;
        let mut s = LinkScheduler::new(params, &reservations);
        let mut outstanding: Vec<u64> = Vec::new();
        let mut qid = 0u64;
        for _ in 0..steps {
            match random_action(&mut rng) {
                Action::Schedule(i) => {
                    let flow = FlowId::new(i as u32 % reservations.len() as u32);
                    if let Some(slot) = s.schedule(
                        flow,
                        s.current_slot() + 1,
                        PendingQuantum {
                            flow,
                            qid,
                            in_port: 0,
                            res_idx: 0,
                        },
                    ) {
                        qid += 1;
                        assert!(slot > s.current_slot());
                        assert!(slot < s.current_slot() + params.window_quanta());
                        outstanding.push(slot);
                    }
                }
                Action::ReturnOldest { extra } => {
                    if !outstanding.is_empty() {
                        let arr = outstanding.remove(0);
                        s.return_credit(arr + 1 + extra as u64);
                    }
                }
                Action::Advance => s.advance_slot(),
                Action::CompleteFirst => {
                    if let Some((slot, _)) = s.first_pending() {
                        s.complete(slot);
                    }
                }
                Action::TryReset => {
                    if s.can_reset() && !s.is_fresh() {
                        // A reset wipes the outstanding bookkeeping;
                        // pending is empty so nothing is lost.
                        s.local_reset();
                        outstanding.clear();
                    }
                }
            }
            assert!(s.min_credit() >= 0, "Theorem I violated");
        }
    }
}

/// Per-frame quota: a single flow can never book more quanta in
/// one frame than its reservation allows (without resets).
#[test]
fn quota_respected_per_frame() {
    let mut rng = Xoshiro256::seed_from(0x15F_0002);
    for _case in 0..64 {
        let r = 1 + rng.next_below(7) as u32;
        let requests = 1 + rng.next_below(63) as usize;
        let params = LsfParams {
            frame_quanta: 8,
            frame_window: 2,
            flits_per_quantum: 1,
            buffer_quanta: 8,
            sink: false,
        };
        let mut s = LinkScheduler::new(params, &[r]);
        let flow = FlowId::new(0);
        let mut per_frame = std::collections::HashMap::new();
        for qid in 0..requests as u64 {
            if let Some(slot) = s.schedule(
                flow,
                0,
                PendingQuantum {
                    flow,
                    qid,
                    in_port: 0,
                    res_idx: 0,
                },
            ) {
                *per_frame.entry(slot / 8).or_insert(0u32) += 1;
            }
        }
        for (&frame, &count) in &per_frame {
            assert!(count <= r, "frame {frame} got {count} quanta with R={r}");
        }
    }
}

/// The sink variant (ejection link) serializes at one quantum per
/// slot but never rejects for credits.
#[test]
fn sink_books_every_window_slot() {
    let mut rng = Xoshiro256::seed_from(0x15F_0003);
    for _case in 0..64 {
        let r = 8 + rng.next_below(56) as u32;
        let params = LsfParams {
            frame_quanta: 8,
            frame_window: 2,
            flits_per_quantum: 1,
            buffer_quanta: 8,
            sink: true,
        };
        let mut s = LinkScheduler::new(params, &[r]);
        let flow = FlowId::new(0);
        let mut slots = std::collections::HashSet::new();
        for qid in 0..64u64 {
            if let Some(slot) = s.schedule(
                flow,
                0,
                PendingQuantum {
                    flow,
                    qid,
                    in_port: 0,
                    res_idx: 0,
                },
            ) {
                assert!(slots.insert(slot), "slot {slot} double-booked");
            }
        }
        // It can never book more than the window minus the current
        // slot, and with r ≥ 8 it books at least one frame's worth.
        assert!(slots.len() >= (r.min(8) as usize));
    }
}

/// `advance_to(cp + k)` must leave exactly the state of `k`
/// `advance_slot` calls — busy ring, credit deltas, `skipped`
/// counters, flow entries, dirty mark and all — from any reachable
/// state. The random walks include fresh (just reset) schedulers that
/// hold returned credits or `skipped` yields, which are not yet quiet.
#[test]
fn advance_to_matches_stepped_advance() {
    let mut rng = Xoshiro256::seed_from(0x15F_0004);
    let mut fresh_with_state = 0;
    for case in 0..32 {
        let params = LsfParams {
            frame_quanta: [4, 8][rng.next_below(2) as usize],
            frame_window: 2 + rng.next_below(3) as u32,
            flits_per_quantum: 1 + rng.next_below(2) as u32,
            buffer_quanta: 8,
            sink: rng.next_below(4) == 0,
        };
        let (f, w) = (params.frame_quanta as u64, params.window_quanta());
        let q = params.flits_per_quantum;
        let reservations: Vec<u32> = (0..1 + rng.next_below(3)).map(|_| q * 2).collect();
        let mut s = LinkScheduler::new(params, &reservations);
        let mut qid = 0u64;
        // Set when a fresh scheduler takes a credit or a yield; a reset
        // or a booking ends it.
        let mut carries = false;
        for step in 0..200 {
            let cp = s.current_slot();
            let was_fresh = s.is_fresh();
            match rng.next_below(6) {
                0 | 1 => {
                    let flow = FlowId::new(rng.next_below(reservations.len() as u64) as u32);
                    // Sometimes past the window: the flow yields every
                    // frame to `skipped` and books nothing.
                    let earliest = cp + 1 + rng.next_below(2 * w);
                    let entry = PendingQuantum {
                        flow,
                        qid,
                        in_port: 0,
                        res_idx: 0,
                    };
                    qid += 1;
                    carries |= s.schedule(flow, earliest, entry).is_none() && was_fresh;
                }
                2 => {
                    s.return_credit(cp + rng.next_below(w + 2));
                    carries |= was_fresh && !params.sink;
                }
                3 => {
                    if let Some((slot, _)) = s.first_pending() {
                        s.complete(slot);
                    }
                }
                4 => {
                    if s.can_reset() {
                        s.local_reset();
                        carries = false;
                    }
                }
                _ => s.advance_slot(),
            }
            carries &= s.is_fresh();
            fresh_with_state += u32::from(carries);
            for k in [0, 1, 7, f - 1, f, w - 1, w, w + 1, 3 * w + 5] {
                let mut stepped = s.clone();
                for _ in 0..k {
                    stepped.advance_slot();
                }
                let mut jumped = s.clone();
                jumped.advance_to(s.current_slot() + k);
                assert_eq!(stepped, jumped, "case {case} step {step} k={k}");
            }
        }
    }
    assert!(fresh_with_state > 0, "no fresh scheduler carried state");
}
