//! Packet injection processes.
//!
//! A process decides, cycle by cycle, whether a flow generates a new
//! packet. Rates are expressed in **flits/cycle** (the paper's unit),
//! so a flow of 4-flit packets at rate 0.2 generates a packet every
//! 20 cycles on average.

use noc_sim::rng::Xoshiro256;

/// How a flow injects packets over time.
#[derive(Debug, Clone, PartialEq)]
pub enum InjectionProcess {
    /// Memoryless injection: each cycle a packet is generated with
    /// probability `rate / packet_len`. This is the standard NoC
    /// load-sweep process.
    Bernoulli {
        /// Offered load in flits/cycle.
        rate: f64,
    },
    /// Deterministic, evenly spaced injection — the "regulated flow"
    /// of Case Study I, which never exceeds its allocated rate.
    Regulated {
        /// Offered load in flits/cycle.
        rate: f64,
    },
    /// Two-state Markov (bursty) injection: while *on*, packets are
    /// generated at `rate_on`; while *off*, none. State transitions
    /// occur each cycle with the given probabilities.
    OnOff {
        /// Offered load while in the on state, flits/cycle.
        rate_on: f64,
        /// Per-cycle probability of switching on → off.
        p_on_to_off: f64,
        /// Per-cycle probability of switching off → on.
        p_off_to_on: f64,
    },
}

impl InjectionProcess {
    /// Long-run average offered load in flits/cycle.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            InjectionProcess::Bernoulli { rate } | InjectionProcess::Regulated { rate } => rate,
            InjectionProcess::OnOff {
                rate_on,
                p_on_to_off,
                p_off_to_on,
            } => {
                let on_fraction = p_off_to_on / (p_off_to_on + p_on_to_off);
                rate_on * on_fraction
            }
        }
    }

    /// Creates the per-flow runtime state for this process.
    pub(crate) fn start(&self, packet_len: u16) -> ProcessState {
        match *self {
            InjectionProcess::Bernoulli { rate } => ProcessState::Bernoulli {
                fire: Trial::new(rate / packet_len as f64),
            },
            InjectionProcess::Regulated { rate } => ProcessState::Regulated {
                credit: 0.0,
                per_cycle: rate / packet_len as f64,
            },
            InjectionProcess::OnOff {
                rate_on,
                p_on_to_off,
                p_off_to_on,
            } => ProcessState::OnOff {
                fire: Trial::new(rate_on / packet_len as f64),
                to_off: Trial::new(p_on_to_off),
                to_on: Trial::new(p_off_to_on),
                on: true,
            },
        }
    }
}

/// A Bernoulli trial with its probability scaled to the integer the
/// generator draws. [`Xoshiro256::next_f64`] is `next_u64() >> 11`
/// times 2⁻⁵³, so `next_f64() < p` holds exactly when that integer is
/// below `ceil(p · 2⁵³)`: one integer compare replaces the conversion,
/// multiply and float compare of [`Xoshiro256::bernoulli`], with the
/// same draws and the same outcomes. Like `bernoulli`, `p ≥ 1` and
/// `p ≤ 0` decide without drawing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Trial {
    Never,
    Always,
    /// Succeeds when `next_u64() >> 11` is below the threshold.
    Below(u64),
}

impl Trial {
    pub(crate) fn new(p: f64) -> Self {
        if p >= 1.0 {
            Trial::Always
        } else if p <= 0.0 {
            Trial::Never
        } else {
            // Scaling by a power of two and `ceil` are both exact, so
            // the threshold lies in [1, 2⁵³]. A NaN `p` maps to 0: a
            // draw that never succeeds, as in `bernoulli`.
            Trial::Below((p * TWO_POW_53).ceil() as u64)
        }
    }

    #[inline]
    pub(crate) fn draw(self, rng: &mut Xoshiro256) -> bool {
        match self {
            Trial::Never => false,
            Trial::Always => true,
            Trial::Below(threshold) => rng.next_u64() >> 11 < threshold,
        }
    }
}

const TWO_POW_53: f64 = (1u64 << 53) as f64;

/// Runtime state of a flow's injection process.
#[derive(Debug, Clone)]
pub(crate) enum ProcessState {
    Bernoulli {
        fire: Trial,
    },
    Regulated {
        credit: f64,
        per_cycle: f64,
    },
    OnOff {
        fire: Trial,
        to_off: Trial,
        to_on: Trial,
        on: bool,
    },
}

impl ProcessState {
    /// Returns how many packets to generate this cycle (0 or 1 for
    /// rates below one packet/cycle, which is all the paper uses).
    pub(crate) fn tick(&mut self, rng: &mut Xoshiro256) -> u32 {
        u32::from(self.first_firing(rng, 0, 1).is_some())
    }

    /// Ticks cycles `from..until` in order and returns the first one
    /// that fires (with one packet): exactly the draws of the same
    /// [`ProcessState::tick`] calls, but with the process matched
    /// once for the whole span instead of once per cycle. A Bernoulli
    /// process that never fires (`p ≤ 0`) draws nothing, so it
    /// returns at once.
    pub(crate) fn first_firing(
        &mut self,
        rng: &mut Xoshiro256,
        from: u64,
        until: u64,
    ) -> Option<u64> {
        // The loops run on local copies of the generator and the
        // process state, written back once, so both stay in registers
        // instead of round-tripping through memory every cycle.
        let mut r = rng.clone();
        let fired = match self {
            ProcessState::Bernoulli { fire: Trial::Never } => None,
            ProcessState::Bernoulli { fire } => {
                let fire = *fire;
                (from..until).find(|_| fire.draw(&mut r))
            }
            ProcessState::Regulated { credit, per_cycle } => {
                let (mut c, per_cycle) = (*credit, *per_cycle);
                let fired = (from..until).find(|_| {
                    c += per_cycle;
                    let full = c >= 1.0;
                    if full {
                        c -= 1.0;
                    }
                    full
                });
                *credit = c;
                fired
            }
            ProcessState::OnOff {
                fire,
                to_off,
                to_on,
                on,
            } => {
                let (fire, to_off, to_on, mut is_on) = (*fire, *to_off, *to_on, *on);
                let fired = (from..until).find(|_| {
                    // The emission draw (while on), then the state
                    // transition draw.
                    let fired = is_on && fire.draw(&mut r);
                    is_on = if is_on {
                        !to_off.draw(&mut r)
                    } else {
                        to_on.draw(&mut r)
                    };
                    fired
                });
                *on = is_on;
                fired
            }
        };
        *rng = r;
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_rate(process: InjectionProcess, cycles: u64, packet_len: u16) -> f64 {
        let mut st = process.start(packet_len);
        let mut rng = Xoshiro256::seed_from(99);
        let mut packets = 0u64;
        for _ in 0..cycles {
            packets += st.tick(&mut rng) as u64;
        }
        packets as f64 * packet_len as f64 / cycles as f64
    }

    #[test]
    fn bernoulli_hits_target_rate() {
        let r = run_rate(InjectionProcess::Bernoulli { rate: 0.2 }, 200_000, 4);
        assert!((r - 0.2).abs() < 0.01, "measured {r}");
    }

    #[test]
    fn regulated_is_exact_and_even() {
        let p = InjectionProcess::Regulated { rate: 0.2 };
        let mut st = p.start(4);
        let mut rng = Xoshiro256::seed_from(1);
        let mut gaps = Vec::new();
        let mut last = None;
        for cycle in 0..10_000u64 {
            if st.tick(&mut rng) > 0 {
                if let Some(l) = last {
                    gaps.push(cycle - l);
                }
                last = Some(cycle);
            }
        }
        // rate 0.2 flits/cycle, 4-flit packets => one packet / 20 cycles.
        assert!(gaps.iter().all(|&g| g == 20), "gaps {gaps:?}");
    }

    #[test]
    fn on_off_mean_rate_formula() {
        let p = InjectionProcess::OnOff {
            rate_on: 0.8,
            p_on_to_off: 0.01,
            p_off_to_on: 0.03,
        };
        assert!((p.mean_rate() - 0.6).abs() < 1e-12);
        let measured = run_rate(p, 2_000_000, 4);
        assert!((measured - 0.6).abs() < 0.03, "measured {measured}");
    }

    #[test]
    fn zero_rate_emits_nothing() {
        assert_eq!(
            run_rate(InjectionProcess::Bernoulli { rate: 0.0 }, 10_000, 4),
            0.0
        );
        assert_eq!(
            run_rate(InjectionProcess::Regulated { rate: 0.0 }, 10_000, 4),
            0.0
        );
    }

    /// The integer threshold decides exactly like `next_f64() < p`:
    /// at the threshold's edge (the largest draw that succeeds and the
    /// smallest that fails) and on a stream of real draws, for edge
    /// probabilities — with `p · 2⁵³` integral and not — and for the
    /// no-draw cases `p ≤ 0` and `p ≥ 1`.
    #[test]
    fn trial_threshold_matches_float_compare() {
        let ulp = 1.0 / TWO_POW_53;
        let edges = [
            0.0,
            1.0,
            ulp,
            1.0 - ulp,
            0.25,
            3.0 * ulp,
            0.3,
            0.05,
            1e-300,
            1.5,
            -0.5,
        ];
        for p in edges {
            let trial = Trial::new(p);
            if let Trial::Below(t) = trial {
                let as_f64 = |u: u64| u as f64 * ulp;
                assert!(as_f64(t - 1) < p, "p={p}: largest success fails");
                assert!(
                    t == 1 << 53 || as_f64(t) >= p,
                    "p={p}: smallest failure succeeds"
                );
            }
            let (mut a, mut b) = (Xoshiro256::seed_from(7), Xoshiro256::seed_from(7));
            for _ in 0..10_000 {
                assert_eq!(trial.draw(&mut a), b.bernoulli(p), "p={p}");
            }
            assert_eq!(a, b, "p={p}: draw count diverged");
        }
        assert_eq!(Trial::new(0.0), Trial::Never);
        assert_eq!(Trial::new(1.0), Trial::Always);
        assert_eq!(Trial::new(ulp), Trial::Below(1));
        assert_eq!(Trial::new(0.25), Trial::Below(1 << 51));
        assert_eq!(Trial::new(1.0 - ulp), Trial::Below((1 << 53) - 1));
        // 0.3 · 2⁵³ is not an integer: the threshold rounds up.
        let Trial::Below(t) = Trial::new(0.3) else {
            unreachable!()
        };
        assert!((t as f64) > 0.3 * TWO_POW_53 && ((t - 1) as f64) < 0.3 * TWO_POW_53);
    }

    #[test]
    fn full_rate_saturates_one_packet_per_packet_time() {
        let r = run_rate(InjectionProcess::Regulated { rate: 1.0 }, 10_000, 4);
        assert!((r - 1.0).abs() < 1e-3, "measured {r}");
    }
}
