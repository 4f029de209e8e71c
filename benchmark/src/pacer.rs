//! The open-loop schedule: operation `i` is due at `start + i × interval`
//! whatever the system does, and its latency is timed from that due time,
//! so a stall is charged to every operation it delays and not only to the
//! one that was in flight.

use std::time::{Duration, Instant};

/// A nanosecond clock the schedule can wait on; the tests inject a fake one.
pub trait Clock {
    fn now_ns(&mut self) -> u64;
    /// Return once `now_ns() >= deadline_ns` (at once if already past).
    fn wait_until(&mut self, deadline_ns: u64);
}

/// Wall clock. Sleeps to just short of the deadline and spins the rest: a
/// bare `sleep` overshoots by the timer slack, which would show as lateness
/// the system under test did not cause.
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    const SPIN_NS: u64 = 150_000;

    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }

    /// The instant this clock calls zero.
    pub fn origin(&self) -> Instant {
        self.origin
    }
}

impl Clock for WallClock {
    fn now_ns(&mut self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn wait_until(&mut self, deadline_ns: u64) {
        loop {
            let now = self.now_ns();
            if now >= deadline_ns {
                return;
            }
            let left = deadline_ns - now;
            if left > Self::SPIN_NS {
                std::thread::sleep(Duration::from_nanos(left - Self::SPIN_NS));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// When one scheduled operation was due, sent and done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    pub due_ns: u64,
    /// How late the generator sent it.
    pub late_ns: u64,
    /// Due time to completion.
    pub latency_ns: u64,
}

/// Run `ops` operations on a fixed schedule starting at `start_ns`. `op`
/// performs operation `i` and returns when it has completed.
pub fn drive<C: Clock>(
    clock: &mut C,
    start_ns: u64,
    interval_ns: u64,
    ops: usize,
    mut op: impl FnMut(&mut C, usize),
) -> Vec<Timing> {
    (0..ops)
        .map(|i| {
            let due_ns = start_ns + i as u64 * interval_ns;
            clock.wait_until(due_ns);
            let sent = clock.now_ns();
            op(clock, i);
            Timing {
                due_ns,
                late_ns: sent - due_ns,
                latency_ns: clock.now_ns() - due_ns,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeClock(u64);

    impl Clock for FakeClock {
        fn now_ns(&mut self) -> u64 {
            self.0
        }
        fn wait_until(&mut self, deadline_ns: u64) {
            self.0 = self.0.max(deadline_ns);
        }
    }

    #[test]
    fn a_stall_is_charged_to_every_operation_it_delays() {
        // 10 ns apart, 2 ns of service each, but operation 2 stalls for 35 ns.
        let mut clock = FakeClock(100);
        let timings = drive(&mut clock, 100, 10, 7, |c, i| {
            c.0 += if i == 2 { 35 } else { 2 };
        });
        let latency: Vec<u64> = timings.iter().map(|t| t.latency_ns).collect();
        let late: Vec<u64> = timings.iter().map(|t| t.late_ns).collect();
        // Op 2 is due at 120 and done at 155; ops 3..5 were due at 130, 140,
        // 150 but could only start at 155, 157, 159; op 6 (due 160) starts
        // at 161 and the schedule has caught up but for 1 ns.
        assert_eq!(latency, [2, 2, 35, 27, 19, 11, 3]);
        assert_eq!(late, [0, 0, 0, 25, 17, 9, 1]);
        // Timed from the send instead, the three delayed ops would each
        // have read 2 ns and the stall would have been counted once.
        assert_eq!(timings[3].due_ns, 130);
    }

    #[test]
    fn the_wall_clock_waits_out_its_deadline() {
        let mut clock = WallClock::new();
        let deadline = clock.now_ns() + 2_000_000;
        clock.wait_until(deadline);
        let now = clock.now_ns();
        assert!(now >= deadline);
        clock.wait_until(0); // already past: returns at once
    }
}
