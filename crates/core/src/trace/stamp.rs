//! A cheap monotonic stamp for hot-path stage timing.
//!
//! `Instant::now()` costs ~30ns per read on a typical Linux host (a vDSO
//! `clock_gettime`); a traced serve request takes six stamps, so the
//! clock alone would eat over 1% of a ~13µs request. [`Stamp::now`]
//! reads the x86-64 time-stamp counter instead (~7ns) and converts tick
//! deltas to nanoseconds with a factor calibrated once per process
//! against `Instant`. On other architectures — or if the TSC turns out
//! to be unusable — it falls back to `Instant` transparently.
//!
//! Stamps are only meaningful *within* a process, and only as pairs fed
//! to [`Stamp::nanos_since`]; they are not wall-clock times and never
//! leave the process. Calibration error is bounded by the ~2ms
//! measurement window (well under 0.1%), which is far below the
//! histogram bucket resolution the nanos feed into. Unsynchronised TSCs
//! across cores could make a pair go backwards; the subtraction
//! saturates to zero, the same contract as `saturating_nanos`.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// How the process turns stamp deltas into nanoseconds.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Raw TSC ticks scaled by the calibrated tick length.
    Tsc { nanos_per_tick: f64 },
    /// `Instant`-based nanoseconds since the calibration origin.
    Clock,
}

/// The calibration result plus the origin instant for the fallback.
struct Calibration {
    mode: Mode,
    origin: Instant,
}

static CALIBRATION: OnceLock<Calibration> = OnceLock::new();

#[cfg(target_arch = "x86_64")]
fn ticks() -> u64 {
    // SAFETY: RDTSC is unprivileged and side-effect free; it is baseline
    // on every x86-64.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    0
}

fn calibration() -> &'static Calibration {
    CALIBRATION.get_or_init(|| {
        let origin = Instant::now();
        if cfg!(target_arch = "x86_64") {
            let t0 = ticks();
            // Spin ~2ms: long enough that Instant's own read cost is
            // noise, short enough to not matter at startup.
            while origin.elapsed() < Duration::from_millis(2) {
                std::hint::spin_loop();
            }
            let dt = ticks().saturating_sub(t0);
            let dn = origin.elapsed().as_nanos() as f64;
            // A modern TSC runs at 1-5 GHz; a tick outside [0.05, 20] ns
            // means the counter is stopped, emulated, or wild — fall
            // back to the real clock.
            let nanos_per_tick = if dt == 0 { 0.0 } else { dn / dt as f64 };
            if (0.05..=20.0).contains(&nanos_per_tick) {
                return Calibration {
                    mode: Mode::Tsc { nanos_per_tick },
                    origin,
                };
            }
        }
        Calibration {
            mode: Mode::Clock,
            origin,
        }
    })
}

/// Forces calibration now (one ~2ms spin per process). The serve daemon
/// calls this at startup so the first traced request doesn't pay it.
pub fn calibrate() {
    let _ = calibration();
}

/// One point in time, comparable only against other stamps from the same
/// process. `Copy`, 8 bytes, ~7ns to take on x86-64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp(u64);

impl Stamp {
    /// The current moment.
    #[inline]
    pub fn now() -> Stamp {
        let cal = calibration();
        match cal.mode {
            Mode::Tsc { .. } => Stamp(ticks()),
            Mode::Clock => Stamp(super::nanos_since(cal.origin)),
        }
    }

    /// Nanoseconds from `earlier` to `self`, saturating to zero if the
    /// pair is out of order.
    #[inline]
    pub fn nanos_since(self, earlier: Stamp) -> u64 {
        let delta = self.0.saturating_sub(earlier.0);
        match calibration().mode {
            Mode::Tsc { nanos_per_tick } => (delta as f64 * nanos_per_tick) as u64,
            Mode::Clock => delta,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_measure_real_time_within_tolerance() {
        calibrate();
        let a = Stamp::now();
        let wall = Instant::now();
        while wall.elapsed() < Duration::from_millis(5) {
            std::hint::spin_loop();
        }
        let measured = Stamp::now().nanos_since(a);
        let actual = wall.elapsed().as_nanos() as u64;
        // Same 5ms window, whatever clock source was picked: within 20%.
        assert!(
            measured > actual / 2 && measured < actual * 2,
            "stamp measured {measured}ns for ~{actual}ns of wall time"
        );
    }

    #[test]
    fn out_of_order_pairs_saturate_to_zero() {
        let a = Stamp::now();
        let b = Stamp::now();
        assert_eq!(a.nanos_since(b), 0);
    }
}
