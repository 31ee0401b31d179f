//! Integer-nanosecond virtual time.
//!
//! Discrete-event determinism demands a totally ordered, exactly
//! representable time axis. Floating-point accumulation (`t += dt`) makes
//! event order depend on summation order; nanosecond integers do not.

use serde::{Deserialize, Serialize};

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// The end of the virtual time axis — the "no deadline" sentinel a
    /// transport drain accepts to mean "deliver everything that has ever
    /// been sent".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Converts seconds to virtual time, saturating at the axis end and
    /// clamping negatives to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            return SimTime(0);
        }
        let nanos = secs * 1e9;
        if nanos >= u64::MAX as f64 {
            SimTime(u64::MAX)
        } else {
            SimTime(nanos.round() as u64)
        }
    }

    /// This instant as (possibly lossy) floating seconds, for reporting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating addition of a duration in seconds.
    #[must_use]
    pub fn after_secs(self, secs: f64) -> Self {
        SimTime(self.0.saturating_add(SimTime::from_secs_f64(secs).0))
    }

    /// Saturating addition of another time treated as a duration.
    #[must_use]
    pub fn plus(self, duration: SimTime) -> Self {
        SimTime(self.0.saturating_add(duration.0))
    }

    /// Saturating difference (`self - earlier`), useful for staleness.
    #[must_use]
    pub fn since(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip_to_nanosecond() {
        assert_eq!(SimTime::from_secs_f64(1.5).0, 1_500_000_000);
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        let t = SimTime::from_secs_f64(0.05);
        assert!((t.as_secs_f64() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_saturates() {
        let t = SimTime(u64::MAX - 1);
        assert_eq!(t.after_secs(5.0), SimTime(u64::MAX));
        assert_eq!(SimTime(3).since(SimTime(10)), SimTime(0));
        assert_eq!(SimTime(10).since(SimTime(3)), SimTime(7));
    }
}
