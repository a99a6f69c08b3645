use crate::PlatformError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An Intel MBA (Memory Bandwidth Allocation) throttle level.
///
/// MBA exposes per-class bandwidth caps in coarse steps; like the hardware we
/// accept levels from 10 % to 100 % in steps of 10. OSML programs one level
/// per co-located service, derived from the service's OAA bandwidth via the
/// paper's `BW_j / Σ BW_i` proportional rule (§V-B).
///
/// # Example
///
/// ```
/// use osml_platform::MbaThrottle;
///
/// let t = MbaThrottle::percent(50)?;
/// assert_eq!(t.as_percent(), 50);
/// assert!((t.fraction() - 0.5).abs() < 1e-12);
/// assert!(MbaThrottle::percent(55).is_err()); // not a multiple of 10
/// # Ok::<(), osml_platform::PlatformError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct MbaThrottle(u8);

/// Decodes the percentage through [`MbaThrottle::percent`], so no file or
/// message can put a level the hardware lacks into the program.
impl Deserialize for MbaThrottle {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let percent = u8::deserialize(r)?;
        MbaThrottle::percent(percent).map_err(|e| serde::Error::custom(e.to_string()))
    }
}

impl MbaThrottle {
    /// Builds a throttle from a percentage.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidThrottle`] unless `percent` is one of
    /// 10, 20, …, 100 — the levels real MBA hardware accepts.
    pub fn percent(percent: u8) -> Result<Self, PlatformError> {
        if percent == 0 || percent > 100 || !percent.is_multiple_of(10) {
            return Err(PlatformError::InvalidThrottle { percent });
        }
        Ok(MbaThrottle(percent))
    }

    /// No throttling (100 %).
    pub fn unthrottled() -> Self {
        MbaThrottle(100)
    }

    /// Picks the smallest hardware level that still grants `fraction` of the
    /// machine bandwidth (rounding *up* so the cap never starves the service
    /// below its requested share).
    ///
    /// Inputs are clamped to `[0.1, 1.0]`.
    pub fn covering_fraction(fraction: f64) -> Self {
        let pct = (fraction * 100.0).ceil().clamp(10.0, 100.0);
        let rounded = ((pct / 10.0).ceil() * 10.0) as u8;
        MbaThrottle(rounded.min(100))
    }

    /// Throttle level as a percentage in 10..=100.
    pub fn as_percent(self) -> u8 {
        self.0
    }

    /// Throttle level as a fraction in `(0, 1]`.
    pub fn fraction(self) -> f64 {
        f64::from(self.0) / 100.0
    }
}

impl Default for MbaThrottle {
    fn default() -> Self {
        MbaThrottle::unthrottled()
    }
}

impl fmt::Display for MbaThrottle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mba {}%", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_only_hardware_levels() {
        for p in (10..=100).step_by(10) {
            assert!(MbaThrottle::percent(p as u8).is_ok());
        }
        for p in [0u8, 5, 15, 101, 110, 255] {
            assert!(MbaThrottle::percent(p).is_err(), "{p}");
        }
    }

    #[test]
    fn covering_fraction_rounds_up() {
        assert_eq!(MbaThrottle::covering_fraction(0.31).as_percent(), 40);
        assert_eq!(MbaThrottle::covering_fraction(0.30).as_percent(), 30);
        assert_eq!(MbaThrottle::covering_fraction(0.01).as_percent(), 10);
        assert_eq!(MbaThrottle::covering_fraction(1.0).as_percent(), 100);
        assert_eq!(MbaThrottle::covering_fraction(2.0).as_percent(), 100);
    }

    #[test]
    fn default_is_unthrottled() {
        assert_eq!(MbaThrottle::default(), MbaThrottle::unthrottled());
        assert!((MbaThrottle::default().fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ordering_follows_percentage() {
        assert!(MbaThrottle::percent(20).unwrap() < MbaThrottle::percent(90).unwrap());
    }
}
