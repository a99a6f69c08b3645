use crate::{PlatformError, Topology};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A last-level-cache way mask, as programmed into an Intel CAT
/// class-of-service register.
///
/// Real CAT hardware imposes two validity rules which this type enforces at
/// construction: the mask must be **non-empty** and **contiguous** (e.g.
/// `0b0011_1100` is legal, `0b0101` is not). Masks of different services may
/// overlap — that is how OSML shares LLC ways between neighbours
/// (Algorithm 4 of the paper).
///
/// # Example
///
/// ```
/// use osml_platform::WayMask;
///
/// let a = WayMask::contiguous(0, 10)?; // ways 0..=9
/// let b = WayMask::contiguous(8, 4)?;  // ways 8..=11
/// assert_eq!(a.count(), 10);
/// assert!(a.overlaps(b)); // ways 8 and 9 are shared
/// assert!(WayMask::from_bits(0b0101).is_err()); // not contiguous
/// # Ok::<(), osml_platform::PlatformError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct WayMask(u32);

/// Decodes the raw bits through [`WayMask::from_bits`], so no file or
/// message can put an empty or non-contiguous mask into the program.
impl Deserialize for WayMask {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let bits = u32::deserialize(r)?;
        WayMask::from_bits(bits).map_err(|e| serde::Error::custom(e.to_string()))
    }
}

impl WayMask {
    /// Builds a mask from raw bits.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidWayMask`] if the bits are empty or not
    /// contiguous, matching the constraint CAT hardware enforces.
    pub fn from_bits(bits: u32) -> Result<Self, PlatformError> {
        if bits == 0 {
            return Err(PlatformError::InvalidWayMask { bits });
        }
        // A contiguous run of ones, shifted down by its trailing zeros, is of
        // the form 2^k - 1.
        let norm = bits >> bits.trailing_zeros();
        if norm & (norm + 1) != 0 {
            return Err(PlatformError::InvalidWayMask { bits });
        }
        Ok(WayMask(bits))
    }

    /// Builds the mask covering `count` ways starting at way `first`.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidWayMask`] if `count` is zero or the
    /// range exceeds 32 ways.
    pub fn contiguous(first: usize, count: usize) -> Result<Self, PlatformError> {
        if count == 0 || first + count > 32 {
            return Err(PlatformError::InvalidWayMask { bits: 0 });
        }
        let bits = if count == 32 { u32::MAX } else { ((1u32 << count) - 1) << first };
        Ok(WayMask(bits))
    }

    /// The mask covering the `n` lowest ways.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or greater than 32. Use [`WayMask::contiguous`]
    /// for a fallible variant.
    pub fn first_n(n: usize) -> Self {
        WayMask::contiguous(0, n).expect("n must be in 1..=32")
    }

    /// The mask covering every way of `topo`'s LLC.
    pub fn all(topo: &Topology) -> Self {
        WayMask::first_n(topo.llc_ways())
    }

    /// Raw mask bits.
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Number of ways in the mask.
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Index of the lowest way in the mask.
    pub fn first(self) -> usize {
        self.0.trailing_zeros() as usize
    }

    /// Index one past the highest way in the mask.
    pub fn end(self) -> usize {
        32 - self.0.leading_zeros() as usize
    }

    /// Whether any way of `self` is also in `other`.
    pub fn overlaps(self, other: WayMask) -> bool {
        self.0 & other.0 != 0
    }

    /// Grows or shrinks the mask by `delta` ways (positive grows towards
    /// higher way indices first, then lower; negative shrinks from the high
    /// end), clamped so the result stays a valid mask of at least one way
    /// within `total_ways`.
    ///
    /// This is how the simulator applies Model-C's `Δways` actions: the mask
    /// stays contiguous, the way the `pqos`-driven allocator in the original
    /// OSML userspace daemon keeps masks contiguous.
    pub fn resized(self, delta: i32, total_ways: usize) -> WayMask {
        let count = self.count() as i32 + delta;
        let count = count.clamp(1, total_ways as i32) as usize;
        let mut first = self.first();
        if first + count > total_ways {
            first = total_ways - count;
        }
        WayMask::contiguous(first, count).expect("clamped range is valid")
    }

    /// Checks the mask fits within `topo`'s LLC.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::WayOutOfRange`] if the mask uses ways beyond
    /// the machine's way count.
    pub fn validate(self, topo: &Topology) -> Result<(), PlatformError> {
        if self.end() > topo.llc_ways() {
            return Err(PlatformError::WayOutOfRange {
                way: self.end() - 1,
                total: topo.llc_ways(),
            });
        }
        Ok(())
    }
}

impl fmt::Display for WayMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ways[{}..{}]", self.first(), self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_masks_are_accepted() {
        for first in 0..20 {
            for count in 1..=(20 - first) {
                let m = WayMask::contiguous(first, count).unwrap();
                assert_eq!(m.count(), count);
                assert_eq!(m.first(), first);
                assert_eq!(m.end(), first + count);
            }
        }
    }

    #[test]
    fn non_contiguous_masks_are_rejected() {
        for bits in [0u32, 0b101, 0b1001, 0b110011, 0b10000001] {
            assert!(WayMask::from_bits(bits).is_err(), "{bits:#b}");
        }
    }

    #[test]
    fn full_width_mask_is_valid() {
        let m = WayMask::contiguous(0, 32).unwrap();
        assert_eq!(m.count(), 32);
        assert_eq!(m.bits(), u32::MAX);
    }

    #[test]
    fn overlap_detection() {
        let a = WayMask::contiguous(0, 10).unwrap();
        let b = WayMask::contiguous(8, 4).unwrap();
        let c = WayMask::contiguous(12, 8).unwrap();
        assert!(a.overlaps(b));
        assert!(!a.overlaps(c));
    }

    #[test]
    fn resize_grows_and_shrinks_within_bounds() {
        let m = WayMask::contiguous(0, 10).unwrap();
        assert_eq!(m.resized(3, 20).count(), 13);
        assert_eq!(m.resized(-3, 20).count(), 7);
        // Clamped at 1 way minimum.
        assert_eq!(m.resized(-15, 20).count(), 1);
        // Clamped at the machine's way count.
        assert_eq!(m.resized(30, 20).count(), 20);
    }

    #[test]
    fn resize_keeps_mask_inside_llc() {
        let m = WayMask::contiguous(15, 5).unwrap(); // ways 15..20
        let grown = m.resized(3, 20);
        assert_eq!(grown.count(), 8);
        assert!(grown.end() <= 20);
    }

    #[test]
    fn validate_respects_topology() {
        let topo = Topology::xeon_e5_2697_v4();
        assert!(WayMask::contiguous(0, 20).unwrap().validate(&topo).is_ok());
        assert!(WayMask::contiguous(0, 21).unwrap().validate(&topo).is_err());
        assert!(WayMask::contiguous(19, 2).unwrap().validate(&topo).is_err());
    }

    #[test]
    fn display_shows_range() {
        let m = WayMask::contiguous(2, 3).unwrap();
        assert_eq!(m.to_string(), "ways[2..5]");
    }
}
