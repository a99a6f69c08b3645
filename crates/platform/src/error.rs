use std::error::Error;
use std::fmt;

/// Errors raised by the platform layer when a scheduler requests an invalid
/// resource manipulation.
///
/// These mirror the failure modes of the real control interfaces: `taskset`
/// rejects empty/out-of-range CPU lists, Intel CAT rejects non-contiguous or
/// empty way masks, and the OSML runtime refuses to double-place a service.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlatformError {
    /// A core index exceeded the number of logical cores on the machine.
    CoreOutOfRange {
        /// The offending logical core index.
        core: usize,
        /// Number of logical cores on the machine.
        total: usize,
    },
    /// An allocation contained no cores; a service cannot run on zero cores.
    EmptyCoreSet,
    /// A way index exceeded the number of LLC ways.
    WayOutOfRange {
        /// The offending way index.
        way: usize,
        /// Number of LLC ways on the machine.
        total: usize,
    },
    /// Intel CAT requires class-of-service masks to be contiguous and
    /// non-empty; the requested mask was not.
    InvalidWayMask {
        /// The raw mask bits that were rejected.
        bits: u32,
    },
    /// The application id is not registered on this server.
    UnknownApp {
        /// The offending application id.
        id: u64,
    },
    /// The application id is already registered on this server.
    DuplicateApp {
        /// The offending application id.
        id: u64,
    },
    /// An MBA throttle level outside 10..=100 (%) was requested.
    InvalidThrottle {
        /// The rejected percentage.
        percent: u8,
    },
    /// A control-interface write failed at actuation time.
    ///
    /// On real hardware this is an MSR write returning `EBUSY`/`EINTR`
    /// under contention (CAT/MBA class-of-service programming) or
    /// `sched_setaffinity` racing a dying task. `transient` distinguishes
    /// glitches worth retrying from hard faults (e.g. the resctrl interface
    /// disappearing); the fault-injection layer only ever produces
    /// transient ones.
    ActuationFailed {
        /// Whether a retry can reasonably be expected to succeed.
        transient: bool,
    },
}

/// Coarse classification of a [`PlatformError`], driving the controller's
/// recovery strategy: transient faults are retried, invalid requests are
/// bugs in the caller's arithmetic (never retried), and unknown-target
/// errors mean the service raced a departure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ErrorClass {
    /// Worth retrying with backoff (contention on the control interface).
    Transient,
    /// The request itself was malformed; retrying the same call cannot help.
    InvalidRequest,
    /// The target service is not (or no longer) registered.
    UnknownTarget,
}

impl From<&PlatformError> for ErrorClass {
    fn from(err: &PlatformError) -> ErrorClass {
        match err {
            PlatformError::ActuationFailed { transient: true } => ErrorClass::Transient,
            PlatformError::UnknownApp { .. } | PlatformError::DuplicateApp { .. } => {
                ErrorClass::UnknownTarget
            }
            // Everything else — and any future variant — is a malformed
            // request: the conservative class (never retried).
            _ => ErrorClass::InvalidRequest,
        }
    }
}

impl PlatformError {
    /// This error's recovery class.
    pub(crate) fn class(&self) -> ErrorClass {
        ErrorClass::from(self)
    }

    /// Whether a retry with backoff can reasonably be expected to succeed.
    /// The controller's retry budget applies only to these errors.
    pub fn is_transient(&self) -> bool {
        self.class() == ErrorClass::Transient
    }
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::CoreOutOfRange { core, total } => {
                write!(f, "logical core {core} out of range (machine has {total})")
            }
            PlatformError::EmptyCoreSet => write!(f, "allocation contains no cores"),
            PlatformError::WayOutOfRange { way, total } => {
                write!(f, "LLC way {way} out of range (cache has {total} ways)")
            }
            PlatformError::InvalidWayMask { bits } => {
                write!(f, "way mask {bits:#b} is not a contiguous non-empty mask")
            }
            PlatformError::UnknownApp { id } => write!(f, "application {id} is not registered"),
            PlatformError::DuplicateApp { id } => {
                write!(f, "application {id} is already registered")
            }
            PlatformError::InvalidThrottle { percent } => {
                write!(f, "MBA throttle {percent}% is not in 10..=100")
            }
            PlatformError::ActuationFailed { transient: true } => {
                write!(f, "control-interface write failed transiently (retry may succeed)")
            }
            PlatformError::ActuationFailed { transient: false } => {
                write!(f, "control-interface write failed permanently")
            }
        }
    }
}

impl Error for PlatformError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = PlatformError::CoreOutOfRange { core: 40, total: 36 };
        let s = e.to_string();
        assert!(s.contains("40"));
        assert!(s.contains("36"));
        assert!(s.starts_with(char::is_lowercase));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error<E: Error + Send + Sync + 'static>(_e: E) {}
        takes_error(PlatformError::EmptyCoreSet);
    }

    #[test]
    fn all_variants_have_nonempty_display() {
        let variants = [
            PlatformError::CoreOutOfRange { core: 1, total: 2 },
            PlatformError::EmptyCoreSet,
            PlatformError::WayOutOfRange { way: 3, total: 4 },
            PlatformError::InvalidWayMask { bits: 0b101 },
            PlatformError::UnknownApp { id: 7 },
            PlatformError::DuplicateApp { id: 7 },
            PlatformError::InvalidThrottle { percent: 5 },
            PlatformError::ActuationFailed { transient: true },
            PlatformError::ActuationFailed { transient: false },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty(), "{v:?}");
        }
    }

    #[test]
    fn only_transient_actuation_failures_are_retryable() {
        assert!(PlatformError::ActuationFailed { transient: true }.is_transient());
        assert!(!PlatformError::ActuationFailed { transient: false }.is_transient());
        let permanent = [
            PlatformError::CoreOutOfRange { core: 1, total: 2 },
            PlatformError::EmptyCoreSet,
            PlatformError::WayOutOfRange { way: 3, total: 4 },
            PlatformError::InvalidWayMask { bits: 0b101 },
            PlatformError::UnknownApp { id: 7 },
            PlatformError::DuplicateApp { id: 7 },
            PlatformError::InvalidThrottle { percent: 5 },
        ];
        for e in permanent {
            assert!(!e.is_transient(), "{e:?} must not be retried");
        }
    }

    #[test]
    fn error_classes_partition_the_variants() {
        assert_eq!(
            PlatformError::ActuationFailed { transient: true }.class(),
            ErrorClass::Transient
        );
        assert_eq!(PlatformError::UnknownApp { id: 1 }.class(), ErrorClass::UnknownTarget);
        assert_eq!(PlatformError::DuplicateApp { id: 1 }.class(), ErrorClass::UnknownTarget);
        assert_eq!(PlatformError::EmptyCoreSet.class(), ErrorClass::InvalidRequest);
        assert_eq!(
            PlatformError::ActuationFailed { transient: false }.class(),
            ErrorClass::InvalidRequest
        );
        // The From impl and the method agree.
        let e = PlatformError::InvalidThrottle { percent: 5 };
        assert_eq!(ErrorClass::from(&e), e.class());
    }
}
