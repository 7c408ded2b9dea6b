//! Monotonic process clock.
//!
//! Ledger entries and events are stamped with nanoseconds since the first
//! use of the clock in this process — monotonic, cheap, and meaningful for
//! ordering and latency arithmetic within one run. Durations come from
//! [`crate::span`] guards, which read this same clock. Wall-clock time (for
//! naming report files and stamping audit exports) comes separately from
//! [`unix_time_s`].

use std::sync::OnceLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process clock epoch (first call in this process).
/// Monotonic: later calls never return smaller values.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Read the clock for a span start. The epoch is initialized first, so
/// [`ns_since_epoch`] of the returned instant never saturates.
pub(crate) fn mark() -> Instant {
    epoch();
    Instant::now()
}

/// The process-clock timestamp of `at`, ns since the epoch.
pub(crate) fn ns_since_epoch(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Seconds since the Unix epoch (wall clock), for stamping exports.
pub fn unix_time_s() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn unix_time_is_plausible() {
        // After 2020-01-01, before 2100.
        let t = unix_time_s();
        assert!(t > 1_577_836_800 && t < 4_102_444_800, "t = {t}");
    }
}
