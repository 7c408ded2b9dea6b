//! Differential-privacy noise mechanisms.
//!
//! These are the calibrated randomization primitives underneath every
//! aggregation in the engine:
//!
//! * [`laplace`] — the Laplace mechanism for real-valued queries
//!   (counts, sums, averages). Matches the paper's Table 1 calibration:
//!   a count at accuracy ε receives noise with standard deviation `√2/ε`.
//! * [`geometric`] — the two-sided geometric ("discrete Laplace") mechanism
//!   for integer-valued counts.
//! * [`exponential`] — the exponential mechanism for selecting from a
//!   candidate set under a score function; used by `NoisyMedian`.

pub mod exponential;
pub mod geometric;
pub mod laplace;

pub use exponential::{exponential_mechanism, exponential_mechanism_index};
pub use geometric::geometric_noise;
pub use laplace::{add_laplace_noise, laplace_noise, laplace_std};
