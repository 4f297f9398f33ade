//! Math, statistics, and signal-processing substrate for the DIVOT
//! architecture simulation.
//!
//! This crate provides the numeric foundation that every other layer of the
//! reproduction builds on:
//!
//! * [`erf`] — error function, complementary error function, and the probit
//!   (inverse normal CDF), implemented from scratch so no external special-
//!   function crate is needed.
//! * [`gaussian`] — Gaussian PDF/CDF/inverse-CDF, plus the *modulated* CDFs
//!   at the heart of analog-to-probability conversion (APC) with probability
//!   density modulation (PDM): the closed-form Gaussian–uniform mixture CDF
//!   and discrete reference-level mixtures, both invertible.
//! * [`rng`] — deterministic seeded randomness: a polar Box–Muller normal
//!   sampler, an exact binomial sampler (inverse-CDF / transformed
//!   rejection) backing the analytic acquisition fast path, and an
//!   Ornstein–Uhlenbeck process used to synthesize spatially correlated
//!   manufacturing variation (the IIP itself).
//! * [`quadrature`] — fixed-node Gauss–Hermite rules for Gaussian
//!   expectations; folds PLL trigger jitter into closed-form trip
//!   probabilities without Monte-Carlo draws.
//! * [`par`] — order-preserving parallel map helpers on scoped threads;
//!   the scheduling substrate for the acquisition fan-out in `divot-core`
//!   (bitwise identical to the serial loop for per-index-seeded work).
//! * [`waveform`] — a uniformly sampled waveform type with interpolated
//!   sampling and the arithmetic used throughout the scattering simulation.
//! * [`stats`] — moments, histograms, percentiles.
//! * [`similarity`] — the paper's similarity function `S_xy` (Eq. 4) and
//!   error function `E_xy` (Eq. 5), plus peak extraction for tamper
//!   localization.
//! * [`roc`] — receiver operating characteristic curves, equal error rate
//!   (EER), and AUC, used to regenerate Fig. 7(b).
//! * [`filter`] — smoothing filters for reconstructed IIPs.
//!
//! # Example
//!
//! ```
//! use divot_dsp::gaussian;
//!
//! // APC: probability of comparator output 1 for a signal 1σ above the
//! // reference, then recover the voltage from the probability.
//! let p = gaussian::std_cdf(1.0);
//! let v = gaussian::std_cdf_inv(p);
//! assert!((v - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod erf;
pub mod fft;
pub mod filter;
pub mod gaussian;
pub mod par;
pub mod quadrature;
pub mod rng;
pub mod roc;
pub mod similarity;
pub mod stats;
pub mod waveform;

pub use rng::{DivotRng, OrnsteinUhlenbeck};
pub use roc::{auc, RocCurve, RocPoint};
pub use stats::{Histogram, Summary};
pub use waveform::Waveform;
