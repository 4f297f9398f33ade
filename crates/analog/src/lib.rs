//! Analog front-end substrate for the DIVOT iTDR.
//!
//! The iTDR replaces a bulky high-resolution ADC with a 1-bit comparator
//! plus counters (APC), an external modulation waveform on the reference
//! input (PDM), and a phase-stepping PLL (ETS). This crate models every
//! analog element of that receive chain:
//!
//! * [`noise`] — Gaussian thermal noise (the resource APC *exploits*) and
//!   asynchronous EMI interference (the disturbance PDM/averaging rejects).
//! * [`comparator`] — the 1-bit comparator: input-referred noise, static
//!   offset, hysteresis.
//! * [`modulation`] — PDM reference waveforms (ideal triangle, RC
//!   quasi-triangle from a digital pin + RC network, sine, DC) and the
//!   Vernier phase schedule that makes `f_m`/`f_s` relatively prime
//!   (paper Fig. 3).
//! * [`pll`] — the phase-stepping PLL providing equivalent-time sampling
//!   offsets (11.16 ps on the paper's Ultrascale+ part) with Gaussian
//!   jitter.
//! * [`coupler`] — the directional coupler extracting the backward wave.
//! * [`linecode`] — NRZ/PAM4 symbol streams and the §II-E runtime trigger
//!   rule (sample on a 1-preceding-0 launch).
//! * [`frontend`] — the assembled receive chain the iTDR drives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comparator;
pub mod coupler;
pub mod encoding;
pub mod frontend;
pub mod linecode;
pub mod modulation;
pub mod noise;
pub mod pll;

pub use comparator::Comparator;
pub use frontend::{FrontEnd, FrontEndConfig};
pub use modulation::{ModulationWave, VernierSchedule};
pub use pll::PhaseSteppingPll;
