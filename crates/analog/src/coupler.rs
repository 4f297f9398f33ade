//! The directional coupler that extracts the backward-travelling wave.
//!
//! A TDR detector must observe the weak back-reflection without loading the
//! line. A directional coupler passes a fraction of the backward wave to
//! the detector (the *coupling factor*) while rejecting the much larger
//! forward wave imperfectly (finite *directivity* leaks a bit of the drive
//! into the detector). The leakage is the same for every measurement of the
//! same drive, so it appears as a fixed additive component of the measured
//! waveform — common to genuine and impostor measurements alike.

/// Directional-coupler model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coupler {
    /// Coupling of the backward wave into the detector, in dB (negative;
    /// e.g. −6 dB passes half the voltage).
    pub coupling_db: f64,
    /// Directivity in dB (positive): how much better the coupler rejects
    /// the forward wave than it couples the backward wave.
    pub directivity_db: f64,
}

impl Default for Coupler {
    fn default() -> Self {
        Self {
            coupling_db: -6.0,
            directivity_db: 30.0,
        }
    }
}

impl Coupler {
    /// Linear voltage gain applied to the backward (reflected) wave.
    pub fn backward_gain(&self) -> f64 {
        10f64.powf(self.coupling_db / 20.0)
    }

    /// Linear voltage gain of the unwanted forward-wave leakage.
    pub fn forward_leakage(&self) -> f64 {
        self.backward_gain() * 10f64.powf(-self.directivity_db / 20.0)
    }

    /// The detector voltage for a given backward-wave and forward-wave
    /// amplitude at the coupler.
    pub fn detect(&self, backward: f64, forward: f64) -> f64 {
        self.backward_gain() * backward + self.forward_leakage() * forward
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_gains() {
        let c = Coupler::default();
        assert!((c.backward_gain() - 0.501187).abs() < 1e-5);
        assert!((c.forward_leakage() - 0.501187 * 0.0316228).abs() < 1e-6);
    }

    #[test]
    fn detect_combines_linearly() {
        let c = Coupler {
            coupling_db: 0.0,
            directivity_db: 20.0,
        };
        let v = c.detect(0.01, 0.5);
        assert!((v - (0.01 + 0.05)).abs() < 1e-12);
    }

    #[test]
    fn ideal_coupler_has_no_leakage() {
        let c = Coupler {
            coupling_db: 0.0,
            directivity_db: 300.0,
        };
        assert!(c.forward_leakage() < 1e-14);
        assert!((c.detect(0.02, 10.0) - 0.02).abs() < 1e-12);
    }

    #[test]
    fn leakage_is_common_mode() {
        // The same forward wave produces the same leakage — it cancels in
        // any comparison between two measurements of the same drive.
        let c = Coupler::default();
        let a = c.detect(0.01, 0.45);
        let b = c.detect(0.02, 0.45);
        assert!(((b - a) - c.backward_gain() * 0.01).abs() < 1e-12);
    }
}
