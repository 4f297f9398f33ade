//! Physical-quantity newtypes.
//!
//! Thin, `Copy` wrappers that keep ohms, meters, seconds, volts, hertz, and
//! degrees Celsius from being confused at API boundaries (C-NEWTYPE). They
//! are passive data in the C spirit, so the inner value is public.

use std::fmt;

macro_rules! quantity {
    ($(#[$doc:meta])* $name:ident, $unit:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// The raw numeric value.
            pub fn value(self) -> f64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }

        impl From<f64> for $name {
            fn from(v: f64) -> Self {
                Self(v)
            }
        }

        impl std::ops::Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl std::ops::Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl std::ops::Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }
    };
}

quantity!(
    /// Characteristic impedance in ohms.
    Ohms,
    "Ω"
);
quantity!(
    /// Length or distance in meters.
    Meters,
    "m"
);
quantity!(
    /// Time in seconds.
    Seconds,
    "s"
);
quantity!(
    /// Voltage in volts.
    Volts,
    "V"
);
quantity!(
    /// Frequency in hertz.
    Hertz,
    "Hz"
);
quantity!(
    /// Temperature in degrees Celsius.
    Celsius,
    "°C"
);
quantity!(
    /// Capacitance in farads.
    Farads,
    "F"
);

/// Propagation velocity of an EM wave on a typical FR-4 microstrip, as
/// quoted in the paper (§II-D): about 15 cm/ns.
pub const PCB_VELOCITY_M_PER_S: f64 = 0.15e9;

/// Convert a round-trip time on a line to the distance from the near end,
/// given the propagation velocity: `d = v·t/2` (the `2` accounts for the
/// round trip, Eq. 4's discussion).
pub fn round_trip_time_to_distance(t: Seconds, velocity_m_per_s: f64) -> Meters {
    Meters(velocity_m_per_s * t.0 / 2.0)
}

/// Convert a distance from the near end to the round-trip echo time.
pub fn distance_to_round_trip_time(d: Meters, velocity_m_per_s: f64) -> Seconds {
    Seconds(2.0 * d.0 / velocity_m_per_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Ohms(50.0) + Ohms(2.0);
        assert_eq!(a, Ohms(52.0));
        assert_eq!(Ohms(50.0) - Ohms(10.0), Ohms(40.0));
        assert_eq!(Meters(2.0) * 3.0, Meters(6.0));
        assert_eq!(Seconds(1.5).value(), 1.5);
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(format!("{}", Ohms(50.0)), "50 Ω");
        assert_eq!(format!("{}", Celsius(23.0)), "23 °C");
    }

    #[test]
    fn from_f64() {
        let z: Ohms = 75.0.into();
        assert_eq!(z, Ohms(75.0));
    }

    #[test]
    fn round_trip_distance_conversion() {
        // 25 cm at 15 cm/ns: round trip = 2·0.25/0.15e9 s ≈ 3.33 ns.
        let t = distance_to_round_trip_time(Meters(0.25), PCB_VELOCITY_M_PER_S);
        assert!((t.0 - 3.333e-9).abs() < 1e-11);
        let d = round_trip_time_to_distance(t, PCB_VELOCITY_M_PER_S);
        assert!((d.0 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn paper_spatial_resolution() {
        // §II-D: 11.16 ps phase step at 15 cm/ns ⇒ ~0.837 mm resolution.
        let d = round_trip_time_to_distance(Seconds(11.16e-12), PCB_VELOCITY_M_PER_S);
        assert!((d.0 - 0.837e-3).abs() < 1e-6);
    }
}
