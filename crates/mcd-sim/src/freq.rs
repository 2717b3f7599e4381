//! Frequency steps, the frequency→voltage map, and the XScale-style ramp model.
//!
//! The MCD processor of the paper scales each domain between 250 MHz and 1 GHz,
//! with supply voltage between 0.65 V and 1.20 V. Frequency changes ramp at
//! 73.3 ns/MHz, so traversing the entire range takes about 55 µs; the processor
//! keeps executing during the change.

use crate::time::{MegaHertz, TimeNs, Volts};

/// The discrete frequency grid available to the reconfiguration hardware.
///
/// The paper's hardware model exposes a modest number of frequency steps
/// (inherited from the XScale-style voltage regulator). We default to 25 MHz
/// steps from 250 MHz to 1000 MHz — 31 settings — which is also the bin width
/// used by the shaker histograms.
///
/// ```
/// use mcd_sim::freq::FrequencyGrid;
/// let grid = FrequencyGrid::default();
/// assert_eq!(grid.len(), 31);
/// assert_eq!(grid.min().as_mhz(), 250.0);
/// assert_eq!(grid.max().as_mhz(), 1000.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyGrid {
    min_mhz: f64,
    max_mhz: f64,
    step_mhz: f64,
}

impl FrequencyGrid {
    /// Creates a frequency grid.
    ///
    /// # Panics
    ///
    /// Panics if `min >= max`, if `step` is not positive, or if the range is not
    /// an integral number of steps.
    pub fn new(min: MegaHertz, max: MegaHertz, step: MegaHertz) -> Self {
        assert!(min.as_mhz() < max.as_mhz(), "min must be below max");
        assert!(step.as_mhz() > 0.0, "step must be positive");
        let span = max.as_mhz() - min.as_mhz();
        let steps = span / step.as_mhz();
        assert!(
            (steps - steps.round()).abs() < 1e-9,
            "range must be an integral number of steps"
        );
        FrequencyGrid {
            min_mhz: min.as_mhz(),
            max_mhz: max.as_mhz(),
            step_mhz: step.as_mhz(),
        }
    }

    /// Lowest available frequency.
    pub fn min(&self) -> MegaHertz {
        MegaHertz::new(self.min_mhz)
    }

    /// Highest available frequency.
    pub fn max(&self) -> MegaHertz {
        MegaHertz::new(self.max_mhz)
    }

    /// Step between adjacent settings.
    pub fn step(&self) -> MegaHertz {
        MegaHertz::new(self.step_mhz)
    }

    /// Number of settings in the grid.
    pub fn len(&self) -> usize {
        ((self.max_mhz - self.min_mhz) / self.step_mhz).round() as usize + 1
    }

    /// Always false: a grid has at least two settings by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The `i`-th setting, lowest first.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn setting(&self, i: usize) -> MegaHertz {
        assert!(i < self.len(), "setting index {i} out of range");
        MegaHertz::new(self.min_mhz + i as f64 * self.step_mhz)
    }

    /// Iterates over all settings, lowest first.
    pub fn iter(&self) -> impl Iterator<Item = MegaHertz> + '_ {
        (0..self.len()).map(move |i| self.setting(i))
    }

    /// Index of the lowest setting that is `>= f` (clamped to the grid).
    pub fn index_at_or_above(&self, f: MegaHertz) -> usize {
        if f.as_mhz() <= self.min_mhz {
            return 0;
        }
        if f.as_mhz() >= self.max_mhz {
            return self.len() - 1;
        }
        (((f.as_mhz() - self.min_mhz) / self.step_mhz).ceil()) as usize
    }

    /// The lowest grid setting that is `>= f` (clamped to the grid).
    ///
    /// This is the quantization used when a continuous "ideal" frequency from
    /// the shaker must be realized in hardware: rounding up never violates the
    /// slowdown bound.
    pub fn quantize_up(&self, f: MegaHertz) -> MegaHertz {
        self.setting(self.index_at_or_above(f))
    }

    /// The nearest grid setting to `f` (clamped to the grid).
    pub fn quantize_nearest(&self, f: MegaHertz) -> MegaHertz {
        let clamped = f.as_mhz().clamp(self.min_mhz, self.max_mhz);
        let i = ((clamped - self.min_mhz) / self.step_mhz).round() as usize;
        self.setting(i.min(self.len() - 1))
    }
}

impl Default for FrequencyGrid {
    fn default() -> Self {
        FrequencyGrid::new(
            MegaHertz::new(250.0),
            MegaHertz::new(1000.0),
            MegaHertz::new(25.0),
        )
    }
}

/// The frequency→voltage operating map.
///
/// Voltage scales linearly with frequency between (250 MHz, 0.65 V) and
/// (1 GHz, 1.20 V), following the compressed-XScale model the paper assumes.
///
/// ```
/// use mcd_sim::freq::VoltageMap;
/// use mcd_sim::time::MegaHertz;
/// let map = VoltageMap::default();
/// assert!((map.voltage_for(MegaHertz::new(1000.0)).as_volts() - 1.2).abs() < 1e-9);
/// assert!((map.voltage_for(MegaHertz::new(250.0)).as_volts() - 0.65).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageMap {
    min_freq_mhz: f64,
    max_freq_mhz: f64,
    min_volts: f64,
    max_volts: f64,
}

impl VoltageMap {
    /// Creates a voltage map between two operating points.
    ///
    /// # Panics
    ///
    /// Panics if the frequency or voltage ranges are inverted or degenerate.
    pub fn new(
        min_freq: MegaHertz,
        max_freq: MegaHertz,
        min_volts: Volts,
        max_volts: Volts,
    ) -> Self {
        assert!(
            min_freq.as_mhz() < max_freq.as_mhz(),
            "frequency range inverted"
        );
        assert!(
            min_volts.as_volts() < max_volts.as_volts(),
            "voltage range inverted"
        );
        VoltageMap {
            min_freq_mhz: min_freq.as_mhz(),
            max_freq_mhz: max_freq.as_mhz(),
            min_volts: min_volts.as_volts(),
            max_volts: max_volts.as_volts(),
        }
    }

    /// The supply voltage required to run at frequency `f` (clamped to the map).
    pub fn voltage_for(&self, f: MegaHertz) -> Volts {
        let fm = f.as_mhz().clamp(self.min_freq_mhz, self.max_freq_mhz);
        let t = (fm - self.min_freq_mhz) / (self.max_freq_mhz - self.min_freq_mhz);
        Volts::new(self.min_volts + t * (self.max_volts - self.min_volts))
    }

    /// The lowest frequency operating point of the map.
    pub fn min_frequency(&self) -> MegaHertz {
        MegaHertz::new(self.min_freq_mhz)
    }

    /// The highest frequency operating point of the map.
    pub fn max_frequency(&self) -> MegaHertz {
        MegaHertz::new(self.max_freq_mhz)
    }

    /// The maximum (reference) voltage of the map.
    pub fn max_voltage(&self) -> Volts {
        Volts::new(self.max_volts)
    }

    /// The minimum voltage of the map.
    pub fn min_voltage(&self) -> Volts {
        Volts::new(self.min_volts)
    }

    /// Dynamic-energy scale factor `(V(f)/Vmax)^2` of running at frequency `f`.
    pub fn energy_scale(&self, f: MegaHertz) -> f64 {
        self.voltage_for(f).squared_ratio(self.max_voltage())
    }
}

impl Default for VoltageMap {
    fn default() -> Self {
        VoltageMap::new(
            MegaHertz::new(250.0),
            MegaHertz::new(1000.0),
            Volts::new(0.65),
            Volts::new(1.20),
        )
    }
}

/// The XScale-style frequency ramp: a domain's frequency moves toward its target
/// at a fixed rate (ns per MHz of change) while execution continues.
///
/// ```
/// use mcd_sim::freq::RampModel;
/// use mcd_sim::time::{MegaHertz, TimeNs};
/// let ramp = RampModel::default();
/// // Full swing 250 -> 1000 MHz takes about 55 us.
/// let t = ramp.transition_time(MegaHertz::new(250.0), MegaHertz::new(1000.0));
/// assert!((t.as_us() - 54.975).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampModel {
    ns_per_mhz: f64,
}

impl RampModel {
    /// Creates a ramp model from the change speed in nanoseconds per megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `ns_per_mhz` is not positive.
    pub fn new(ns_per_mhz: f64) -> Self {
        assert!(ns_per_mhz > 0.0, "ramp rate must be positive");
        RampModel { ns_per_mhz }
    }

    /// The change speed in nanoseconds per megahertz.
    pub fn ns_per_mhz(&self) -> f64 {
        self.ns_per_mhz
    }

    /// Time to move from frequency `from` to frequency `to`.
    pub fn transition_time(&self, from: MegaHertz, to: MegaHertz) -> TimeNs {
        TimeNs::new((to.as_mhz() - from.as_mhz()).abs() * self.ns_per_mhz)
    }

    /// The frequency reached after ramping from `from` toward `to` for `elapsed`.
    pub fn frequency_after(&self, from: MegaHertz, to: MegaHertz, elapsed: TimeNs) -> MegaHertz {
        on_ramp(from, to, self.transition_time(from, to), elapsed).unwrap_or(to)
    }
}

/// The frequency `elapsed` into a ramp of length `ramp_len` from `from` toward
/// `to`, or `None` once the ramp has ended (a zero-length ramp ends at once).
#[inline]
pub(crate) fn on_ramp(
    from: MegaHertz,
    to: MegaHertz,
    ramp_len: TimeNs,
    elapsed: TimeNs,
) -> Option<MegaHertz> {
    if ramp_len.is_zero() || elapsed >= ramp_len {
        return None;
    }
    let progress = elapsed.as_ns() / ramp_len.as_ns();
    Some(MegaHertz::new(
        from.as_mhz() + (to.as_mhz() - from.as_mhz()) * progress,
    ))
}

impl Default for RampModel {
    fn default() -> Self {
        // Table 1: frequency change speed 73.3 ns/MHz.
        RampModel::new(73.3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_settings_cover_range() {
        let grid = FrequencyGrid::default();
        let all: Vec<MegaHertz> = grid.iter().collect();
        assert_eq!(all.len(), 31);
        assert_eq!(all[0], MegaHertz::new(250.0));
        assert_eq!(all[30], MegaHertz::new(1000.0));
        assert_eq!(all[1], MegaHertz::new(275.0));
    }

    #[test]
    fn grid_quantize_up() {
        let grid = FrequencyGrid::default();
        assert_eq!(
            grid.quantize_up(MegaHertz::new(251.0)),
            MegaHertz::new(275.0)
        );
        assert_eq!(
            grid.quantize_up(MegaHertz::new(275.0)),
            MegaHertz::new(275.0)
        );
        assert_eq!(
            grid.quantize_up(MegaHertz::new(100.0)),
            MegaHertz::new(250.0)
        );
        assert_eq!(
            grid.quantize_up(MegaHertz::new(5000.0)),
            MegaHertz::new(1000.0)
        );
    }

    #[test]
    fn grid_quantize_nearest() {
        let grid = FrequencyGrid::default();
        assert_eq!(
            grid.quantize_nearest(MegaHertz::new(260.0)),
            MegaHertz::new(250.0)
        );
        assert_eq!(
            grid.quantize_nearest(MegaHertz::new(264.0)),
            MegaHertz::new(275.0)
        );
        assert_eq!(
            grid.quantize_nearest(MegaHertz::new(999.0)),
            MegaHertz::new(1000.0)
        );
    }

    #[test]
    #[should_panic]
    fn grid_rejects_inverted_range() {
        let _ = FrequencyGrid::new(
            MegaHertz::new(1000.0),
            MegaHertz::new(250.0),
            MegaHertz::new(25.0),
        );
    }

    #[test]
    fn voltage_map_endpoints_and_midpoint() {
        let map = VoltageMap::default();
        assert!((map.voltage_for(MegaHertz::new(625.0)).as_volts() - 0.925).abs() < 1e-9);
        // Clamping below/above the range.
        assert_eq!(map.voltage_for(MegaHertz::new(100.0)), map.min_voltage());
        assert_eq!(map.voltage_for(MegaHertz::new(1500.0)), map.max_voltage());
    }

    #[test]
    fn voltage_energy_scale_quadratic() {
        let map = VoltageMap::default();
        let scale = map.energy_scale(MegaHertz::new(250.0));
        let expect = (0.65f64 / 1.2).powi(2);
        assert!((scale - expect).abs() < 1e-9);
        assert!((map.energy_scale(MegaHertz::new(1000.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ramp_full_swing_is_about_55_us() {
        let ramp = RampModel::default();
        let t = ramp.transition_time(MegaHertz::new(1000.0), MegaHertz::new(250.0));
        assert!(t.as_us() > 54.0 && t.as_us() < 56.0);
    }

    #[test]
    fn ramp_interpolates_linearly() {
        let ramp = RampModel::new(10.0);
        let from = MegaHertz::new(400.0);
        let to = MegaHertz::new(800.0);
        // Full transition: 400 MHz * 10 ns = 4000 ns.
        let half = ramp.frequency_after(from, to, TimeNs::new(2000.0));
        assert!((half.as_mhz() - 600.0).abs() < 1e-9);
        let done = ramp.frequency_after(from, to, TimeNs::new(10_000.0));
        assert_eq!(done, to);
        let none = ramp.frequency_after(from, from, TimeNs::new(5.0));
        assert_eq!(none, from);
    }
}
