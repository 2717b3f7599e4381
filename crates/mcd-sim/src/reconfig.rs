//! Per-domain DVFS state and the reconfiguration register.
//!
//! A running program (or the on-line hardware controller) initiates a
//! reconfiguration by writing to a special control register. The write itself
//! incurs no idle time: the processor keeps executing while each domain's
//! frequency ramps toward its target at the rate of the [`RampModel`].

use crate::domain::{Domain, PerDomain};
use crate::freq::{FrequencyGrid, RampModel, VoltageMap};
use crate::time::{MegaHertz, TimeNs, Volts};

/// A requested frequency for each of the four scalable domains.
///
/// This is the value written to the MCD reconfiguration register: a single,
/// unprivileged write that sets all four domain targets at once.
///
/// ```
/// use mcd_sim::reconfig::FrequencySetting;
/// use mcd_sim::domain::Domain;
/// use mcd_sim::time::MegaHertz;
/// let s = FrequencySetting::full_speed()
///     .with(Domain::FloatingPoint, MegaHertz::new(250.0));
/// assert_eq!(s.get(Domain::FloatingPoint), MegaHertz::new(250.0));
/// assert_eq!(s.get(Domain::Integer), MegaHertz::new(1000.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencySetting {
    freqs: PerDomain<MegaHertz>,
}

impl FrequencySetting {
    /// All scalable domains at 1 GHz.
    pub fn full_speed() -> Self {
        FrequencySetting {
            freqs: PerDomain::splat(MegaHertz::new(1000.0)),
        }
    }

    /// All scalable domains at the same frequency (used by the global-DVS baseline).
    pub fn uniform(f: MegaHertz) -> Self {
        FrequencySetting {
            freqs: PerDomain::splat(f),
        }
    }

    /// Creates a setting from explicit per-domain frequencies.
    pub fn from_per_domain(freqs: PerDomain<MegaHertz>) -> Self {
        FrequencySetting { freqs }
    }

    /// Returns the requested frequency for `domain`.
    ///
    /// The external memory domain always reports 1 GHz (it cannot be scaled).
    pub fn get(&self, domain: Domain) -> MegaHertz {
        if domain.is_scalable() {
            self.freqs[domain]
        } else {
            MegaHertz::new(1000.0)
        }
    }

    /// Returns a copy with `domain` set to `f`. Setting the external domain is a no-op.
    pub fn with(mut self, domain: Domain, f: MegaHertz) -> Self {
        if domain.is_scalable() {
            self.freqs[domain] = f;
        }
        self
    }

    /// Quantizes every domain's request onto the hardware frequency grid
    /// (rounding up, so a slowdown bound computed on the continuous value still
    /// holds).
    pub fn quantized(&self, grid: &FrequencyGrid) -> Self {
        FrequencySetting {
            freqs: self.freqs.map(|_, f| grid.quantize_up(*f)),
        }
    }

    /// True if every scalable domain is at the grid maximum.
    pub fn is_full_speed(&self, grid: &FrequencyGrid) -> bool {
        Domain::SCALABLE
            .iter()
            .all(|&d| (self.get(d).as_mhz() - grid.max().as_mhz()).abs() < 1e-9)
    }
}

impl Default for FrequencySetting {
    fn default() -> Self {
        FrequencySetting::full_speed()
    }
}

/// DVFS state of a single domain: where its frequency currently is, where it is
/// heading, and when the most recent ramp started.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DomainDvfs {
    /// Frequency at the moment the current ramp started.
    start_freq: MegaHertz,
    /// Target of the current ramp.
    target_freq: MegaHertz,
    /// Wall-clock time the current ramp started.
    ramp_start: TimeNs,
}

impl DomainDvfs {
    fn at_full_speed() -> Self {
        DomainDvfs {
            start_freq: MegaHertz::new(1000.0),
            target_freq: MegaHertz::new(1000.0),
            ramp_start: TimeNs::ZERO,
        }
    }
}

/// The dynamic voltage and frequency scaling engine for all domains.
///
/// Tracks the (ramping) frequency and matching voltage of each domain as a
/// function of wall-clock time, and accepts reconfiguration-register writes.
///
/// Time must advance monotonically across calls that take a `now` parameter;
/// the engine samples the ramp at the query time.
///
/// ```
/// use mcd_sim::reconfig::{DvfsEngine, FrequencySetting};
/// use mcd_sim::domain::Domain;
/// use mcd_sim::time::{MegaHertz, TimeNs};
/// let mut dvfs = DvfsEngine::default();
/// let target = FrequencySetting::full_speed().with(Domain::Integer, MegaHertz::new(500.0));
/// dvfs.write_register(target, TimeNs::ZERO);
/// // Immediately after the write the integer domain is still near 1 GHz...
/// assert!(dvfs.frequency(Domain::Integer, TimeNs::new(1.0)).as_mhz() > 990.0);
/// // ...and long after the ramp (500 MHz swing * 73.3 ns/MHz ~ 37 us) it reaches 500 MHz.
/// assert_eq!(dvfs.frequency(Domain::Integer, TimeNs::from_us(100.0)).as_mhz(), 500.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsEngine {
    grid: FrequencyGrid,
    voltage_map: VoltageMap,
    ramp: RampModel,
    domains: PerDomain<DomainDvfs>,
    register_writes: u64,
}

impl DvfsEngine {
    /// Creates a DVFS engine with the given grid, voltage map and ramp model.
    pub fn new(grid: FrequencyGrid, voltage_map: VoltageMap, ramp: RampModel) -> Self {
        DvfsEngine {
            grid,
            voltage_map,
            ramp,
            domains: PerDomain::splat(DomainDvfs::at_full_speed()),
            register_writes: 0,
        }
    }

    /// The hardware frequency grid.
    pub fn grid(&self) -> &FrequencyGrid {
        &self.grid
    }

    /// The frequency→voltage operating map.
    pub fn voltage_map(&self) -> &VoltageMap {
        &self.voltage_map
    }

    /// Number of reconfiguration-register writes accepted so far.
    pub fn register_writes(&self) -> u64 {
        self.register_writes
    }

    /// Writes the reconfiguration register: every scalable domain starts ramping
    /// from its instantaneous frequency at `now` toward the requested setting
    /// (quantized onto the grid). The external domain is unaffected.
    pub fn write_register(&mut self, setting: FrequencySetting, now: TimeNs) {
        let setting = setting.quantized(&self.grid);
        for d in Domain::SCALABLE {
            let current = self.frequency(d, now);
            let state = self.domains.get_mut(d);
            state.start_freq = current;
            state.target_freq = setting.get(d);
            state.ramp_start = now;
        }
        self.register_writes += 1;
    }

    /// Sets every scalable domain to `setting` instantaneously, with no ramp.
    ///
    /// This models a program that begins execution with the domains already at
    /// their requested operating points (e.g. the global-DVS baseline, or the
    /// state at the start of a simulation window).
    pub fn set_immediate(&mut self, setting: FrequencySetting) {
        let setting = setting.quantized(&self.grid);
        for d in Domain::SCALABLE {
            let state = self.domains.get_mut(d);
            state.start_freq = setting.get(d);
            state.target_freq = setting.get(d);
            state.ramp_start = TimeNs::ZERO;
        }
    }

    /// The instantaneous frequency of `domain` at time `now`.
    ///
    /// The external domain always runs at 1 GHz.
    pub fn frequency(&self, domain: Domain, now: TimeNs) -> MegaHertz {
        if !domain.is_scalable() {
            return MegaHertz::new(1000.0);
        }
        let st = self.domains[domain];
        let elapsed = now.saturating_sub(st.ramp_start);
        self.ramp
            .frequency_after(st.start_freq, st.target_freq, elapsed)
    }

    /// The instantaneous supply voltage of `domain` at time `now`.
    pub fn voltage(&self, domain: Domain, now: TimeNs) -> Volts {
        self.voltage_map.voltage_for(self.frequency(domain, now))
    }

    /// The dynamic-energy scale factor `(V/Vmax)^2` of `domain` at time `now`.
    pub fn energy_scale(&self, domain: Domain, now: TimeNs) -> f64 {
        self.voltage_map.energy_scale(self.frequency(domain, now))
    }

    /// The target frequency the domain is ramping toward (or sitting at).
    pub fn target(&self, domain: Domain) -> MegaHertz {
        if domain.is_scalable() {
            self.domains[domain].target_freq
        } else {
            MegaHertz::new(1000.0)
        }
    }

    /// The current targets of all scalable domains as a [`FrequencySetting`].
    pub fn targets(&self) -> FrequencySetting {
        let mut s = FrequencySetting::full_speed();
        for d in Domain::SCALABLE {
            s = s.with(d, self.target(d));
        }
        s
    }

    /// Converts a duration of `cycles` domain cycles starting at `start` into
    /// wall-clock time, using the domain's instantaneous frequency at `start`.
    ///
    /// Frequency ramps are slow (tens of microseconds) relative to individual
    /// events (a handful of cycles), so sampling at the start of the span is an
    /// accurate approximation.
    pub fn cycles_to_time(&self, domain: Domain, cycles: f64, start: TimeNs) -> TimeNs {
        self.frequency(domain, start).cycles_to_time(cycles)
    }
}

impl Default for DvfsEngine {
    fn default() -> Self {
        DvfsEngine::new(
            FrequencyGrid::default(),
            VoltageMap::default(),
            RampModel::default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setting_defaults_to_full_speed() {
        let s = FrequencySetting::default();
        for d in Domain::SCALABLE {
            assert_eq!(s.get(d), MegaHertz::new(1000.0));
        }
        assert_eq!(s.get(Domain::External), MegaHertz::new(1000.0));
        assert!(s.is_full_speed(&FrequencyGrid::default()));
    }

    #[test]
    fn setting_external_domain_is_noop() {
        let s = FrequencySetting::full_speed().with(Domain::External, MegaHertz::new(250.0));
        assert_eq!(s.get(Domain::External), MegaHertz::new(1000.0));
    }

    #[test]
    fn setting_quantizes_up() {
        let grid = FrequencyGrid::default();
        let s = FrequencySetting::uniform(MegaHertz::new(333.0)).quantized(&grid);
        for d in Domain::SCALABLE {
            assert_eq!(s.get(d), MegaHertz::new(350.0));
        }
    }

    #[test]
    fn engine_ramps_toward_target() {
        let mut dvfs = DvfsEngine::default();
        let t0 = TimeNs::ZERO;
        dvfs.write_register(
            FrequencySetting::full_speed().with(Domain::Memory, MegaHertz::new(500.0)),
            t0,
        );
        let f_early = dvfs.frequency(Domain::Memory, TimeNs::from_us(1.0));
        let f_mid = dvfs.frequency(Domain::Memory, TimeNs::from_us(18.0));
        let f_late = dvfs.frequency(Domain::Memory, TimeNs::from_us(40.0));
        assert!(f_early.as_mhz() > f_mid.as_mhz());
        assert!(f_mid.as_mhz() > 500.0);
        assert_eq!(f_late, MegaHertz::new(500.0));
        // Other domains unaffected.
        assert_eq!(
            dvfs.frequency(Domain::Integer, TimeNs::from_us(40.0)),
            MegaHertz::new(1000.0)
        );
        assert_eq!(dvfs.register_writes(), 1);
    }

    #[test]
    fn engine_retarget_mid_ramp_starts_from_instantaneous_frequency() {
        let mut dvfs = DvfsEngine::default();
        dvfs.write_register(
            FrequencySetting::uniform(MegaHertz::new(250.0)),
            TimeNs::ZERO,
        );
        // Halfway through the downward ramp, retarget back to full speed.
        let mid = TimeNs::from_us(27.0);
        let f_mid = dvfs.frequency(Domain::Integer, mid);
        assert!(f_mid.as_mhz() < 1000.0 && f_mid.as_mhz() > 250.0);
        dvfs.write_register(FrequencySetting::full_speed(), mid);
        // Immediately after the retarget we are still near f_mid.
        let f_after = dvfs.frequency(Domain::Integer, mid + TimeNs::new(10.0));
        assert!((f_after.as_mhz() - f_mid.as_mhz()).abs() < 5.0);
        // And eventually back at 1 GHz.
        assert_eq!(
            dvfs.frequency(Domain::Integer, TimeNs::from_us(200.0)),
            MegaHertz::new(1000.0)
        );
    }

    #[test]
    fn voltage_follows_frequency() {
        let mut dvfs = DvfsEngine::default();
        dvfs.write_register(
            FrequencySetting::uniform(MegaHertz::new(250.0)),
            TimeNs::ZERO,
        );
        let late = TimeNs::from_us(100.0);
        let v = dvfs.voltage(Domain::FloatingPoint, late);
        assert!((v.as_volts() - 0.65).abs() < 1e-9);
        let scale = dvfs.energy_scale(Domain::FloatingPoint, late);
        assert!((scale - (0.65f64 / 1.2).powi(2)).abs() < 1e-9);
        // External domain never scales.
        assert!((dvfs.energy_scale(Domain::External, late) - 1.0).abs() < 1e-12);
    }
}
