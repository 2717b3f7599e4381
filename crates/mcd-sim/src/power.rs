//! Wattch-style energy accounting.
//!
//! The model is relative rather than absolute: each domain has a per-cycle
//! *active* energy weight (charged for cycles during which the domain performs
//! work on behalf of an instruction) and a per-cycle *idle* energy weight
//! (clock distribution and always-on structures, charged for every cycle the
//! domain's clock ticks). Both are scaled by `(V/Vmax)^2` of the domain's
//! instantaneous voltage. Lowering a domain's frequency therefore saves energy
//! twice over — each unit of work is cheaper at the lower voltage, and fewer
//! idle cycles occur per unit of wall-clock time — while extending run time
//! charges extra idle energy in every *other* domain.
//!
//! The relative per-domain weights approximate the breakdown reported for
//! Alpha-21264-class processors by Wattch: front end (fetch, I-cache, rename,
//! ROB) ≈ 22%, integer core ≈ 24%, floating-point core ≈ 14%, memory system
//! (LSQ, D-cache, L2) ≈ 32%, external/main memory interface ≈ 8%.

use crate::domain::{Domain, PerDomain};
use crate::time::{Energy, MegaHertz, TimeNs};

/// Per-domain energy weights of the power model.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    /// Energy per *active* domain cycle, at full voltage, in arbitrary units.
    active_per_cycle: PerDomain<f64>,
    /// Energy per domain cycle (active or not), at full voltage — the clock
    /// tree and always-on fraction.
    idle_per_cycle: PerDomain<f64>,
}

impl PowerModel {
    /// Creates a power model from explicit per-domain weights.
    pub fn new(active_per_cycle: PerDomain<f64>, idle_per_cycle: PerDomain<f64>) -> Self {
        PowerModel {
            active_per_cycle,
            idle_per_cycle,
        }
    }

    /// The relative power weight of a domain (used as the shaker's per-event
    /// power factor).
    pub fn power_factor(&self, domain: Domain) -> f64 {
        self.active_per_cycle[domain]
    }

    /// Energy of `cycles` cycles of active work in `domain` at voltage scale
    /// `v_scale` (`(V/Vmax)^2`).
    pub fn active_energy(&self, domain: Domain, cycles: f64, v_scale: f64) -> Energy {
        Energy::new(self.active_per_cycle[domain] * cycles * v_scale)
    }

    /// Idle (clock) energy of a domain running at frequency `freq` for
    /// wall-clock duration `span` at voltage scale `v_scale`.
    pub fn idle_energy(
        &self,
        domain: Domain,
        freq: MegaHertz,
        span: TimeNs,
        v_scale: f64,
    ) -> Energy {
        let cycles = freq.time_to_cycles(span);
        Energy::new(self.idle_per_cycle[domain] * cycles * v_scale)
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        // Active weights: relative energy per cycle of work in each domain.
        let active = PerDomain::from_fn(|d| match d {
            Domain::FrontEnd => 0.22,
            Domain::Integer => 0.24,
            Domain::FloatingPoint => 0.14,
            Domain::Memory => 0.32,
            Domain::External => 0.08,
        });
        // Idle/clock energy: roughly 35% of the domain's active weight is burned
        // every cycle whether or not useful work happens (clock tree, bypass
        // networks, static structures clocked every cycle).
        let idle = active.map(|_, w| w * 0.35);
        PowerModel::new(active, idle)
    }
}

/// Running energy account for one simulation.
#[derive(Debug, Clone, Default)]
pub struct EnergyAccount {
    active: PerDomain<f64>,
    idle: PerDomain<f64>,
    active_cycles: PerDomain<f64>,
}

impl EnergyAccount {
    /// Creates an empty account.
    pub fn new() -> Self {
        EnergyAccount::default()
    }

    /// Charges active work.
    pub fn charge_active(&mut self, domain: Domain, energy: Energy, cycles: f64) {
        self.active[domain] += energy.as_units();
        self.active_cycles[domain] += cycles;
    }

    /// Charges idle/clock energy.
    pub fn charge_idle(&mut self, domain: Domain, energy: Energy) {
        self.idle[domain] += energy.as_units();
    }

    /// Total energy across all domains.
    pub fn total(&self) -> Energy {
        let mut sum = 0.0;
        for d in Domain::ALL {
            sum += self.active[d] + self.idle[d];
        }
        Energy::new(sum)
    }

    /// Total energy charged to one domain.
    pub fn domain_total(&self, domain: Domain) -> Energy {
        Energy::new(self.active[domain] + self.idle[domain])
    }

    /// Active (work) energy charged to one domain.
    pub fn domain_active(&self, domain: Domain) -> Energy {
        Energy::new(self.active[domain])
    }

    /// Idle (clock) energy charged to one domain.
    pub fn domain_idle(&self, domain: Domain) -> Energy {
        Energy::new(self.idle[domain])
    }

    /// Active cycles accumulated in one domain.
    pub fn domain_active_cycles(&self, domain: Domain) -> f64 {
        self.active_cycles[domain]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_weights_sum_to_one() {
        let pm = PowerModel::default();
        let sum: f64 = Domain::ALL.iter().map(|&d| pm.power_factor(d)).sum();
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "active weights should sum to 1, got {sum}"
        );
    }

    #[test]
    fn memory_is_the_most_power_hungry_domain() {
        let pm = PowerModel::default();
        for d in Domain::SCALABLE {
            assert!(pm.power_factor(Domain::Memory) >= pm.power_factor(d));
        }
    }

    #[test]
    fn active_energy_scales_quadratically_with_voltage() {
        let pm = PowerModel::default();
        let full = pm.active_energy(Domain::Integer, 100.0, 1.0);
        let low = pm.active_energy(Domain::Integer, 100.0, 0.29);
        assert!((low.as_units() / full.as_units() - 0.29).abs() < 1e-9);
    }

    #[test]
    fn idle_energy_scales_with_frequency_and_time() {
        let pm = PowerModel::default();
        let slow = pm.idle_energy(
            Domain::FrontEnd,
            MegaHertz::new(250.0),
            TimeNs::new(1000.0),
            1.0,
        );
        let fast = pm.idle_energy(
            Domain::FrontEnd,
            MegaHertz::new(1000.0),
            TimeNs::new(1000.0),
            1.0,
        );
        assert!((fast.as_units() / slow.as_units() - 4.0).abs() < 1e-9);
        let half_time = pm.idle_energy(
            Domain::FrontEnd,
            MegaHertz::new(1000.0),
            TimeNs::new(500.0),
            1.0,
        );
        assert!((fast.as_units() / half_time.as_units() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn account_accumulates_per_domain() {
        let pm = PowerModel::default();
        let mut acct = EnergyAccount::new();
        acct.charge_active(
            Domain::Memory,
            pm.active_energy(Domain::Memory, 10.0, 1.0),
            10.0,
        );
        acct.charge_idle(
            Domain::Memory,
            pm.idle_energy(
                Domain::Memory,
                MegaHertz::new(1000.0),
                TimeNs::new(10.0),
                1.0,
            ),
        );
        acct.charge_active(
            Domain::Integer,
            pm.active_energy(Domain::Integer, 5.0, 1.0),
            5.0,
        );
        assert!(
            acct.domain_total(Domain::Memory).as_units()
                > acct.domain_active(Domain::Memory).as_units()
        );
        assert_eq!(acct.domain_active_cycles(Domain::Memory), 10.0);
        assert_eq!(acct.domain_idle(Domain::Integer).as_units(), 0.0);
        let total = acct.total().as_units();
        let by_domain: f64 = Domain::ALL
            .iter()
            .map(|&d| acct.domain_total(d).as_units())
            .sum();
        assert!((total - by_domain).abs() < 1e-12);
    }
}
