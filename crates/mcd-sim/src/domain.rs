//! Clock domains of the MCD processor.
//!
//! The architecture of Semeraro et al. (HPCA 2002) divides the chip into four
//! independently clocked domains — front end, integer, floating point, and
//! memory — plus external main memory, which always runs at full speed and is
//! treated as a fifth, non-scalable domain.

use std::fmt;

/// One of the clock domains of the MCD processor.
///
/// The four on-chip domains (`FrontEnd`, `Integer`, `FloatingPoint`, `Memory`)
/// can have their frequency and voltage scaled independently. `External`
/// represents main memory, which always runs at a fixed speed.
///
/// ```
/// use mcd_sim::domain::Domain;
/// assert_eq!(Domain::ALL.len(), 5);
/// assert_eq!(Domain::SCALABLE.len(), 4);
/// assert!(Domain::Integer.is_scalable());
/// assert!(!Domain::External.is_scalable());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Domain {
    /// Fetch unit, L1 I-cache, rename, dispatch, and reorder buffer.
    FrontEnd,
    /// Integer issue queue, integer ALUs and register file.
    Integer,
    /// Floating-point issue queue, FP ALUs and register file.
    FloatingPoint,
    /// Load/store unit, L1 D-cache and unified L2 cache.
    Memory,
    /// External main memory; always runs at full speed.
    External,
}

impl Domain {
    /// All five domains, in canonical order.
    pub const ALL: [Domain; 5] = [
        Domain::FrontEnd,
        Domain::Integer,
        Domain::FloatingPoint,
        Domain::Memory,
        Domain::External,
    ];

    /// The four on-chip domains whose frequency and voltage can be scaled.
    pub const SCALABLE: [Domain; 4] = [
        Domain::FrontEnd,
        Domain::Integer,
        Domain::FloatingPoint,
        Domain::Memory,
    ];

    /// Number of domains (including the external memory domain).
    pub const COUNT: usize = 5;

    /// Number of scalable on-chip domains.
    pub const SCALABLE_COUNT: usize = 4;

    /// A compact index in `0..Domain::COUNT`, suitable for array indexing.
    pub fn index(self) -> usize {
        match self {
            Domain::FrontEnd => 0,
            Domain::Integer => 1,
            Domain::FloatingPoint => 2,
            Domain::Memory => 3,
            Domain::External => 4,
        }
    }

    /// The inverse of [`Domain::index`]. Returns `None` for out-of-range indices.
    pub fn from_index(index: usize) -> Option<Domain> {
        Domain::ALL.get(index).copied()
    }

    /// Whether this domain's frequency and voltage can be changed at run time.
    pub fn is_scalable(self) -> bool {
        !matches!(self, Domain::External)
    }

    /// Short mnemonic used in reports and traces.
    pub fn short_name(self) -> &'static str {
        match self {
            Domain::FrontEnd => "fe",
            Domain::Integer => "int",
            Domain::FloatingPoint => "fp",
            Domain::Memory => "mem",
            Domain::External => "ext",
        }
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Domain::FrontEnd => "front-end",
            Domain::Integer => "integer",
            Domain::FloatingPoint => "floating-point",
            Domain::Memory => "memory",
            Domain::External => "external",
        };
        f.write_str(name)
    }
}

/// A value of type `T` stored per domain (including the external domain).
///
/// This is the workhorse container for per-domain frequencies, energies and
/// statistics. Indexing is by [`Domain`], which cannot be out of range.
///
/// ```
/// use mcd_sim::domain::{Domain, PerDomain};
/// let mut counts: PerDomain<u64> = PerDomain::default();
/// counts[Domain::Memory] += 3;
/// assert_eq!(counts[Domain::Memory], 3);
/// assert_eq!(counts[Domain::Integer], 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PerDomain<T> {
    values: [T; Domain::COUNT],
}

impl<T> PerDomain<T> {
    /// Creates a per-domain container by evaluating `f` for each domain.
    pub fn from_fn(mut f: impl FnMut(Domain) -> T) -> Self {
        PerDomain {
            values: [
                f(Domain::FrontEnd),
                f(Domain::Integer),
                f(Domain::FloatingPoint),
                f(Domain::Memory),
                f(Domain::External),
            ],
        }
    }

    /// Returns a reference to the value for `domain`.
    pub fn get(&self, domain: Domain) -> &T {
        &self.values[domain.index()]
    }

    /// Returns a mutable reference to the value for `domain`.
    pub fn get_mut(&mut self, domain: Domain) -> &mut T {
        &mut self.values[domain.index()]
    }

    /// Iterates over `(Domain, &T)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (Domain, &T)> {
        Domain::ALL
            .iter()
            .map(move |&d| (d, &self.values[d.index()]))
    }

    /// Iterates over `(Domain, &mut T)` pairs in canonical order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Domain, &mut T)> {
        self.values
            .iter_mut()
            .enumerate()
            .map(|(i, v)| (Domain::from_index(i).expect("index in range"), v))
    }

    /// Maps each per-domain value through `f`, producing a new container.
    pub fn map<U>(&self, mut f: impl FnMut(Domain, &T) -> U) -> PerDomain<U> {
        PerDomain::from_fn(|d| f(d, self.get(d)))
    }
}

impl<T: Clone> PerDomain<T> {
    /// Creates a per-domain container with the same value for every domain.
    pub fn splat(value: T) -> Self {
        PerDomain {
            values: [
                value.clone(),
                value.clone(),
                value.clone(),
                value.clone(),
                value,
            ],
        }
    }
}

impl<T> std::ops::Index<Domain> for PerDomain<T> {
    type Output = T;
    fn index(&self, domain: Domain) -> &T {
        self.get(domain)
    }
}

impl<T> std::ops::IndexMut<Domain> for PerDomain<T> {
    fn index_mut(&mut self, domain: Domain) -> &mut T {
        self.get_mut(domain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for d in Domain::ALL {
            assert_eq!(Domain::from_index(d.index()), Some(d));
        }
        assert_eq!(Domain::from_index(Domain::COUNT), None);
    }

    #[test]
    fn scalability() {
        for d in Domain::SCALABLE {
            assert!(d.is_scalable());
        }
        assert!(!Domain::External.is_scalable());
        assert_eq!(Domain::SCALABLE.len(), Domain::SCALABLE_COUNT);
    }

    #[test]
    fn display_and_short_names_unique() {
        let mut names: Vec<String> = Domain::ALL.iter().map(|d| d.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Domain::COUNT);

        let mut shorts: Vec<&str> = Domain::ALL.iter().map(|d| d.short_name()).collect();
        shorts.sort();
        shorts.dedup();
        assert_eq!(shorts.len(), Domain::COUNT);
    }

    #[test]
    fn per_domain_indexing() {
        let mut pd: PerDomain<f64> = PerDomain::splat(1.0);
        pd[Domain::FloatingPoint] = 2.5;
        assert_eq!(pd[Domain::FloatingPoint], 2.5);
        assert_eq!(pd[Domain::FrontEnd], 1.0);

        let doubled = pd.map(|_, v| v * 2.0);
        assert_eq!(doubled[Domain::FloatingPoint], 5.0);
        assert_eq!(doubled[Domain::Memory], 2.0);
    }

    #[test]
    fn per_domain_from_fn_order() {
        let pd = PerDomain::from_fn(|d| d.index());
        for (i, (d, v)) in pd.iter().enumerate() {
            assert_eq!(i, *v);
            assert_eq!(d.index(), *v);
        }
    }

    #[test]
    fn per_domain_iter_mut() {
        let mut pd: PerDomain<u32> = PerDomain::default();
        for (d, v) in pd.iter_mut() {
            *v = d.index() as u32 * 10;
        }
        assert_eq!(pd[Domain::External], 40);
    }
}
