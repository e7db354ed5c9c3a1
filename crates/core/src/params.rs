//! Validated parameter newtypes: [`Epsilon`] and [`Domain`].
//!
//! Every mechanism family in the workspace used to re-implement the same
//! `eps <= 0` and `d < 2` guards behind distinct error variants. These
//! newtypes are the single source of that validation: once a value is
//! wrapped, every downstream consumer can rely on the invariant without
//! re-checking.

use crate::error::CoreError;
use ldp_numeric::rng::mix64;
use std::fmt;

/// A validated privacy budget: positive and finite.
///
/// # Examples
///
/// ```
/// use ldp_core::Epsilon;
///
/// let eps = Epsilon::new(1.0).unwrap();
/// assert_eq!(eps.get(), 1.0);
/// assert!((eps.exp() - 1f64.exp()).abs() < 1e-15);
/// // Non-positive, infinite, and NaN budgets never construct.
/// assert!(Epsilon::new(0.0).is_err());
/// assert!(Epsilon::new(f64::NAN).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Epsilon(f64);

impl Epsilon {
    /// Wraps `eps`, rejecting non-positive, infinite, and NaN budgets.
    pub fn new(eps: f64) -> Result<Self, CoreError> {
        if !(eps > 0.0) || !eps.is_finite() {
            return Err(CoreError::InvalidEpsilon(eps));
        }
        Ok(Epsilon(eps))
    }

    /// The raw budget value.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// `eᵉ`, the likelihood ratio bound every ε-LDP randomizer satisfies.
    #[must_use]
    pub fn exp(self) -> f64 {
        self.0.exp()
    }
}

impl TryFrom<f64> for Epsilon {
    type Error = CoreError;

    fn try_from(eps: f64) -> Result<Self, CoreError> {
        Epsilon::new(eps)
    }
}

impl From<Epsilon> for f64 {
    fn from(eps: Epsilon) -> f64 {
        eps.get()
    }
}

impl fmt::Display for Epsilon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ε={}", self.0)
    }
}

/// A validated categorical/bucketized domain size: at least two values.
///
/// # Examples
///
/// ```
/// use ldp_core::Domain;
///
/// let d = Domain::new(64).unwrap();
/// assert_eq!(d.get(), 64);
/// assert!(d.contains(63));
/// assert!(d.check(64).is_err()); // out of range
/// assert!(Domain::new(1).is_err()); // a 1-value domain carries no signal
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Domain(usize);

impl Domain {
    /// Wraps `size`, rejecting domains with fewer than two values.
    pub fn new(size: usize) -> Result<Self, CoreError> {
        if size < 2 {
            return Err(CoreError::DomainTooSmall(size));
        }
        Ok(Domain(size))
    }

    /// The raw domain size.
    #[must_use]
    pub const fn get(self) -> usize {
        self.0
    }

    /// Whether `index` names a value of this domain.
    #[must_use]
    pub const fn contains(self, index: usize) -> bool {
        index < self.0
    }

    /// Rejects indices outside the domain.
    pub fn check(self, index: usize) -> Result<(), CoreError> {
        if !self.contains(index) {
            return Err(CoreError::InvalidInput(format!(
                "value {index} outside domain of size {}",
                self.0
            )));
        }
        Ok(())
    }
}

impl TryFrom<usize> for Domain {
    type Error = CoreError;

    fn try_from(size: usize) -> Result<Self, CoreError> {
        Domain::new(size)
    }
}

impl From<Domain> for usize {
    fn from(d: Domain) -> usize {
        d.get()
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d={}", self.0)
    }
}

/// Folds a tag and a list of configuration fields into a stable 64-bit
/// fingerprint (SplitMix64 finalizer mixing). Mechanisms use this to detect
/// attempts to merge aggregator shards built for different configurations;
/// it is deterministic across processes and architectures.
#[must_use]
pub fn fingerprint_fields(tag: u64, fields: &[u64]) -> u64 {
    let mut acc = mix64(tag ^ 0x9E37_79B9_7F4A_7C15);
    for &f in fields {
        acc = mix64(acc ^ mix64(f));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_validates() {
        assert!(Epsilon::new(1.0).is_ok());
        assert!(Epsilon::new(0.0).is_err());
        assert!(Epsilon::new(-1.0).is_err());
        assert!(Epsilon::new(f64::NAN).is_err());
        assert!(Epsilon::new(f64::INFINITY).is_err());
        assert_eq!(Epsilon::new(2.0).unwrap().get(), 2.0);
        assert!((Epsilon::new(1.0).unwrap().exp() - 1f64.exp()).abs() < 1e-15);
    }

    #[test]
    fn epsilon_conversions_and_display() {
        let eps: Epsilon = 0.5f64.try_into().unwrap();
        assert_eq!(f64::from(eps), 0.5);
        assert!(eps.to_string().contains("0.5"));
        assert!(Epsilon::try_from(-2.0).is_err());
    }

    #[test]
    fn domain_validates() {
        assert!(Domain::new(2).is_ok());
        assert!(Domain::new(1).is_err());
        assert!(Domain::new(0).is_err());
        let d = Domain::new(4).unwrap();
        assert_eq!(d.get(), 4);
        assert!(d.contains(3));
        assert!(!d.contains(4));
        assert!(d.check(3).is_ok());
        assert!(d.check(4).is_err());
    }

    #[test]
    fn domain_conversions_and_display() {
        let d: Domain = 8usize.try_into().unwrap();
        assert_eq!(usize::from(d), 8);
        assert!(d.to_string().contains('8'));
    }

    #[test]
    fn fingerprints_separate_configurations() {
        let a = fingerprint_fields(1, &[1.0f64.to_bits(), 64]);
        let b = fingerprint_fields(1, &[2.0f64.to_bits(), 64]);
        let c = fingerprint_fields(2, &[1.0f64.to_bits(), 64]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Deterministic.
        assert_eq!(a, fingerprint_fields(1, &[1.0f64.to_bits(), 64]));
    }
}
