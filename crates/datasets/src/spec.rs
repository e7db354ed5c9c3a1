//! Dataset registry and scaling (paper §6.1, Figure 1).

use crate::generators;
use ldp_numeric::{Histogram, NumericError, SplitMix64};

/// The four evaluation workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Synthetic Beta(5, 2), 100k samples, 256 buckets.
    Beta,
    /// NYC taxi pickup times (synthetic substitute), 2,189,968 samples,
    /// 1024 buckets.
    Taxi,
    /// ACS income (synthetic substitute), 2,308,374 samples, 1024 buckets.
    Income,
    /// SF retirement (synthetic substitute), 178,012 samples, 1024 buckets.
    Retirement,
}

impl DatasetKind {
    /// All four kinds in the paper's presentation order.
    #[must_use]
    pub fn all() -> [DatasetKind; 4] {
        [
            DatasetKind::Beta,
            DatasetKind::Taxi,
            DatasetKind::Income,
            DatasetKind::Retirement,
        ]
    }

    /// Human-readable name matching the paper's figures.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Beta => "Beta(5,2)",
            DatasetKind::Taxi => "Taxi pickup time",
            DatasetKind::Income => "Income",
            DatasetKind::Retirement => "Retirement",
        }
    }

    /// The sample count the paper evaluates with.
    #[must_use]
    pub fn paper_n(&self) -> usize {
        match self {
            DatasetKind::Beta => 100_000,
            DatasetKind::Taxi => 2_189_968,
            DatasetKind::Income => 2_308_374,
            DatasetKind::Retirement => 178_012,
        }
    }

    /// The histogram granularity the paper evaluates with.
    #[must_use]
    pub fn paper_buckets(&self) -> usize {
        match self {
            DatasetKind::Beta => 256,
            _ => 1024,
        }
    }

    /// Whether this dataset is spiky (drives the paper's HH-ADMM-vs-EMS
    /// discussion).
    #[must_use]
    pub fn is_spiky(&self) -> bool {
        matches!(self, DatasetKind::Income)
    }
}

/// A reproducible dataset specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Which workload to generate.
    pub kind: DatasetKind,
    /// Number of user values.
    pub n: usize,
    /// Generator seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// The paper-scale specification for a workload.
    #[must_use]
    pub fn paper_scale(kind: DatasetKind, seed: u64) -> Self {
        DatasetSpec {
            kind,
            n: kind.paper_n(),
            seed,
        }
    }

    /// A down-scaled specification (`scale ∈ (0, 1]` of the paper's n,
    /// with a floor of 10k users).
    #[must_use]
    pub fn scaled(kind: DatasetKind, scale: f64, seed: u64) -> Self {
        let n = ((kind.paper_n() as f64 * scale.clamp(0.0, 1.0)) as usize).max(10_000);
        DatasetSpec { kind, n, seed }
    }

    /// Materializes the dataset.
    #[must_use]
    pub fn generate(&self) -> Dataset {
        let mut rng = SplitMix64::new(self.seed);
        let values = match self.kind {
            DatasetKind::Beta => generators::beta_5_2(self.n, &mut rng),
            DatasetKind::Taxi => generators::taxi_like(self.n, &mut rng),
            DatasetKind::Income => generators::income_like(self.n, &mut rng),
            DatasetKind::Retirement => generators::retirement_like(self.n, &mut rng),
        };
        Dataset {
            kind: self.kind,
            values,
        }
    }
}

/// A materialized workload: user values in `[0, 1]`.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Which workload this is.
    pub kind: DatasetKind,
    /// Private user values in `[0, 1]`.
    pub values: Vec<f64>,
}

impl Dataset {
    /// Number of users.
    #[must_use]
    pub fn n(&self) -> usize {
        self.values.len()
    }

    /// The ground-truth histogram at granularity `d`.
    pub fn histogram(&self, d: usize) -> Result<Histogram, NumericError> {
        Histogram::from_samples(&self.values, d)
    }

    /// The ground-truth histogram at the paper's granularity.
    pub fn paper_histogram(&self) -> Result<Histogram, NumericError> {
        self.histogram(self.kind.paper_buckets())
    }

    /// Bucket indices of every value at granularity `d` (for the
    /// bucket-domain methods: binning, HH, HaarHRR).
    #[must_use]
    pub fn bucket_values(&self, d: usize) -> Vec<usize> {
        self.values
            .iter()
            .map(|&v| ldp_numeric::histogram::bucket_of(v, d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_paper() {
        assert_eq!(DatasetKind::Beta.paper_n(), 100_000);
        assert_eq!(DatasetKind::Taxi.paper_n(), 2_189_968);
        assert_eq!(DatasetKind::Income.paper_n(), 2_308_374);
        assert_eq!(DatasetKind::Retirement.paper_n(), 178_012);
        assert_eq!(DatasetKind::Beta.paper_buckets(), 256);
        assert_eq!(DatasetKind::Taxi.paper_buckets(), 1024);
        assert!(DatasetKind::Income.is_spiky());
        assert!(!DatasetKind::Taxi.is_spiky());
        assert_eq!(DatasetKind::all().len(), 4);
    }

    #[test]
    fn scaled_spec_respects_floor_and_cap() {
        let s = DatasetSpec::scaled(DatasetKind::Beta, 0.001, 1);
        assert_eq!(s.n, 10_000);
        let s = DatasetSpec::scaled(DatasetKind::Taxi, 2.0, 1);
        assert_eq!(s.n, DatasetKind::Taxi.paper_n());
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = DatasetSpec {
            kind: DatasetKind::Retirement,
            n: 5_000,
            seed: 42,
        };
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.values, b.values);
        assert_eq!(a.n(), 5_000);
    }

    #[test]
    fn histogram_and_bucket_values_are_consistent() {
        let spec = DatasetSpec {
            kind: DatasetKind::Beta,
            n: 20_000,
            seed: 7,
        };
        let ds = spec.generate();
        let h = ds.histogram(64).unwrap();
        let buckets = ds.bucket_values(64);
        let mut counts = vec![0u64; 64];
        for b in buckets {
            counts[b] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let frac = c as f64 / ds.n() as f64;
            assert!((frac - h.probs()[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn spec_serializes_roundtrip() {
        // A spec is a plain `Copy` value: a copy compares `Eq` to the
        // original and keeps its workload.
        let spec = DatasetSpec::paper_scale(DatasetKind::Income, 3);
        let copied = spec;
        assert_eq!(spec, copied);
        assert_eq!(spec.kind.name(), "Income");
    }
}
