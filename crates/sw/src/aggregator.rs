//! Streaming, mergeable report aggregation.
//!
//! A real deployment does not hold all reports in memory: collectors
//! receive perturbed values one at a time, on many shards, and periodically
//! merge partial histograms. [`ShardAggregator`] is that object — a fixed
//! set of output-bucket counters that can be fed incrementally, merged
//! across shards, serialized as plain counts, and finally handed to the
//! EM/EMS reconstruction. Aggregating counts loses nothing: the EM
//! algorithm only ever consumes the report histogram (paper §5.5).

use crate::error::SwError;
use crate::pipeline::SwPipeline;
use ldp_core::snapshot::{
    expect_tag, next_line, parse_fields, parse_snapshot_field, SnapshotState,
};
use ldp_core::CoreError;
use std::fmt::Write;

/// An incremental histogram of perturbed reports for one SW configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardAggregator {
    /// Output domain left edge (-b).
    lo: f64,
    /// Output domain right edge (1 + b).
    hi: f64,
    /// Output granularity d̃.
    counts: Vec<u64>,
}

impl ShardAggregator {
    /// Creates an empty aggregator matching a pipeline's output geometry.
    #[must_use]
    pub fn for_pipeline(pipeline: &SwPipeline) -> Self {
        ShardAggregator {
            lo: pipeline.wave().output_lo(),
            hi: pipeline.wave().output_hi(),
            counts: vec![0; pipeline.output_buckets()],
        }
    }

    /// Number of output buckets.
    #[must_use]
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// Total number of reports absorbed so far.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The raw per-bucket counts.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Whether a report could have been produced by the matching mechanism.
    #[inline]
    fn in_domain(&self, report: f64) -> bool {
        report.is_finite() && report >= self.lo - 1e-12 && report <= self.hi + 1e-12
    }

    /// Output bucket of an in-domain report.
    #[inline]
    fn bucket(&self, report: f64) -> usize {
        let d = self.counts.len();
        let pos = ((report - self.lo) / (self.hi - self.lo) * d as f64) as isize;
        pos.clamp(0, d as isize - 1) as usize
    }

    /// Absorbs one perturbed report. Reports outside the output domain are
    /// rejected — they cannot have been produced by the matching mechanism,
    /// so silently clamping them would let a malformed client skew the
    /// boundary buckets.
    pub fn push(&mut self, report: f64) -> Result<(), SwError> {
        if !self.in_domain(report) {
            return Err(SwError::InvalidParameter(format!(
                "report {report} outside the output domain [{}, {}]",
                self.lo, self.hi
            )));
        }
        let idx = self.bucket(report);
        self.counts[idx] += 1;
        Ok(())
    }

    /// Bulk ingestion: absorbs every report in `reports`, or absorbs
    /// nothing if any report is malformed.
    ///
    /// One validation pass over the slice up front, then a branch-free
    /// counting pass — no per-report `Result` plumbing in the hot loop,
    /// which is what the collector and the experiment runner feed
    /// through. All-or-nothing: on error the aggregator is
    /// unchanged and the message names the first offending index.
    ///
    /// Both passes run through the `ldp_numeric::kernels` AVX2 kernels
    /// when available (`LDP_NO_SIMD=1` forces scalar): ordered compares
    /// reject NaN/out-of-range lanes exactly like [`ShardAggregator::push`]'s
    /// `in_domain` (a finite `r` inside the tolerated bounds passes both
    /// formulations; NaN and infinities fail both), and the bucket pass
    /// performs the identical `sub/div/mul/trunc/clamp` sequence per lane
    /// — bit-identical counts, pinned by the kernel-equivalence suite.
    pub fn push_slice(&mut self, reports: &[f64]) -> Result<(), SwError> {
        let (lo_tol, hi_tol) = (self.lo - 1e-12, self.hi + 1e-12);
        if let Some(bad) = ldp_numeric::kernels::first_out_of_range(reports, lo_tol, hi_tol) {
            return Err(SwError::InvalidParameter(format!(
                "report {} (index {bad}) outside the output domain [{}, {}]",
                reports[bad], self.lo, self.hi
            )));
        }
        ldp_numeric::kernels::bucket_histogram(&mut self.counts, reports, self.lo, self.hi);
        Ok(())
    }

    /// Merges another shard's counts into this one. Both shards must have
    /// been created for the same mechanism configuration.
    pub fn merge(&mut self, other: &ShardAggregator) -> Result<(), SwError> {
        if self.counts.len() != other.counts.len()
            || (self.lo - other.lo).abs() > 1e-12
            || (self.hi - other.hi).abs() > 1e-12
        {
            return Err(SwError::InvalidParameter(
                "cannot merge aggregators with different configurations".into(),
            ));
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        Ok(())
    }

    /// The counts as floats, ready for [`crate::em::reconstruct`].
    #[must_use]
    pub fn to_counts(&self) -> Vec<f64> {
        self.counts.iter().map(|&c| c as f64).collect()
    }
}

/// One line: `sw-shard <lo> <hi> <d̃> <count…>`. The output-domain edges
/// are rendered with Rust's shortest-round-trip `f64` formatting, so the
/// restored aggregator validates incoming reports against bit-identical
/// bounds.
impl SnapshotState for ShardAggregator {
    fn encode_state(&self, out: &mut String) {
        let _ = write!(
            out,
            "sw-shard {} {} {}",
            self.lo,
            self.hi,
            self.counts.len()
        );
        for c in &self.counts {
            let _ = write!(out, " {c}");
        }
        out.push('\n');
    }

    fn decode_state(lines: &mut dyn Iterator<Item = &str>) -> Result<Self, CoreError> {
        let line = next_line(lines, "SW shard state")?;
        let mut it = line.split_whitespace();
        expect_tag(it.next(), "sw-shard")?;
        let lo: f64 = parse_snapshot_field(it.next(), "SW output lo")?;
        let hi: f64 = parse_snapshot_field(it.next(), "SW output hi")?;
        if !lo.is_finite() || !hi.is_finite() || !(lo < hi) {
            return Err(CoreError::Snapshot(format!(
                "SW output domain [{lo}, {hi}] is not a finite interval"
            )));
        }
        let buckets: usize = parse_snapshot_field(it.next(), "SW bucket count")?;
        let counts: Vec<u64> = parse_fields(it, buckets, "SW bucket count entry")?;
        Ok(ShardAggregator { lo, hi, counts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Reconstruction;
    use ldp_numeric::SplitMix64;

    fn pipeline() -> SwPipeline {
        SwPipeline::new(1.0, 64).unwrap()
    }

    #[test]
    fn bucket_covers_output_domain() {
        let p = SwPipeline::new(1.0, 16).unwrap();
        let agg = ShardAggregator::for_pipeline(&p);
        let (lo, hi) = (p.wave().output_lo(), p.wave().output_hi());
        assert_eq!(agg.bucket(lo), 0);
        assert_eq!(agg.bucket(hi), 15);
        // Monotone.
        let mut last = 0;
        for k in 0..=100 {
            let b = agg.bucket(lo + (hi - lo) * k as f64 / 100.0);
            assert!(b >= last);
            last = b;
        }
    }

    #[test]
    fn incremental_matches_batch_aggregation() {
        let p = pipeline();
        let mut rng = SplitMix64::new(5001);
        let values: Vec<f64> = (0..5_000).map(|i| (i % 100) as f64 / 100.0).collect();
        let reports: Vec<f64> = values
            .iter()
            .map(|&v| p.wave().randomize(v, &mut rng).unwrap())
            .collect();
        // The reference histogram, bucketed by hand with the paper's rule.
        let (lo, hi) = (p.wave().output_lo(), p.wave().output_hi());
        let d = p.output_buckets();
        let mut batch = vec![0.0; d];
        for &r in &reports {
            batch[(((r - lo) / (hi - lo) * d as f64) as usize).min(d - 1)] += 1.0;
        }
        let mut agg = ShardAggregator::for_pipeline(&p);
        for &r in &reports {
            agg.push(r).unwrap();
        }
        assert_eq!(agg.total(), reports.len() as u64);
        assert_eq!(agg.to_counts(), batch);
    }

    #[test]
    fn sharded_merge_equals_single_shard() {
        let p = pipeline();
        let mut rng = SplitMix64::new(5002);
        let reports: Vec<f64> = (0..3_000)
            .map(|i| {
                p.wave()
                    .randomize((i % 97) as f64 / 97.0, &mut rng)
                    .unwrap()
            })
            .collect();
        let mut single = ShardAggregator::for_pipeline(&p);
        for &r in &reports {
            single.push(r).unwrap();
        }
        let mut shard_a = ShardAggregator::for_pipeline(&p);
        let mut shard_b = ShardAggregator::for_pipeline(&p);
        for (i, &r) in reports.iter().enumerate() {
            if i % 2 == 0 {
                shard_a.push(r).unwrap();
            } else {
                shard_b.push(r).unwrap();
            }
        }
        shard_a.merge(&shard_b).unwrap();
        assert_eq!(shard_a, single);
    }

    #[test]
    fn push_slice_matches_sequential_pushes() {
        let p = pipeline();
        let mut rng = SplitMix64::new(5004);
        let reports: Vec<f64> = (0..4_000)
            .map(|i| {
                p.wave()
                    .randomize((i % 89) as f64 / 89.0, &mut rng)
                    .unwrap()
            })
            .collect();
        let mut bulk = ShardAggregator::for_pipeline(&p);
        bulk.push_slice(&reports).unwrap();
        let mut seq = ShardAggregator::for_pipeline(&p);
        for &r in &reports {
            seq.push(r).unwrap();
        }
        assert_eq!(bulk, seq);
    }

    #[test]
    fn push_slice_is_all_or_nothing() {
        let p = pipeline();
        let mut agg = ShardAggregator::for_pipeline(&p);
        let err = agg.push_slice(&[0.1, 0.2, f64::INFINITY, 0.3]).unwrap_err();
        assert!(err.to_string().contains("index 2"), "{err}");
        assert_eq!(agg.total(), 0, "failed bulk ingest must not mutate");
        agg.push_slice(&[]).unwrap();
        assert_eq!(agg.total(), 0);
    }

    #[test]
    fn malformed_reports_are_rejected() {
        let p = pipeline();
        let mut agg = ShardAggregator::for_pipeline(&p);
        let b = p.wave().b();
        assert!(agg.push(f64::NAN).is_err());
        assert!(agg.push(-b - 0.5).is_err());
        assert!(agg.push(1.0 + b + 0.5).is_err());
        assert_eq!(agg.total(), 0);
        // Legal boundary values are accepted.
        assert!(agg.push(-b).is_ok());
        assert!(agg.push(1.0 + b).is_ok());
        assert_eq!(agg.total(), 2);
    }

    #[test]
    fn merge_rejects_mismatched_configurations() {
        let a = ShardAggregator::for_pipeline(&pipeline());
        let mut b = ShardAggregator::for_pipeline(&SwPipeline::new(2.0, 64).unwrap());
        assert!(b.merge(&a).is_err());
        let mut c = ShardAggregator::for_pipeline(&SwPipeline::new(1.0, 128).unwrap());
        assert!(c.merge(&a).is_err());
    }

    #[test]
    fn snapshot_state_round_trips_bit_identically() {
        let p = pipeline();
        let mut rng = SplitMix64::new(5005);
        let mut agg = ShardAggregator::for_pipeline(&p);
        for i in 0..2_000 {
            agg.push(
                p.wave()
                    .randomize((i % 83) as f64 / 83.0, &mut rng)
                    .unwrap(),
            )
            .unwrap();
        }
        let mut text = String::new();
        agg.encode_state(&mut text);
        assert_eq!(text.lines().count(), 1);
        let mut lines = text.lines();
        let restored = ShardAggregator::decode_state(&mut lines).unwrap();
        assert_eq!(restored, agg);
        // Continued ingestion behaves identically (domain bounds intact).
        let mut a = agg.clone();
        let mut b = restored;
        let r = p.wave().randomize(0.5, &mut rng).unwrap();
        a.push(r).unwrap();
        b.push(r).unwrap();
        assert_eq!(a, b);
        // Malformed states are rejected.
        let mut it = "sw-shard 0.5 0.5 2 1 2".lines();
        assert!(ShardAggregator::decode_state(&mut it).is_err(), "lo == hi");
        let mut it = "sw-shard -0.5 1.5 3 1 2".lines();
        assert!(
            ShardAggregator::decode_state(&mut it).is_err(),
            "short counts"
        );
    }

    #[test]
    fn aggregated_counts_reconstruct_end_to_end() {
        let p = pipeline();
        let mut rng = SplitMix64::new(5003);
        let mut agg = ShardAggregator::for_pipeline(&p);
        for i in 0..20_000 {
            let v = 0.3 + 0.4 * ((i % 500) as f64 / 500.0);
            agg.push(p.wave().randomize(v, &mut rng).unwrap()).unwrap();
        }
        let result = p
            .reconstruct(&agg.to_counts(), &Reconstruction::Ems)
            .unwrap();
        // Mass concentrated in [0.3, 0.7].
        let mass = result.histogram.range_mass(0.25, 0.75);
        assert!(mass > 0.8, "mass {mass}");
    }
}
