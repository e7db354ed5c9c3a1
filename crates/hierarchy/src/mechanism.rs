//! [`Mechanism`] implementations for the hierarchy estimators.
//!
//! Both hierarchical protocols assign each user a uniformly random tree
//! level as part of the client-side randomization (population division,
//! paper §4.2), so the wire report carries the level tag alongside the
//! per-level oracle report. The streaming state composes one per-level
//! oracle state — O(total tree nodes) regardless of the population — and
//! shards merge exactly because each component state does.
//!
//! `finalize` stops at the *raw* per-level estimates ([`HhRaw`] for HH,
//! signed leaves for HaarHRR); consistency enforcement (constrained
//! inference or ADMM) remains a separate post-processing choice, exactly
//! as in the paper.

use crate::haar::{haar_inverse, HaarCoefficients, HaarHrr};
use crate::hh::{HhRaw, HierarchicalHistogram};
use crate::tree::TreeValues;
use ldp_cfo::hadamard::HrrReport;
use ldp_cfo::select::AdaptiveReport;
use ldp_cfo::DrawPlan;
use ldp_cfo::{AdaptiveState, SpectrumState};
use ldp_core::params::fingerprint_fields;
use ldp_core::snapshot::{expect_tag, next_line, parse_snapshot_field, SnapshotState};
use ldp_core::wire::parse_field;
use ldp_core::{randomize_serial, CoreError, Epsilon, Mechanism, WireReport};
use ldp_numeric::kernels::Divisor;
use ldp_numeric::SplitMix64;
use rand::Rng;
use std::fmt::Write;

const TAG_HH: u64 = 0x31;
const TAG_HAAR: u64 = 0x32;

/// One Hierarchical Histogram report: the user's sampled tree level and
/// its ancestor's perturbed index through that level's adaptive oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HhReport {
    /// Tree level (1..=height) this user was assigned to.
    pub level: u32,
    /// The per-level oracle report.
    pub report: AdaptiveReport,
}

/// Streaming state of the Hierarchical Histogram: one adaptive-oracle
/// state per tree level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HhState {
    /// Index `level - 1` holds the state for tree level `level`.
    levels: Vec<AdaptiveState>,
}

impl HhState {
    /// Reports absorbed at tree level `level` (1..=height).
    #[must_use]
    pub fn level_total(&self, level: usize) -> u64 {
        self.levels[level - 1].total()
    }

    /// Total reports absorbed across all levels.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.levels.iter().map(AdaptiveState::total).sum()
    }
}

impl Mechanism for HierarchicalHistogram {
    type Input = usize;
    type Report = HhReport;
    type State = HhState;
    type Output = HhRaw;

    fn epsilon(&self) -> Epsilon {
        Epsilon::new(self.epsilon()).expect("validated at construction")
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_fields(
            TAG_HH,
            &[
                self.shape().branching() as u64,
                self.shape().leaves() as u64,
                self.epsilon().to_bits(),
            ],
        )
    }

    fn randomize<R: Rng + ?Sized>(
        &self,
        input: &usize,
        rng: &mut R,
    ) -> Result<HhReport, CoreError> {
        let d = self.shape().leaves();
        if *input >= d {
            return Err(CoreError::InvalidInput(format!(
                "value {input} outside domain of {d} buckets"
            )));
        }
        // The level draw is part of the mechanism (population division);
        // it consumes the same RNG stream as the oracle randomizer.
        let h = self.shape().height();
        let level = rng.gen_range(1..=h);
        let ancestor = self.shape().ancestor_at_level(*input, level);
        let report = Mechanism::randomize(self.level_oracle(level), &ancestor, rng)?;
        Ok(HhReport {
            level: level as u32,
            report,
        })
    }

    fn randomize_block<R: Rng + ?Sized>(
        &self,
        inputs: &[usize],
        rng: &mut R,
        out: &mut Vec<HhReport>,
    ) -> Result<(), CoreError> {
        let d = self.shape().leaves();
        if !inputs.iter().all(|&v| v < d) {
            return randomize_serial(self, inputs, rng, out);
        }
        let Some(stream) = SplitMix64::block_stream(rng) else {
            return randomize_serial(self, inputs, rng, out);
        };
        // Per level (index `level - 1`): the oracle in draw form, and the
        // leaves under one node, which divide a value into its ancestor.
        let h = self.shape().height();
        let plans: Vec<DrawPlan> = (1..=h)
            .map(|level| self.level_oracle(level).draw_plan())
            .collect();
        let spans: Vec<Divisor> = (1..=h)
            .map(|level| Divisor::new(self.shape().leaf_range(level, 0).1 as u64))
            .collect();
        let max_draws = 1 + plans.iter().map(|p| p.max_draws()).max().unwrap_or(0);
        // The level draw is `gen_range(1..=h)`: level index `u % h`.
        let levels = Divisor::new(h as u64);
        out.reserve(inputs.len());
        // A report's step count needs its level and that level's coin,
        // about as much work as the report itself, so the walk counts at
        // each report rather than filling a table for every position.
        stream.walk_reports(
            inputs.len(),
            max_draws,
            |_, _| {},
            |draws, _, i| {
                let index = (draws[0] % levels) as usize;
                let (plan, oracle_draws) = (plans[index], &draws[1..]);
                let steps = plan.steps(oracle_draws);
                let ancestor = (inputs[i] as u64 / spans[index]) as usize;
                out.push(HhReport {
                    level: index as u32 + 1,
                    report: plan.report(ancestor, oracle_draws, steps),
                });
                1 + usize::from(steps)
            },
        );
        Ok(())
    }

    fn empty_state(&self) -> HhState {
        HhState {
            levels: (1..=self.shape().height())
                .map(|level| self.level_oracle(level).empty_state())
                .collect(),
        }
    }

    fn absorb(&self, state: &mut HhState, report: &HhReport) -> Result<(), CoreError> {
        let level = report.level as usize;
        if level == 0 || level > self.shape().height() {
            return Err(CoreError::InvalidReport(format!(
                "HH report level {level} outside 1..={}",
                self.shape().height()
            )));
        }
        self.level_oracle(level)
            .absorb(&mut state.levels[level - 1], &report.report)
    }

    fn merge_state(&self, state: &mut HhState, other: &HhState) -> Result<(), CoreError> {
        if state.levels.len() != other.levels.len() {
            return Err(CoreError::ShardMismatch(format!(
                "HH states over {} vs {} levels",
                state.levels.len(),
                other.levels.len()
            )));
        }
        for (level, (a, b)) in state.levels.iter_mut().zip(&other.levels).enumerate() {
            self.level_oracle(level + 1).merge_state(a, b)?;
        }
        Ok(())
    }

    fn finalize(&self, state: &HhState) -> Result<HhRaw, CoreError> {
        if state.total() == 0 {
            return Err(CoreError::Aggregation(
                "need at least one report to estimate the tree".into(),
            ));
        }
        let h = self.shape().height();
        let mut tree = TreeValues::zeros(self.shape());
        tree.levels[0][0] = 1.0; // the total is public under LDP
        let mut level_variances = vec![1e-12; h + 1];
        for (level, variance) in level_variances.iter_mut().enumerate().skip(1) {
            let oracle = self.level_oracle(level);
            let n = state.level_total(level);
            tree.levels[level] = if n == 0 {
                // No user sampled this level: fall back to the
                // uninformative uniform estimate.
                let domain = self.shape().level_size(level);
                vec![1.0 / domain as f64; domain]
            } else {
                oracle.finalize(&state.levels[level - 1])?
            };
            *variance = oracle.estimate_variance(n.max(1) as usize);
        }
        HhRaw::new(*self.shape(), tree, level_variances)
            .map_err(|e| CoreError::Aggregation(e.to_string()))
    }
}

/// One HaarHRR report: the user's sampled coefficient height and its
/// (coefficient, sign) item perturbed through HRR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaarReport {
    /// Coefficient height (1..=log2 d) this user was assigned to.
    pub level: u32,
    /// The HRR report over the height's (coefficient, sign) item domain.
    pub report: HrrReport,
}

/// Streaming state of HaarHRR: one HRR spectrum state per coefficient
/// height.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaarState {
    /// Index `m - 1` holds the state for coefficient height `m`.
    levels: Vec<SpectrumState>,
}

impl HaarState {
    /// Total reports absorbed across all heights.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.levels.iter().map(SpectrumState::total).sum()
    }
}

impl Mechanism for HaarHrr {
    type Input = usize;
    type Report = HaarReport;
    type State = HaarState;
    type Output = Vec<f64>;

    fn epsilon(&self) -> Epsilon {
        Epsilon::new(self.epsilon()).expect("validated at construction")
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_fields(
            TAG_HAAR,
            &[self.shape().leaves() as u64, self.epsilon().to_bits()],
        )
    }

    fn randomize<R: Rng + ?Sized>(
        &self,
        input: &usize,
        rng: &mut R,
    ) -> Result<HaarReport, CoreError> {
        let d = self.shape().leaves();
        if *input >= d {
            return Err(CoreError::InvalidInput(format!(
                "value {input} outside domain of {d} buckets"
            )));
        }
        let h = self.shape().height();
        let m = rng.gen_range(1..=h);
        // Coefficient index and sign for this value at height m.
        let k = *input >> m;
        let right = (*input >> (m - 1)) & 1;
        let item = 2 * k + right;
        let report = Mechanism::randomize(self.height_oracle(m), &item, rng)?;
        Ok(HaarReport {
            level: m as u32,
            report,
        })
    }

    fn empty_state(&self) -> HaarState {
        HaarState {
            levels: (1..=self.shape().height())
                .map(|m| self.height_oracle(m).empty_state())
                .collect(),
        }
    }

    fn absorb(&self, state: &mut HaarState, report: &HaarReport) -> Result<(), CoreError> {
        let m = report.level as usize;
        if m == 0 || m > self.shape().height() {
            return Err(CoreError::InvalidReport(format!(
                "HaarHRR report height {m} outside 1..={}",
                self.shape().height()
            )));
        }
        self.height_oracle(m)
            .absorb(&mut state.levels[m - 1], &report.report)
    }

    // absorb_slice keeps the default report-at-a-time loop: each absorb is
    // a single spectrum scatter-add, and benchmarking showed that grouping
    // reports by coefficient height to ride the HRR block kernel costs
    // more in per-slice allocation than the kernel saves. Bulk ingest
    // still parallelizes through `Aggregator::push_slice_sharded`.

    fn merge_state(&self, state: &mut HaarState, other: &HaarState) -> Result<(), CoreError> {
        if state.levels.len() != other.levels.len() {
            return Err(CoreError::ShardMismatch(format!(
                "HaarHRR states over {} vs {} heights",
                state.levels.len(),
                other.levels.len()
            )));
        }
        for (m, (a, b)) in state.levels.iter_mut().zip(&other.levels).enumerate() {
            self.height_oracle(m + 1).merge_state(a, b)?;
        }
        Ok(())
    }

    fn finalize(&self, state: &HaarState) -> Result<Vec<f64>, CoreError> {
        if state.total() == 0 {
            return Err(CoreError::Aggregation(
                "need at least one report to estimate the spectrum".into(),
            ));
        }
        let d = self.shape().leaves();
        let h = self.shape().height();
        let mut details = Vec::with_capacity(h);
        for m in 1..=h {
            let coeff_count = d >> m;
            let scale = 2f64.powf(m as f64 / 2.0);
            // An empty height finalizes to all-zero frequencies: its
            // coefficients are uninformative zeros.
            let freqs = self.height_oracle(m).finalize(&state.levels[m - 1])?;
            let det: Vec<f64> = (0..coeff_count)
                .map(|k| (freqs[2 * k] - freqs[2 * k + 1]) / scale)
                .collect();
            details.push(det);
        }
        haar_inverse(&HaarCoefficients {
            total: 1.0,
            details,
        })
        .map_err(|e| CoreError::Aggregation(e.to_string()))
    }
}

/// A `hh-levels <k>` line followed by `k` per-level adaptive states (the
/// composed-state layout: index `level - 1` holds tree level `level`).
impl SnapshotState for HhState {
    fn encode_state(&self, out: &mut String) {
        let _ = writeln!(out, "hh-levels {}", self.levels.len());
        for level in &self.levels {
            level.encode_state(out);
        }
    }

    fn decode_state(lines: &mut dyn Iterator<Item = &str>) -> Result<Self, CoreError> {
        let line = next_line(lines, "HH state header")?;
        let mut it = line.split_whitespace();
        expect_tag(it.next(), "hh-levels")?;
        let k: usize = parse_snapshot_field(it.next(), "HH level count")?;
        if it.next().is_some() {
            return Err(CoreError::Snapshot(format!(
                "trailing fields on HH state header {line:?}"
            )));
        }
        // k is untrusted snapshot input: bound the pre-allocation (a real
        // tree has log-many levels); the vector grows as states decode.
        let mut levels = Vec::with_capacity(k.min(64));
        for _ in 0..k {
            levels.push(AdaptiveState::decode_state(lines)?);
        }
        Ok(HhState { levels })
    }
}

/// A `haar-levels <k>` line followed by `k` per-height spectrum states.
impl SnapshotState for HaarState {
    fn encode_state(&self, out: &mut String) {
        let _ = writeln!(out, "haar-levels {}", self.levels.len());
        for level in &self.levels {
            level.encode_state(out);
        }
    }

    fn decode_state(lines: &mut dyn Iterator<Item = &str>) -> Result<Self, CoreError> {
        let line = next_line(lines, "HaarHRR state header")?;
        let mut it = line.split_whitespace();
        expect_tag(it.next(), "haar-levels")?;
        let k: usize = parse_snapshot_field(it.next(), "HaarHRR height count")?;
        if it.next().is_some() {
            return Err(CoreError::Snapshot(format!(
                "trailing fields on HaarHRR state header {line:?}"
            )));
        }
        // k is untrusted snapshot input: bound the pre-allocation (a real
        // tree has log-many levels); the vector grows as states decode.
        let mut levels = Vec::with_capacity(k.min(64));
        for _ in 0..k {
            levels.push(SpectrumState::decode_state(lines)?);
        }
        Ok(HaarState { levels })
    }
}

impl WireReport for HhReport {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{} ", self.level);
        self.report.encode(out);
    }

    fn decode(line: &str) -> Result<Self, CoreError> {
        let (level, rest) = line
            .split_once(' ')
            .ok_or_else(|| CoreError::Wire(format!("HH report needs a level: {line:?}")))?;
        Ok(HhReport {
            level: parse_field(level, "HH level")?,
            report: AdaptiveReport::decode(rest)?,
        })
    }
}

impl WireReport for HaarReport {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{} ", self.level);
        self.report.encode(out);
    }

    fn decode(line: &str) -> Result<Self, CoreError> {
        let (level, rest) = line
            .split_once(' ')
            .ok_or_else(|| CoreError::Wire(format!("HaarHRR report needs a level: {line:?}")))?;
        Ok(HaarReport {
            level: parse_field(level, "HaarHRR level")?,
            report: HrrReport::decode(rest)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::{constrained_inference, RootPolicy};
    use ldp_core::{Aggregator, Client};
    use ldp_numeric::SplitMix64;

    fn stream_leaves_hh(d: usize, eps: f64, values: &[usize], seed: u64) -> Vec<f64> {
        let hh = HierarchicalHistogram::new(4, d, eps).unwrap();
        let client = Client::new(&hh);
        let mut agg = Aggregator::new(&hh);
        let mut rng = SplitMix64::new(seed);
        for v in values {
            agg.push(&client.randomize(v, &mut rng).unwrap()).unwrap();
        }
        let raw = agg.finalize().unwrap();
        let consistent = constrained_inference(
            raw.shape(),
            &raw.tree,
            &raw.level_variances,
            RootPolicy::Fixed(1.0),
        )
        .unwrap();
        consistent.leaves().to_vec()
    }

    #[test]
    fn hh_streaming_recovers_distribution_at_high_epsilon() {
        let values: Vec<usize> = (0..40_000)
            .map(|i| if i % 2 == 0 { 2 } else { 11 })
            .collect();
        let leaves = stream_leaves_hh(16, 8.0, &values, 41);
        assert!((leaves[2] - 0.5).abs() < 0.05, "leaf2={}", leaves[2]);
        assert!((leaves[11] - 0.5).abs() < 0.05, "leaf11={}", leaves[11]);
    }

    #[test]
    fn hh_merge_equals_concatenation_bit_for_bit() {
        let hh = HierarchicalHistogram::new(4, 64, 1.0).unwrap();
        let client = Client::new(&hh);
        let mut rng = SplitMix64::new(42);
        let reports: Vec<HhReport> = (0..6_000)
            .map(|i| client.randomize(&(i % 64), &mut rng).unwrap())
            .collect();
        let one_shot = Mechanism::aggregate(&hh, &reports).unwrap();
        for split in [0, 1, 3000, 6000] {
            let mut a = Aggregator::new(&hh);
            a.push_slice(&reports[..split]).unwrap();
            let mut b = Aggregator::new(&hh);
            b.push_slice(&reports[split..]).unwrap();
            a.merge(&b).unwrap();
            let merged = a.finalize().unwrap();
            for (x, y) in merged
                .tree
                .flatten()
                .iter()
                .zip(one_shot.tree.flatten().iter())
            {
                assert_eq!(x.to_bits(), y.to_bits(), "split {split}");
            }
        }
    }

    #[test]
    fn haar_streaming_recovers_distribution_at_high_epsilon() {
        let est = HaarHrr::new(16, 8.0).unwrap();
        let client = Client::new(&est);
        let mut agg = Aggregator::new(&est);
        let mut rng = SplitMix64::new(43);
        for i in 0..60_000usize {
            let v = if i % 2 == 0 { 3usize } else { 12 };
            agg.push(&client.randomize(&v, &mut rng).unwrap()).unwrap();
        }
        let leaves = agg.finalize().unwrap();
        assert!((leaves[3] - 0.5).abs() < 0.07, "leaf3={}", leaves[3]);
        assert!((leaves[12] - 0.5).abs() < 0.07, "leaf12={}", leaves[12]);
    }

    #[test]
    fn reports_are_validated() {
        let hh = HierarchicalHistogram::new(2, 8, 1.0).unwrap();
        let client = Client::new(&hh);
        let mut rng = SplitMix64::new(44);
        assert!(client.randomize(&8, &mut rng).is_err());
        let good = client.randomize(&3, &mut rng).unwrap();
        let mut agg = Aggregator::new(&hh);
        assert!(agg.push(&HhReport { level: 0, ..good }).is_err());
        assert!(agg.push(&HhReport { level: 99, ..good }).is_err());
        assert!(agg.push(&good).is_ok());

        let haar = HaarHrr::new(8, 1.0).unwrap();
        let hclient = Client::new(&haar);
        assert!(hclient.randomize(&8, &mut rng).is_err());
        let good = hclient.randomize(&2, &mut rng).unwrap();
        let mut agg = Aggregator::new(&haar);
        assert!(agg.push(&HaarReport { level: 9, ..good }).is_err());
        assert!(agg.push(&good).is_ok());
    }

    #[test]
    fn empty_aggregators_refuse_to_finalize() {
        let hh = HierarchicalHistogram::new(4, 16, 1.0).unwrap();
        assert!(Aggregator::new(&hh).finalize().is_err());
        let haar = HaarHrr::new(16, 1.0).unwrap();
        assert!(Aggregator::new(&haar).finalize().is_err());
    }

    #[test]
    fn wire_reports_round_trip() {
        let hh = HierarchicalHistogram::new(4, 256, 1.0).unwrap();
        let haar = HaarHrr::new(64, 1.0).unwrap();
        let mut rng = SplitMix64::new(45);
        let client = Client::new(&hh);
        for v in 0..40usize {
            let r = client.randomize(&(v % 256), &mut rng).unwrap();
            let mut s = String::new();
            r.encode(&mut s);
            assert_eq!(HhReport::decode(&s).unwrap(), r);
        }
        let client = Client::new(&haar);
        for v in 0..40usize {
            let r = client.randomize(&(v % 64), &mut rng).unwrap();
            let mut s = String::new();
            r.encode(&mut s);
            assert_eq!(HaarReport::decode(&s).unwrap(), r);
        }
        assert!(HhReport::decode("3").is_err());
        assert!(HaarReport::decode("x 1 1").is_err());
    }

    #[test]
    fn snapshot_states_round_trip_bit_identically() {
        let hh = HierarchicalHistogram::new(4, 64, 1.0).unwrap();
        let client = Client::new(&hh);
        let mut rng = SplitMix64::new(46);
        let mut state = hh.empty_state();
        for i in 0..3_000usize {
            let r = client.randomize(&(i % 64), &mut rng).unwrap();
            hh.absorb(&mut state, &r).unwrap();
        }
        let mut text = String::new();
        state.encode_state(&mut text);
        let mut lines = text.lines();
        let restored = HhState::decode_state(&mut lines).unwrap();
        assert!(lines.next().is_none(), "decoder must consume its lines");
        assert_eq!(restored, state);
        let a = hh.finalize(&state).unwrap();
        let b = hh.finalize(&restored).unwrap();
        for (x, y) in a.tree.flatten().iter().zip(b.tree.flatten().iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }

        let haar = HaarHrr::new(64, 1.0).unwrap();
        let client = Client::new(&haar);
        let mut state = haar.empty_state();
        for i in 0..3_000usize {
            let r = client.randomize(&(i % 64), &mut rng).unwrap();
            haar.absorb(&mut state, &r).unwrap();
        }
        let mut text = String::new();
        state.encode_state(&mut text);
        let mut lines = text.lines();
        let restored = HaarState::decode_state(&mut lines).unwrap();
        assert!(lines.next().is_none());
        assert_eq!(restored, state);
        let a = haar.finalize(&state).unwrap();
        let b = haar.finalize(&restored).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }

        // A state with a missing level is rejected.
        let mut it = "hh-levels 2\nadaptive g\ncounts 0 4 0 0 0 0".lines();
        assert!(HhState::decode_state(&mut it).is_err());
        let mut it = "haar-levels 1".lines();
        assert!(HaarState::decode_state(&mut it).is_err());
    }

    #[test]
    fn fingerprints_distinguish_estimators() {
        let a = Mechanism::fingerprint(&HierarchicalHistogram::new(4, 256, 1.0).unwrap());
        let b = Mechanism::fingerprint(&HierarchicalHistogram::new(2, 256, 1.0).unwrap());
        let c = Mechanism::fingerprint(&HaarHrr::new(256, 1.0).unwrap());
        assert!(a != b && a != c);
    }
}
