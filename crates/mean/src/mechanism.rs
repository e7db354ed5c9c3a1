//! [`Mechanism`] implementations for the mean-estimation protocols.
//!
//! SR, PM, and Hybrid all aggregate by averaging (debiased) reports, so
//! their streaming state is a running sum plus a count. The sum is held in
//! an [`ExactSum`] — an exact, order-independent accumulator — so merging
//! shard aggregators equals aggregating the concatenated report stream
//! *bit for bit*, which plain `f64 +=` cannot provide (float addition is
//! not associative). The state stays O(1) regardless of the population.

use crate::hybrid::{Hybrid, HybridReport};
use crate::pm::Pm;
use crate::sr::Sr;
use ldp_core::params::fingerprint_fields;
use ldp_core::snapshot::{
    expect_tag, next_line, parse_fields, parse_snapshot_field, SnapshotState,
};
use ldp_core::wire::parse_field;
use ldp_core::{CoreError, Epsilon, Mechanism, WireReport};
use ldp_numeric::ExactSum;
use rand::Rng;
use std::fmt::Write;

mod tag {
    pub const SR: u64 = 0x11;
    pub const PM: u64 = 0x12;
    pub const HYBRID: u64 = 0x13;
}

/// Streaming state of the mean mechanisms: an exact running sum of
/// (debiased) reports plus the report count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MeanState {
    sum: ExactSum,
    n: u64,
}

impl MeanState {
    /// Number of reports absorbed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.n
    }

    /// The current (exactly accumulated) report sum.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum.value()
    }

    fn absorb(&mut self, debiased: f64) {
        self.sum.add(debiased);
        self.n += 1;
    }

    /// Bulk absorb through [`ExactSum::add_slice`] — bit-identical to
    /// per-element [`MeanState::absorb`] in order, including the internal
    /// expansion representation (so snapshots of bulk-absorbed state match
    /// snapshots of streamed state).
    fn absorb_slice(&mut self, debiased: &[f64]) {
        self.sum.add_slice(debiased);
        self.n += debiased.len() as u64;
    }

    fn merge(&mut self, other: &MeanState) {
        self.sum.merge(&other.sum);
        self.n += other.n;
    }

    /// The mean estimate: `0` when empty.
    fn mean(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.sum.value() / self.n as f64
    }
}

/// One line: `mean <n> <k> <component…>` — the [`ExactSum`] expansion
/// components, rendered with exact-round-trip `f64` formatting. Restoring
/// re-adds each component, which reproduces the identical exact total
/// (the expansion's rendered value is representation-independent), so
/// resumed windows finalize and merge bit-identically.
impl SnapshotState for MeanState {
    fn encode_state(&self, out: &mut String) {
        let parts = self.sum.parts();
        let _ = write!(out, "mean {} {}", self.n, parts.len());
        for p in parts {
            let _ = write!(out, " {p}");
        }
        out.push('\n');
    }

    fn decode_state(lines: &mut dyn Iterator<Item = &str>) -> Result<Self, CoreError> {
        let line = next_line(lines, "mean state")?;
        let mut it = line.split_whitespace();
        expect_tag(it.next(), "mean")?;
        let n: u64 = parse_snapshot_field(it.next(), "mean state total")?;
        let k: usize = parse_snapshot_field(it.next(), "mean state component count")?;
        let parts: Vec<f64> = parse_fields(it, k, "mean state component")?;
        let sum = ExactSum::from_parts(&parts)
            .map_err(|e| CoreError::Snapshot(format!("mean state: {e}")))?;
        Ok(MeanState { sum, n })
    }
}

impl Mechanism for Sr {
    type Input = f64;
    type Report = f64;
    type State = MeanState;
    type Output = f64;

    fn epsilon(&self) -> Epsilon {
        Epsilon::new(Sr::epsilon(self)).expect("validated at construction")
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_fields(tag::SR, &[Sr::epsilon(self).to_bits()])
    }

    fn randomize<R: Rng + ?Sized>(&self, input: &f64, rng: &mut R) -> Result<f64, CoreError> {
        Sr::randomize(self, *input, rng).map_err(|e| CoreError::InvalidInput(e.to_string()))
    }

    fn empty_state(&self) -> MeanState {
        MeanState::default()
    }

    fn absorb(&self, state: &mut MeanState, report: &f64) -> Result<(), CoreError> {
        if *report != 1.0 && *report != -1.0 {
            return Err(CoreError::InvalidReport(format!(
                "SR reports are ±1, got {report}"
            )));
        }
        state.absorb(self.debias(*report));
        Ok(())
    }

    fn absorb_slice(&self, state: &mut MeanState, reports: &[f64]) -> Result<(), CoreError> {
        if let Some(bad) = reports.iter().position(|r| *r != 1.0 && *r != -1.0) {
            return Err(CoreError::InvalidReport(format!(
                "SR reports are ±1, got {} (index {bad})",
                reports[bad]
            )));
        }
        // Debias into a fixed stack buffer, then bulk-add each block; the
        // per-element add order is unchanged, so the state is bit-identical
        // to serial absorption.
        let mut debiased = [0.0f64; DEBIAS_BLOCK];
        for block in reports.chunks(DEBIAS_BLOCK) {
            for (d, r) in debiased.iter_mut().zip(block) {
                *d = self.debias(*r);
            }
            state.absorb_slice(&debiased[..block.len()]);
        }
        Ok(())
    }

    fn merge_state(&self, state: &mut MeanState, other: &MeanState) -> Result<(), CoreError> {
        state.merge(other);
        Ok(())
    }

    fn finalize(&self, state: &MeanState) -> Result<f64, CoreError> {
        Ok(state.mean())
    }
}

/// Randomizes every value through `mech` on one RNG stream and returns
/// the aggregated mean estimate (`0` for no values).
pub(crate) fn run<M, R>(mech: &M, values: &[f64], rng: &mut R) -> Result<f64, CoreError>
where
    M: Mechanism<Input = f64, Output = f64>,
    R: Rng + ?Sized,
{
    let reports = ldp_core::Client::new(mech).randomize_batch(values, rng)?;
    mech.aggregate(&reports)
}

/// Block size for the stack debias buffers of the bulk SR/Hybrid paths.
const DEBIAS_BLOCK: usize = 512;

impl Mechanism for Pm {
    type Input = f64;
    type Report = f64;
    type State = MeanState;
    type Output = f64;

    fn epsilon(&self) -> Epsilon {
        Epsilon::new(Pm::epsilon(self)).expect("validated at construction")
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_fields(tag::PM, &[Pm::epsilon(self).to_bits()])
    }

    fn randomize<R: Rng + ?Sized>(&self, input: &f64, rng: &mut R) -> Result<f64, CoreError> {
        Pm::randomize(self, *input, rng).map_err(|e| CoreError::InvalidInput(e.to_string()))
    }

    fn empty_state(&self) -> MeanState {
        MeanState::default()
    }

    fn absorb(&self, state: &mut MeanState, report: &f64) -> Result<(), CoreError> {
        if !report.is_finite() || report.abs() > self.output_bound() + 1e-9 {
            return Err(CoreError::InvalidReport(format!(
                "PM report {report} outside the output domain [±{}]",
                self.output_bound()
            )));
        }
        // PM reports are already unbiased.
        state.absorb(*report);
        Ok(())
    }

    fn absorb_slice(&self, state: &mut MeanState, reports: &[f64]) -> Result<(), CoreError> {
        let bound = self.output_bound() + 1e-9;
        if let Some(bad) = reports
            .iter()
            .position(|r| !r.is_finite() || r.abs() > bound)
        {
            return Err(CoreError::InvalidReport(format!(
                "PM report {} (index {bad}) outside the output domain [±{}]",
                reports[bad],
                self.output_bound()
            )));
        }
        state.absorb_slice(reports);
        Ok(())
    }

    fn merge_state(&self, state: &mut MeanState, other: &MeanState) -> Result<(), CoreError> {
        state.merge(other);
        Ok(())
    }

    fn finalize(&self, state: &MeanState) -> Result<f64, CoreError> {
        Ok(state.mean())
    }
}

impl Mechanism for Hybrid {
    type Input = f64;
    type Report = HybridReport;
    type State = MeanState;
    type Output = f64;

    fn epsilon(&self) -> Epsilon {
        Epsilon::new(Hybrid::epsilon(self)).expect("validated at construction")
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_fields(
            tag::HYBRID,
            &[Hybrid::epsilon(self).to_bits(), self.beta().to_bits()],
        )
    }

    fn randomize<R: Rng + ?Sized>(
        &self,
        input: &f64,
        rng: &mut R,
    ) -> Result<HybridReport, CoreError> {
        Hybrid::randomize(self, *input, rng).map_err(|e| CoreError::InvalidInput(e.to_string()))
    }

    fn empty_state(&self) -> MeanState {
        MeanState::default()
    }

    fn absorb(&self, state: &mut MeanState, report: &HybridReport) -> Result<(), CoreError> {
        match report {
            HybridReport::Pm(v) => {
                if !v.is_finite() || v.abs() > self.pm().output_bound() + 1e-9 {
                    return Err(CoreError::InvalidReport(format!(
                        "Hybrid PM-arm report {v} outside the output domain"
                    )));
                }
                if self.beta() == 0.0 {
                    return Err(CoreError::InvalidReport(
                        "PM-arm report but the PM arm is disabled at this ε".into(),
                    ));
                }
            }
            HybridReport::Sr(v) => {
                if *v != 1.0 && *v != -1.0 {
                    return Err(CoreError::InvalidReport(format!(
                        "Hybrid SR-arm reports are ±1, got {v}"
                    )));
                }
            }
        }
        state.absorb(self.debias(*report));
        Ok(())
    }

    fn absorb_slice(
        &self,
        state: &mut MeanState,
        reports: &[HybridReport],
    ) -> Result<(), CoreError> {
        let pm_bound = self.pm().output_bound() + 1e-9;
        let pm_enabled = self.beta() != 0.0;
        let bad = reports.iter().position(|r| match r {
            HybridReport::Pm(v) => !v.is_finite() || v.abs() > pm_bound || !pm_enabled,
            HybridReport::Sr(v) => *v != 1.0 && *v != -1.0,
        });
        if let Some(bad) = bad {
            // Re-run the serial validator for the exact error message.
            let mut scratch = self.empty_state();
            return Err(self
                .absorb(&mut scratch, &reports[bad])
                .expect_err("report failed bulk validation"));
        }
        let mut debiased = [0.0f64; DEBIAS_BLOCK];
        for block in reports.chunks(DEBIAS_BLOCK) {
            for (d, r) in debiased.iter_mut().zip(block) {
                *d = self.debias(*r);
            }
            state.absorb_slice(&debiased[..block.len()]);
        }
        Ok(())
    }

    fn merge_state(&self, state: &mut MeanState, other: &MeanState) -> Result<(), CoreError> {
        state.merge(other);
        Ok(())
    }

    fn finalize(&self, state: &MeanState) -> Result<f64, CoreError> {
        Ok(state.mean())
    }
}

impl WireReport for HybridReport {
    fn encode(&self, out: &mut String) {
        match self {
            HybridReport::Pm(v) => {
                let _ = write!(out, "p {v}");
            }
            HybridReport::Sr(v) => {
                let _ = write!(out, "s {v}");
            }
        }
    }

    fn decode(line: &str) -> Result<Self, CoreError> {
        let (kind, rest) = line
            .split_once(' ')
            .ok_or_else(|| CoreError::Wire(format!("hybrid report needs a tag: {line:?}")))?;
        match kind {
            "p" => Ok(HybridReport::Pm(parse_field(rest.trim(), "PM value")?)),
            "s" => Ok(HybridReport::Sr(parse_field(rest.trim(), "SR value")?)),
            other => Err(CoreError::Wire(format!("unknown hybrid tag {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::{Aggregator, Client};
    use ldp_numeric::SplitMix64;

    fn signed_values(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 29) % 201) as f64 / 100.0 - 1.0)
            .collect()
    }

    #[test]
    fn merged_shards_match_one_shot_bit_for_bit() {
        // PM reports are continuous, the hard case for exact merging.
        let pm = Pm::new(0.7).unwrap();
        let mut rng = SplitMix64::new(3);
        let client = Client::new(&pm);
        let reports: Vec<f64> = signed_values(3_001)
            .iter()
            .map(|v| client.randomize(v, &mut rng).unwrap())
            .collect();
        let one_shot = Mechanism::aggregate(&pm, &reports).unwrap();
        for split in [0, 1, 1000, 3000, 3001] {
            let mut a = Aggregator::new(&pm);
            a.push_slice(&reports[..split]).unwrap();
            let mut b = Aggregator::new(&pm);
            b.push_slice(&reports[split..]).unwrap();
            a.merge(&b).unwrap();
            assert_eq!(
                a.finalize().unwrap().to_bits(),
                one_shot.to_bits(),
                "split at {split}"
            );
        }
    }

    #[test]
    fn absorb_rejects_malformed_reports() {
        let sr = Sr::new(1.0).unwrap();
        let mut st = sr.empty_state();
        assert!(sr.absorb(&mut st, &0.5).is_err());
        assert!(sr.absorb(&mut st, &f64::NAN).is_err());
        assert!(sr.absorb(&mut st, &1.0).is_ok());

        let pm = Pm::new(1.0).unwrap();
        let mut st = pm.empty_state();
        assert!(pm.absorb(&mut st, &(pm.output_bound() + 1.0)).is_err());
        assert!(pm.absorb(&mut st, &f64::INFINITY).is_err());
        assert!(pm.absorb(&mut st, &0.0).is_ok());

        let low = Hybrid::new(0.5).unwrap();
        let mut st = low.empty_state();
        // PM arm is disabled below ε*: a PM-tagged report is malformed.
        assert!(low.absorb(&mut st, &HybridReport::Pm(0.0)).is_err());
        assert!(low.absorb(&mut st, &HybridReport::Sr(3.0)).is_err());
        assert!(low.absorb(&mut st, &HybridReport::Sr(-1.0)).is_ok());
    }

    #[test]
    fn empty_state_finalizes_to_zero_like_legacy() {
        let sr = Sr::new(1.0).unwrap();
        assert_eq!(sr.finalize(&sr.empty_state()).unwrap(), 0.0);
        assert_eq!(sr.aggregate(&[]).unwrap(), 0.0);
    }

    #[test]
    fn hybrid_wire_round_trips() {
        let hybrid = Hybrid::new(2.0).unwrap();
        let mut rng = SplitMix64::new(5);
        for v in signed_values(100) {
            let r = Mechanism::randomize(&hybrid, &v, &mut rng).unwrap();
            let mut s = String::new();
            r.encode(&mut s);
            let back = HybridReport::decode(&s).unwrap();
            match (r, back) {
                (HybridReport::Pm(a), HybridReport::Pm(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (HybridReport::Sr(a), HybridReport::Sr(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => panic!("arm changed across the wire"),
            }
        }
        assert!(HybridReport::decode("q 1.0").is_err());
        assert!(HybridReport::decode("p").is_err());
    }

    #[test]
    fn snapshot_state_round_trips_to_identical_behavior() {
        let pm = Pm::new(0.9).unwrap();
        let client = Client::new(&pm);
        let mut rng = SplitMix64::new(17);
        let mut state = pm.empty_state();
        for v in signed_values(2_000) {
            let r = client.randomize(&v, &mut rng).unwrap();
            pm.absorb(&mut state, &r).unwrap();
        }
        let mut text = String::new();
        state.encode_state(&mut text);
        let mut lines = text.lines();
        let restored = MeanState::decode_state(&mut lines).unwrap();
        assert!(lines.next().is_none());
        // The expansion representation may compress on re-add; the
        // rendered total and all later behavior must be bit-identical.
        assert_eq!(restored.total(), state.total());
        assert_eq!(restored.sum().to_bits(), state.sum().to_bits());
        assert_eq!(
            pm.finalize(&restored).unwrap().to_bits(),
            pm.finalize(&state).unwrap().to_bits()
        );
        let mut a = state.clone();
        let mut b = restored;
        for v in signed_values(101) {
            let r = client.randomize(&v, &mut rng).unwrap();
            pm.absorb(&mut a, &r).unwrap();
            pm.absorb(&mut b, &r).unwrap();
        }
        assert_eq!(
            pm.finalize(&a).unwrap().to_bits(),
            pm.finalize(&b).unwrap().to_bits()
        );
        // Malformed states are rejected.
        let mut it = "mean 5 2 1.0".lines();
        assert!(MeanState::decode_state(&mut it).is_err(), "short fields");
        let mut it = "mean 5 1 inf".lines();
        assert!(MeanState::decode_state(&mut it).is_err(), "non-finite");
    }

    #[test]
    fn fingerprints_distinguish_mechanisms() {
        let a = Mechanism::fingerprint(&Sr::new(1.0).unwrap());
        let b = Mechanism::fingerprint(&Pm::new(1.0).unwrap());
        let c = Mechanism::fingerprint(&Sr::new(2.0).unwrap());
        assert!(a != b && a != c);
    }
}
