//! [`Mechanism`] implementations for every frequency oracle: the one API
//! through which each protocol randomizes, aggregates and estimates.
//!
//! Each oracle's client randomizer lives in its `Mechanism::randomize`.
//! The server side is a bounded streaming state (per-value counts, OLH
//! support counts, or an integer Hadamard spectrum), so collectors ingest
//! reports one at a time in O(d) memory and merge shards exactly. One-shot
//! aggregation is [`Mechanism::aggregate`] over the same state.

use crate::binning::BinningEstimator;
use crate::grr::Grr;
use crate::hadamard::{hadamard_entry, Hrr, HrrReport};
use crate::olh::{olh_hash, Olh, OlhReport};
use crate::oracle::check_value;
use crate::oue::{Oue, OueReport};
use crate::postprocess::norm_sub;
use crate::select::{AdaptiveOracle, AdaptiveReport};
use ldp_core::params::fingerprint_fields;
use ldp_core::snapshot::{
    expect_tag, next_line, parse_fields, parse_snapshot_field, SnapshotState,
};
use ldp_core::wire::parse_field;
use ldp_core::{randomize_serial, CoreError, Epsilon, Mechanism, WireReport};
use ldp_numeric::histogram::bucket_of;
use ldp_numeric::Histogram;
use rand::Rng;
use std::fmt::Write;

/// Fingerprint tags, one per mechanism family (kept distinct so two
/// different protocols over the same `(d, ε)` never merge).
mod tag {
    pub const GRR: u64 = 0x01;
    pub const OLH: u64 = 0x02;
    pub const OUE: u64 = 0x03;
    pub const HRR: u64 = 0x04;
    pub const BINNING: u64 = 0x05;
}

/// Per-value report counts: the streaming state of GRR and OUE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountState {
    counts: Vec<u64>,
    n: u64,
}

impl CountState {
    fn new(d: usize) -> Self {
        CountState {
            counts: vec![0; d],
            n: 0,
        }
    }

    /// Raw per-value counts.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of reports absorbed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.n
    }

    fn merge(&mut self, other: &CountState) -> Result<(), CoreError> {
        if self.counts.len() != other.counts.len() {
            return Err(CoreError::ShardMismatch(format!(
                "count states over {} vs {} values",
                self.counts.len(),
                other.counts.len()
            )));
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        Ok(())
    }
}

/// Per-value support counts: the streaming state of OLH.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupportState {
    support: Vec<u64>,
    n: u64,
}

impl SupportState {
    /// Raw per-value support counts.
    #[must_use]
    pub fn support(&self) -> &[u64] {
        &self.support
    }

    /// Number of reports absorbed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.n
    }
}

/// Integer Walsh–Hadamard spectrum sums: the streaming state of HRR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpectrumState {
    spectrum: Vec<i64>,
    n: u64,
}

impl SpectrumState {
    /// Raw per-row ±1 sums.
    #[must_use]
    pub fn spectrum(&self) -> &[i64] {
        &self.spectrum
    }

    /// Number of reports absorbed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.n
    }
}

impl Mechanism for Grr {
    type Input = usize;
    type Report = usize;
    type State = CountState;
    type Output = Vec<f64>;

    fn epsilon(&self) -> Epsilon {
        self.eps
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_fields(tag::GRR, &[self.d as u64, self.eps.get().to_bits()])
    }

    fn randomize<R: Rng + ?Sized>(&self, input: &usize, rng: &mut R) -> Result<usize, CoreError> {
        let value = *input;
        check_value(value, self.d)?;
        if rng.gen::<f64>() < self.p {
            Ok(value)
        } else {
            // Uniform over the d-1 other values: draw from [0, d-1) and skip
            // the true value.
            let mut other = rng.gen_range(0..self.d - 1);
            if other >= value {
                other += 1;
            }
            Ok(other)
        }
    }

    fn randomize_block<R: Rng + ?Sized>(
        &self,
        inputs: &[usize],
        rng: &mut R,
        out: &mut Vec<usize>,
    ) -> Result<(), CoreError> {
        let plan = self.draw_plan();
        let walked = inputs.iter().all(|&v| v < self.d)
            && plan.walk(inputs.len(), rng, out, |i, draws, steps| {
                plan.grr(inputs[i], draws, steps)
            });
        if walked {
            return Ok(());
        }
        randomize_serial(self, inputs, rng, out)
    }

    fn empty_state(&self) -> CountState {
        CountState::new(self.domain_size())
    }

    fn absorb(&self, state: &mut CountState, report: &usize) -> Result<(), CoreError> {
        if *report >= self.domain_size() {
            return Err(CoreError::InvalidReport(format!(
                "GRR report {report} outside domain of {}",
                self.domain_size()
            )));
        }
        state.counts[*report] += 1;
        state.n += 1;
        Ok(())
    }

    // absorb_slice keeps the default report-at-a-time loop: a GRR absorb
    // is one domain check and one counter increment (~1 ns), and
    // benchmarking showed fused/unrolled slice variants measurably slower
    // than the plain loop. Bulk ingest still parallelizes through
    // `Aggregator::push_slice_sharded`.

    fn merge_state(&self, state: &mut CountState, other: &CountState) -> Result<(), CoreError> {
        state.merge(other)
    }

    fn finalize(&self, state: &CountState) -> Result<Vec<f64>, CoreError> {
        Ok(self.estimate_from_counts(&state.counts, state.n))
    }
}

impl Mechanism for Olh {
    type Input = usize;
    type Report = OlhReport;
    type State = SupportState;
    type Output = Vec<f64>;

    fn epsilon(&self) -> Epsilon {
        self.eps
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_fields(
            tag::OLH,
            &[self.d as u64, self.eps.get().to_bits(), self.g as u64],
        )
    }

    fn randomize<R: Rng + ?Sized>(
        &self,
        input: &usize,
        rng: &mut R,
    ) -> Result<OlhReport, CoreError> {
        check_value(*input, self.d)?;
        let seed: u64 = rng.gen();
        let h = olh_hash(seed, *input, self.g);
        let y = if rng.gen::<f64>() < self.p {
            h
        } else {
            let mut other = rng.gen_range(0..self.g as u32 - 1);
            if other >= h {
                other += 1;
            }
            other
        };
        Ok(OlhReport { seed, y })
    }

    fn randomize_block<R: Rng + ?Sized>(
        &self,
        inputs: &[usize],
        rng: &mut R,
        out: &mut Vec<OlhReport>,
    ) -> Result<(), CoreError> {
        let plan = self.draw_plan();
        let walked = inputs.iter().all(|&v| v < self.d)
            && plan.walk(inputs.len(), rng, out, |i, draws, steps| {
                plan.olh(inputs[i], draws, steps)
            });
        if walked {
            return Ok(());
        }
        randomize_serial(self, inputs, rng, out)
    }

    fn empty_state(&self) -> SupportState {
        SupportState {
            support: vec![0; self.domain_size()],
            n: 0,
        }
    }

    fn absorb(&self, state: &mut SupportState, report: &OlhReport) -> Result<(), CoreError> {
        if report.y as usize >= self.hash_range() {
            return Err(CoreError::InvalidReport(format!(
                "OLH report value {} outside hash range {}",
                report.y,
                self.hash_range()
            )));
        }
        self.add_support(&mut state.support, report);
        state.n += 1;
        Ok(())
    }

    // absorb_slice keeps the default report-at-a-time loop: every absorb
    // already runs the vectorized support walk over tables built at
    // construction, so there is nothing left to hoist out of a slice.

    fn merge_state(&self, state: &mut SupportState, other: &SupportState) -> Result<(), CoreError> {
        if state.support.len() != other.support.len() {
            return Err(CoreError::ShardMismatch(format!(
                "support states over {} vs {} values",
                state.support.len(),
                other.support.len()
            )));
        }
        for (a, b) in state.support.iter_mut().zip(&other.support) {
            *a += b;
        }
        state.n += other.n;
        Ok(())
    }

    fn finalize(&self, state: &SupportState) -> Result<Vec<f64>, CoreError> {
        Ok(self.estimate_from_support(&state.support, state.n))
    }
}

impl Mechanism for Oue {
    type Input = usize;
    type Report = OueReport;
    type State = CountState;
    type Output = Vec<f64>;

    fn epsilon(&self) -> Epsilon {
        self.eps
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_fields(tag::OUE, &[self.d as u64, self.eps.get().to_bits()])
    }

    fn randomize<R: Rng + ?Sized>(
        &self,
        input: &usize,
        rng: &mut R,
    ) -> Result<OueReport, CoreError> {
        let value = *input;
        check_value(value, self.d)?;
        let mut report = OueReport {
            bits: vec![0u64; self.d.div_ceil(64)],
            len: self.d,
        };
        // One unit draw per position, filled a packed word at a time so
        // batched generators (SplitMix64's counter-based fill) amortize the
        // stream. The draw order — and therefore the report — is identical
        // to a per-position `gen::<f64>() < keep_prob` loop.
        let mut draws = [0.0f64; 64];
        for (w, word) in report.bits.iter_mut().enumerate() {
            let base = w * 64;
            let n = (self.d - base).min(64);
            let draws = &mut draws[..n];
            rng.fill_unit_f64s(draws);
            let mut bits = 0u64;
            for (i, &u) in draws.iter().enumerate() {
                let keep_prob = if base + i == value { self.p } else { self.q };
                if u < keep_prob {
                    bits |= 1 << i;
                }
            }
            *word = bits;
        }
        Ok(report)
    }

    fn empty_state(&self) -> CountState {
        CountState::new(self.domain_size())
    }

    fn absorb(&self, state: &mut CountState, report: &OueReport) -> Result<(), CoreError> {
        if report.len() != self.domain_size() {
            return Err(CoreError::InvalidReport(format!(
                "OUE report over {} bits, mechanism domain is {}",
                report.len(),
                self.domain_size()
            )));
        }
        self.add_counts(&mut state.counts, report);
        state.n += 1;
        Ok(())
    }

    fn absorb_slice(&self, state: &mut CountState, reports: &[OueReport]) -> Result<(), CoreError> {
        let d = self.domain_size();
        if let Some(bad) = reports.iter().position(|r| r.len() != d) {
            return Err(CoreError::InvalidReport(format!(
                "OUE report over {} bits (index {bad}), mechanism domain is {d}",
                reports[bad].len()
            )));
        }
        // Carry-save bit-count kernel: 7 reports per block through a CSA
        // tree instead of a sparse walk per report. Exact u64 additions,
        // so bit-identical to per-report `add_counts` in any order.
        ldp_numeric::kernels::bitcount_rows(
            &mut state.counts,
            reports.iter().map(OueReport::words),
        );
        state.n += reports.len() as u64;
        Ok(())
    }

    fn merge_state(&self, state: &mut CountState, other: &CountState) -> Result<(), CoreError> {
        state.merge(other)
    }

    fn finalize(&self, state: &CountState) -> Result<Vec<f64>, CoreError> {
        Ok(self.estimate_from_counts(&state.counts, state.n))
    }
}

impl Mechanism for Hrr {
    type Input = usize;
    type Report = HrrReport;
    type State = SpectrumState;
    type Output = Vec<f64>;

    fn epsilon(&self) -> Epsilon {
        self.eps
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_fields(tag::HRR, &[self.d as u64, self.eps.get().to_bits()])
    }

    fn randomize<R: Rng + ?Sized>(
        &self,
        input: &usize,
        rng: &mut R,
    ) -> Result<HrrReport, CoreError> {
        check_value(*input, self.d)?;
        let row = rng.gen_range(0..self.padded as u32);
        let true_bit = hadamard_entry(row as usize, *input);
        let bit = if rng.gen::<f64>() < self.p {
            true_bit
        } else {
            -true_bit
        };
        Ok(HrrReport {
            row,
            bit: bit as i8,
        })
    }

    fn empty_state(&self) -> SpectrumState {
        SpectrumState {
            spectrum: vec![0; self.padded_size()],
            n: 0,
        }
    }

    fn absorb(&self, state: &mut SpectrumState, report: &HrrReport) -> Result<(), CoreError> {
        if report.row as usize >= self.padded_size() || report.bit.abs() != 1 {
            return Err(CoreError::InvalidReport(format!(
                "HRR report (row {}, bit {}) invalid for padded domain {}",
                report.row,
                report.bit,
                self.padded_size()
            )));
        }
        state.spectrum[report.row as usize] += i64::from(report.bit);
        state.n += 1;
        Ok(())
    }

    // absorb_slice keeps the default report-at-a-time loop: an HRR absorb
    // is one validity check and one spectrum scatter-add, and the scatter
    // rows may alias so a 4-wide unroll gains no instruction-level
    // parallelism — benchmarking showed it slower than the plain loop.
    // Bulk ingest still parallelizes through
    // `Aggregator::push_slice_sharded`.

    fn merge_state(
        &self,
        state: &mut SpectrumState,
        other: &SpectrumState,
    ) -> Result<(), CoreError> {
        if state.spectrum.len() != other.spectrum.len() {
            return Err(CoreError::ShardMismatch(format!(
                "spectrum states over {} vs {} rows",
                state.spectrum.len(),
                other.spectrum.len()
            )));
        }
        for (a, b) in state.spectrum.iter_mut().zip(&other.spectrum) {
            *a += b;
        }
        state.n += other.n;
        Ok(())
    }

    fn finalize(&self, state: &SpectrumState) -> Result<Vec<f64>, CoreError> {
        Ok(self.estimate_from_spectrum(&state.spectrum, state.n))
    }
}

/// The streaming state of the GRR/OLH adaptive oracle, tagged like its
/// reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdaptiveState {
    /// GRR was selected: per-value counts.
    Grr(CountState),
    /// OLH was selected: per-value support counts.
    Olh(SupportState),
}

impl AdaptiveState {
    /// Number of reports absorbed.
    #[must_use]
    pub fn total(&self) -> u64 {
        match self {
            AdaptiveState::Grr(s) => s.total(),
            AdaptiveState::Olh(s) => s.total(),
        }
    }
}

/// One line: `counts <n> <d> <count…>`.
impl SnapshotState for CountState {
    fn encode_state(&self, out: &mut String) {
        let _ = write!(out, "counts {} {}", self.n, self.counts.len());
        for c in &self.counts {
            let _ = write!(out, " {c}");
        }
        out.push('\n');
    }

    fn decode_state(lines: &mut dyn Iterator<Item = &str>) -> Result<Self, CoreError> {
        let line = next_line(lines, "count state")?;
        let mut it = line.split_whitespace();
        expect_tag(it.next(), "counts")?;
        let n: u64 = parse_snapshot_field(it.next(), "count state total")?;
        let d: usize = parse_snapshot_field(it.next(), "count state domain")?;
        let counts: Vec<u64> = parse_fields(it, d, "count state entry")?;
        // No mass-vs-total invariant holds here: GRR adds one count per
        // report but OUE adds one per set bit, so only field arity is
        // structural. Integrity is the snapshot container's checksum.
        Ok(CountState { counts, n })
    }
}

/// One line: `support <n> <d> <count…>`.
impl SnapshotState for SupportState {
    fn encode_state(&self, out: &mut String) {
        let _ = write!(out, "support {} {}", self.n, self.support.len());
        for c in &self.support {
            let _ = write!(out, " {c}");
        }
        out.push('\n');
    }

    fn decode_state(lines: &mut dyn Iterator<Item = &str>) -> Result<Self, CoreError> {
        let line = next_line(lines, "support state")?;
        let mut it = line.split_whitespace();
        expect_tag(it.next(), "support")?;
        let n: u64 = parse_snapshot_field(it.next(), "support state total")?;
        let d: usize = parse_snapshot_field(it.next(), "support state domain")?;
        let support: Vec<u64> = parse_fields(it, d, "support state entry")?;
        Ok(SupportState { support, n })
    }
}

/// One line: `spectrum <n> <rows> <sum…>`.
impl SnapshotState for SpectrumState {
    fn encode_state(&self, out: &mut String) {
        let _ = write!(out, "spectrum {} {}", self.n, self.spectrum.len());
        for s in &self.spectrum {
            let _ = write!(out, " {s}");
        }
        out.push('\n');
    }

    fn decode_state(lines: &mut dyn Iterator<Item = &str>) -> Result<Self, CoreError> {
        let line = next_line(lines, "spectrum state")?;
        let mut it = line.split_whitespace();
        expect_tag(it.next(), "spectrum")?;
        let n: u64 = parse_snapshot_field(it.next(), "spectrum state total")?;
        let rows: usize = parse_snapshot_field(it.next(), "spectrum state rows")?;
        let spectrum: Vec<i64> = parse_fields(it, rows, "spectrum state entry")?;
        // Each report contributes ±1 to exactly one row.
        if spectrum.iter().map(|s| s.unsigned_abs()).sum::<u64>() > n {
            return Err(CoreError::Snapshot(format!(
                "spectrum state magnitude exceeds its total {n}"
            )));
        }
        Ok(SpectrumState { spectrum, n })
    }
}

/// Two lines: `adaptive g|o` naming the selected protocol, then the inner
/// count/support state line.
impl SnapshotState for AdaptiveState {
    fn encode_state(&self, out: &mut String) {
        match self {
            AdaptiveState::Grr(s) => {
                out.push_str("adaptive g\n");
                s.encode_state(out);
            }
            AdaptiveState::Olh(s) => {
                out.push_str("adaptive o\n");
                s.encode_state(out);
            }
        }
    }

    fn decode_state(lines: &mut dyn Iterator<Item = &str>) -> Result<Self, CoreError> {
        let line = next_line(lines, "adaptive state tag")?;
        let mut it = line.split_whitespace();
        expect_tag(it.next(), "adaptive")?;
        let kind = it
            .next()
            .ok_or_else(|| CoreError::Snapshot("adaptive state tag missing protocol".into()))?;
        if it.next().is_some() {
            return Err(CoreError::Snapshot(format!(
                "trailing fields on adaptive tag line {line:?}"
            )));
        }
        match kind {
            "g" => Ok(AdaptiveState::Grr(CountState::decode_state(lines)?)),
            "o" => Ok(AdaptiveState::Olh(SupportState::decode_state(lines)?)),
            other => Err(CoreError::Snapshot(format!(
                "unknown adaptive protocol tag {other:?}"
            ))),
        }
    }
}

impl Mechanism for AdaptiveOracle {
    type Input = usize;
    type Report = AdaptiveReport;
    type State = AdaptiveState;
    type Output = Vec<f64>;

    fn epsilon(&self) -> Epsilon {
        match self {
            AdaptiveOracle::Grr(o) => Mechanism::epsilon(o),
            AdaptiveOracle::Olh(o) => Mechanism::epsilon(o),
        }
    }

    fn fingerprint(&self) -> u64 {
        match self {
            AdaptiveOracle::Grr(o) => Mechanism::fingerprint(o),
            AdaptiveOracle::Olh(o) => Mechanism::fingerprint(o),
        }
    }

    fn randomize<R: Rng + ?Sized>(
        &self,
        input: &usize,
        rng: &mut R,
    ) -> Result<AdaptiveReport, CoreError> {
        Ok(match self {
            AdaptiveOracle::Grr(o) => AdaptiveReport::Grr(Mechanism::randomize(o, input, rng)?),
            AdaptiveOracle::Olh(o) => AdaptiveReport::Olh(Mechanism::randomize(o, input, rng)?),
        })
    }

    fn randomize_block<R: Rng + ?Sized>(
        &self,
        inputs: &[usize],
        rng: &mut R,
        out: &mut Vec<AdaptiveReport>,
    ) -> Result<(), CoreError> {
        let plan = self.draw_plan();
        let walked = inputs.iter().all(|&v| v < self.domain_size())
            && plan.walk(inputs.len(), rng, out, |i, draws, steps| {
                plan.report(inputs[i], draws, steps)
            });
        if walked {
            return Ok(());
        }
        randomize_serial(self, inputs, rng, out)
    }

    fn empty_state(&self) -> AdaptiveState {
        match self {
            AdaptiveOracle::Grr(o) => AdaptiveState::Grr(o.empty_state()),
            AdaptiveOracle::Olh(o) => AdaptiveState::Olh(o.empty_state()),
        }
    }

    fn absorb(&self, state: &mut AdaptiveState, report: &AdaptiveReport) -> Result<(), CoreError> {
        match (self, state, report) {
            (AdaptiveOracle::Grr(o), AdaptiveState::Grr(s), AdaptiveReport::Grr(r)) => {
                o.absorb(s, r)
            }
            (AdaptiveOracle::Olh(o), AdaptiveState::Olh(s), AdaptiveReport::Olh(r)) => {
                o.absorb(s, r)
            }
            _ => Err(CoreError::InvalidReport(
                "adaptive report protocol does not match the selected oracle".into(),
            )),
        }
    }

    fn merge_state(
        &self,
        state: &mut AdaptiveState,
        other: &AdaptiveState,
    ) -> Result<(), CoreError> {
        match (self, state, other) {
            (AdaptiveOracle::Grr(o), AdaptiveState::Grr(s), AdaptiveState::Grr(t)) => {
                o.merge_state(s, t)
            }
            (AdaptiveOracle::Olh(o), AdaptiveState::Olh(s), AdaptiveState::Olh(t)) => {
                o.merge_state(s, t)
            }
            _ => Err(CoreError::ShardMismatch(
                "adaptive states were collected under different protocols".into(),
            )),
        }
    }

    fn finalize(&self, state: &AdaptiveState) -> Result<Vec<f64>, CoreError> {
        match (self, state) {
            (AdaptiveOracle::Grr(o), AdaptiveState::Grr(s)) => o.finalize(s),
            (AdaptiveOracle::Olh(o), AdaptiveState::Olh(s)) => o.finalize(s),
            _ => Err(CoreError::ShardMismatch(
                "adaptive state was collected under a different protocol".into(),
            )),
        }
    }
}

impl Mechanism for BinningEstimator {
    type Input = f64;
    type Report = AdaptiveReport;
    type State = AdaptiveState;
    type Output = Histogram;

    fn epsilon(&self) -> Epsilon {
        Mechanism::epsilon(self.oracle())
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_fields(
            tag::BINNING,
            &[
                self.bins() as u64,
                self.target_d() as u64,
                Mechanism::fingerprint(self.oracle()),
            ],
        )
    }

    fn randomize<R: Rng + ?Sized>(
        &self,
        input: &f64,
        rng: &mut R,
    ) -> Result<AdaptiveReport, CoreError> {
        if !input.is_finite() {
            return Err(CoreError::InvalidInput(format!(
                "private value {input} is not finite"
            )));
        }
        let bucket = bucket_of(input.clamp(0.0, 1.0), self.bins());
        Mechanism::randomize(self.oracle(), &bucket, rng)
    }

    fn randomize_block<R: Rng + ?Sized>(
        &self,
        inputs: &[f64],
        rng: &mut R,
        out: &mut Vec<AdaptiveReport>,
    ) -> Result<(), CoreError> {
        // Every finite value maps to a bin, which the oracle's plan
        // randomizes; a NaN or infinity stays serial. The bins are found
        // in a pass of their own: inside the walk they would lengthen
        // each report's chain from input to output.
        if !inputs.iter().all(|v| v.is_finite()) {
            return randomize_serial(self, inputs, rng, out);
        }
        let bins: Vec<usize> = inputs
            .iter()
            .map(|v| bucket_of(v.clamp(0.0, 1.0), self.bins()))
            .collect();
        let plan = self.oracle().draw_plan();
        if plan.walk(bins.len(), rng, out, |i, draws, steps| {
            plan.report(bins[i], draws, steps)
        }) {
            return Ok(());
        }
        randomize_serial(self, inputs, rng, out)
    }

    fn empty_state(&self) -> AdaptiveState {
        self.oracle().empty_state()
    }

    fn absorb(&self, state: &mut AdaptiveState, report: &AdaptiveReport) -> Result<(), CoreError> {
        self.oracle().absorb(state, report)
    }

    fn merge_state(
        &self,
        state: &mut AdaptiveState,
        other: &AdaptiveState,
    ) -> Result<(), CoreError> {
        self.oracle().merge_state(state, other)
    }

    fn finalize(&self, state: &AdaptiveState) -> Result<Histogram, CoreError> {
        if state.total() == 0 {
            return Err(CoreError::Aggregation(
                "need at least one report to estimate a distribution".into(),
            ));
        }
        let raw = self.oracle().finalize(state)?;
        let repaired = norm_sub(&raw, 1.0);
        let coarse =
            Histogram::from_probs(repaired).map_err(|e| CoreError::Aggregation(e.to_string()))?;
        coarse
            .expand_uniform(self.target_d() / self.bins())
            .map_err(|e| CoreError::Aggregation(e.to_string()))
    }
}

impl WireReport for OlhReport {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{} {}", self.seed, self.y);
    }

    fn decode(line: &str) -> Result<Self, CoreError> {
        let mut it = line.split_whitespace();
        let seed = parse_field(it.next().unwrap_or(""), "OLH seed")?;
        let y = parse_field(it.next().unwrap_or(""), "OLH value")?;
        if it.next().is_some() {
            return Err(CoreError::Wire(format!("trailing fields in {line:?}")));
        }
        Ok(OlhReport { seed, y })
    }
}

impl WireReport for HrrReport {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{} {}", self.row, self.bit);
    }

    fn decode(line: &str) -> Result<Self, CoreError> {
        let mut it = line.split_whitespace();
        let row = parse_field(it.next().unwrap_or(""), "HRR row")?;
        let bit: i8 = parse_field(it.next().unwrap_or(""), "HRR bit")?;
        if it.next().is_some() {
            return Err(CoreError::Wire(format!("trailing fields in {line:?}")));
        }
        if bit.abs() != 1 {
            return Err(CoreError::Wire(format!("HRR bit must be ±1, got {bit}")));
        }
        Ok(HrrReport { row, bit })
    }
}

impl WireReport for OueReport {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{}", self.len());
        for w in self.words() {
            let _ = write!(out, " {w:x}");
        }
    }

    fn decode(line: &str) -> Result<Self, CoreError> {
        let mut it = line.split_whitespace();
        let len: usize = parse_field(it.next().unwrap_or(""), "OUE length")?;
        // Sized by the words actually present on the line, never by the
        // (untrusted) length field — `from_words` then validates the two
        // against each other. A tampered length must produce a wire error,
        // not a pathological allocation.
        let mut bits = Vec::new();
        for field in it {
            let w = u64::from_str_radix(field, 16)
                .map_err(|_| CoreError::Wire(format!("cannot parse OUE word from {field:?}")))?;
            bits.push(w);
        }
        OueReport::from_words(bits, len).map_err(|e| CoreError::Wire(e.to_string()))
    }
}

impl WireReport for AdaptiveReport {
    fn encode(&self, out: &mut String) {
        match self {
            AdaptiveReport::Grr(v) => {
                let _ = write!(out, "g {v}");
            }
            AdaptiveReport::Olh(r) => {
                out.push_str("o ");
                r.encode(out);
            }
        }
    }

    fn decode(line: &str) -> Result<Self, CoreError> {
        let (kind, rest) = line
            .split_once(' ')
            .ok_or_else(|| CoreError::Wire(format!("adaptive report needs a tag: {line:?}")))?;
        match kind {
            "g" => Ok(AdaptiveReport::Grr(parse_field(rest.trim(), "GRR value")?)),
            "o" => Ok(AdaptiveReport::Olh(OlhReport::decode(rest)?)),
            other => Err(CoreError::Wire(format!("unknown adaptive tag {other:?}"))),
        }
    }
}

/// Randomizes every input through one [`ldp_core::Client`] stream and
/// aggregates the reports: the one-shot run the unit tests exercise.
#[cfg(test)]
pub(crate) fn run<M: Mechanism, R: Rng>(mech: &M, inputs: &[M::Input], rng: &mut R) -> M::Output
where
    M::Input: Sized,
{
    let reports = ldp_core::Client::new(mech)
        .randomize_batch(inputs, rng)
        .unwrap();
    mech.aggregate(&reports).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::{encode_lines, Client};
    use ldp_numeric::SplitMix64;

    #[test]
    fn absorb_rejects_malformed_reports() {
        let grr = Grr::new(4, 1.0).unwrap();
        let mut st = grr.empty_state();
        assert!(grr.absorb(&mut st, &4).is_err());
        assert!(grr.absorb(&mut st, &3).is_ok());
        assert_eq!(st.total(), 1);

        let olh = Olh::new(8, 1.0).unwrap();
        let mut st = olh.empty_state();
        let bad = OlhReport {
            seed: 1,
            y: olh.hash_range() as u32,
        };
        assert!(olh.absorb(&mut st, &bad).is_err());

        let hrr = Hrr::new(8, 1.0).unwrap();
        let mut st = hrr.empty_state();
        assert!(hrr.absorb(&mut st, &HrrReport { row: 0, bit: 2 }).is_err());
        assert!(hrr.absorb(&mut st, &HrrReport { row: 99, bit: 1 }).is_err());

        let oue = Oue::new(8, 1.0).unwrap();
        let other = Oue::new(16, 1.0).unwrap();
        let mut rng = SplitMix64::new(1);
        let wrong_len = Mechanism::randomize(&other, &0, &mut rng).unwrap();
        let mut st = oue.empty_state();
        assert!(oue.absorb(&mut st, &wrong_len).is_err());
    }

    #[test]
    fn adaptive_rejects_cross_protocol_reports_and_states() {
        let grr_oracle = AdaptiveOracle::new(4, 1.0).unwrap();
        assert!(matches!(grr_oracle, AdaptiveOracle::Grr(_)));
        let mut st = grr_oracle.empty_state();
        let olh_report = AdaptiveReport::Olh(OlhReport { seed: 0, y: 0 });
        assert!(grr_oracle.absorb(&mut st, &olh_report).is_err());

        let olh_oracle = AdaptiveOracle::new(1024, 1.0).unwrap();
        let foreign = olh_oracle.empty_state();
        assert!(grr_oracle.merge_state(&mut st, &foreign).is_err());
    }

    #[test]
    fn fingerprints_distinguish_oracles_and_configs() {
        let a = Mechanism::fingerprint(&Grr::new(8, 1.0).unwrap());
        let b = Mechanism::fingerprint(&Grr::new(8, 2.0).unwrap());
        let c = Mechanism::fingerprint(&Grr::new(16, 1.0).unwrap());
        let d = Mechanism::fingerprint(&Oue::new(8, 1.0).unwrap());
        assert!(a != b && a != c && a != d);
        // Same config -> same fingerprint.
        assert_eq!(a, Mechanism::fingerprint(&Grr::new(8, 1.0).unwrap()));
    }

    #[test]
    fn wire_reports_round_trip() {
        let mut rng = SplitMix64::new(909);
        let olh = Olh::new(32, 1.0).unwrap();
        let oue = Oue::new(130, 1.0).unwrap();
        let hrr = Hrr::new(20, 1.0).unwrap();
        let adaptive = AdaptiveOracle::new(1024, 1.0).unwrap();
        for v in 0..20usize {
            let r = Mechanism::randomize(&olh, &(v % 32), &mut rng).unwrap();
            let mut s = String::new();
            r.encode(&mut s);
            assert_eq!(OlhReport::decode(&s).unwrap(), r);

            let r = Mechanism::randomize(&oue, &(v % 130), &mut rng).unwrap();
            let mut s = String::new();
            r.encode(&mut s);
            assert_eq!(OueReport::decode(&s).unwrap(), r);

            let r = Mechanism::randomize(&hrr, &(v % 20), &mut rng).unwrap();
            let mut s = String::new();
            r.encode(&mut s);
            assert_eq!(HrrReport::decode(&s).unwrap(), r);

            let r = Mechanism::randomize(&adaptive, &(v % 1024), &mut rng).unwrap();
            let mut s = String::new();
            r.encode(&mut s);
            assert_eq!(AdaptiveReport::decode(&s).unwrap(), r);
        }
    }

    #[test]
    fn wire_rejects_malformed_lines() {
        assert!(OlhReport::decode("1").is_err());
        assert!(OlhReport::decode("1 2 3").is_err());
        assert!(HrrReport::decode("3 0").is_err());
        assert!(OueReport::decode("64 zz").is_err());
        assert!(OueReport::decode("64").is_err());
        // A tampered length field must yield a wire error, never a
        // length-sized allocation.
        assert!(OueReport::decode("99999999999999999 0").is_err());
        assert!(AdaptiveReport::decode("x 3").is_err());
        assert!(AdaptiveReport::decode("g").is_err());
    }

    #[test]
    fn snapshot_states_round_trip_for_every_oracle() {
        let values: Vec<usize> = (0..500).map(|i| (i * 13) % 8).collect();
        let mut rng = SplitMix64::new(606);

        macro_rules! check {
            ($oracle:expr) => {{
                let oracle = $oracle;
                let mut state = oracle.empty_state();
                for v in &values {
                    let r = Mechanism::randomize(&oracle, v, &mut rng).unwrap();
                    oracle.absorb(&mut state, &r).unwrap();
                }
                let mut text = String::new();
                state.encode_state(&mut text);
                let mut lines = text.lines();
                let restored = SnapshotState::decode_state(&mut lines).unwrap();
                assert!(lines.next().is_none(), "decoder must consume its lines");
                assert_eq!(state, restored);
                let a = oracle.finalize(&state).unwrap();
                let b = oracle.finalize(&restored).unwrap();
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }};
        }

        check!(Grr::new(8, 1.0).unwrap());
        check!(Oue::new(8, 1.0).unwrap());
        check!(Olh::new(8, 1.0).unwrap());
        check!(Hrr::new(8, 1.0).unwrap());
        check!(AdaptiveOracle::new(8, 1.0).unwrap());
        check!(AdaptiveOracle::new(4096, 1.0).unwrap()); // OLH arm
    }

    #[test]
    fn snapshot_states_reject_malformed_lines() {
        let mut it = "counts 5 3 1 2".lines();
        assert!(CountState::decode_state(&mut it).is_err(), "short fields");
        let mut it = "counts 5 2 1 2 3".lines();
        assert!(CountState::decode_state(&mut it).is_err(), "long fields");
        let mut it = "support x 2 1 2".lines();
        assert!(SupportState::decode_state(&mut it).is_err(), "bad total");
        // A spectrum claiming more ±1 mass than reports absorbed.
        let mut it = "spectrum 2 4 3 0 0 0".lines();
        assert!(SpectrumState::decode_state(&mut it).is_err());
        let mut it = "adaptive q\ncounts 0 2 0 0".lines();
        assert!(AdaptiveState::decode_state(&mut it).is_err(), "bad tag");
        let mut it = "adaptive g".lines();
        assert!(
            AdaptiveState::decode_state(&mut it).is_err(),
            "missing inner state"
        );
    }

    #[test]
    fn encode_lines_round_trips_mixed_stream() {
        let grr = Grr::new(6, 1.0).unwrap();
        let mut rng = SplitMix64::new(31);
        let client = Client::new(&grr);
        let reports: Vec<usize> = (0..50)
            .map(|i| client.randomize(&(i % 6), &mut rng).unwrap())
            .collect();
        let text = encode_lines(&reports);
        let back: Vec<usize> = ldp_core::decode_lines(&text).unwrap();
        assert_eq!(back, reports);
        // Identical estimate from the replayed stream.
        let a = Mechanism::aggregate(&grr, &reports).unwrap();
        let b = Mechanism::aggregate(&grr, &back).unwrap();
        assert_eq!(a, b);
    }
}
