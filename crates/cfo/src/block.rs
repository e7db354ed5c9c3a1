//! Block randomization for GRR and OLH: each randomizer in *draw form*,
//! the shape [`SplitMix64::walk_reports`] walks.
//!
//! A GRR report reads a keep coin and, when the coin misses, one bounded
//! draw that picks among the other values: 1 or 2 draws. An OLH report
//! reads its hash seed first, then the same coin and bounded draw: 2 or 3.
//! A [`DrawPlan`] records where the coin sits, its integer threshold
//! ([`unit_threshold`]) and the bound, so a step-table entry is one
//! compare, and a report is computed from its draws with no
//! data-dependent branch: both candidates are built and the step count
//! picks one arithmetically, and the remainders are multiplications
//! ([`Divisor`]), not divides.

use crate::grr::Grr;
use crate::olh::{Olh, OlhReport};
use crate::select::{AdaptiveOracle, AdaptiveReport};
use ldp_numeric::kernels::Divisor;
use ldp_numeric::rng::{mix64, unit_threshold};
use ldp_numeric::SplitMix64;
use rand::Rng;

/// A GRR or OLH randomizer in draw form (see the module docs). Hierarchy
/// estimators compose one per tree level behind their own level draw.
#[derive(Debug, Clone, Copy)]
pub struct DrawPlan {
    /// Draws before the keep coin: 0 for GRR, 1 for OLH (its hash seed).
    lead: usize,
    /// The coin keeps iff `(coin >> 11) < keep_below`, i.e. iff
    /// `gen::<f64>() < p`.
    keep_below: u64,
    /// How many other values a missed coin picks among: `d − 1` for GRR,
    /// `g − 1` for OLH.
    others: Divisor,
    /// OLH's hash range `g` (unused by GRR).
    g: Divisor,
}

impl DrawPlan {
    /// The most draws one report consumes: 2 for GRR, 3 for OLH.
    #[must_use]
    pub fn max_draws(self) -> usize {
        self.lead + 2
    }

    /// The draws a report whose first draw is `draws[0]` consumes.
    #[inline]
    #[must_use]
    pub fn steps(self, draws: &[u64]) -> u8 {
        self.max_draws() as u8 - u8::from((draws[self.lead] >> 11) < self.keep_below)
    }

    /// The keep-or-other choice both oracles share: `kept` if the coin
    /// landed (`steps` is the report's step count, read back from the
    /// step table), else `draw % others` shifted past `kept` (the serial
    /// `gen_range(0..others)` and skip). The choice is arithmetic on the
    /// step count, so the compiler cannot turn it into a branch.
    #[inline]
    fn keep_or_other(self, kept: u64, draw: u64, steps: u8) -> u64 {
        let missed = u64::from(steps) - self.lead as u64 - 1;
        let other = draw % self.others;
        let other = other + u64::from(other >= kept);
        kept.wrapping_add(other.wrapping_sub(kept).wrapping_mul(missed))
    }

    /// The GRR report for `value` whose first draw is `draws[0]` and that
    /// consumes `steps` draws ([`DrawPlan::steps`]); reads `draws[..2]`.
    #[inline]
    #[must_use]
    pub(crate) fn grr(self, value: usize, draws: &[u64], steps: u8) -> usize {
        self.keep_or_other(value as u64, draws[1], steps) as usize
    }

    /// The OLH report for `value` whose first draw (its hash seed) is
    /// `draws[0]` and that consumes `steps` draws; reads `draws[..3]`.
    #[inline]
    #[must_use]
    pub(crate) fn olh(self, value: usize, draws: &[u64], steps: u8) -> OlhReport {
        let seed = draws[0];
        // `olh_hash`, with the remainder by multiplication.
        let h = mix64(seed ^ mix64(value as u64)) % self.g;
        let y = self.keep_or_other(h, draws[2], steps) as u32;
        OlhReport { seed, y }
    }

    /// The report of whichever oracle this plan is, for `value` whose
    /// first draw is `draws[0]` and that consumes `steps` draws; reads
    /// `draws[..self.max_draws()]`.
    #[inline]
    #[must_use]
    pub fn report(self, value: usize, draws: &[u64], steps: u8) -> AdaptiveReport {
        if self.lead == 0 {
            AdaptiveReport::Grr(self.grr(value, draws, steps))
        } else {
            AdaptiveReport::Olh(self.olh(value, draws, steps))
        }
    }

    /// Randomizes `reports` values on the block walk, appending
    /// `emit(i, draws, steps)` for report `i` to `out`, where `draws`
    /// starts at the report's first draw and `steps` is its step count;
    /// the caller maps `i` to its (in-domain) value. Returns `false`,
    /// touching nothing, when `rng` is not a walkable `SplitMix64`
    /// ([`SplitMix64::block_stream`]).
    pub(crate) fn walk<R: Rng + ?Sized, T>(
        self,
        reports: usize,
        rng: &mut R,
        out: &mut Vec<T>,
        emit: impl Fn(usize, &[u64], u8) -> T,
    ) -> bool {
        let Some(stream) = SplitMix64::block_stream(rng) else {
            return false;
        };
        out.reserve(reports);
        stream.walk_reports(
            reports,
            self.max_draws(),
            |draws, steps| {
                let most = self.max_draws() as u8;
                for (s, &coin) in steps.iter_mut().zip(&draws[self.lead..]) {
                    *s = most - u8::from((coin >> 11) < self.keep_below);
                }
            },
            |draws, steps, i| {
                out.push(emit(i, draws, steps));
                usize::from(steps)
            },
        );
        true
    }
}

impl Grr {
    /// This oracle's randomizer in draw form.
    #[must_use]
    pub(crate) fn draw_plan(&self) -> DrawPlan {
        DrawPlan {
            lead: 0,
            keep_below: unit_threshold(self.p),
            others: Divisor::new(self.d as u64 - 1),
            g: Divisor::new(1),
        }
    }
}

impl Olh {
    /// This oracle's randomizer in draw form.
    #[must_use]
    pub(crate) fn draw_plan(&self) -> DrawPlan {
        DrawPlan {
            lead: 1,
            keep_below: unit_threshold(self.p),
            others: Divisor::new(self.g as u64 - 1),
            g: Divisor::new(self.g as u64),
        }
    }
}

impl AdaptiveOracle {
    /// The selected oracle's randomizer in draw form.
    #[must_use]
    pub fn draw_plan(&self) -> DrawPlan {
        match self {
            AdaptiveOracle::Grr(o) => o.draw_plan(),
            AdaptiveOracle::Olh(o) => o.draw_plan(),
        }
    }
}
