//! Structured (banded + baseline) transition operators.
//!
//! Every wave transition matrix (paper §5.5) has the form
//!
//! ```text
//! M = baseline · 1·1ᵀ + B
//! ```
//!
//! where the rank-1 baseline is the far density `q` integrated over one
//! output bucket and `B` is a *band*: `B[j][i] ≠ 0` only when the output
//! bucket `B̃j` is within the wave bandwidth `b` of the input bucket `Bi`.
//! Inside the band, every entry whose bucket pair sits entirely under the
//! wave's flat top equals the same plateau value `(peak − q)·w̃`; only the
//! few buckets straddling a flat-top edge need an exact fractional-overlap
//! integral. [`BandedBaselineOperator`] stores exactly that decomposition —
//! a scalar baseline, a scalar plateau, and per-row/per-column runs with
//! explicit edge entries — so applying `M` (or `Mᵀ`) costs
//! `O(d + d̃ + edges)` instead of the dense `O(d·d̃)`: the baseline needs
//! one running sum of the input, the plateau run one prefix-sum window, and
//! the edges a handful of multiplies. For the square wave (flat top = whole
//! band) `edges` is `O(d + d̃)`, making EM/EMS reconstruction linear in the
//! domain size per iteration.
//!
//! # Layout
//!
//! Every band line (one per output bucket for `M·x`, one per input bucket
//! for `Mᵀ·x`) is `head` explicit entries, a plateau run, then `tail`
//! explicit entries. Lines are grouped by their `(head, tail)` length
//! *class* and stored class by class in four flat arrays per sweep — the
//! output index, the first band index and the plateau run length of every
//! line as `u32`, and the edge entries back to back as `f64` — so each
//! class is one contiguous slice of each array, a matvec walks a handful
//! of contiguous arrays, and building an operator costs a few exact-size
//! allocations rather than two per line.
//!
//! A class with `head, tail ≤ 3` (every square-wave line at `d̃ = d`) is
//! applied by a kernel monomorphized on both lengths: its loops have fixed
//! trip counts and the per-line code carries no length branches. Applying
//! class by class keeps the branch predictor out of the picture; walking
//! the lines in index order instead interleaves the classes in
//! quasi-periodic sequences that defeat it.
//!
//! Every line keeps one fixed summation order — head edges left to right,
//! then `plateau · (prefix[b] − prefix[a])`, then the tail edges, then
//! `base + acc` — and the prefix sums run left to right, so grouping
//! changes only which line runs when, never the arithmetic inside a line.
//!
//! **Fallback.** Longer edge runs take a loop with runtime trip counts in
//! the same order. An operator with an edge run of 8 or more entries
//! anywhere (trapezoid and triangle shapes, coarse output grids) applies
//! *every* line through the blocked 4-accumulator
//! [`ldp_numeric::kernels::dot4`] instead, adding each edge run's subtotal
//! to the line's sum. The kernel is chosen per operator, at construction,
//! so the arithmetic of a line depends only on the wave and the grid —
//! never on the class it was grouped into.
//!
//! The constructors are *exact*: entries are produced by the same analytic
//! integrals [`crate::transition::transition_matrix`] uses, so the operator
//! matches the dense matrix to within a few ulps (the dense path's final
//! column normalization only erases quadrature residue of that order).

use crate::error::SwError;
use crate::wave::{Wave, WaveShape};
use ldp_core::Epsilon;
use ldp_numeric::kernels::dot4;
use ldp_numeric::operator::{check_matvec_dims, LinearOperator};
use ldp_numeric::quad::{integral_of_interval_overlap, integrate_with_breakpoints};
use ldp_numeric::{Matrix, NumericError};

/// Longest edge run (on either side of the plateau) whose class gets a
/// kernel with fixed trip counts.
const FIXED_EDGE_LEN: usize = 3;

/// An operator with an edge run this long anywhere applies every line
/// through [`dot4`]: below it the blocked kernel's setup costs more than
/// the multiply-adds it saves.
const BLOCKED_EDGE_LEN: usize = 8;

/// How a [`LineClass`] accumulates its explicit edge entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeKernel {
    /// One running sum: head edges, plateau, tail edges, in index order.
    Serial,
    /// Each edge run summed by [`dot4`] (AVX2 when available, with each
    /// vector lane standing in for one scalar accumulator — bit-identical
    /// either way), its subtotal then added to the line's sum.
    Blocked,
}

/// One compressed sweep of the band `B` — rows for `M·x`, columns for
/// `Mᵀ·x` — as flat per-line arrays ordered class by class (see the module
/// docs).
///
/// Line `k` covers band indices `[head_start[k], head_start[k] + head +
/// run_len[k] + tail)`, where `head` and `tail` are its class's edge
/// lengths; entries outside that range are zero (the full matrix entry
/// there is just the baseline).
#[derive(Debug, Clone, PartialEq)]
struct Band {
    /// The classes, each a run of consecutive lines.
    classes: Vec<LineClass>,
    /// Output index of each line (its row for `M·x`, column for `Mᵀ·x`).
    out: Vec<u32>,
    /// First band index of each line.
    head_start: Vec<u32>,
    /// Plateau run length of each line.
    run_len: Vec<u32>,
    /// Each line's `head + tail` explicit entries, head first, line after
    /// line.
    edges: Vec<f64>,
}

/// The lines of a [`Band`] sharing one `(head, tail)` edge-length class:
/// lines `[first, first + lines)`, whose edges start at `first_edge`.
#[derive(Debug, Clone, PartialEq)]
struct LineClass {
    /// Explicit entries before each line's plateau run.
    head: usize,
    /// Explicit entries after each line's plateau run.
    tail: usize,
    kernel: EdgeKernel,
    first: usize,
    lines: usize,
    first_edge: usize,
}

/// The per-call inputs every line of one matvec reads.
struct Sweep<'a> {
    x: &'a [f64],
    /// `prefix[k] = x[0] + … + x[k−1]`.
    prefix: &'a [f64],
    plateau: f64,
    /// The baseline's contribution, `baseline · Σx`, shared by every line.
    base: f64,
}

/// `acc + e[0]·x[0] + e[1]·x[1] + …`, left to right.
#[inline(always)]
fn accumulate(mut acc: f64, entries: &[f64], window: &[f64]) -> f64 {
    for (e, v) in entries.iter().zip(window) {
        acc += e * v;
    }
    acc
}

impl LineClass {
    /// Whether this class runs through a kernel with fixed trip counts.
    fn is_fixed(&self) -> bool {
        self.kernel == EdgeKernel::Serial
            && self.head <= FIXED_EDGE_LEN
            && self.tail <= FIXED_EDGE_LEN
    }

    /// Writes `y[out[k]]` for every line `k` of this class of `band`.
    fn apply(&self, band: &Band, sweep: &Sweep, y: &mut [f64]) {
        match self.kernel {
            EdgeKernel::Blocked => self.lines(band, self.head, self.tail, true, sweep, y),
            EdgeKernel::Serial => match self.head {
                0 => self.fixed_head::<0>(band, sweep, y),
                1 => self.fixed_head::<1>(band, sweep, y),
                2 => self.fixed_head::<2>(band, sweep, y),
                3 => self.fixed_head::<3>(band, sweep, y),
                head => self.lines(band, head, self.tail, false, sweep, y),
            },
        }
    }

    /// [`Self::apply`] for a serial class of head length `H`, with each
    /// tail length up to [`FIXED_EDGE_LEN`] a compile-time constant too.
    fn fixed_head<const H: usize>(&self, band: &Band, sweep: &Sweep, y: &mut [f64]) {
        match self.tail {
            0 => self.lines(band, H, 0, false, sweep, y),
            1 => self.lines(band, H, 1, false, sweep, y),
            2 => self.lines(band, H, 2, false, sweep, y),
            3 => self.lines(band, H, 3, false, sweep, y),
            tail => self.lines(band, H, tail, false, sweep, y),
        }
    }

    /// The line loop every kernel shares; inlined into each call site so a
    /// constant `head`/`tail` fixes the edge loops' trip counts.
    #[inline(always)]
    fn lines(
        &self,
        band: &Band,
        head: usize,
        tail: usize,
        blocked: bool,
        sweep: &Sweep,
        y: &mut [f64],
    ) {
        let width = head + tail;
        let (x, prefix) = (sweep.x, sweep.prefix);
        let range = self.first..self.first + self.lines;
        let edges = &band.edges[self.first_edge..][..self.lines * width];
        let lines = band.out[range.clone()]
            .iter()
            .zip(&band.head_start[range.clone()])
            .zip(&band.run_len[range]);
        for (k, ((&out, &start), &run)) in lines.enumerate() {
            let (head_edges, tail_edges) = edges[k * width..][..width].split_at(head);
            let start = start as usize;
            let head_end = start + head;
            let run_end = head_end + run as usize;
            let head_x = &x[start..head_end];
            let tail_x = &x[run_end..run_end + tail];
            let plateau = sweep.plateau * (prefix[run_end] - prefix[head_end]);
            let acc = if blocked {
                dot4(head_edges, head_x) + plateau + dot4(tail_edges, tail_x)
            } else {
                accumulate(
                    accumulate(0.0, head_edges, head_x) + plateau,
                    tail_edges,
                    tail_x,
                )
            };
            y[out as usize] = sweep.base + acc;
        }
    }
}

/// One line's band indices: explicit head `[lo, run_lo)`, plateau run
/// `[run_lo, run_hi)`, explicit tail `[run_hi, hi)`.
#[derive(Clone, Copy)]
struct Span {
    lo: usize,
    run_lo: usize,
    run_hi: usize,
    hi: usize,
}

impl Span {
    /// The line over band indices `[lo, hi)` with a plateau run candidate
    /// `[run_lo, run_hi)`, clamped into it.
    fn new((lo, hi): (usize, usize), (run_lo, run_hi): (usize, usize)) -> Self {
        let a = run_lo.clamp(lo, hi);
        let b = run_hi.clamp(lo, hi);
        let (run_lo, run_hi) = if a < b {
            (a, b)
        } else {
            (hi, hi) // empty run: everything explicit, in `head`
        };
        Span {
            lo,
            run_lo,
            run_hi,
            hi,
        }
    }

    /// The `(head, tail)` edge-length class.
    fn class(&self) -> (usize, usize) {
        (self.run_lo - self.lo, self.hi - self.run_hi)
    }
}

impl Band {
    /// Compresses the lines `0..lines` of one sweep, where `span(k)` is
    /// line `k`'s geometry and `entry(k, idx)` its explicit entry at band
    /// index `idx`. The first pass sizes each class, so every array is
    /// allocated once at its exact length.
    fn build(
        lines: usize,
        span: impl Fn(usize) -> Span,
        mut entry: impl FnMut(usize, usize) -> f64,
    ) -> Self {
        let mut classes: Vec<LineClass> = Vec::new();
        for k in 0..lines {
            let (head, tail) = span(k).class();
            match classes
                .iter_mut()
                .find(|c| (c.head, c.tail) == (head, tail))
            {
                Some(class) => class.lines += 1,
                None => classes.push(LineClass {
                    head,
                    tail,
                    kernel: EdgeKernel::Serial,
                    first: 0,
                    lines: 1,
                    first_edge: 0,
                }),
            }
        }
        classes.sort_by_key(|c| (c.head, c.tail));
        let (mut first, mut first_edge) = (0, 0);
        for class in &mut classes {
            class.first = first;
            class.first_edge = first_edge;
            first += class.lines;
            first_edge += class.lines * (class.head + class.tail);
        }

        let mut band = Band {
            out: vec![0; lines],
            head_start: vec![0; lines],
            run_len: vec![0; lines],
            edges: vec![0.0; first_edge],
            classes,
        };
        let mut next: Vec<usize> = band.classes.iter().map(|c| c.first).collect();
        for k in 0..lines {
            let s = span(k);
            let c = band
                .classes
                .iter()
                .position(|c| (c.head, c.tail) == s.class())
                .expect("every class was counted");
            let class = &band.classes[c];
            let slot = next[c];
            next[c] += 1;
            // Constructors reject grids with more than `u32::MAX` buckets.
            band.out[slot] = k as u32;
            band.head_start[slot] = s.lo as u32;
            band.run_len[slot] = (s.run_hi - s.run_lo) as u32;
            let width = class.head + class.tail;
            let edges = &mut band.edges[class.first_edge + (slot - class.first) * width..];
            let explicit = (s.lo..s.run_lo).chain(s.run_hi..s.hi);
            for (e, idx) in edges.iter_mut().zip(explicit) {
                *e = entry(k, idx);
            }
        }
        band
    }

    /// Applies this sweep to `x` class by class; every line writes its own
    /// output entry.
    fn apply(&self, plateau: f64, baseline: f64, x: &[f64], y: &mut [f64]) {
        let prefix = prefix_sums(x);
        let sweep = Sweep {
            x,
            prefix: &prefix,
            plateau,
            base: baseline * prefix[x.len()],
        };
        for class in &self.classes {
            class.apply(self, &sweep, y);
        }
    }
}

/// Sets the operator's edge kernel on every class of both sweeps (see the
/// module docs).
fn choose_kernel(rows: &mut Band, cols: &mut Band) {
    let longest = rows
        .classes
        .iter()
        .chain(&cols.classes)
        .map(|class| class.head.max(class.tail))
        .max()
        .unwrap_or(0);
    if longest >= BLOCKED_EDGE_LEN {
        for class in rows.classes.iter_mut().chain(&mut cols.classes) {
            class.kernel = EdgeKernel::Blocked;
        }
    }
}

/// Rejects bucket counts the `u32` line arrays cannot index.
fn check_bucket_counts(d: usize, d_tilde: usize) -> Result<(), SwError> {
    if d > u32::MAX as usize || d_tilde > u32::MAX as usize {
        return Err(SwError::InvalidParameter(format!(
            "bucket counts must fit in u32, got d={d}, d_tilde={d_tilde}"
        )));
    }
    Ok(())
}

/// A wave transition matrix in `baseline + banded` form (see the module
/// docs). Implements [`LinearOperator`], so [`crate::em::reconstruct`] and
/// [`crate::bootstrap::bootstrap`] accept it wherever a dense
/// [`Matrix`] works.
#[derive(Debug, Clone, PartialEq)]
pub struct BandedBaselineOperator {
    /// Input granularity `d` (columns).
    d: usize,
    /// Output granularity `d̃` (rows).
    d_tilde: usize,
    /// The rank-1 part: every matrix entry is at least this.
    baseline: f64,
    /// Band entry value where a bucket pair sits fully under the flat top.
    plateau: f64,
    /// Row-compressed band, one line per output bucket.
    rows: Band,
    /// Column-compressed band, one line per input bucket (for `Mᵀ·x`).
    cols: Band,
}

/// Geometry shared by the row and column sweeps of the continuous
/// constructor.
struct WaveGrid<'a> {
    wave: &'a Wave,
    w_in: f64,
    w_out: f64,
    out_lo: f64,
    baseline: f64,
}

impl WaveGrid<'_> {
    /// The band entry `B[j][i] = M[j][i] − baseline`, via the same exact
    /// integrals the dense builder uses.
    fn bump(&self, j: usize, i: usize) -> f64 {
        let bj_lo = self.out_lo + j as f64 * self.w_out;
        let bj_hi = bj_lo + self.w_out;
        let bi_lo = i as f64 * self.w_in;
        let bi_hi = bi_lo + self.w_in;
        let wave = self.wave;
        match wave.shape() {
            WaveShape::Square => {
                let avg =
                    integral_of_interval_overlap(bi_lo, bi_hi, wave.b(), bj_lo, bj_hi) / self.w_in;
                (wave.peak() - wave.q()) * avg
            }
            _ => {
                let wave_breaks = wave.breakpoints();
                let mut vbreaks = Vec::with_capacity(2 * wave_breaks.len());
                for &z in &wave_breaks {
                    vbreaks.push(bj_lo - z);
                    vbreaks.push(bj_hi - z);
                }
                let integral = integrate_with_breakpoints(
                    |v| wave.mass_on_interval(v, bj_lo, bj_hi),
                    &vbreaks,
                    bi_lo,
                    bi_hi,
                    1,
                );
                integral / self.w_in - self.baseline
            }
        }
    }
}

/// Clamps a real-valued index bound into `[0, n]`, mapping negatives to 0.
#[inline]
fn clamp_index(x: f64, n: usize) -> usize {
    if x <= 0.0 {
        0
    } else {
        (x as usize).min(n)
    }
}

impl BandedBaselineOperator {
    /// Builds the structured operator exactly equivalent to
    /// [`crate::transition::transition_matrix`]`(wave, d, d_tilde)` (to a
    /// few ulps — see the module docs).
    pub fn from_wave(wave: &Wave, d: usize, d_tilde: usize) -> Result<Self, SwError> {
        if d == 0 || d_tilde == 0 {
            return Err(SwError::InvalidParameter(
                "bucket counts must be positive".into(),
            ));
        }
        check_bucket_counts(d, d_tilde)?;
        let w_in = 1.0 / d as f64;
        let out_lo = wave.output_lo();
        let w_out = (wave.output_hi() - out_lo) / d_tilde as f64;
        let b = wave.b();
        let ft = wave.flat_top_halfwidth();
        let baseline = wave.q() * w_out;
        let plateau = (wave.peak() - wave.q()) * w_out;
        let grid = WaveGrid {
            wave,
            w_in,
            w_out,
            out_lo,
            baseline,
        };

        // Row sweep: for output bucket j, band columns are the input
        // buckets meeting (bj_lo − b, bj_hi + b); the plateau run holds the
        // columns with Bi × B̃j entirely under the flat top, i.e.
        // bi_lo ≥ bj_hi − ft and bi_hi ≤ bj_lo + ft.
        let mut rows = Band::build(
            d_tilde,
            |j| {
                let bj_lo = out_lo + j as f64 * w_out;
                let bj_hi = bj_lo + w_out;
                Span::new(
                    (
                        clamp_index(((bj_lo - b) / w_in).floor(), d),
                        clamp_index(((bj_hi + b) / w_in).ceil(), d),
                    ),
                    (
                        clamp_index(((bj_hi - ft) / w_in).ceil(), d),
                        clamp_index(((bj_lo + ft) / w_in).floor(), d),
                    ),
                )
            },
            |j, i| grid.bump(j, i),
        );

        // Column sweep: the same conditions with the roles of the bucket
        // grids swapped (the plateau condition is symmetric).
        let mut cols = Band::build(
            d,
            |i| {
                let bi_lo = i as f64 * w_in;
                let bi_hi = bi_lo + w_in;
                Span::new(
                    (
                        clamp_index(((bi_lo - b - out_lo) / w_out).floor(), d_tilde),
                        clamp_index(((bi_hi + b - out_lo) / w_out).ceil(), d_tilde),
                    ),
                    (
                        clamp_index(((bi_hi - ft - out_lo) / w_out).ceil(), d_tilde),
                        clamp_index(((bi_lo + ft - out_lo) / w_out).floor(), d_tilde),
                    ),
                )
            },
            |i, j| grid.bump(j, i),
        );

        choose_kernel(&mut rows, &mut cols);
        Ok(BandedBaselineOperator {
            d,
            d_tilde,
            baseline: grid.baseline,
            plateau,
            rows,
            cols,
        })
    }

    /// Builds the structured operator exactly equivalent to
    /// [`crate::transition::discrete_transition_matrix`]`(d, b, eps)`.
    ///
    /// The discrete matrix is the ideal case: the whole band is one
    /// plateau (`p` near, `q` far, no fractional edges), so both matvecs
    /// are strictly `O(d)`.
    pub fn from_discrete(d: usize, b: usize, eps: f64) -> Result<Self, SwError> {
        Epsilon::new(eps)?;
        if d < 2 {
            return Err(SwError::InvalidParameter(format!(
                "discrete domain needs at least 2 buckets, got {d}"
            )));
        }
        let e = eps.exp();
        let width = (2 * b + 1) as f64;
        let p = e / (width * e + d as f64 - 1.0);
        let q = 1.0 / (width * e + d as f64 - 1.0);
        let d_tilde = d + 2 * b;
        check_bucket_counts(d, d_tilde)?;
        // Row j is `p` on columns i ∈ [j − 2b, j] ∩ [0, d); column i is `p`
        // on rows j ∈ [i, i + 2b]. The band is one pure plateau, so every
        // line lands in the `(0, 0)` class.
        let unreachable = |_, _| unreachable!("run covers the band");
        let rows = Band::build(
            d_tilde,
            |j| {
                let band = (j.saturating_sub(2 * b), (j + 1).min(d));
                Span::new(band, band)
            },
            unreachable,
        );
        let cols = Band::build(
            d,
            |i| {
                let band = (i, i + 2 * b + 1);
                Span::new(band, band)
            },
            unreachable,
        );
        Ok(BandedBaselineOperator {
            d,
            d_tilde,
            baseline: q,
            plateau: p - q,
            rows,
            cols,
        })
    }

    /// Number of explicitly stored (fractional edge) entries in the
    /// row-compressed band — the entries of `M` that are neither baseline
    /// nor plateau. The column copy used by `Mᵀ·x` stores the same entries
    /// again and is not counted. For square waves this is `O(d + d̃)`; the
    /// dense matrix stores `d·d̃`.
    #[must_use]
    pub fn explicit_entries(&self) -> usize {
        self.rows.edges.len()
    }

    /// Number of band lines, rows and columns together, whose edge runs
    /// are too long for the fixed-length kernels and take a loop with
    /// runtime trip counts (see the module docs). Zero for every square
    /// wave at `d̃ = d`, whose edge runs are at most 3 entries long.
    #[must_use]
    pub fn variable_length_lines(&self) -> usize {
        self.rows
            .classes
            .iter()
            .chain(&self.cols.classes)
            .filter(|class| !class.is_fixed())
            .map(|class| class.lines)
            .sum()
    }

    /// Materializes the dense matrix this operator represents (tests and
    /// debugging; the point of the operator is to never need this).
    #[must_use]
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::from_fn(self.d_tilde, self.d, |_, _| self.baseline);
        let rows = &self.rows;
        for class in &rows.classes {
            let width = class.head + class.tail;
            for slot in class.first..class.first + class.lines {
                let at = class.first_edge + (slot - class.first) * width;
                let (head, tail) = rows.edges[at..at + width].split_at(class.head);
                let start = rows.head_start[slot] as usize;
                let run = rows.run_len[slot] as usize;
                let plateau = std::iter::repeat_n(&self.plateau, run);
                let row = rows.out[slot] as usize;
                for (idx, &e) in (start..).zip(head.iter().chain(plateau).chain(tail)) {
                    m.set(row, idx, self.baseline + e);
                }
            }
        }
        m
    }
}

/// `prefix[k] = x[0] + … + x[k−1]`, with `prefix[len] = Σx`.
fn prefix_sums(x: &[f64]) -> Vec<f64> {
    let mut prefix = vec![0.0; x.len() + 1];
    let mut acc = 0.0;
    for (p, &v) in prefix[1..].iter_mut().zip(x) {
        acc += v;
        *p = acc;
    }
    prefix
}

impl LinearOperator for BandedBaselineOperator {
    fn rows(&self) -> usize {
        self.d_tilde
    }

    fn cols(&self) -> usize {
        self.d
    }

    fn matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), NumericError> {
        check_matvec_dims(self.d_tilde, self.d, x, y)?;
        self.rows.apply(self.plateau, self.baseline, x, y);
        Ok(())
    }

    fn matvec_transpose_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), NumericError> {
        check_matvec_dims(self.d, self.d_tilde, x, y)?;
        self.cols.apply(self.plateau, self.baseline, x, y);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transition::{discrete_transition_matrix, transition_matrix};

    fn max_entry_diff(a: &Matrix, b: &Matrix) -> f64 {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        let mut worst: f64 = 0.0;
        for j in 0..a.rows() {
            for i in 0..a.cols() {
                worst = worst.max((a.get(j, i) - b.get(j, i)).abs());
            }
        }
        worst
    }

    #[test]
    fn square_operator_matches_dense_entrywise() {
        for &(d, dt) in &[
            (16usize, 16usize),
            (16, 24),
            (24, 16),
            (1, 8),
            (8, 1),
            (64, 64),
        ] {
            let wave = Wave::square(0.25, 1.0).unwrap();
            let dense = transition_matrix(&wave, d, dt).unwrap();
            let op = BandedBaselineOperator::from_wave(&wave, d, dt).unwrap();
            let diff = max_entry_diff(&dense, &op.to_dense());
            assert!(diff < 1e-13, "d={d} dt={dt}: diff {diff}");
        }
    }

    #[test]
    fn all_shapes_match_dense_entrywise() {
        for shape in [
            WaveShape::Square,
            WaveShape::Trapezoid { ratio: 0.4 },
            WaveShape::Triangle,
        ] {
            let wave = Wave::new(shape, 0.3, 1.5).unwrap();
            let dense = transition_matrix(&wave, 20, 28).unwrap();
            let op = BandedBaselineOperator::from_wave(&wave, 20, 28).unwrap();
            let diff = max_entry_diff(&dense, &op.to_dense());
            assert!(diff < 1e-13, "shape {shape:?}: diff {diff}");
        }
    }

    #[test]
    fn square_operator_is_sparse() {
        let wave = Wave::square(0.25, 1.0).unwrap();
        let d = 512;
        let op = BandedBaselineOperator::from_wave(&wave, d, d).unwrap();
        // Each row has O(w̃/w + 1) fractional edge entries; the whole band
        // interior compresses into plateau runs.
        assert!(
            op.explicit_entries() < 16 * d,
            "explicit entries {} should be O(d), dense is {}",
            op.explicit_entries(),
            d * d
        );
    }

    #[test]
    fn matvec_agrees_with_dense_on_random_vectors() {
        let wave = Wave::square(0.18, 2.0).unwrap();
        let (d, dt) = (33, 47);
        let dense = transition_matrix(&wave, d, dt).unwrap();
        let op = BandedBaselineOperator::from_wave(&wave, d, dt).unwrap();
        let x: Vec<f64> = (0..d)
            .map(|i| ((i * 37 + 11) % 101) as f64 / 101.0)
            .collect();
        let yd = dense.matvec(&x).unwrap();
        let yo = LinearOperator::matvec(&op, &x).unwrap();
        for (a, b) in yd.iter().zip(&yo) {
            assert!((a - b).abs() < 1e-13, "{a} vs {b}");
        }
        let t: Vec<f64> = (0..dt).map(|j| ((j * 53 + 3) % 97) as f64 / 97.0).collect();
        let yd = dense.matvec_transpose(&t).unwrap();
        let yo = LinearOperator::matvec_transpose(&op, &t).unwrap();
        for (a, b) in yd.iter().zip(&yo) {
            assert!((a - b).abs() < 1e-13, "{a} vs {b}");
        }
    }

    #[test]
    fn unrolled_matvec_agrees_with_dense_for_long_edge_shapes() {
        // Triangle/trapezoid waves have little or no flat top, so their
        // band lines carry long explicit-edge runs — the blocked
        // 4-accumulator kernel, not the square wave's serial loop.
        for shape in [WaveShape::Triangle, WaveShape::Trapezoid { ratio: 0.3 }] {
            let wave = Wave::new(shape, 0.3, 1.2).unwrap();
            let (d, dt) = (48, 56);
            let dense = transition_matrix(&wave, d, dt).unwrap();
            let op = BandedBaselineOperator::from_wave(&wave, d, dt).unwrap();
            assert!(
                op.rows
                    .classes
                    .iter()
                    .chain(&op.cols.classes)
                    .all(|class| class.kernel == EdgeKernel::Blocked),
                "shape {shape:?} should select the blocked kernel for every line"
            );
            assert_eq!(op.variable_length_lines(), d + dt);
            let x: Vec<f64> = (0..d).map(|i| ((i * 29 + 7) % 83) as f64 / 83.0).collect();
            let yd = dense.matvec(&x).unwrap();
            let yo = LinearOperator::matvec(&op, &x).unwrap();
            for (a, b) in yd.iter().zip(&yo) {
                assert!((a - b).abs() < 1e-12, "shape {shape:?}: {a} vs {b}");
            }
            let t: Vec<f64> = (0..dt).map(|j| ((j * 31 + 5) % 89) as f64 / 89.0).collect();
            let yd = dense.matvec_transpose(&t).unwrap();
            let yo = LinearOperator::matvec_transpose(&op, &t).unwrap();
            for (a, b) in yd.iter().zip(&yo) {
                assert!((a - b).abs() < 1e-12, "shape {shape:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn discrete_operator_matches_dense() {
        for &(d, b) in &[(8usize, 2usize), (8, 0), (32, 5), (2, 1)] {
            let dense = discrete_transition_matrix(d, b, 1.3).unwrap();
            let op = BandedBaselineOperator::from_discrete(d, b, 1.3).unwrap();
            let diff = max_entry_diff(&dense, &op.to_dense());
            assert!(diff < 1e-13, "d={d} b={b}: diff {diff}");
            assert_eq!(op.explicit_entries(), 0, "discrete band is pure plateau");
        }
    }

    #[test]
    fn operator_validates_inputs() {
        let wave = Wave::square(0.25, 1.0).unwrap();
        assert!(BandedBaselineOperator::from_wave(&wave, 0, 8).is_err());
        assert!(BandedBaselineOperator::from_wave(&wave, 8, 0).is_err());
        assert!(BandedBaselineOperator::from_discrete(1, 2, 1.0).is_err());
        assert!(BandedBaselineOperator::from_discrete(8, 2, -1.0).is_err());
        let op = BandedBaselineOperator::from_wave(&wave, 8, 12).unwrap();
        let mut y = vec![0.0; 12];
        assert!(op.matvec_into(&[0.0; 7], &mut y).is_err());
        assert!(op.matvec_transpose_into(&[0.0; 12], &mut [0.0; 7]).is_err());
        assert!(op.matvec_transpose_into(&[0.0; 11], &mut [0.0; 8]).is_err());
    }

    #[test]
    fn column_sums_are_stochastic_without_normalization() {
        for shape in [
            WaveShape::Square,
            WaveShape::Trapezoid { ratio: 0.7 },
            WaveShape::Triangle,
        ] {
            let wave = Wave::new(shape, 0.22, 1.0).unwrap();
            let op = BandedBaselineOperator::from_wave(&wave, 12, 18).unwrap();
            for s in op.to_dense().column_sums() {
                assert!((s - 1.0).abs() < 1e-12, "shape {shape:?}: column sum {s}");
            }
        }
    }
}
