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
//! line as `u32`, and the edge entries as `f64` — so each class is one
//! contiguous slice of each array and building an operator costs a few
//! exact-size allocations rather than two per line.
//!
//! A class's edge entries are stored *lane-interleaved*: in blocks of
//! [`BAND_LANES`] = 8 lines, entry-major within a block (entry `e` of the
//! block's 8 lines is 8 consecutive `f64`s), the last block padded to 8
//! lines; [`ldp_numeric::kernels::band_lines`] reads it. Its AVX-512 arm applies
//! 8 lines of a class per step, loading each edge entry of the 8 lines
//! with one contiguous load, gathering their `x` and running-sum entries
//! and scattering their results; its scalar reference, which AVX2 and
//! forced-scalar (`LDP_NO_SIMD=1`) hosts run, walks the same layout line
//! by line, monomorphized on both lengths for classes with
//! `head, tail ≤ 3` (every square-wave line at `d̃ = d`). Applying class
//! by class keeps the branch predictor out of the picture; walking the
//! lines in index order instead interleaves the classes in quasi-periodic
//! sequences that defeat it.
//!
//! Every line keeps one fixed summation order — head edges left to right,
//! then `plateau · (prefix[b] − prefix[a])`, then the tail edges, then
//! `base + acc` — and the running sums `prefix` run left to right, so
//! grouping, interleaving and the kernel arm change only which line runs
//! when, never the arithmetic inside a line.
//!
//! **Running sums.** An application reads the input's running sums but
//! does not form them: [`LinearOperator::matvec_prefix_into`] and
//! [`LinearOperator::matvec_transpose_prefix_into`] take them from the
//! caller — [`crate::em::reconstruct`] forms them in the passes that write
//! `θ` and the ratios — and allocate nothing. The plain
//! [`LinearOperator::matvec_into`] and
//! [`LinearOperator::matvec_transpose_into`], for callers outside the EM
//! loop, form them in one fresh buffer per call
//! ([`ldp_numeric::operator::running_sums_into`]).
//!
//! **Long edges.** An operator with an edge run of 8 or more entries
//! anywhere (trapezoid and triangle shapes, coarse output grids) applies
//! *every* line through the blocked 4-accumulator
//! [`ldp_numeric::kernels::dot4`] instead, adding each edge run's subtotal
//! to the line's sum; its classes store their edges line after line,
//! which is the layout `dot4` reads. The kernel is chosen per operator, at
//! construction, so the arithmetic of a line depends only on the wave and
//! the grid — never on the class it was grouped into.
//!
//! The constructors are *exact*: entries are produced by the same analytic
//! integrals [`crate::transition::transition_matrix`] uses, so the operator
//! matches the dense matrix to within a few ulps (the dense path's final
//! column normalization only erases quadrature residue of that order).

use crate::error::SwError;
use crate::wave::{Wave, WaveShape};
use ldp_core::Epsilon;
use ldp_numeric::kernels::{band_lines, dot4, BandLines, BandSweep, BAND_FIXED_EDGE_LEN};
use ldp_numeric::operator::{check_matvec_dims, running_sums_into, LinearOperator};
use ldp_numeric::quad::{integral_of_interval_overlap, integrate_with_breakpoints};
use ldp_numeric::{Matrix, NumericError};

#[cfg(doc)]
use ldp_numeric::kernels::BAND_LANES;

/// An operator with an edge run this long anywhere applies every line
/// through [`dot4`]: below it the blocked kernel's setup costs more than
/// the multiply-adds it saves.
const BLOCKED_EDGE_LEN: usize = 8;

/// How a [`LineClass`] accumulates its explicit edge entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeKernel {
    /// One running sum: head edges, plateau, tail edges, in index order,
    /// through [`band_lines`]; edges lane-interleaved.
    Serial,
    /// Each edge run summed by [`dot4`] (AVX2 when available, with each
    /// vector lane standing in for one scalar accumulator — bit-identical
    /// either way), its subtotal then added to the line's sum; edges line
    /// after line.
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
    /// Each class's explicit entries, class after class, in the layout of
    /// its kernel ([`LineClass::edge_at`]).
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

impl LineClass {
    /// Explicit entries per line.
    fn width(&self) -> usize {
        self.head + self.tail
    }

    /// Edge array entries this class occupies, padding included.
    fn edge_len(&self) -> usize {
        match self.kernel {
            EdgeKernel::Serial => BandLines::edge_len(self.lines, self.width()),
            EdgeKernel::Blocked => self.lines * self.width(),
        }
    }

    /// Position in [`Band::edges`] of entry `e` (head first) of the
    /// class's line `k`: lane-interleaved for [`band_lines`], line after
    /// line for [`dot4`].
    fn edge_at(&self, k: usize, e: usize) -> usize {
        self.first_edge
            + match self.kernel {
                EdgeKernel::Serial => BandLines::edge_index(k, e, self.width()),
                EdgeKernel::Blocked => k * self.width() + e,
            }
    }

    /// Whether this class runs code with fixed edge trip counts.
    fn is_fixed(&self) -> bool {
        self.kernel == EdgeKernel::Serial
            && self.head <= BAND_FIXED_EDGE_LEN
            && self.tail <= BAND_FIXED_EDGE_LEN
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

/// The edge kernel of an operator whose two sweeps have `classes` (see the
/// module docs).
fn edge_kernel<'a>(classes: impl IntoIterator<Item = &'a LineClass>) -> EdgeKernel {
    let longest = classes
        .into_iter()
        .map(|class| class.head.max(class.tail))
        .max()
        .unwrap_or(0);
    if longest >= BLOCKED_EDGE_LEN {
        EdgeKernel::Blocked
    } else {
        EdgeKernel::Serial
    }
}

impl Band {
    /// The `(head, tail)` classes of the lines `0..lines` of one sweep,
    /// where `span(k)` is line `k`'s geometry, sorted, each with its line
    /// count. Both sweeps are counted before either is built, so the
    /// operator's edge kernel, and with it the edge layout, is known.
    fn classes(lines: usize, span: impl Fn(usize) -> Span) -> Vec<LineClass> {
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
        classes
    }

    /// Compresses the lines `0..lines` of one sweep into `classes`
    /// ([`Band::classes`] of the same `span`), every class on edge
    /// `kernel`, where `entry(k, idx)` is line `k`'s explicit entry at band
    /// index `idx`. Every array is allocated once at its exact length.
    fn build(
        lines: usize,
        span: impl Fn(usize) -> Span,
        mut entry: impl FnMut(usize, usize) -> f64,
        mut classes: Vec<LineClass>,
        kernel: EdgeKernel,
    ) -> Self {
        let (mut first, mut first_edge) = (0, 0);
        for class in &mut classes {
            class.kernel = kernel;
            class.first = first;
            class.first_edge = first_edge;
            first += class.lines;
            first_edge += class.edge_len();
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
            let explicit = (s.lo..s.run_lo).chain(s.run_hi..s.hi);
            for (e, idx) in explicit.enumerate() {
                band.edges[class.edge_at(slot - class.first, e)] = entry(k, idx);
            }
        }
        band
    }

    /// The lines of `class` as [`band_lines`] reads them.
    fn lines_of(&self, class: &LineClass) -> BandLines<'_> {
        let range = class.first..class.first + class.lines;
        BandLines {
            head: class.head,
            tail: class.tail,
            out: &self.out[range.clone()],
            start: &self.head_start[range.clone()],
            run: &self.run_len[range],
            edges: &self.edges[class.first_edge..][..class.edge_len()],
        }
    }

    /// Applies this sweep to `x`, whose running sums are `prefix`, class
    /// by class; every line writes its own output entry.
    fn apply(&self, plateau: f64, baseline: f64, x: &[f64], prefix: &[f64], y: &mut [f64]) {
        let sweep = BandSweep {
            x,
            prefix,
            plateau,
            base: baseline * prefix[x.len()],
        };
        for class in &self.classes {
            let lines = self.lines_of(class);
            match class.kernel {
                EdgeKernel::Serial => band_lines(&lines, &sweep, y),
                EdgeKernel::Blocked => blocked_lines(&lines, &sweep, y),
            }
        }
    }
}

/// [`band_lines`] with each edge run summed by [`dot4`] and edges stored
/// line after line.
fn blocked_lines(lines: &BandLines, sweep: &BandSweep, y: &mut [f64]) {
    let (head, tail) = (lines.head, lines.tail);
    let width = head + tail;
    let (x, prefix) = (sweep.x, sweep.prefix);
    let each = lines.out.iter().zip(lines.start).zip(lines.run);
    for (k, ((&out, &start), &run)) in each.enumerate() {
        let (head_edges, tail_edges) = lines.edges[k * width..][..width].split_at(head);
        let start = start as usize;
        let head_end = start + head;
        let run_end = head_end + run as usize;
        let plateau = sweep.plateau * (prefix[run_end] - prefix[head_end]);
        let acc = dot4(head_edges, &x[start..head_end])
            + plateau
            + dot4(tail_edges, &x[run_end..run_end + tail]);
        y[out as usize] = sweep.base + acc;
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
        let row_span = |j: usize| {
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
        };
        // Column sweep: the same conditions with the roles of the bucket
        // grids swapped (the plateau condition is symmetric).
        let col_span = |i: usize| {
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
        };
        let row_classes = Band::classes(d_tilde, row_span);
        let col_classes = Band::classes(d, col_span);
        let kernel = edge_kernel(row_classes.iter().chain(&col_classes));
        let rows = Band::build(
            d_tilde,
            row_span,
            |j, i| grid.bump(j, i),
            row_classes,
            kernel,
        );
        let cols = Band::build(d, col_span, |i, j| grid.bump(j, i), col_classes, kernel);

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
        let row_span = |j: usize| {
            let band = (j.saturating_sub(2 * b), (j + 1).min(d));
            Span::new(band, band)
        };
        let col_span = |i: usize| {
            let band = (i, i + 2 * b + 1);
            Span::new(band, band)
        };
        let row_classes = Band::classes(d_tilde, row_span);
        let col_classes = Band::classes(d, col_span);
        let serial = EdgeKernel::Serial;
        let rows = Band::build(d_tilde, row_span, unreachable, row_classes, serial);
        let cols = Band::build(d, col_span, unreachable, col_classes, serial);
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
        self.rows
            .classes
            .iter()
            .map(|class| class.lines * class.width())
            .sum()
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
            for k in 0..class.lines {
                let slot = class.first + k;
                let edge = |e: usize| &rows.edges[class.edge_at(k, e)];
                let start = rows.head_start[slot] as usize;
                let run = rows.run_len[slot] as usize;
                let head = (0..class.head).map(edge);
                let plateau = std::iter::repeat_n(&self.plateau, run);
                let tail = (class.head..class.width()).map(edge);
                let row = rows.out[slot] as usize;
                for (idx, &e) in (start..).zip(head.chain(plateau).chain(tail)) {
                    m.set(row, idx, self.baseline + e);
                }
            }
        }
        m
    }

    /// The band-line classes of the `M·x` sweep (`transposed = false`) or
    /// the `Mᵀ·x` sweep that [`band_lines`] applies, as it reads them; an
    /// operator on the [`dot4`] path has none. For the kernel differential
    /// suite, which runs every arm of the kernel on real operators'
    /// classes.
    pub fn band_line_classes(&self, transposed: bool) -> impl Iterator<Item = BandLines<'_>> {
        let band = if transposed { &self.cols } else { &self.rows };
        band.classes
            .iter()
            .filter(|class| class.kernel == EdgeKernel::Serial)
            .map(|class| band.lines_of(class))
    }
}

/// Checks the running sums a prefixed application of `x` expects.
fn check_prefix(x: &[f64], prefix: &[f64]) -> Result<(), NumericError> {
    if prefix.len() != x.len() + 1 {
        return Err(NumericError::DimensionMismatch {
            expected: format!("{} running sums", x.len() + 1),
            actual: format!("{} running sums", prefix.len()),
        });
    }
    Ok(())
}

/// `x`'s running sums in a fresh buffer, for the unprefixed applications.
fn running_sums(x: &[f64]) -> Vec<f64> {
    let mut prefix = vec![0.0; x.len() + 1];
    running_sums_into(x, &mut prefix);
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
        self.matvec_prefix_into(x, &running_sums(x), y)
    }

    fn matvec_transpose_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), NumericError> {
        self.matvec_transpose_prefix_into(x, &running_sums(x), y)
    }

    fn matvec_prefix_into(
        &self,
        x: &[f64],
        prefix: &[f64],
        y: &mut [f64],
    ) -> Result<(), NumericError> {
        check_matvec_dims(self.d_tilde, self.d, x, y)?;
        check_prefix(x, prefix)?;
        self.rows.apply(self.plateau, self.baseline, x, prefix, y);
        Ok(())
    }

    fn matvec_transpose_prefix_into(
        &self,
        x: &[f64],
        prefix: &[f64],
        y: &mut [f64],
    ) -> Result<(), NumericError> {
        check_matvec_dims(self.d, self.d_tilde, x, y)?;
        check_prefix(x, prefix)?;
        self.cols.apply(self.plateau, self.baseline, x, prefix, y);
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
