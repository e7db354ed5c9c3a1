//! Exact-round-trip wire encoding for mechanism reports.
//!
//! Reports must cross process boundaries: from user devices to collectors,
//! between collector shards, and into replay logs. This module defines a
//! line-oriented text format — one report per line, space-separated fields
//! — chosen so that decoding reproduces the original report **exactly**
//! (floats are rendered with Rust's shortest-round-trip formatting), which
//! is what lets a replayed stream finalize to the bit-identical estimate.
//!
//! This line format is the only encoding reports have; no other format
//! (JSON, bincode, …) exists.
//!
//! Decoding a frame is one pass: [`WireReport::decode_frame`] splits,
//! trims and decodes every line of a text block. `f64` reports (SW, PM,
//! SR) override it with a byte loop that parses each plain
//! `-?digits[.digits]` line in place with an exact parser: SWAR digit
//! reads (eight digits per `u64` step, no `unsafe`, no SIMD) and the
//! Eisel–Lemire rounding (Lemire, "Number Parsing at a Gigabyte per
//! Second", 2021). Any other line takes the per-line path, whose answer is
//! std's `str::parse`, so the accepted language and every value's bits are
//! std's.

use crate::error::CoreError;
use std::fmt::Write;

/// A report type with an exact one-line text encoding.
///
/// # Examples
///
/// `f64` reports (SW, PM, SR) round-trip to the exact bit pattern:
///
/// ```
/// use ldp_core::{decode_lines, encode_lines, WireReport};
///
/// let reports = vec![0.1 + 0.2, -0.75, 1.0 / 3.0];
/// let text = encode_lines(&reports);
/// let replayed: Vec<f64> = decode_lines(&text).unwrap();
/// for (a, b) in reports.iter().zip(&replayed) {
///     assert_eq!(a.to_bits(), b.to_bits());
/// }
/// // Malformed lines are rejected, never silently dropped.
/// assert!(decode_lines::<f64>("0.5\noops\n").is_err());
/// ```
pub trait WireReport: Sized {
    /// Appends the encoded report (no trailing newline) to `out`.
    fn encode(&self, out: &mut String);

    /// Decodes one line produced by [`WireReport::encode`].
    fn decode(line: &str) -> Result<Self, CoreError>;

    /// Decodes every line of `text` and appends the reports to `out`.
    /// Each line is trimmed of surrounding whitespace; blank lines are
    /// skipped. Stops at the first malformed line with its
    /// [`WireReport::decode`] error; `out` then holds the reports decoded
    /// before it.
    fn decode_frame(text: &str, out: &mut Vec<Self>) -> Result<(), CoreError> {
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            out.push(Self::decode(line)?);
        }
        Ok(())
    }
}

/// Encodes a slice of reports as newline-separated lines (with a trailing
/// newline when non-empty).
#[must_use]
pub fn encode_lines<T: WireReport>(reports: &[T]) -> String {
    let mut out = String::new();
    for r in reports {
        r.encode(&mut out);
        out.push('\n');
    }
    out
}

/// Decodes newline-separated report lines; blank lines are skipped.
pub fn decode_lines<T: WireReport>(s: &str) -> Result<Vec<T>, CoreError> {
    let mut reports = Vec::new();
    T::decode_frame(s, &mut reports)?;
    Ok(reports)
}

/// Parses one whitespace-separated field with a uniform error message.
pub fn parse_field<T: std::str::FromStr>(field: &str, what: &str) -> Result<T, CoreError> {
    field
        .parse()
        .map_err(|_| CoreError::Wire(format!("cannot parse {what} from {field:?}")))
}

impl WireReport for f64 {
    fn encode(&self, out: &mut String) {
        // `{}` on f64 is shortest-round-trip: parsing the output recovers
        // the exact bit pattern (NaN payloads excepted, which no mechanism
        // emits).
        let _ = write!(out, "{self}");
    }

    fn decode(line: &str) -> Result<Self, CoreError> {
        match parse_plain(line.as_bytes()) {
            Some((value, len)) if len == line.len() => Ok(value),
            _ => parse_field(line, "f64 report"),
        }
    }

    /// One pass over the frame's bytes: a plain line followed by `\n` or
    /// the end of the frame is parsed in place; any other line (padding,
    /// `\r`, `+`, an exponent, `inf`, over 19 digits, a blank or
    /// malformed line) is cut out, trimmed and handed to
    /// [`WireReport::decode`], exactly as the default loop would.
    fn decode_frame(text: &str, out: &mut Vec<Self>) -> Result<(), CoreError> {
        // A shortest-round-trip report line is 16–20 bytes.
        out.reserve(text.len() / 16);
        let bytes = text.as_bytes();
        let mut start = 0;
        while start < bytes.len() {
            if let Some((value, len)) = parse_plain(&bytes[start..]) {
                let end = start + len;
                if bytes.get(end).is_none_or(|&b| b == b'\n') {
                    out.push(value);
                    start = end + 1;
                    continue;
                }
            }
            let end = bytes[start..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(bytes.len(), |n| start + n);
            // `start` follows a `\n` (or is 0) and `end` is a `\n` (or
            // the end), so both are char boundaries.
            let line = text[start..end].trim();
            if !line.is_empty() {
                out.push(Self::decode(line)?);
            }
            start = end + 1;
        }
        Ok(())
    }
}

/// The most significant digits [`parse_plain`] takes: every 19-digit
/// integer fits a `u64` (10¹⁹ − 1 < 2⁶⁴).
const MAX_DIGITS: usize = 19;

/// The longest fraction [`parse_plain`] takes, which is the largest power
/// of ten the Eisel–Lemire table covers. Every `5^q` for `q` up to 27 is
/// below 2⁶³, which keeps the truncated 128-bit product exact enough to
/// round correctly.
const MAX_FRACTION_DIGITS: usize = 27;

/// `5^-q` for `q ∈ [0, 27]` as 128-bit `(high, low)` words, normalized so
/// the top bit is set and rounded up: `⌊2^(z+127) / 5^q⌋ + 1`, where `z`
/// is the bit length of `5^q` (`q = 0` holds `2^127` itself).
const POW5_INV: [(u64, u64); MAX_FRACTION_DIGITS + 1] = pow5_inv_table();

const fn pow5_inv_table() -> [(u64, u64); MAX_FRACTION_DIGITS + 1] {
    let mut table = [(1 << 63, 0); MAX_FRACTION_DIGITS + 1];
    let mut pow5: u64 = 1;
    let mut q = 1;
    while q <= MAX_FRACTION_DIGITS {
        pow5 *= 5;
        let z = u64::BITS - pow5.leading_zeros();
        let c = div_pow2(z + 127, pow5) + 1;
        table[q] = ((c >> 64) as u64, c as u64);
        q += 1;
    }
    table
}

/// `⌊2^b / d⌋` by restoring long division, one quotient bit per step.
/// The caller keeps the quotient below 2¹²⁸.
const fn div_pow2(b: u32, d: u64) -> u128 {
    let d = d as u128;
    let mut quotient = 0u128;
    let mut rem = 0u128;
    let mut bit = b + 1;
    while bit > 0 {
        bit -= 1;
        rem = (rem << 1) | (bit == b) as u128;
        quotient <<= 1;
        if rem >= d {
            rem -= d;
            quotient |= 1;
        }
    }
    quotient
}

/// `10^k` for a run of `k ≤ 8` digits.
const POW10_RUN: [u64; 9] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
];

/// The eight bytes at `s[i..]` as a little-endian word, zero-filled past
/// the end of `s` (a zero byte is not a digit, so it ends any run). Past
/// the end it shifts the input's last eight bytes down rather than copy,
/// so a lone line's last word costs no more than any other.
fn load_word(s: &[u8], i: usize) -> u64 {
    if let Some(word) = s.get(i..i + 8) {
        return u64::from_le_bytes(word.try_into().expect("an 8-byte slice"));
    }
    match s.len().checked_sub(8) {
        // Here `i > last`: byte `i` lands lowest, zeros shift in above.
        Some(last) => {
            let tail = u64::from_le_bytes(s[last..].try_into().expect("an 8-byte slice"));
            u32::try_from(8 * (i - last))
                .ok()
                .and_then(|shift| tail.checked_shr(shift))
                .unwrap_or(0)
        }
        None => s
            .get(i..)
            .unwrap_or_default()
            .iter()
            .rev()
            .fold(0, |word, &b| word << 8 | u64::from(b)),
    }
}

/// How many of the word's bytes, from the low end (the first in the
/// text), are ASCII digits before the first non-digit. Per byte,
/// `b ^ 0x30` is below 10 exactly for a digit; adding `0x76` to its low
/// seven bits sets the top bit from 10 up without carrying into the next
/// byte, and the `| t` catches bytes whose top bit was already set.
fn digit_run(w: u64) -> usize {
    let t = w ^ 0x3030_3030_3030_3030;
    let non_digit = ((t & 0x7F7F_7F7F_7F7F_7F7F).wrapping_add(0x7676_7676_7676_7676) | t)
        & 0x8080_8080_8080_8080;
    (non_digit.trailing_zeros() / 8) as usize
}

/// The value of eight ASCII digits read as a little-endian word (the first
/// digit in the low byte): pairs, then quads, then the whole, each step one
/// multiply-and-add over packed lanes.
fn eight_digit_value(w: u64) -> u64 {
    let digits = w - 0x3030_3030_3030_3030;
    // Each 16-bit lane holds 10·first + second of a digit pair (in its
    // low byte; the high byte is garbage masked off below).
    let pairs = digits * 10 + (digits >> 8);
    const LANE: u64 = 0x0000_00FF_0000_00FF;
    // Pairs 0 and 2 scaled by 10⁶ and 10², pairs 1 and 3 by 10⁴ and 1;
    // the sum of all four lands in bits 32..64.
    let even = (pairs & LANE).wrapping_mul(0x000F_4240_0000_0064);
    let odd = ((pairs >> 16) & LANE).wrapping_mul(0x0000_2710_0000_0001);
    u64::from(((even.wrapping_add(odd)) >> 32) as u32)
}

/// The value of the first `k < 8` digits of `w`: they move to the top of
/// the word and the bytes below them become `'0'`, so the eight-digit
/// value is theirs. No branch on `k`.
fn run_value(w: u64, k: usize) -> u64 {
    let shift = 8 * k as u32;
    let digits = w.checked_shl(64 - shift).unwrap_or(0);
    let zeros = 0x3030_3030_3030_3030u64.checked_shr(shift).unwrap_or(0);
    eight_digit_value(digits | zeros)
}

/// Appends the decimal digits starting at `s[i]` to `m` (wrapping; the
/// caller discards the result past [`MAX_DIGITS`]) and returns it with the
/// index of the first non-digit. Whole words of digits take one SWAR step
/// each; the last, partial word takes one more, with no per-byte loop.
fn read_digits(s: &[u8], mut i: usize, mut m: u64) -> (u64, usize) {
    loop {
        let w = load_word(s, i);
        let k = digit_run(w);
        if k < 8 {
            return (
                m.wrapping_mul(POW10_RUN[k]).wrapping_add(run_value(w, k)),
                i + k,
            );
        }
        m = m
            .wrapping_mul(POW10_RUN[8])
            .wrapping_add(eight_digit_value(w));
        i += 8;
    }
}

/// The exact parser for the plain form `-?[0-9]+(\.[0-9]+)?` at the start
/// of `s`: returns the value and the bytes it spans, bit-identical to
/// `str::parse::<f64>` on those bytes. Returns `None` whenever it cannot
/// vouch for that — no plain number at `s[0]`, more than [`MAX_DIGITS`]
/// significant digits, more than [`MAX_FRACTION_DIGITS`] fraction digits,
/// or an Eisel–Lemire case it leaves to std — and the caller then asks
/// std. Where the number ends is the caller's to check.
fn parse_plain(s: &[u8]) -> Option<(f64, usize)> {
    let negative = s.first() == Some(&b'-');
    let int_start = usize::from(negative);
    // One integer digit and a point is the common report shape (SW's
    // reports lie in [-b, 1 + b]).
    let (mut m, int_end) = match (s.get(int_start), s.get(int_start + 1)) {
        (Some(&d), Some(&b'.')) if d.is_ascii_digit() => (u64::from(d - b'0'), int_start + 1),
        _ => read_digits(s, int_start, 0),
    };
    if int_end == int_start {
        return None;
    }
    let mut end = int_end;
    let mut fraction = 0;
    if s.get(end) == Some(&b'.') {
        let (frac_m, frac_end) = read_digits(s, end + 1, m);
        fraction = frac_end - (end + 1);
        if fraction == 0 {
            return None;
        }
        m = frac_m;
        end = frac_end;
    }
    let digits = int_end - int_start + fraction;
    if digits > MAX_DIGITS {
        // Leading zeros add nothing to `m`, so `m` is exact whenever the
        // significant digits fit: 0.001234… still fits the budget.
        let zeros = s[int_start..end]
            .iter()
            .take_while(|&&b| b == b'0' || b == b'.')
            .filter(|&&b| b == b'0')
            .count();
        if digits - zeros > MAX_DIGITS {
            return None;
        }
    }
    let magnitude = if m == 0 {
        0.0
    } else if fraction <= MAX_FRACTION_DIGITS {
        eisel_lemire(m, fraction)?
    } else {
        return None;
    };
    let sign = u64::from(negative) << 63;
    Some((f64::from_bits(magnitude.to_bits() | sign), end))
}

/// `w · 10^-q` correctly rounded, for `w ≠ 0` and `q ≤ 27` (Eisel–Lemire,
/// with the algorithm's constants for binary64). It is exact for every
/// such `w`, so it also covers the mantissas of at most 2⁵³ that Clinger's
/// single division would: one path, with no branch on the digit count
/// (SW's reports mix 16- and 17-digit mantissas at random). `None` on the
/// cases it leaves to std: a product too close to call, or a result
/// outside the normal range (neither occurs for this `q` range).
fn eisel_lemire(w: u64, q: usize) -> Option<f64> {
    const MANTISSA_BITS: i32 = 52;
    // The product's high word keeps 55 bits (mantissa, hidden bit, a
    // rounding bit and a possible leading zero) and drops the low SHIFT.
    const SHIFT: i32 = 64 - MANTISSA_BITS - 3;
    const DROPPED: u64 = (1 << SHIFT) - 1;
    let lz = w.leading_zeros();
    let w = w << lz;
    let (hi5, lo5) = POW5_INV[q];
    let first = u128::from(w) * u128::from(hi5);
    let (mut lo, mut hi) = (first as u64, (first >> 64) as u64);
    if hi & DROPPED == DROPPED {
        // A carry from below could still reach the kept bits: refine with
        // the low word of the table entry.
        let second = ((u128::from(w) * u128::from(lo5)) >> 64) as u64;
        lo = lo.wrapping_add(second);
        if second > lo {
            hi += 1;
        }
    }
    if lo == u64::MAX {
        return None;
    }
    let upper = (hi >> 63) as i32;
    let mut mantissa = hi >> (upper + SHIFT);
    // ⌊log2(10^-q)⌋ + 63, by the fixed-point log2(10) ≈ 217706 / 2¹⁶.
    let log2_pow10 = ((-(q as i32) * 217_706) >> 16) + 63;
    let mut biased = log2_pow10 + upper - lz as i32 + 1023;
    if biased <= 0 {
        return None;
    }
    // A value halfway between two floats is (2m + 1)·2^e with 2m + 1 > 2⁵³;
    // as w · 10^-q it needs (2m + 1)·5^q to divide w, which a u64 allows
    // only for q ≤ 4. Then round half to even instead of up.
    if lo <= 1 && q <= 4 && mantissa & 3 == 1 && (mantissa << (upper + SHIFT)) == hi {
        mantissa &= !1;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= 2 << MANTISSA_BITS {
        mantissa = 1 << MANTISSA_BITS;
        biased += 1;
    }
    mantissa &= !(1 << MANTISSA_BITS);
    if biased >= 0x7FF {
        return None;
    }
    Some(f64::from_bits(mantissa | (biased as u64) << MANTISSA_BITS))
}

impl WireReport for usize {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn decode(line: &str) -> Result<Self, CoreError> {
        parse_field(line, "usize report")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_round_trips_exactly() {
        let values = [
            0.0,
            -0.0,
            1.0,
            -1.5,
            0.1 + 0.2,
            f64::MIN_POSITIVE,
            1.0 / 3.0,
            -4.9e-324,
            1e308,
        ];
        for &v in &values {
            let mut s = String::new();
            v.encode(&mut s);
            let back = f64::decode(&s).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "value {v}");
        }
    }

    #[test]
    fn usize_round_trips() {
        for v in [0usize, 1, 63, usize::MAX] {
            let mut s = String::new();
            v.encode(&mut s);
            assert_eq!(usize::decode(&s).unwrap(), v);
        }
    }

    #[test]
    fn lines_round_trip_and_skip_blanks() {
        let reports = vec![0.25f64, -3.5, 1.0 / 7.0];
        let encoded = encode_lines(&reports);
        assert_eq!(encoded.lines().count(), 3);
        let with_blanks = format!("\n{encoded}\n  \n");
        let back: Vec<f64> = decode_lines(&with_blanks).unwrap();
        assert_eq!(back, reports);
    }

    #[test]
    fn malformed_lines_error() {
        assert!(decode_lines::<f64>("not-a-number").is_err());
        assert!(decode_lines::<usize>("-3").is_err());
        assert!(matches!(f64::decode("x").unwrap_err(), CoreError::Wire(_)));
    }

    #[test]
    fn pow5_table_brackets_each_reciprocal() {
        // Two entries spelled out, then every entry checked against its
        // definition: (c - 1) · 5^q ≤ 2^b < c · 5^q, in 192-bit arithmetic.
        assert_eq!(POW5_INV[0], (1 << 63, 0));
        assert_eq!(POW5_INV[1], (0xcccc_cccc_cccc_cccc, 0xcccc_cccc_cccc_cccd));
        assert_eq!(POW5_INV[2], (0xa3d7_0a3d_70a3_d70a, 0x3d70_a3d7_0a3d_70a4));
        let mut pow5: u64 = 1;
        for (q, &(hi, lo)) in POW5_INV.iter().enumerate().skip(1) {
            pow5 *= 5;
            assert!(hi >> 63 == 1, "q = {q}: not normalized");
            let b = u64::BITS - pow5.leading_zeros() + 127;
            // c · 5^q as (top, mid, low) 64-bit limbs.
            let times = |c_hi: u64, c_lo: u64| {
                let low = u128::from(c_lo) * u128::from(pow5);
                let high = u128::from(c_hi) * u128::from(pow5) + (low >> 64);
                ((high >> 64) as u64, high as u64, low as u64)
            };
            let (below_hi, below_lo) = if lo == 0 {
                (hi - 1, u64::MAX)
            } else {
                (hi, lo - 1)
            };
            let target = (1u64 << (b - 128), 0, 0);
            assert!(
                times(below_hi, below_lo) <= target,
                "q = {q}: entry too large"
            );
            assert!(times(hi, lo) > target, "q = {q}: entry too small");
        }
    }

    #[test]
    fn swar_digits_match_bytewise_digits() {
        let word = |s: &[u8; 8]| u64::from_le_bytes(*s);
        assert_eq!(eight_digit_value(word(b"01234567")), 1_234_567);
        assert_eq!(eight_digit_value(word(b"99999999")), 99_999_999);
        assert_eq!(eight_digit_value(word(b"00000000")), 0);
        assert_eq!(digit_run(word(b"01234567")), 8);
        // Every byte value at every position: the run stops exactly at
        // the first non-digit, and the run's value is its digits'.
        for pos in 0..8 {
            for byte in 0..=u8::MAX {
                let mut bytes = *b"98765432";
                bytes[pos] = byte;
                let run = if byte.is_ascii_digit() { 8 } else { pos };
                assert_eq!(digit_run(word(&bytes)), run, "byte {byte:#x} at {pos}");
                if run < 8 {
                    let text = std::str::from_utf8(&bytes[..run]).unwrap();
                    let value = text.parse().unwrap_or(0);
                    assert_eq!(run_value(word(&bytes), run), value, "{text:?}");
                }
            }
        }
        // Reads past the end of the input see zero bytes, never digits.
        assert_eq!(read_digits(b"123", 0, 0), (123, 3));
        assert_eq!(read_digits(b"12345678901234567890x", 0, 0).1, 20);
        assert_eq!(load_word(b"12", 1), u64::from(b'2'));
        assert_eq!(load_word(b"12", 2), 0);
        assert_eq!(load_word(b"123", 0), u64::from_le_bytes(*b"123\0\0\0\0\0"));
        let line = b"0.1815633650068282";
        for i in 0..=line.len() {
            let mut word = [0u8; 8];
            let rest = &line[i..line.len().min(i + 8)];
            word[..rest.len()].copy_from_slice(rest);
            assert_eq!(load_word(line, i), u64::from_le_bytes(word), "at {i}");
        }
    }

    #[test]
    fn plain_parser_takes_the_wire_forms() {
        for (text, value) in [
            ("0.30000000000000004", 0.1 + 0.2f64),
            ("-0.75", -0.75),
            ("9007199254740993", 9_007_199_254_740_992.0),
            ("0.001234567890123456789", 0.001_234_567_890_123_456_8),
            ("1.0000000000000002", 1.000_000_000_000_000_2),
        ] {
            let (parsed, len) = parse_plain(text.as_bytes()).unwrap();
            assert_eq!(
                (parsed.to_bits(), len),
                (value.to_bits(), text.len()),
                "{text}"
            );
        }
        let (negative_zero, _) = parse_plain(b"-0").unwrap();
        assert_eq!(negative_zero.to_bits(), (-0.0f64).to_bits());
        // The number ends where the plain form does; the caller checks
        // what follows.
        assert_eq!(parse_plain(b"0.5\r\n").map(|(_, len)| len), Some(3));
        assert_eq!(parse_plain(b"2e5").map(|(_, len)| len), Some(1));
        // Everything else is std's.
        for text in [
            "",
            "-",
            ".5",
            "1.",
            "+1",
            "inf",
            " 1",
            "12345678901234567890",
        ] {
            assert!(parse_plain(text.as_bytes()).is_none(), "{text:?}");
        }
    }

    #[test]
    fn empty_input_decodes_to_empty() {
        assert_eq!(decode_lines::<f64>("").unwrap(), Vec::<f64>::new());
        assert_eq!(encode_lines::<f64>(&[]), "");
    }
}
