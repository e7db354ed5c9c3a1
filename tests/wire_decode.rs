//! Differential tests for the `f64` wire decoder.
//!
//! `f64` reports (SW, PM, SR) decode through an in-place exact parser with
//! a per-line fallback to `str::parse`. Its contract is that nothing
//! observable changes: every accepted line yields std's exact bits, every
//! rejected frame fails at the same line with the same message, and the
//! accepted language is std's. The reference here is the plain per-line
//! loop: `str::lines` → `trim` → skip blank → `str::parse::<f64>`.

use sw_ldp::core_api::wire::parse_field;
use sw_ldp::core_api::{decode_lines, Client, Mechanism, WireReport};
use sw_ldp::mean::{Pm, Sr};
use sw_ldp::numeric::SplitMix64;
use sw_ldp::sw::mechanism::SwMechanism;

use rand::Rng;

/// The per-line reference decoder, with the same error message the wire
/// format has always produced.
fn reference(text: &str) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        out.push(parse_field::<f64>(line, "f64 report").map_err(|e| e.to_string())?);
    }
    Ok(out)
}

fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// `decode_frame` and `decode_lines` agree with the reference on `text`:
/// identical bits, or the identical first error.
fn assert_frame_matches(text: &str) {
    let mut got = Vec::new();
    let frame = f64::decode_frame(text, &mut got)
        .map(|()| got)
        .map_err(|e| e.to_string());
    let lines = decode_lines::<f64>(text).map_err(|e| e.to_string());
    let want = reference(text);
    for (label, result) in [("decode_frame", frame), ("decode_lines", lines)] {
        match (&result, &want) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.len(), want.len(), "{label}: report count on {text:?}");
                for (g, w) in got.iter().zip(want) {
                    assert!(same_bits(*g, *w), "{label}: {g:?} != {w:?} in {text:?}");
                }
            }
            (Err(got), Err(want)) => assert_eq!(got, want, "{label}: error on {text:?}"),
            _ => panic!("{label}: {result:?} but the reference gives {want:?} on {text:?}"),
        }
    }
}

/// `f64::decode` agrees with `str::parse` on one line, bit for bit.
fn assert_line_matches(line: &str) {
    match (f64::decode(line), line.parse::<f64>()) {
        (Ok(got), Ok(want)) => assert!(same_bits(got, want), "{line:?}: {got:?} != {want:?}"),
        (Err(_), Err(_)) => {}
        (got, want) => panic!("{line:?}: decode gives {got:?}, str::parse gives {want:?}"),
    }
}

/// Checks every value's shortest-round-trip line on its own, then all of
/// them as frames of 128 lines (the serve path's frame size).
fn check_values(values: &[f64]) {
    let lines: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
    for line in &lines {
        assert_line_matches(line);
    }
    check_frames(&lines);
}

fn check_frames(lines: &[String]) {
    for chunk in lines.chunks(128) {
        let mut frame = chunk.join("\n");
        assert_frame_matches(&frame);
        frame.push('\n');
        assert_frame_matches(&frame);
    }
}

fn reports<M: Mechanism<Input = f64, Report = f64>>(
    mechanism: &M,
    n: usize,
    seed: u64,
) -> Vec<f64> {
    let client = Client::new(mechanism);
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let v: f64 = rng.gen_range(0.0..1.0);
            client.randomize(&v, &mut rng).unwrap()
        })
        .collect()
}

#[test]
fn uniform_bit_patterns_match_std() {
    let mut rng = SplitMix64::new(0x5eed_0001);
    let values: Vec<f64> = (0..100_000).map(|_| f64::from_bits(rng.gen())).collect();
    check_values(&values);
}

#[test]
fn unit_interval_matches_std() {
    let mut rng = SplitMix64::new(0x5eed_0002);
    let values: Vec<f64> = (0..250_000).map(|_| rng.gen_range(0.0..1.0)).collect();
    check_values(&values);
}

#[test]
fn sw_report_ranges_match_std() {
    // SW reports lie in [-b, 1 + b]; b shrinks as ε grows.
    for (i, eps) in [0.5, 1.0, 2.5].into_iter().enumerate() {
        let sw = SwMechanism::ems(eps, 1024).unwrap();
        check_values(&reports(&sw, 120_000, 0x5eed_0010 + i as u64));
    }
}

#[test]
fn pm_and_sr_report_ranges_match_std() {
    for (i, eps) in [0.5, 1.0, 2.5].into_iter().enumerate() {
        let seed = 0x5eed_0020 + i as u64;
        check_values(&reports(&Pm::new(eps).unwrap(), 60_000, seed));
        check_values(&reports(&Sr::new(eps).unwrap(), 10_000, seed));
    }
}

#[test]
fn tiny_and_subnormal_values_match_std() {
    let mut rng = SplitMix64::new(0x5eed_0030);
    let values: Vec<f64> = (0..40_000)
        .map(|i| {
            let mantissa = rng.gen::<u64>() & ((1 << 52) - 1);
            // Exponent fields 0 (subnormal) through 1023 - 100 (≈ 1e-30),
            // and a band around 1e-27..1e-18 where the fraction-digit
            // limit sits.
            let exponent = if i % 2 == 0 {
                rng.gen_range(0..=923u64)
            } else {
                rng.gen_range(933..=963u64)
            };
            f64::from_bits(exponent << 52 | mantissa)
        })
        .collect();
    check_values(&values);
}

/// Random digit strings that are not shortest round trips: up to 21
/// digits, leading zeros, any decimal point position, either sign. These
/// put full 19-digit mantissas through Eisel–Lemire at every fraction
/// length it handles.
#[test]
fn random_digit_strings_match_std() {
    let mut rng = SplitMix64::new(0x5eed_0040);
    let mut lines = Vec::with_capacity(300_000);
    for _ in 0..300_000 {
        let mut s = String::new();
        if rng.gen_bool(0.5) {
            s.push('-');
        }
        for _ in 0..rng.gen_range(0..4) {
            s.push('0');
        }
        let digits: String = (0..rng.gen_range(1..=21))
            .map(|_| char::from(b'0' + rng.gen_range(0..10u8)))
            .collect();
        let point = rng.gen_range(0..=digits.len() + 1);
        if point == 0 || point > digits.len() {
            s.push_str(&digits);
        } else {
            s.push_str(&digits[..point]);
            s.push('.');
            for _ in 0..rng.gen_range(0..3) {
                s.push('0');
            }
            s.push_str(&digits[point..]);
        }
        assert_line_matches(&s);
        lines.push(s);
    }
    check_frames(&lines);
}

/// Exact midpoints between adjacent floats (and their decimal
/// neighbours): the round-half-to-even cases. A midpoint with a fraction
/// has at most four fraction digits, the only lengths where a tie can be
/// exact.
#[test]
fn halfway_cases_match_std() {
    let mut rng = SplitMix64::new(0x5eed_0050);
    let mut lines = Vec::new();
    for _ in 0..20_000 {
        let m: u64 = rng.gen_range(1 << 52..1 << 53);
        let odd = 2 * m + 1;
        // The midpoint (2m + 1) · 2^(k-1) between floats of ulp 2^k.
        let k: i32 = rng.gen_range(-3..=11);
        let midpoint = if k >= 1 {
            format!("{}", odd << (k - 1))
        } else {
            let j = (1 - k) as u32;
            let scaled = (odd * 5u64.pow(j)).to_string();
            let (int, frac) = scaled.split_at(scaled.len() - j as usize);
            format!("{int}.{frac}")
        };
        for delta in [-1i64, 0, 1] {
            let digits = midpoint.replace('.', "");
            let point = midpoint.find('.');
            let nudged = (digits.parse::<i128>().unwrap() + i128::from(delta)).to_string();
            let line = match point {
                Some(p) => format!("{}.{}", &nudged[..p], &nudged[p..]),
                None => nudged,
            };
            assert_line_matches(&line);
            lines.push(line);
        }
    }
    check_frames(&lines);
}

#[test]
fn edge_corpus_matches_std() {
    let corpus = [
        // 2^53 ± 1, the first integer that needs rounding, and the classic
        // shortest round trip.
        "9007199254740991",
        "9007199254740992",
        "9007199254740993",
        "9007199254740995",
        "-9007199254740993",
        "0.30000000000000004",
        "0.1",
        "0.5",
        "1",
        "0",
        "-0",
        "-0.0",
        "0.000",
        "-0.000000000000000000000000000000000",
        // 19- and 20-digit boundaries, with and without leading zeros.
        "1234567890123456789",
        "12345678901234567890",
        "9999999999999999999",
        "10000000000000000000",
        "18446744073709551615",
        "18446744073709551616",
        "0.1234567890123456789",
        "0.12345678901234567890",
        "0.001234567890123456789",
        "000000000000000000001",
        "0.000000000000000000000000001",
        "0.0000000000000000000000000001",
        "0.0000000000000000000000000012345678901234567",
        "1.000000000000000000000000001",
        "123456789.123456789",
        "4.9e-324",
        "1e5",
        "1E5",
        "1.5e-3",
        "-1e400",
        // Forms std accepts that the in-place parser leaves to it.
        "1.",
        ".5",
        "-.5",
        "+1",
        "+0.25",
        "inf",
        "-inf",
        "infinity",
        "NaN",
        "nan",
        // Malformed lines.
        ".",
        "-",
        "+",
        "--1",
        "1.2.3",
        "1..2",
        "0x10",
        "1_000",
        "1e",
        "1 2",
        "0.5x",
        "0.5:",
        "0.12345678:",
        "0.1234567/9",
        "1/2",
        "\u{ff11}",
        "",
    ];
    for line in corpus {
        assert_line_matches(line);
        assert_frame_matches(line);
        assert_frame_matches(&format!("{line}\n"));
        assert_frame_matches(&format!("0.25\n{line}\n0.75"));
    }
}

#[test]
fn whitespace_and_line_endings_match_std() {
    let frames = [
        "0.5\r\n0.25\r\n",
        "0.5\r\n0.25",
        "0.5\r",
        "0.5\r0.25\n",
        "  0.5\n\t0.25 \n",
        "\u{a0}0.5\u{a0}\n\u{3000}0.25\u{3000}\n",
        "\u{feff}0.5\n",
        "\n\n0.5\n\n\n0.25\n\n",
        "   \n\t\n",
        "\r\n",
        "0.5",
        "0.5\n0.25\n0.125",
        "-0.5\n-0\n0\n",
        "0.5 \n oops\n",
        "0.5\n\u{a0}oops\u{3000}\n0.25\n",
        "0.5\r\n1e5\r\nbad\r\n",
        "0.5\n\u{0}\n",
    ];
    for frame in frames {
        assert_frame_matches(frame);
    }
}

/// Random frames over an alphabet of digits, signs, points, exponents,
/// ASCII and Unicode whitespace and line endings: the decoder must agree
/// with the reference on values and on the first error.
#[test]
fn random_frames_match_std() {
    // `/` and `:` sit either side of the digits in ASCII.
    const ALPHABET: [&str; 22] = [
        "0", "1", "5", "9", "7", ".", "-", "+", "e", "\n", "\n", "\r", " ", "\t", "\u{a0}",
        "\u{3000}", "inf", "x", "/", ":", "00", "12345678",
    ];
    let mut rng = SplitMix64::new(0x5eed_0060);
    for _ in 0..100_000 {
        let len = rng.gen_range(0..24);
        let frame: String = (0..len)
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
            .collect();
        assert_frame_matches(&frame);
    }
}
