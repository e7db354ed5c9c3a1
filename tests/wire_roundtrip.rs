//! Wire-format round trips: serializing a report stream, deserializing it,
//! and aggregating must produce the bit-identical estimate — reports can
//! cross process boundaries (device → collector → replay log) losslessly.
//!
//! The encoding exercised here is `ldp-core`'s dependency-free line
//! format, the only encoding reports have.

use sw_ldp::cfo::select::AdaptiveReport;
use sw_ldp::cfo::{Grr, Hrr, Olh, Oue};
use sw_ldp::core_api::{decode_lines, encode_lines, Client, Mechanism, WireReport};
use sw_ldp::hierarchy::{HaarHrr, HaarReport, HhReport, HierarchicalHistogram};
use sw_ldp::mean::{Hybrid, HybridReport, Pm, Sr};
use sw_ldp::numeric::SplitMix64;
use sw_ldp::sw::mechanism::SwMechanism;

/// Randomizes a stream, ships it through the wire format, and asserts the
/// replayed stream finalizes to the bit-identical estimate.
fn round_trip<M, F>(label: &str, mechanism: M, inputs: &[M::Input], canon: F, seed: u64)
where
    M: Mechanism,
    M::Input: Sized,
    M::Report: WireReport + PartialEq + std::fmt::Debug,
    F: Fn(&M::Output) -> Vec<f64>,
{
    let client = Client::new(&mechanism);
    let mut rng = SplitMix64::new(seed);
    let reports: Vec<M::Report> = inputs
        .iter()
        .map(|v| client.randomize(v, &mut rng).unwrap())
        .collect();

    let text = encode_lines(&reports);
    let replayed: Vec<M::Report> = decode_lines(&text).unwrap();
    assert_eq!(replayed, reports, "{label}: reports must survive the wire");

    let original = canon(&mechanism.aggregate(&reports).unwrap());
    let decoded = canon(&mechanism.aggregate(&replayed).unwrap());
    assert_eq!(original.len(), decoded.len());
    for (i, (a, b)) in original.iter().zip(&decoded).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: estimate entry {i} changed across the wire"
        );
    }
}

fn unit_values(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i % 173) as f64 / 173.0).collect()
}

fn signed_values(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 29) % 201) as f64 / 100.0 - 1.0)
        .collect()
}

fn categorical_values(n: usize, d: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 11) % d).collect()
}

#[test]
fn sw_reports_round_trip() {
    round_trip(
        "SW-EMS",
        SwMechanism::ems(1.0, 24).unwrap(),
        &unit_values(2_000),
        |h| h.probs().to_vec(),
        201,
    );
}

#[test]
fn cfo_reports_round_trip() {
    round_trip(
        "GRR",
        Grr::new(16, 1.0).unwrap(),
        &categorical_values(2_000, 16),
        Clone::clone,
        202,
    );
    round_trip(
        "OLH",
        Olh::new(32, 1.0).unwrap(),
        &categorical_values(2_000, 32),
        Clone::clone,
        203,
    );
    round_trip(
        "OUE",
        Oue::new(70, 1.0).unwrap(),
        &categorical_values(2_000, 70),
        Clone::clone,
        204,
    );
    round_trip(
        "Hadamard-RR",
        Hrr::new(20, 1.0).unwrap(),
        &categorical_values(2_000, 20),
        Clone::clone,
        205,
    );
}

#[test]
fn mean_reports_round_trip() {
    round_trip(
        "PM",
        Pm::new(1.0).unwrap(),
        &signed_values(2_000),
        |m| vec![*m],
        206,
    );
    round_trip(
        "SR",
        Sr::new(1.0).unwrap(),
        &signed_values(2_000),
        |m| vec![*m],
        207,
    );
    round_trip(
        "Hybrid",
        Hybrid::new(2.0).unwrap(),
        &signed_values(2_000),
        |m| vec![*m],
        208,
    );
}

#[test]
fn hierarchy_reports_round_trip() {
    round_trip(
        "HaarHRR",
        HaarHrr::new(32, 1.0).unwrap(),
        &categorical_values(2_000, 32),
        Clone::clone,
        209,
    );
    round_trip(
        "HH",
        HierarchicalHistogram::new(4, 64, 1.0).unwrap(),
        &categorical_values(2_000, 64),
        |raw| raw.tree.flatten(),
        210,
    );
}

/// Tampered or truncated lines must be rejected, never silently absorbed.
#[test]
fn malformed_wire_lines_are_rejected() {
    assert!(decode_lines::<f64>("0.5\nnot-a-float\n0.25").is_err());
    assert!(decode_lines::<HhReport>("2 g 3\n2 q 3").is_err());
    assert!(
        decode_lines::<HaarReport>("1 3 0").is_err(),
        "bit must be ±1"
    );
    assert!(decode_lines::<AdaptiveReport>("o 12").is_err());
    assert!(decode_lines::<HybridReport>("p one").is_err());
}

/// Edge cases pinned while writing `docs/WIRE_FORMAT.md` — the spec
/// promises exactly these behaviors.
#[test]
fn wire_spec_edge_cases() {
    // An empty stream is a valid (empty) stream, not an error.
    assert_eq!(decode_lines::<f64>("").unwrap(), Vec::<f64>::new());
    assert_eq!(encode_lines::<f64>(&[]), "");
    // Blank lines and surrounding whitespace are insignificant…
    let padded = "  0.5  \n\n\t\n0.25\n";
    assert_eq!(decode_lines::<f64>(padded).unwrap(), vec![0.5, 0.25]);
    // …and CRLF line endings decode like LF (str::lines strips \r via
    // the trim the decoder applies).
    assert_eq!(
        decode_lines::<f64>("0.5\r\n0.25\r\n").unwrap(),
        vec![0.5, 0.25]
    );
    // Special f64 values survive the shortest-round-trip rendering.
    for v in [-0.0f64, f64::MIN_POSITIVE, 5e-324, 1e308, 1.0 / 3.0] {
        let text = encode_lines(&[v]);
        let back: Vec<f64> = decode_lines(&text).unwrap();
        assert_eq!(back[0].to_bits(), v.to_bits(), "{v:e}");
    }
    // Duplicate lines are preserved, not deduplicated: the wire format
    // is a stream, and at-least-once vs exactly-once is the transport's
    // contract (see docs/OPERATIONS.md).
    let dup = "0.5\n0.5\n";
    assert_eq!(decode_lines::<f64>(dup).unwrap(), vec![0.5, 0.5]);
}

/// The same stream replayed through a second encode→decode generation is
/// byte-stable: the wire format is a fixed point after one round trip.
#[test]
fn wire_encoding_is_a_fixed_point() {
    let olh = Olh::new(16, 1.0).unwrap();
    let client = Client::new(&olh);
    let mut rng = SplitMix64::new(404);
    let reports: Vec<_> = categorical_values(200, 16)
        .iter()
        .map(|v| client.randomize(v, &mut rng).unwrap())
        .collect();
    let first = encode_lines(&reports);
    let second = encode_lines(&decode_lines::<sw_ldp::cfo::olh::OlhReport>(&first).unwrap());
    assert_eq!(first, second);
}
