//! Golden estimate pins: literal fingerprints, report digests and
//! estimate digests for every registry mechanism spec, plus two custom
//! Square Wave configurations outside the registry, SW-EMS and SW-EM at
//! d ∈ {256, 1024} across ε, plus three OLH-backed
//! specs whose hash range `g` is not a power of two, plus the discrete
//! Square Wave. The served SW shapes also pin their EM trajectory: the
//! iteration count, the converged flag and the log-likelihood bits.
//!
//! Each registry run goes `build_session` → `gen_reports` →
//! `ingest_text` → `finalize_text` and pins three values:
//!
//! - the session's configuration `fingerprint()`;
//! - FNV-1a-64 of the `gen_reports` text, which pins the client's
//!   randomize draw order;
//! - FNV-1a-64 of the `finalize_text` output, which pins every estimate
//!   bit (the renderer writes `f64`s with round-trip `Display`).
//!
//! The constants were recorded once and must never be regenerated to make
//! a refactor pass: a changed pin means a changed estimate. CI runs this
//! suite with SIMD dispatch live, under `LDP_NO_SIMD=1`, and on a 2-worker
//! pool, so the pins also prove that estimates do not depend on the SIMD
//! mode or the pool size.

use rand::Rng;
use sw_ldp::collector::build_session;
use sw_ldp::collector::registry::MECHANISMS;
use sw_ldp::core_api::decode_snapshot_with_sessions;
use sw_ldp::core_api::snapshot::parse_snapshot;
use sw_ldp::prelude::*;
use sw_ldp::sw::pipeline_with_shape;

/// FNV-1a 64-bit. Defined here rather than borrowed from the snapshot
/// checksum so the pins cannot move with the snapshot format.
fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(seed, n)` of every pinned run, in the order of each pin's digests.
const RUNS: [(u64, u64); 4] = [(1, 1_000), (1, 20_000), (2, 1_000), (2, 20_000)];

/// The spec every registry entry is pinned under.
fn spec_for(name: &str) -> String {
    match name {
        "pm" | "sr" | "hybrid" => format!("{name}:eps=1"),
        "cfo-binning" => format!("{name}:eps=1,d=64,bins=16"),
        _ => format!("{name}:eps=1,d=64"),
    }
}

/// `(registry name, fingerprint, [[reports digest, estimate digest]; RUNS])`.
type Pin = (&'static str, u64, [[u64; 2]; 4]);

const REGISTRY_PINS: &[Pin] = &[
    (
        "sw-ems",
        0xfc093bbc02b02b61,
        [
            [0x914ee45a75845580, 0x4ae051f34c6967ff],
            [0x1ac2f100653d1fb9, 0x71d684fc596d1367],
            [0xa32cd03c1a2acba9, 0x12a8e40d481c40c6],
            [0x38553bfe9c4e5ebc, 0x32086c712be70b70],
        ],
    ),
    (
        "sw-em",
        0xfae0b6e0254d83e8,
        [
            [0x914ee45a75845580, 0xf8f0e129fbc394fd],
            [0x1ac2f100653d1fb9, 0xec9320beea97d83f],
            [0xa32cd03c1a2acba9, 0x496a6e20c4875d1c],
            [0x38553bfe9c4e5ebc, 0x3dde52bbe33d0018],
        ],
    ),
    (
        "grr",
        0x641da3032b43826b,
        [
            [0xb2ed0023c796591f, 0xf346a76169f5ecd6],
            [0x583b9bd19f921c3c, 0xa0cd83f050b61548],
            [0x51c49ad8cbb029e3, 0xb8af59256df707b0],
            [0x3adca74e1773865f, 0x66de577b9729f9eb],
        ],
    ),
    (
        "olh",
        0x5553c185e68c030d,
        [
            [0xd814c1e881059beb, 0x2c207d7e82ffdf63],
            [0x4b48e97f371a0f55, 0xbf794b472d6fa3b3],
            [0x104285615eacfaa3, 0x4f9b71d57b3611aa],
            [0x22c272c4f47b4343, 0x4022cd1bad588cc9],
        ],
    ),
    (
        "oue",
        0x37c8027111e1178f,
        [
            [0x60d1327cd6b3098f, 0x254de10bad1fdb2b],
            [0xb05d91a904c5c0bc, 0xe4427e6c26245e31],
            [0xd1d3df33db8068a4, 0xfc5c51910e12229e],
            [0xe928336e23839537, 0xcd5910f5e5f287b2],
        ],
    ),
    (
        "hrr",
        0xb62503d7406fe9e4,
        [
            [0xbbd3f013ba921699, 0x39a11b8603b854cc],
            [0x528834c688f356f6, 0x98311ed9dfb82916],
            [0xf1220e350d44760d, 0xb047995c3eb55fc4],
            [0xc7612e7e33468e24, 0x0fde46dec5dd39c7],
        ],
    ),
    (
        "adaptive",
        0x5553c185e68c030d,
        [
            [0x194e72348631b009, 0x2c207d7e82ffdf63],
            [0x5bce89220aa9d0a9, 0xbf794b472d6fa3b3],
            [0xd2169b8e8719f75f, 0x4f9b71d57b3611aa],
            [0x0d560d3c5aa2105f, 0x4022cd1bad588cc9],
        ],
    ),
    (
        "cfo-binning",
        0x3ba014e9cc7ca832,
        [
            [0xd92c11f09a51abce, 0x6e118f454676152d],
            [0xfbcbb2706fd4fc8f, 0xdbc773cfd84e3389],
            [0xa1014d5e9ea02674, 0xa4ddce91ccfab2a5],
            [0x57f99acd9904e63c, 0xf864efb4acf45a69],
        ],
    ),
    (
        "pm",
        0x254fbace2855b009,
        [
            [0xbc947887003f8ec6, 0x9a2fd6f5860485d7],
            [0x87ff81824ca9d438, 0xf16dc1565812b53f],
            [0x0676b4d3f2eb5f68, 0xc8dcb4e93d760cce],
            [0x1481af4a2982f66f, 0x7b4ac6d36babf8a8],
        ],
    ),
    (
        "sr",
        0x702bc7b2a46b1fb5,
        [
            [0x651f03f2ac3d851a, 0x6c387c14853d19db],
            [0xc5a37ccfb294e053, 0x7ae1b7fff5912526],
            [0x91a5fc3bb5049404, 0x7df454151d395cec],
            [0xf212806f127d5290, 0x88f3083623c774c6],
        ],
    ),
    (
        "hybrid",
        0xc89dc9f04330af64,
        [
            [0x029301abf84d96de, 0x3fe92191c1bf0574],
            [0x9375fe0685edad92, 0x95d3141e97eeabf0],
            [0xe1b7433944b0c678, 0x9f9ce7e3c7119094],
            [0xb77b3536dfd09d8a, 0x106a08099e03612c],
        ],
    ),
    (
        "hh",
        0xdcdddfd5f5fe3ad3,
        [
            [0x629dbae6e4e23422, 0xa36492778f63c7bb],
            [0xd58df5d9f2e2a187, 0x5c7ebaae80c3fed8],
            [0x192362e6520bcf7b, 0x02147547a1e4b501],
            [0xeadd0b9de1204293, 0x826ad31b66363634],
        ],
    ),
    (
        "hh-admm",
        0xdcdddfd5f5fe3ad3,
        [
            [0x629dbae6e4e23422, 0xa6f11dad24ea1275],
            [0xd58df5d9f2e2a187, 0x08dc0a17fbcecf1a],
            [0x192362e6520bcf7b, 0xdbfd0b2071bfd1b8],
            [0xeadd0b9de1204293, 0xd77940c9557e03fd],
        ],
    ),
    (
        "haar-hrr",
        0xcc6b9ebf2716b058,
        [
            [0xac1194324c72701f, 0x011864e6ec78b187],
            [0x45c52fb296b73c6f, 0x36573a468be9aa80],
            [0x941dd02ff429d46f, 0x52c0ddd753e7dbbe],
            [0x8a6299cbbfc0470b, 0x9e999ffa54fcecce],
        ],
    ),
];

/// `(fingerprint, [[reports digest, estimate digest]; RUNS])` for the
/// trapezoid-wave and `d̃ ≠ d` Square Wave configurations.
type CustomPin = (u64, [[u64; 2]; 4]);

const TRAPEZOID_PIN: CustomPin = (
    0x17adc46bce79f65e,
    [
        [0x134097af72081d78, 0xb65fbfd2113cb20e],
        [0xf1d78488fbe264ce, 0x7dc8cff1900f09bd],
        [0xea84a019b66ae41e, 0x6ab920b323f15c6c],
        [0xc9fdedf6b682aaad, 0xb663925e9890cfe4],
    ],
);
const WIDE_OUTPUT_PIN: CustomPin = (
    0x4ea21e7b230b69a5,
    [
        [0x203edffd6cf571d6, 0xaa030dac7f1d9484],
        [0x63f864371898c6f3, 0x0bc87e1a7caa89fa],
        [0xf12e4990f9427ba9, 0x5439a17c4ac31fa7],
        [0xf825fa269c3ce7c7, 0xdd1814fcb9961e07],
    ],
);

/// `[[reports digest, estimate digest]; RUNS]` for `DiscreteSw::new(64, 1.0)`.
/// Recorded before the discrete randomizer moved into
/// `Mechanism::randomize`, through the inherent randomizer, plain counts
/// and EMS over the banded operator, so the pin proves the move kept both
/// the draw order and every estimate bit.
const DISCRETE_SW_PIN: [[u64; 2]; 4] = [
    [0x66c60028323be12e, 0x09553e1e6adc0c3a],
    [0xf10132b55b22ca3c, 0x8d6b420fe0d6283e],
    [0x066f980b5a9546b1, 0x78eb924dd2341da1],
    [0x7c29f3367177a8d0, 0xe5f637fce2679e46],
];

/// Specs whose OLH hash range `g = round(eᵉ) + 1` is odd (the registry pins
/// all run at ε = 1, where `g = 4`), pinned under the same scheme:
/// `(spec, fingerprint, [[reports digest, estimate digest]; RUNS])`.
const ODD_HASH_RANGE_PINS: &[Pin] = &[
    // g = 3.
    (
        "olh:eps=0.5,d=64",
        0x09e669471c4ea3f4,
        [
            [0x29d6ef54bf2a56aa, 0xef6957556a76ae9c],
            [0x3e701df93593c7e7, 0x40d2ae407b9003fd],
            [0x5c5d5435d8ac8261, 0xc08554ad410b7a54],
            [0xb3da60ef6da3bd44, 0xabfc63a38fbd978d],
        ],
    ),
    // g = 5 on the 64-bin OLH oracle.
    (
        "cfo-binning:eps=1.5,d=256,bins=64",
        0xc54251fc74fb32da,
        [
            [0x6c422f2e9891f49f, 0x2e81e6abcdbb96bd],
            [0x03ef73523c236260, 0xae02f6d240c20e21],
            [0x5f7b00657cbcc0aa, 0xa0dcdc9409181141],
            [0xe08a7f1d86fc5ac7, 0x29ed82689fbf7695],
        ],
    ),
    // g = 13 on the OLH levels (sizes 64 and 256).
    (
        "hh:eps=2.5,d=256",
        0x2d6c90745fcb6ee4,
        [
            [0x14b491a7008700f2, 0xbb7920e8586592fb],
            [0xdbc04c8192121bcc, 0x232c9e3b06c78f26],
            [0xd268a3d4bc528303, 0x1bc540f0bfd0e4a2],
            [0x16103601f337f752, 0x9c30ab0072edc128],
        ],
    ),
];

/// SW-EMS and SW-EM at the served granularity (d = 1024) and the paper's
/// sweep granularity (d = 256), across ε: the banded operator's mix of
/// edge-length classes differs by ε, so each pin exercises a different
/// class layout. Same scheme as [`REGISTRY_PINS`].
const SERVED_SHAPE_PINS: &[Pin] = &[
    (
        "sw-ems:eps=0.5,d=256",
        0x8e8f4ab8d8dff8ea,
        [
            [0x5e58a99ff384d35c, 0xcde1bd4df9373dbc],
            [0x397f99a3769a0a36, 0x9511eae9c158006b],
            [0x63aae96b4e5c90d1, 0xd723a5b6cf82e96d],
            [0x157ab6caa3bac92f, 0xc5849c7065f29ca2],
        ],
    ),
    (
        "sw-ems:eps=1,d=256",
        0xc1327e7308fd3be4,
        [
            [0x914ee45a75845580, 0xf5a2fe11d92b1b54],
            [0x1ac2f100653d1fb9, 0xfefadf9852362201],
            [0xa32cd03c1a2acba9, 0xa04b918e4e370d51],
            [0x38553bfe9c4e5ebc, 0xffe77e544e0b3192],
        ],
    ),
    (
        "sw-ems:eps=4,d=256",
        0x538dcf5df770e6ab,
        [
            [0x707f1726f126f06f, 0xee325f75263e99d5],
            [0x45db938c84fc9b75, 0x6f9cacc8f1e6d628],
            [0x54684ada2521187e, 0xe5612490566e2763],
            [0xb29bf969182ea334, 0xbee2ad37ec732931],
        ],
    ),
    (
        "sw-ems:eps=0.5,d=1024",
        0xbd671b3a316b13ed,
        [
            [0x5e58a99ff384d35c, 0x4bd63ca96a3e62bf],
            [0x397f99a3769a0a36, 0x84a8b887b6e1f6c8],
            [0x63aae96b4e5c90d1, 0x04984a4f08a63c5f],
            [0x157ab6caa3bac92f, 0x7e91dfa45588cc43],
        ],
    ),
    (
        "sw-ems:eps=1,d=1024",
        0xab05a36ef4671101,
        [
            [0x914ee45a75845580, 0x1d658d4e7441d864],
            [0x1ac2f100653d1fb9, 0x3ce69d15c6ccd5c0],
            [0xa32cd03c1a2acba9, 0x509ca21f705a4ca1],
            [0x38553bfe9c4e5ebc, 0xce2c92c7f3bfff6e],
        ],
    ),
    (
        "sw-ems:eps=4,d=1024",
        0x95ef51cef73fedcc,
        [
            [0x707f1726f126f06f, 0xd983c27eb90f8380],
            [0x45db938c84fc9b75, 0xf93c3610036bb2ac],
            [0x54684ada2521187e, 0xef94b15e9da939cd],
            [0xb29bf969182ea334, 0x6cfd7ef7a97765a4],
        ],
    ),
    (
        "sw-em:eps=0.5,d=256",
        0x27c368e9162dc4ca,
        [
            [0x5e58a99ff384d35c, 0xa94615c8690ad138],
            [0x397f99a3769a0a36, 0x1d49c0e10f1d377c],
            [0x63aae96b4e5c90d1, 0x2ca86e06ce2ea515],
            [0x157ab6caa3bac92f, 0xaa4746bad2c72aa3],
        ],
    ),
    (
        "sw-em:eps=1,d=256",
        0x7dbaea631bb33309,
        [
            [0x914ee45a75845580, 0x169586ede10aa53b],
            [0x1ac2f100653d1fb9, 0x95fd31d692a001f0],
            [0xa32cd03c1a2acba9, 0x4e3576e9650b8ebd],
            [0x38553bfe9c4e5ebc, 0x3af257fcaad1c38e],
        ],
    ),
    (
        "sw-em:eps=4,d=256",
        0x7cb07864971f2697,
        [
            [0x707f1726f126f06f, 0xa81909330e753568],
            [0x45db938c84fc9b75, 0xff95f70fdc4c11d6],
            [0x54684ada2521187e, 0xc5f9f0c4c5deb6a3],
            [0xb29bf969182ea334, 0x636c03b87d5cd837],
        ],
    ),
    (
        "sw-em:eps=0.5,d=1024",
        0xa6aaea56fb540792,
        [
            [0x5e58a99ff384d35c, 0xd188591bb36ff9ad],
            [0x397f99a3769a0a36, 0x0fd7405efbfe915a],
            [0x63aae96b4e5c90d1, 0x94edcf39e7ac6221],
            [0x157ab6caa3bac92f, 0xd5f502be00344afc],
        ],
    ),
    (
        "sw-em:eps=1,d=1024",
        0x20ad1437ace801c2,
        [
            [0x914ee45a75845580, 0xa33a0827d413afc4],
            [0x1ac2f100653d1fb9, 0x51c06137548b968a],
            [0xa32cd03c1a2acba9, 0x3087a51ebd8f491d],
            [0x38553bfe9c4e5ebc, 0x4e47c426d2a5fde0],
        ],
    ),
    (
        "sw-em:eps=4,d=1024",
        0xf0baef8940247457,
        [
            [0x707f1726f126f06f, 0x2d1126062f64f3fe],
            [0x45db938c84fc9b75, 0xb2c028fc72193e64],
            [0x54684ada2521187e, 0x0c8452d33bf233a0],
            [0xb29bf969182ea334, 0xa3144b4e37da9008],
        ],
    ),
];

/// `(iterations, converged, log-likelihood bits)` of one EM/EMS run.
type Trajectory = (usize, bool, u64);

/// EM trajectories of the [`SERVED_SHAPE_PINS`] runs: `(spec, [trajectory;
/// RUNS])`, from `SwPipeline::reconstruct` (which runs `em::reconstruct`)
/// on the counts of the served session. The estimate digests pin where EM
/// stops only through the estimate; these pin the iteration count, the
/// stopping reason and the final log-likelihood bit for bit.
const SERVED_SHAPE_TRAJECTORY_PINS: &[(&str, [Trajectory; 4])] = &[
    (
        "sw-ems:eps=0.5,d=256",
        [
            (132, true, 0xc0b5a2d7fa14b2b5),
            (114, true, 0xc0fb0d4783548bc3),
            (162, true, 0xc0b5a45de10d8d37),
            (135, true, 0xc0fb0b33ea993188),
        ],
    ),
    (
        "sw-ems:eps=1,d=256",
        [
            (75, true, 0xc0b598f5be218b9f),
            (96, true, 0xc0fafe0481933da3),
            (78, true, 0xc0b59e1fba406947),
            (102, true, 0xc0fafbe225c7aa3e),
        ],
    ),
    (
        "sw-ems:eps=4,d=256",
        [
            (27, true, 0xc0b58e1def6ead81),
            (33, true, 0xc0fb02cf22b7b7b4),
            (30, true, 0xc0b5907989f7be41),
            (33, true, 0xc0fb03b74758b098),
        ],
    ),
    (
        "sw-ems:eps=0.5,d=1024",
        [
            (120, true, 0xc0bb0c7fe80d3d72),
            (426, true, 0xc100e8f8fde7e6ac),
            (180, true, 0xc0bb0d6e4c36a0f9),
            (348, true, 0xc100e7f56e217f1a),
        ],
    ),
    (
        "sw-ems:eps=1,d=1024",
        [
            (171, true, 0xc0bb014748b9510f),
            (321, true, 0xc100e1411620db79),
            (183, true, 0xc0bb061cf9a117fe),
            (396, true, 0xc100e049e37fd864),
        ],
    ),
    (
        "sw-ems:eps=4,d=1024",
        [
            (105, true, 0xc0bae9cfe06f87e9),
            (186, true, 0xc100e339f38a0ad6),
            (69, true, 0xc0baeeb20da7eb10),
            (150, true, 0xc100e3b4685bec89),
        ],
    ),
    (
        "sw-em:eps=0.5,d=256",
        [
            (500, true, 0xc0b5a22b72602c40),
            (1718, true, 0xc0fb0d0830ee4f62),
            (775, true, 0xc0b5a24ea5c70ce2),
            (2801, true, 0xc0fb0abe796f659f),
        ],
    ),
    (
        "sw-em:eps=1,d=256",
        [
            (558, true, 0xc0b595cd3238effb),
            (1964, true, 0xc0fafd40ca335e74),
            (516, true, 0xc0b59b011880482e),
            (1587, true, 0xc0fafb6ad3f02141),
        ],
    ),
    (
        "sw-em:eps=4,d=256",
        [
            (99, true, 0xc0b57af51632b9f2),
            (250, true, 0xc0fb007612d4d552),
            (101, true, 0xc0b57f505a42f85a),
            (265, true, 0xc0fb015b50106a2b),
        ],
    ),
    (
        "sw-em:eps=0.5,d=1024",
        [
            (572, true, 0xc0bb0c3a9f3fd43c),
            (2009, true, 0xc100e8e98caa454a),
            (783, true, 0xc0bb0c98f82093f0),
            (3160, true, 0xc100e7c4c085572d),
        ],
    ),
    (
        "sw-em:eps=1,d=1024",
        [
            (592, true, 0xc0baff9791e1e8c2),
            (2520, true, 0xc100e0e6e9c56324),
            (559, true, 0xc0bb04b0714b39d6),
            (2284, true, 0xc100e001e640f8d4),
        ],
    ),
    (
        "sw-em:eps=4,d=1024",
        [
            (125, true, 0xc0badacb79471ec6),
            (421, true, 0xc100e162c2e899a5),
            (125, true, 0xc0badf5850a43eff),
            (437, true, 0xc100e1c572129faa),
        ],
    ),
];

/// Runs one registry spec through the collector session and returns its
/// pin.
fn registry_run(name: &'static str) -> Pin {
    spec_run(name, &spec_for(name))
}

/// Runs `spec` through the collector session and returns its pin under
/// `label`.
fn spec_run(label: &'static str, spec: &str) -> Pin {
    let mut digests = [[0; 2]; 4];
    let mut fingerprint = 0;
    for (slot, &(seed, n)) in digests.iter_mut().zip(&RUNS) {
        let mut session = build_session(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
        fingerprint = session.fingerprint();
        let reports = session.gen_reports(n, seed).unwrap();
        assert_eq!(session.ingest_text(&reports).unwrap(), n, "{spec}");
        let estimate = session.finalize_text().unwrap();
        *slot = [fnv1a(&reports), fnv1a(&estimate)];
    }
    (label, fingerprint, digests)
}

/// Runs a custom SW configuration through `Client`/`Aggregator`.
fn custom_run(mech: &SwMechanism) -> CustomPin {
    (
        mech.fingerprint(),
        stream_digests(mech, |rng| rng.gen_range(0.0..1.0)),
    )
}

/// Runs `mech` through `Client`/`Aggregator`, drawing each private value
/// (with `draw`) and its randomization from one stream exactly like
/// `gen_reports`, and returns the digests of every run.
fn stream_digests<M>(mech: &M, draw: impl Fn(&mut SplitMix64) -> M::Input) -> [[u64; 2]; 4]
where
    M: Mechanism<Output = Histogram>,
    M::Input: Sized,
    M::Report: std::fmt::Display,
{
    let mut digests = [[0; 2]; 4];
    for (slot, &(seed, n)) in digests.iter_mut().zip(&RUNS) {
        let client = Client::new(mech);
        let mut agg = Aggregator::new(mech);
        let mut rng = SplitMix64::new(seed);
        let mut reports = String::new();
        for _ in 0..n {
            let value = draw(&mut rng);
            let report = client.randomize(&value, &mut rng).unwrap();
            agg.push(&report).unwrap();
            reports.push_str(&format!("{report}\n"));
        }
        let estimate: String = agg
            .finalize()
            .unwrap()
            .probs()
            .iter()
            .map(|p| format!("{p}\n"))
            .collect();
        *slot = [fnv1a(&reports), fnv1a(&estimate)];
    }
    digests
}

fn render_pin(label: &str, fingerprint: u64, digests: &[[u64; 2]; 4]) -> String {
    let runs: Vec<String> = digests
        .iter()
        .map(|[r, e]| format!("[0x{r:016x}, 0x{e:016x}]"))
        .collect();
    format!("({label}, 0x{fingerprint:016x}, [{}])", runs.join(", "))
}

#[test]
fn registry_pins_cover_every_mechanism() {
    let pinned: Vec<&str> = REGISTRY_PINS.iter().map(|p| p.0).collect();
    let registered: Vec<&str> = MECHANISMS.iter().map(|m| m.0).collect();
    assert_eq!(pinned, registered);
}

#[test]
fn registry_estimates_match_golden_pins() {
    let actual: Vec<Pin> = MECHANISMS.iter().map(|m| registry_run(m.0)).collect();
    let rendered: Vec<String> = actual
        .iter()
        .map(|(name, fp, d)| render_pin(&format!("{name:?}"), *fp, d))
        .collect();
    assert!(
        actual.as_slice() == REGISTRY_PINS,
        "registry pins differ; actual:\n{}",
        rendered.join(",\n")
    );
}

#[test]
fn odd_hash_range_estimates_match_golden_pins() {
    let actual: Vec<Pin> = ODD_HASH_RANGE_PINS
        .iter()
        .map(|p| spec_run(p.0, p.0))
        .collect();
    let rendered: Vec<String> = actual
        .iter()
        .map(|(spec, fp, d)| render_pin(&format!("{spec:?}"), *fp, d))
        .collect();
    assert!(
        actual.as_slice() == ODD_HASH_RANGE_PINS,
        "odd hash range pins differ; actual:\n{}",
        rendered.join(",\n")
    );
}

/// Runs every [`SERVED_SHAPE_PINS`] spec under `method` and compares.
fn check_served_shape_pins(method: &str) {
    let expected: Vec<&Pin> = SERVED_SHAPE_PINS
        .iter()
        .filter(|p| p.0.split(':').next() == Some(method))
        .collect();
    assert!(!expected.is_empty(), "no pins for {method}");
    let actual: Vec<Pin> = expected.iter().map(|p| spec_run(p.0, p.0)).collect();
    let rendered: Vec<String> = actual
        .iter()
        .map(|(spec, fp, d)| render_pin(&format!("{spec:?}"), *fp, d))
        .collect();
    assert!(
        actual.iter().eq(expected.iter().copied()),
        "{method} served-shape pins differ; actual:\n{}",
        rendered.join(",\n")
    );
}

#[test]
fn sw_ems_served_shape_estimates_match_golden_pins() {
    check_served_shape_pins("sw-ems");
}

#[test]
fn sw_em_served_shape_estimates_match_golden_pins() {
    check_served_shape_pins("sw-em");
}

#[test]
fn trapezoid_wave_estimates_match_golden_pins() {
    let pipeline = pipeline_with_shape(WaveShape::Trapezoid { ratio: 0.5 }, 0.25, 1.0, 32).unwrap();
    let actual = custom_run(&SwMechanism::with_pipeline(pipeline, Reconstruction::Ems));
    assert!(
        actual == TRAPEZOID_PIN,
        "trapezoid pin differs; actual: {}",
        render_pin("trapezoid", actual.0, &actual.1)
    );
}

#[test]
fn wide_output_estimates_match_golden_pins() {
    let wave = Wave::square(0.25, 1.0).unwrap();
    let pipeline = SwPipeline::with_wave(wave, 16, 24).unwrap();
    let actual = custom_run(&SwMechanism::with_pipeline(pipeline, Reconstruction::Ems));
    assert!(
        actual == WIDE_OUTPUT_PIN,
        "d̃ ≠ d pin differs; actual: {}",
        render_pin("wide output", actual.0, &actual.1)
    );
}

#[test]
fn discrete_sw_estimates_match_golden_pins() {
    let mech = DiscreteSw::new(64, 1.0).unwrap();
    let actual = stream_digests(&mech, |rng| rng.gen_range(0..64usize));
    assert!(
        actual == DISCRETE_SW_PIN,
        "discrete SW pin differs; actual: {}",
        render_pin("discrete SW", 0, &actual)
    );
}

/// The EM trajectory of every [`RUNS`] entry of served-shape `spec`.
fn served_trajectories(spec: &str) -> [Trajectory; 4] {
    let (method, params) = spec.split_once(':').unwrap();
    let param = |key: &str| -> &str {
        params
            .split(',')
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .unwrap()
    };
    let (eps, d) = (param("eps").parse().unwrap(), param("d").parse().unwrap());
    let mech = match method {
        "sw-ems" => SwMechanism::ems(eps, d),
        _ => SwMechanism::em(eps, d),
    }
    .unwrap();
    let mut out = [(0, false, 0); 4];
    for (slot, &(seed, n)) in out.iter_mut().zip(&RUNS) {
        let mut session = build_session(spec).unwrap();
        assert_eq!(session.fingerprint(), mech.fingerprint(), "{spec}");
        session
            .ingest_text(&session.gen_reports(n, seed).unwrap())
            .unwrap();
        let snapshot = session.snapshot_text();
        let (header, _) = parse_snapshot(&snapshot).unwrap();
        let (state, _, _) =
            decode_snapshot_with_sessions(&mech, &header.mechanism, &snapshot).unwrap();
        let r = mech
            .pipeline()
            .reconstruct(&state.to_counts(), mech.reconstruction())
            .unwrap();
        *slot = (r.iterations, r.converged, r.log_likelihood.to_bits());
    }
    out
}

#[test]
fn served_shape_em_trajectories_match_golden_pins() {
    let specs: Vec<&str> = SERVED_SHAPE_PINS.iter().map(|p| p.0).collect();
    let pinned: Vec<&str> = SERVED_SHAPE_TRAJECTORY_PINS.iter().map(|p| p.0).collect();
    let actual: Vec<(&str, [Trajectory; 4])> = specs
        .iter()
        .map(|&spec| (spec, served_trajectories(spec)))
        .collect();
    let rendered: Vec<String> = actual
        .iter()
        .map(|(spec, runs)| {
            let runs: Vec<String> = runs
                .iter()
                .map(|(it, conv, ll)| format!("({it}, {conv}, 0x{ll:016x})"))
                .collect();
            format!("({spec:?}, [{}])", runs.join(", "))
        })
        .collect();
    assert!(
        pinned == specs && actual.as_slice() == SERVED_SHAPE_TRAJECTORY_PINS,
        "served-shape EM trajectories differ; actual:\n{}",
        rendered.join(",\n")
    );
}
