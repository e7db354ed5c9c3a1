//! The unified mechanism API every LDP protocol in this workspace speaks.
//!
//! The paper (Li et al., SIGMOD 2020) compares the Square Wave mechanism
//! against categorical frequency oracles, mean mechanisms, and hierarchical
//! estimators — historically each family grew its own ad-hoc surface. This
//! crate defines the one contract they all implement:
//!
//! - [`params`] — [`Epsilon`] and [`Domain`], the validated newtypes that
//!   centralize the privacy-budget and domain-size checks every mechanism
//!   constructor used to re-implement;
//! - [`mechanism`] — the [`Mechanism`] trait (client-side `randomize`,
//!   server-side streaming state with a one-shot `aggregate` convenience)
//!   plus the [`Client`]/[`Aggregator`] deployment split. An `Aggregator`
//!   is a streaming accumulator: `push`/`push_slice` absorb wire reports
//!   one at a time in O(d̃) state regardless of the population size, and
//!   `merge` combines shards collected on different workers or machines;
//! - [`wire`] — a line-oriented, exact-round-trip text encoding for report
//!   types ([`WireReport`]), so reports can cross process boundaries and be
//!   replayed byte-identically. Report structs additionally carry `serde`
//!   derives for integration with the ecosystem formats;
//! - [`snapshot`] — durable aggregator state: the [`SnapshotState`]
//!   persistence contract every mechanism state implements, plus the
//!   versioned, fingerprint-checked snapshot container that collection
//!   services write for crash recovery and multi-shard merge (see the
//!   `ldp-collector` crate and `docs/OPERATIONS.md`).
//!
//! # Contract
//!
//! For every mechanism, the following invariants hold (and are enforced by
//! the workspace-level conformance suite in `tests/mechanism_conformance.rs`):
//!
//! 1. **Streaming = one-shot.** Pushing reports one at a time through an
//!    [`Aggregator`] and finalizing yields the bit-identical estimate to
//!    [`Mechanism::aggregate`] over the full report slice.
//! 2. **Merge = concatenation.** Splitting a report stream across shard
//!    aggregators and merging them yields the bit-identical estimate to a
//!    single aggregator over the concatenated stream (float-summing
//!    mechanisms achieve this through `ldp_numeric::ExactSum`).
//! 3. **Determinism.** Client randomization is a pure function of the
//!    mechanism configuration, the input, and the RNG stream.
//! 4. **Block = serial.** [`Mechanism::randomize_block`] (behind
//!    [`Client::randomize_batch`]) returns the reports, and leaves the
//!    generator where, one [`Mechanism::randomize`] call per input would.
//!
//! # Example
//!
//! ```
//! use ldp_core::{Aggregator, Client, Epsilon, Mechanism};
//! use ldp_numeric::SplitMix64;
//!
//! // A toy mechanism: identity reporting over a two-value domain.
//! #[derive(Clone)]
//! struct Echo;
//! impl Mechanism for Echo {
//!     type Input = usize;
//!     type Report = usize;
//!     type State = [u64; 2];
//!     type Output = Vec<f64>;
//!     fn epsilon(&self) -> Epsilon {
//!         Epsilon::new(f64::MAX).unwrap()
//!     }
//!     fn fingerprint(&self) -> u64 {
//!         0
//!     }
//!     fn randomize<R: rand::Rng + ?Sized>(
//!         &self,
//!         input: &usize,
//!         _rng: &mut R,
//!     ) -> Result<usize, ldp_core::CoreError> {
//!         Ok(*input & 1)
//!     }
//!     fn empty_state(&self) -> [u64; 2] {
//!         [0, 0]
//!     }
//!     fn absorb(&self, state: &mut [u64; 2], report: &usize) -> Result<(), ldp_core::CoreError> {
//!         state[*report] += 1;
//!         Ok(())
//!     }
//!     fn merge_state(&self, state: &mut [u64; 2], other: &[u64; 2]) -> Result<(), ldp_core::CoreError> {
//!         state[0] += other[0];
//!         state[1] += other[1];
//!         Ok(())
//!     }
//!     fn finalize(&self, state: &[u64; 2]) -> Result<Vec<f64>, ldp_core::CoreError> {
//!         let n = (state[0] + state[1]).max(1) as f64;
//!         Ok(vec![state[0] as f64 / n, state[1] as f64 / n])
//!     }
//! }
//!
//! let mech = Echo;
//! let client = Client::new(&mech);
//! let mut agg = Aggregator::new(mech.clone());
//! let mut rng = SplitMix64::new(7);
//! for v in 0..10usize {
//!     let report = client.randomize(&v, &mut rng).unwrap();
//!     agg.push(&report).unwrap();
//! }
//! assert_eq!(agg.count(), 10);
//! assert_eq!(agg.finalize().unwrap(), vec![0.5, 0.5]);
//! ```

#![forbid(unsafe_code)]
// `!(x > 0.0)` is used deliberately throughout: unlike `x <= 0.0` it is
// also true for NaN, which is exactly what the validators need to reject.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod error;
pub mod mechanism;
pub mod params;
pub mod snapshot;
pub mod wire;

pub use error::CoreError;
pub use mechanism::{randomize_serial, Aggregator, Client, Mechanism};
pub use params::{Domain, Epsilon};
pub use snapshot::{
    decode_snapshot, decode_snapshot_with_sessions, encode_snapshot, encode_snapshot_with_sessions,
    valid_session_id, SessionCursors, SnapshotHeader, SnapshotState,
};
pub use wire::{decode_lines, encode_lines, WireReport};
