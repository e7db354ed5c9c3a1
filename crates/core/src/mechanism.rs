//! The [`Mechanism`] trait and the [`Client`]/[`Aggregator`] deployment
//! split.
//!
//! A mechanism is the full description of one ε-LDP protocol: how a client
//! perturbs a private input into a wire [`Mechanism::Report`], and how an
//! untrusted server folds reports into a bounded-size streaming
//! [`Mechanism::State`] and finalizes an estimate. The state is the only
//! server-side memory — O(d̃) for every protocol in this workspace — so a
//! collector never holds the report stream, and shards collected on
//! different workers or machines combine with [`Mechanism::merge_state`].

use crate::error::CoreError;
use crate::params::Epsilon;
use rand::Rng;

/// One ε-LDP protocol: client-side randomization plus server-side
/// streaming aggregation.
///
/// The contract (enforced by the workspace conformance suite):
///
/// - estimates obtained by absorbing reports one at a time equal the
///   one-shot [`Mechanism::aggregate`] bit for bit;
/// - merging shard states equals absorbing the concatenated stream;
/// - randomization is deterministic given the RNG stream.
pub trait Mechanism {
    /// The client's private input (e.g. `f64` in `[0, 1]`, a bucket index).
    type Input: ?Sized;
    /// What one user sends to the aggregator (the wire format).
    type Report;
    /// The server-side streaming accumulator state.
    type State: Clone;
    /// The final server-side estimate.
    type Output;

    /// The privacy budget the randomizer satisfies.
    fn epsilon(&self) -> Epsilon;

    /// A stable fingerprint of the mechanism configuration; two aggregator
    /// shards merge only if their fingerprints agree. Build it with
    /// [`crate::params::fingerprint_fields`].
    fn fingerprint(&self) -> u64;

    /// Client side: perturbs one private input into a wire report.
    fn randomize<R: Rng + ?Sized>(
        &self,
        input: &Self::Input,
        rng: &mut R,
    ) -> Result<Self::Report, CoreError>;

    /// A fresh, empty accumulator state for this configuration.
    fn empty_state(&self) -> Self::State;

    /// Absorbs one report into the state. Malformed reports — ones this
    /// mechanism could not have produced — are rejected so a faulty client
    /// cannot silently skew the estimate.
    fn absorb(&self, state: &mut Self::State, report: &Self::Report) -> Result<(), CoreError>;

    /// Bulk ingestion; mechanisms may override with a vectorized path.
    /// On error the state may have absorbed a prefix of the slice; callers
    /// that need all-or-nothing semantics should validate first or discard
    /// the state on failure (which is what [`Aggregator::push_slice`] does).
    fn absorb_slice(
        &self,
        state: &mut Self::State,
        reports: &[Self::Report],
    ) -> Result<(), CoreError> {
        for report in reports {
            self.absorb(state, report)?;
        }
        Ok(())
    }

    /// Folds another shard's state into `state`. Implementations must
    /// reject dimension mismatches.
    fn merge_state(&self, state: &mut Self::State, other: &Self::State) -> Result<(), CoreError>;

    /// Turns the accumulated state into the final estimate.
    fn finalize(&self, state: &Self::State) -> Result<Self::Output, CoreError>;

    /// One-shot server side: absorbs every report into a fresh state and
    /// finalizes. By construction this is the same code path as streaming
    /// ingestion, which is what makes the streaming-equals-one-shot
    /// guarantee structural rather than incidental.
    fn aggregate(&self, reports: &[Self::Report]) -> Result<Self::Output, CoreError>
    where
        Self: Sized,
    {
        let mut state = self.empty_state();
        self.absorb_slice(&mut state, reports)?;
        self.finalize(&state)
    }
}

/// Forwarding impl so borrowed mechanisms plug into [`Client`] and
/// [`Aggregator`] without cloning.
impl<M: Mechanism + ?Sized> Mechanism for &M {
    type Input = M::Input;
    type Report = M::Report;
    type State = M::State;
    type Output = M::Output;

    fn epsilon(&self) -> Epsilon {
        (**self).epsilon()
    }

    fn fingerprint(&self) -> u64 {
        (**self).fingerprint()
    }

    fn randomize<R: Rng + ?Sized>(
        &self,
        input: &Self::Input,
        rng: &mut R,
    ) -> Result<Self::Report, CoreError> {
        (**self).randomize(input, rng)
    }

    fn empty_state(&self) -> Self::State {
        (**self).empty_state()
    }

    fn absorb(&self, state: &mut Self::State, report: &Self::Report) -> Result<(), CoreError> {
        (**self).absorb(state, report)
    }

    fn absorb_slice(
        &self,
        state: &mut Self::State,
        reports: &[Self::Report],
    ) -> Result<(), CoreError> {
        (**self).absorb_slice(state, reports)
    }

    fn merge_state(&self, state: &mut Self::State, other: &Self::State) -> Result<(), CoreError> {
        (**self).merge_state(state, other)
    }

    fn finalize(&self, state: &Self::State) -> Result<Self::Output, CoreError> {
        (**self).finalize(state)
    }
}

/// The client side of a deployment: borrows a mechanism configuration and
/// perturbs private inputs on the user's device. Only the reports it
/// returns ever leave the device.
///
/// # Examples
///
/// ```
/// # use ldp_core::{Client, CoreError, Epsilon, Mechanism};
/// # use ldp_numeric::SplitMix64;
/// # #[derive(Clone)]
/// # struct Coin;
/// # impl Mechanism for Coin {
/// #     type Input = bool;
/// #     type Report = bool;
/// #     type State = [u64; 2];
/// #     type Output = f64;
/// #     fn epsilon(&self) -> Epsilon { Epsilon::new(1.0).unwrap() }
/// #     fn fingerprint(&self) -> u64 { 0xC0 }
/// #     fn randomize<R: rand::Rng + ?Sized>(&self, b: &bool, rng: &mut R)
/// #         -> Result<bool, CoreError> {
/// #         Ok(if rng.gen::<bool>() { *b } else { rng.gen() })
/// #     }
/// #     fn empty_state(&self) -> [u64; 2] { [0, 0] }
/// #     fn absorb(&self, s: &mut [u64; 2], r: &bool) -> Result<(), CoreError> {
/// #         s[usize::from(*r)] += 1;
/// #         Ok(())
/// #     }
/// #     fn merge_state(&self, s: &mut [u64; 2], o: &[u64; 2]) -> Result<(), CoreError> {
/// #         s[0] += o[0]; s[1] += o[1];
/// #         Ok(())
/// #     }
/// #     fn finalize(&self, s: &[u64; 2]) -> Result<f64, CoreError> {
/// #         Ok(s[1] as f64 / (s[0] + s[1]).max(1) as f64)
/// #     }
/// # }
/// let mechanism = Coin; // any Mechanism impl
/// let client = Client::new(&mechanism);
/// let mut rng = SplitMix64::new(7);
///
/// // One value in, one wire report out — deterministic given the RNG
/// // stream, and the only thing that ever leaves the device.
/// let report = client.randomize(&true, &mut rng).unwrap();
/// let batch = client.randomize_batch(&[true, false, true], &mut rng).unwrap();
/// assert_eq!(batch.len(), 3);
/// # let _ = report;
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Client<'a, M: Mechanism> {
    mechanism: &'a M,
}

impl<'a, M: Mechanism> Client<'a, M> {
    /// A client for `mechanism`.
    #[must_use]
    pub fn new(mechanism: &'a M) -> Self {
        Client { mechanism }
    }

    /// The mechanism configuration in use.
    #[must_use]
    pub fn mechanism(&self) -> &'a M {
        self.mechanism
    }

    /// Perturbs one private input.
    pub fn randomize<R: Rng + ?Sized>(
        &self,
        input: &M::Input,
        rng: &mut R,
    ) -> Result<M::Report, CoreError> {
        self.mechanism.randomize(input, rng)
    }

    /// Perturbs a batch of inputs with one sequential RNG stream.
    pub fn randomize_batch<R: Rng + ?Sized>(
        &self,
        inputs: &[M::Input],
        rng: &mut R,
    ) -> Result<Vec<M::Report>, CoreError>
    where
        M::Input: Sized,
    {
        let mut reports = Vec::with_capacity(inputs.len());
        for input in inputs {
            reports.push(self.mechanism.randomize(input, rng)?);
        }
        Ok(reports)
    }
}

/// The server side of a deployment: a streaming accumulator over one
/// mechanism configuration.
///
/// Memory is O(state), never O(reports): collectors [`Aggregator::push`]
/// reports as they arrive, periodically [`Aggregator::merge`] shard
/// aggregators (e.g. one per `ldp-pool` worker), and
/// [`Aggregator::finalize`] once at the end of the collection window.
///
/// # Examples
///
/// Streaming ingestion on two shards, merged, equals one pass:
///
/// ```
/// # use ldp_core::{Aggregator, Client, CoreError, Epsilon, Mechanism};
/// # use ldp_numeric::SplitMix64;
/// # #[derive(Clone)]
/// # struct Coin;
/// # impl Mechanism for Coin {
/// #     type Input = bool;
/// #     type Report = bool;
/// #     type State = [u64; 2];
/// #     type Output = f64;
/// #     fn epsilon(&self) -> Epsilon { Epsilon::new(1.0).unwrap() }
/// #     fn fingerprint(&self) -> u64 { 0xC0 }
/// #     fn randomize<R: rand::Rng + ?Sized>(&self, b: &bool, rng: &mut R)
/// #         -> Result<bool, CoreError> {
/// #         Ok(if rng.gen::<bool>() { *b } else { rng.gen() })
/// #     }
/// #     fn empty_state(&self) -> [u64; 2] { [0, 0] }
/// #     fn absorb(&self, s: &mut [u64; 2], r: &bool) -> Result<(), CoreError> {
/// #         s[usize::from(*r)] += 1;
/// #         Ok(())
/// #     }
/// #     fn merge_state(&self, s: &mut [u64; 2], o: &[u64; 2]) -> Result<(), CoreError> {
/// #         s[0] += o[0]; s[1] += o[1];
/// #         Ok(())
/// #     }
/// #     fn finalize(&self, s: &[u64; 2]) -> Result<f64, CoreError> {
/// #         Ok(s[1] as f64 / (s[0] + s[1]).max(1) as f64)
/// #     }
/// # }
/// let mechanism = Coin; // any Mechanism impl
/// let client = Client::new(&mechanism);
/// let mut rng = SplitMix64::new(7);
/// let reports = client
///     .randomize_batch(&[true, false, true, true], &mut rng)
///     .unwrap();
///
/// // Two collectors each hold O(state), not O(reports)…
/// let mut shard_a = Aggregator::new(&mechanism);
/// let mut shard_b = Aggregator::new(&mechanism);
/// shard_a.push_slice(&reports[..2]).unwrap();
/// shard_b.push_slice(&reports[2..]).unwrap();
///
/// // …and merge exactly: same estimate as one aggregator over all four.
/// shard_a.merge(&shard_b).unwrap();
/// assert_eq!(shard_a.count(), 4);
/// let mut single = Aggregator::new(&mechanism);
/// single.push_slice(&reports).unwrap();
/// assert_eq!(
///     shard_a.finalize().unwrap().to_bits(),
///     single.finalize().unwrap().to_bits(),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Aggregator<M: Mechanism> {
    mechanism: M,
    state: M::State,
    count: u64,
}

impl<M: Mechanism> Aggregator<M> {
    /// An empty aggregator for `mechanism`.
    #[must_use]
    pub fn new(mechanism: M) -> Self {
        let state = mechanism.empty_state();
        Aggregator {
            mechanism,
            state,
            count: 0,
        }
    }

    /// Reassembles an aggregator from a previously exported state (e.g. a
    /// shard produced by a batched collection path); `count` is the number
    /// of reports the state has absorbed.
    #[must_use]
    pub fn from_parts(mechanism: M, state: M::State, count: u64) -> Self {
        Aggregator {
            mechanism,
            state,
            count,
        }
    }

    /// The mechanism configuration in use.
    #[must_use]
    pub fn mechanism(&self) -> &M {
        &self.mechanism
    }

    /// The raw accumulator state (for persistence or transport).
    #[must_use]
    pub fn state(&self) -> &M::State {
        &self.state
    }

    /// Number of reports absorbed so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether any report has been absorbed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Absorbs one wire report.
    pub fn push(&mut self, report: &M::Report) -> Result<(), CoreError> {
        self.mechanism.absorb(&mut self.state, report)?;
        self.count += 1;
        Ok(())
    }

    /// Bulk ingestion: absorbs every report in `reports`, or absorbs
    /// nothing if any report is malformed (the state is restored on error).
    pub fn push_slice(&mut self, reports: &[M::Report]) -> Result<(), CoreError> {
        let checkpoint = self.state.clone();
        match self.mechanism.absorb_slice(&mut self.state, reports) {
            Ok(()) => {
                self.count += reports.len() as u64;
                Ok(())
            }
            Err(e) => {
                self.state = checkpoint;
                Err(e)
            }
        }
    }

    /// Pool-sharded bulk ingestion: splits `reports` into `shards`
    /// contiguous chunks in index order, absorbs each chunk into a private
    /// state on the shared worker pool ([`ldp_pool::global`]), then folds
    /// the shard states back in ascending index order through the same
    /// fingerprint-checked [`Aggregator::merge`] machinery the collector
    /// uses. Because every family's `merge_state` is exact (integer counts
    /// or [`ldp_numeric::ExactSum`] expansions), the result is
    /// **bit-identical** to [`Aggregator::push_slice`] for any shard count
    /// and any pool size — the workspace `pool_determinism` suite pins
    /// this for every mechanism family. Like `push_slice`, absorbs
    /// nothing if any report is malformed.
    ///
    /// # Errors
    /// Any shard's absorb error (the first in index order) is returned,
    /// as is a worker-pool failure; `self` is unchanged on error.
    pub fn push_slice_sharded(
        &mut self,
        reports: &[M::Report],
        shards: usize,
    ) -> Result<(), CoreError>
    where
        M: Sync,
        M::Report: Sync,
        M::State: Send,
    {
        if reports.is_empty() {
            return Ok(());
        }
        if shards == 0 {
            return Err(CoreError::Aggregation(
                "pooled absorb requires at least one shard".into(),
            ));
        }
        let chunk = reports.len().div_ceil(shards).max(1);
        let chunks: Vec<&[M::Report]> = reports.chunks(chunk).collect();
        let mechanism = &self.mechanism;
        let results = ldp_pool::global()
            .run(chunks.len(), |i| {
                let mut state = mechanism.empty_state();
                mechanism
                    .absorb_slice(&mut state, chunks[i])
                    .map(|()| state)
            })
            .map_err(|e| CoreError::Aggregation(format!("worker pool failure: {e}")))?;
        // Surface the first absorb error in index order, all-or-nothing.
        let mut states = Vec::with_capacity(results.len());
        for result in results {
            states.push(result?);
        }
        let mut shard_aggs = chunks
            .iter()
            .zip(states)
            .map(|(c, state)| Aggregator::from_parts(mechanism, state, c.len() as u64));
        let mut merged = shard_aggs.next().expect("at least one shard");
        for shard in shard_aggs {
            merged.merge(&shard)?;
        }
        let checkpoint = self.state.clone();
        match mechanism.merge_state(&mut self.state, merged.state()) {
            Ok(()) => {
                self.count += merged.count();
                Ok(())
            }
            Err(e) => {
                self.state = checkpoint;
                Err(e)
            }
        }
    }

    /// Merges another shard collected for the same configuration.
    pub fn merge(&mut self, other: &Aggregator<M>) -> Result<(), CoreError> {
        if self.mechanism.fingerprint() != other.mechanism.fingerprint() {
            return Err(CoreError::ShardMismatch(
                "aggregators were built for different mechanism configurations".into(),
            ));
        }
        self.mechanism.merge_state(&mut self.state, &other.state)?;
        self.count += other.count;
        Ok(())
    }

    /// The final estimate over everything absorbed so far. Does not consume
    /// the aggregator: collection windows can snapshot an estimate and keep
    /// streaming.
    pub fn finalize(&self) -> Result<M::Output, CoreError> {
        self.mechanism.finalize(&self.state)
    }

    /// Decomposes into the mechanism, state, and report count.
    #[must_use]
    pub fn into_parts(self) -> (M, M::State, u64) {
        (self.mechanism, self.state, self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::fingerprint_fields;
    use ldp_numeric::SplitMix64;

    /// A deliberately stateful test mechanism: counts reports per bucket.
    #[derive(Debug, Clone)]
    struct Toy {
        buckets: usize,
    }

    impl Mechanism for Toy {
        type Input = usize;
        type Report = usize;
        type State = Vec<u64>;
        type Output = Vec<f64>;

        fn epsilon(&self) -> Epsilon {
            Epsilon::new(1.0).unwrap()
        }

        fn fingerprint(&self) -> u64 {
            fingerprint_fields(0x70, &[self.buckets as u64])
        }

        fn randomize<R: Rng + ?Sized>(
            &self,
            input: &usize,
            rng: &mut R,
        ) -> Result<usize, CoreError> {
            if *input >= self.buckets {
                return Err(CoreError::InvalidInput(format!("{input}")));
            }
            // Flip to a uniform bucket half the time.
            Ok(if rng.gen::<bool>() {
                *input
            } else {
                rng.gen_range(0..self.buckets)
            })
        }

        fn empty_state(&self) -> Vec<u64> {
            vec![0; self.buckets]
        }

        fn absorb(&self, state: &mut Vec<u64>, report: &usize) -> Result<(), CoreError> {
            if *report >= self.buckets {
                return Err(CoreError::InvalidReport(format!("{report}")));
            }
            state[*report] += 1;
            Ok(())
        }

        fn merge_state(&self, state: &mut Vec<u64>, other: &Vec<u64>) -> Result<(), CoreError> {
            if state.len() != other.len() {
                return Err(CoreError::ShardMismatch("bucket counts differ".into()));
            }
            for (a, b) in state.iter_mut().zip(other) {
                *a += b;
            }
            Ok(())
        }

        fn finalize(&self, state: &Vec<u64>) -> Result<Vec<f64>, CoreError> {
            let n = state.iter().sum::<u64>().max(1) as f64;
            Ok(state.iter().map(|&c| c as f64 / n).collect())
        }
    }

    fn reports(n: usize, seed: u64) -> (Toy, Vec<usize>) {
        let mech = Toy { buckets: 4 };
        let client = Client::new(&mech);
        let mut rng = SplitMix64::new(seed);
        let inputs: Vec<usize> = (0..n).map(|i| i % 4).collect();
        let reports = client.randomize_batch(&inputs, &mut rng).unwrap();
        (mech, reports)
    }

    #[test]
    fn streaming_equals_one_shot() {
        let (mech, reports) = reports(500, 1);
        let one_shot = mech.aggregate(&reports).unwrap();
        let mut agg = Aggregator::new(mech);
        for r in &reports {
            agg.push(r).unwrap();
        }
        assert_eq!(agg.count(), 500);
        assert_eq!(agg.finalize().unwrap(), one_shot);
    }

    #[test]
    fn merged_shards_equal_concatenation() {
        let (mech, reports) = reports(401, 2);
        let one_shot = mech.aggregate(&reports).unwrap();
        for split in [0, 1, 200, 400, 401] {
            let mut a = Aggregator::new(mech.clone());
            a.push_slice(&reports[..split]).unwrap();
            let mut b = Aggregator::new(mech.clone());
            b.push_slice(&reports[split..]).unwrap();
            a.merge(&b).unwrap();
            assert_eq!(a.count(), 401);
            assert_eq!(a.finalize().unwrap(), one_shot, "split at {split}");
        }
    }

    #[test]
    fn merge_rejects_mismatched_configurations() {
        let a = Aggregator::new(Toy { buckets: 4 });
        let mut b = Aggregator::new(Toy { buckets: 8 });
        assert!(matches!(b.merge(&a), Err(CoreError::ShardMismatch(_))));
    }

    #[test]
    fn push_slice_is_all_or_nothing() {
        let mech = Toy { buckets: 4 };
        let mut agg = Aggregator::new(mech);
        let err = agg.push_slice(&[0, 1, 9, 2]).unwrap_err();
        assert!(matches!(err, CoreError::InvalidReport(_)));
        assert_eq!(agg.count(), 0);
        assert!(agg.is_empty());
        assert_eq!(
            agg.state(),
            &vec![0; 4],
            "failed bulk ingest must not mutate"
        );
    }

    #[test]
    fn from_parts_round_trips() {
        let (mech, reports) = reports(64, 3);
        let mut agg = Aggregator::new(mech);
        agg.push_slice(&reports).unwrap();
        let expected = agg.finalize().unwrap();
        let (mech, state, count) = agg.into_parts();
        let rebuilt = Aggregator::from_parts(mech, state, count);
        assert_eq!(rebuilt.count(), 64);
        assert_eq!(rebuilt.finalize().unwrap(), expected);
    }

    #[test]
    fn borrowed_mechanism_works_through_forwarding_impl() {
        let mech = Toy { buckets: 4 };
        let mut agg = Aggregator::new(&mech);
        let client = Client::new(&mech);
        let mut rng = SplitMix64::new(5);
        let r = client.randomize(&2, &mut rng).unwrap();
        agg.push(&r).unwrap();
        assert_eq!(agg.count(), 1);
        assert_eq!(agg.mechanism().fingerprint(), mech.fingerprint());
    }

    #[test]
    fn client_rejects_out_of_domain_input() {
        let mech = Toy { buckets: 4 };
        let client = Client::new(&mech);
        let mut rng = SplitMix64::new(6);
        assert!(client.randomize(&4, &mut rng).is_err());
    }
}
