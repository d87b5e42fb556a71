//! Shared, immutable message payloads.
//!
//! The eager engine cloned every payload once per recipient, so one broadcast at
//! `n = 256` cost 256 payload clones (and 256 dedup hashes) before a single node
//! stepped. [`Shared<P>`] is the zero-copy alternative threaded through the whole
//! message plane: a thin reference-counted handle over an immutable payload that
//!
//! * allocates the payload **exactly once** — [`Shared::new`] and, for a caller
//!   that already hashed the payload, the crate-private `Shared::with_digest` are
//!   the only places a payload is ever materialised, and they bump a
//!   process-wide counter that tests assert against ([`allocations`]). Equal
//!   correct broadcasts of one round share one handle
//!   ([`RoundTraffic::push_broadcast`](crate::RoundTraffic::push_broadcast)
//!   hash-conses them), so a round costs one allocation per distinct payload,
//!   honest and Byzantine alike — on the benchmark's `stream-total-order`, 13,475
//!   allocations for 202,280 broadcasts, and a live peak of 274 handles where it
//!   was 578;
//! * carries a **cached digest** — the same 64-bit value the engine's dedup set
//!   used to recompute per delivery is now computed once per allocation
//!   ([`Shared::digest`]), so delivering a broadcast to `k` recipients hashes the
//!   payload once, not `k` times;
//! * compares and hashes **by value**, so inboxes, dedup fallbacks and recorded
//!   traces behave exactly as if they stored owned payloads;
//! * is **immutable once allocated**: forwarding a handle ([`Clone`]) is a
//!   reference-count bump and there is no way to edit a payload behind one, so
//!   a changed payload is always a fresh [`Shared::new`] — one allocation per
//!   distinct fabrication. Sharing one handle between equal payloads assumes
//!   what the dedup set already does: a payload's `PartialEq` is content
//!   identity.
//!
//! The handle is an [`Arc`], so it is `Send + Sync` (for a payload that is) and
//! anything that holds one — a recorded trace, a node, a whole engine — can
//! leave the thread that built it. The engine itself steps on one thread, but an
//! `Rc` would have nothing to save: a handle is cloned once per *entry held* — a
//! broadcast's one entry on the round's common list, a write-ahead record — not
//! once per delivery, and a node reads its inbox through a borrowed
//! [`Inbox`](crate::Inbox) view that clones no handle at all.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Error, Serialize, Value};

/// Process-wide count of payload allocations (see [`allocations`]).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of payload deallocations (see [`live_allocations`]).
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);

#[cfg(test)]
thread_local! {
    /// Payload allocations made by the current thread (see
    /// [`thread_allocations`]).
    static THREAD_ALLOCATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Payloads allocated by the *current thread* so far. Unit tests run on
/// sibling threads of one process, so a test that diffs the process-wide
/// [`allocations`] counts its siblings' payloads too; the exact-count tests
/// diff this instead.
#[cfg(test)]
pub(crate) fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(std::cell::Cell::get)
}

/// The digest the dedup set keys on: identical to hashing the payload through
/// `DefaultHasher` directly, so executions are bit-for-bit identical to the
/// engine that hashed per delivery.
fn digest_of<P: Hash>(value: &P) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// The digest a payload *would* carry if wrapped into a [`Shared`] handle —
/// the same `DefaultHasher` stream [`Shared::new`] caches. The WAL replay path
/// uses this to audit re-produced messages against logged `Sent` digests
/// without allocating a handle per replayed message.
pub fn payload_digest<P: Hash>(value: &P) -> u64 {
    digest_of(value)
}

struct SharedInner<P> {
    digest: u64,
    value: P,
}

impl<P> Drop for SharedInner<P> {
    /// Counts the drop of the allocation (the inner value drops when the last
    /// handle goes away), so [`live_allocations`] can report a gauge.
    fn drop(&mut self) {
        DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// A reference-counted, immutable payload handle (see module docs).
///
/// `Shared<P>` derefs to `P`, compares/hashes by value, and passes through serde
/// transparently, so it can replace `P` in any receive-side position without
/// changing observable behaviour — only the allocation profile.
pub struct Shared<P>(Arc<SharedInner<P>>);

impl<P: Hash> Shared<P> {
    /// Wraps a payload, computing its dedup digest once. Every call is one
    /// payload allocation, counted in [`allocations`].
    pub fn new(value: P) -> Self {
        let digest = digest_of(&value);
        Shared::with_digest(value, digest)
    }
}

impl<P> Shared<P> {
    /// Wraps a payload whose digest the caller already computed with
    /// [`payload_digest`] — the traffic plane hashes a broadcast once to look
    /// it up among the round's payloads, and allocates with that digest on a
    /// miss. With [`Shared::new`] the one place a payload is materialised.
    pub(crate) fn with_digest(value: P, digest: u64) -> Self {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        #[cfg(test)]
        THREAD_ALLOCATIONS.with(|count| count.set(count.get() + 1));
        Shared(Arc::new(SharedInner { digest, value }))
    }

    /// The wrapped payload.
    pub fn get(&self) -> &P {
        &self.0.value
    }

    /// The payload's 64-bit digest, cached at allocation.
    pub fn digest(&self) -> u64 {
        self.0.digest
    }

    /// Whether two handles point at the *same* payload in memory — the
    /// zero-copy witness: a forwarded or fan-out-delivered payload keeps its
    /// pointer.
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        std::ptr::eq(a.get(), b.get())
    }

    /// The payload's address, as an opaque token. Distinct live handles with
    /// equal tokens share one payload in memory; tests use this to prove a
    /// delivery fan-out did not silently re-materialise payloads.
    pub fn token(&self) -> usize {
        self.get() as *const P as usize
    }
}

/// Total payloads allocated by this process so far (monotone counter, bumped by
/// every [`Shared::new`]). Subtract two readings to measure the allocations of a
/// code region — the allocation-counting tests assert a broadcast round costs
/// O(#broadcasts), not O(n · #broadcasts).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Total payload allocations already dropped by this process (monotone
/// counter, bumped when the last handle of an allocation goes away).
pub fn deallocations() -> u64 {
    DEALLOCATIONS.load(Ordering::Relaxed)
}

/// Payload allocations currently alive: [`allocations`] minus
/// [`deallocations`]. This is the RSS proxy the soak driver samples per round
/// to detect monotone growth — a leak shows up here long before wall-clock
/// memory measurements would notice it.
pub fn live_allocations() -> u64 {
    allocations().saturating_sub(deallocations())
}

impl<P> Clone for Shared<P> {
    /// A reference-count bump — never a payload clone.
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

impl<P> std::ops::Deref for Shared<P> {
    type Target = P;

    fn deref(&self) -> &P {
        self.get()
    }
}

impl<P> AsRef<P> for Shared<P> {
    fn as_ref(&self) -> &P {
        self.get()
    }
}

impl<P: Hash> From<P> for Shared<P> {
    fn from(value: P) -> Self {
        Shared::new(value)
    }
}

impl<P: fmt::Debug> fmt::Debug for Shared<P> {
    /// Transparent: renders exactly like the wrapped payload, so debug output
    /// recorded in reports is unchanged.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

impl<P: PartialEq> PartialEq for Shared<P> {
    fn eq(&self, other: &Self) -> bool {
        self.get() == other.get()
    }
}

impl<P: Eq> Eq for Shared<P> {}

/// Compare a handle directly against a payload value (`envelope.payload == X`).
impl<P: PartialEq> PartialEq<P> for Shared<P> {
    fn eq(&self, other: &P) -> bool {
        *self.get() == *other
    }
}

impl<P: Hash> Hash for Shared<P> {
    /// By value, consistent with `Eq` (the cached digest is an engine-internal
    /// fast path, not the `Hash` impl).
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.get().hash(state);
    }
}

impl<P: Serialize> Serialize for Shared<P> {
    fn to_value(&self) -> Value {
        self.get().to_value()
    }
}

impl<P: Deserialize + Hash> Deserialize for Shared<P> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        P::from_value(value).map(Shared::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_allocation() {
        let before = thread_allocations();
        let a = Shared::new(vec![1u32, 2, 3]);
        let b = a.clone();
        assert_eq!(
            thread_allocations() - before,
            1,
            "one allocation, two handles"
        );
        assert!(Shared::ptr_eq(&a, &b));
        assert_eq!(a.token(), b.token());
        assert_eq!(a, b);
        assert_eq!(*a, vec![1, 2, 3]);
    }

    #[test]
    fn digest_matches_default_hasher() {
        let payload = ("hello", 42u64);
        let shared = Shared::new(payload);
        assert_eq!(shared.digest(), digest_of(&payload));
        // Hash-by-value: a map keyed on Shared behaves like one keyed on P.
        let direct = digest_of(&payload);
        let via_handle = digest_of(&shared);
        assert_eq!(direct, via_handle);
    }

    #[test]
    fn equality_is_by_value_across_allocations() {
        let a = Shared::new(7u64);
        let b = Shared::new(7u64);
        assert_eq!(a, b);
        assert!(!Shared::ptr_eq(&a, &b));
        assert_eq!(a, 7u64, "direct payload comparison");
        assert_ne!(a, Shared::new(8u64));
    }

    #[test]
    fn serde_passes_through_transparently() {
        let shared = Shared::new(vec![1u64, 2, 3]);
        let value = Serialize::to_value(&shared);
        assert_eq!(value, Serialize::to_value(&vec![1u64, 2, 3]));
        let back: Shared<Vec<u64>> = Deserialize::from_value(&value).unwrap();
        assert_eq!(back, shared);
        assert_eq!(back.digest(), shared.digest());
    }

    #[test]
    fn debug_renders_the_payload_only() {
        assert_eq!(format!("{:?}", Shared::new(5u8)), "5");
    }

    #[test]
    fn payload_digest_matches_the_cached_digest() {
        let payload = vec![1u64, 2, 3];
        assert_eq!(payload_digest(&payload), Shared::new(payload).digest());
    }

    #[test]
    fn dropping_the_last_handle_counts_a_deallocation() {
        // Other tests allocate and drop concurrently, so only lower bounds are
        // assertable against the process-global counters.
        let dropped_before = deallocations();
        let handles: Vec<Shared<u64>> = (0..10).map(Shared::new).collect();
        let clones = handles.clone();
        drop(handles);
        drop(clones);
        assert!(
            deallocations() - dropped_before >= 10,
            "the last handles freed the allocations"
        );
        assert!(allocations() >= deallocations() || live_allocations() == 0);
    }

    /// Seeded property sweeps (the workspace's stand-in for proptest): over
    /// hundreds of arbitrary payloads, a `Shared<P>` must be observably
    /// indistinguishable from the `P` it wraps.
    mod properties {
        use super::*;
        use crate::rng::seeded_rng;
        use rand::RngCore;

        /// An arbitrary structured payload: length, content and value range all
        /// drawn from the stream.
        fn arbitrary_payload(rng: &mut impl RngCore) -> Vec<u64> {
            let len = (rng.next_u64() % 9) as usize;
            (0..len).map(|_| rng.next_u64() % 1000).collect()
        }

        #[test]
        fn eq_and_hash_agree_with_the_underlying_value() {
            let mut rng = seeded_rng(0xEC0);
            for _ in 0..256 {
                let payload = arbitrary_payload(&mut rng);
                let a = Shared::new(payload.clone());
                let b = Shared::new(payload.clone());
                // Value semantics: equal to the payload, equal across distinct
                // allocations of it, and `Hash` consistent with `Eq` (same
                // `DefaultHasher` stream as hashing the payload directly).
                assert_eq!(a, payload);
                assert_eq!(a, b);
                assert!(!Shared::ptr_eq(&a, &b));
                assert_eq!(digest_of(&a), digest_of(&payload));
                assert_eq!(digest_of(&a), digest_of(&b));
                // A perturbed payload disagrees on eq (and, for a digest this
                // wide, on hash).
                let mut other = payload.clone();
                other.push(31_337);
                assert_ne!(a, Shared::new(other.clone()));
                assert_ne!(digest_of(&a), digest_of(&other));
            }
        }

        #[test]
        fn digest_is_stable_across_clones() {
            let mut rng = seeded_rng(0xD16);
            for _ in 0..256 {
                let payload = arbitrary_payload(&mut rng);
                let handle = Shared::new(payload.clone());
                let expected = digest_of(&payload);
                assert_eq!(handle.digest(), expected, "computed once, at allocation");
                let fanned: Vec<Shared<Vec<u64>>> = (0..4).map(|_| handle.clone()).collect();
                for clone in &fanned {
                    assert_eq!(clone.digest(), expected, "clones share the cache");
                    assert!(
                        Shared::ptr_eq(clone, &handle),
                        "…because they share the allocation"
                    );
                }
                drop(handle);
                assert_eq!(fanned[0].digest(), expected, "survives the original handle");
            }
        }

        #[test]
        fn serde_round_trips() {
            let mut rng = seeded_rng(0x5ED);
            for _ in 0..256 {
                let payload = arbitrary_payload(&mut rng);
                let handle = Shared::new(payload.clone());
                let value = Serialize::to_value(&handle);
                assert_eq!(
                    value,
                    Serialize::to_value(&payload),
                    "the wire form is the payload's, not a wrapper's"
                );
                let back: Shared<Vec<u64>> = Deserialize::from_value(&value).unwrap();
                assert_eq!(back, handle);
                assert_eq!(
                    back.digest(),
                    handle.digest(),
                    "the digest is recomputed identically"
                );
            }
        }
    }
}
