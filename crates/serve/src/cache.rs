//! The operator/session cache: byte-bounded LRU over built MCMC
//! preconditioners, keyed by [`Csr::fingerprint`], with *negative* entries
//! for operators whose safeguarded build diverged.
//!
//! The build is the expensive step the whole paper exists to amortise, so
//! the cache is the daemon's economics: a repeat fingerprint skips the
//! MCMC walks entirely and goes straight to a reusable
//! [`SolveSession`] (whose workspaces are themselves cached per solver
//! options). Poison operators — ones the safeguard rejected after its full
//! backoff ladder — are remembered too: replaying the recorded
//! [`BuildError`] costs nothing, where re-discovering it would re-burn
//! every probe attempt on every retry of a hopeless request.
//!
//! Eviction is least-recently-used over an explicit byte budget (matrix +
//! preconditioner storage), so a long-lived daemon facing an unbounded
//! stream of distinct operators stays inside a fixed footprint. An entry
//! holds the one copy of its operator and preconditioner; the sessions it
//! hands out share them, so the bytes charged are the bytes resident (the
//! symmetrised form a first CG-family request has made is charged then,
//! through [`OperatorCache::charge`]).
//! In-flight solves hold `Arc`s to both, so eviction never invalidates a
//! running solve — the memory is reclaimed when the last user drops it.

use crate::queue::GroupKey;
use crate::sync::lock_unpoisoned;
use mcmcmi_krylov::{SolveOptions, SolveSession, SolverType, SparsePrecond};
use mcmcmi_mcmc::{BuildAttempt, BuildError, McmcParams};
use mcmcmi_sparse::{Csr, SpecializedBackend};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Nominal bytes charged for a poisoned (negative) entry: the error trail
/// is tiny, but charging something keeps the accounting honest.
const POISON_ENTRY_BYTES: usize = 512;

/// The session type the cache pools: bound to an entry's shared operator
/// and preconditioner.
pub type PooledSession = SolveSession<Arc<SparsePrecond>>;

/// A successfully built operator: matrix, preconditioner, provenance, and
/// the per-solver-options session pool.
pub struct OperatorEntry {
    /// The operator, its structure detected once, when the entry is made.
    pub operator: Arc<SpecializedBackend>,
    /// The accepted MCMC approximate inverse.
    pub precond: Arc<SparsePrecond>,
    /// Effective build parameters (α reflects any safeguard backoff).
    pub params: McmcParams,
    /// The safeguard's attempt trail for the accepted build.
    pub attempts: Vec<BuildAttempt>,
    /// `ρ(|C|)` estimate of the accepted splitting.
    pub rho_estimate: f64,
    /// Bytes this entry is charged against the cache budget on insertion:
    /// the storage of `operator` and `precond`, which every session shares.
    pub bytes: usize,
    /// One warm session per solver-options key. Sessions are *taken* for
    /// the duration of a solve (so the entry mutex is never held across
    /// iteration work) and returned afterwards with their workspaces grown.
    sessions: Mutex<HashMap<GroupKey, PooledSession>>,
    /// The form of `precond` each solver seen so far is bound to
    /// ([`SparsePrecond::for_solver`], asked once per solver): `precond`
    /// itself, or the one other copy made, which its sessions share.
    forms: Mutex<HashMap<SolverType, Arc<SparsePrecond>>>,
}

impl OperatorEntry {
    /// Wrap a built operator.
    pub fn new(
        matrix: Csr,
        precond: SparsePrecond,
        params: McmcParams,
        attempts: Vec<BuildAttempt>,
        rho_estimate: f64,
    ) -> Self {
        let bytes = matrix.storage_bytes() + precond.matrix().storage_bytes();
        Self {
            operator: Arc::new(SpecializedBackend::detect(matrix)),
            precond: Arc::new(precond),
            params,
            attempts,
            rho_estimate,
            bytes,
            sessions: Mutex::new(HashMap::new()),
            forms: Mutex::new(HashMap::new()),
        }
    }

    /// Take (or lazily create) the warm session for `key`. The caller must
    /// return it with [`OperatorEntry::put_session`] when the solve is
    /// done; a concurrent taker for the same key simply gets a fresh
    /// session — results are bit-identical either way, only workspace
    /// reuse is lost. A fresh session copies nothing: it is bound to this
    /// entry's operator and to the form of its preconditioner the solver
    /// wants. The second value is the bytes the call made resident (a form
    /// made just now; zero otherwise), owed to [`OperatorCache::charge`].
    pub fn take_session(&self, key: &GroupKey, opts: SolveOptions) -> (PooledSession, usize) {
        // A panic mid-take/put leaves the pool map itself intact (at worst
        // a session is lost), so recover the lock rather than cascade.
        if let Some(session) = lock_unpoisoned(&self.sessions).remove(key) {
            return (session, 0);
        }
        let (precond, made) = self.form_for(key.solver);
        let operator = Arc::clone(&self.operator);
        let session = SolveSession::with_backend(operator, precond, key.solver, opts);
        (session, made)
    }

    /// The preconditioner `solver`'s sessions share, and the bytes newly
    /// resident for it. The lock is held across the one copy an entry
    /// makes, so concurrent first requests wait for it and share it.
    fn form_for(&self, solver: SolverType) -> (Arc<SparsePrecond>, usize) {
        let mut forms = lock_unpoisoned(&self.forms);
        if let Some(form) = forms.get(&solver) {
            return (Arc::clone(form), 0);
        }
        // The same matrix may be resident already: the inverse as built when
        // that is symmetric, or a copy made for another solver of the family.
        let mut resident = std::iter::once(&self.precond).chain(forms.values());
        let (form, made) = match self.precond.for_solver(solver) {
            Cow::Borrowed(_) => (Arc::clone(&self.precond), 0),
            Cow::Owned(copy) => match resident.find(|f| f.matrix() == copy.matrix()) {
                Some(shared) => (Arc::clone(shared), 0),
                None => {
                    let bytes = copy.matrix().storage_bytes();
                    (Arc::new(copy), bytes)
                }
            },
        };
        forms.insert(solver, Arc::clone(&form));
        (form, made)
    }

    /// Return a session to the pool for the next request with this key.
    pub fn put_session(&self, key: GroupKey, session: PooledSession) {
        lock_unpoisoned(&self.sessions).insert(key, session);
    }

    /// Number of warm sessions currently pooled (for stats).
    pub fn pooled_sessions(&self) -> usize {
        lock_unpoisoned(&self.sessions).len()
    }
}

/// What a fingerprint resolves to.
#[derive(Clone)]
pub enum Slot {
    /// A built, servable operator.
    Ready(Arc<OperatorEntry>),
    /// A poison operator: the safeguard rejected every build attempt, and
    /// this replays the structured error without re-probing.
    Poisoned(Arc<BuildError>),
}

struct CachedSlot {
    slot: Slot,
    bytes: usize,
    last_used: u64,
}

struct CacheInner {
    slots: HashMap<u64, CachedSlot>,
    tick: u64,
    total_bytes: usize,
    /// Entries evicted over the cache's lifetime. A drifting operator
    /// changes its fingerprint every step, so sustained drift shows up
    /// here as churn — the serving-side signal that callers should move to
    /// the drift-session path instead of re-caching every step.
    evictions: u64,
}

/// Byte-bounded LRU cache of operators, plus the per-fingerprint build
/// locks that keep concurrent misses from building the same operator
/// twice.
pub struct OperatorCache {
    inner: Mutex<CacheInner>,
    build_locks: Mutex<HashMap<u64, Arc<Mutex<()>>>>,
    capacity_bytes: usize,
}

impl OperatorCache {
    /// A cache bounded to roughly `capacity_bytes` of operator storage.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(CacheInner {
                slots: HashMap::new(),
                tick: 0,
                total_bytes: 0,
                evictions: 0,
            }),
            build_locks: Mutex::new(HashMap::new()),
            capacity_bytes,
        }
    }

    /// Lock the cache state, recovering from a poisoned lock. The slot map
    /// is always structurally valid (`HashMap` operations either complete
    /// or leave the map untouched), but a panic between a slot mutation
    /// and its `total_bytes` adjustment can leave the byte accounting
    /// stale — so on recovery the byte total is recomputed from the slots,
    /// restoring the eviction budget's invariant before any caller sees
    /// the state.
    fn lock_inner(&self) -> MutexGuard<'_, CacheInner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.total_bytes = guard.slots.values().map(|s| s.bytes).sum();
                guard
            }
        }
    }

    /// Look up a fingerprint, bumping its recency.
    pub fn lookup(&self, fingerprint: u64) -> Option<Slot> {
        let mut inner = self.lock_inner();
        inner.tick += 1;
        let tick = inner.tick;
        inner.slots.get_mut(&fingerprint).map(|s| {
            s.last_used = tick;
            s.slot.clone()
        })
    }

    /// The per-fingerprint build lock: a worker missing the cache takes
    /// this before building, re-checks the cache under it, and thereby
    /// guarantees at most one build per operator even when several
    /// uncoalesced groups miss at once.
    ///
    /// Locks that only the map still holds guard no build and are dropped
    /// here, so the map holds the builds in flight rather than every
    /// fingerprint that ever missed. A clone is only ever made under the map
    /// lock, so a count of one cannot race with a new holder.
    pub fn build_lock(&self, fingerprint: u64) -> Arc<Mutex<()>> {
        let mut locks = lock_unpoisoned(&self.build_locks);
        locks.retain(|_, lock| Arc::strong_count(lock) > 1);
        Arc::clone(locks.entry(fingerprint).or_default())
    }

    /// Insert a built operator, evicting least-recently-used entries until
    /// the byte budget holds (the newly inserted entry itself is never
    /// evicted, even if it alone exceeds the budget — it has a user).
    pub fn insert_ready(&self, fingerprint: u64, entry: Arc<OperatorEntry>) {
        let bytes = entry.bytes;
        self.insert(fingerprint, Slot::Ready(entry), bytes);
    }

    /// Remember a poison operator so repeats replay the structured error.
    pub fn insert_poisoned(&self, fingerprint: u64, error: Arc<BuildError>) {
        self.insert(fingerprint, Slot::Poisoned(error), POISON_ENTRY_BYTES);
    }

    fn insert(&self, fingerprint: u64, slot: Slot, bytes: usize) {
        let mut inner = self.lock_inner();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.slots.insert(
            fingerprint,
            CachedSlot {
                slot,
                bytes,
                last_used: tick,
            },
        ) {
            inner.total_bytes -= old.bytes;
        }
        inner.total_bytes += bytes;
        self.evict_to_budget(&mut inner, fingerprint);
    }

    /// Charge `entry` for `bytes` it made resident after it was inserted
    /// ([`OperatorEntry::take_session`] reports them), evicting others if
    /// that breaks the budget. An entry evicted meanwhile owes nothing: its
    /// memory goes when its last user does.
    pub fn charge(&self, fingerprint: u64, entry: &Arc<OperatorEntry>, bytes: usize) {
        let mut inner = self.lock_inner();
        match inner.slots.get_mut(&fingerprint) {
            Some(cached) if matches!(&cached.slot, Slot::Ready(e) if Arc::ptr_eq(e, entry)) => {
                cached.bytes += bytes;
            }
            _ => return,
        }
        inner.total_bytes += bytes;
        self.evict_to_budget(&mut inner, fingerprint);
    }

    /// Evict least-recently-used entries other than `keep` until the byte
    /// budget holds.
    fn evict_to_budget(&self, inner: &mut CacheInner, keep: u64) {
        while inner.total_bytes > self.capacity_bytes && inner.slots.len() > 1 {
            let victim = inner
                .slots
                .iter()
                .filter(|(fp, _)| **fp != keep)
                .min_by_key(|(_, s)| s.last_used)
                .map(|(fp, _)| *fp);
            match victim {
                Some(fp) => {
                    let removed = inner.slots.remove(&fp).expect("victim vanished");
                    inner.total_bytes -= removed.bytes;
                    inner.evictions += 1;
                }
                None => break,
            }
        }
    }

    /// `(entries, total_bytes)` currently resident.
    pub fn usage(&self) -> (usize, usize) {
        let inner = self.lock_inner();
        (inner.slots.len(), inner.total_bytes)
    }

    /// Entries evicted over the cache's lifetime (drift churn signal).
    pub fn evictions(&self) -> u64 {
        let inner = self.lock_inner();
        inner.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmcmi_mcmc::{BuildConfig, McmcInverse, SafeguardConfig};

    fn tiny_spd(n: usize, salt: f64) -> Csr {
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        let mut data = Vec::new();
        for i in 0..n {
            if i > 0 {
                indices.push(i - 1);
                data.push(-1.0);
            }
            indices.push(i);
            data.push(4.0 + salt);
            if i + 1 < n {
                indices.push(i + 1);
                data.push(-1.0);
            }
            indptr.push(indices.len());
        }
        Csr::from_raw(n, n, indptr, indices, data)
    }

    fn entry(n: usize, salt: f64) -> (u64, Arc<OperatorEntry>) {
        entry_at(n, salt, McmcParams::new(2.0, 0.5, 0.5))
    }

    fn entry_at(n: usize, salt: f64, params: McmcParams) -> (u64, Arc<OperatorEntry>) {
        let a = tiny_spd(n, salt);
        let fp = a.fingerprint();
        let build = McmcInverse::new(BuildConfig::default())
            .build_safeguarded(&a, params, &SafeguardConfig::default())
            .expect("tiny SPD operator must build");
        let e = OperatorEntry::new(
            a,
            build.outcome.precond,
            build.params,
            build.attempts,
            build.rho_estimate,
        );
        (fp, Arc::new(e))
    }

    #[test]
    fn lookup_hits_after_insert_and_misses_before() {
        let cache = OperatorCache::new(usize::MAX);
        let (fp, e) = entry(16, 0.0);
        assert!(cache.lookup(fp).is_none());
        cache.insert_ready(fp, e);
        assert!(matches!(cache.lookup(fp), Some(Slot::Ready(_))));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let (fp1, e1) = entry(32, 0.0);
        let (fp2, e2) = entry(32, 1.0);
        let (fp3, e3) = entry(32, 2.0);
        // Budget fits roughly two entries.
        let cache = OperatorCache::new(e1.bytes + e2.bytes + e3.bytes / 2);
        cache.insert_ready(fp1, e1);
        cache.insert_ready(fp2, e2);
        // Touch fp1 so fp2 is the LRU victim.
        assert!(cache.lookup(fp1).is_some());
        cache.insert_ready(fp3, e3);
        assert!(cache.lookup(fp1).is_some(), "recently used entry survives");
        assert!(cache.lookup(fp2).is_none(), "cold entry evicted");
        assert!(cache.lookup(fp3).is_some(), "new entry resident");
    }

    #[test]
    fn drifting_operator_churns_the_cache_and_counts_evictions() {
        // A drifting operator re-fingerprints every step; inserting each
        // step into a two-entry cache must evict LRU-first and count every
        // eviction. This is the churn profile `drift_evictions` in
        // `GET /stats` exists to expose.
        let entries: Vec<(u64, Arc<OperatorEntry>)> =
            (0..6).map(|s| entry(32, s as f64 * 0.01)).collect();
        // Each drift step changes bytes only marginally; budget two entries.
        let cache = OperatorCache::new(2 * entries[0].1.bytes + entries[0].1.bytes / 2);
        assert_eq!(cache.evictions(), 0);
        for (fp, e) in &entries {
            cache.insert_ready(*fp, Arc::clone(e));
        }
        // 6 inserts into a 2-entry budget: 4 drift evictions.
        assert_eq!(cache.evictions(), 4);
        let (resident, _) = cache.usage();
        assert_eq!(resident, 2);
        // Only the two newest steps remain.
        assert!(cache.lookup(entries[4].0).is_some());
        assert!(cache.lookup(entries[5].0).is_some());
        for (fp, _) in &entries[..4] {
            assert!(cache.lookup(*fp).is_none(), "old drift step must be gone");
        }
        // Lookups never count as evictions.
        assert_eq!(cache.evictions(), 4);
    }

    #[test]
    fn poisoned_entries_replay_the_error() {
        let cache = OperatorCache::new(usize::MAX);
        let err = Arc::new(BuildError::Divergent { attempts: vec![] });
        cache.insert_poisoned(99, Arc::clone(&err));
        match cache.lookup(99) {
            Some(Slot::Poisoned(e)) => {
                assert!(matches!(&*e, BuildError::Divergent { .. }));
            }
            _ => panic!("expected poisoned slot"),
        }
    }

    #[test]
    fn session_take_put_reuses_and_creates() {
        let (_fp, e) = entry(16, 0.0);
        let key = GroupKey {
            fingerprint: 1,
            solver: SolverType::Cg,
            tol_bits: 1e-8f64.to_bits(),
            max_iter: 100,
            restart: 50,
        };
        let opts = SolveOptions::default();
        let (mut s, _) = e.take_session(&key, opts);
        let b = vec![1.0; 16];
        let r1 = s.solve(&b);
        e.put_session(key, s);
        assert_eq!(e.pooled_sessions(), 1);
        let (mut s2, _) = e.take_session(&key, opts);
        assert_eq!(e.pooled_sessions(), 0);
        let r2 = s2.solve(&b);
        assert_eq!(r1.x, r2.x, "reused session is bit-identical");
    }

    #[test]
    fn sessions_share_the_entry_s_storage_and_bytes_counts_what_is_resident() {
        // Enough chains that the inverse is not symmetric by accident.
        let (_fp, e) = entry_at(24, 0.0, McmcParams::new(0.5, 0.125, 0.0625));
        assert!(!e.precond.matrix().is_symmetric(0.0));
        let key = |solver| GroupKey {
            fingerprint: 1,
            solver,
            tol_bits: 1e-8f64.to_bits(),
            max_iter: 100,
            restart: 50,
        };
        let (cg, fcg, gmres) = (
            key(SolverType::Cg),
            key(SolverType::FCg),
            key(SolverType::Gmres),
        );
        // Bytes of every distinct operator / preconditioner allocation the
        // entry and its pooled sessions hold between them.
        let resident = |e: &OperatorEntry| {
            let mut seen = std::collections::HashMap::new();
            seen.insert(
                Arc::as_ptr(&e.operator).cast::<()>(),
                e.operator.csr().storage_bytes(),
            );
            seen.insert(
                Arc::as_ptr(&e.precond).cast::<()>(),
                e.precond.matrix().storage_bytes(),
            );
            for s in lock_unpoisoned(&e.sessions).values() {
                seen.insert(
                    std::ptr::from_ref(s.backend()).cast::<()>(),
                    s.matrix().storage_bytes(),
                );
                seen.insert(
                    Arc::as_ptr(s.precond()).cast::<()>(),
                    s.precond().matrix().storage_bytes(),
                );
            }
            seen.values().sum::<usize>()
        };
        assert_eq!(e.bytes, resident(&e), "empty pool");

        // The inverse as built: nothing is made, whoever asks.
        let opts = SolveOptions::default();
        let (s1, made1) = e.take_session(&gmres, opts);
        assert!(std::ptr::eq(s1.backend(), &*e.operator), "one operator");
        assert!(Arc::ptr_eq(s1.precond(), &e.precond), "one preconditioner");
        e.put_session(gmres, s1);
        assert_eq!((made1, e.bytes), (0, resident(&e)), "one pooled session");

        // The CG family's form is made once, reported once, and shared.
        let (c1, made) = e.take_session(&cg, opts);
        assert!(c1.precond().matrix().is_symmetric(0.0));
        assert_eq!(made, c1.precond().matrix().storage_bytes());
        let ((c2, again), (c3, flexible)) = (e.take_session(&cg, opts), e.take_session(&fcg, opts));
        assert_eq!((again, flexible), (0, 0));
        assert!(Arc::ptr_eq(c1.precond(), c2.precond()) && Arc::ptr_eq(c1.precond(), c3.precond()));
        assert!(std::ptr::eq(c1.backend(), &*e.operator));
        e.put_session(cg, c1);
        e.put_session(fcg, c3);
        assert_eq!(e.bytes + made, resident(&e), "both forms pooled");
    }

    #[test]
    fn a_form_made_after_insertion_is_charged_to_its_entry_once() {
        let (fp1, e1) = entry(32, 0.0);
        let (fp2, e2) = entry(32, 1.0);
        let cache = OperatorCache::new(e1.bytes + e2.bytes + 64);
        cache.insert_ready(fp1, Arc::clone(&e1));
        cache.insert_ready(fp2, Arc::clone(&e2));
        // Charging the newer entry past the budget evicts the older one…
        cache.charge(fp2, &e2, 128);
        assert_eq!(cache.usage(), (1, e2.bytes + 128));
        assert_eq!(cache.evictions(), 1);
        // …and an entry that is no longer resident is on nobody's books.
        cache.charge(fp1, &e1, 128);
        assert_eq!(cache.usage(), (1, e2.bytes + 128));
    }

    #[test]
    fn poisoned_cache_lock_recovers_and_repairs_byte_accounting() {
        let (fp1, e1) = entry(16, 0.0);
        let (fp2, e2) = entry(16, 1.0);
        let bytes1 = e1.bytes;
        let cache = OperatorCache::new(usize::MAX);
        cache.insert_ready(fp1, e1);
        // Poison the inner lock *and* corrupt the byte accounting the way
        // a panic between a slot mutation and its total adjustment would.
        crate::sync::poison_for_test(&cache.inner);
        cache
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .total_bytes = 0;
        // Every entry point must keep answering — and the first recovery
        // must have restored total_bytes from the slots.
        assert!(matches!(cache.lookup(fp1), Some(Slot::Ready(_))));
        let (entries, total) = cache.usage();
        assert_eq!(entries, 1);
        assert_eq!(total, bytes1, "byte accounting repaired on recovery");
        cache.insert_ready(fp2, e2);
        assert!(matches!(cache.lookup(fp2), Some(Slot::Ready(_))));
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn poisoned_session_pool_lock_recovers() {
        let (_fp, e) = entry(16, 0.0);
        let key = GroupKey {
            fingerprint: 1,
            solver: SolverType::Cg,
            tol_bits: 1e-8f64.to_bits(),
            max_iter: 100,
            restart: 50,
        };
        let opts = SolveOptions::default();
        let (s, _) = e.take_session(&key, opts);
        e.put_session(key, s);
        crate::sync::poison_for_test(&e.sessions);
        // take/put/count all still work through the poisoned lock.
        let (mut s, _) = e.take_session(&key, opts);
        assert_eq!(e.pooled_sessions(), 0);
        let r = s.solve(&[1.0; 16]);
        assert!(r.converged);
        e.put_session(key, s);
        assert_eq!(e.pooled_sessions(), 1);
    }

    #[test]
    fn poisoned_build_lock_map_recovers() {
        let cache = OperatorCache::new(usize::MAX);
        let l1 = cache.build_lock(1);
        crate::sync::poison_for_test(&cache.build_locks);
        let l1b = cache.build_lock(1);
        assert!(Arc::ptr_eq(&l1, &l1b), "same lock resolves after recovery");
    }

    #[test]
    fn build_lock_is_per_fingerprint() {
        let cache = OperatorCache::new(usize::MAX);
        let l1 = cache.build_lock(1);
        let l1b = cache.build_lock(1);
        let l2 = cache.build_lock(2);
        assert!(Arc::ptr_eq(&l1, &l1b));
        assert!(!Arc::ptr_eq(&l1, &l2));
    }

    #[test]
    fn released_build_locks_are_pruned() {
        let cache = OperatorCache::new(usize::MAX);
        for fingerprint in 0..1_000u64 {
            let lock = cache.build_lock(fingerprint);
            drop(lock_unpoisoned(&lock));
        }
        assert!(lock_unpoisoned(&cache.build_locks).len() <= 1);
    }
}
