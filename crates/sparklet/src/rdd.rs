//! The RDD abstraction: lazy, lineage-tracked, partitioned collections.

use crate::context::CtxInner;
use crate::error::{SparkError, SparkResult};
use crate::shuffle::ShuffleDep;
use crate::Data;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

pub(crate) type ComputeFn<T> = Box<dyn Fn(usize) -> SparkResult<Vec<T>> + Send + Sync>;

/// Internal node of the RDD DAG.
pub(crate) struct RddInner<T> {
    pub(crate) id: usize,
    pub(crate) ctx: Arc<CtxInner>,
    pub(crate) parts: usize,
    pub(crate) compute: ComputeFn<T>,
    /// Per-partition cache, active once `persist` was called
    /// (lock-guarded so `unpersist` can release the memory).
    cache: Vec<parking_lot::Mutex<Option<Vec<T>>>>,
    use_cache: AtomicBool,
    /// Shuffle dependencies reachable without crossing another shuffle.
    pub(crate) upstream: Vec<Arc<dyn ShuffleDep>>,
    /// Identity of the partitioner that produced this RDD's layout, if any.
    partitioner_identity: parking_lot::Mutex<Option<(String, usize)>>,
    pub(crate) name: &'static str,
}

impl<T: Data> RddInner<T> {
    /// Computes (or serves from cache) one partition, honouring injected
    /// failures. This is the body of a task.
    pub(crate) fn partition_data(&self, p: usize) -> SparkResult<Vec<T>> {
        if self.ctx.failures.should_fail(self.id, p) {
            return Err(crate::SparkError::InjectedFailure {
                rdd: self.id,
                partition: p,
            });
        }
        if let Some(chaos) = self.ctx.chaos() {
            if chaos.task_should_fail(self.id, p) {
                return Err(crate::SparkError::InjectedFailure {
                    rdd: self.id,
                    partition: p,
                });
            }
        }
        if self.use_cache.load(Ordering::Relaxed) {
            // Holding the partition lock during compute also serializes
            // concurrent recomputation of the same partition.
            let mut slot = self.cache[p].lock();
            if let Some(v) = slot.as_ref() {
                self.ctx.metrics.add(&self.ctx.metrics.cache_hits, 1);
                return Ok(v.clone());
            }
            let v = (self.compute)(p)?;
            *slot = Some(v.clone());
            return Ok(v);
        }
        (self.compute)(p)
    }
}

/// A lazy, partitioned, immutable distributed collection (the Spark RDD).
///
/// Cloning an `Rdd` clones a handle to the same DAG node. Transformations
/// return new nodes; nothing executes until an action
/// ([`collect`](Rdd::collect), [`count`](Rdd::count), …) runs.
pub struct Rdd<T: Data> {
    pub(crate) inner: Arc<RddInner<T>>,
}

impl<T: Data> Clone for Rdd<T> {
    fn clone(&self) -> Self {
        Rdd {
            inner: self.inner.clone(),
        }
    }
}

impl<T: Data> Rdd<T> {
    pub(crate) fn new(
        ctx: Arc<CtxInner>,
        parts: usize,
        name: &'static str,
        compute: ComputeFn<T>,
        upstream: Vec<Arc<dyn ShuffleDep>>,
    ) -> Self {
        let id = ctx.next_rdd_id();
        Rdd {
            inner: Arc::new(RddInner {
                id,
                ctx,
                parts,
                compute,
                cache: (0..parts).map(|_| parking_lot::Mutex::new(None)).collect(),
                use_cache: AtomicBool::new(false),
                upstream,
                partitioner_identity: parking_lot::Mutex::new(None),
                name,
            }),
        }
    }

    pub(crate) fn new_source(
        ctx: Arc<CtxInner>,
        parts: usize,
        name: &'static str,
        compute: ComputeFn<T>,
    ) -> Self {
        Self::new(ctx, parts, name, compute, Vec::new())
    }

    pub(crate) fn set_partitioner_identity(&self, identity: (String, usize)) {
        *self.inner.partitioner_identity.lock() = Some(identity);
    }

    pub(crate) fn partitioner_identity(&self) -> Option<(String, usize)> {
        self.inner.partitioner_identity.lock().clone()
    }

    /// Unique id of this RDD within its context (used by failure injection).
    pub fn id(&self) -> usize {
        self.inner.id
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.inner.parts
    }

    /// Short name of the producing transformation (lineage debugging).
    pub fn name(&self) -> &'static str {
        self.inner.name
    }

    /// Derives a narrow child: same partition count unless stated, upstream
    /// shuffle deps inherited.
    fn derive<U: Data>(&self, parts: usize, name: &'static str, compute: ComputeFn<U>) -> Rdd<U> {
        Rdd::new(
            self.inner.ctx.clone(),
            parts,
            name,
            compute,
            self.inner.upstream.clone(),
        )
    }

    /// Element-wise transformation (narrow).
    pub fn map<U: Data>(&self, f: impl Fn(T) -> U + Send + Sync + 'static) -> Rdd<U> {
        let parent = self.inner.clone();
        self.derive(
            self.inner.parts,
            "map",
            Box::new(move |p| Ok(parent.partition_data(p)?.into_iter().map(&f).collect())),
        )
    }

    /// Fallible element-wise transformation; an `Err` fails the task (and
    /// is retried per config, surfacing the error if retries exhaust).
    /// Used by solvers whose tasks read the side channel.
    pub fn try_map<U: Data>(
        &self,
        f: impl Fn(T) -> SparkResult<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        let parent = self.inner.clone();
        self.derive(
            self.inner.parts,
            "try_map",
            Box::new(move |p| parent.partition_data(p)?.into_iter().map(&f).collect()),
        )
    }

    /// Fallible one-to-many transformation; an `Err` fails the task.
    pub fn try_flat_map<U: Data>(
        &self,
        f: impl Fn(T) -> SparkResult<Vec<U>> + Send + Sync + 'static,
    ) -> Rdd<U> {
        let parent = self.inner.clone();
        self.derive(
            self.inner.parts,
            "try_flat_map",
            Box::new(move |p| {
                let mut out = Vec::new();
                for item in parent.partition_data(p)? {
                    out.extend(f(item)?);
                }
                Ok(out)
            }),
        )
    }

    /// Keeps elements satisfying the predicate (narrow).
    pub fn filter(&self, pred: impl Fn(&T) -> bool + Send + Sync + 'static) -> Rdd<T> {
        let parent = self.inner.clone();
        self.derive(
            self.inner.parts,
            "filter",
            Box::new(move |p| {
                Ok(parent
                    .partition_data(p)?
                    .into_iter()
                    .filter(|t| pred(t))
                    .collect())
            }),
        )
    }

    /// One-to-many transformation (narrow).
    pub fn flat_map<U: Data>(&self, f: impl Fn(T) -> Vec<U> + Send + Sync + 'static) -> Rdd<U> {
        let parent = self.inner.clone();
        self.derive(
            self.inner.parts,
            "flat_map",
            Box::new(move |p| Ok(parent.partition_data(p)?.into_iter().flat_map(&f).collect())),
        )
    }

    /// Whole-partition transformation (narrow); `f` receives the partition
    /// index and its elements.
    pub fn map_partitions<U: Data>(
        &self,
        f: impl Fn(usize, Vec<T>) -> Vec<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        let parent = self.inner.clone();
        self.derive(
            self.inner.parts,
            "map_partitions",
            Box::new(move |p| Ok(f(p, parent.partition_data(p)?))),
        )
    }

    /// Union with one other RDD. See [`Rdd::union_all`].
    pub fn union(&self, other: &Rdd<T>) -> Rdd<T> {
        self.union_all(std::slice::from_ref(other))
    }

    /// Union with several RDDs (Spark `sc.union`): output partitions are
    /// the concatenation of all inputs' partitions and the partitioner is
    /// dropped. Each component RDD "preserves its partitioning when in
    /// union" (paper §5.2) — which is exactly the partition-count blowup
    /// the blocked solvers must repartition away.
    pub fn union_all(&self, others: &[Rdd<T>]) -> Rdd<T> {
        let mut parents: Vec<Arc<RddInner<T>>> = Vec::with_capacity(1 + others.len());
        parents.push(self.inner.clone());
        parents.extend(others.iter().map(|r| r.inner.clone()));
        let mut upstream = Vec::new();
        let mut offsets = Vec::with_capacity(parents.len() + 1);
        let mut total = 0usize;
        for p in &parents {
            offsets.push(total);
            total += p.parts;
            upstream.extend(p.upstream.iter().cloned());
        }
        offsets.push(total);
        let compute = move |p: usize| {
            // Locate the component RDD owning global partition p.
            let idx = match offsets.binary_search(&p) {
                Ok(i) => i,
                Err(i) => i - 1,
            };
            parents[idx].partition_data(p - offsets[idx])
        };
        Rdd::new(
            self.inner.ctx.clone(),
            total,
            "union",
            Box::new(compute),
            upstream,
        )
    }

    /// Cartesian product (the transformation the paper's first repeated-
    /// squaring draft relied on and abandoned: output has `p₁·p₂`
    /// partitions and every pair of input partitions is co-materialized —
    /// an implicit all-to-all).
    pub fn cartesian<U: Data>(&self, other: &Rdd<U>) -> Rdd<(T, U)> {
        let a = self.inner.clone();
        let b = other.inner.clone();
        let (pa, pb) = (a.parts, b.parts);
        let mut upstream = a.upstream.clone();
        upstream.extend(b.upstream.iter().cloned());
        let compute = move |p: usize| {
            let (ia, ib) = (p / pb, p % pb);
            let left = a.partition_data(ia)?;
            let right = b.partition_data(ib)?;
            let mut out = Vec::with_capacity(left.len() * right.len());
            for l in &left {
                for r in &right {
                    out.push((l.clone(), r.clone()));
                }
            }
            Ok(out)
        };
        Rdd::new(
            self.inner.ctx.clone(),
            pa * pb,
            "cartesian",
            Box::new(compute),
            upstream,
        )
    }

    /// Reduces the partition count to `target` by concatenating contiguous
    /// runs of partitions (Spark `coalesce(shuffle = false)` — a narrow
    /// transformation). Useful when a solver scales `p` down to keep the
    /// over-decomposition factor `B > 1` (paper §5.3).
    pub fn coalesce(&self, target: usize) -> Rdd<T> {
        let target = target.max(1).min(self.inner.parts);
        let parent = self.inner.clone();
        let source_parts = parent.parts;
        self.derive(
            target,
            "coalesce",
            Box::new(move |p| {
                let lo = p * source_parts / target;
                let hi = (p + 1) * source_parts / target;
                let mut out = Vec::new();
                for sp in lo..hi {
                    out.extend(parent.partition_data(sp)?);
                }
                Ok(out)
            }),
        )
    }

    /// Keeps one representative per distinct element (narrow map-side
    /// dedup followed by a global dedup at the driver is *not* Spark's
    /// semantics; this is implemented as a local dedup per partition —
    /// callers needing global distinct should shuffle by a key first).
    /// Provided for parity with common Spark usage on pre-partitioned
    /// data.
    pub fn distinct_within_partitions(&self) -> Rdd<T>
    where
        T: Eq + std::hash::Hash,
    {
        let parent = self.inner.clone();
        self.derive(
            self.inner.parts,
            "distinct_within_partitions",
            Box::new(move |p| {
                let items = parent.partition_data(p)?;
                let mut seen = std::collections::HashSet::new();
                Ok(items
                    .into_iter()
                    .filter(|t| seen.insert(t.clone()))
                    .collect())
            }),
        )
    }

    /// Deterministic sample: keeps each element with probability
    /// `fraction`, decided by a per-partition splitmix over `seed`.
    pub fn sample(&self, fraction: f64, seed: u64) -> Rdd<T> {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
        let parent = self.inner.clone();
        self.derive(
            self.inner.parts,
            "sample",
            Box::new(move |p| {
                let items = parent.partition_data(p)?;
                let mut state = seed ^ (p as u64).wrapping_mul(0x9E3779B97F4A7C15);
                let mut next = move || {
                    state = state.wrapping_add(0x9E3779B97F4A7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                    (z ^ (z >> 31)) as f64 / u64::MAX as f64
                };
                Ok(items.into_iter().filter(|_| next() < fraction).collect())
            }),
        )
    }

    /// Marks this RDD for caching: the first computation of each partition
    /// is retained and served to later jobs (Spark `persist()` at
    /// MEMORY_ONLY). Returns `self` for chaining.
    pub fn persist(&self) -> Rdd<T> {
        self.inner.use_cache.store(true, Ordering::Relaxed);
        self.clone()
    }

    /// Drops any cached partitions and stops caching (Spark `unpersist()`).
    /// Iterative solvers call this on superseded RDD generations so memory
    /// stays bounded by one generation.
    pub fn unpersist(&self) {
        self.inner.use_cache.store(false, Ordering::Relaxed);
        for slot in &self.inner.cache {
            *slot.lock() = None;
        }
    }

    /// Cuts this RDD's lineage (Spark `localCheckpoint()`): moves its cached
    /// partitions into a new node with the same id, partition count and
    /// partitioner but no parents. Once every handle to `self` is dropped,
    /// the DAG behind it — upstream shuffle outputs, caches, values captured
    /// by compute closures — is freed. Iterative solvers call this at each
    /// round barrier so memory stays bounded by one generation.
    ///
    /// Every partition must already be cached (persist, then run an action);
    /// otherwise this fails with [`SparkError::CheckpointMissing`] and
    /// `self` keeps its cache. Tasks of the new node honour injected
    /// failures for the same id and then serve the cache; after
    /// [`unpersist`](Rdd::unpersist) they fail with `CheckpointMissing`
    /// instead of recomputing.
    pub fn local_checkpoint(&self) -> SparkResult<Rdd<T>> {
        let (id, parts) = (self.inner.id, self.inner.parts);
        let partitioner_identity = self.partitioner_identity();
        let mut slots: Vec<_> = self.inner.cache.iter().map(|s| s.lock()).collect();
        if let Some(partition) = slots.iter().position(|s| s.is_none()) {
            return Err(SparkError::CheckpointMissing { rdd: id, partition });
        }
        let cache = slots
            .iter_mut()
            .map(|s| parking_lot::Mutex::new(s.take()))
            .collect();
        Ok(Rdd {
            inner: Arc::new(RddInner {
                id,
                ctx: self.inner.ctx.clone(),
                parts,
                compute: Box::new(move |partition| {
                    Err(SparkError::CheckpointMissing { rdd: id, partition })
                }),
                cache,
                use_cache: AtomicBool::new(true),
                upstream: Vec::new(),
                partitioner_identity: parking_lot::Mutex::new(partitioner_identity),
                name: self.inner.name,
            }),
        })
    }

    // ------------------------------------------------------------------
    // Actions
    // ------------------------------------------------------------------

    /// Gathers all elements to the driver.
    pub fn collect(&self) -> SparkResult<Vec<T>> {
        let chunks = self.inner.ctx.run_action(&self.inner, |_, data| data)?;
        let total: usize = chunks.iter().map(Vec::len).sum();
        self.inner
            .ctx
            .metrics
            .add(&self.inner.ctx.metrics.collected_records, total as u64);
        let mut out = Vec::with_capacity(total);
        for c in chunks {
            out.extend(c);
        }
        Ok(out)
    }

    /// Number of elements.
    pub fn count(&self) -> SparkResult<usize> {
        Ok(self
            .inner
            .ctx
            .run_action(&self.inner, |_, data| data.len())?
            .into_iter()
            .sum())
    }

    /// Per-partition element counts (drives the paper's Fig. 3 bottom
    /// panel: the partition-size histogram under different partitioners).
    pub fn partition_sizes(&self) -> SparkResult<Vec<usize>> {
        self.inner.ctx.run_action(&self.inner, |_, data| data.len())
    }

    /// Partition contents, one `Vec` per partition (Spark `glom().collect()`).
    pub fn glom(&self) -> SparkResult<Vec<Vec<T>>> {
        self.inner.ctx.run_action(&self.inner, |_, data| data)
    }

    /// Folds all elements with a commutative, associative operation.
    pub fn fold(&self, zero: T, f: impl Fn(T, T) -> T + Send + Sync) -> SparkResult<T> {
        let partials = self.inner.ctx.run_action(&self.inner, |_, data| {
            data.into_iter().fold(zero.clone(), &f)
        })?;
        Ok(partials.into_iter().fold(zero, &f))
    }
}

#[cfg(test)]
mod tests {
    use crate::partitioner::ModPartitioner;
    use crate::{SparkConfig, SparkContext};
    use std::sync::Arc;

    fn ctx() -> SparkContext {
        SparkContext::new(SparkConfig::with_cores(4))
    }

    #[test]
    fn parallelize_collect_roundtrip() {
        let sc = ctx();
        let data: Vec<u64> = (0..1000).collect();
        let rdd = sc.parallelize(data.clone(), 7);
        assert_eq!(rdd.num_partitions(), 7);
        let mut got = rdd.collect().unwrap();
        got.sort();
        assert_eq!(got, data);
    }

    #[test]
    fn map_filter_flatmap_pipeline() {
        let sc = ctx();
        let rdd = sc.parallelize((0u64..100).collect(), 4);
        let out = rdd
            .map(|x| x * 2)
            .filter(|x| x % 3 == 0)
            .flat_map(|x| vec![x, x + 1])
            .count()
            .unwrap();
        // multiples of 3 in 0..200 step2: x in {0,6,12,...,198} → 34 values ×2
        assert_eq!(out, 68);
    }

    #[test]
    fn lazy_until_action() {
        let sc = ctx();
        let rdd = sc.parallelize((0u64..10).collect(), 2).map(|x| x + 1);
        let before = sc.metrics();
        assert_eq!(before.jobs, 0);
        let _ = rdd.count().unwrap();
        let after = sc.metrics();
        assert_eq!(after.jobs, 1);
        assert_eq!(after.tasks, 2);
    }

    #[test]
    fn union_concatenates_partitions() {
        let sc = ctx();
        let a = sc.parallelize(vec![1u64, 2], 2);
        let b = sc.parallelize(vec![3u64, 4, 5], 3);
        let u = a.union(&b);
        assert_eq!(u.num_partitions(), 5);
        let mut all = u.collect().unwrap();
        all.sort();
        assert_eq!(all, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn union_many_blows_up_partitions() {
        let sc = ctx();
        let rdds: Vec<_> = (0..10).map(|i| sc.parallelize(vec![i as u64], 3)).collect();
        let u = sc.union(&rdds);
        assert_eq!(u.num_partitions(), 30);
        assert_eq!(u.count().unwrap(), 10);
    }

    #[test]
    fn cartesian_pairs_everything() {
        let sc = ctx();
        let a = sc.parallelize(vec![1u64, 2, 3], 2);
        let b = sc.parallelize(vec![10u64, 20], 2);
        let c = a.cartesian(&b);
        assert_eq!(c.num_partitions(), 4);
        let mut got = c.collect().unwrap();
        got.sort();
        assert_eq!(got.len(), 6);
        assert_eq!(got[0], (1, 10));
        assert_eq!(got[5], (3, 20));
    }

    #[test]
    fn persist_serves_cache() {
        let sc = ctx();
        let rdd = sc
            .parallelize((0u64..100).collect(), 4)
            .map(|x| x * x)
            .persist();
        let _ = rdd.count().unwrap();
        let before = sc.metrics();
        let _ = rdd.count().unwrap();
        let after = sc.metrics();
        assert_eq!(after.cache_hits - before.cache_hits, 4);
    }

    #[test]
    fn fold_sums() {
        let sc = ctx();
        let rdd = sc.parallelize((1u64..=100).collect(), 8);
        assert_eq!(rdd.fold(0, |a, b| a + b).unwrap(), 5050);
    }

    #[test]
    fn glom_preserves_partitioning() {
        let sc = ctx();
        let pairs: Vec<(u64, u64)> = (0..20).map(|i| (i, i)).collect();
        let rdd = sc.parallelize_by(pairs, Arc::new(ModPartitioner::new(4)));
        let parts = rdd.glom().unwrap();
        assert_eq!(parts.len(), 4);
        for (p, content) in parts.iter().enumerate() {
            assert_eq!(content.len(), 5);
            for (k, _) in content {
                assert_eq!(*k as usize % 4, p);
            }
        }
    }

    #[test]
    fn injected_failure_recovers_via_lineage() {
        let sc = ctx();
        let rdd = sc.parallelize((0u64..10).collect(), 2).map(|x| x + 1);
        sc.inject_task_failure(rdd.id(), 1);
        let mut out = rdd.collect().unwrap(); // recovered by retry
        out.sort();
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
        assert_eq!(sc.metrics().task_retries, 1);
    }

    #[test]
    fn failure_exhausts_retries() {
        let sc = SparkContext::new(SparkConfig::with_cores(2).max_task_attempts(2));
        let rdd = sc.parallelize(vec![1u64], 1);
        sc.inject_task_failure(rdd.id(), 0);
        sc.inject_task_failure(rdd.id(), 0);
        // Two injections, two attempts allowed: the second attempt fails too.
        // (injections are consumed one per attempt)
        assert!(rdd.collect().is_err());
    }

    #[test]
    fn try_map_surfaces_user_error() {
        let sc = ctx();
        let rdd = sc.parallelize(vec![1u64, 2, 3], 1).try_map(|x| {
            if x == 2 {
                Err(crate::SparkError::User("boom".into()))
            } else {
                Ok(x)
            }
        });
        // Exhausted retries arrive wrapped in task context; the original
        // user error stays reachable through `root()`.
        match rdd.collect() {
            Err(e) => match e.root() {
                crate::SparkError::User(msg) => assert_eq!(msg, "boom"),
                other => panic!("expected user error at the root, got {other:?}"),
            },
            Ok(v) => panic!("expected user error, got {v:?}"),
        }
    }

    #[test]
    fn coalesce_merges_contiguously() {
        let sc = ctx();
        let rdd = sc.parallelize((0u64..100).collect(), 10);
        let merged = rdd.coalesce(3);
        assert_eq!(merged.num_partitions(), 3);
        let mut all = merged.collect().unwrap();
        all.sort();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
        // No shuffle involved (narrow).
        assert_eq!(sc.metrics().shuffles, 0);
        // Coalescing beyond bounds clamps.
        assert_eq!(rdd.coalesce(0).num_partitions(), 1);
        assert_eq!(rdd.coalesce(100).num_partitions(), 10);
    }

    #[test]
    fn distinct_within_partitions_dedups_locally() {
        let sc = ctx();
        let rdd = sc.parallelize(vec![1u64, 1, 2, 2, 3, 3], 1);
        let mut out = rdd.distinct_within_partitions().collect().unwrap();
        out.sort();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn sample_is_deterministic_and_proportional() {
        let sc = ctx();
        let rdd = sc.parallelize((0u64..10_000).collect(), 8);
        let a = rdd.sample(0.3, 7).count().unwrap();
        let b = rdd.sample(0.3, 7).count().unwrap();
        assert_eq!(a, b, "same seed must sample identically");
        assert!((2_500..3_500).contains(&a), "sample size {a} not ~30%");
        assert_eq!(rdd.sample(0.0, 1).count().unwrap(), 0);
        assert_eq!(rdd.sample(1.0, 1).count().unwrap(), 10_000);
    }

    /// A persisted, materialized `(key, value)` RDD behind one shuffle.
    fn shuffled(sc: &SparkContext) -> crate::Rdd<(u64, u64)> {
        let pairs: Vec<(u64, u64)> = (0..40).map(|i| (i, i * i)).collect();
        let rdd = sc
            .parallelize(pairs, 3)
            .partition_by(Arc::new(ModPartitioner::new(4)))
            .persist();
        rdd.count().unwrap();
        rdd
    }

    #[test]
    fn local_checkpoint_frees_the_lineage_behind_it() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        struct Counted(u64);
        impl Counted {
            fn new(v: u64) -> Self {
                LIVE.fetch_add(1, Ordering::SeqCst);
                Counted(v)
            }
        }
        impl Clone for Counted {
            fn clone(&self) -> Self {
                Counted::new(self.0)
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::SeqCst);
            }
        }
        impl crate::EstimateSize for Counted {
            fn estimate_bytes(&self) -> usize {
                8
            }
        }

        let sc = ctx();
        let n = 64;
        let mapped = sc
            .parallelize((0..n as u64).collect(), 3)
            .map(|x| (x, Counted::new(x)))
            .persist();
        let shuffled = mapped
            .partition_by(Arc::new(ModPartitioner::new(4)))
            .persist();
        shuffled.count().unwrap();
        // Upstream cache + shuffle output + the shuffled RDD's own cache.
        assert_eq!(LIVE.load(Ordering::SeqCst), 3 * n);
        let truncated = shuffled.local_checkpoint().unwrap();
        drop(mapped);
        drop(shuffled);
        assert_eq!(LIVE.load(Ordering::SeqCst), n, "only the moved cache stays");
        let mut keys: Vec<u64> = truncated.collect().unwrap().iter().map(|p| p.0).collect();
        keys.sort();
        assert_eq!(keys, (0..n as u64).collect::<Vec<_>>());
        drop(truncated);
        assert_eq!(LIVE.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn local_checkpoint_keeps_identity_and_partitioning() {
        let sc = ctx();
        let rdd = shuffled(&sc);
        let cp = rdd.local_checkpoint().unwrap();
        assert_eq!(cp.id(), rdd.id());
        assert_eq!(cp.num_partitions(), rdd.num_partitions());
        assert_eq!(cp.partitioner_identity(), rdd.partitioner_identity());
        assert!(cp.inner.upstream.is_empty());
        let before = sc.metrics();
        let again = cp.partition_by(Arc::new(ModPartitioner::new(4)));
        assert_eq!(again.id(), cp.id(), "same partitioner must stay a no-op");
        assert_eq!(again.count().unwrap(), 40);
        assert_eq!(sc.metrics().delta(&before).shuffles, 0);
    }

    #[test]
    fn local_checkpoint_of_uncached_partition_is_typed_error() {
        let sc = ctx();
        let rdd = sc.parallelize((0u64..10).collect(), 2).map(|x| x + 1);
        let err = rdd.local_checkpoint().err().expect("nothing is cached");
        assert_eq!(
            err,
            crate::SparkError::CheckpointMissing {
                rdd: rdd.id(),
                partition: 0
            }
        );
        // Persisted but only partly materialized: the first hole is named
        // and the cached partitions stay with the original.
        let persisted = sc
            .parallelize((0u64..10).collect(), 2)
            .map(|x| x + 1)
            .persist();
        persisted.inner.partition_data(0).unwrap();
        let err = persisted
            .local_checkpoint()
            .err()
            .expect("partition 1 is not cached");
        assert!(matches!(
            err,
            crate::SparkError::CheckpointMissing { partition: 1, .. }
        ));
        assert!(persisted.inner.cache[0].lock().is_some());
    }

    #[test]
    fn local_checkpoint_retries_from_cache_bit_identical() {
        let sc = ctx();
        let rdd = shuffled(&sc);
        let mut expected = rdd.collect().unwrap();
        let cp = rdd.local_checkpoint().unwrap();
        drop(rdd);
        sc.inject_task_failure(cp.id(), 1);
        let before = sc.metrics();
        let mut got = cp.collect().unwrap();
        let delta = sc.metrics().delta(&before);
        assert_eq!(delta.task_retries, 1);
        assert_eq!(delta.cache_hits, 4, "the retry is served from the cache");
        assert_eq!(delta.shuffles, 0);
        expected.sort();
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn local_checkpoint_read_after_unpersist_is_typed_error() {
        let sc = ctx();
        let cp = shuffled(&sc).local_checkpoint().unwrap();
        cp.unpersist();
        let err = cp.collect().unwrap_err();
        assert!(
            matches!(
                err.root(),
                crate::SparkError::CheckpointMissing { rdd, .. } if *rdd == cp.id()
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn empty_rdd_ok() {
        let sc = ctx();
        let rdd = sc.parallelize(Vec::<u64>::new(), 3);
        assert_eq!(rdd.count().unwrap(), 0);
        assert_eq!(rdd.collect().unwrap(), Vec::<u64>::new());
    }
}
