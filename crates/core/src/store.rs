//! Persistent closure store: versioned on-disk blocks behind an LRU
//! point-query cache.
//!
//! The paper's premise is that the blocked closure is the expensive
//! artifact — O(n²) data produced by O(n³) work — yet a
//! [`Solution`](crate::plan::Solution) historically died with the
//! process. This module gives it a disk form:
//!
//! ```text
//! <dir>/store-blk-<bi>-<bj>   framed block: u32 bi, u32 bj, u64 side,
//!                             value plane (f64 or bool), via plane (u32,
//!                             tracked stores only)
//! <dir>/store-manifest        framed store manifest (written last — the
//!                             commit point)
//! ```
//!
//! Every file reuses the checkpoint frame envelope
//! ([`apsp_blockmat::serialize::frame`]: magic, version, kind, length,
//! FNV-1a checksum), with the manifest under its own kind tag
//! ([`FRAME_KIND_STORE_MANIFEST`]). The **manifest is written last**: a
//! directory without one is not a store, so a crash mid-save can at worst
//! leave unreferenced block files, never a store that opens and lies.
//!
//! Unlike a checkpoint (upper-triangle, one round of a running solve), a
//! store holds the **full `q × q` block grid** of a *finished* closure —
//! directed solutions are representable, and a point query touches
//! exactly one block with no transpose bookkeeping. Blocks are loaded
//! lazily through a byte-budgeted [`ByteLruCache`], so point queries
//! against a closure far larger than memory stay cheap; cache behaviour
//! is observable through the `store_cache_*` counters of
//! [`sparklet::MetricsSnapshot`].

use crate::checkpoint::{self, Manifest as CkptManifest};
use crate::plan::{SolverId, Workload};
use crate::solver::ApspError;
use apsp_blockmat::serialize::{
    decode_plane, encode_plane, frame, unframe, DecodeError, Wire, FRAME_KIND_BLOCK,
    FRAME_KIND_MANIFEST, FRAME_KIND_STORE_MANIFEST,
};
use apsp_blockmat::{
    AlgBlock, PathAlgebra, Reachability, TrackedReachability, TrackedTropical, TrackedWidest,
    Tropical, Widest, INF, NO_VIA,
};
use apsp_graph::paths::{expand_vias_with, NodeId};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use sparklet::cache::ByteLruCache;
use sparklet::{Metrics, MetricsSnapshot};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};

/// Default cache budget for [`ClosureStore::open`]: 64 MiB of decoded
/// blocks — a few thousand `b = 128` distance blocks.
pub const DEFAULT_STORE_CACHE_BUDGET: u64 = 64 << 20;

/// Upper bound on accepted store dimensions (mirrors the serializer's
/// header guard: a corrupt manifest must not drive huge allocations).
const MAX_STORE_DIM: u64 = 1 << 20;

const MANIFEST_FILE: &str = "store-manifest";

fn block_file(bi: usize, bj: usize) -> String {
    format!("store-blk-{bi}-{bj}")
}

fn store_err(msg: impl Into<String>) -> ApspError {
    ApspError::Store(msg.into())
}

fn frame_err(what: &str, name: &str, e: DecodeError) -> ApspError {
    store_err(format!("{what} '{name}' is not a valid store frame: {e}"))
}

// ---------------------------------------------------------------------------
// Solver and workload tags
// ---------------------------------------------------------------------------

/// Stable on-disk tag for a solver identity. The CLI / `POST /solve`
/// names are these tags ([`crate::jobs::solver_by_name`]), and the engine
/// solvers stamp the same strings into their checkpoint manifests.
pub(crate) fn solver_tag(id: SolverId) -> &'static str {
    match id {
        SolverId::BlockedCollectBroadcast => "cb",
        SolverId::BlockedInMemory => "im",
        SolverId::FloydWarshall2D => "fw2d",
        SolverId::RepeatedSquaring => "rs",
        SolverId::CartesianSquaring => "cartesian",
        SolverId::DistributedJohnson => "johnson",
        SolverId::MpiFw2d => "mpi-fw2d",
        SolverId::MpiDc => "mpi-dc",
        SolverId::DirectedBlockedCB => "directed-cb",
        SolverId::DirectedFloydWarshall2D => "directed-fw2d",
        SolverId::SparseHierarchical => "hierarchical",
    }
}

pub(crate) fn solver_from_tag(tag: &str) -> Option<SolverId> {
    SolverId::ALL.into_iter().find(|id| solver_tag(*id) == tag)
}

fn workload_from_label(label: &str) -> Option<Workload> {
    [
        Workload::ShortestPaths,
        Workload::Widest,
        Workload::Reachability,
    ]
    .into_iter()
    .find(|w| w.label() == label)
}

// ---------------------------------------------------------------------------
// Store manifest
// ---------------------------------------------------------------------------

/// Identity + geometry of a store, framed under
/// [`FRAME_KIND_STORE_MANIFEST`] as the commit record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StoreManifest {
    pub(crate) workload: String,
    pub(crate) solver: String,
    pub(crate) tracked: bool,
    pub(crate) directed: bool,
    pub(crate) n: u64,
    pub(crate) b: u64,
    pub(crate) q: u64,
    pub(crate) block_count: u64,
}

impl StoreManifest {
    fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64 + self.workload.len() + self.solver.len());
        buf.put_u32_le(self.workload.len() as u32);
        buf.put_slice(self.workload.as_bytes());
        buf.put_u32_le(self.solver.len() as u32);
        buf.put_slice(self.solver.as_bytes());
        buf.put_u8(self.tracked as u8);
        buf.put_u8(self.directed as u8);
        for v in [self.n, self.b, self.q, self.block_count] {
            buf.put_u64_le(v);
        }
        buf.freeze()
    }

    fn decode(mut body: &[u8]) -> Result<Self, DecodeError> {
        let string = |body: &mut &[u8]| -> Result<String, DecodeError> {
            if body.remaining() < 4 {
                return Err(DecodeError::Truncated {
                    expected: 4,
                    actual: body.remaining(),
                });
            }
            let len = body.get_u32_le() as usize;
            if body.remaining() < len {
                return Err(DecodeError::Truncated {
                    expected: len,
                    actual: body.remaining(),
                });
            }
            Ok(String::from_utf8_lossy(body.take_bytes(len)).into_owned())
        };
        let workload = string(&mut body)?;
        let solver = string(&mut body)?;
        if body.remaining() < 2 + 4 * 8 {
            return Err(DecodeError::Truncated {
                expected: 2 + 4 * 8,
                actual: body.remaining(),
            });
        }
        let tracked = body.get_u8() != 0;
        let directed = body.get_u8() != 0;
        let mut word = || body.get_u64_le();
        Ok(StoreManifest {
            workload,
            solver,
            tracked,
            directed,
            n: word(),
            b: word(),
            q: word(),
            block_count: word(),
        })
    }
}

// ---------------------------------------------------------------------------
// Decoded blocks
// ---------------------------------------------------------------------------

/// One decoded value plane: numeric for the (min, +) and (max, min)
/// workloads, boolean for transitive closure.
enum Plane {
    F64(Vec<f64>),
    Bool(Vec<bool>),
}

impl Plane {
    fn bytes(&self) -> u64 {
        match self {
            Plane::F64(v) => (v.len() * 8) as u64,
            Plane::Bool(v) => v.len() as u64,
        }
    }
}

/// One resident block: the value plane plus the via plane for tracked
/// stores. `side` is always the store's block size `b` (edge blocks are
/// padded with unreachable cells at save time).
struct StoredBlock {
    side: usize,
    values: Plane,
    vias: Option<Vec<u32>>,
}

impl StoredBlock {
    fn size_bytes(&self) -> u64 {
        self.values.bytes() + self.vias.as_ref().map_or(0, |v| (v.len() * 4) as u64)
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Block-at-a-time store writer enforcing the manifest-written-last
/// commit protocol: `begin` removes any previous manifest (un-committing
/// the old store before its blocks are overwritten), `put_block` streams
/// framed blocks, `commit` frames and writes the manifest.
struct StoreWriter {
    dir: PathBuf,
}

impl StoreWriter {
    fn begin(dir: &Path) -> Result<Self, ApspError> {
        std::fs::create_dir_all(dir).map_err(|e| {
            store_err(format!(
                "cannot create store directory '{}': {e}",
                dir.display()
            ))
        })?;
        let manifest = dir.join(MANIFEST_FILE);
        if manifest.exists() {
            std::fs::remove_file(&manifest).map_err(|e| {
                store_err(format!(
                    "cannot clear previous store manifest '{}': {e}",
                    manifest.display()
                ))
            })?;
        }
        Ok(StoreWriter {
            dir: dir.to_path_buf(),
        })
    }

    fn put_block(
        &self,
        bi: usize,
        bj: usize,
        side: usize,
        values: &Plane,
        vias: Option<&[u32]>,
    ) -> Result<(), ApspError> {
        let value_bytes = match values {
            Plane::F64(_) => 8,
            Plane::Bool(_) => 1,
        };
        let mut body = BytesMut::with_capacity(
            16 + side * side * (value_bytes + if vias.is_some() { 4 } else { 0 }),
        );
        body.put_u32_le(bi as u32);
        body.put_u32_le(bj as u32);
        body.put_u64_le(side as u64);
        match values {
            Plane::F64(v) => encode_plane(v, &mut body),
            Plane::Bool(v) => encode_plane(v, &mut body),
        }
        if let Some(vias) = vias {
            encode_plane(vias, &mut body);
        }
        let framed = frame(FRAME_KIND_BLOCK, &body);
        let path = self.dir.join(block_file(bi, bj));
        std::fs::write(&path, &framed).map_err(|e| {
            store_err(format!(
                "cannot write store block '{}': {e}",
                path.display()
            ))
        })
    }

    fn commit(self, manifest: &StoreManifest) -> Result<(), ApspError> {
        let framed = frame(FRAME_KIND_STORE_MANIFEST, &manifest.encode());
        let path = self.dir.join(MANIFEST_FILE);
        std::fs::write(&path, &framed).map_err(|e| {
            store_err(format!(
                "cannot write store manifest '{}': {e}",
                path.display()
            ))
        })
    }
}

/// How the saver reads closure values out of an in-memory solution.
pub(crate) enum ValueSource<'a> {
    /// Numeric closure cells (distances or widths).
    F64(&'a dyn Fn(usize, usize) -> f64),
    /// Boolean closure cells (reachability).
    Bool(&'a dyn Fn(usize, usize) -> bool),
}

/// Everything [`write_store`] needs to lay a solution down on disk.
pub(crate) struct StoreContents<'a> {
    pub(crate) workload: Workload,
    pub(crate) solver: SolverId,
    pub(crate) directed: bool,
    pub(crate) n: usize,
    pub(crate) b: usize,
    pub(crate) values: ValueSource<'a>,
    pub(crate) vias: Option<&'a dyn Fn(usize, usize) -> u32>,
}

/// Writes the full `q × q` block grid plus the manifest (last). Edge
/// blocks are padded to side `b` with unreachable cells, so every block
/// frame has identical geometry and the cache's byte accounting is
/// uniform.
pub(crate) fn write_store(dir: &Path, c: &StoreContents<'_>) -> Result<(), ApspError> {
    if c.n == 0 || c.b == 0 || c.b > c.n {
        return Err(store_err(format!(
            "cannot save a store with n = {} and block size {}",
            c.n, c.b
        )));
    }
    let q = c.n.div_ceil(c.b);
    let writer = StoreWriter::begin(dir)?;
    let cells = c.b * c.b;
    for bi in 0..q {
        for bj in 0..q {
            let cell = |li: usize, lj: usize| (bi * c.b + li, bj * c.b + lj);
            let in_range = |li: usize, lj: usize| {
                let (gi, gj) = cell(li, lj);
                gi < c.n && gj < c.n
            };
            let values = match &c.values {
                ValueSource::F64(get) => {
                    let pad = match c.workload {
                        Workload::Widest => 0.0,
                        _ => INF,
                    };
                    let mut plane = Vec::with_capacity(cells);
                    for li in 0..c.b {
                        for lj in 0..c.b {
                            let (gi, gj) = cell(li, lj);
                            plane.push(if in_range(li, lj) { get(gi, gj) } else { pad });
                        }
                    }
                    Plane::F64(plane)
                }
                ValueSource::Bool(get) => {
                    let mut plane = Vec::with_capacity(cells);
                    for li in 0..c.b {
                        for lj in 0..c.b {
                            let (gi, gj) = cell(li, lj);
                            plane.push(in_range(li, lj) && get(gi, gj));
                        }
                    }
                    Plane::Bool(plane)
                }
            };
            let vias = c.vias.map(|get| {
                let mut plane = Vec::with_capacity(cells);
                for li in 0..c.b {
                    for lj in 0..c.b {
                        let (gi, gj) = cell(li, lj);
                        plane.push(if in_range(li, lj) {
                            get(gi, gj)
                        } else {
                            NO_VIA
                        });
                    }
                }
                plane
            });
            writer.put_block(bi, bj, c.b, &values, vias.as_deref())?;
        }
    }
    writer.commit(&StoreManifest {
        workload: c.workload.label().to_string(),
        solver: solver_tag(c.solver).to_string(),
        tracked: c.vias.is_some(),
        directed: c.directed,
        n: c.n as u64,
        b: c.b as u64,
        q: q as u64,
        block_count: (q * q) as u64,
    })
}

// ---------------------------------------------------------------------------
// The store handle
// ---------------------------------------------------------------------------

/// A read handle over a committed on-disk closure: geometry-validated at
/// open, blocks loaded lazily through a byte-budgeted LRU cache, point
/// queries answered without ever materializing the full matrix.
///
/// Produced by [`Solution::open`](crate::plan::Solution::open) (which
/// wraps it back into a `Solution`) or opened directly for lower-level
/// access. All queries are `&self`; the cache sits behind a mutex, so a
/// store can be shared across threads.
pub struct ClosureStore {
    dir: PathBuf,
    workload: Workload,
    tracked: bool,
    solver: SolverId,
    directed: bool,
    n: usize,
    b: usize,
    q: usize,
    metrics: Arc<Metrics>,
    cache: Mutex<ByteLruCache<(usize, usize), StoredBlock>>,
}

impl ClosureStore {
    /// Opens a committed store with the default cache budget
    /// ([`DEFAULT_STORE_CACHE_BUDGET`]).
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, ApspError> {
        Self::open_with_budget(dir, DEFAULT_STORE_CACHE_BUDGET)
    }

    /// Opens a committed store, bounding the decoded-block cache at
    /// `cache_budget_bytes`. Validates the manifest frame (magic,
    /// version, checksum, kind), the workload and solver tags, and the
    /// geometry (`q = ⌈n / b⌉`, `block_count = q²`) before returning;
    /// block contents are validated lazily as queries touch them.
    pub fn open_with_budget(
        dir: impl Into<PathBuf>,
        cache_budget_bytes: u64,
    ) -> Result<Self, ApspError> {
        let dir = dir.into();
        let path = dir.join(MANIFEST_FILE);
        let raw = std::fs::read(&path).map_err(|e| {
            store_err(format!(
                "no committed store under '{}': cannot read manifest: {e}",
                dir.display()
            ))
        })?;
        let (kind, body) =
            unframe(&raw).map_err(|e| frame_err("store manifest", MANIFEST_FILE, e))?;
        if kind != FRAME_KIND_STORE_MANIFEST {
            return Err(frame_err(
                "store manifest",
                MANIFEST_FILE,
                DecodeError::BadKind(kind),
            ));
        }
        let m = StoreManifest::decode(body)
            .map_err(|e| frame_err("store manifest", MANIFEST_FILE, e))?;
        let workload = workload_from_label(&m.workload).ok_or_else(|| {
            store_err(format!(
                "store manifest names unknown workload '{}'",
                m.workload
            ))
        })?;
        let solver = solver_from_tag(&m.solver).ok_or_else(|| {
            store_err(format!(
                "store manifest names unknown solver '{}'",
                m.solver
            ))
        })?;
        if m.n == 0 || m.b == 0 || m.n > MAX_STORE_DIM || m.b > m.n {
            return Err(store_err(format!(
                "store manifest declares implausible geometry: n = {}, b = {}",
                m.n, m.b
            )));
        }
        let (n, b) = (m.n as usize, m.b as usize);
        let q = n.div_ceil(b);
        if m.q != q as u64 || m.block_count != (q * q) as u64 {
            return Err(store_err(format!(
                "store manifest geometry mismatch: n = {n}, b = {b} imply q = {q} \
                 and {} blocks, but the manifest declares q = {} and {} blocks",
                q * q,
                m.q,
                m.block_count
            )));
        }
        let metrics = Arc::new(Metrics::default());
        let cache = Mutex::new(ByteLruCache::with_metrics(
            cache_budget_bytes,
            Arc::clone(&metrics),
        ));
        Ok(ClosureStore {
            dir,
            workload,
            tracked: m.tracked,
            solver,
            directed: m.directed,
            n,
            b,
            q,
            metrics,
            cache,
        })
    }

    /// Vertex count `n`.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Stored block side `b`.
    pub fn block_size(&self) -> usize {
        self.b
    }

    /// Blocks per side (`q = ⌈n / b⌉`).
    pub fn blocks_per_side(&self) -> usize {
        self.q
    }

    /// The workload this closure answers.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Whether the store carries a via plane (witness paths).
    pub fn tracked(&self) -> bool {
        self.tracked
    }

    /// Whether the closure was solved over a directed input.
    pub fn directed(&self) -> bool {
        self.directed
    }

    /// The solver that produced the stored closure.
    pub fn solver(&self) -> SolverId {
        self.solver
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Point-in-time copy of this store's counters — `store_cache_hits`,
    /// `store_cache_misses`, `store_cache_evictions`,
    /// `store_blocks_read`, `store_bytes_read`.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The configured cache budget in bytes.
    pub fn cache_budget_bytes(&self) -> u64 {
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .budget_bytes()
    }

    fn check_node(&self, what: &str, id: usize) -> Result<(), ApspError> {
        if id >= self.n {
            return Err(ApspError::InvalidInput(format!(
                "{what} node id {id} is out of range for n = {}",
                self.n
            )));
        }
        Ok(())
    }

    /// Loads (or re-uses) the decoded block `(bi, bj)` through the cache.
    fn block(&self, bi: usize, bj: usize) -> Result<Arc<StoredBlock>, ApspError> {
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(blk) = cache.get(&(bi, bj)) {
            return Ok(blk);
        }
        let name = block_file(bi, bj);
        let path = self.dir.join(&name);
        let raw = std::fs::read(&path)
            .map_err(|e| store_err(format!("cannot read store block '{}': {e}", path.display())))?;
        self.metrics
            .store_blocks_read
            .fetch_add(1, Ordering::Relaxed);
        self.metrics
            .store_bytes_read
            .fetch_add(raw.len() as u64, Ordering::Relaxed);
        let blk = self.decode_block(&name, &raw, bi, bj)?;
        let weight = blk.size_bytes();
        Ok(cache.insert((bi, bj), blk, weight))
    }

    fn decode_block(
        &self,
        name: &str,
        raw: &[u8],
        bi: usize,
        bj: usize,
    ) -> Result<StoredBlock, ApspError> {
        let (kind, mut body) = unframe(raw).map_err(|e| frame_err("store block", name, e))?;
        if kind != FRAME_KIND_BLOCK {
            return Err(frame_err("store block", name, DecodeError::BadKind(kind)));
        }
        if body.remaining() < 16 {
            return Err(frame_err(
                "store block",
                name,
                DecodeError::Truncated {
                    expected: 16,
                    actual: body.remaining(),
                },
            ));
        }
        let (got_bi, got_bj) = (body.get_u32_le() as usize, body.get_u32_le() as usize);
        if (got_bi, got_bj) != (bi, bj) {
            return Err(store_err(format!(
                "store block '{name}' is keyed ({bi}, {bj}) but stamped ({got_bi}, {got_bj})"
            )));
        }
        let side = body.get_u64_le();
        if side != self.b as u64 {
            return Err(store_err(format!(
                "store block '{name}' has side {side}, but the manifest declares b = {}",
                self.b
            )));
        }
        let cells = self.b * self.b;
        let values = match self.workload {
            Workload::Reachability => Plane::Bool(
                decode_plane::<bool>(&mut body, cells)
                    .map_err(|e| frame_err("store block", name, e))?,
            ),
            _ => Plane::F64(
                decode_plane::<f64>(&mut body, cells)
                    .map_err(|e| frame_err("store block", name, e))?,
            ),
        };
        let vias = if self.tracked {
            Some(
                decode_plane::<u32>(&mut body, cells)
                    .map_err(|e| frame_err("store block", name, e))?,
            )
        } else {
            None
        };
        Ok(StoredBlock {
            side: self.b,
            values,
            vias,
        })
    }

    /// The numeric value of closure cell `(u, v)` under the submatrix
    /// conventions: distances ([`INF`] when unreachable), widths (`0.0`
    /// when unreachable), or `1.0`/`0.0` reachability cells.
    pub fn cell(&self, u: usize, v: usize) -> Result<f64, ApspError> {
        self.check_node("source", u)?;
        self.check_node("target", v)?;
        let blk = self.block(u / self.b, v / self.b)?;
        let idx = (u % self.b) * blk.side + (v % self.b);
        Ok(match &blk.values {
            Plane::F64(vals) => vals[idx],
            Plane::Bool(vals) => {
                if vals[idx] {
                    1.0
                } else {
                    0.0
                }
            }
        })
    }

    /// Whether `v` is reachable from `u` in the stored closure.
    pub fn reachable(&self, u: usize, v: usize) -> Result<bool, ApspError> {
        let cell = self.cell(u, v)?;
        Ok(match self.workload {
            Workload::ShortestPaths => cell.is_finite(),
            Workload::Widest => cell > 0.0,
            Workload::Reachability => cell == 1.0,
        })
    }

    /// The stored via (interior vertex) of cell `(u, v)`, or `Ok(None)`
    /// when the best path is a direct edge. Errors on untracked stores.
    pub fn via(&self, u: usize, v: usize) -> Result<Option<NodeId>, ApspError> {
        self.check_node("source", u)?;
        self.check_node("target", v)?;
        let blk = self.block(u / self.b, v / self.b)?;
        let Some(vias) = &blk.vias else {
            return Err(store_err(
                "store has no via plane (saved from an untracked solve)".to_string(),
            ));
        };
        let idx = (u % self.b) * blk.side + (v % self.b);
        Ok(match vias[idx] {
            NO_VIA => None,
            k => Some(k),
        })
    }

    /// Reconstructs a witness path `u → v` from the stored via plane,
    /// loading only the blocks the expansion touches. `Ok(None)` when the
    /// store is untracked or `v` is unreachable.
    pub fn path(&self, u: usize, v: usize) -> Result<Option<Vec<NodeId>>, ApspError> {
        self.check_node("source", u)?;
        self.check_node("target", v)?;
        if !self.tracked || !self.reachable(u, v)? {
            return Ok(None);
        }
        match expand_vias_with(u, v, self.n, |a, b| self.via(a, b))? {
            Some(path) => Ok(Some(path)),
            None => Err(store_err(format!(
                "via expansion for ({u}, {v}) does not terminate — the stored via plane is corrupt"
            ))),
        }
    }
}

impl std::fmt::Debug for ClosureStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClosureStore")
            .field("dir", &self.dir)
            .field("workload", &self.workload)
            .field("tracked", &self.tracked)
            .field("n", &self.n)
            .field("b", &self.b)
            .field("q", &self.q)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Checkpoint finalization
// ---------------------------------------------------------------------------

/// Converts a **finished** checkpoint directory (latest committed round =
/// the final engine round, i.e. the state *is* the closure) into a
/// committed store under `store_dir`, without re-solving. Blocks stream
/// through one at a time: the checkpoint's upper triangle is mirrored
/// into the store's full grid by transposition (valid because the engine
/// solvers are undirected).
///
/// Typical use: a solve ran to completion with `--checkpoint-every 1` but
/// the process died after the last round barrier — the checkpoint holds
/// the whole answer, and this turns it into a queryable store.
pub fn finalize_checkpoint(
    ckpt_dir: impl AsRef<Path>,
    store_dir: impl AsRef<Path>,
) -> Result<(), ApspError> {
    let ckpt_dir = ckpt_dir.as_ref();
    let store_dir = store_dir.as_ref();
    let round = latest_checkpoint_round(ckpt_dir)?.ok_or_else(|| {
        store_err(format!(
            "no committed checkpoint round under '{}'",
            ckpt_dir.display()
        ))
    })?;
    let mkey = checkpoint::meta_key(round);
    let raw = read_ckpt_blob(ckpt_dir, &mkey)?;
    let (kind, body) = unframe(&raw).map_err(|e| frame_err("checkpoint manifest", &mkey, e))?;
    if kind != FRAME_KIND_MANIFEST {
        return Err(frame_err(
            "checkpoint manifest",
            &mkey,
            DecodeError::BadKind(kind),
        ));
    }
    let m = CkptManifest::decode(body).map_err(|e| frame_err("checkpoint manifest", &mkey, e))?;
    if m.round + 1 != m.total_rounds {
        return Err(store_err(format!(
            "checkpoint under '{}' is mid-solve (round {} of {}): resume and finish the \
             solve before finalizing it into a store",
            ckpt_dir.display(),
            m.round + 1,
            m.total_rounds
        )));
    }
    match m.algebra.as_str() {
        "tropical" => finalize_as::<Tropical>(ckpt_dir, store_dir, &m, Workload::ShortestPaths),
        "tropical+argmin" => {
            finalize_as::<TrackedTropical>(ckpt_dir, store_dir, &m, Workload::ShortestPaths)
        }
        "bottleneck" => finalize_as::<Widest>(ckpt_dir, store_dir, &m, Workload::Widest),
        "bottleneck+argmax" => {
            finalize_as::<TrackedWidest>(ckpt_dir, store_dir, &m, Workload::Widest)
        }
        "boolean" => finalize_as::<Reachability>(ckpt_dir, store_dir, &m, Workload::Reachability),
        "boolean+via" => {
            finalize_as::<TrackedReachability>(ckpt_dir, store_dir, &m, Workload::Reachability)
        }
        other => Err(store_err(format!(
            "checkpoint algebra '{other}' has no store finalization"
        ))),
    }
}

/// Latest committed round in a checkpoint directory, by manifest file.
/// Checkpoint keys contain no characters the disk side channel rewrites,
/// so blob file names equal their keys.
fn latest_checkpoint_round(dir: &Path) -> Result<Option<usize>, ApspError> {
    let entries = std::fs::read_dir(dir).map_err(|e| {
        store_err(format!(
            "cannot list checkpoint directory '{}': {e}",
            dir.display()
        ))
    })?;
    let mut latest = None;
    for entry in entries {
        let entry =
            entry.map_err(|e| store_err(format!("cannot list '{}': {e}", dir.display())))?;
        let name = entry.file_name();
        let Some(round) = name
            .to_str()
            .and_then(|n| n.strip_prefix("ckpt-meta-"))
            .and_then(|r| r.parse::<usize>().ok())
        else {
            continue;
        };
        latest = Some(latest.map_or(round, |cur: usize| cur.max(round)));
    }
    Ok(latest)
}

fn read_ckpt_blob(dir: &Path, key: &str) -> Result<Vec<u8>, ApspError> {
    let path = dir.join(key);
    std::fs::read(&path).map_err(|e| {
        store_err(format!(
            "cannot read checkpoint blob '{}': {e}",
            path.display()
        ))
    })
}

/// Value-plane extraction per semiring element type, for checkpoint
/// finalization (monomorphized by algebra).
trait PlaneElem: Copy {
    fn to_plane(vals: &[Self]) -> Plane;
}

impl PlaneElem for f64 {
    fn to_plane(vals: &[Self]) -> Plane {
        Plane::F64(vals.to_vec())
    }
}

impl PlaneElem for bool {
    fn to_plane(vals: &[Self]) -> Plane {
        Plane::Bool(vals.to_vec())
    }
}

/// Via-plane extraction per payload type: tracked algebras carry `u32`
/// vias, untracked algebras carry `()` and store no plane.
trait ViaPayload: Copy {
    fn to_vias(pays: &[Self]) -> Option<Vec<u32>>;
}

impl ViaPayload for () {
    fn to_vias(_: &[Self]) -> Option<Vec<u32>> {
        None
    }
}

impl ViaPayload for u32 {
    fn to_vias(pays: &[Self]) -> Option<Vec<u32>> {
        Some(pays.to_vec())
    }
}

fn finalize_as<A: PathAlgebra>(
    ckpt_dir: &Path,
    store_dir: &Path,
    m: &CkptManifest,
    workload: Workload,
) -> Result<(), ApspError>
where
    apsp_blockmat::algebra::Elem<A>: PlaneElem + Wire,
    A::Payload: ViaPayload + Wire,
{
    let solver = solver_from_tag(&m.solver).ok_or_else(|| {
        store_err(format!(
            "checkpoint names solver '{}', which has no store tag",
            m.solver
        ))
    })?;
    if m.n == 0 || m.b == 0 || m.n > MAX_STORE_DIM || m.b > m.n {
        return Err(store_err(format!(
            "checkpoint manifest declares implausible geometry: n = {}, b = {}",
            m.n, m.b
        )));
    }
    let (n, b) = (m.n as usize, m.b as usize);
    let q = n.div_ceil(b);
    if m.q != q as u64 {
        return Err(store_err(format!(
            "checkpoint manifest geometry mismatch: n = {n}, b = {b} imply q = {q}, \
             manifest declares q = {}",
            m.q
        )));
    }
    let round = m.round as usize;
    let writer = StoreWriter::begin(store_dir)?;
    for bi in 0..q {
        for bj in bi..q {
            let key = checkpoint::block_key(round, bi, bj);
            let raw = read_ckpt_blob(ckpt_dir, &key)?;
            let (kind, mut body) =
                unframe(&raw).map_err(|e| frame_err("checkpoint block", &key, e))?;
            if kind != FRAME_KIND_BLOCK {
                return Err(frame_err(
                    "checkpoint block",
                    &key,
                    DecodeError::BadKind(kind),
                ));
            }
            if body.remaining() < 8 {
                return Err(frame_err(
                    "checkpoint block",
                    &key,
                    DecodeError::Truncated {
                        expected: 8,
                        actual: body.remaining(),
                    },
                ));
            }
            let (got_bi, got_bj) = (body.get_u32_le() as usize, body.get_u32_le() as usize);
            if (got_bi, got_bj) != (bi, bj) {
                return Err(store_err(format!(
                    "checkpoint block '{key}' is keyed ({bi}, {bj}) but stamped \
                     ({got_bi}, {got_bj})"
                )));
            }
            let ab = AlgBlock::<A>::from_wire_bytes(body)
                .map_err(|e| frame_err("checkpoint block", &key, e))?;
            if ab.side() != b {
                return Err(store_err(format!(
                    "checkpoint block '{key}' has side {}, expected b = {b}",
                    ab.side()
                )));
            }
            let values = PlaneElem::to_plane(ab.dist().data());
            let vias = ViaPayload::to_vias(ab.via().data());
            writer.put_block(bi, bj, b, &values, vias.as_deref())?;
            if bi != bj {
                // The engine stores only the upper triangle; the lower
                // block is its transpose (undirected instances only,
                // which is all the engine solvers accept).
                let t = ab.transpose();
                let values = PlaneElem::to_plane(t.dist().data());
                let vias = ViaPayload::to_vias(t.via().data());
                writer.put_block(bj, bi, b, &values, vias.as_deref())?;
            }
        }
    }
    writer.commit(&StoreManifest {
        workload: workload.label().to_string(),
        solver: solver_tag(solver).to_string(),
        tracked: A::TRACKS,
        directed: false,
        n: n as u64,
        b: b as u64,
        q: q as u64,
        block_count: (q * q) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_roundtrips() {
        let m = StoreManifest {
            workload: "shortest-paths".into(),
            solver: "cb".into(),
            tracked: true,
            directed: false,
            n: 129,
            b: 64,
            q: 3,
            block_count: 9,
        };
        let decoded = StoreManifest::decode(&m.encode()).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn truncated_manifest_is_typed() {
        let m = StoreManifest {
            workload: "widest-paths".into(),
            solver: "rs".into(),
            tracked: false,
            directed: false,
            n: 64,
            b: 16,
            q: 4,
            block_count: 16,
        };
        let enc = m.encode();
        for cut in [0, 3, 7, enc.len() - 1] {
            assert!(matches!(
                StoreManifest::decode(&enc[..cut]),
                Err(DecodeError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn solver_tags_roundtrip() {
        for id in SolverId::ALL {
            assert_eq!(solver_from_tag(solver_tag(id)), Some(id));
        }
        assert_eq!(solver_from_tag("warp-drive"), None);
    }

    #[test]
    fn workload_labels_roundtrip() {
        for w in [
            Workload::ShortestPaths,
            Workload::Widest,
            Workload::Reachability,
        ] {
            assert_eq!(workload_from_label(w.label()), Some(w));
        }
        assert_eq!(workload_from_label("chromatic"), None);
    }

    #[test]
    fn open_missing_dir_is_typed() {
        let err = ClosureStore::open("/nonexistent/apsp-store").unwrap_err();
        assert!(matches!(err, ApspError::Store(_)));
    }
}
