//! The service's solve-job subsystem: a bounded queue of [`JobSpec`]s, a
//! worker pool that runs them through [`crate::plan::Problem`], and a
//! registry of finished [`Solution`]s that point queries answer from.
//!
//! The queue is *bounded by design*: [`JobQueue::submit`] refuses work
//! once `queued + running` reaches the configured depth, which the HTTP
//! layer surfaces as `429 Too Many Requests` — backpressure instead of
//! unbounded buffering. Every job gets its own [`SparkContext`] (own
//! [`CancelToken`], own [`CheckpointSignal`], own side channel) built
//! over the *shared* server [`Metrics`], so `GET /metrics` aggregates all
//! jobs while cancellation and checkpointing stay per-job:
//!
//! * `DELETE /jobs/<id>` trips the job's cancel token; the engine refuses
//!   the next task launch with `SparkError::Cancelled`, pre-empting the
//!   retry/backoff budget (the PR 7 chaos/retry layer's hook).
//! * Graceful shutdown fires the job's checkpoint signal first, so the
//!   solve commits a round-granular snapshot before the cancel lands and
//!   a later `POST /solve` with `"resume_from"` can continue it.

use crate::checkpoint::{CheckpointSignal, CheckpointSpec};
use crate::plan::{Problem, Solution, SolverId, Workload};
use crate::solver::ApspError;
use apsp_graph::{generators, io};
use parking_lot::Mutex;
use serde::Value;
use sparklet::{CancelToken, Metrics, SparkConfig, SparkContext, SparkError};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Maps the CLI/JSON solver short names (`cb`, `im`, `fw2d`, …) to
/// [`SolverId`]s. One table for the `apspark solve` flag, the `POST
/// /solve` body, and anything else that names solvers in text: the
/// closure store's on-disk tags, plus the `sparse` alias.
pub fn solver_by_name(name: &str) -> Option<SolverId> {
    match name {
        "sparse" => Some(SolverId::SparseHierarchical),
        tag => crate::store::solver_from_tag(tag),
    }
}

/// Maps workload labels (`shortest-paths`, `widest-paths`,
/// `reachability`) back to [`Workload`]s — the inverse of
/// [`Workload::label`], plus a couple of forgiving aliases.
pub fn workload_by_name(name: &str) -> Option<Workload> {
    match name {
        "shortest-paths" | "shortest" | "apsp" => Some(Workload::ShortestPaths),
        "widest-paths" | "widest" => Some(Workload::Widest),
        "reachability" | "reach" => Some(Workload::Reachability),
        _ => None,
    }
}

/// Where a solve job's graph comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSource {
    /// An Erdős–Rényi instance from the paper's generator family.
    Generator {
        /// Vertex count.
        n: usize,
        /// Edge probability; defaults to the paper's `p(n, 0.1)` scaling
        /// when absent.
        p: Option<f64>,
        /// Generator seed.
        seed: u64,
    },
    /// An edge-list file on the server's filesystem.
    File {
        /// Path to the edge list.
        path: PathBuf,
    },
}

/// A parsed `POST /solve` request body: everything the worker needs to
/// build a [`Problem`] and run it.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The input graph.
    pub source: GraphSource,
    /// Whether the input is directed.
    pub directed: bool,
    /// Which closure to compute.
    pub workload: Workload,
    /// Track witness paths (enables `/path` queries on the result).
    pub paths: bool,
    /// Explicit block size; planner-tuned when absent.
    pub block_size: Option<usize>,
    /// Solver preference; planner's choice when absent.
    pub solver: Option<SolverId>,
    /// Resume from a committed checkpoint directory (as reported by a
    /// graceful shutdown) instead of starting from round 0.
    pub resume_from: Option<PathBuf>,
}

impl JobSpec {
    /// Parses a `POST /solve` JSON body. The shape:
    ///
    /// ```json
    /// {
    ///   "graph": {"n": 96, "p": 0.1, "seed": 7} ,
    ///   "workload": "shortest-paths",
    ///   "paths": true,
    ///   "block_size": 32,
    ///   "solver": "cb",
    ///   "directed": false,
    ///   "resume_from": "/tmp/apspark-serve/job-x/ckpt"
    /// }
    /// ```
    ///
    /// `graph` may instead be `{"file": "/path/to/edges.txt"}`. Only
    /// `graph` is required. Errors are human-readable strings the HTTP
    /// layer returns verbatim inside a `400` body.
    pub fn from_json(v: &Value) -> Result<JobSpec, String> {
        let graph = v.get("graph").ok_or("missing required field 'graph'")?;
        let source = if let Some(path) = graph.get("file") {
            let path = path.as_str().ok_or("'graph.file' must be a string path")?;
            GraphSource::File { path: path.into() }
        } else {
            let n = graph
                .get("n")
                .and_then(Value::as_usize)
                .ok_or("'graph' needs either a 'file' path or a generator size 'n'")?;
            if n == 0 {
                return Err("'graph.n' must be at least 1".into());
            }
            let p = match graph.get("p") {
                None => None,
                Some(p) => {
                    let p = p.as_f64().ok_or("'graph.p' must be a number")?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err("'graph.p' must be in [0, 1]".into());
                    }
                    Some(p)
                }
            };
            let seed = match graph.get("seed") {
                None => 42,
                Some(s) => s
                    .as_u64()
                    .ok_or("'graph.seed' must be a non-negative integer")?,
            };
            GraphSource::Generator { n, p, seed }
        };
        let workload = match v.get("workload") {
            None => Workload::ShortestPaths,
            Some(w) => {
                let name = w.as_str().ok_or("'workload' must be a string")?;
                workload_by_name(name).ok_or_else(|| {
                    format!(
                        "unknown workload '{name}' (shortest-paths | widest-paths | reachability)"
                    )
                })?
            }
        };
        let paths = match v.get("paths") {
            None => false,
            Some(p) => p.as_bool().ok_or("'paths' must be a boolean")?,
        };
        let block_size = match v.get("block_size") {
            None => None,
            Some(b) => {
                let b = b
                    .as_usize()
                    .ok_or("'block_size' must be a positive integer")?;
                if b == 0 {
                    return Err("'block_size' must be at least 1".into());
                }
                Some(b)
            }
        };
        let solver = match v.get("solver") {
            None => None,
            Some(s) => {
                let name = s.as_str().ok_or("'solver' must be a string")?;
                Some(solver_by_name(name).ok_or_else(|| format!("unknown solver '{name}'"))?)
            }
        };
        let directed = match v.get("directed") {
            None => false,
            Some(d) => d.as_bool().ok_or("'directed' must be a boolean")?,
        };
        let resume_from = match v.get("resume_from") {
            None => None,
            Some(r) => Some(PathBuf::from(
                r.as_str()
                    .ok_or("'resume_from' must be a directory path string")?,
            )),
        };
        Ok(JobSpec {
            source,
            directed,
            workload,
            paths,
            block_size,
            solver,
            resume_from,
        })
    }

    /// Whether this job can carry a round-granular checkpoint spec: the
    /// planner's default choice and any preferred solver with the
    /// `checkpoints` capability can, on undirected input (directed
    /// inputs run on the full grid, which has no checkpoint format).
    fn checkpointable(&self) -> bool {
        !self.directed && self.solver.is_none_or(|s| s.capabilities().checkpoints)
    }
}

/// Lifecycle state of a solve job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is solving it.
    Running,
    /// Finished; its [`Solution`] is registered for point queries.
    Done,
    /// Failed with an error.
    Failed,
    /// Cancelled (while queued, by `DELETE`, or by shutdown).
    Cancelled,
}

impl JobState {
    /// Lowercase label used in status JSON.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job can still change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// A point-in-time public view of one job, renderable as status JSON.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job id, as returned by `POST /solve`.
    pub id: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// Workload of the underlying spec.
    pub workload: Workload,
    /// Vertex count, once known (generator specs know it up front,
    /// file specs after loading).
    pub n: Option<usize>,
    /// Solve wall-clock seconds, once finished.
    pub elapsed_s: Option<f64>,
    /// Error text for [`JobState::Failed`] jobs.
    pub error: Option<String>,
    /// Checkpoint directory holding a committed, resumable round — set
    /// when a shutdown interrupted this job after a checkpoint landed.
    pub checkpoint_dir: Option<PathBuf>,
}

impl JobStatus {
    /// Renders the status as the `GET /jobs/<id>` JSON body.
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("id".to_string(), Value::Str(self.id.clone())),
            ("state".to_string(), Value::Str(self.state.label().into())),
            (
                "workload".to_string(),
                Value::Str(self.workload.label().into()),
            ),
        ];
        if let Some(n) = self.n {
            fields.push(("n".to_string(), Value::UInt(n as u64)));
        }
        if let Some(s) = self.elapsed_s {
            fields.push(("elapsed_s".to_string(), Value::Float(s)));
        }
        if let Some(e) = &self.error {
            fields.push(("error".to_string(), Value::Str(e.clone())));
        }
        if let Some(dir) = &self.checkpoint_dir {
            fields.push((
                "checkpoint_dir".to_string(),
                Value::Str(dir.display().to_string()),
            ));
        }
        Value::Object(fields)
    }
}

/// Everything the queue tracks per job.
struct Job {
    spec: JobSpec,
    state: JobState,
    cancel: CancelToken,
    signal: CheckpointSignal,
    checkpoint_dir: PathBuf,
    n: Option<usize>,
    elapsed_s: Option<f64>,
    error: Option<String>,
    /// Set once a shutdown confirmed a committed round under
    /// `checkpoint_dir`.
    resumable: bool,
    /// Admission order, for FIFO dispatch and "latest finished" defaults.
    seq: u64,
}

struct QueueState {
    pending: VecDeque<String>,
    jobs: HashMap<String, Job>,
    next_seq: u64,
}

/// Outcome of a cancellation request (`DELETE /jobs/<id>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued; it will never run.
    CancelledQueued,
    /// The job was running; its cancel token is tripped and the engine
    /// will refuse the next task launch.
    CancellingRunning,
    /// The job already reached a terminal state; nothing to cancel.
    AlreadyFinished(JobState),
    /// No such job.
    NotFound,
}

/// A running job's control handles, as seen by shutdown.
pub(crate) struct RunningJob {
    pub(crate) id: String,
    pub(crate) signal: CheckpointSignal,
    pub(crate) cancel: CancelToken,
    pub(crate) checkpoint_dir: PathBuf,
}

/// The bounded solve-job queue. Shared between the HTTP handlers
/// (submit/status/cancel) and the worker pool (claim/complete).
pub struct JobQueue {
    state: Mutex<QueueState>,
    capacity: usize,
    metrics: Arc<Metrics>,
    /// Root directory for per-job checkpoint dirs.
    work_dir: PathBuf,
}

impl JobQueue {
    /// An empty queue admitting at most `capacity` unfinished jobs
    /// (queued + running), charging counters to `metrics`, and placing
    /// per-job checkpoint directories under `work_dir`.
    pub fn new(capacity: usize, metrics: Arc<Metrics>, work_dir: PathBuf) -> JobQueue {
        JobQueue {
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                jobs: HashMap::new(),
                next_seq: 0,
            }),
            capacity: capacity.max(1),
            metrics,
            work_dir,
        }
    }

    /// Unfinished jobs (queued + running).
    pub fn depth(&self) -> usize {
        let s = self.state.lock();
        s.jobs.values().filter(|j| !j.state.is_terminal()).count()
    }

    /// Admission capacity (queued + running bound).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admits a job, or refuses it when the queue is full (the HTTP
    /// layer's `429`). Returns the new job id.
    pub fn submit(&self, spec: JobSpec) -> Result<String, QueueFull> {
        let mut s = self.state.lock();
        let depth = s.jobs.values().filter(|j| !j.state.is_terminal()).count();
        if depth >= self.capacity {
            self.metrics.note_job_rejected();
            return Err(QueueFull {
                depth,
                capacity: self.capacity,
            });
        }
        let seq = s.next_seq;
        s.next_seq += 1;
        let id = job_id(seq);
        let checkpoint_dir = self.work_dir.join(format!("job-{id}")).join("ckpt");
        s.pending.push_back(id.clone());
        let n = match &spec.source {
            GraphSource::Generator { n, .. } => Some(*n),
            GraphSource::File { .. } => None,
        };
        s.jobs.insert(
            id.clone(),
            Job {
                spec,
                state: JobState::Queued,
                cancel: CancelToken::new(),
                signal: CheckpointSignal::new(),
                checkpoint_dir,
                n,
                elapsed_s: None,
                error: None,
                resumable: false,
                seq,
            },
        );
        self.metrics.note_job_queued(depth as u64 + 1);
        Ok(id)
    }

    /// Pops the oldest queued job and marks it running. Called by
    /// workers; `None` when nothing is pending.
    pub(crate) fn claim_next(
        &self,
    ) -> Option<(String, JobSpec, CancelToken, CheckpointSignal, PathBuf)> {
        let mut s = self.state.lock();
        loop {
            let id = s.pending.pop_front()?;
            if let Some(job) = s.jobs.get_mut(&id) {
                // A queued job cancelled via DELETE never runs.
                if job.state != JobState::Queued {
                    continue;
                }
                job.state = JobState::Running;
                return Some((
                    id,
                    job.spec.clone(),
                    job.cancel.clone(),
                    job.signal.clone(),
                    job.checkpoint_dir.clone(),
                ));
            }
        }
    }

    /// Records a finished solve (worker side).
    pub(crate) fn complete(&self, id: &str, n: usize, elapsed_s: f64) {
        let mut s = self.state.lock();
        if let Some(job) = s.jobs.get_mut(id) {
            job.state = JobState::Done;
            job.n = Some(n);
            job.elapsed_s = Some(elapsed_s);
        }
    }

    /// Records a failed or cancelled solve (worker side). Cancellation is
    /// recognized by unwrapping the engine error to
    /// [`SparkError::Cancelled`].
    pub(crate) fn finish_err(&self, id: &str, err: &ApspError) {
        let cancelled = matches!(
            err,
            ApspError::Engine(e) if matches!(e.root(), SparkError::Cancelled { .. })
        );
        let mut s = self.state.lock();
        if let Some(job) = s.jobs.get_mut(id) {
            if cancelled {
                job.state = JobState::Cancelled;
            } else {
                job.state = JobState::Failed;
                job.error = Some(err.to_string());
            }
        }
    }

    /// Marks a committed checkpoint under the job's directory, making an
    /// interrupted job resumable (shutdown side).
    pub(crate) fn mark_resumable(&self, id: &str) {
        let mut s = self.state.lock();
        if let Some(job) = s.jobs.get_mut(id) {
            job.resumable = true;
        }
    }

    /// Requests cancellation of a job (the `DELETE /jobs/<id>` handler).
    pub fn cancel(&self, id: &str) -> CancelOutcome {
        let mut s = self.state.lock();
        let Some(job) = s.jobs.get_mut(id) else {
            return CancelOutcome::NotFound;
        };
        match job.state {
            JobState::Queued => {
                job.state = JobState::Cancelled;
                self.metrics.note_job_cancelled();
                CancelOutcome::CancelledQueued
            }
            JobState::Running => {
                job.cancel.cancel();
                self.metrics.note_job_cancelled();
                CancelOutcome::CancellingRunning
            }
            terminal => CancelOutcome::AlreadyFinished(terminal),
        }
    }

    /// The public status view of one job.
    pub fn status(&self, id: &str) -> Option<JobStatus> {
        let s = self.state.lock();
        s.jobs.get(id).map(|job| self.status_of(id, job))
    }

    /// Status of every known job, oldest first.
    pub fn list(&self) -> Vec<JobStatus> {
        let s = self.state.lock();
        let mut entries: Vec<(&String, &Job)> = s.jobs.iter().collect();
        entries.sort_by_key(|(_, job)| job.seq);
        entries
            .into_iter()
            .map(|(id, job)| self.status_of(id, job))
            .collect()
    }

    fn status_of(&self, id: &str, job: &Job) -> JobStatus {
        JobStatus {
            id: id.to_string(),
            state: job.state,
            workload: job.spec.workload,
            n: job.n,
            elapsed_s: job.elapsed_s,
            error: job.error.clone(),
            checkpoint_dir: job.resumable.then(|| job.checkpoint_dir.clone()),
        }
    }

    /// Control handles of every currently running job (shutdown side).
    pub(crate) fn running(&self) -> Vec<RunningJob> {
        let s = self.state.lock();
        s.jobs
            .iter()
            .filter(|(_, job)| job.state == JobState::Running)
            .map(|(id, job)| RunningJob {
                id: id.clone(),
                signal: job.signal.clone(),
                cancel: job.cancel.clone(),
                checkpoint_dir: job.checkpoint_dir.clone(),
            })
            .collect()
    }

    /// Whether `id`'s job is in a terminal state (or unknown).
    pub(crate) fn is_settled(&self, id: &str) -> bool {
        let s = self.state.lock();
        s.jobs.get(id).is_none_or(|job| job.state.is_terminal())
    }
}

/// `submit` refusal: the queue already holds `depth` unfinished jobs
/// against a bound of `capacity`.
#[derive(Debug, Clone, Copy)]
pub struct QueueFull {
    /// Unfinished jobs at refusal time.
    pub depth: usize,
    /// The configured bound.
    pub capacity: usize,
}

/// Registry of finished [`Solution`]s, keyed by job id (plus the
/// reserved `"store"` key for a `--store`-opened solution). Point
/// queries resolve against it.
pub struct SolutionRegistry {
    inner: Mutex<RegistryInner>,
}

struct RegistryInner {
    solutions: HashMap<String, Arc<Solution>>,
    /// Most recently registered job id (not the store), the default
    /// query target when no store is mounted.
    latest_job: Option<String>,
}

/// The reserved registry key for the store-backed solution the server
/// was started with (`apspark serve --store DIR`).
pub const STORE_SOLUTION_KEY: &str = "store";

impl SolutionRegistry {
    /// An empty registry.
    pub fn new() -> SolutionRegistry {
        SolutionRegistry {
            inner: Mutex::new(RegistryInner {
                solutions: HashMap::new(),
                latest_job: None,
            }),
        }
    }

    /// Registers a solution under `key`. Job completions update the
    /// "latest" default; the store key does not (an explicitly mounted
    /// store stays the default).
    pub fn register(&self, key: &str, solution: Arc<Solution>) {
        let mut inner = self.inner.lock();
        inner.solutions.insert(key.to_string(), solution);
        if key != STORE_SOLUTION_KEY {
            inner.latest_job = Some(key.to_string());
        }
    }

    /// The solution registered under `key`, if any.
    pub fn get(&self, key: &str) -> Option<Arc<Solution>> {
        self.inner.lock().solutions.get(key).cloned()
    }

    /// The default query target: the mounted store if present, else the
    /// most recently finished job's solution.
    pub fn default_solution(&self) -> Option<Arc<Solution>> {
        let inner = self.inner.lock();
        if let Some(sol) = inner.solutions.get(STORE_SOLUTION_KEY) {
            return Some(sol.clone());
        }
        inner
            .latest_job
            .as_ref()
            .and_then(|id| inner.solutions.get(id))
            .cloned()
    }
}

impl Default for SolutionRegistry {
    fn default() -> Self {
        SolutionRegistry::new()
    }
}

/// Pseudo-UUID job ids: FNV-1a over (pid, admission seq), rendered as
/// 16 hex digits. Unique within a server and overwhelmingly unlikely to
/// collide across restarts sharing a work dir.
fn job_id(seq: u64) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for byte in std::process::id()
        .to_le_bytes()
        .into_iter()
        .chain(seq.to_le_bytes())
    {
        h ^= byte as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}")
}

/// Runs one claimed job to completion: builds the graph, the
/// [`Problem`], a dedicated [`SparkContext`] over `metrics`, installs
/// the cancel token and (when supported) the on-signal checkpoint spec,
/// and solves. The caller records the outcome on the queue.
pub(crate) fn run_job(
    spec: &JobSpec,
    cancel: CancelToken,
    signal: CheckpointSignal,
    checkpoint_dir: &Path,
    metrics: Arc<Metrics>,
    cores: usize,
) -> Result<Solution, ApspError> {
    let ctx = SparkContext::with_shared_metrics(SparkConfig::with_cores(cores), metrics);
    ctx.install_cancel_token(cancel);

    let (graph, digraph);
    let mut problem = match (&spec.source, spec.directed) {
        (GraphSource::Generator { n, p, seed }, false) => {
            let p = p.unwrap_or_else(|| generators::paper_edge_probability(*n, 0.1));
            graph = generators::erdos_renyi(*n, p, *seed);
            Problem::new(&graph)
        }
        (GraphSource::Generator { n, p, seed }, true) => {
            let p = p.unwrap_or_else(|| generators::paper_edge_probability(*n, 0.1));
            digraph = generators::erdos_renyi_directed(*n, p, *seed);
            Problem::from_digraph(&digraph)
        }
        (GraphSource::File { path }, false) => {
            graph = io::load_graph(path).map_err(|e| {
                ApspError::InvalidInput(format!("cannot load '{}': {e}", path.display()))
            })?;
            Problem::new(&graph)
        }
        (GraphSource::File { path }, true) => {
            digraph = io::load_digraph(path).map_err(|e| {
                ApspError::InvalidInput(format!("cannot load '{}': {e}", path.display()))
            })?;
            Problem::from_digraph(&digraph)
        }
    };
    problem = problem.workload(spec.workload).cores(cores);
    if spec.paths {
        problem = problem.with_paths();
    }
    if let Some(b) = spec.block_size {
        problem = problem.block_size(b);
    }
    if let Some(solver) = spec.solver {
        problem = problem.prefer(solver);
    }
    if spec.checkpointable() {
        // Checkpoint at the shutdown signal's next round barrier; resume
        // from a prior committed round when the spec carries one.
        let dir = spec
            .resume_from
            .clone()
            .unwrap_or_else(|| checkpoint_dir.to_path_buf());
        let mut ckpt = CheckpointSpec::on_signal(dir, signal);
        if spec.resume_from.is_some() {
            ckpt = ckpt.and_resume();
        }
        problem = problem.checkpoint(ckpt);
    }
    problem.solve(&ctx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> Arc<Metrics> {
        Arc::new(Metrics::default())
    }

    fn queue(capacity: usize) -> (JobQueue, Arc<Metrics>) {
        let m = metrics();
        let q = JobQueue::new(
            capacity,
            m.clone(),
            std::env::temp_dir().join("apspark-jobs-test"),
        );
        (q, m)
    }

    fn generator_spec(n: usize) -> JobSpec {
        JobSpec::from_json(&serde_json::from_str(&format!(r#"{{"graph": {{"n": {n}}}}}"#)).unwrap())
            .unwrap()
    }

    #[test]
    fn name_tables_accept_every_documented_spelling() {
        for (name, id) in [
            ("cb", SolverId::BlockedCollectBroadcast),
            ("im", SolverId::BlockedInMemory),
            ("fw2d", SolverId::FloydWarshall2D),
            ("rs", SolverId::RepeatedSquaring),
            ("cartesian", SolverId::CartesianSquaring),
            ("johnson", SolverId::DistributedJohnson),
            ("mpi-fw2d", SolverId::MpiFw2d),
            ("mpi-dc", SolverId::MpiDc),
            ("directed-cb", SolverId::DirectedBlockedCB),
            ("directed-fw2d", SolverId::DirectedFloydWarshall2D),
            ("hierarchical", SolverId::SparseHierarchical),
            ("sparse", SolverId::SparseHierarchical),
        ] {
            assert_eq!(solver_by_name(name), Some(id));
        }
        // One table: every solver is spellable by its store tag.
        for id in SolverId::ALL {
            assert_eq!(solver_by_name(crate::store::solver_tag(id)), Some(id));
        }
        assert_eq!(solver_by_name("quantum"), None);
        for (name, w) in [
            ("shortest-paths", Workload::ShortestPaths),
            ("widest-paths", Workload::Widest),
            ("widest", Workload::Widest),
            ("reachability", Workload::Reachability),
        ] {
            assert_eq!(workload_by_name(name), Some(w));
        }
        assert_eq!(workload_by_name("fastest"), None);
    }

    #[test]
    fn job_spec_parses_and_validates() {
        let spec = JobSpec::from_json(
            &serde_json::from_str(
                r#"{"graph": {"n": 64, "p": 0.2, "seed": 9}, "directed": true,
                    "workload": "widest", "paths": true, "block_size": 16,
                    "solver": "cb"}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert!(matches!(
            spec.source,
            GraphSource::Generator { n: 64, p: Some(p), seed: 9 } if p == 0.2
        ));
        assert!(spec.directed && spec.paths);
        assert_eq!(spec.workload, Workload::Widest);
        assert_eq!(spec.block_size, Some(16));
        assert_eq!(spec.solver, Some(SolverId::BlockedCollectBroadcast));

        for bad in [
            r#"{}"#,
            r#"{"graph": {}}"#,
            r#"{"graph": {"n": 0}}"#,
            r#"{"graph": {"n": 8, "p": 1.5}}"#,
            r#"{"graph": {"n": 8}, "solver": "quantum"}"#,
            r#"{"graph": {"n": 8}, "workload": "fastest"}"#,
            r#"{"graph": {"n": 8}, "block_size": 0}"#,
        ] {
            let v = serde_json::from_str(bad).unwrap();
            assert!(JobSpec::from_json(&v).is_err(), "{bad} was accepted");
        }
    }

    #[test]
    fn queue_bounds_admission_and_counts_rejections() {
        let (q, metrics) = queue(2);
        let a = q.submit(generator_spec(8)).unwrap();
        let b = q.submit(generator_spec(8)).unwrap();
        assert_ne!(a, b, "job ids must be unique");
        let err = q.submit(generator_spec(8)).unwrap_err();
        assert_eq!((err.depth, err.capacity), (2, 2));
        assert_eq!(q.depth(), 2);
        let m = metrics.snapshot();
        assert_eq!(
            (m.jobs_queued, m.jobs_rejected, m.queue_depth_peak),
            (2, 1, 2)
        );
    }

    #[test]
    fn cancelling_a_queued_job_frees_a_slot_and_skips_dispatch() {
        let (q, _metrics) = queue(1);
        let id = q.submit(generator_spec(8)).unwrap();
        assert!(matches!(q.cancel(&id), CancelOutcome::CancelledQueued));
        assert!(matches!(
            q.cancel(&id),
            CancelOutcome::AlreadyFinished(JobState::Cancelled)
        ));
        assert!(matches!(q.cancel("nope"), CancelOutcome::NotFound));
        // The slot is free again and the cancelled job is never handed
        // to a worker.
        assert_eq!(q.depth(), 0);
        q.submit(generator_spec(8)).unwrap();
        let (claimed, _, _, _, _) = q.claim_next().expect("second job dispatches");
        assert_ne!(claimed, id);
        assert!(q.claim_next().is_none());
        assert_eq!(
            q.status(&id).unwrap().state,
            JobState::Cancelled,
            "cancelled job keeps its terminal status"
        );
    }

    #[test]
    fn registry_prefers_the_store_then_the_latest_job() {
        let reg = SolutionRegistry::new();
        assert!(reg.default_solution().is_none());
        let g = apsp_graph::generators::erdos_renyi_paper(12, 0.5, 3);
        let ctx = SparkContext::new(SparkConfig::with_cores(2));
        let sol_a = Arc::new(Problem::new(&g).solve(&ctx).unwrap());
        let sol_b = Arc::new(Problem::new(&g).solve(&ctx).unwrap());
        reg.register("job-a", sol_a.clone());
        assert!(Arc::ptr_eq(&reg.default_solution().unwrap(), &sol_a));
        reg.register("job-b", sol_b.clone());
        assert!(Arc::ptr_eq(&reg.default_solution().unwrap(), &sol_b));
        // A mounted store outranks any job as the default, without
        // displacing per-job lookups.
        let sol_store = Arc::new(Problem::new(&g).solve(&ctx).unwrap());
        reg.register(STORE_SOLUTION_KEY, sol_store.clone());
        assert!(Arc::ptr_eq(&reg.default_solution().unwrap(), &sol_store));
        assert!(Arc::ptr_eq(&reg.get("job-a").unwrap(), &sol_a));
    }
}
