//! The multi-threaded TCP server hosting dense [`Deployment`]s and
//! open-domain [`SparseDeployment`]s side by side.
//!
//! # Threading model
//!
//! One acceptor thread pushes connections into a closable
//! [`WorkQueue`]; a fixed pool of connection workers pops them and
//! serves each connection to completion (frame in, frame out). Every
//! connection owns a private shard per hosted deployment — an
//! [`AggregatorShard`] for dense deployments, a [`SparseShard`] for
//! open-domain ones — so the submit fast path touches **no shared
//! lock** beyond its own shard. Checkpoint, query, answers,
//! heavy-hitter, and info requests run a *merge barrier*: every
//! connection shard is drained into the deployment's central ingestor.
//! Counts are exact integers, so the merge is commutative and the
//! result is **bit-identical** to a single connection having submitted
//! every batch — the serving extension of the repo's determinism
//! contract (asserted in `tests/server.rs`, `tests/restart.rs`, and
//! `tests/sparse_serve.rs`).
//!
//! # Durability
//!
//! With a snapshot directory configured, a checkpoint request persists
//! the deployment's `ldp-store` snapshot atomically (write to a
//! temporary file, then rename) — an `LDPS` stream record for dense
//! deployments, an `LDPS` sparse-checkpoint record for open-domain ones
//! — graceful shutdown persists a final snapshot for every hosted
//! deployment, and [`Server::host`] / [`Server::host_sparse`] resume
//! from an existing snapshot, whose binding fingerprint must match the
//! deployment or hosting fails with the store's typed
//! [`StoreError::BindingMismatch`].
//!
//! # No timeouts, by design
//!
//! The serve crate is subject to the repo's `wall-clock-free-core` lint:
//! library code takes no wall-clock readings, so sockets carry no read
//! timeouts. The daemon therefore trusts its network: an idle client
//! parks one worker until it hangs up. Front it with a proxy if exposed
//! beyond a trusted perimeter.

use std::fs;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use ldp::pipeline::{Deployment, StreamIngestor};
use ldp_core::protocol::{validate_reports, AggregatorShard};
use ldp_core::LdpError;
use ldp_parallel::WorkQueue;
use ldp_sparse::{
    decode_sparse_checkpoint, encode_sparse_checkpoint, SparseCheckpoint, SparseDeployment,
    SparseIngestor, SparseShard,
};
use ldp_store::StoreError;

use crate::wire::{read_frame, write_frame, DeploymentInfo, ErrorCode, Message};

/// Longest accepted deployment name (also used as a file stem).
const MAX_DEPLOYMENT_NAME: usize = 64;

/// Snapshot file extension under the configured directory.
const SNAPSHOT_EXT: &str = "ldpc";

/// A serving-layer failure (socket setup, hosting, persistence).
#[derive(Debug)]
pub enum ServeError {
    /// A socket or filesystem operation failed.
    Io(String),
    /// A snapshot failed to decode or bind (see [`StoreError`]).
    Store(StoreError),
    /// An aggregation operation failed (see [`LdpError`]).
    Ldp(LdpError),
    /// Two deployments were hosted under the same name.
    DuplicateDeployment(String),
    /// The deployment name is empty, too long, or contains characters
    /// outside `[A-Za-z0-9_-]` (names double as snapshot file stems).
    InvalidName(String),
    /// [`Server::run`] was called with no hosted deployment.
    NothingHosted,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(what) => write!(f, "i/o error: {what}"),
            ServeError::Store(e) => write!(f, "snapshot error: {e}"),
            ServeError::Ldp(e) => write!(f, "aggregation error: {e}"),
            ServeError::DuplicateDeployment(name) => {
                write!(f, "deployment {name:?} is already hosted")
            }
            ServeError::InvalidName(name) => write!(
                f,
                "invalid deployment name {name:?} (want 1–{MAX_DEPLOYMENT_NAME} chars of [A-Za-z0-9_-])"
            ),
            ServeError::NothingHosted => write!(f, "no deployment hosted"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Store(e) => Some(e),
            ServeError::Ldp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

impl From<LdpError> for ServeError {
    fn from(e: LdpError) -> Self {
        ServeError::Ldp(e)
    }
}

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port (read it back with
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Snapshot directory. `None` disables persistence: checkpoints
    /// still merge and serialize (the client gets the byte count) but
    /// nothing is written, and restarts start empty.
    pub dir: Option<PathBuf>,
    /// Connection worker threads; `0` picks a default from the compute
    /// pool's thread count. Each worker serves one connection at a time,
    /// so size this at least as large as the expected concurrent client
    /// count.
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            dir: None,
            workers: 0,
        }
    }
}

/// One connection's private ingestion state for one dense deployment.
#[derive(Debug)]
struct ConnShard {
    shard: AggregatorShard,
    batches: u64,
}

/// One connection's private ingestion state for one sparse deployment.
#[derive(Debug)]
struct SparseConnShard {
    shard: SparseShard,
    batches: u64,
}

/// One connection's slot for one hosted deployment, created lazily on
/// the first submit (index-parallel to `Shared::hosted`).
#[derive(Debug, Default, Clone)]
enum ConnSlot {
    /// Nothing submitted on this connection yet.
    #[default]
    Vacant,
    /// A dense deployment's private shard.
    Dense(Arc<Mutex<ConnShard>>),
    /// A sparse deployment's private shard.
    Sparse(Arc<Mutex<SparseConnShard>>),
}

/// The kind-specific half of one hosted deployment: its central
/// ingestor plus the live registry of per-connection shards the merge
/// barrier drains.
enum HostedKind {
    /// A dense (closed-domain) workload deployment.
    Dense {
        deployment: Deployment,
        central: Mutex<StreamIngestor>,
        conns: Mutex<Vec<Arc<Mutex<ConnShard>>>>,
    },
    /// An open-domain frequency-oracle deployment.
    Sparse {
        deployment: SparseDeployment,
        central: Mutex<SparseIngestor>,
        conns: Mutex<Vec<Arc<Mutex<SparseConnShard>>>>,
    },
}

/// One hosted deployment (dense or sparse) and its snapshot path.
struct Hosted {
    name: String,
    kind: HostedKind,
    path: Option<PathBuf>,
}

impl std::fmt::Debug for Hosted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hosted")
            .field("name", &self.name)
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

/// Locks a serve-state mutex. A poisoned lock means a worker panicked
/// mid-merge and the aggregation state can no longer be trusted;
/// propagating the panic is the only sound option.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // ldp-lint: allow(no-unwrap-in-lib) -- poisoned state locks are
    // unrecoverable by design (see the comment above).
    m.lock().expect("serve state lock poisoned")
}

impl Hosted {
    /// Runs `f` under the dense merge barrier (central locked, every
    /// connection shard drained), or `None` if this entry is sparse.
    fn dense_barrier<R>(
        &self,
        f: impl FnOnce(&Deployment, &mut StreamIngestor) -> R,
    ) -> Option<Result<R, LdpError>> {
        let HostedKind::Dense {
            deployment,
            central,
            conns,
        } = &self.kind
        else {
            return None;
        };
        let mut central = lock(central);
        for conn in lock(conns).iter() {
            let mut conn = lock(conn);
            let batches = conn.batches;
            if let Err(e) = central.absorb(&mut conn.shard, batches) {
                return Some(Err(e));
            }
            conn.batches = 0;
        }
        Some(Ok(f(deployment, &mut central)))
    }

    /// Runs `f` under the sparse merge barrier, or `None` if this entry
    /// is dense. Sparse merges are infallible (exact `u64` addition).
    fn sparse_barrier<R>(
        &self,
        f: impl FnOnce(&SparseDeployment, &mut SparseIngestor) -> R,
    ) -> Option<R> {
        let HostedKind::Sparse {
            deployment,
            central,
            conns,
        } = &self.kind
        else {
            return None;
        };
        let mut central = lock(central);
        for conn in lock(conns).iter() {
            let mut conn = lock(conn);
            let batches = conn.batches;
            central.absorb(&mut conn.shard, batches);
            conn.batches = 0;
        }
        Some(f(deployment, &mut central))
    }

    /// Merges, serializes, and (when persistence is on) atomically
    /// writes this deployment's snapshot. Returns `(epoch, bytes)`.
    ///
    /// The write and rename happen inside the merge barrier, under the
    /// central lock: concurrent checkpoints of one deployment serialize,
    /// so they never share the temp file and land on disk in epoch order.
    fn checkpoint(&self) -> Result<(u64, u64), ServeError> {
        let persist = |epoch: u64, snapshot: Vec<u8>| -> Result<(u64, u64), ServeError> {
            if let Some(path) = &self.path {
                let tmp = path.with_extension(format!("{SNAPSHOT_EXT}.tmp"));
                fs::write(&tmp, &snapshot)?;
                fs::rename(&tmp, path)?;
            }
            Ok((epoch, snapshot.len() as u64))
        };
        match &self.kind {
            HostedKind::Dense { .. } => {
                match self
                    .dense_barrier(|_, central| persist(central.epoch() + 1, central.checkpoint()))
                {
                    Some(Ok(written)) => written,
                    Some(Err(e)) => Err(ServeError::Ldp(e)),
                    None => unreachable!("kind matched above"),
                }
            }
            HostedKind::Sparse { .. } => {
                match self.sparse_barrier(|_, central| {
                    let reports = central.reports();
                    let (epoch, batches, binding, pairs) = central.checkpoint();
                    let record = encode_sparse_checkpoint(&SparseCheckpoint {
                        epoch,
                        batches,
                        binding,
                        reports,
                        pairs,
                    });
                    persist(epoch, record)
                }) {
                    Some(written) => written,
                    None => unreachable!("kind matched above"),
                }
            }
        }
    }

    /// Identity and live merged counters. Sparse deployments report a
    /// `domain_size` / `num_outputs` / `num_queries` of zero: the domain
    /// is open and the oracle's output space is not a dense `0..m`.
    fn info(&self) -> Result<DeploymentInfo, LdpError> {
        match &self.kind {
            HostedKind::Dense { .. } => {
                match self.dense_barrier(|deployment, central| DeploymentInfo {
                    name: self.name.clone(),
                    domain_size: deployment.workload().domain_size() as u64,
                    num_outputs: deployment.mechanism().num_outputs() as u64,
                    num_queries: deployment.workload().num_queries() as u64,
                    epsilon: deployment.epsilon(),
                    binding: deployment.binding(),
                    epoch: central.epoch(),
                    batches: central.batches(),
                    reports: central.reports(),
                }) {
                    Some(result) => result,
                    None => unreachable!("kind matched above"),
                }
            }
            HostedKind::Sparse { .. } => {
                match self.sparse_barrier(|deployment, central| DeploymentInfo {
                    name: self.name.clone(),
                    domain_size: 0,
                    num_outputs: 0,
                    num_queries: 0,
                    epsilon: deployment.oracle().epsilon(),
                    binding: deployment.binding(),
                    epoch: central.epoch(),
                    batches: central.batches(),
                    reports: central.reports(),
                }) {
                    Some(info) => Ok(info),
                    None => unreachable!("kind matched above"),
                }
            }
        }
    }
}

/// Shared server state visible to every worker.
#[derive(Debug)]
struct Shared {
    hosted: Vec<Arc<Hosted>>,
    stop: AtomicBool,
    addr: SocketAddr,
}

impl Shared {
    fn find(&self, name: &str) -> Option<&Arc<Hosted>> {
        self.hosted.iter().find(|h| h.name == name)
    }
}

/// A bound, not-yet-running server: host deployments, then call
/// [`Server::run`] (blocking) or [`Server::spawn`] (background thread).
///
/// See the module docs for the threading model; the byte-level protocol
/// it speaks is specified in `docs/WIRE_PROTOCOL.md`.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    hosted: Vec<Arc<Hosted>>,
    dir: Option<PathBuf>,
    workers: usize,
}

impl Server {
    /// Binds the listening socket (creating the snapshot directory if
    /// configured) without accepting anything yet.
    ///
    /// # Errors
    /// [`ServeError::Io`] if the bind or directory creation fails.
    pub fn bind(config: ServerConfig) -> Result<Self, ServeError> {
        if let Some(dir) = &config.dir {
            fs::create_dir_all(dir)?;
        }
        let listener = TcpListener::bind(config.addr.as_str())?;
        let addr = listener.local_addr()?;
        let workers = if config.workers == 0 {
            ldp_parallel::pool().threads().max(2)
        } else {
            config.workers
        };
        Ok(Self {
            listener,
            addr,
            hosted: Vec::new(),
            dir: config.dir,
            workers,
        })
    }

    /// The bound address (the actual port when the config asked for an
    /// ephemeral one).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Validates a deployment name and returns its snapshot path.
    fn admit(&self, name: &str) -> Result<Option<PathBuf>, ServeError> {
        let valid = !name.is_empty()
            && name.len() <= MAX_DEPLOYMENT_NAME
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
        if !valid {
            return Err(ServeError::InvalidName(name.to_string()));
        }
        if self.hosted.iter().any(|h| h.name == name) {
            return Err(ServeError::DuplicateDeployment(name.to_string()));
        }
        Ok(self
            .dir
            .as_ref()
            .map(|dir| dir.join(format!("{name}.{SNAPSHOT_EXT}"))))
    }

    /// Hosts `deployment` under `name`. With persistence configured and
    /// a snapshot file present, the deployment's stream resumes from it
    /// — after which answers are byte-equal to a process that never
    /// restarted. Returns `true` if a snapshot was resumed.
    ///
    /// # Errors
    /// [`ServeError::InvalidName`] / [`ServeError::DuplicateDeployment`]
    /// for bad names; any snapshot decode defect, including the typed
    /// [`StoreError::BindingMismatch`] when the file on disk was written
    /// by a *different* deployment.
    pub fn host(&mut self, name: &str, deployment: Deployment) -> Result<bool, ServeError> {
        let path = self.admit(name)?;
        let mut resumed = false;
        let central = match &path {
            Some(path) if path.exists() => {
                let bytes = fs::read(path)?;
                resumed = true;
                deployment.resume(&bytes)?
            }
            _ => deployment.stream(),
        };
        self.hosted.push(Arc::new(Hosted {
            name: name.to_string(),
            kind: HostedKind::Dense {
                deployment,
                central: Mutex::new(central),
                conns: Mutex::new(Vec::new()),
            },
            path,
        }));
        Ok(resumed)
    }

    /// Hosts an open-domain [`SparseDeployment`] under `name`, with the
    /// same persistence/resume semantics as [`Server::host`]: a sparse
    /// checkpoint found under the snapshot directory is decoded,
    /// binding-checked, and resumed. Returns `true` if a snapshot was
    /// resumed.
    ///
    /// # Errors
    /// [`ServeError::InvalidName`] / [`ServeError::DuplicateDeployment`]
    /// for bad names; any sparse-checkpoint decode defect, including the
    /// typed [`StoreError::BindingMismatch`].
    pub fn host_sparse(
        &mut self,
        name: &str,
        deployment: SparseDeployment,
    ) -> Result<bool, ServeError> {
        let path = self.admit(name)?;
        let mut resumed = false;
        let central = match &path {
            Some(path) if path.exists() => {
                let bytes = fs::read(path)?;
                let cp = decode_sparse_checkpoint(&bytes, deployment.binding())?;
                resumed = true;
                SparseIngestor::resume(cp.binding, cp.epoch, cp.batches, &cp.pairs)
            }
            _ => deployment.ingestor(),
        };
        self.hosted.push(Arc::new(Hosted {
            name: name.to_string(),
            kind: HostedKind::Sparse {
                deployment,
                central: Mutex::new(central),
                conns: Mutex::new(Vec::new()),
            },
            path,
        }));
        Ok(resumed)
    }

    /// Runs the accept loop until a client sends `Shutdown`, then drains
    /// the connection workers and persists a final snapshot for every
    /// hosted deployment. Blocking; use [`Server::spawn`] to run on a
    /// background thread.
    ///
    /// # Errors
    /// [`ServeError::NothingHosted`] if no deployment was hosted;
    /// [`ServeError::Io`] from the accept loop; persistence failures
    /// from the final checkpoints.
    pub fn run(self) -> Result<(), ServeError> {
        if self.hosted.is_empty() {
            return Err(ServeError::NothingHosted);
        }
        let shared = Arc::new(Shared {
            hosted: self.hosted,
            stop: AtomicBool::new(false),
            addr: self.addr,
        });
        let queue: Arc<WorkQueue<TcpStream>> = Arc::new(WorkQueue::new());
        let mut workers = Vec::with_capacity(self.workers);
        for i in 0..self.workers {
            let queue = Arc::clone(&queue);
            let shared = Arc::clone(&shared);
            let worker = std::thread::Builder::new()
                .name(format!("ldp-serve-{i}"))
                .spawn(move || {
                    while let Some(stream) = queue.pop() {
                        serve_connection(&shared, stream);
                    }
                })?;
            workers.push(worker);
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if shared.stop.load(Ordering::Acquire) {
                        // The wake-up connection a shutting-down handler
                        // opened (or a late client); refuse and stop.
                        drop(stream);
                        break;
                    }
                    if queue.push(stream).is_err() {
                        break;
                    }
                }
                Err(_) if shared.stop.load(Ordering::Acquire) => break,
                // Transient accept failure (e.g. a connection reset
                // before accept); the listener itself is still good.
                Err(_) => continue,
            }
        }
        queue.close();
        for worker in workers {
            // A worker that panicked already poisoned the state locks;
            // surface it as an error rather than silently exiting.
            if worker.join().is_err() {
                return Err(ServeError::Io("connection worker panicked".to_string()));
            }
        }
        // Final durable snapshots: a graceful shutdown leaves every
        // deployment resumable at its exact last state.
        for hosted in shared.hosted.iter().filter(|h| h.path.is_some()) {
            hosted.checkpoint()?;
        }
        Ok(())
    }

    /// Spawns [`Server::run`] on a background thread and returns a
    /// handle carrying the bound address — the in-process form the
    /// doc-tests and benches use.
    ///
    /// # Errors
    /// As [`Server::run`] for pre-flight failures (nothing hosted);
    /// runtime failures surface from [`ServerHandle::join`].
    pub fn spawn(self) -> Result<ServerHandle, ServeError> {
        if self.hosted.is_empty() {
            return Err(ServeError::NothingHosted);
        }
        let addr = self.addr;
        let thread = std::thread::Builder::new()
            .name("ldp-serve-accept".to_string())
            .spawn(move || self.run())?;
        Ok(ServerHandle { addr, thread })
    }
}

/// A running background server (from [`Server::spawn`]).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<Result<(), ServeError>>,
}

impl ServerHandle {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to shut down (a client must send
    /// `Shutdown`) and returns its exit result.
    ///
    /// # Errors
    /// Whatever [`Server::run`] returned; [`ServeError::Io`] if the
    /// accept thread panicked.
    pub fn join(self) -> Result<(), ServeError> {
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(ServeError::Io("server accept thread panicked".to_string())),
        }
    }
}

/// Serves one connection to completion. Never panics on client input:
/// protocol defects answer with a typed error frame (when the socket
/// still writes) and close this connection only — the accept loop and
/// every other connection are unaffected.
fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) {
    // Nagle off: request/response frames are small and latency-bound.
    let _ = stream.set_nodelay(true);
    let reader = stream.try_clone();
    let Ok(reader) = reader else { return };
    let mut reader = BufReader::new(reader);
    let mut writer = BufWriter::new(stream);
    // This connection's private shards, registered lazily per
    // deployment on first submit (index-parallel to `shared.hosted`).
    let mut shards: Vec<ConnSlot> = vec![ConnSlot::Vacant; shared.hosted.len()];
    loop {
        let request = match read_frame(&mut reader) {
            Ok(Some(request)) => request,
            // Clean hang-up at a frame boundary.
            Ok(None) => break,
            Err(defect) => {
                // Corrupt or malformed input: name the defect if the
                // socket still writes, then drop the connection — its
                // stream position is unknowable.
                let _ = write_frame(
                    &mut writer,
                    &Message::Error {
                        code: ErrorCode::Protocol,
                        message: defect.to_string(),
                    },
                );
                break;
            }
        };
        let shutdown = matches!(request, Message::Shutdown);
        let response = dispatch(shared, &mut shards, request);
        if write_frame(&mut writer, &response).is_err() {
            break;
        }
        if shutdown {
            initiate_shutdown(shared);
            break;
        }
    }
    drain_connection(shared, &shards);
}

/// Flags the stop and wakes the blocked acceptor with a throwaway
/// connection to our own listening address.
fn initiate_shutdown(shared: &Arc<Shared>) {
    shared.stop.store(true, Ordering::Release);
    drop(TcpStream::connect(shared.addr));
}

/// Final merge for a closing connection: absorb its shards and drop them
/// from the live registries so the barrier never re-visits them.
fn drain_connection(shared: &Arc<Shared>, shards: &[ConnSlot]) {
    for (hosted, slot) in shared.hosted.iter().zip(shards) {
        match (&hosted.kind, slot) {
            (HostedKind::Dense { central, conns, .. }, ConnSlot::Dense(conn)) => {
                let mut central = lock(central);
                {
                    let mut state = lock(conn);
                    let batches = state.batches;
                    // Infallible in practice: the shard was created from
                    // this deployment, so dimensions agree.
                    if central.absorb(&mut state.shard, batches).is_ok() {
                        state.batches = 0;
                    }
                }
                lock(conns).retain(|c| !Arc::ptr_eq(c, conn));
            }
            (HostedKind::Sparse { central, conns, .. }, ConnSlot::Sparse(conn)) => {
                let mut central = lock(central);
                {
                    let mut state = lock(conn);
                    let batches = state.batches;
                    central.absorb(&mut state.shard, batches);
                    state.batches = 0;
                }
                lock(conns).retain(|c| !Arc::ptr_eq(c, conn));
            }
            _ => {}
        }
    }
}

/// Builds the error frame for an aggregation failure.
fn ldp_error(code: ErrorCode, e: &LdpError) -> Message {
    Message::Error {
        code,
        message: e.to_string(),
    }
}

/// The error frame for a request that needs the *other* deployment
/// kind.
fn wrong_kind(name: &str, hint: &str) -> Message {
    Message::Error {
        code: ErrorCode::Unsupported,
        message: format!("deployment {name:?} {hint}"),
    }
}

/// Handles one request, returning the response frame to write.
fn dispatch(shared: &Arc<Shared>, shards: &mut [ConnSlot], request: Message) -> Message {
    match request {
        Message::Info => {
            let mut deployments = Vec::with_capacity(shared.hosted.len());
            for hosted in &shared.hosted {
                match hosted.info() {
                    Ok(info) => deployments.push(info),
                    Err(e) => return ldp_error(ErrorCode::Internal, &e),
                }
            }
            Message::InfoOk { deployments }
        }
        Message::Submit {
            deployment,
            reports,
        } => {
            let Some(index) = shared.hosted.iter().position(|h| h.name == deployment) else {
                return unknown_deployment(&deployment);
            };
            let hosted = &shared.hosted[index];
            let HostedKind::Dense {
                deployment: dense,
                conns,
                ..
            } = &hosted.kind
            else {
                return wrong_kind(
                    &deployment,
                    "is open-domain; submit oracle reports with SubmitSparse",
                );
            };
            let num_outputs = dense.mechanism().num_outputs();
            // Admission control before any lock: the whole batch must be
            // in range (and fit this platform's usize) or none of it
            // counts.
            let mut batch = Vec::with_capacity(reports.len());
            for &r in &reports {
                match usize::try_from(r) {
                    Ok(r) => batch.push(r),
                    Err(_) => {
                        return Message::Error {
                            code: ErrorCode::BadBatch,
                            message: format!("report {r} exceeds this platform's index width"),
                        }
                    }
                }
            }
            if let Err(e) = validate_reports(&batch, num_outputs) {
                return ldp_error(ErrorCode::BadBatch, &e);
            }
            let conn = match &mut shards[index] {
                ConnSlot::Dense(conn) => conn,
                slot => {
                    let conn = Arc::new(Mutex::new(ConnShard {
                        shard: dense.shard(),
                        batches: 0,
                    }));
                    lock(conns).push(Arc::clone(&conn));
                    *slot = ConnSlot::Dense(conn);
                    let ConnSlot::Dense(conn) = slot else {
                        unreachable!("assigned above")
                    };
                    conn
                }
            };
            let mut state = lock(conn);
            if let Err(e) = state.shard.ingest_batch(&batch) {
                return ldp_error(ErrorCode::BadBatch, &e);
            }
            state.batches += 1;
            Message::SubmitOk {
                accepted: batch.len() as u64,
                pending: state.shard.reports(),
            }
        }
        Message::SubmitSparse {
            deployment,
            reports,
        } => {
            let Some(index) = shared.hosted.iter().position(|h| h.name == deployment) else {
                return unknown_deployment(&deployment);
            };
            let hosted = &shared.hosted[index];
            let HostedKind::Sparse {
                deployment: sparse,
                conns,
                ..
            } = &hosted.kind
            else {
                return wrong_kind(
                    &deployment,
                    "is dense; submit mechanism outputs with Submit",
                );
            };
            // Admission control before any lock: every report must be
            // well-formed for the oracle or none of the batch counts.
            if let Some(&bad) = reports
                .iter()
                .find(|&&r| !sparse.oracle().validate_report(r))
            {
                return Message::Error {
                    code: ErrorCode::BadBatch,
                    message: format!(
                        "report {bad:#x} is not a valid {} oracle output",
                        sparse.oracle().name()
                    ),
                };
            }
            let conn = match &mut shards[index] {
                ConnSlot::Sparse(conn) => conn,
                slot => {
                    let conn = Arc::new(Mutex::new(SparseConnShard {
                        shard: SparseShard::new(),
                        batches: 0,
                    }));
                    lock(conns).push(Arc::clone(&conn));
                    *slot = ConnSlot::Sparse(conn);
                    let ConnSlot::Sparse(conn) = slot else {
                        unreachable!("assigned above")
                    };
                    conn
                }
            };
            let mut state = lock(conn);
            state.shard.absorb_batch(&reports);
            state.batches += 1;
            Message::SubmitOk {
                accepted: reports.len() as u64,
                pending: state.shard.reports(),
            }
        }
        Message::Query { deployment, query } => {
            let Some(hosted) = shared.find(&deployment) else {
                return unknown_deployment(&deployment);
            };
            let query = query.to_query();
            match &hosted.kind {
                HostedKind::Dense { .. } => {
                    match hosted.dense_barrier(|_, central| {
                        let reports = central.reports();
                        central.answer(&query).map(|a| (a, reports))
                    }) {
                        Some(Ok(Ok((answer, reports)))) => Message::QueryOk {
                            value: answer.value,
                            variance: answer.variance,
                            stddev: answer.stddev,
                            reports,
                        },
                        Some(Ok(Err(e))) => ldp_error(ErrorCode::BadQuery, &e),
                        Some(Err(e)) => ldp_error(ErrorCode::Internal, &e),
                        None => unreachable!("kind matched above"),
                    }
                }
                HostedKind::Sparse {
                    deployment: sparse, ..
                } => {
                    // The only query an open-domain deployment can
                    // answer is a single key condition on its attribute.
                    let Some((attribute, key)) = query.as_key_query() else {
                        return Message::Error {
                            code: ErrorCode::BadQuery,
                            message: format!(
                                "deployment {deployment:?} is open-domain; it answers \
                                 single-key queries (Query::key) and heavy hitters only"
                            ),
                        };
                    };
                    if attribute != sparse.attribute() {
                        return Message::Error {
                            code: ErrorCode::BadQuery,
                            message: format!(
                                "deployment {deployment:?} serves attribute {:?}, not {attribute:?}",
                                sparse.attribute()
                            ),
                        };
                    }
                    let key_hash = ldp_sparse::key_hash(key);
                    sparse_point(hosted, key_hash)
                }
            }
        }
        Message::SparsePoint {
            deployment,
            key_hash,
        } => {
            let Some(hosted) = shared.find(&deployment) else {
                return unknown_deployment(&deployment);
            };
            if !matches!(hosted.kind, HostedKind::Sparse { .. }) {
                return wrong_kind(&deployment, "is dense; ask point questions with Query");
            }
            sparse_point(hosted, key_hash)
        }
        Message::HeavyHitters {
            deployment,
            k,
            z,
            candidates,
        } => {
            let Some(hosted) = shared.find(&deployment) else {
                return unknown_deployment(&deployment);
            };
            if !matches!(hosted.kind, HostedKind::Sparse { .. }) {
                return wrong_kind(&deployment, "is dense; heavy hitters need an open domain");
            }
            if !z.is_finite() {
                return Message::Error {
                    code: ErrorCode::BadQuery,
                    message: format!("admission z-score must be finite, got {z}"),
                };
            }
            let k = usize::try_from(k).unwrap_or(usize::MAX);
            match hosted.sparse_barrier(|sparse, central| {
                let reports = central.reports();
                let hitters = sparse.heavy_hitters(central.pairs(), &candidates, k, z);
                let mut keys = Vec::with_capacity(hitters.len());
                let mut estimates = Vec::with_capacity(hitters.len());
                let mut stddevs = Vec::with_capacity(hitters.len());
                for h in &hitters {
                    keys.push(h.key_hash);
                    estimates.push(h.estimate);
                    stddevs.push(h.stddev);
                }
                Message::HeavyHittersOk {
                    reports,
                    keys,
                    estimates,
                    stddevs,
                }
            }) {
                Some(response) => response,
                None => unreachable!("kind matched above"),
            }
        }
        Message::Answers { deployment } => {
            let Some(hosted) = shared.find(&deployment) else {
                return unknown_deployment(&deployment);
            };
            if matches!(hosted.kind, HostedKind::Sparse { .. }) {
                return wrong_kind(
                    &deployment,
                    "is open-domain; it has no declared dense workload to evaluate",
                );
            }
            match hosted.dense_barrier(|_, central| {
                let estimate = central.estimate();
                (estimate.answers(), central.reports())
            }) {
                Some(Ok((answers, reports))) => Message::AnswersOk { answers, reports },
                Some(Err(e)) => ldp_error(ErrorCode::Internal, &e),
                None => unreachable!("kind matched above"),
            }
        }
        Message::Checkpoint { deployment } => {
            let Some(hosted) = shared.find(&deployment) else {
                return unknown_deployment(&deployment);
            };
            match hosted.checkpoint() {
                Ok((epoch, bytes)) => Message::CheckpointOk { epoch, bytes },
                Err(e) => Message::Error {
                    code: ErrorCode::Internal,
                    message: e.to_string(),
                },
            }
        }
        Message::Shutdown => Message::ShutdownOk,
        // A client sent a server-side kind: protocol breach.
        other => Message::Error {
            code: ErrorCode::Protocol,
            message: format!("unexpected {} frame from client", other.kind_name()),
        },
    }
}

/// Runs the sparse merge barrier and answers one point estimate as a
/// `QueryOk` (variance = stddev², like the dense path).
fn sparse_point(hosted: &Hosted, key_hash: u64) -> Message {
    match hosted.sparse_barrier(|sparse, central| {
        let reports = central.reports();
        let value = sparse.point(central.pairs(), key_hash);
        let stddev = sparse.oracle().stddev(reports);
        Message::QueryOk {
            value,
            variance: stddev * stddev,
            stddev,
            reports,
        }
    }) {
        Some(response) => response,
        None => unreachable!("caller matched the kind"),
    }
}

fn unknown_deployment(name: &str) -> Message {
    Message::Error {
        code: ErrorCode::UnknownDeployment,
        message: format!("no deployment named {name:?} is hosted"),
    }
}
