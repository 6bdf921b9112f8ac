//! Wire types of the serving daemon: the `/solve` request, the success
//! reply, and the structured error envelope.
//!
//! Requests are parsed by hand rather than through
//! `#[derive(Deserialize)]` because the derive's `#[serde(default)]` can
//! only fill in `Default::default()`, while almost every request field
//! here is optional with a server-side default of its own. [`SolveRequest::parse`] reads a body in one scan —
//! the number arrays that are nearly all of it go straight into their
//! `Vec`s — and [`SolveRequest::from_value`] reads the same request from a
//! [`Value`] tree; the two share every check and are tested against each
//! other. Success replies are written in place; error envelopes are
//! *assembled* as [`Value`]s from types that are already `Serialize`
//! (`BuildError`, ...), so the failure taxonomy crosses the wire in exactly
//! the shape the library serializes it — the round-trip regression tests
//! pin that shape.

use mcmcmi_krylov::{RecoveryTrail, SolveOptions, SolverType};
use mcmcmi_mcmc::{BuildError, McmcParams};
use mcmcmi_sparse::Csr;
use serde::{Deserialize, Serialize, Value};
use serde_json::Reader;
use std::fmt::Write as _;

/// Test-only fault injections, honoured when the server runs with
/// `ServeConfig::test_faults = true` (smoke/e2e harnesses only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the worker while processing this request — exercises
    /// the catch_unwind isolation + worker replacement path.
    Panic,
    /// Panic inside the worker *while holding the operator's
    /// per-fingerprint build lock* — exercises poisoned-lock recovery: the
    /// next request for the same fingerprint must take the (poisoned) lock,
    /// recover it, and build normally.
    PanicInBuild,
    /// Sleep this long on the worker before solving — holds a worker busy
    /// deterministically so queue/overload behaviour can be provoked.
    SleepMs(u64),
}

/// A parsed `/solve` request.
///
/// Exactly one of `matrix` / `fingerprint` identifies the operator:
/// sending the matrix computes (and caches under) its fingerprint; sending
/// only a fingerprint requires the operator to already be cached. Sending
/// both cross-checks them.
#[derive(Clone, Debug)]
pub struct SolveRequest {
    /// The operator, CSR-serialized. Optional on cache-hit traffic.
    pub matrix: Option<Csr>,
    /// Expected operator fingerprint (required if `matrix` is absent).
    pub fingerprint: Option<u64>,
    /// Right-hand side.
    pub b: Vec<f64>,
    /// Krylov driver (default BiCGStab, the general-purpose choice).
    pub solver: SolverType,
    /// Relative residual tolerance.
    pub tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// GMRES restart length.
    pub restart: usize,
    /// MCMC build parameters; server default (or the tuned record for this
    /// fingerprint) when absent. Only consulted when the request triggers
    /// a build — a cached operator keeps its build-time parameters.
    pub params: Option<McmcParams>,
    /// Per-request deadline budget in milliseconds, measured from
    /// admission. Checked at admission, at dequeue, and cooperatively
    /// between solver iterations.
    pub deadline_ms: Option<u64>,
    /// Test-only fault injection (ignored unless the server opts in).
    pub fault: Option<Fault>,
}

impl SolveRequest {
    /// The solver options this request asks for.
    pub fn opts(&self) -> SolveOptions {
        SolveOptions {
            tol: self.tol,
            max_iter: self.max_iter,
            restart: self.restart,
            ..SolveOptions::default()
        }
    }

    /// Parse a request from a JSON body, in one scan: `matrix.indptr` /
    /// `indices` / `data` and `b` are decoded straight into their `Vec`s,
    /// everything else (a handful of scalars) goes through the same checks
    /// as [`SolveRequest::from_value`]. Accepts and rejects exactly what
    /// `from_value(parse_value_str(body))` does, with the same message.
    pub fn parse(body: &str) -> Result<Self, String> {
        let invalid = |e: serde_json::Error| format!("invalid JSON: {e}");
        let mut reader = Reader::new(body);
        if reader.peek() != Some(b'{') {
            let v = serde_json::parse_value_str(body).map_err(invalid)?;
            return Self::from_value(&v);
        }
        // First occurrence of a key wins, as `Value::get` has it.
        let (mut matrix, mut b) = (None, None);
        let mut rest = Vec::new();
        reader
            .object(|r, key| {
                match key.as_str() {
                    "matrix" if matrix.is_none() => matrix = Some(scan_matrix(r)?),
                    "b" if b.is_none() => b = Some(scan_array::<f64>(r)?.map_err(bad_b)),
                    _ => rest.push((key, r.value()?)),
                }
                Ok(())
            })
            .and_then(|()| reader.end())
            .map_err(invalid)?;
        Self::assemble(&Value::Object(rest), matrix.flatten(), b)
    }

    /// Parse from an already-decoded JSON tree. Missing optional fields
    /// take server defaults; unknown fields are ignored.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        if !matches!(v, Value::Object(_)) {
            return Err(format!("request must be a JSON object, got {}", v.kind()));
        }
        let matrix = v.get("matrix").and_then(matrix_from_value);
        let b = v.get("b").map(|b| Vec::<f64>::from_value(b).map_err(bad_b));
        Self::assemble(v, matrix, b)
    }

    /// The checks both parsers share, in the order their errors are
    /// reported: `matrix` and `b` arrive decoded (or with the reason they
    /// could not be), every other field is looked up in `v`.
    fn assemble(
        v: &Value,
        matrix: Option<Result<Csr, String>>,
        b: Option<Result<Vec<f64>, String>>,
    ) -> Result<Self, String> {
        let defaults = SolveOptions::default();
        let matrix = matrix.transpose()?;
        if matrix.as_ref().is_some_and(|m| !all_finite(m.values())) {
            return Err("bad `matrix`: `data` has a non-finite entry".to_string());
        }
        let fingerprint = match v.get("fingerprint") {
            None | Some(Value::Null) => None,
            Some(f) => Some(
                f.as_u64()
                    .ok_or_else(|| "bad `fingerprint`: expected u64".to_string())?,
            ),
        };
        let b = b.ok_or_else(|| "missing required field `b`".to_string())??;
        if !all_finite(&b) {
            return Err("bad `b`: non-finite entry".to_string());
        }
        if b.is_empty() {
            return Err("`b` must be non-empty".to_string());
        }
        let solver = match v.get("solver") {
            None | Some(Value::Null) => SolverType::BiCgStab,
            Some(Value::Str(s)) => parse_solver(s)?,
            Some(other) => {
                return Err(format!(
                    "bad `solver`: expected string, got {}",
                    other.kind()
                ))
            }
        };
        let tol = opt_f64(v, "tol")?.unwrap_or(defaults.tol);
        if !(tol.is_finite() && tol >= 0.0) {
            return Err("`tol` must be finite and >= 0".to_string());
        }
        let max_iter = opt_usize(v, "max_iter")?.unwrap_or(defaults.max_iter);
        let restart = opt_usize(v, "restart")?.unwrap_or(defaults.restart);
        let params = match v.get("params") {
            None | Some(Value::Null) => None,
            Some(p) => {
                let alpha = req_f64(p, "params.alpha", "alpha")?;
                let eps = req_f64(p, "params.eps", "eps")?;
                let delta = req_f64(p, "params.delta", "delta")?;
                if !(alpha >= 0.0 && alpha.is_finite()) {
                    return Err("`params.alpha` must be finite and >= 0".to_string());
                }
                if !(eps > 0.0 && eps <= 1.0 && delta > 0.0 && delta <= 1.0) {
                    return Err("`params.eps`/`params.delta` must lie in (0, 1]".to_string());
                }
                Some(McmcParams::new(alpha, eps, delta))
            }
        };
        let deadline_ms = match v.get("deadline_ms") {
            None | Some(Value::Null) => None,
            Some(d) => Some(
                d.as_u64()
                    .ok_or_else(|| "bad `deadline_ms`: expected u64".to_string())?,
            ),
        };
        let fault = match v.get("fault") {
            None | Some(Value::Null) => None,
            Some(Value::Str(s)) if s == "panic" => Some(Fault::Panic),
            Some(Value::Str(s)) if s == "panic-in-build" => Some(Fault::PanicInBuild),
            Some(Value::Str(s)) if s.starts_with("sleep:") => {
                let ms = s["sleep:".len()..]
                    .parse()
                    .map_err(|_| "bad `fault`: sleep:<ms>".to_string())?;
                Some(Fault::SleepMs(ms))
            }
            Some(_) => {
                return Err(
                    "bad `fault`: expected \"panic\", \"panic-in-build\", or \"sleep:<ms>\""
                        .to_string(),
                )
            }
        };
        if matrix.is_none() && fingerprint.is_none() {
            return Err("one of `matrix` or `fingerprint` is required".to_string());
        }
        if let Some(m) = &matrix {
            if m.nrows() != m.ncols() {
                return Err("`matrix` must be square".to_string());
            }
            if m.nrows() != b.len() {
                return Err(format!(
                    "`b` length {} does not match matrix dimension {}",
                    b.len(),
                    m.nrows()
                ));
            }
        }
        Ok(Self {
            matrix,
            fingerprint,
            b,
            solver,
            tol,
            max_iter,
            restart,
            params,
            deadline_ms,
            fault,
        })
    }
}

fn bad_b(e: serde::Error) -> String {
    format!("bad `b`: {e}")
}

fn bad_matrix(e: serde::Error) -> String {
    format!("bad `matrix`: {e}")
}

fn all_finite(xs: &[f64]) -> bool {
    xs.iter().all(|x| x.is_finite())
}

/// `matrix` as [`SolveRequest::from_value`] reads it: `null` is absent.
fn matrix_from_value(m: &Value) -> Option<Result<Csr, String>> {
    match m {
        Value::Null => None,
        m => Some(Csr::from_value(m).map_err(bad_matrix)),
    }
}

/// The `matrix` member in one scan: what [`matrix_from_value`] returns for
/// the same text. The outer `Err` is malformed JSON, the inner one a
/// well-formed value that is not a CSR matrix.
fn scan_matrix(r: &mut Reader<'_>) -> serde_json::Result<Option<Result<Csr, String>>> {
    if r.peek() != Some(b'{') {
        return Ok(matrix_from_value(&r.value()?));
    }
    let (mut nrows, mut ncols) = (None, None);
    let (mut indptr, mut indices, mut data) = (None, None, None);
    r.object(|r, key| {
        match key.as_str() {
            "nrows" if nrows.is_none() => nrows = Some(usize::from_value(&r.value()?)),
            "ncols" if ncols.is_none() => ncols = Some(usize::from_value(&r.value()?)),
            "indptr" if indptr.is_none() => indptr = Some(scan_array::<usize>(r)?),
            "indices" if indices.is_none() => indices = Some(scan_array::<usize>(r)?),
            "data" if data.is_none() => data = Some(scan_array::<f64>(r)?),
            _ => drop(r.value()?),
        }
        Ok(())
    })?;
    // Field by field, missing before malformed, as `Csr::from_value` has it.
    fn field<T>(slot: Option<Result<T, serde::Error>>, name: &str) -> Result<T, serde::Error> {
        slot.ok_or_else(|| serde::Error::missing_field("Csr", name))?
    }
    let csr = (|| {
        Csr::try_from_raw(
            field(nrows, "nrows")?,
            field(ncols, "ncols")?,
            field(indptr, "indptr")?,
            field(indices, "indices")?,
            field(data, "data")?,
        )
        .map_err(serde::Error::custom)
    })();
    Ok(Some(csr.map_err(bad_matrix)))
}

/// An array member decoded straight into a `Vec<T>`: what
/// `Vec::<T>::from_value` returns for the same text, element by element
/// through `T::from_value`, so the number rules (an integer token in a
/// float array, an integral float in an index array) are the tree's.
fn scan_array<T: Deserialize>(
    r: &mut Reader<'_>,
) -> serde_json::Result<Result<Vec<T>, serde::Error>> {
    if r.peek() != Some(b'[') {
        return Ok(Vec::<T>::from_value(&r.value()?));
    }
    let mut out = Vec::new();
    let mut bad = None;
    r.array(|r| {
        // Past the first bad element the rest is read for its syntax only.
        let v = r.value()?;
        if bad.is_none() {
            match T::from_value(&v) {
                Ok(x) => out.push(x),
                Err(e) => bad = Some(e),
            }
        }
        Ok(())
    })?;
    Ok(bad.map_or(Ok(out), Err))
}

fn parse_solver(s: &str) -> Result<SolverType, String> {
    match s.to_ascii_lowercase().as_str() {
        "cg" => Ok(SolverType::Cg),
        "bicgstab" => Ok(SolverType::BiCgStab),
        "gmres" => Ok(SolverType::Gmres),
        "fgmres" => Ok(SolverType::Fgmres),
        "fcg" => Ok(SolverType::FCg),
        other => Err(format!(
            "unknown solver `{other}` (expected cg|bicgstab|gmres|fgmres|fcg)"
        )),
    }
}

fn opt_f64(v: &Value, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("bad `{key}`: expected number")),
    }
}

fn opt_usize(v: &Value, key: &str) -> Result<Option<usize>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => {
            let u = x
                .as_u64()
                .ok_or_else(|| format!("bad `{key}`: expected unsigned integer"))?;
            usize::try_from(u)
                .map(Some)
                .map_err(|_| format!("`{key}` out of range"))
        }
    }
}

fn req_f64(v: &Value, label: &str, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("bad `{label}`: expected number"))
}

/// Structured error envelope — every non-success response carries exactly
/// one of these, JSON-serialized under `{"ok": false, "error": {...}}`.
#[derive(Clone, Debug)]
pub enum ServeError {
    /// The bounded admission queue is full; shed immediately, retry later.
    Overloaded {
        /// Queue depth observed at rejection.
        queue_depth: usize,
        /// Suggested client backoff before retrying.
        retry_after_hint_ms: u64,
    },
    /// The server is draining; no new work is admitted.
    Draining,
    /// The request's deadline passed — at admission, in the queue, or
    /// cooperatively mid-solve (with partial-progress stats).
    DeadlineExceeded {
        /// Where the deadline fired: `"queued"`, `"solving"`, or `"drain"`
        /// (cut off by the server's drain deadline).
        phase: &'static str,
        /// Iterations completed before the stop (0 if never dequeued).
        iterations: usize,
        /// Best true relative residual reached, if a solve ran.
        rel_residual: Option<f64>,
    },
    /// The operator's safeguarded MCMC build failed — replayed from the
    /// negative cache on repeat fingerprints without re-burning the probes.
    Build(BuildError),
    /// The request itself was malformed.
    BadRequest(String),
    /// The worker processing this request panicked; the pool replaced it.
    WorkerPanic(String),
}

impl ServeError {
    /// Stable machine-readable discriminator.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Overloaded { .. } => "Overloaded",
            ServeError::Draining => "Draining",
            ServeError::DeadlineExceeded { .. } => "DeadlineExceeded",
            ServeError::Build(_) => "Build",
            ServeError::BadRequest(_) => "BadRequest",
            ServeError::WorkerPanic(_) => "WorkerPanic",
        }
    }

    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::Overloaded { .. } | ServeError::Draining => 503,
            ServeError::DeadlineExceeded { .. } => 408,
            ServeError::Build(_) => 422,
            ServeError::BadRequest(_) => 400,
            ServeError::WorkerPanic(_) => 500,
        }
    }

    /// The full `{"ok": false, "error": {...}}` JSON body.
    pub fn to_json(&self) -> String {
        let mut err: Vec<(String, Value)> =
            vec![("kind".to_string(), Value::Str(self.kind().to_string()))];
        match self {
            ServeError::Overloaded {
                queue_depth,
                retry_after_hint_ms,
            } => {
                err.push(("queue_depth".to_string(), Value::UInt(*queue_depth as u64)));
                err.push((
                    "retry_after_hint_ms".to_string(),
                    Value::UInt(*retry_after_hint_ms),
                ));
            }
            ServeError::Draining => {}
            ServeError::DeadlineExceeded {
                phase,
                iterations,
                rel_residual,
            } => {
                err.push(("phase".to_string(), Value::Str((*phase).to_string())));
                err.push(("iterations".to_string(), Value::UInt(*iterations as u64)));
                err.push(("rel_residual".to_string(), rel_residual.to_value()));
            }
            ServeError::Build(e) => {
                err.push(("detail".to_string(), Value::Str(e.to_string())));
                err.push(("build_error".to_string(), e.to_value()));
            }
            ServeError::BadRequest(msg) => {
                err.push(("detail".to_string(), Value::Str(msg.clone())));
            }
            ServeError::WorkerPanic(msg) => {
                err.push(("detail".to_string(), Value::Str(msg.clone())));
            }
        }
        let body = Value::Object(vec![
            ("ok".to_string(), Value::Bool(false)),
            ("error".to_string(), Value::Object(err)),
        ]);
        serde_json::to_string(&body).expect("error envelope serialization cannot fail")
    }
}

/// A successful `/solve` reply.
#[derive(Clone, Debug)]
pub struct SolveReply {
    /// Solution vector.
    pub x: Vec<f64>,
    /// Iterations spent.
    pub iterations: usize,
    /// Final true relative residual.
    pub rel_residual: f64,
    /// Did the solve converge?
    pub converged: bool,
    /// The operator's fingerprint (cache key for follow-up requests).
    pub fingerprint: u64,
    /// Was the operator served from the session cache (no build ran)?
    pub cached: bool,
    /// Safeguard attempts the operator's build took (1 = accepted on the
    /// first try; a server that loaded a tuned record reports 1 even for
    /// operators that originally needed α backoff — "retunes nothing").
    pub build_attempts: usize,
    /// Width of the lockstep group this request was solved in (1 = alone).
    pub coalesced_width: usize,
    /// The recovery ladder's trail (`clean` for an untroubled solve).
    pub trail: RecoveryTrail,
}

impl SolveReply {
    /// The full `{"ok": true, ...}` JSON body. Float values round-trip
    /// bit-exactly through the JSON layer, which is what lets the smoke
    /// harness assert coalesced ≡ sequential at the bit level across the
    /// wire.
    pub fn to_json(&self) -> String {
        // Written in place: `x` is most of a reply, and a `Value` per entry
        // costs more than printing it. Same bytes as serialising
        // `{"ok": true, "x": [...], ...}` through the tree.
        let mut out = String::with_capacity(24 * self.x.len() + 512);
        out.push_str("{\"ok\":true,\"x\":[");
        for (i, &xi) in self.x.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            serde_json::write_f64(&mut out, xi);
        }
        let _ = write!(
            out,
            "],\"iterations\":{},\"rel_residual\":",
            self.iterations
        );
        serde_json::write_f64(&mut out, self.rel_residual);
        let _ = write!(
            out,
            ",\"converged\":{},\"fingerprint\":{},\"cached\":{},\"build_attempts\":{},\"coalesced_width\":{},\"trail\":{}}}",
            self.converged,
            self.fingerprint,
            self.cached,
            self.build_attempts,
            self.coalesced_width,
            serde_json::to_string(&self.trail).expect("trail serialization cannot fail"),
        );
        out
    }
}
