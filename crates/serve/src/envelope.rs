//! Request / response envelopes and the read-only SQL guardrail.
//!
//! The service speaks a small structured protocol rather than raw SQL
//! strings in, `Display` dumps out: every request carries its own
//! row-cap and timeout overrides, and every response carries a stable
//! machine-readable [`ErrorCode`] plus an explicit `truncated` marker,
//! so clients never have to parse error prose or guess whether a result
//! was clipped.
//!
//! ## Determinism contract
//!
//! [`QueryResponse::to_json`] renders every field that is a pure
//! function of `(snapshot, request)` — and **only** those fields.
//! `cache_hit` is deliberately excluded: under concurrent first-touch
//! the thread that populates the plan cache sees a miss while the rest
//! see hits, so the flag depends on scheduling. The byte-identity tests
//! compare `to_json` output across thread counts and cache modes, which
//! is exactly the guarantee the serialization is scoped to.

use sb_engine::{EngineError, Value};
use sb_obs::json;
use std::fmt::Write as _;

/// Stable, machine-readable response status. The string forms are a
/// wire contract pinned by golden tests — never repurpose or rename
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Query executed; rows are present (possibly truncated).
    Ok,
    /// Malformed request: unknown snapshot name, empty SQL, or multiple
    /// statements in one request.
    InvalidRequest,
    /// The read-only guardrail rejected the statement before parsing.
    NotReadOnly,
    /// The SQL failed to parse.
    ParseError,
    /// Name resolution failed: unknown table/column or ambiguous
    /// reference.
    BindError,
    /// The query parsed and bound but failed during execution
    /// (type mismatch, unsupported construct, overflow, ...).
    ExecError,
    /// The per-request deadline expired.
    Timeout,
    /// Admission control rejected the request: too many in flight.
    Overloaded,
}

impl ErrorCode {
    /// Every code in wire order — the iteration basis for per-code
    /// counters (the benchmark indexes its per-request codes by it).
    pub const ALL: [ErrorCode; 8] = [
        ErrorCode::Ok,
        ErrorCode::InvalidRequest,
        ErrorCode::NotReadOnly,
        ErrorCode::ParseError,
        ErrorCode::BindError,
        ErrorCode::ExecError,
        ErrorCode::Timeout,
        ErrorCode::Overloaded,
    ];

    /// The wire string for this code.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::Ok => "ok",
            ErrorCode::InvalidRequest => "invalid_request",
            ErrorCode::NotReadOnly => "not_read_only",
            ErrorCode::ParseError => "parse_error",
            ErrorCode::BindError => "bind_error",
            ErrorCode::ExecError => "exec_error",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Overloaded => "overloaded",
        }
    }

    /// Map an engine error onto the wire taxonomy. Parse errors come
    /// from the parser, binding errors from name resolution; everything
    /// else the engine reports is an execution-time failure.
    pub fn from_engine(err: &EngineError) -> ErrorCode {
        match err {
            EngineError::Parse(_) => ErrorCode::ParseError,
            EngineError::UnknownTable(_)
            | EngineError::UnknownColumn(_)
            | EngineError::AmbiguousColumn(_) => ErrorCode::BindError,
            _ => ErrorCode::ExecError,
        }
    }
}

/// One query request against a named snapshot.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Client-chosen request id, echoed back verbatim.
    pub id: u64,
    /// Snapshot name (registered via `QueryService::with_snapshot`).
    pub db: String,
    /// A single read-only SQL statement.
    pub sql: String,
    /// Per-request row cap; `None` uses the service default.
    pub row_cap: Option<usize>,
    /// Per-request timeout in milliseconds; `None` uses the service
    /// default. `0` expires immediately (used by tests to pin the
    /// timeout envelope deterministically).
    pub timeout_ms: Option<u64>,
    /// Opt into request profiling: the response carries a
    /// [`RequestProfile`] (trace id + phase breakdown) and the engine
    /// records a per-operator [`sb_obs::QueryProfile`]. Never changes
    /// result bytes — only attaches observability.
    pub profile: bool,
}

impl QueryRequest {
    /// A request with service-default row cap and timeout.
    pub fn new(id: u64, db: &str, sql: &str) -> QueryRequest {
        QueryRequest {
            id,
            db: db.to_string(),
            sql: sql.to_string(),
            row_cap: None,
            timeout_ms: None,
            profile: false,
        }
    }
}

/// Deterministic trace id: FNV-1a over `(id, db, sql)`. The same
/// request always maps to the same id, so traces can be correlated
/// across replays and log lines can be grepped from a workload
/// description alone.
pub fn trace_id(req: &QueryRequest) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(&req.id.to_le_bytes());
    eat(req.db.as_bytes());
    eat(&[0]);
    eat(req.sql.as_bytes());
    format!("{h:016x}")
}

/// Per-request phase breakdown attached to a [`QueryResponse`] when the
/// request opted in (or the slow-query log is armed). Wall-clock data:
/// deliberately excluded from [`QueryResponse::to_json`] so the
/// byte-identity suites stay meaningful; rendered separately by
/// [`QueryResponse::to_json_with_profile`].
#[derive(Debug, Clone, Default)]
pub struct RequestProfile {
    /// Deterministic request trace id (see [`trace_id`]).
    pub trace_id: String,
    /// Admission gate, deadline setup and snapshot lookup.
    pub admission_us: u64,
    /// Read-only guardrail plus statement parse (fresh path). With the
    /// plan cache enabled, parse work inside the cache is attributed to
    /// the plan phase — the cache prepares lookup→parse→plan as one
    /// step.
    pub parse_us: u64,
    /// Statement planning (or cached-plan lookup).
    pub plan_us: u64,
    /// Engine execution.
    pub execute_us: u64,
    /// Response envelope assembly (row cap + materialization).
    pub serialize_us: u64,
}

impl RequestProfile {
    /// The phase breakdown as a deterministic-key-order JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"trace_id\": \"{}\", \"phases_us\": {{\"admission\": {}, \"parse\": {}, \
             \"plan\": {}, \"execute\": {}, \"serialize\": {}}}}}",
            json::escape(&self.trace_id),
            self.admission_us,
            self.parse_us,
            self.plan_us,
            self.execute_us,
            self.serialize_us,
        )
    }
}

/// The service's answer to one [`QueryRequest`].
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Echo of the request id.
    pub id: u64,
    /// Stable status code.
    pub code: ErrorCode,
    /// Human-readable error detail (`None` when `code` is `Ok`).
    pub error: Option<String>,
    /// Output column names (empty on error).
    pub columns: Vec<String>,
    /// Output rows, truncated to the row cap (empty on error).
    pub rows: Vec<Vec<Value>>,
    /// Rows the query produced before the cap was applied.
    pub total_rows: usize,
    /// Whether `rows` was clipped by the row cap.
    pub truncated: bool,
    /// Whether the prepared plan came from the cache. Scheduling-
    /// dependent under concurrency; excluded from [`Self::to_json`].
    pub cache_hit: bool,
    /// Trace id and phase timings, present when the request opted in
    /// via [`QueryRequest::profile`] (or the slow-query log was armed).
    /// Wall-clock-dependent; excluded from [`Self::to_json`].
    pub profile: Option<RequestProfile>,
}

impl QueryResponse {
    /// An error response with no result payload.
    pub fn error(id: u64, code: ErrorCode, detail: impl Into<String>) -> QueryResponse {
        QueryResponse {
            id,
            code,
            error: Some(detail.into()),
            columns: Vec::new(),
            rows: Vec::new(),
            total_rows: 0,
            truncated: false,
            cache_hit: false,
            profile: None,
        }
    }

    /// Deterministic JSON rendering: every field that is a function of
    /// `(snapshot, request)`, nothing that depends on scheduling or the
    /// clock (see the module docs). One line, stable key order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + 16 * self.rows.len());
        let _ = write!(
            out,
            "{{\"id\": {}, \"code\": \"{}\"",
            self.id,
            self.code.as_str()
        );
        match &self.error {
            Some(e) => {
                let _ = write!(out, ", \"error\": \"{}\"", json::escape(e));
            }
            None => out.push_str(", \"error\": null"),
        }
        out.push_str(", \"columns\": [");
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", json::escape(c));
        }
        out.push_str("], \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('[');
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&value_json(v));
            }
            out.push(']');
        }
        let _ = write!(
            out,
            "], \"row_count\": {}, \"total_rows\": {}, \"truncated\": {}}}",
            self.rows.len(),
            self.total_rows,
            self.truncated
        );
        out
    }

    /// [`Self::to_json`] plus a trailing `profile` object when one is
    /// attached. Wall-clock data lives only here — the deterministic
    /// rendering above is byte-identical whether or not profiling ran.
    pub fn to_json_with_profile(&self) -> String {
        let mut out = self.to_json();
        if let Some(p) = &self.profile {
            out.truncate(out.len() - 1);
            let _ = write!(out, ", \"profile\": {}}}", p.to_json());
        }
        out
    }
}

/// One result cell as JSON. Non-finite floats have no JSON number form,
/// so they render as the quoted strings `"NaN"` / `"inf"` / `"-inf"` —
/// lossless for the byte-identity tests and still valid JSON.
pub fn value_json(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) if f.is_finite() => json::number(*f),
        Value::Float(f) if f.is_nan() => "\"NaN\"".to_string(),
        Value::Float(f) if *f > 0.0 => "\"inf\"".to_string(),
        Value::Float(_) => "\"-inf\"".to_string(),
        Value::Text(s) => format!("\"{}\"", json::escape(s)),
        Value::Bool(b) => b.to_string(),
    }
}

/// The read-only guardrail: a quote-aware token scan that runs *before*
/// the parser, so a request can be rejected cheaply (and with a stable
/// error code) without ever reaching statement execution.
///
/// Accepts exactly one statement whose first keyword is `SELECT`
/// (optionally parenthesized, e.g. `(SELECT ...) UNION ...`), with at
/// most one trailing semicolon. Rejects any statement-level keyword
/// from the write/DDL family appearing outside string literals or
/// quoted identifiers. Keywords *inside* quotes are data, not SQL:
/// `SELECT 'drop table' ...` passes.
pub fn validate_read_only_sql(sql: &str) -> Result<(), (ErrorCode, String)> {
    const FORBIDDEN: &[&str] = &[
        "insert", "update", "delete", "drop", "create", "alter", "truncate", "grant", "revoke",
        "attach", "pragma", "copy", "vacuum", "merge", "call", "set",
    ];
    let trimmed = sql.trim();
    if trimmed.is_empty() {
        return Err((ErrorCode::InvalidRequest, "empty SQL".to_string()));
    }

    // Pass 1: strip quoted regions ('...' string literals with ''
    // escapes, "..." quoted identifiers), flagging semicolons as we go.
    let mut bare = String::with_capacity(trimmed.len());
    let mut chars = trimmed.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\'' | '"' => {
                let quote = c;
                loop {
                    match chars.next() {
                        // Doubled quote inside a string is an escape.
                        Some(q) if q == quote => {
                            if chars.peek() == Some(&quote) {
                                chars.next();
                            } else {
                                break;
                            }
                        }
                        Some(_) => {}
                        None => break, // unterminated; the parser will complain
                    }
                }
                bare.push(' ');
            }
            _ => bare.push(c),
        }
    }
    if let Some(pos) = bare.find(';') {
        if !bare[pos + 1..].trim().is_empty() {
            return Err((
                ErrorCode::InvalidRequest,
                "multiple statements in one request".to_string(),
            ));
        }
    }

    // Pass 2: word scan over the unquoted text.
    let mut first_word = true;
    for word in bare
        .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .filter(|w| !w.is_empty())
    {
        if first_word {
            if !word.eq_ignore_ascii_case("select") {
                return Err((
                    ErrorCode::NotReadOnly,
                    format!("statement must start with SELECT, found `{word}`"),
                ));
            }
            first_word = false;
        }
        if FORBIDDEN.iter().any(|f| word.eq_ignore_ascii_case(f)) {
            return Err((
                ErrorCode::NotReadOnly,
                format!("forbidden keyword `{}`", word.to_ascii_lowercase()),
            ));
        }
    }
    if first_word {
        return Err((ErrorCode::InvalidRequest, "empty SQL".to_string()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_only_accepts_selects() {
        assert!(validate_read_only_sql("SELECT 1").is_ok());
        assert!(validate_read_only_sql("  select a from t where b = 2;").is_ok());
        assert!(validate_read_only_sql("(SELECT a FROM t) UNION (SELECT b FROM u)").is_ok());
    }

    #[test]
    fn read_only_rejects_writes_and_multi_statements() {
        let nro = |sql: &str| {
            let (code, _) = validate_read_only_sql(sql).unwrap_err();
            code
        };
        assert_eq!(nro("INSERT INTO t VALUES (1)"), ErrorCode::NotReadOnly);
        assert_eq!(nro("DROP TABLE t"), ErrorCode::NotReadOnly);
        assert_eq!(nro("SELECT 1; DROP TABLE t"), ErrorCode::InvalidRequest);
        assert_eq!(nro(""), ErrorCode::InvalidRequest);
        assert_eq!(nro("   ;"), ErrorCode::InvalidRequest);
        // Statement-level keyword smuggled past the first word.
        assert_eq!(nro("SELECT 1 UNION DELETE FROM t"), ErrorCode::NotReadOnly);
    }

    #[test]
    fn read_only_ignores_quoted_keywords() {
        assert!(validate_read_only_sql("SELECT 'drop table users' FROM t").is_ok());
        assert!(validate_read_only_sql("SELECT a FROM t WHERE b = 'x; y'").is_ok());
        // Escaped quote inside a literal does not end the string.
        assert!(validate_read_only_sql("SELECT 'it''s; drop' FROM t").is_ok());
    }

    #[test]
    fn value_json_covers_every_variant() {
        assert_eq!(value_json(&Value::Null), "null");
        assert_eq!(value_json(&Value::Int(-3)), "-3");
        assert_eq!(value_json(&Value::Bool(true)), "true");
        assert_eq!(value_json(&Value::from("a\"b")), "\"a\\\"b\"");
        assert_eq!(value_json(&Value::Float(f64::NAN)), "\"NaN\"");
        assert_eq!(value_json(&Value::Float(f64::INFINITY)), "\"inf\"");
        assert_eq!(value_json(&Value::Float(f64::NEG_INFINITY)), "\"-inf\"");
    }
}
