//! Envelope and guardrail goldens: one pinned JSON response per error
//! class, over a tiny handcrafted snapshot.
//!
//! The response serialization is a wire contract — clients dispatch on
//! `code` and render `rows` — so each class is pinned byte-for-byte:
//! a renamed code, reordered key or reworded engine error shows up here
//! as a diff, not in a consumer. The timeout and overload responses are
//! made deterministic by construction (`timeout_ms = 0` expires at
//! admission; `max_in_flight = 0` rejects everything), so even the
//! timing-dependent classes golden cleanly.

use sb_engine::{Database, Value};
use sb_schema::{Column, ColumnType, Schema, TableDef};
use sb_serve::{QueryRequest, QueryService, ServeConfig};
use std::sync::Arc;

/// Three rows exercising every cell shape the serializer handles:
/// ints, floats, text with a quote, NULL.
fn demo_db() -> Database {
    let schema = Schema::new("demo").with_table(TableDef::new(
        "t",
        vec![
            Column::pk("id", ColumnType::Int),
            Column::new("name", ColumnType::Text),
            Column::new("score", ColumnType::Float),
        ],
    ));
    let mut db = Database::new(schema);
    db.table_mut("t").unwrap().push_rows(vec![
        vec![Value::Int(1), Value::from("alpha"), Value::Float(1.5)],
        vec![
            Value::Int(2),
            Value::from("b \"quoted\""),
            Value::Float(-0.25),
        ],
        vec![Value::Int(3), Value::Null, Value::Null],
    ]);
    db
}

fn service(cfg: ServeConfig) -> QueryService {
    QueryService::new(cfg).with_snapshot("demo", Arc::new(demo_db()))
}

fn golden(cfg: ServeConfig, req: QueryRequest, want: &str) {
    let got = service(cfg).handle(&req).to_json();
    assert_eq!(got, want, "envelope golden diverged for {}", req.sql);
}

#[test]
fn golden_ok() {
    golden(
        ServeConfig::default(),
        QueryRequest::new(
            1,
            "demo",
            "SELECT t.id, t.name, t.score FROM t ORDER BY t.id",
        ),
        "{\"id\": 1, \"code\": \"ok\", \"error\": null, \
         \"columns\": [\"t.id\", \"t.name\", \"t.score\"], \
         \"rows\": [[1, \"alpha\", 1.5], [2, \"b \\\"quoted\\\"\", -0.25], [3, null, null]], \
         \"row_count\": 3, \"total_rows\": 3, \"truncated\": false}",
    );
}

#[test]
fn golden_truncated() {
    let mut req = QueryRequest::new(2, "demo", "SELECT t.id FROM t ORDER BY t.id");
    req.row_cap = Some(1);
    golden(
        ServeConfig::default(),
        req,
        "{\"id\": 2, \"code\": \"ok\", \"error\": null, \"columns\": [\"t.id\"], \
         \"rows\": [[1]], \"row_count\": 1, \"total_rows\": 3, \"truncated\": true}",
    );
}

// NB: the ok/truncated goldens pin the engine's output-column naming
// too (unaliased projections render as the expression text, `t.id`).

#[test]
fn golden_invalid_request_unknown_snapshot() {
    golden(
        ServeConfig::default(),
        QueryRequest::new(3, "nowhere", "SELECT t.id FROM t"),
        "{\"id\": 3, \"code\": \"invalid_request\", \"error\": \"unknown snapshot `nowhere`\", \
         \"columns\": [], \"rows\": [], \"row_count\": 0, \"total_rows\": 0, \"truncated\": false}",
    );
}

#[test]
fn golden_invalid_request_multi_statement() {
    golden(
        ServeConfig::default(),
        QueryRequest::new(4, "demo", "SELECT t.id FROM t; SELECT t.id FROM t"),
        "{\"id\": 4, \"code\": \"invalid_request\", \
         \"error\": \"multiple statements in one request\", \
         \"columns\": [], \"rows\": [], \"row_count\": 0, \"total_rows\": 0, \"truncated\": false}",
    );
}

#[test]
fn golden_not_read_only() {
    golden(
        ServeConfig::default(),
        QueryRequest::new(5, "demo", "DROP TABLE t"),
        "{\"id\": 5, \"code\": \"not_read_only\", \
         \"error\": \"statement must start with SELECT, found `DROP`\", \
         \"columns\": [], \"rows\": [], \"row_count\": 0, \"total_rows\": 0, \"truncated\": false}",
    );
}

#[test]
fn golden_parse_error() {
    golden(
        ServeConfig::default(),
        QueryRequest::new(6, "demo", "SELECT FROM"),
        "{\"id\": 6, \"code\": \"parse_error\", \
         \"error\": \"parse error at byte 11: unexpected token `FROM` in expression\", \
         \"columns\": [], \"rows\": [], \"row_count\": 0, \"total_rows\": 0, \"truncated\": false}",
    );
}

#[test]
fn golden_bind_error() {
    golden(
        ServeConfig::default(),
        QueryRequest::new(7, "demo", "SELECT t.nope FROM t"),
        "{\"id\": 7, \"code\": \"bind_error\", \"error\": \"unknown column `t.nope`\", \
         \"columns\": [], \"rows\": [], \"row_count\": 0, \"total_rows\": 0, \"truncated\": false}",
    );
}

#[test]
fn golden_exec_error() {
    golden(
        ServeConfig::default(),
        QueryRequest::new(8, "demo", "SELECT t.name + t.id FROM t"),
        "{\"id\": 8, \"code\": \"exec_error\", \
         \"error\": \"type mismatch: non-numeric operand alpha\", \
         \"columns\": [], \"rows\": [], \"row_count\": 0, \"total_rows\": 0, \"truncated\": false}",
    );
}

#[test]
fn golden_timeout() {
    let mut req = QueryRequest::new(9, "demo", "SELECT t.id FROM t");
    req.timeout_ms = Some(0);
    golden(
        ServeConfig::default(),
        req,
        "{\"id\": 9, \"code\": \"timeout\", \
         \"error\": \"deadline exceeded at admission (timeout_ms=0)\", \
         \"columns\": [], \"rows\": [], \"row_count\": 0, \"total_rows\": 0, \"truncated\": false}",
    );
}

#[test]
fn golden_overloaded() {
    golden(
        ServeConfig {
            max_in_flight: 0,
            ..ServeConfig::default()
        },
        QueryRequest::new(10, "demo", "SELECT t.id FROM t"),
        "{\"id\": 10, \"code\": \"overloaded\", \
         \"error\": \"too many requests in flight (max 0)\", \
         \"columns\": [], \"rows\": [], \"row_count\": 0, \"total_rows\": 0, \"truncated\": false}",
    );
}

/// The stable code strings themselves, pinned independently of any
/// particular response.
#[test]
fn error_codes_are_stable() {
    use sb_serve::ErrorCode::*;
    let table = [
        (Ok, "ok"),
        (InvalidRequest, "invalid_request"),
        (NotReadOnly, "not_read_only"),
        (ParseError, "parse_error"),
        (BindError, "bind_error"),
        (ExecError, "exec_error"),
        (Timeout, "timeout"),
        (Overloaded, "overloaded"),
    ];
    for (code, wire) in table {
        assert_eq!(code.as_str(), wire);
    }
}
