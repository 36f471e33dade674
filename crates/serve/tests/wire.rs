//! Hostile request lines at the transport: `serve_lines` must answer
//! each one with a typed response and keep serving the next.

use seminal_serve::{
    serve_lines, CheckRequest, CheckResponse, Request, Response, ServeOptions, ServerState, Status,
};
use std::io::Cursor;

const PROGRAM: &str = "let a = 1 + true";

/// Feeds `lines` to one in-memory connection and decodes every answer.
fn serve(lines: &[String]) -> Vec<Response> {
    let state = ServerState::new();
    let input = lines.join("\n") + "\n";
    let mut output = Vec::new();
    serve_lines(&state, &ServeOptions::default(), Cursor::new(input), &mut output)
        .expect("in-memory transport cannot fail");
    String::from_utf8(output)
        .expect("responses are utf-8")
        .lines()
        .map(|line| Response::from_json_str(line).expect("response is valid seminal-api/v1"))
        .collect()
}

fn check_line(id: u64, source: &str) -> String {
    Request::Check(CheckRequest::new(id, source)).to_json_string()
}

fn as_check(response: &Response) -> &CheckResponse {
    match response {
        Response::Check(check) => check,
        other => panic!("expected a check response, got {other:?}"),
    }
}

#[test]
fn deeply_nested_line_gets_a_typed_error_and_serving_continues() {
    let answers = serve(&["[".repeat(200_000), check_line(2, PROGRAM)]);
    assert_eq!(answers.len(), 2, "one answer per line");
    let Response::Error(err) = &answers[0] else {
        panic!("nested line answered with {:?}", answers[0]);
    };
    assert_eq!(err.status, Status::InvalidRequest);
    assert!(err.error.contains("depth"), "undiagnostic error: {}", err.error);

    // The well-formed check gets the answer a fresh daemon gives it.
    let fresh = serve(&[check_line(2, PROGRAM)]);
    let (after, fresh) = (as_check(&answers[1]), as_check(&fresh[0]));
    assert_eq!(after.status, Status::TypeErrors);
    assert_eq!(after.status, fresh.status);
    assert_eq!(after.rendered, fresh.rendered);
    assert_eq!(after.payload, fresh.payload);
}

#[test]
fn check_with_a_256_kib_comment_is_answered() {
    let source = format!("{PROGRAM}\n(* {} *)\n", "x".repeat(256 * 1024));
    let answers = serve(&[check_line(1, &source)]);
    assert_eq!(answers.len(), 1);
    let check = as_check(&answers[0]);
    assert_eq!(check.status, Status::TypeErrors);
    assert!(!check.payload.is_empty(), "the one-line program still gets suggestions");
}
