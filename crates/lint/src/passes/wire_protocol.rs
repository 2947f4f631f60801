//! Pass 4: wire-protocol exhaustiveness.
//!
//! `server/src/proto.rs` is the single source of truth for the frame
//! protocol: `OP_*` opcode constants, the `Request` / `Response` enums,
//! the borrowed request view `RequestRef` (when the protocol has one),
//! and `ErrorCode`. This pass parses those from the token stream and
//! checks that
//!
//! * `RequestRef`, if defined, has exactly `Request`'s variants — it is
//!   the one decoder and encoder, so a variant missing there could not
//!   cross the wire,
//! * every request variant is constructed/matched in the client and
//!   matched in the server dispatch (`server.rs` + `reactor/conn.rs`),
//!   through either `Request::V` or the view's `RequestRef::V`,
//! * every `Response` variant is matched in the client,
//! * the recovery/replay path decodes through the protocol
//!   (`Request::decode` or `RequestRef::decode`) and the `is_mutation`
//!   filter (so WAL record kinds can never drift from the protocol's
//!   mutation set),
//! * the DESIGN.md §4f opcode table lists exactly the `OP_*` constants
//!   with the same hex values, and its error-code list names exactly the
//!   `ErrorCode` variants.

use crate::diag::Diagnostic;
use crate::lexer::{Token, TokenKind};
use crate::workspace::Workspace;
use crate::LintConfig;
use std::collections::{BTreeMap, BTreeSet};

const PASS: &str = "wire-protocol";

/// What the pass extracts from `proto.rs`.
#[derive(Debug, Default)]
pub struct Protocol {
    /// `OP_*` constant name → numeric value.
    pub opcodes: BTreeMap<String, u64>,
    /// `Request` variant names.
    pub requests: Vec<String>,
    /// `RequestRef` (the borrowed request view) variant names, when the
    /// protocol defines one.
    pub request_view: Option<Vec<String>>,
    /// `Response` variant names.
    pub responses: Vec<String>,
    /// `ErrorCode` variant names.
    pub error_codes: Vec<String>,
}

/// Parses the protocol definitions out of a token stream.
pub fn parse_protocol(tokens: &[Token]) -> Protocol {
    let mut proto = Protocol::default();
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_ident("const")
            && tokens
                .get(i + 1)
                .is_some_and(|n| n.kind == TokenKind::Ident && n.ident_text().starts_with("OP_"))
        {
            let name = tokens[i + 1].ident_text().to_string();
            // `const OP_X: u8 = 0x01;` — the value is the first integer
            // literal before the `;`.
            let mut j = i + 2;
            while j < tokens.len() && !tokens[j].is_punct(";") {
                if tokens[j].kind == TokenKind::Int {
                    if let Some(v) = parse_int(&tokens[j].text) {
                        proto.opcodes.insert(name.clone(), v);
                    }
                    break;
                }
                j += 1;
            }
            i = j;
        } else if t.is_ident("enum") && tokens.get(i + 1).is_some() {
            let name = tokens[i + 1].ident_text().to_string();
            let (variants, next) = parse_enum_variants(tokens, i + 2);
            match name.as_str() {
                "Request" => proto.requests = variants,
                "RequestRef" => proto.request_view = Some(variants),
                "Response" => proto.responses = variants,
                "ErrorCode" => proto.error_codes = variants,
                _ => {}
            }
            i = next;
            continue;
        }
        i += 1;
    }
    proto
}

/// Reads `{ Variant, Variant { … }, Variant(…) = N, … }` starting at or
/// after `i`; returns the variant names and the index past the `}`.
fn parse_enum_variants(tokens: &[Token], mut i: usize) -> (Vec<String>, usize) {
    while i < tokens.len() && !tokens[i].is_punct("{") {
        i += 1;
    }
    let mut variants = Vec::new();
    let mut depth = 0i64;
    let mut expect_name = true;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
            depth += 1;
            if depth > 1 {
                expect_name = false;
            }
        } else if t.is_punct("}") || t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
            if depth == 0 && t.is_punct("}") {
                return (variants, i + 1);
            }
        } else if depth == 1 {
            if t.is_punct(",") {
                expect_name = true;
            } else if t.is_punct("#") {
                // Attribute on the next variant: skip `[…]`.
                if tokens.get(i + 1).is_some_and(|x| x.is_punct("[")) {
                    let mut d = 0i64;
                    let mut k = i + 1;
                    while k < tokens.len() {
                        if tokens[k].is_punct("[") {
                            d += 1;
                        } else if tokens[k].is_punct("]") {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        k += 1;
                    }
                    i = k;
                }
            } else if expect_name && t.kind == TokenKind::Ident {
                variants.push(t.ident_text().to_string());
                expect_name = false;
            }
        }
        i += 1;
    }
    (variants, i)
}

fn parse_int(text: &str) -> Option<u64> {
    // Peel a type suffix carefully: hex digits are alphabetic too, so
    // only trim a known suffix, never arbitrary trailing letters.
    let cleaned = text.replace('_', "");
    let t = [
        "u8", "u16", "u32", "u64", "usize", "i8", "i16", "i32", "i64", "isize",
    ]
    .iter()
    .find_map(|s| cleaned.strip_suffix(s).map(str::to_string))
    .unwrap_or(cleaned);
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        t.parse().ok()
    }
}

/// `Enum::Variant` appears somewhere in `tokens`.
fn mentions_variant(tokens: &[Token], enum_name: &str, variant: &str) -> bool {
    tokens.iter().enumerate().any(|(k, t)| {
        t.is_ident(enum_name)
            && tokens.get(k + 1).is_some_and(|x| x.is_punct("::"))
            && tokens.get(k + 2).is_some_and(|x| x.is_ident(variant))
    })
}

/// `Request::V` — or, when the protocol has a borrowed view, `RequestRef::V`
/// — appears somewhere in `tokens`.
fn mentions_request(tokens: &[Token], proto: &Protocol, variant: &str) -> bool {
    mentions_variant(tokens, "Request", variant)
        || (proto.request_view.is_some() && mentions_variant(tokens, "RequestRef", variant))
}

/// Runs the pass against the configured proto/client/dispatch files and
/// DESIGN.md.
pub fn run(ws: &Workspace, cfg: &LintConfig) -> Vec<Diagnostic> {
    let Some(proto_rel) = &cfg.proto_rel else {
        return Vec::new();
    };
    let mut diags = Vec::new();
    let Some(proto_file) = ws.file(proto_rel) else {
        diags.push(Diagnostic::new(
            PASS,
            proto_rel,
            0,
            0,
            "protocol definition file not found",
        ));
        return diags;
    };
    let proto = parse_protocol(&proto_file.tokens);
    if proto.requests.is_empty() || proto.responses.is_empty() || proto.error_codes.is_empty() {
        diags.push(Diagnostic::new(
            PASS,
            proto_rel,
            1,
            1,
            "could not parse Request/Response/ErrorCode enums from the protocol file",
        ));
        return diags;
    }

    // The borrowed view is the only codec: it must mirror `Request`.
    if let Some(view) = &proto.request_view {
        for v in proto.requests.iter().filter(|v| !view.contains(v)) {
            diags.push(Diagnostic::new(
                PASS,
                proto_rel,
                1,
                1,
                format!("`RequestRef::{v}` is missing: the borrowed view must mirror every `Request` variant"),
            ));
        }
        for v in view.iter().filter(|v| !proto.requests.contains(v)) {
            diags.push(Diagnostic::new(
                PASS,
                proto_rel,
                1,
                1,
                format!("`RequestRef::{v}` has no `Request` counterpart"),
            ));
        }
    }

    // Client: must speak every request and handle every response.
    for client_rel in &cfg.client_rels {
        let Some(client) = ws.file(client_rel) else {
            diags.push(Diagnostic::new(
                PASS,
                client_rel,
                0,
                0,
                "client file not found",
            ));
            continue;
        };
        for v in &proto.requests {
            if !mentions_request(&client.tokens, &proto, v) {
                diags.push(Diagnostic::new(
                    PASS,
                    client_rel,
                    1,
                    1,
                    format!("client never constructs or matches `Request::{v}`"),
                ));
            }
        }
        for v in &proto.responses {
            if !mentions_variant(&client.tokens, "Response", v) {
                diags.push(Diagnostic::new(
                    PASS,
                    client_rel,
                    1,
                    1,
                    format!("client never handles `Response::{v}`"),
                ));
            }
        }
    }

    // Dispatch: the union of the dispatch files must match every request.
    if !cfg.dispatch_rels.is_empty() {
        let mut dispatch_tokens: Vec<Token> = Vec::new();
        for rel in &cfg.dispatch_rels {
            match ws.file(rel) {
                Some(f) => dispatch_tokens.extend(f.tokens.iter().cloned()),
                None => diags.push(Diagnostic::new(PASS, rel, 0, 0, "dispatch file not found")),
            }
        }
        for v in &proto.requests {
            if !mentions_request(&dispatch_tokens, &proto, v) {
                diags.push(Diagnostic::new(
                    PASS,
                    &cfg.dispatch_rels[0],
                    1,
                    1,
                    format!("server dispatch never matches `Request::{v}`"),
                ));
            }
        }
    }

    // Recovery: WAL replay must decode through the protocol and filter
    // on `is_mutation` so log record kinds cannot drift.
    if let Some(recovery_rel) = &cfg.recovery_rel {
        match ws.file(recovery_rel) {
            Some(rec) => {
                if !mentions_variant(&rec.tokens, "Request", "decode")
                    && !mentions_variant(&rec.tokens, "RequestRef", "decode")
                {
                    diags.push(Diagnostic::new(
                        PASS,
                        recovery_rel,
                        1,
                        1,
                        "recovery replay does not decode records via `Request::decode`",
                    ));
                }
                if !rec.tokens.iter().any(|t| t.is_ident("is_mutation")) {
                    diags.push(Diagnostic::new(
                        PASS,
                        recovery_rel,
                        1,
                        1,
                        "recovery replay does not filter records through `is_mutation`",
                    ));
                }
            }
            None => diags.push(Diagnostic::new(
                PASS,
                recovery_rel,
                0,
                0,
                "recovery file not found",
            )),
        }
    }

    // DESIGN.md §4f agreement.
    if let Some(design_path) = &cfg.design_path {
        match std::fs::read_to_string(design_path) {
            Ok(text) => check_design(&text, &proto, cfg, &mut diags),
            Err(e) => diags.push(Diagnostic::new(
                PASS,
                &cfg.design_rel,
                0,
                0,
                format!("cannot read design doc: {e}"),
            )),
        }
    }
    diags
}

/// Extracts the serving-layer section and compares its opcode table and
/// error-code list against the parsed protocol.
fn check_design(text: &str, proto: &Protocol, cfg: &LintConfig, diags: &mut Vec<Diagnostic>) {
    let Some((section, base_line)) = section_4f(text) else {
        diags.push(Diagnostic::new(
            PASS,
            &cfg.design_rel,
            0,
            0,
            "DESIGN.md has no serving-layer (§4f) section to check the protocol against",
        ));
        return;
    };

    // Opcode table: every `0xNN NAME` pair in the section.
    let mut documented: BTreeMap<String, u64> = BTreeMap::new();
    for line in section.lines() {
        let mut words = line.split_whitespace().peekable();
        while let Some(w) = words.next() {
            if let Some(hex) = w.strip_prefix("0x") {
                if let (Ok(v), Some(name)) = (u64::from_str_radix(hex, 16), words.peek()) {
                    let name: String = name
                        .chars()
                        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                        .collect();
                    let is_opcode_name = !name.is_empty()
                        && name
                            .chars()
                            .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit());
                    if is_opcode_name {
                        documented.insert(format!("OP_{name}"), v);
                    }
                }
            }
        }
    }
    for (name, value) in &proto.opcodes {
        match documented.get(name) {
            None => diags.push(Diagnostic::new(
                PASS,
                &cfg.design_rel,
                base_line,
                0,
                format!("opcode `{name}` (0x{value:02X}) is not in the DESIGN.md §4f opcode table"),
            )),
            Some(v) if v != value => diags.push(Diagnostic::new(
                PASS,
                &cfg.design_rel,
                base_line,
                0,
                format!(
                    "opcode `{name}` is 0x{value:02X} in source but 0x{v:02X} in DESIGN.md §4f"
                ),
            )),
            Some(_) => {}
        }
    }
    for (name, value) in &documented {
        if !proto.opcodes.contains_key(name) {
            diags.push(Diagnostic::new(
                PASS,
                &cfg.design_rel,
                base_line,
                0,
                format!(
                    "DESIGN.md §4f documents opcode `{name}` (0x{value:02X}) that the \
                     protocol does not define"
                ),
            ));
        }
    }

    // Error-code list: the sentence after "Error codes:".
    let Some(idx) = section.find("Error codes:") else {
        diags.push(Diagnostic::new(
            PASS,
            &cfg.design_rel,
            base_line,
            0,
            "DESIGN.md §4f has no `Error codes:` list",
        ));
        return;
    };
    let rest = &section[idx + "Error codes:".len()..];
    let sentence = rest.split('.').next().unwrap_or("");
    let listed: BTreeSet<String> = sentence
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|w| {
            w.len() > 1
                && w.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                && w.chars().all(|c| c.is_ascii_alphanumeric())
        })
        // Parenthetical prose like "(REMOVE below zero)" is uppercase or
        // mixed; keep only words that name an ErrorCode variant shape:
        // leading capital, not ALL-CAPS.
        .filter(|w| w.chars().any(|c| c.is_ascii_lowercase()))
        .map(str::to_string)
        .collect();
    for v in &proto.error_codes {
        if !listed.contains(v) {
            diags.push(Diagnostic::new(
                PASS,
                &cfg.design_rel,
                base_line,
                0,
                format!("ErrorCode::{v} is missing from the DESIGN.md §4f error-code list"),
            ));
        }
    }
    for w in &listed {
        if !proto.error_codes.iter().any(|v| v == w) {
            diags.push(Diagnostic::new(
                PASS,
                &cfg.design_rel,
                base_line,
                0,
                format!("DESIGN.md §4f lists error code `{w}` that `ErrorCode` does not define"),
            ));
        }
    }
}

/// The §4f section body and the 1-based line of its heading.
fn section_4f(text: &str) -> Option<(String, u32)> {
    let mut start = None;
    let mut out = String::new();
    for (i, line) in text.lines().enumerate() {
        match start {
            None => {
                if line.starts_with('#') && line.contains("4f") {
                    start = Some(i as u32 + 1);
                }
            }
            Some(_) => {
                if line.starts_with("##") {
                    break;
                }
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    start.map(|s| (out, s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn parses_consts_and_enums() {
        let src = r#"
            pub const OP_PING: u8 = 0x01;
            pub const OP_OK: u8 = 0x80;
            /// Doc comment.
            pub enum Request {
                Ping,
                Insert { count: u64, key: Vec<u8> },
                Estimate(Vec<u8>),
            }
            pub enum ErrorCode { BadFrame = 1, Io = 7 }
        "#;
        let proto = parse_protocol(&lex(src));
        assert_eq!(proto.opcodes["OP_PING"], 1);
        assert_eq!(proto.opcodes["OP_OK"], 0x80);
        assert_eq!(proto.requests, vec!["Ping", "Insert", "Estimate"]);
        assert_eq!(proto.error_codes, vec!["BadFrame", "Io"]);
    }

    #[test]
    fn variant_attributes_do_not_become_variants() {
        let src = "enum E { #[allow(dead_code)] A, B(u8), C { x: u8 } }";
        let proto_toks = lex(src);
        let (variants, _) = parse_enum_variants(&proto_toks, 2);
        assert_eq!(variants, vec!["A", "B", "C"]);
    }
}
