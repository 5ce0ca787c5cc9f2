//! Per-function concurrency summaries — the intraprocedural half of the
//! interprocedural analysis (DESIGN.md §15).
//!
//! [`summarize`] runs one linear scan over every function body in a masked
//! file and produces a [`FnSummary`] per function:
//!
//! * which ranked locks (declared in `lock_order.toml` for this file) the
//!   body acquires, and where;
//! * every outgoing call site, with the set of ordered guards held at that
//!   point — the raw material for [`crate::callgraph`]'s whole-workspace
//!   fixpoint;
//! * every lexically blocking operation (`write_at`/`read_at`/`sync`,
//!   condvar waits, channel `recv`, `thread::sleep`), again with the held
//!   set — the **no-blocking-under-lock** rule;
//! * ordered guards that escape the function (returned, stored into a
//!   struct, or yielded as the tail expression) — the **guard-escape**
//!   rule, since a guard outliving its static scope defeats rank tracking.
//!
//! The intra-function lock-order rule is evaluated during the same scan
//! (it used to live in [`crate::rules`]); guard liveness tracks plain
//! `let` bindings, `let (a, b) = ...` tuple destructuring, `if let`/`while
//! let` bindings (scoped to their block), explicit `drop(g)`, and block
//! scopes.

use std::collections::HashMap;

use crate::config::LockOrder;
use crate::lexer::is_ident;
use crate::rules::{annotation_reason_ok, find_word, match_brace, FileCtx};
use crate::Violation;

/// Annotation marker exempting a lock acquisition or call site from the
/// (intra- or interprocedural) lock-order rule.
pub const ALLOW_LOCK_ORDER: &str = "LINT: allow(lock-order)";
/// Annotation marker exempting a site from the no-blocking-under-lock rule.
pub const ALLOW_BLOCKING: &str = "LINT: allow(blocking-under-lock)";
/// Annotation marker exempting a site from the guard-escape rule.
pub const ALLOW_ESCAPE: &str = "LINT: allow(guard-escape)";
/// Annotation marker severing a call site from interprocedural resolution
/// — for receivers the any-callee fallback would resolve spuriously (e.g.
/// slice elements sharing a method name with a locking wrapper).
pub const ALLOW_CALLGRAPH: &str = "LINT: allow(callgraph)";

/// Method names treated as lexically blocking: device I/O, condvar waits,
/// and channel receives. `thread::sleep` is matched by path instead. These
/// never become call-graph edges — they are the sinks the
/// no-blocking-under-lock rule protects.
pub const BLOCKING_METHODS: &[&str] = &[
    "write_at",
    "read_at",
    "sync",
    "sync_all",
    "sync_data",
    "set_len",
    "wait",
    "wait_for",
    "wait_until",
    "wait_while",
    "write_all",
    "write_all_at",
    "read_exact",
    "recv",
    "recv_timeout",
];

/// Identifiers that introduce control flow, not calls.
const KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "in", "as", "move", "else", "let", "fn",
    "impl", "struct", "enum", "trait", "use", "pub", "mod", "ref", "dyn", "where", "unsafe",
    "break", "continue", "crate", "super", "await", "yield",
];

/// A registered ordered-lock guard held at some program point.
#[derive(Debug, Clone)]
pub struct HeldLock {
    /// Receiver name as registered in `lock_order.toml`.
    pub recv: String,
    /// Declared rank.
    pub rank: u16,
    /// Binding name holding the guard.
    pub binding: String,
    /// Line the guard was acquired on.
    pub line: usize,
    /// Brace depth at acquisition (scanner bookkeeping).
    depth: usize,
}

/// One local acquisition of a registered ordered lock.
#[derive(Debug, Clone)]
pub struct Acquire {
    /// Receiver name as registered in `lock_order.toml`.
    pub recv: String,
    /// Declared rank.
    pub rank: u16,
    /// 1-based line of the acquisition.
    pub line: usize,
}

/// How a call site names its target.
#[derive(Debug, Clone)]
pub enum CallTarget {
    /// `recv.name(..)`: receiver path segments in source order, e.g.
    /// `self.backend.write_at(..)` → `["self", "backend"]`. `complex` means
    /// a segment was itself a call or index, so the chain is unresolvable.
    Method {
        /// Receiver path segments in source order.
        chain: Vec<String>,
        /// A segment was a call/index expression; type is unknowable here.
        complex: bool,
    },
    /// `Qual::name(..)` — the last path segment before the `::`.
    Qualified {
        /// Type (uppercase) or module (lowercase) qualifier.
        qualifier: String,
    },
    /// A bare `name(..)` call.
    Free,
}

/// An outgoing call site with the ordered guards held around it.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name as written at the call site.
    pub name: String,
    /// 1-based line of the call.
    pub line: usize,
    /// How the callee is named (drives resolution heuristics).
    pub target: CallTarget,
    /// Ordered guards held at the call.
    pub held: Vec<HeldLock>,
    /// Site carries a well-formed `LINT: allow(lock-order)` annotation.
    pub allow_lock_order: bool,
    /// Site carries a well-formed `LINT: allow(blocking-under-lock)`.
    pub allow_blocking: bool,
    /// Site carries `LINT: allow(callgraph)` — excluded from resolution.
    pub allow_callgraph: bool,
}

/// A lexically blocking operation (device I/O, condvar wait, sleep, recv).
#[derive(Debug, Clone)]
pub struct BlockSite {
    /// What blocks, e.g. `write_at()` or `thread::sleep`.
    pub what: String,
    /// 1-based line.
    pub line: usize,
}

/// Summary of one function body.
#[derive(Debug, Clone)]
pub struct FnSummary {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Type this function is an inherent/trait method of, if any.
    pub impl_type: Option<String>,
    /// Takes some form of `self`.
    pub is_method: bool,
    /// Defined under `#[cfg(test)]` or in a test-context file; violations
    /// from blocking/escape rules are not reported for such functions.
    pub in_test: bool,
    /// Ranked locks acquired directly in this body.
    pub acquires: Vec<Acquire>,
    /// Outgoing calls (the call-graph edges), with held sets.
    pub calls: Vec<CallSite>,
    /// Lexically blocking operations anywhere in the body (held or not);
    /// any entry makes the function "may block" for propagation.
    pub blocks: Vec<BlockSite>,
    /// Known local variable/parameter types (base type names).
    pub var_types: HashMap<String, String>,
}

/// A struct declaration: field name → base type, for receiver resolution.
#[derive(Debug, Clone)]
pub struct StructInfo {
    /// Struct name.
    pub name: String,
    /// `(field, base type)` pairs.
    pub fields: Vec<(String, String)>,
}

/// Everything the workspace pass needs from one file.
#[derive(Debug)]
pub struct FileSummary {
    /// Workspace-relative path.
    pub file: String,
    /// Per-function summaries, in source order.
    pub fns: Vec<FnSummary>,
    /// Struct field types declared in this file.
    pub structs: Vec<StructInfo>,
    /// Intra-function findings: lock-order inversions, guard escapes, and
    /// malformed annotations.
    pub violations: Vec<Violation>,
    /// Direct blocking-under-lock findings (unannotated, non-test); the
    /// caller applies the `[blocking]` baseline before reporting.
    pub blocking: Vec<Violation>,
}

/// Whether `text[at..]` starts with `word` on identifier boundaries.
fn word_at(text: &str, at: usize, word: &str) -> bool {
    let bytes = text.as_bytes();
    if !text[at..].starts_with(word) {
        return false;
    }
    if at > 0 && is_ident(bytes[at - 1] as char) {
        return false;
    }
    let end = at + word.len();
    end >= bytes.len() || !is_ident(bytes[end] as char)
}

/// Byte offset of the `)` matching the `(` at `open` (masked text).
fn match_paren(text: &str, open: usize) -> usize {
    let bytes = text.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    bytes.len()
}

/// The identifier ending at (or before, skipping whitespace) `at`.
fn ident_before(text: &str, at: usize) -> Option<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut i = at;
    while i > 0 && (bytes[i - 1] as char).is_whitespace() {
        i -= 1;
    }
    let end = i;
    while i > 0 && is_ident(bytes[i - 1] as char) {
        i -= 1;
    }
    if i == end {
        None
    } else {
        Some((i, end))
    }
}

/// Walks a method receiver backwards from the `.` before the method name.
/// Returns the path segments in source order (`self.backend` →
/// `["self", "backend"]`), whether any segment was a call/index expression,
/// and the byte offset where the receiver expression starts.
fn receiver_chain(text: &str, dot_at: usize) -> (Vec<String>, bool, usize) {
    let bytes = text.as_bytes();
    let mut segs: Vec<String> = Vec::new();
    let mut complex = false;
    let mut i = dot_at;
    let mut start = dot_at;
    for _ in 0..4 {
        while i > 0 && (bytes[i - 1] as char).is_whitespace() {
            i -= 1;
        }
        // Skip one balanced () or [] group (a call or index segment).
        if i > 0 && (bytes[i - 1] == b')' || bytes[i - 1] == b']') {
            let (open, shut) = if bytes[i - 1] == b')' { (b'(', b')') } else { (b'[', b']') };
            complex = true;
            let mut depth = 0usize;
            while i > 0 {
                i -= 1;
                if bytes[i] == shut {
                    depth += 1;
                } else if bytes[i] == open {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
            while i > 0 && (bytes[i - 1] as char).is_whitespace() {
                i -= 1;
            }
        }
        let end = i;
        while i > 0 && is_ident(bytes[i - 1] as char) {
            i -= 1;
        }
        if i == end {
            break;
        }
        segs.insert(0, text[i..end].to_string());
        start = i;
        while i > 0 && (bytes[i - 1] as char).is_whitespace() {
            i -= 1;
        }
        if i > 0 && bytes[i - 1] == b'.' {
            i -= 1;
            continue;
        }
        if i >= 2 && &text[i - 2..i] == "::" {
            // `Path::seg.method()` — rare; treat as unresolvable.
            complex = true;
        }
        break;
    }
    (segs, complex, start)
}

/// Strips references, lifetimes, `mut`/`dyn`, and smart-pointer wrappers
/// down to the base type name (`&mut Arc<FaultDisk>` → `FaultDisk`).
/// Returns `None` for primitives, closures, and anything unrecognizable.
pub fn base_type(s: &str) -> Option<String> {
    let mut t = s.trim();
    loop {
        if let Some(rest) = t.strip_prefix('&') {
            t = rest.trim_start();
            continue;
        }
        if t.starts_with('\'') {
            match t.find(char::is_whitespace) {
                Some(d) => t = t[d..].trim_start(),
                None => return None,
            }
            continue;
        }
        if let Some(rest) = t.strip_prefix("mut ") {
            t = rest.trim_start();
            continue;
        }
        if let Some(rest) = t.strip_prefix("dyn ") {
            t = rest.trim_start();
            continue;
        }
        break;
    }
    let (head, inner) = match t.find('<') {
        // `rfind` can land *before* the `<` on closure-typed params whose
        // `->` arrow supplies the last `>` (`impl FnMut() -> Result<T`,
        // already clipped at a top-level comma); treat that as no generics.
        Some(d) => (&t[..d], t.rfind('>').filter(|&e| e > d).map(|e| &t[d + 1..e])),
        None => (t, None),
    };
    let head = head.trim();
    let seg = head.rsplit("::").next().unwrap_or(head).trim();
    if matches!(seg, "Arc" | "Box" | "Rc" | "RefCell" | "Cell" | "Mutex" | "RwLock") {
        if let Some(inner) = inner {
            // Wrapper: the interesting type is the first generic argument.
            let first = top_level_split(inner, ',').into_iter().next().unwrap_or(inner);
            return base_type(first);
        }
    }
    if seg.is_empty() || !seg.starts_with(|c: char| c.is_ascii_uppercase()) {
        return None;
    }
    Some(seg.to_string())
}

/// Splits `s` on `sep` at zero angle/paren/bracket depth.
fn top_level_split(s: &str, sep: char) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => depth -= 1,
            c if c == sep && depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

/// Parses struct declarations (brace form) into field-type tables.
fn parse_structs(text: &str) -> Vec<StructInfo> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut pos = 0;
    while let Some(at) = find_word(text, "struct", pos) {
        pos = at + 6;
        let Some((ns, ne)) = next_ident(text, pos) else { continue };
        let name = text[ns..ne].to_string();
        let mut j = ne;
        // Skip generics.
        j = skip_ws(text, j);
        if j < bytes.len() && bytes[j] == b'<' {
            j = skip_angles(text, j);
        }
        // Find the body opener; `(`/`;` mean tuple/unit struct (no fields).
        let Some(d) = text[j..].find(['{', '(', ';']) else { continue };
        if bytes[j + d] != b'{' {
            continue;
        }
        let open = j + d;
        let close = match_brace(text, open);
        let body = &text[open + 1..close];
        let mut fields = Vec::new();
        for part in top_level_split(body, ',') {
            let part = part.trim();
            // Strip attributes and visibility.
            let part = strip_meta(part);
            if let Some((fname, fty)) = part.split_once(':') {
                let fname = fname.trim();
                if fname.chars().all(is_ident) && !fname.is_empty() {
                    if let Some(base) = base_type(fty) {
                        fields.push((fname.to_string(), base));
                    }
                }
            }
        }
        out.push(StructInfo { name, fields });
        pos = close;
    }
    out
}

/// Strips leading `#[...]` attributes and `pub(...)` visibility from a
/// field declaration.
fn strip_meta(mut s: &str) -> &str {
    loop {
        s = s.trim_start();
        if s.starts_with("#[") {
            let mut depth = 0usize;
            let mut cut = s.len();
            for (i, c) in s.char_indices() {
                match c {
                    '[' => depth += 1,
                    ']' => {
                        depth -= 1;
                        if depth == 0 {
                            cut = i + 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            s = &s[cut..];
            continue;
        }
        if let Some(rest) = s.strip_prefix("pub") {
            let rest = rest.trim_start();
            if let Some(r2) = rest.strip_prefix('(') {
                match r2.find(')') {
                    Some(d) => s = &r2[d + 1..],
                    None => return "",
                }
            } else {
                s = rest;
            }
            continue;
        }
        return s;
    }
}

fn skip_ws(text: &str, mut i: usize) -> usize {
    let bytes = text.as_bytes();
    while i < bytes.len() && (bytes[i] as char).is_whitespace() {
        i += 1;
    }
    i
}

fn skip_angles(text: &str, open: usize) -> usize {
    let bytes = text.as_bytes();
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'<' => depth += 1,
            b'>' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

fn next_ident(text: &str, at: usize) -> Option<(usize, usize)> {
    let bytes = text.as_bytes();
    let s = skip_ws(text, at);
    let mut e = s;
    while e < bytes.len() && is_ident(bytes[e] as char) {
        e += 1;
    }
    if e == s {
        None
    } else {
        Some((s, e))
    }
}

/// `impl`/`trait` block ranges with the type (or trait) name they define
/// methods for.
fn parse_impl_ranges(text: &str) -> Vec<(usize, usize, String)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    for kw in ["impl", "trait"] {
        let mut pos = 0;
        while let Some(at) = find_word(text, kw, pos) {
            pos = at + kw.len();
            // `-> impl Trait` / `(impl Trait` / `: impl` are type positions,
            // not item definitions.
            let mut p = at;
            while p > 0 && (bytes[p - 1] as char).is_whitespace() {
                p -= 1;
            }
            if p > 0 && matches!(bytes[p - 1], b'>' | b'(' | b',' | b':' | b'&' | b'<' | b'=') {
                continue;
            }
            let mut j = skip_ws(text, pos);
            if kw == "impl" && j < bytes.len() && bytes[j] == b'<' {
                j = skip_ws(text, skip_angles(text, j));
            }
            let Some(brace_rel) = text[j..].find(['{', ';']) else { break };
            if bytes[j + brace_rel] == b';' {
                continue;
            }
            let open = j + brace_rel;
            let mut header = &text[j..open];
            if let Some(w) = find_word(header, "where", 0) {
                header = &header[..w];
            }
            let ty_str = if kw == "impl" {
                match find_word(header, "for", 0) {
                    Some(f) => &header[f + 3..],
                    None => header,
                }
            } else {
                header
            };
            let Some(ty) = base_type(ty_str) else {
                continue;
            };
            let close = match_brace(text, open);
            out.push((open, close, ty));
            pos = open + 1;
        }
    }
    out
}

/// Computes summaries (and intra-function findings) for one file.
/// `file_is_test` marks whole-file test contexts (integration tests,
/// benches): their functions never produce blocking/escape reports, but
/// their summaries still feed the call graph.
pub fn summarize(ctx: &FileCtx, cfg: &LockOrder, file_is_test: bool) -> FileSummary {
    let text = &ctx.masked.text;
    let decls: Vec<_> = cfg.locks.iter().filter(|d| d.file == ctx.file).collect();
    let rank_of = |recv: &str| decls.iter().find(|d| d.recv == recv).map(|d| d.rank);

    let structs = parse_structs(text);
    let impls = parse_impl_ranges(text);
    let mut out = FileSummary {
        file: ctx.file.to_string(),
        fns: Vec::new(),
        structs,
        violations: Vec::new(),
        blocking: Vec::new(),
    };

    let bytes = text.as_bytes();
    let mut pos = 0;
    while let Some(at) = find_word(text, "fn", pos) {
        pos = at + 2;
        let Some((ns, ne)) = next_ident(text, at + 2) else { continue };
        // `fn` pointer types (`fn(u32) -> u32`) have no name ident directly
        // after; `next_ident` returning the next word over would misfire,
        // so require the name to start right after whitespace.
        if text[at + 2..ns].contains(|c: char| !c.is_whitespace()) {
            continue;
        }
        let Some(d) = text[ne..].find(['{', ';']) else { break };
        if bytes[ne + d] == b';' {
            pos = ne + d + 1;
            continue;
        }
        let open = ne + d;
        let close = match_brace(text, open);
        let line = ctx.line_of(at);
        let impl_type = impls
            .iter()
            .filter(|&&(o, c, _)| o < at && at < c)
            .min_by_key(|&&(o, c, _)| c - o)
            .map(|(_, _, ty)| ty.clone());

        // Parameter types.
        let mut var_types = HashMap::new();
        let mut is_method = false;
        if let Some(po) = text[ne..open].find('(') {
            let popen = ne + po;
            let pclose = match_paren(text, popen);
            if pclose < open {
                for param in top_level_split(&text[popen + 1..pclose], ',') {
                    let p = param.trim();
                    let bare = p.trim_start_matches(['&', ' ']).trim_start_matches("mut ");
                    if bare == "self" || bare.starts_with("self ") || p.starts_with("self") {
                        is_method = true;
                        continue;
                    }
                    if let Some((pname, pty)) = p.split_once(':') {
                        let pname = pname.trim().trim_start_matches("mut ").trim();
                        if pname.chars().all(is_ident) && !pname.is_empty() {
                            if let Some(base) = base_type(pty) {
                                var_types.insert(pname.to_string(), base);
                            }
                        }
                    }
                }
            }
        }

        let mut fun = FnSummary {
            name: text[ns..ne].to_string(),
            line,
            impl_type,
            is_method,
            in_test: file_is_test || ctx.in_test_item(line),
            acquires: Vec::new(),
            calls: Vec::new(),
            blocks: Vec::new(),
            var_types,
        };
        scan_body(ctx, &rank_of, open, close, &mut fun, &mut out);
        out.fns.push(fun);
        pos = close;
    }
    out
}

/// Reads the annotation state for `marker` at `line`: `None` if absent,
/// `Some(true)` if present with a reason, `Some(false)` if malformed.
fn annotation_state(ctx: &FileCtx, line: usize, marker: &str) -> Option<bool> {
    ctx.annotation(line, marker)
        .map(|text| annotation_reason_ok(text, marker))
}

/// The linear walk over one function body.
#[allow(clippy::too_many_lines)]
fn scan_body(
    ctx: &FileCtx,
    rank_of: &dyn Fn(&str) -> Option<u16>,
    open: usize,
    close: usize,
    fun: &mut FnSummary,
    out: &mut FileSummary,
) {
    let text = &ctx.masked.text;
    let bytes = text.as_bytes();
    let mut held: Vec<HeldLock> = Vec::new();
    let mut depth = 0usize;
    let mut i = open;
    while i < close {
        match bytes[i] {
            b'{' => {
                depth += 1;
                i += 1;
            }
            b'}' => {
                depth = depth.saturating_sub(1);
                held.retain(|h| h.depth <= depth);
                i += 1;
            }
            b'r' if word_at(text, i, "return") => {
                // `return g;` where `g` is a held ordered guard.
                if let Some((gs, ge)) = next_ident(text, i + 6) {
                    let name = &text[gs..ge];
                    let stmt_done = text[ge..].trim_start().starts_with(';');
                    if stmt_done {
                        if let Some(h) = held.iter().find(|h| h.binding == name) {
                            report_escape(ctx, fun, out, &h.recv.clone(), h.rank, ctx.line_of(gs), "is returned");
                        }
                    }
                }
                i += 6;
            }
            b'l' if word_at(text, i, "let") => {
                record_let_type(text, i, fun);
                i += 3;
            }
            b'(' => {
                handle_paren(ctx, rank_of, i, open, close, &mut held, depth, fun, out);
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// Records `let name: Type = ...` / `let name = Type::...` local types.
fn record_let_type(text: &str, let_at: usize, fun: &mut FnSummary) {
    let bytes = text.as_bytes();
    let mut j = skip_ws(text, let_at + 3);
    if text[j..].starts_with("mut ") {
        j = skip_ws(text, j + 4);
    }
    let Some((ns, ne)) = next_ident(text, j) else { return };
    if ns != j {
        return;
    }
    let name = &text[ns..ne];
    let mut k = skip_ws(text, ne);
    if k >= bytes.len() || bytes[k] == b'(' {
        // Pattern (`let Some(x)` / tuple) — handled by guard binding logic.
        return;
    }
    if bytes[k] == b':' {
        let ty_end = text[k + 1..]
            .find(['=', ';'])
            .map(|d| k + 1 + d)
            .unwrap_or(text.len());
        if let Some(base) = base_type(&text[k + 1..ty_end]) {
            fun.var_types.insert(name.to_string(), base);
        }
        return;
    }
    if bytes[k] == b'=' {
        k = skip_ws(text, k + 1);
        let Some((ts, te)) = next_ident(text, k) else { return };
        if ts != k {
            return;
        }
        let ty = &text[ts..te];
        if !ty.starts_with(|c: char| c.is_ascii_uppercase()) {
            return;
        }
        let after = skip_ws(text, te);
        // `Type::ctor(...)` or `Type { ... }` both pin the type.
        if text[after..].starts_with("::") || bytes.get(after) == Some(&b'{') {
            fun.var_types.insert(name.to_string(), ty.to_string());
        }
    }
}

/// Classifies the `(` at `paren`: lock token, blocking op, `drop`, or call.
#[allow(clippy::too_many_arguments)]
fn handle_paren(
    ctx: &FileCtx,
    rank_of: &dyn Fn(&str) -> Option<u16>,
    paren: usize,
    open: usize,
    close: usize,
    held: &mut Vec<HeldLock>,
    depth: usize,
    fun: &mut FnSummary,
    out: &mut FileSummary,
) {
    let text = &ctx.masked.text;
    let bytes = text.as_bytes();
    let Some((ns, ne)) = ident_before(text, paren) else { return };
    let name = &text[ns..ne];
    if KEYWORDS.contains(&name) {
        return;
    }
    let mut q = ns;
    while q > open && (bytes[q - 1] as char).is_whitespace() {
        q -= 1;
    }
    // A nested `fn` definition, not a call.
    if q >= 2 && word_at(text, q - 2, "fn") {
        return;
    }
    let is_method = q > 0 && bytes[q - 1] == b'.';
    let qualified = !is_method && q >= 2 && &text[q - 2..q] == "::";
    let end = match_paren(text, paren);
    let line = ctx.line_of(ns);
    let argless = text[paren + 1..end.min(close)].trim().is_empty();

    // Ordered-lock acquisition.
    if is_method && argless && matches!(name, "lock" | "read" | "write" | "try_lock") {
        let (chain, _complex, recv_start) = receiver_chain(text, q - 1);
        let Some(recv) = chain.last().cloned() else { return };
        let Some(rank) = rank_of(&recv) else { return };
        handle_acquisition(
            ctx, held, depth, fun, out, &recv, rank, line, recv_start, end + 1, close,
        );
        return;
    }

    // Blocking operations (lexical sinks; never call-graph edges).
    let thread_sleep = qualified && name == "sleep" && {
        let (qs, qe) = ident_before(text, q - 2).unwrap_or((q, q));
        &text[qs..qe] == "thread"
    };
    if (is_method && BLOCKING_METHODS.contains(&name)) || thread_sleep {
        let what = if thread_sleep {
            "thread::sleep".to_string()
        } else {
            format!("{name}()")
        };
        fun.blocks.push(BlockSite { what: what.clone(), line });
        if !held.is_empty() && !fun.in_test && !ctx.in_test_item(line) {
            match annotation_state(ctx, line, ALLOW_BLOCKING) {
                Some(true) => {}
                Some(false) => out.violations.push(Violation {
                    file: ctx.file.to_string(),
                    line,
                    rule: "blocking-under-lock",
                    message: "`LINT: allow(blocking-under-lock)` annotation is missing a reason"
                        .into(),
                }),
                None => {
                    let h = held.iter().max_by_key(|h| h.rank).cloned();
                    if let Some(h) = h {
                        out.blocking.push(Violation {
                            file: ctx.file.to_string(),
                            line,
                            rule: "blocking-under-lock",
                            message: format!(
                                "`{what}` while `{}` (rank {}, bound as `{}` on line {}) is \
                                 held — drop ordered guards before blocking calls or annotate \
                                 `LINT: allow(blocking-under-lock) — reason`",
                                h.recv, h.rank, h.binding, h.line
                            ),
                        });
                    }
                }
            }
        }
        return;
    }

    // `drop(g)` releases a held binding.
    if name == "drop" && !is_method && !qualified {
        if let Some((as_, ae)) = next_ident(text, paren + 1) {
            let arg = &text[as_..ae];
            if text[ae..].trim_start().starts_with(')') {
                if let Some(idx) = held.iter().rposition(|h| h.binding == arg) {
                    held.remove(idx);
                }
            }
        }
        return;
    }

    // An ordinary call site.
    let target = if is_method {
        let (chain, complex, _) = receiver_chain(text, q - 1);
        CallTarget::Method { chain, complex }
    } else if qualified {
        let (qs, qe) = match ident_before(text, q - 2) {
            Some(p) => p,
            None => (q, q),
        };
        CallTarget::Qualified { qualifier: text[qs..qe].to_string() }
    } else {
        CallTarget::Free
    };
    let allow_callgraph = match annotation_state(ctx, line, ALLOW_CALLGRAPH) {
        Some(true) => true,
        Some(false) => {
            out.violations.push(Violation {
                file: ctx.file.to_string(),
                line,
                rule: "callgraph",
                message: "`LINT: allow(callgraph)` annotation is missing a reason".into(),
            });
            false
        }
        None => false,
    };
    fun.calls.push(CallSite {
        name: name.to_string(),
        line,
        target,
        held: held.clone(),
        allow_lock_order: annotation_state(ctx, line, ALLOW_LOCK_ORDER) == Some(true),
        allow_blocking: annotation_state(ctx, line, ALLOW_BLOCKING) == Some(true),
        allow_callgraph,
    });
}

/// One tracked acquisition: ordering check, escape check, guard binding.
#[allow(clippy::too_many_arguments)]
fn handle_acquisition(
    ctx: &FileCtx,
    held: &mut Vec<HeldLock>,
    depth: usize,
    fun: &mut FnSummary,
    out: &mut FileSummary,
    recv: &str,
    rank: u16,
    line: usize,
    recv_start: usize,
    after: usize,
    close: usize,
) {
    let text = &ctx.masked.text;
    fun.acquires.push(Acquire { recv: recv.to_string(), rank, line });

    let allowed = match annotation_state(ctx, line, ALLOW_LOCK_ORDER) {
        Some(true) => true,
        Some(false) => {
            out.violations.push(Violation {
                file: ctx.file.to_string(),
                line,
                rule: "lock-order",
                message: "`LINT: allow(lock-order)` annotation is missing a reason".into(),
            });
            false
        }
        None => false,
    };
    if !allowed {
        for h in held.iter() {
            if h.rank >= rank {
                out.violations.push(Violation {
                    file: ctx.file.to_string(),
                    line,
                    rule: "lock-order",
                    message: format!(
                        "`{recv}` (rank {rank}) acquired while `{}` (rank {}, bound as `{}` \
                         on line {}) is held; ranks must strictly ascend",
                        h.recv, h.rank, h.binding, h.line
                    ),
                });
            }
        }
    }

    // Guard escape: the lock call itself is returned, stored into a
    // struct, or is the function's tail value. A lock call nested inside a
    // larger expression (`Arc::clone(&self.plan.lock())`) is a temporary —
    // dropped at the end of the statement — and does not escape.
    if !fun.in_test && !ctx.in_test_item(line) {
        let stmt_start = text[..recv_start]
            .rfind([';', '{', '}'])
            .map(|i| i + 1)
            .unwrap_or(0);
        let stmt = &text[stmt_start..recv_start];
        let before = text[..recv_start].trim_end();
        let returns_call = before.ends_with("return")
            && find_word(before, "return", before.len() - 6) == Some(before.len() - 6);
        let is_whole_tail = stmt.trim().is_empty()
            && text[after..close]
                .chars()
                .all(|c| c.is_whitespace() || matches!(c, ')' | ']' | '}'));
        let how = if returns_call {
            Some("is returned")
        } else if is_struct_field_value(text, recv_start, after)
            || is_field_assignment(stmt, text, after)
        {
            Some("is stored outside the function")
        } else if is_whole_tail {
            Some("escapes as the tail expression")
        } else {
            None
        };
        if let Some(how) = how {
            report_escape(ctx, fun, out, recv, rank, line, how);
        }
    }

    // Guard binding: plain `let`, tuple destructuring, or `if let`.
    if let Some((binding, extra_depth)) = guard_binding(text, recv_start, after) {
        held.push(HeldLock {
            recv: recv.to_string(),
            rank,
            binding,
            line,
            depth: depth + extra_depth,
        });
    }
}

fn report_escape(
    ctx: &FileCtx,
    fun: &FnSummary,
    out: &mut FileSummary,
    recv: &str,
    rank: u16,
    line: usize,
    how: &str,
) {
    if fun.in_test {
        return;
    }
    match annotation_state(ctx, line, ALLOW_ESCAPE) {
        Some(true) => {}
        Some(false) => out.violations.push(Violation {
            file: ctx.file.to_string(),
            line,
            rule: "guard-escape",
            message: "`LINT: allow(guard-escape)` annotation is missing a reason".into(),
        }),
        None => out.violations.push(Violation {
            file: ctx.file.to_string(),
            line,
            rule: "guard-escape",
            message: format!(
                "ordered guard for `{recv}` (rank {rank}) {how} — a guard outliving its \
                 function defeats static rank tracking; keep it local or annotate \
                 `LINT: allow(guard-escape) — reason`"
            ),
        }),
    }
}

/// `field: recv.lock()` inside a struct literal.
fn is_struct_field_value(text: &str, recv_start: usize, after: usize) -> bool {
    let bytes = text.as_bytes();
    let mut i = recv_start;
    while i > 0 && (bytes[i - 1] as char).is_whitespace() {
        i -= 1;
    }
    if i == 0 || bytes[i - 1] != b':' || (i >= 2 && bytes[i - 2] == b':') {
        return false;
    }
    let has_field_ident = ident_before(text, i - 1).is_some();
    let next = text[after..].trim_start();
    has_field_ident && (next.starts_with(',') || next.starts_with('}'))
}

/// `self.field = recv.lock();` — assignment into a field.
fn is_field_assignment(stmt: &str, text: &str, after: usize) -> bool {
    if find_word(stmt, "let", 0).is_some() {
        return false;
    }
    let Some(eq) = stmt.find('=') else { return false };
    // Not `==`, `+=`, etc.
    if stmt.as_bytes().get(eq + 1) == Some(&b'=') || (eq > 0 && !matches!(stmt.as_bytes()[eq - 1], b' ' | b'\t' | b'\n')) {
        return false;
    }
    stmt[..eq].contains('.') && text[after..].trim_start().starts_with(';')
}

/// If the statement containing the lock call binds the guard, returns the
/// binding name and the extra brace depth it lives at (1 for `if let` /
/// `while let`, whose binding is scoped to the following block).
///
/// Handles `let [mut] g = recv.lock();`, tuple destructuring
/// `let (a, b) = (x.lock(), y.lock());` (each call matched to its pattern
/// slot), and `if let Some(g) = recv.try_lock() { ... }`.
fn guard_binding(text: &str, recv_start: usize, after: usize) -> Option<(String, usize)> {
    let stmt_start = text[..recv_start]
        .rfind([';', '{', '}'])
        .map(|i| i + 1)
        .unwrap_or(0);
    let stmt = &text[stmt_start..recv_start];
    let let_at = find_word(stmt, "let", 0)?;
    let is_if_let = find_word(stmt, "if", 0).map(|p| p < let_at).unwrap_or(false)
        || find_word(stmt, "while", 0).map(|p| p < let_at).unwrap_or(false);
    let rest = stmt[let_at + 3..].trim_start();

    // Tuple pattern: `let (a, b) = (x.lock(), y.lock());`
    if let Some(pat) = rest.strip_prefix('(') {
        let pat_close = pat.find(')')?;
        let names: Vec<&str> = pat[..pat_close]
            .split(',')
            .map(|s| s.trim().trim_start_matches("mut ").trim())
            .collect();
        // Which tuple slot is this lock call in? Count top-level commas in
        // the RHS tuple literal before the call.
        let eq_rel = stmt[let_at..].find('=')? + let_at;
        let rhs = &text[stmt_start + eq_rel + 1..recv_start];
        if !rhs.trim_start().starts_with('(') {
            return None;
        }
        let mut depth = 0i32;
        let mut slot = 0usize;
        for c in rhs.chars() {
            match c {
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                ',' if depth == 1 => slot += 1,
                _ => {}
            }
        }
        let name = *names.get(slot)?;
        if name.is_empty() || name == "_" {
            return None;
        }
        return Some((name.to_string(), 0));
    }

    // `if let Some(g) = recv.try_lock() { ... }`
    if is_if_let {
        let mut chars = rest.char_indices();
        let (_, first) = chars.next()?;
        if first.is_ascii_uppercase() {
            let inner_open = rest.find('(')?;
            let inner = rest[inner_open + 1..]
                .trim_start()
                .trim_start_matches("mut ");
            let name: String = inner.chars().take_while(|&c| is_ident(c)).collect();
            if !name.is_empty()
                && name != "_"
                && text[after..].trim_start().starts_with('{')
            {
                return Some((name, 1));
            }
        }
        return None;
    }

    // Plain `let [mut] g = recv.lock();` — the call must end the statement.
    if !text[after..].trim_start().starts_with(';') {
        return None;
    }
    let mut rest = rest;
    if let Some(stripped) = rest.strip_prefix("mut ") {
        rest = stripped.trim_start();
    }
    let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
    if name.is_empty() || name == "_" {
        None
    } else {
        Some((name, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::base_type;

    #[test]
    fn base_type_survives_closure_params() {
        // A closure-typed parameter clipped at its generics' top-level
        // comma: the last `>` in the string is the `->` arrow, *before*
        // the `<`. Must not slice backwards (panic), must not resolve.
        assert_eq!(base_type("impl FnMut() -> Result<T"), None);
        assert_eq!(base_type("impl FnOnce() -> u64"), None);
        // Sanity: the usual shapes still resolve.
        assert_eq!(base_type("&Arc<StorageArea>"), Some("StorageArea".into()));
        assert_eq!(base_type("Result<T, E>"), Some("Result".into()));
    }
}
