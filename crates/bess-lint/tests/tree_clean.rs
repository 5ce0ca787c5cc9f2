//! The whole workspace must lint clean: this is the same scan CI runs via
//! `cargo run -p bess-lint`, pointed at the checkout this test compiled
//! from.

use std::path::Path;

#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = match bess_lint::lint_workspace(&root, false) {
        Ok(r) => r,
        Err(e) => panic!("lint configuration error: {e}"),
    };
    assert!(report.files_scanned > 50, "suspiciously few files scanned");
    // The interprocedural pass really ran: the workspace has far more
    // functions and call edges than this floor.
    assert!(report.functions > 500, "suspiciously few functions summarized: {}", report.functions);
    assert!(report.call_edges > 1000, "suspiciously few call edges: {}", report.call_edges);
    let rendered: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(
        report.violations.is_empty(),
        "workspace has lint violations:\n{}",
        rendered.join("\n")
    );
}

/// Every `[[lock]]` entry of `lock_order.toml` names a guard the lint can
/// see: its receiver is acquired as `<recv>.lock()`, `.read()` or
/// `.write()` somewhere in its file. An entry left behind when a guard
/// moves checks nothing, silently.
#[test]
fn every_lock_entry_names_a_receiver_in_its_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join("lock_order.toml")).expect("lock_order.toml");
    let order = bess_lint::config::parse_lock_order(&text).expect("lock_order.toml parses");
    let stale: Vec<String> = order
        .locks
        .iter()
        .filter(|decl| {
            let src = std::fs::read_to_string(root.join(&decl.file)).unwrap_or_default();
            !acquires(&src, &decl.recv)
        })
        .map(|decl| format!("{} `{}` (rank {})", decl.file, decl.recv, decl.rank))
        .collect();
    assert!(stale.is_empty(), "lock entries naming no acquisition:\n{}", stale.join("\n"));
}

/// Whether `src` contains `recv` (as a whole identifier) followed, across
/// any whitespace, by `.lock()`, `.read()` or `.write()`. Like the lint,
/// it reads a call as its name: `shard(&name).lock()` acquires `shard`.
fn acquires(src: &str, recv: &str) -> bool {
    let squeezed: String = src.chars().filter(|c| !c.is_whitespace()).collect();
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    squeezed.match_indices(recv).any(|(at, _)| {
        let rest = &squeezed[at + recv.len()..];
        let whole = !squeezed[..at].chars().next_back().is_some_and(ident) && !rest.starts_with(ident);
        let rest = rest.strip_prefix('(').map_or(rest, after_call);
        whole && [".lock()", ".read()", ".write()"].iter().any(|m| rest.starts_with(m))
    })
}

/// What follows the `)` closing a call whose `(` was just stripped.
fn after_call(args: &str) -> &str {
    let mut depth = 1;
    for (i, c) in args.char_indices() {
        match c {
            '(' => depth += 1,
            ')' if depth == 1 => return &args[i + 1..],
            ')' => depth -= 1,
            _ => {}
        }
    }
    ""
}
