//! The interprocedural pass against the `interproc_*`, `blocking_*`, and
//! `escape_*` fixtures. Each test builds per-file summaries with fake
//! workspace paths (so "cross-crate" really crosses files), runs the
//! whole-workspace fixpoint, and checks the rendered call chains.

use bess_lint::callgraph;
use bess_lint::config::{LockDecl, LockOrder};
use bess_lint::lexer::mask;
use bess_lint::rules::FileCtx;
use bess_lint::summary::{self, FileSummary};

/// A lock hierarchy from `(file, recv, rank)` triples.
fn cfg(decls: &[(&str, &str, u16)]) -> LockOrder {
    LockOrder {
        ranks: decls.iter().map(|&(_, r, k)| (format!("R{r}"), k)).collect(),
        locks: decls
            .iter()
            .map(|&(f, r, k)| LockDecl { file: f.into(), recv: r.into(), rank: k })
            .collect(),
    }
}

fn summarize(path: &str, src: &str, cfg: &LockOrder) -> FileSummary {
    let m = mask(src);
    let ctx = FileCtx::new(path, &m);
    summary::summarize(&ctx, cfg, false)
}

#[test]
fn three_deep_cross_crate_inversion_reports_full_chain() {
    let c = cfg(&[
        ("crates/fake-wal/src/hold.rs", "state", 40),
        ("crates/fake-storage/src/leaf.rs", "pool", 20),
    ]);
    let files = vec![
        summarize("crates/fake-wal/src/hold.rs", include_str!("../fixtures/interproc_hold.rs"), &c),
        summarize("crates/fake-cache/src/mid.rs", include_str!("../fixtures/interproc_mid.rs"), &c),
        summarize(
            "crates/fake-storage/src/leaf.rs",
            include_str!("../fixtures/interproc_leaf.rs"),
            &c,
        ),
    ];
    // No single file has an intra-function finding.
    for f in &files {
        assert!(f.violations.is_empty(), "{:?}", f.violations);
    }
    let report = callgraph::check_workspace(&files);
    assert_eq!(report.lock_order.len(), 1, "{:?}", report.lock_order);
    let v = &report.lock_order[0];
    assert_eq!(v.rule, "lock-order");
    // Reported at the outermost call site, in the file that holds the guard.
    assert_eq!(v.file, "crates/fake-wal/src/hold.rs");
    assert!(v.message.contains("rank 40"), "{}", v.message);
    assert!(v.message.contains("rank 20"), "{}", v.message);
    // The full chain, ending at the acquisition in the third crate.
    assert!(v.message.contains("call chain: entry -> middle -> acquire_pool"), "{}", v.message);
    assert!(v.message.contains("`pool` at crates/fake-storage/src/leaf.rs"), "{}", v.message);
    assert!(report.blocking.is_empty(), "{:?}", report.blocking);
}

#[test]
fn diamond_reports_both_call_sites_once_each() {
    let file = "fixtures/interproc_diamond.rs";
    let c = cfg(&[(file, "hi", 30), (file, "lo", 10)]);
    let files = vec![summarize(file, include_str!("../fixtures/interproc_diamond.rs"), &c)];
    let report = callgraph::check_workspace(&files);
    assert_eq!(report.lock_order.len(), 2, "{:?}", report.lock_order);
    for v in &report.lock_order {
        assert!(v.message.contains("bottom"), "{}", v.message);
    }
    assert!(report.lock_order[0].message.contains("via1"), "{}", report.lock_order[0].message);
    assert!(report.lock_order[1].message.contains("via2"), "{}", report.lock_order[1].message);
}

#[test]
fn mutual_recursion_terminates_and_still_reports() {
    let file = "fixtures/interproc_recursive.rs";
    let c = cfg(&[(file, "h", 20), (file, "r", 10)]);
    let files = vec![summarize(file, include_str!("../fixtures/interproc_recursive.rs"), &c)];
    let report = callgraph::check_workspace(&files);
    assert_eq!(report.lock_order.len(), 1, "{:?}", report.lock_order);
    let v = &report.lock_order[0];
    assert!(v.message.contains("entry -> ping"), "{}", v.message);
    assert!(v.message.contains("rank 10"), "{}", v.message);
}

#[test]
fn dyn_trait_call_falls_back_to_any_callee() {
    let file = "fixtures/interproc_trait.rs";
    let c = cfg(&[(file, "gate", 20), (file, "dev", 10)]);
    let files = vec![summarize(file, include_str!("../fixtures/interproc_trait.rs"), &c)];
    let report = callgraph::check_workspace(&files);
    assert_eq!(report.lock_order.len(), 1, "{:?}", report.lock_order);
    let v = &report.lock_order[0];
    assert!(v.message.contains("flush_now"), "{}", v.message);
    assert!(v.message.contains("rank 10"), "{}", v.message);
}

#[test]
fn blocking_under_lock_direct_and_chained() {
    let file = "fixtures/blocking_bad.rs";
    let c = cfg(&[(file, "state", 40)]);
    let files = vec![summarize(file, include_str!("../fixtures/blocking_bad.rs"), &c)];
    // Direct findings: device write and thread::sleep under `state`.
    let direct = &files[0].blocking;
    assert_eq!(direct.len(), 2, "{direct:?}");
    assert!(direct.iter().all(|v| v.rule == "blocking-under-lock"), "{direct:?}");
    assert!(direct.iter().any(|v| v.message.contains("write_at")), "{direct:?}");
    assert!(direct.iter().any(|v| v.message.contains("thread::sleep")), "{direct:?}");
    // Chained findings: `chained` -> flush_all -> sync_dev -> sync_all(), and
    // a guard held across a submission, whose ops run on the submitting
    // thread: `submits` -> submit_owned -> execute -> read_at().
    let report = callgraph::check_workspace(&files);
    assert_eq!(report.blocking.len(), 2, "{:?}", report.blocking);
    let chain = |c: &str| report.blocking.iter().find(|v| v.message.contains(c));
    let flush = chain("call chain: chained -> flush_all -> sync_dev").expect("flush chain");
    assert!(flush.message.contains("sync_all"), "{}", flush.message);
    let submit = chain("call chain: submits -> submit_owned -> execute").expect("submit chain");
    assert!(submit.message.contains("read_at"), "{}", submit.message);
    assert!(report.lock_order.is_empty(), "{:?}", report.lock_order);
}

#[test]
fn blocking_after_drop_or_annotated_passes() {
    let file = "fixtures/blocking_ok.rs";
    let c = cfg(&[(file, "state", 40)]);
    let files = vec![summarize(file, include_str!("../fixtures/blocking_ok.rs"), &c)];
    assert!(files[0].blocking.is_empty(), "{:?}", files[0].blocking);
    let report = callgraph::check_workspace(&files);
    assert!(report.blocking.is_empty(), "{:?}", report.blocking);
    assert!(report.lock_order.is_empty(), "{:?}", report.lock_order);
}

#[test]
fn escaping_guards_are_flagged() {
    let file = "fixtures/escape_bad.rs";
    let c = cfg(&[(file, "m", 20)]);
    let s = summarize(file, include_str!("../fixtures/escape_bad.rs"), &c);
    let escapes: Vec<_> = s.violations.iter().filter(|v| v.rule == "guard-escape").collect();
    assert_eq!(escapes.len(), 3, "{escapes:?}");
    // return, tail expression, struct-literal store — one each.
    assert_eq!(escapes[0].line, 15, "{escapes:?}");
    assert_eq!(escapes[1].line, 19, "{escapes:?}");
    assert_eq!(escapes[2].line, 23, "{escapes:?}");
}

#[test]
fn local_annotated_or_temporary_guards_pass() {
    let file = "fixtures/escape_ok.rs";
    let c = cfg(&[(file, "m", 20)]);
    let s = summarize(file, include_str!("../fixtures/escape_ok.rs"), &c);
    let escapes: Vec<_> = s.violations.iter().filter(|v| v.rule == "guard-escape").collect();
    assert!(escapes.is_empty(), "{escapes:?}");
}
