//! Emission-site audit: every state-mutating site in the scheduler source
//! must sit in a function that emits a golden-thread decision event, so
//! the replay fold stays sufficient as the code grows. The audit parses
//! the scheduler's source files directly (`src/osml.rs` and the modules
//! under `src/osml/`) — a new `reallocate` call or overload-ledger mutation
//! added without its decision emission fails here, not in a far-away replay
//! divergence.

use std::path::Path;

/// Strips line comments and string-literal contents so brace counting and
/// pattern matching see only code. Good enough for rustfmt'd source: no
/// raw strings or multi-line literals in the audited file.
fn strip(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    chars.next(); // skip the escaped char
                }
                '"' => {
                    in_str = false;
                    out.push('"');
                }
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push('"');
            }
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(c),
        }
    }
    out
}

/// `(name, body)` for every `fn` in the source, found by brace tracking.
fn functions(source: &str) -> Vec<(String, String)> {
    let mut fns: Vec<(String, String)> = Vec::new();
    // Stack of (name, depth the body opened at, body accumulator).
    let mut stack: Vec<(String, i64, String)> = Vec::new();
    let mut pending: Option<String> = None;
    let mut depth: i64 = 0;
    for raw in source.lines() {
        let line = strip(raw);
        if let Some(pos) = line.find("fn ") {
            let ok_prefix = pos == 0
                || line[..pos].ends_with(' ')
                || line[..pos].ends_with("pub ")
                || line[..pos].ends_with("const ");
            if ok_prefix {
                let rest = &line[pos + 3..];
                if let Some(paren) = rest.find(['(', '<']) {
                    let name = rest[..paren].trim().to_string();
                    if !name.is_empty() && name.chars().all(|c| c.is_alphanumeric() || c == '_') {
                        pending = Some(name);
                    }
                }
            }
        }
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if let Some(name) = pending.take() {
                        stack.push((name, depth, String::new()));
                    }
                }
                '}' => {
                    if let Some(&(_, open_depth, _)) = stack.last() {
                        if depth == open_depth {
                            let (name, _, body) = stack.pop().expect("non-empty");
                            // Nested fns contribute to the outer body too.
                            if let Some(outer) = stack.last_mut() {
                                outer.2.push_str(&body);
                            }
                            fns.push((name, body));
                        }
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        for (_, _, body) in stack.iter_mut() {
            body.push_str(&line);
            body.push('\n');
        }
    }
    fns
}

/// `src/osml.rs` followed by every module file under `src/osml/`, in name
/// order.
fn scheduler_source() -> String {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files: Vec<_> = std::fs::read_dir(src.join("osml"))
        .expect("list the scheduler's modules")
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    files.sort();
    files.insert(0, src.join("osml.rs"));
    files.iter().map(|f| std::fs::read_to_string(f).expect("read scheduler source")).collect()
}

/// Every `reallocate` call funnels through a function that emits the
/// matching `Decision::Alloc` (directly or, for repacks, via the caller's
/// `note_repack`). Anything else is an untraced substrate mutation.
#[test]
fn every_reallocate_site_is_a_decision_emitter() {
    let allowed = ["apply", "transact", "repartition_bandwidth", "repair_layout"];
    let source = scheduler_source();
    let mut audited = 0usize;
    for (name, body) in functions(&source) {
        if !body.contains(".reallocate(") {
            continue;
        }
        audited += 1;
        assert!(
            allowed.contains(&name.as_str()),
            "fn `{name}` calls reallocate but is not an audited Alloc-decision emitter; \
             add the Decision::Alloc emission and extend the allowlist"
        );
        assert!(
            body.contains("Decision::Alloc"),
            "fn `{name}` is allowlisted but no longer emits Decision::Alloc"
        );
    }
    assert!(audited >= 3, "audit under-matched: only {audited} reallocate-calling fns found");
}

/// Every function that mutates replay-visible scheduler state (the action
/// counter, the admission queue, the shed stack, the shave ledger) must
/// emit a decision event in the same function — except the documented
/// exemptions whose mutations are reconstructed from world facts instead.
#[test]
fn every_state_mutation_site_emits_a_decision() {
    // `on_departure`: the driver records the `WorldFact::Removed` that the
    // fold uses to apply the same shave-ledger cleanup.
    let exempt = ["on_departure"];
    let mutation_patterns = [
        "self.actions +=",
        ".queue.push(",
        ".queue.remove(",
        ".queue.retain(",
        ".queue.drain(",
        ".shed.push(",
        ".shed.remove(",
        ".shed.retain(",
        ".shaved.push(",
        ".shaved.pop(",
        ".shaved.retain(",
    ];
    let source = scheduler_source();
    let mut audited = 0usize;
    for (name, body) in functions(&source) {
        let mutates = mutation_patterns.iter().any(|p| body.contains(p));
        if !mutates || exempt.contains(&name.as_str()) {
            continue;
        }
        audited += 1;
        let emits = body.contains("decide(")
            || body.contains("decide_untimed(")
            || body.contains("record_world(");
        assert!(
            emits,
            "fn `{name}` mutates replay-visible state but emits no decision event; \
             the replay fold can no longer reconstruct its effect"
        );
    }
    assert!(audited >= 7, "audit under-matched: only {audited} mutating fns found");
}

/// One record: the scheduler writes its history through `decide`,
/// `decide_untimed`, `note` and `record_world`, and through nothing else.
/// The two retired emission families (the per-decision event enum and the
/// sink-bound trace record) must not reappear in the source — their names
/// are assembled from halves so this file does not trip the same search —
/// and nothing may push to the log behind the four emitters' backs.
#[test]
fn the_unified_log_is_the_only_emission_family() {
    let source = scheduler_source();
    for halves in [["Event", "Kind"], ["emit_", "trace"], ["Trace", "Record"]] {
        let retired = halves.concat();
        assert!(!source.contains(&retired), "`{retired}` is back in osml.rs: a second record");
    }
    let emitters = ["decide", "decide_untimed", "note", "record_world"];
    let mut audited = 0usize;
    for (name, body) in functions(&source) {
        if body.contains("unified.push(") || body.contains("unified.push_untimed(") {
            audited += 1;
            assert!(
                emitters.contains(&name.as_str()),
                "fn `{name}` pushes to the unified log directly; go through an emitter"
            );
        }
    }
    assert_eq!(audited, emitters.len(), "audit under-matched the emitters");
}

/// The parser itself: a sanity pin so a refactor that breaks function
/// extraction fails loudly instead of silently auditing nothing.
#[test]
fn audit_parser_finds_the_known_emitters() {
    let source = scheduler_source();
    let names: Vec<String> = functions(&source).into_iter().map(|(n, _)| n).collect();
    for expected in [
        "apply",
        "transact",
        "shave_step",
        "shed_step",
        "restore_step",
        "tick",
        "reference_expire_waiters",
    ] {
        assert!(names.iter().any(|n| n == expected), "parser lost fn `{expected}`");
    }
}
