//! Prose that names code is checked: every backticked `jwins*::…::Name` in
//! `README.md` and `docs/ARCHITECTURE.md` must name something declared under
//! `crates/`, and every `cargo bench --bench NAME` there and in the CI
//! workflow must name a `[[bench]]` target of `crates/bench`. `cargo doc`'s
//! intra-doc-link check sees none of these files, so a deleted or
//! misremembered item or harness would otherwise stay in the prose for good.

use std::fs;
use std::path::Path;

const KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "mod"];

/// Appends every `.rs` file under `dir`.
fn read_sources(dir: &Path, out: &mut String) {
    for entry in fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("readable entry").path();
        if path.is_dir() {
            read_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push_str(&fs::read_to_string(&path).expect("readable source"));
        }
    }
}

/// Whether `line` declares `name`: as an item (`fn name`, `struct Name`, …)
/// or, leading the line, as a variant or a field (`Name,` `Name(..)`
/// `Name {` `name: T`).
fn declares(line: &str, name: &str) -> bool {
    let line = line.trim_start();
    let line = line.strip_prefix("pub ").unwrap_or(line);
    if let Some(rest) = line.strip_prefix(name) {
        let opens = |p: &&str| rest.starts_with(*p);
        return matches!(rest, "" | ",") || ["(", " {", ": ", " ="].iter().any(opens);
    }
    // The first word after the leading run of keywords (`const fn name`).
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .skip_while(|word| !KEYWORDS.contains(word))
        .find(|word| !KEYWORDS.contains(word))
        == Some(name)
}

#[test]
fn backticked_paths_name_declared_items() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut code = String::new();
    read_sources(&root.join("crates"), &mut code);
    let (mut checked, mut dangling) = (0, Vec::new());
    for doc in ["README.md", "docs/ARCHITECTURE.md"] {
        let text = fs::read_to_string(root.join(doc)).expect("readable doc");
        // Odd segments of a split on backticks are the code spans.
        for span in text.split('`').skip(1).step_by(2) {
            let is_path = |c: char| c.is_alphanumeric() || c == '_' || c == ':';
            let path = &span[..span.find(|c| !is_path(c)).unwrap_or(span.len())];
            let Some((_, name)) = path.rsplit_once("::") else {
                continue;
            };
            if path.starts_with("jwins") && !name.is_empty() {
                checked += 1;
                if !code.lines().any(|line| declares(line, name)) {
                    dangling.push(format!("{doc}: `{path}`"));
                }
            }
        }
    }
    assert!(checked >= 20, "the scan went blind: {checked} paths found");
    assert!(dangling.is_empty(), "names missing code: {dangling:#?}");
}

#[test]
fn bench_commands_name_declared_benches() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = fs::read_to_string(root.join("crates/bench/Cargo.toml")).expect("manifest");
    // The `name` that follows each `[[bench]]` header.
    let benches: Vec<&str> = manifest
        .split("[[bench]]")
        .skip(1)
        .filter_map(|table| {
            let line = table.lines().find(|l| l.trim_start().starts_with("name"))?;
            line.split('"').nth(1)
        })
        .collect();
    assert!(
        benches.len() >= 10,
        "the manifest scan went blind: {benches:?}"
    );
    let (mut checked, mut dangling) = (0, Vec::new());
    for doc in [
        "README.md",
        "docs/ARCHITECTURE.md",
        ".github/workflows/ci.yml",
    ] {
        let text = fs::read_to_string(root.join(doc)).expect("readable doc");
        // A command may wrap: the name is the next word, over any line break.
        for rest in text.split("cargo bench --bench").skip(1) {
            let rest = rest.trim_start();
            let name = &rest[..rest
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(rest.len())];
            checked += 1;
            if !benches.contains(&name) {
                dangling.push(format!("{doc}: `cargo bench --bench {name}`"));
            }
        }
    }
    assert!(
        checked >= 10,
        "the scan went blind: {checked} commands found"
    );
    assert!(
        dangling.is_empty(),
        "commands naming no bench: {dangling:#?}"
    );
}
