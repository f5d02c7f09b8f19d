//! Public-surface census: which library items no production code calls,
//! and which `pub` items nothing outside their crate names.
//!
//! ```text
//! cargo run --release -p hyperear-bench --bin surface
//! ```
//!
//! Run from the repository root (`scripts/verify.sh --surface` does).
//! The census asks the compiler, not a name grep. On a copy of the
//! workspace under `target/surface`, one library crate at a time:
//!
//! 1. every `pub` item (fn, method, struct, enum, trait, type, const,
//!    static) is demoted to `pub(crate)`;
//! 2. the workspace's libs, bins and examples plus the end-to-end
//!    benchmark package are checked with `--message-format=json`, and
//!    every demoted item a privacy error names is made `pub` again —
//!    by the definition span the error points at, or, for re-export and
//!    private-type errors that carry only the item's name, by name —
//!    until everything compiles. rustc's `dead_code` warnings in the
//!    demoted crate are then the items with **no non-test caller**;
//! 3. the same is repeated with every target (tests and benches too):
//!    the items still demoted are those **nothing outside the crate
//!    names**.
//!
//! It prints both lists and exits non-zero when an item of the first
//! list is missing from the keep-list (`scripts/surface_keep.txt`: one
//! `path (reason) note` per line, reason one of `(a)` test reference,
//! `(b)` test and bench harness, `(c)` outside-input parser, `(d)`
//! public API an integration test drives), when a keep-list line
//! is malformed or names no `pub` item, or when the second list holds an
//! item outside the keep-list (such an item belongs at `pub(crate)`).
//!
//! Items are found by scanning `crates/*/src` (bins excluded) for lines
//! that start with `pub <kind>`; a column-0 `#[cfg(test)] mod` ends a
//! file's scan, and items under an indented `#[cfg(test)]` are skipped.
//! Doctests are not compiled, and an item re-exported by a `pub use`
//! always counts as named (the re-export is its caller).

use hyperear_util::json::Json;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// The end-to-end benchmark package, checked as a production consumer.
const BENCHMARK_MANIFEST: &str = "crates/bench/src/bin/benchmark/Cargo.toml";

/// Item kinds the census demotes (`pub mod` and `pub use` stay).
const KINDS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "union",
];

/// The keep-list, relative to the repository root.
const KEEP_LIST: &str = "scripts/surface_keep.txt";

/// The census's scratch directory, relative to the repository root.
const WORK_DIR: &str = "target/surface";

/// Keep-list reasons.
const REASONS: [&str; 4] = ["(a)", "(b)", "(c)", "(d)"];

/// One library crate of the workspace.
struct Crate {
    /// The crate name as code names it (`hyperear_dsp`).
    lib: String,
    /// Its directory, relative to the workspace root.
    dir: PathBuf,
}

/// One `pub` item.
struct Item {
    krate: usize,
    /// Index into [`Census::files`].
    file: usize,
    /// 0-based line and the byte column of its `pub`.
    line: usize,
    col: usize,
    name: String,
    path: String,
}

/// A source file of a census crate, in the work copy.
struct SourceFile {
    /// Canonical path in the work copy.
    path: PathBuf,
    lines: Vec<String>,
    /// What was last written to disk.
    written: String,
}

struct Census {
    ws: PathBuf,
    target: PathBuf,
    crates: Vec<Crate>,
    files: Vec<SourceFile>,
    items: Vec<Item>,
    /// `(file, line)` → item index.
    at: HashMap<(usize, usize), usize>,
}

/// Copies `src` over `dst`, skipping build directories, rewriting only
/// files whose bytes changed (so cargo's fingerprints stay warm between
/// runs) and deleting files the source no longer has.
fn sync_tree(src: &Path, dst: &Path) -> std::io::Result<()> {
    fs::create_dir_all(dst)?;
    let mut present = BTreeSet::new();
    for entry in fs::read_dir(src)? {
        let entry = entry?;
        let name = entry.file_name();
        let name_str = name.to_string_lossy();
        if matches!(name_str.as_ref(), "target" | ".git" | ".bench_build") {
            continue;
        }
        present.insert(name.clone());
        let (from, to) = (entry.path(), dst.join(&name));
        if entry.file_type()?.is_dir() {
            sync_tree(&from, &to)?;
        } else {
            let bytes = fs::read(&from)?;
            if fs::read(&to).ok().as_deref() != Some(&bytes[..]) {
                fs::write(&to, bytes)?;
            }
        }
    }
    for entry in fs::read_dir(dst)? {
        let entry = entry?;
        if !present.contains(&entry.file_name()) && entry.file_name() != "target" {
            if entry.file_type()?.is_dir() {
                fs::remove_dir_all(entry.path())?;
            } else {
                fs::remove_file(entry.path())?;
            }
        }
    }
    Ok(())
}

/// The library crates under `crates/`, from their manifests.
fn find_crates(ws: &Path) -> Result<Vec<Crate>, String> {
    let mut crates = Vec::new();
    let mut dirs: Vec<PathBuf> = fs::read_dir(ws.join("crates"))
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.join("src/lib.rs").is_file())
        .collect();
    dirs.sort();
    for dir in dirs {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).map_err(|e| e.to_string())?;
        let name = manifest
            .lines()
            .find_map(|l| l.trim().strip_prefix("name = \""))
            .and_then(|rest| rest.strip_suffix('"'))
            .ok_or_else(|| format!("{}: no package name", dir.display()))?;
        crates.push(Crate {
            lib: name.replace('-', "_"),
            dir: dir.strip_prefix(ws).unwrap_or(&dir).to_path_buf(),
        });
    }
    Ok(crates)
}

/// The name of the demotable `pub` item a line starts with (after
/// indentation), if any.
fn parse_pub_item(trimmed: &str) -> Option<&str> {
    let mut rest = trimmed.strip_prefix("pub ")?;
    loop {
        let next = ["unsafe ", "async ", "extern \"C\" "]
            .iter()
            .find_map(|q| rest.strip_prefix(q))
            .or_else(|| {
                let after = rest.strip_prefix("const ")?;
                ["fn ", "unsafe ", "async "]
                    .iter()
                    .any(|k| after.starts_with(k))
                    .then_some(after)
            });
        match next {
            Some(r) => rest = r,
            None => break,
        }
    }
    let (kind, rest) = rest.split_once(' ')?;
    if !KINDS.contains(&kind) {
        return None;
    }
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    let name = &rest[..end];
    (!name.is_empty() && !name.starts_with(|c: char| c.is_ascii_digit())).then_some(name)
}

/// The self type an `impl` header line implements on (last path
/// segment, generics stripped).
fn impl_type(header: &str) -> Option<String> {
    let mut rest = header.strip_prefix("impl")?;
    if rest.starts_with('<') {
        let mut depth = 0usize;
        let mut cut = rest.len();
        for (i, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = &rest[cut..];
    }
    let rest = rest.rsplit(" for ").next()?.trim_start();
    let ty: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == ':')
        .collect();
    ty.rsplit("::").next().map(str::to_string)
}

/// Module path of `file` (relative to the crate's `src`).
fn module_path(rel: &Path) -> String {
    let mut parts: Vec<String> = rel
        .iter()
        .map(|p| p.to_string_lossy().trim_end_matches(".rs").to_string())
        .collect();
    if matches!(parts.last().map(String::as_str), Some("lib" | "mod")) {
        parts.pop();
    }
    parts.join("::")
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

impl Census {
    fn new(ws: PathBuf, target: PathBuf) -> Result<Self, String> {
        let ws = fs::canonicalize(&ws).map_err(|e| e.to_string())?;
        let crates = find_crates(&ws)?;
        let mut census = Census {
            ws,
            target,
            crates,
            files: Vec::new(),
            items: Vec::new(),
            at: HashMap::new(),
        };
        for k in 0..census.crates.len() {
            census.scan_crate(k).map_err(|e| e.to_string())?;
        }
        Ok(census)
    }

    fn scan_crate(&mut self, k: usize) -> std::io::Result<()> {
        let src = self.ws.join(&self.crates[k].dir).join("src");
        let mut paths = Vec::new();
        rust_files(&src, &mut paths)?;
        for path in paths {
            let rel = path.strip_prefix(&src).unwrap_or(&path).to_path_buf();
            if rel.starts_with("bin") {
                continue;
            }
            let text = fs::read_to_string(&path)?;
            let file = self.files.len();
            let module = module_path(&rel);
            let mut impl_ty: Option<String> = None;
            let mut cfg_test = false;
            for (line, raw) in text.lines().enumerate() {
                let trimmed = raw.trim_start();
                let col = raw.len() - trimmed.len();
                if trimmed.starts_with("#[cfg(test)]") {
                    cfg_test = true;
                    continue;
                }
                if cfg_test
                    && col == 0
                    && (trimmed.starts_with("mod ") || trimmed.starts_with("pub mod "))
                {
                    break;
                }
                if col == 0 && trimmed.starts_with("impl") {
                    impl_ty = impl_type(trimmed);
                } else if col == 0 && trimmed.starts_with('}') {
                    impl_ty = None;
                }
                if let Some(name) = parse_pub_item(trimmed) {
                    if !cfg_test {
                        let mut path = self.crates[k].lib.clone();
                        for part in [
                            Some(module.as_str()),
                            impl_ty.as_deref().filter(|_| col > 0),
                        ]
                        .into_iter()
                        .flatten()
                        .filter(|p| !p.is_empty())
                        {
                            path.push_str("::");
                            path.push_str(part);
                        }
                        path.push_str("::");
                        path.push_str(name);
                        self.at.insert((file, line), self.items.len());
                        self.items.push(Item {
                            krate: k,
                            file,
                            line,
                            col,
                            name: name.to_string(),
                            path,
                        });
                    }
                }
                if !trimmed.starts_with("#[") {
                    cfg_test = false;
                }
            }
            self.files.push(SourceFile {
                path: fs::canonicalize(&path)?,
                lines: text.lines().map(str::to_string).collect(),
                written: text,
            });
        }
        Ok(())
    }

    /// Writes every file of crate `k` with the items in `demoted` at
    /// `pub(crate)` (only files whose text changes are touched).
    fn write_crate(&mut self, k: usize, demoted: &BTreeSet<usize>) -> std::io::Result<()> {
        let mut by_file: BTreeMap<usize, Vec<&Item>> = BTreeMap::new();
        for item in self.items.iter().filter(|i| i.krate == k) {
            by_file.entry(item.file).or_default();
        }
        for &i in demoted {
            by_file
                .entry(self.items[i].file)
                .or_default()
                .push(&self.items[i]);
        }
        for (file, items) in by_file {
            let source = &self.files[file];
            let mut lines = source.lines.clone();
            for item in items {
                let line = &mut lines[item.line];
                line.replace_range(item.col..item.col + 4, "pub(crate) ");
            }
            let mut text = lines.join("\n");
            text.push('\n');
            if text != source.written {
                fs::write(&source.path, &text)?;
                self.files[file].written = text;
            }
        }
        Ok(())
    }

    /// Runs one `cargo check` and returns its compiler messages.
    fn check(&self, extra: &[&str], manifest: Option<&str>) -> Result<Vec<Diag>, String> {
        let mut cmd = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()));
        cmd.arg("check")
            .arg("--offline")
            .arg("--message-format=json")
            .args(extra)
            .current_dir(&self.ws)
            .env("CARGO_TARGET_DIR", &self.target)
            .env_remove("RUSTFLAGS")
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let root = match manifest {
            Some(m) => {
                cmd.arg("--manifest-path").arg(m);
                self.ws.join(m).parent().unwrap_or(&self.ws).to_path_buf()
            }
            None => {
                cmd.arg("--workspace");
                self.ws.clone()
            }
        };
        let output = cmd.output().map_err(|e| format!("cannot run cargo: {e}"))?;
        let mut diags = Vec::new();
        for line in String::from_utf8_lossy(&output.stdout).lines() {
            let Ok(json) = Json::parse(line) else {
                continue;
            };
            if json.get("reason").and_then(Json::as_str) != Some("compiler-message") {
                continue;
            }
            if let Some(message) = json.get("message") {
                diags.push(Diag::from_json(message, &root));
            }
        }
        if !output.status.success() && !diags.iter().any(Diag::is_error) {
            return Err(format!(
                "cargo check {extra:?} failed without a compiler error (run it in {} to see why)",
                self.ws.display()
            ));
        }
        Ok(diags)
    }

    /// Where item `i` is defined, as `file:line` relative to the
    /// workspace root.
    fn location(&self, i: usize) -> String {
        let item = &self.items[i];
        let path = &self.files[item.file].path;
        let rel = path.strip_prefix(&self.ws).unwrap_or(path);
        format!("{}:{}", rel.display(), item.line + 1)
    }

    /// The demoted item of crate `k` at `(path, line)`, if any.
    fn item_at(&self, k: usize, path: &Path, line: usize) -> Option<usize> {
        let file = self.files.iter().position(|f| f.path == path)?;
        self.at
            .get(&(file, line))
            .copied()
            .filter(|&i| self.items[i].krate == k)
    }

    /// Demotes crate `k`'s items in `demoted`, then restores every item a
    /// privacy diagnostic of the checks names until they pass; returns
    /// the last round's diagnostics. `targets` selects the workspace's
    /// targets, `bench_targets` the benchmark package's (it has no lib).
    fn converge(
        &mut self,
        k: usize,
        demoted: &mut BTreeSet<usize>,
        targets: &[&str],
        bench_targets: &[&str],
    ) -> Result<Vec<Diag>, String> {
        loop {
            self.write_crate(k, demoted).map_err(|e| e.to_string())?;
            let mut diags = self.check(targets, None)?;
            diags.extend(self.check(bench_targets, Some(BENCHMARK_MANIFEST))?);
            let mut restored = BTreeSet::new();
            let mut stuck = Vec::new();
            for diag in diags.iter().filter(|d| d.is_error() || d.is_privacy_lint()) {
                let mut hits: BTreeSet<usize> = diag
                    .spans
                    .iter()
                    .filter_map(|(path, line)| self.item_at(k, path, *line))
                    .filter(|i| demoted.contains(i))
                    .collect();
                if hits.is_empty() {
                    hits = demoted
                        .iter()
                        .copied()
                        .filter(|&i| diag.names.contains(&self.items[i].name))
                        .collect();
                }
                if hits.is_empty() && diag.is_error() {
                    stuck.push(diag.rendered.clone());
                }
                restored.extend(hits);
            }
            if restored.is_empty() {
                if let Some(first) = stuck.first() {
                    return Err(format!(
                        "{}: {} error(s) name no demoted item; first:\n{first}",
                        self.crates[k].lib,
                        stuck.len()
                    ));
                }
                return Ok(diags);
            }
            for i in restored {
                demoted.remove(&i);
            }
        }
    }

    /// Both passes for crate `k`: (no non-test caller, named by nothing
    /// outside the crate).
    fn census_crate(&mut self, k: usize) -> Result<(Vec<usize>, Vec<usize>), String> {
        let mut demoted: BTreeSet<usize> = (0..self.items.len())
            .filter(|&i| self.items[i].krate == k)
            .collect();
        let diags = self.converge(
            k,
            &mut demoted,
            &["--lib", "--bins", "--examples"],
            &["--bins"],
        )?;
        let mut dead = BTreeSet::new();
        for diag in diags
            .iter()
            .filter(|d| d.code.as_deref() == Some("dead_code"))
        {
            for (path, line) in &diag.primary {
                if let Some(i) = self.item_at(k, path, *line) {
                    if demoted.contains(&i) {
                        dead.insert(i);
                    }
                }
            }
        }
        self.converge(k, &mut demoted, &["--all-targets"], &["--all-targets"])?;
        self.write_crate(k, &BTreeSet::new())
            .map_err(|e| e.to_string())?;
        Ok((dead.into_iter().collect(), demoted.into_iter().collect()))
    }
}

/// One compiler message, reduced to what the census reads.
struct Diag {
    level: String,
    code: Option<String>,
    /// Every span's `(file, 0-based line)`, children included.
    spans: Vec<(PathBuf, usize)>,
    /// The primary spans only.
    primary: Vec<(PathBuf, usize)>,
    /// Every backticked name in the message and its children.
    names: BTreeSet<String>,
    rendered: String,
}

impl Diag {
    fn from_json(message: &Json, root: &Path) -> Self {
        let mut diag = Diag {
            level: message
                .get("level")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            code: message
                .get("code")
                .and_then(|c| c.get("code"))
                .and_then(Json::as_str)
                .map(str::to_string),
            spans: Vec::new(),
            primary: Vec::new(),
            names: BTreeSet::new(),
            rendered: message
                .get("rendered")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
        };
        diag.collect(message, root, true);
        diag
    }

    fn collect(&mut self, message: &Json, root: &Path, top: bool) {
        if let Some(text) = message.get("message").and_then(Json::as_str) {
            for (i, part) in text.split('`').enumerate() {
                if i % 2 == 1 {
                    let name = part.rsplit("::").next().unwrap_or(part);
                    self.names.insert(name.to_string());
                }
            }
        }
        for span in message.get("spans").and_then(Json::as_array).unwrap_or(&[]) {
            let (Some(file), Some(line)) = (
                span.get("file_name").and_then(Json::as_str),
                span.get("line_start").and_then(Json::as_f64),
            ) else {
                continue;
            };
            let Ok(path) = fs::canonicalize(root.join(file)) else {
                continue;
            };
            let at = (path, (line as usize).saturating_sub(1));
            if top && span.get("is_primary").and_then(Json::as_bool) == Some(true) {
                self.primary.push(at.clone());
            }
            self.spans.push(at);
        }
        for child in message
            .get("children")
            .and_then(Json::as_array)
            .unwrap_or(&[])
        {
            self.collect(child, root, false);
        }
    }

    fn is_error(&self) -> bool {
        self.level == "error" && !self.spans.is_empty()
    }

    /// `private_interfaces`/`private_bounds`: the item shows in the
    /// signature of an item that stays `pub`, so it must stay `pub` too.
    fn is_privacy_lint(&self) -> bool {
        matches!(
            self.code.as_deref(),
            Some("private_interfaces" | "private_bounds")
        )
    }
}

/// Keep-list entries: item path → reason line. Malformed lines are
/// returned as errors.
fn read_keep(path: &Path) -> Result<(BTreeMap<String, String>, Vec<String>), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut keep = BTreeMap::new();
    let mut bad = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line.split_once(char::is_whitespace) {
            Some((item, reason)) if REASONS.iter().any(|r| reason.trim_start().starts_with(r)) => {
                keep.insert(item.to_string(), reason.trim_start().to_string());
            }
            _ => bad.push(format!(
                "{}:{}: want `path (a|b|c|d) note`: {line}",
                path.display(),
                n + 1
            )),
        }
    }
    Ok((keep, bad))
}

fn run() -> Result<bool, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let (keep, mut problems) = read_keep(&root.join(KEEP_LIST))?;
    let work = root.join(WORK_DIR);
    let ws = work.join("ws");
    sync_tree(&root, &ws).map_err(|e| format!("copying the workspace: {e}"))?;
    let target = fs::canonicalize(&work)
        .map_err(|e| e.to_string())?
        .join("target");
    let mut census = Census::new(ws, target)?;

    let mut dead_all = Vec::new();
    let mut private_all = Vec::new();
    for k in 0..census.crates.len() {
        let count = census.items.iter().filter(|i| i.krate == k).count();
        let (dead, private) = census.census_crate(k)?;
        println!(
            "{:<16} {count:>4} pub items, {:>3} with no non-test caller, {:>3} named by nothing outside the crate",
            census.crates[k].lib,
            dead.len(),
            private.len()
        );
        dead_all.extend(dead);
        private_all.extend(private);
    }

    let paths: BTreeSet<&str> = census.items.iter().map(|i| i.path.as_str()).collect();
    for item in keep.keys().filter(|p| !paths.contains(p.as_str())) {
        problems.push(format!("keep-list names no pub item: {item}"));
    }
    let mut missing = 0;
    println!("\nno non-test caller (library, bins, examples and the benchmark package):");
    for &i in &dead_all {
        let (path, at) = (&census.items[i].path, census.location(i));
        match keep.get(path) {
            Some(reason) => println!("  {path}  {at}  keep {reason}"),
            None => {
                missing += 1;
                println!("  {path}  {at}  NOT IN KEEP-LIST");
            }
        }
    }
    let dead_paths: BTreeSet<&str> = dead_all
        .iter()
        .map(|&i| census.items[i].path.as_str())
        .collect();
    for item in keep.keys().filter(|p| paths.contains(p.as_str())) {
        if !dead_paths.contains(item.as_str()) {
            println!("  note: keep-list entry {item} has a non-test caller now");
        }
    }
    // A kept item stays `pub` for its stated reason even when nothing
    // outside names it yet (an input parser awaiting its fuzzer).
    private_all.retain(|&i| !keep.contains_key(&census.items[i].path));
    println!("\nnamed by nothing outside its crate (belongs at pub(crate)):");
    for &i in &private_all {
        println!("  {}  {}", census.items[i].path, census.location(i));
    }
    for problem in &problems {
        println!("{problem}");
    }
    println!(
        "\nsurface: {} pub items, {} with no non-test caller, keep-list {} entries, {missing} missing, {} to demote",
        census.items.len(),
        dead_all.len(),
        keep.len(),
        private_all.len()
    );
    Ok(missing == 0 && private_all.is_empty() && problems.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => {
            println!("surface census: HELD");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            println!("surface census: FAILED");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("surface: {msg}");
            ExitCode::from(2)
        }
    }
}
