//! A lightweight item/`use` parser built on the region lexer.
//!
//! The cross-file analyses ([`crate::analysis`]) need three structural
//! facts no token-level pattern can deliver: which crates a source file
//! references (`use ssdx_*` trees and inline `ssdx_*::` paths), what a
//! crate's public API surface is (every `pub` item, including methods in
//! inherent `impl` blocks, with signatures normalized to one line), and
//! which byte ranges are `#[cfg(test)]` code (so the hot-path panic audit
//! exempts tests). This module extracts exactly those facts and nothing
//! more.
//!
//! It is *not* a Rust parser. It walks the token stream the lexer's code
//! regions induce — strings and comments are already masked, so brace
//! matching is reliable — and recognises item shapes (`fn`, `struct`,
//! `enum`, `trait`, `impl`, `type`, `const`, `static`, `mod`, `use`,
//! `extern crate`, `macro_rules!`) structurally. Anything it does not
//! recognise it skips one token at a time, which is what makes it total:
//! like the lexer it never panics and accepts arbitrary (even invalid)
//! input, a property pinned by `tests/parse_props.rs`.
//!
//! Known simplifications, chosen deliberately and documented here:
//!
//! - Visibility is `pub`-exact: `pub(crate)`, `pub(super)` and `pub(in …)`
//!   items are treated as private (they are not API surface).
//! - Module structure is per-file: an item's path is its file's module
//!   path plus any in-file `mod` nesting. A `pub` item inside a private
//!   in-file module is excluded; cross-file re-export chains are not
//!   resolved (the `pub use` entries themselves are part of the surface,
//!   so drift is still visible).
//! - Braces inside const-generic argument positions (`Foo<{ N + 1 }>`)
//!   would be mistaken for a body start. The workspace has none; the
//!   parser stays total either way.

use crate::lexer::{self, RegionKind};

/// One extracted public item, signature normalized to one line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PubItem {
    /// In-file module path (`""` at the file root, `a::b` inside nested
    /// `pub mod a { pub mod b { … } }`).
    pub module_path: String,
    /// Rendered surface entry, e.g. `fn quantile(&self, q: f64) -> u64`
    /// or `impl Resource :: fn free_at(&self) -> SimTime`.
    pub entry: String,
    /// Byte offset of the item in the source (diagnostics anchor).
    pub offset: usize,
}

/// One leaf of a `use` tree, e.g. `ssdx_sim::hash::FastHashMap`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsePath {
    /// The full path with aliases stripped (`a::b::c`, `a::b::*`).
    pub path: String,
    /// The path as written, including any `as alias` rename.
    pub display: String,
    /// Byte offset of the `use` keyword.
    pub offset: usize,
    /// Whether the declaration was `pub use` (a re-export).
    pub is_pub: bool,
}

/// Everything the parser extracts from one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Public items reachable through `pub` in-file modules, in source
    /// order, excluding `#[cfg(test)]` code.
    pub pub_items: Vec<PubItem>,
    /// Every `use` declaration leaf (any visibility), in source order.
    pub uses: Vec<UsePath>,
    /// Byte spans of `#[cfg(test)]`-gated items (attribute through body).
    pub test_spans: Vec<(usize, usize)>,
    /// Each `ssdx_*` identifier referenced from code, with the byte offset
    /// of its first occurrence (deduplicated, sorted by name).
    pub crate_refs: Vec<(String, usize)>,
}

impl ParsedFile {
    /// True iff `offset` falls inside a `#[cfg(test)]` item span.
    pub fn in_test_code(&self, offset: usize) -> bool {
        self.test_spans
            .iter()
            .any(|&(s, e)| s <= offset && offset < e)
    }
}

/// Parse `text` (one Rust source file). Total: never panics.
pub fn parse_file(text: &str) -> ParsedFile {
    let regions = lexer::lex(text);
    // Signatures keep string literals (`extern "C"`) but blank comments.
    let mut keep = vec![true; text.len()];
    let mut code = vec![false; text.len()];
    for r in &regions {
        if r.kind.is_comment() {
            for k in &mut keep[r.start..r.end] {
                *k = false;
            }
        }
        if r.kind == RegionKind::Code {
            for c in &mut code[r.start..r.end] {
                *c = true;
            }
        }
    }
    let toks = tokenize(text, &code);
    let mut out = ParsedFile::default();
    for t in &toks {
        if t.kind == TokKind::Ident {
            let word = &text[t.start..t.end];
            if word.starts_with("ssdx_") && !out.crate_refs.iter().any(|(n, _)| n == word) {
                out.crate_refs.push((word.to_string(), t.start));
            }
        }
    }
    out.crate_refs.sort();
    let mut p = Parser {
        text,
        keep: &keep,
        toks: &toks,
        out,
    };
    let mut path = Vec::new();
    p.items(0, &mut path, true, false);
    p.out
}

/// The `#[cfg(test)]` spans of `text` (for rules exempting test code).
pub fn test_spans(text: &str) -> Vec<(usize, usize)> {
    parse_file(text).test_spans
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokKind {
    Ident,
    Punct(u8),
}

#[derive(Debug, Clone, Copy)]
struct Tok {
    start: usize,
    end: usize,
    kind: TokKind,
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Split the code regions of `text` into identifier and punctuation tokens.
fn tokenize(text: &str, code: &[bool]) -> Vec<Tok> {
    let bytes = text.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if !code[i] || bytes[i].is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let b = bytes[i];
        if is_ident_byte(b) {
            let start = i;
            while i < bytes.len() && code[i] && is_ident_byte(bytes[i]) {
                i += 1;
            }
            toks.push(Tok {
                start,
                end: i,
                kind: TokKind::Ident,
            });
        } else {
            // One punctuation char; consume a whole UTF-8 char so token
            // boundaries stay char boundaries.
            let len = utf8_len(b).min(bytes.len() - i);
            toks.push(Tok {
                start: i,
                end: i + len,
                kind: TokKind::Punct(b),
            });
            i += len;
        }
    }
    toks
}

fn utf8_len(lead: u8) -> usize {
    match lead {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

struct Parser<'a> {
    text: &'a str,
    keep: &'a [bool],
    toks: &'a [Tok],
    out: ParsedFile,
}

impl Parser<'_> {
    fn kind(&self, i: usize) -> Option<TokKind> {
        self.toks.get(i).map(|t| t.kind)
    }

    fn is_punct(&self, i: usize, b: u8) -> bool {
        self.kind(i) == Some(TokKind::Punct(b))
    }

    fn word(&self, i: usize) -> &str {
        match self.toks.get(i) {
            Some(t) if t.kind == TokKind::Ident => &self.text[t.start..t.end],
            _ => "",
        }
    }

    fn offset(&self, i: usize) -> usize {
        self.toks.get(i).map_or(self.text.len(), |t| t.start)
    }

    /// Byte offset just past token `i - 1` (the end of what was consumed).
    fn end_offset(&self, i: usize) -> usize {
        if i == 0 {
            return 0;
        }
        self.toks.get(i - 1).map_or(self.text.len(), |t| t.end)
    }

    /// Normalize the source slice `[start, end)` to one line: comments
    /// blanked, whitespace runs collapsed to single spaces, trimmed.
    fn normalize(&self, start: usize, end: usize) -> String {
        let end = end.min(self.text.len()).max(start);
        let mut bytes = Vec::with_capacity(end - start);
        for (i, &b) in self.text.as_bytes()[start..end].iter().enumerate() {
            bytes.push(if self.keep[start + i] { b } else { b' ' });
        }
        let joined = String::from_utf8_lossy(&bytes).to_string();
        let mut out = String::with_capacity(joined.len());
        let mut pending_space = false;
        for c in joined.chars() {
            if c.is_whitespace() {
                pending_space = !out.is_empty();
            } else {
                if pending_space {
                    out.push(' ');
                    pending_space = false;
                }
                out.push(c);
            }
        }
        out
    }

    /// Skip a balanced `open`…`close` group starting at the `open` token
    /// at `i`. Returns the index just past the matching close (or EOF).
    fn skip_balanced(&self, i: usize, open: u8, close: u8) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while let Some(kind) = self.kind(j) {
            match kind {
                TokKind::Punct(b) if b == open => depth += 1,
                TokKind::Punct(b) if b == close => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// Scan an attribute whose `[` sits at `i`; returns the index past the
    /// closing `]` plus whether it is `#[cfg(test)]` or `#[macro_export]`.
    fn scan_attr(&self, i: usize) -> (usize, bool, bool) {
        let end = self.skip_balanced(i, b'[', b']');
        // Token shapes: `[ cfg ( test ) ]` / `[ macro_export ]`.
        let inner: Vec<&str> = (i + 1..end.saturating_sub(1))
            .map(|j| match self.kind(j) {
                Some(TokKind::Ident) => self.word(j),
                Some(TokKind::Punct(b'(')) => "(",
                Some(TokKind::Punct(b')')) => ")",
                _ => "?",
            })
            .collect();
        let cfg_test = inner == ["cfg", "(", "test", ")"];
        let macro_export = inner == ["macro_export"];
        (end, cfg_test, macro_export)
    }

    /// Find the body `{` or terminating `;` of a signature starting at
    /// token `i`, honouring `()`/`[]` nesting and `<>` generics (with
    /// `->` arrows excluded from angle tracking). Returns the token index
    /// of that delimiter (or EOF).
    fn signature_end(&self, i: usize) -> usize {
        let mut j = i;
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut angle = 0i32;
        while let Some(kind) = self.kind(j) {
            match kind {
                TokKind::Punct(b'(') => paren += 1,
                TokKind::Punct(b')') => paren -= 1,
                TokKind::Punct(b'[') => bracket += 1,
                TokKind::Punct(b']') => bracket -= 1,
                TokKind::Punct(b'<') => angle += 1,
                TokKind::Punct(b'>') => {
                    // `->` is an arrow, not a generic close.
                    let arrow = j > 0 && self.is_punct(j - 1, b'-');
                    if !arrow {
                        angle -= 1;
                    }
                }
                TokKind::Punct(b'{') | TokKind::Punct(b';')
                    if paren <= 0 && bracket <= 0 && angle <= 0 =>
                {
                    return j;
                }
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// Scan forward from token `i` to the `;` terminating an expression
    /// (const/static initializers), honouring brace/paren/bracket nesting.
    fn expression_semi(&self, i: usize) -> usize {
        let mut j = i;
        let mut depth = 0i32;
        while let Some(kind) = self.kind(j) {
            match kind {
                TokKind::Punct(b'{') | TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
                TokKind::Punct(b'}') | TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
                TokKind::Punct(b';') if depth <= 0 => return j + 1,
                _ => {}
            }
            j += 1;
        }
        j
    }

    fn push_item(&mut self, path: &[String], entry: String, offset: usize) {
        self.out.pub_items.push(PubItem {
            module_path: path.join("::"),
            entry,
            offset,
        });
    }

    /// Parse items until a closing `}` (consumed) or EOF. `public` says
    /// whether every enclosing in-file module is `pub`; `in_test` whether
    /// an enclosing item is `#[cfg(test)]`-gated.
    fn items(
        &mut self,
        mut i: usize,
        path: &mut Vec<String>,
        public: bool,
        in_test: bool,
    ) -> usize {
        while i < self.toks.len() {
            if self.is_punct(i, b'}') {
                return i + 1;
            }
            let item_start = self.offset(i);
            // --- attributes -------------------------------------------
            let mut cfg_test = false;
            let mut macro_export = false;
            while self.is_punct(i, b'#') {
                let mut j = i + 1;
                if self.is_punct(j, b'!') {
                    j += 1;
                }
                if self.is_punct(j, b'[') {
                    let (end, ct, me) = self.scan_attr(j);
                    cfg_test |= ct;
                    macro_export |= me;
                    i = end;
                } else {
                    i = j;
                }
            }
            // --- visibility -------------------------------------------
            let mut is_pub = false;
            if self.word(i) == "pub" {
                is_pub = true;
                i += 1;
                if self.is_punct(i, b'(') {
                    is_pub = false; // pub(crate)/pub(super)/pub(in …)
                    i = self.skip_balanced(i, b'(', b')');
                }
            }
            let visible = is_pub && public && !in_test && !cfg_test;
            let sig_from = self.offset(i);
            // --- modifiers --------------------------------------------
            loop {
                match self.word(i) {
                    "const" if self.word(i + 1) == "fn" => i += 1,
                    "unsafe" if matches!(self.word(i + 1), "fn" | "impl" | "trait" | "extern") => {
                        i += 1
                    }
                    "async" => i += 1,
                    "extern"
                        if !matches!(self.word(i + 1), "crate") && self.word(i + 1) == "fn" =>
                    {
                        i += 1
                    }
                    _ => break,
                }
            }
            let before = i;
            i = self.item(
                i,
                path,
                public,
                in_test,
                ItemCtx {
                    visible,
                    cfg_test,
                    macro_export,
                    sig_from,
                },
            );
            if cfg_test {
                self.out.test_spans.push((item_start, self.end_offset(i)));
            }
            if i == before {
                i += 1; // unrecognised token: stay total, keep moving
            }
        }
        i
    }

    /// Parse one item whose keyword sits at `i`. Returns the index past
    /// the item, or `i` unchanged when nothing was recognised.
    fn item(
        &mut self,
        i: usize,
        path: &mut Vec<String>,
        public: bool,
        in_test: bool,
        ctx: ItemCtx,
    ) -> usize {
        match self.word(i) {
            "use" => self.use_decl(i, ctx),
            "mod" => self.mod_decl(i, path, public, in_test, ctx),
            "fn" => self.fn_decl(i, path, ctx, ""),
            "struct" => self.struct_decl(i, path, ctx),
            "enum" => self.enum_decl(i, path, ctx),
            "trait" => self.trait_decl(i, path, ctx),
            "impl" => self.impl_decl(i, path, public, in_test, ctx),
            "type" => {
                let semi = self.expression_semi(i);
                if ctx.visible {
                    let entry =
                        self.normalize(ctx.sig_from, self.end_offset(semi).saturating_sub(1));
                    self.push_item(path, entry, ctx.sig_from);
                }
                semi
            }
            "const" | "static" => self.const_decl(i, path, ctx, ""),
            "macro_rules" => {
                // macro_rules ! name { … }
                let name = self.word(i + 2).to_string();
                let mut j = i + 3;
                while j < self.toks.len()
                    && !matches!(self.kind(j), Some(TokKind::Punct(b'{' | b'(' | b'[')))
                {
                    j += 1;
                }
                let end = match self.kind(j) {
                    Some(TokKind::Punct(b'{')) => self.skip_balanced(j, b'{', b'}'),
                    Some(TokKind::Punct(b'(')) => self.skip_balanced(j, b'(', b')') + 1,
                    Some(TokKind::Punct(b'[')) => self.skip_balanced(j, b'[', b']') + 1,
                    _ => j,
                };
                if ctx.macro_export && !in_test && !ctx.cfg_test {
                    self.push_item(path, format!("macro {name}!"), ctx.sig_from);
                }
                end
            }
            "extern" if self.word(i + 1) == "crate" => {
                let name = self.word(i + 2).to_string();
                if !name.is_empty() {
                    self.out.uses.push(UsePath {
                        path: name.clone(),
                        display: format!("extern crate {name}"),
                        offset: ctx.sig_from,
                        is_pub: ctx.visible,
                    });
                }
                self.expression_semi(i)
            }
            "extern" => {
                // `extern { … }` foreign module: skip the block.
                let sig = self.signature_end(i);
                if self.is_punct(sig, b'{') {
                    self.skip_balanced(sig, b'{', b'}')
                } else {
                    sig + 1
                }
            }
            _ => {
                if self.is_punct(i, b'{') {
                    self.skip_balanced(i, b'{', b'}')
                } else {
                    i // unrecognised: caller advances
                }
            }
        }
    }

    fn use_decl(&mut self, i: usize, ctx: ItemCtx) -> usize {
        let mut leaves = Vec::new();
        let end = self.use_tree(i + 1, "", &mut leaves);
        for (p, display) in leaves {
            if ctx.visible {
                self.out.pub_items.push(PubItem {
                    module_path: String::new(),
                    entry: format!("use {display}"),
                    offset: ctx.sig_from,
                });
            }
            self.out.uses.push(UsePath {
                path: p,
                display,
                offset: ctx.sig_from,
                is_pub: ctx.visible,
            });
        }
        // `use` pub_items carry no in-file module prefix: re-exports are
        // overwhelmingly at crate root, and prefixing would double-count
        // the path written in the entry itself.
        end
    }

    /// Parse a use tree whose first token is at `i`, with `prefix` the
    /// already-joined leading segments. Pushes `(path, display)` leaves.
    /// Returns the index just past the tree (past `;`/`,`/`}` closers the
    /// caller owns are NOT consumed; the terminating `;` is).
    fn use_tree(&mut self, mut i: usize, prefix: &str, out: &mut Vec<(String, String)>) -> usize {
        let mut segs: Vec<String> = Vec::new();
        let mut alias: Option<String> = None;
        loop {
            match self.kind(i) {
                None => break,
                Some(TokKind::Ident) => {
                    let w = self.word(i).to_string();
                    if w == "as" {
                        alias = Some(self.word(i + 1).to_string());
                        i += 2;
                    } else if w == "self" && !segs.is_empty() {
                        // `a::{self, b}` — handled as a leaf of `prefix`.
                        i += 1;
                    } else {
                        segs.push(w);
                        i += 1;
                    }
                }
                Some(TokKind::Punct(b':')) => i += 1,
                Some(TokKind::Punct(b'*')) => {
                    segs.push("*".to_string());
                    i += 1;
                }
                Some(TokKind::Punct(b'{')) => {
                    let joined = join_path(prefix, &segs);
                    i += 1;
                    loop {
                        match self.kind(i) {
                            None => return i,
                            Some(TokKind::Punct(b'}')) => {
                                i += 1;
                                break;
                            }
                            Some(TokKind::Punct(b',')) => i += 1,
                            _ => i = self.use_tree(i, &joined, out),
                        }
                    }
                    // A brace group is always the last tree element.
                    // Consume a trailing `;` if this was the whole decl.
                    if self.is_punct(i, b';') {
                        i += 1;
                    }
                    return i;
                }
                Some(TokKind::Punct(b';')) => {
                    self.emit_leaf(prefix, &segs, alias.as_deref(), out);
                    return i + 1;
                }
                Some(TokKind::Punct(b',')) | Some(TokKind::Punct(b'}')) => {
                    self.emit_leaf(prefix, &segs, alias.as_deref(), out);
                    return i; // caller consumes the separator
                }
                _ => i += 1,
            }
        }
        self.emit_leaf(prefix, &segs, alias.as_deref(), out);
        i
    }

    fn emit_leaf(
        &self,
        prefix: &str,
        segs: &[String],
        alias: Option<&str>,
        out: &mut Vec<(String, String)>,
    ) {
        let path = join_path(prefix, segs);
        if path.is_empty() {
            return;
        }
        let display = match alias {
            Some(a) if !a.is_empty() => format!("{path} as {a}"),
            _ => path.clone(),
        };
        out.push((path, display));
    }

    fn mod_decl(
        &mut self,
        i: usize,
        path: &mut Vec<String>,
        public: bool,
        in_test: bool,
        ctx: ItemCtx,
    ) -> usize {
        let name = self.word(i + 1).to_string();
        if self.is_punct(i + 2, b';') {
            if ctx.visible {
                self.push_item(path, format!("mod {name}"), ctx.sig_from);
            }
            return i + 3;
        }
        if self.is_punct(i + 2, b'{') {
            if ctx.visible {
                self.push_item(path, format!("mod {name}"), ctx.sig_from);
            }
            path.push(name);
            let end = self.items(i + 3, path, public && ctx.visible, in_test || ctx.cfg_test);
            path.pop();
            return end;
        }
        i + 2
    }

    fn fn_decl(&mut self, i: usize, path: &[String], ctx: ItemCtx, prefix: &str) -> usize {
        let sig = self.signature_end(i);
        if ctx.visible {
            let text = self.normalize(ctx.sig_from, self.offset(sig));
            let entry = if prefix.is_empty() {
                text
            } else {
                format!("{prefix} :: {text}")
            };
            self.push_item(path, entry, ctx.sig_from);
        }
        if self.is_punct(sig, b'{') {
            self.skip_balanced(sig, b'{', b'}')
        } else {
            sig + 1
        }
    }

    fn const_decl(&mut self, i: usize, path: &[String], ctx: ItemCtx, prefix: &str) -> usize {
        // Signature runs to the `=` (value elided — a retuned constant is
        // not an API change) or to the `;` for valueless trait consts.
        let mut j = i;
        let mut depth = 0i32;
        while let Some(kind) = self.kind(j) {
            match kind {
                TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'<') => depth += 1,
                TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
                TokKind::Punct(b'>') if !(j > 0 && self.is_punct(j - 1, b'-')) => depth -= 1,
                TokKind::Punct(b'=') | TokKind::Punct(b';') if depth <= 0 => break,
                _ => {}
            }
            j += 1;
        }
        if ctx.visible {
            let text = self.normalize(ctx.sig_from, self.offset(j));
            let entry = if prefix.is_empty() {
                text
            } else {
                format!("{prefix} :: {text}")
            };
            self.push_item(path, entry, ctx.sig_from);
        }
        if self.is_punct(j, b';') {
            j + 1
        } else {
            self.expression_semi(j)
        }
    }

    fn struct_decl(&mut self, i: usize, path: &[String], ctx: ItemCtx) -> usize {
        let name = self.word(i + 1).to_string();
        let sig = self.signature_end(i);
        if self.is_punct(sig, b';') || sig >= self.toks.len() {
            // Unit or tuple struct: the whole declaration is the header.
            if ctx.visible {
                let entry = self.normalize(ctx.sig_from, self.offset(sig));
                self.push_item(path, entry, ctx.sig_from);
            }
            return sig + 1;
        }
        // Braced struct: header entry plus one entry per pub field.
        if ctx.visible {
            let entry = self.normalize(ctx.sig_from, self.offset(sig));
            self.push_item(path, entry, ctx.sig_from);
        }
        let mut j = sig + 1;
        loop {
            match self.kind(j) {
                None => return j,
                Some(TokKind::Punct(b'}')) => return j + 1,
                Some(TokKind::Punct(b',')) => j += 1,
                _ => {
                    // One field: attrs, optional vis, `name: Type`.
                    while self.is_punct(j, b'#') {
                        let mut k = j + 1;
                        if self.is_punct(k, b'[') {
                            k = self.skip_balanced(k, b'[', b']');
                        }
                        j = k;
                    }
                    let mut field_pub = false;
                    if self.word(j) == "pub" {
                        field_pub = true;
                        j += 1;
                        if self.is_punct(j, b'(') {
                            field_pub = false;
                            j = self.skip_balanced(j, b'(', b')');
                        }
                    }
                    let field_from = self.offset(j);
                    // Scan to the `,` or `}` ending the field.
                    let mut depth = 0i32;
                    while let Some(kind) = self.kind(j) {
                        match kind {
                            TokKind::Punct(b'(')
                            | TokKind::Punct(b'[')
                            | TokKind::Punct(b'{')
                            | TokKind::Punct(b'<') => depth += 1,
                            TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
                            TokKind::Punct(b'>') if !(j > 0 && self.is_punct(j - 1, b'-')) => {
                                depth -= 1
                            }
                            TokKind::Punct(b'}') => {
                                if depth <= 0 {
                                    break;
                                }
                                depth -= 1;
                            }
                            TokKind::Punct(b',') if depth <= 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    if ctx.visible && field_pub {
                        let text = self.normalize(field_from, self.offset(j));
                        if !text.is_empty() {
                            self.push_item(path, format!("struct {name} . {text}"), field_from);
                        }
                    }
                }
            }
        }
    }

    fn enum_decl(&mut self, i: usize, path: &[String], ctx: ItemCtx) -> usize {
        let name = self.word(i + 1).to_string();
        let sig = self.signature_end(i);
        if !self.is_punct(sig, b'{') {
            if ctx.visible {
                let entry = self.normalize(ctx.sig_from, self.offset(sig));
                self.push_item(path, entry, ctx.sig_from);
            }
            return sig + 1;
        }
        if ctx.visible {
            let entry = self.normalize(ctx.sig_from, self.offset(sig));
            self.push_item(path, entry, ctx.sig_from);
        }
        // Variants are implicitly public.
        let mut j = sig + 1;
        loop {
            match self.kind(j) {
                None => return j,
                Some(TokKind::Punct(b'}')) => return j + 1,
                Some(TokKind::Punct(b',')) => j += 1,
                _ => {
                    while self.is_punct(j, b'#') {
                        let mut k = j + 1;
                        if self.is_punct(k, b'[') {
                            k = self.skip_balanced(k, b'[', b']');
                        }
                        j = k;
                    }
                    let var_from = self.offset(j);
                    let mut depth = 0i32;
                    while let Some(kind) = self.kind(j) {
                        match kind {
                            TokKind::Punct(b'(')
                            | TokKind::Punct(b'[')
                            | TokKind::Punct(b'{')
                            | TokKind::Punct(b'<') => depth += 1,
                            TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
                            TokKind::Punct(b'>') if !(j > 0 && self.is_punct(j - 1, b'-')) => {
                                depth -= 1
                            }
                            TokKind::Punct(b'}') => {
                                if depth <= 0 {
                                    break;
                                }
                                depth -= 1;
                            }
                            TokKind::Punct(b',') if depth <= 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    if ctx.visible {
                        let text = self.normalize(var_from, self.offset(j));
                        if !text.is_empty() {
                            self.push_item(path, format!("enum {name} :: {text}"), var_from);
                        }
                    }
                }
            }
        }
    }

    fn trait_decl(&mut self, i: usize, path: &[String], ctx: ItemCtx) -> usize {
        let name = self.word(i + 1).to_string();
        let sig = self.signature_end(i);
        if !self.is_punct(sig, b'{') {
            if ctx.visible {
                let entry = self.normalize(ctx.sig_from, self.offset(sig));
                self.push_item(path, entry, ctx.sig_from);
            }
            return sig + 1;
        }
        if ctx.visible {
            let entry = self.normalize(ctx.sig_from, self.offset(sig));
            self.push_item(path, entry, ctx.sig_from);
        }
        // Trait members have no own visibility: all are API if the trait is.
        self.member_block(sig + 1, path, ctx.visible, &format!("trait {name}"), true)
    }

    fn impl_decl(
        &mut self,
        i: usize,
        path: &[String],
        public: bool,
        in_test: bool,
        ctx: ItemCtx,
    ) -> usize {
        let sig = self.signature_end(i);
        let header = self.normalize(self.offset(i), self.offset(sig));
        if !self.is_punct(sig, b'{') {
            return sig + 1;
        }
        // `impl Trait for Type` (a `for` outside angle brackets that is
        // not an HRTB `for<…>`) is surface as a whole; inherent impls
        // expose their `pub` members.
        let mut is_trait_impl = false;
        let mut angle = 0i32;
        for j in i + 1..sig {
            match self.kind(j) {
                Some(TokKind::Punct(b'<')) => angle += 1,
                Some(TokKind::Punct(b'>')) if !self.is_punct(j - 1, b'-') => angle -= 1,
                Some(TokKind::Ident)
                    if self.word(j) == "for" && angle <= 0 && !self.is_punct(j + 1, b'<') =>
                {
                    is_trait_impl = true;
                    break;
                }
                _ => {}
            }
        }
        let surface = public && !in_test && !ctx.cfg_test;
        if is_trait_impl {
            if surface {
                self.push_item(path, header, ctx.sig_from);
            }
            return self.skip_balanced(sig, b'{', b'}');
        }
        self.member_block(sig + 1, path, surface, &header, false)
    }

    /// Parse the body of a trait or inherent impl: member fns, consts and
    /// types. `all_public` (trait mode) surfaces every member; otherwise
    /// only `pub` members surface. Returns the index past the closing `}`.
    fn member_block(
        &mut self,
        mut i: usize,
        path: &[String],
        parent_visible: bool,
        prefix: &str,
        all_public: bool,
    ) -> usize {
        while i < self.toks.len() {
            if self.is_punct(i, b'}') {
                return i + 1;
            }
            let mut cfg_test = false;
            let start = self.offset(i);
            while self.is_punct(i, b'#') {
                let mut j = i + 1;
                if self.is_punct(j, b'!') {
                    j += 1;
                }
                if self.is_punct(j, b'[') {
                    let (end, ct, _) = self.scan_attr(j);
                    cfg_test |= ct;
                    i = end;
                } else {
                    i = j;
                }
            }
            let mut is_pub = all_public;
            if self.word(i) == "pub" {
                is_pub = true;
                i += 1;
                if self.is_punct(i, b'(') {
                    is_pub = false;
                    i = self.skip_balanced(i, b'(', b')');
                }
            }
            let sig_from = self.offset(i);
            loop {
                match self.word(i) {
                    "const" if self.word(i + 1) == "fn" => i += 1,
                    "unsafe" if matches!(self.word(i + 1), "fn" | "extern") => i += 1,
                    "async" => i += 1,
                    "extern" if self.word(i + 1) == "fn" => i += 1,
                    _ => break,
                }
            }
            let ctx = ItemCtx {
                visible: parent_visible && is_pub && !cfg_test,
                cfg_test,
                macro_export: false,
                sig_from,
            };
            let before = i;
            i = match self.word(i) {
                "fn" => self.fn_decl(i, path, ctx, prefix),
                "const" | "static" => self.const_decl(i, path, ctx, prefix),
                "type" => {
                    let semi = self.expression_semi(i);
                    if ctx.visible {
                        let text =
                            self.normalize(sig_from, self.end_offset(semi).saturating_sub(1));
                        self.push_item(path, format!("{prefix} :: {text}"), sig_from);
                    }
                    semi
                }
                _ => {
                    if self.is_punct(i, b'{') {
                        self.skip_balanced(i, b'{', b'}')
                    } else {
                        i
                    }
                }
            };
            if cfg_test {
                self.out.test_spans.push((start, self.end_offset(i)));
            }
            if i == before {
                i += 1;
            }
        }
        i
    }
}

/// Item context threaded through the per-kind handlers.
#[derive(Clone, Copy)]
struct ItemCtx {
    /// Whether the item lands in the public surface.
    visible: bool,
    /// Whether the item carries `#[cfg(test)]`.
    cfg_test: bool,
    /// Whether the item carries `#[macro_export]`.
    macro_export: bool,
    /// Byte offset where the signature text begins (after attrs and vis).
    sig_from: usize,
}

fn join_path(prefix: &str, segs: &[String]) -> String {
    let tail = segs.join("::");
    match (prefix.is_empty(), tail.is_empty()) {
        (true, _) => tail,
        (false, true) => prefix.to_string(),
        (false, false) => format!("{prefix}::{tail}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(src: &str) -> Vec<String> {
        parse_file(src)
            .pub_items
            .into_iter()
            .map(|it| {
                if it.module_path.is_empty() {
                    it.entry
                } else {
                    format!("{}::{}", it.module_path, it.entry)
                }
            })
            .collect()
    }

    #[test]
    fn functions_and_signatures_normalize() {
        let src = "pub fn quantile(\n    &self,\n    q: f64,\n) -> u64 { 0 }\n";
        assert_eq!(entries(src), vec!["fn quantile( &self, q: f64, ) -> u64"]);
    }

    #[test]
    fn private_items_and_restricted_vis_are_not_surface() {
        let src = "fn a() {}\npub(crate) fn b() {}\npub(super) struct C;\npub fn d() {}\n";
        assert_eq!(entries(src), vec!["fn d()"]);
    }

    #[test]
    fn impl_members_and_trait_impls() {
        let src = "\
pub struct S;
impl S {
    pub fn get(&self) -> u32 { 0 }
    fn private(&self) {}
    pub const K: u32 = 1;
}
impl std::fmt::Display for S {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }
}
";
        let got = entries(src);
        assert!(got.contains(&"struct S".to_string()));
        assert!(got.contains(&"impl S :: fn get(&self) -> u32".to_string()));
        assert!(got.contains(&"impl S :: const K: u32".to_string()));
        assert!(got.contains(&"impl std::fmt::Display for S".to_string()));
        assert!(!got.iter().any(|e| e.contains("private")));
        assert!(!got.iter().any(|e| e.contains("fn fmt")));
    }

    #[test]
    fn struct_fields_enum_variants_trait_members() {
        let src = "\
pub struct P { pub x: u32, y: u32, pub(crate) z: u32 }
pub enum E { A, B(u32), C { v: Vec<(u8, u8)> } }
pub trait T { fn m(&self) -> bool; fn with_default(&self) -> u8 { 0 } }
";
        let got = entries(src);
        assert!(got.contains(&"struct P . x: u32".to_string()));
        assert!(!got.iter().any(|e| e.contains(". y")));
        assert!(!got.iter().any(|e| e.contains(". z")));
        assert!(got.contains(&"enum E :: A".to_string()));
        assert!(got.contains(&"enum E :: B(u32)".to_string()));
        assert!(got.contains(&"enum E :: C { v: Vec<(u8, u8)> }".to_string()));
        assert!(got.contains(&"trait T :: fn m(&self) -> bool".to_string()));
        assert!(got.contains(&"trait T :: fn with_default(&self) -> u8".to_string()));
    }

    #[test]
    fn modules_gate_visibility_and_build_paths() {
        let src = "\
pub mod outer {
    pub fn reachable() {}
    mod hidden { pub fn unreachable_fn() {} }
}
mod private_mod { pub fn also_unreachable() {} }
";
        let got = entries(src);
        assert!(got.contains(&"mod outer".to_string()));
        assert!(got.contains(&"outer::fn reachable()".to_string()));
        assert!(!got.iter().any(|e| e.contains("unreachable")));
    }

    #[test]
    fn cfg_test_code_is_excluded_and_spanned() {
        let src = "\
pub fn real() {}
#[cfg(test)]
mod tests {
    pub fn helper() {}
    #[test]
    fn case() { assert!(true); }
}
";
        let parsed = parse_file(src);
        let got: Vec<&str> = parsed.pub_items.iter().map(|i| i.entry.as_str()).collect();
        assert_eq!(got, vec!["fn real()"]);
        assert_eq!(parsed.test_spans.len(), 1);
        let span = parsed.test_spans[0];
        let helper_at = src.find("helper").unwrap();
        assert!(parsed.in_test_code(helper_at));
        assert!(!parsed.in_test_code(src.find("real").unwrap()));
        assert!(span.0 < span.1 && span.1 <= src.len());
    }

    #[test]
    fn use_trees_expand_and_pub_use_is_surface() {
        let src = "\
use ssdx_sim::{SimTime, hash::{FastHashMap, fast}};
pub use config::{SsdConfig, ConfigError as CfgErr};
use ssdx_nand::NandOp;
";
        let parsed = parse_file(src);
        let paths: Vec<&str> = parsed.uses.iter().map(|u| u.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "ssdx_sim::SimTime",
                "ssdx_sim::hash::FastHashMap",
                "ssdx_sim::hash::fast",
                "config::SsdConfig",
                "config::ConfigError",
                "ssdx_nand::NandOp",
            ]
        );
        let surface: Vec<&str> = parsed.pub_items.iter().map(|i| i.entry.as_str()).collect();
        assert_eq!(
            surface,
            vec!["use config::SsdConfig", "use config::ConfigError as CfgErr"]
        );
        assert_eq!(
            parsed
                .crate_refs
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["ssdx_nand", "ssdx_sim"]
        );
    }

    #[test]
    fn crate_refs_ignore_strings_and_comments() {
        let src = "\
// prose about ssdx_core::Explorer
fn f() -> &'static str { \"ssdx_dram as data\" }
use ssdx_sim::SimTime;
";
        let parsed = parse_file(src);
        assert_eq!(
            parsed
                .crate_refs
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["ssdx_sim"]
        );
    }

    #[test]
    fn consts_cut_at_value_and_generics_do_not_confuse_bodies() {
        let src = "\
pub const TABLE: &[(u32, u32)] = &[(1, 2), (3, 4)];
pub fn generic<T: Into<Vec<u8>>>(t: T) -> Option<T> where T: Clone { Some(t) }
pub fn after() {}
";
        let got = entries(src);
        assert_eq!(
            got,
            vec![
                "const TABLE: &[(u32, u32)]",
                "fn generic<T: Into<Vec<u8>>>(t: T) -> Option<T> where T: Clone",
                "fn after()",
            ]
        );
    }

    #[test]
    fn exported_macros_surface() {
        let src = "\
#[macro_export]\nmacro_rules! visible { () => {} }
macro_rules! hidden { () => {} }
pub fn tail() {}
";
        let got = entries(src);
        assert_eq!(got, vec!["macro visible!", "fn tail()"]);
    }
}
