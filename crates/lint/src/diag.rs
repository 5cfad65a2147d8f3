//! Diagnostic types and rendering: rustc-style text and `--json` output.
//!
//! Rendering is pure string building (`fmt::Write` into a caller-owned
//! buffer, the same idiom as `Sweep::to_table`): the library never prints,
//! which keeps `ssdx-lint` clean under its own `no-print-in-lib` rule. The
//! JSON encoder is hand-rolled like `SpeedBaseline::to_json`: `ssdx-lint`
//! stays dependency-free.

use std::fmt::Write as _;

/// One reported finding, located and ready to render.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule name (registry rules or the suppression-audit meta names).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line of the match.
    pub line: usize,
    /// 1-based column (in characters) of the match.
    pub col: usize,
    /// Width of the match in characters (for the caret underline).
    pub width: usize,
    /// What went wrong, specific to this site.
    pub message: String,
    /// The full source line, for the snippet.
    pub snippet: String,
    /// What to do instead (the rule's help text), if any.
    pub help: Option<&'static str>,
}

impl Diagnostic {
    /// Render in rustc's error format:
    ///
    /// ```text
    /// error[no-wall-clock]: `Instant` violates: ...
    ///   --> crates/nand/src/die.rs:41:13
    ///    |
    /// 41 |     let t = Instant::now();
    ///    |             ^^^^^^^
    ///    = help: ...
    /// ```
    pub fn render(&self, out: &mut String) {
        let gutter = self.line.to_string();
        let pad = " ".repeat(gutter.len());
        let _ = writeln!(out, "error[{}]: {}", self.rule, self.message);
        let _ = writeln!(out, "{pad}--> {}:{}:{}", self.path, self.line, self.col);
        let _ = writeln!(out, "{pad} |");
        let _ = writeln!(out, "{gutter} | {}", self.snippet.trim_end());
        let underline_pad: String = self
            .snippet
            .chars()
            .take(self.col.saturating_sub(1))
            .map(|c| if c == '\t' { '\t' } else { ' ' })
            .collect();
        let carets = "^".repeat(self.width.max(1));
        let _ = writeln!(out, "{pad} | {underline_pad}{carets}");
        if let Some(help) = self.help {
            let _ = writeln!(out, "{pad} = help: {help}");
        }
    }

    fn to_json_object(&self, out: &mut String) {
        out.push('{');
        let _ = write!(out, "\"rule\":\"{}\",", escape_json(self.rule));
        let _ = write!(out, "\"path\":\"{}\",", escape_json(&self.path));
        let _ = write!(out, "\"line\":{},\"col\":{},", self.line, self.col);
        let _ = write!(out, "\"message\":\"{}\",", escape_json(&self.message));
        let _ = write!(
            out,
            "\"snippet\":\"{}\"",
            escape_json(self.snippet.trim_end())
        );
        out.push('}');
    }
}

/// Render a full report as human-readable text, with a trailing summary.
pub fn render_text(diags: &[Diagnostic], files_scanned: usize) -> String {
    let mut out = String::new();
    for d in diags {
        d.render(&mut out);
        out.push('\n');
    }
    if diags.is_empty() {
        let _ = writeln!(out, "ssdx-lint: clean ({files_scanned} files scanned)");
    } else {
        let _ = writeln!(
            out,
            "ssdx-lint: {} finding{} across {files_scanned} files scanned",
            diags.len(),
            if diags.len() == 1 { "" } else { "s" },
        );
    }
    out
}

/// Render a full report as one JSON document (stable field order).
pub fn render_json(diags: &[Diagnostic], files_scanned: usize) -> String {
    let mut out = String::new();
    out.push_str("{\"version\":1,");
    let _ = write!(out, "\"files_scanned\":{files_scanned},");
    let _ = write!(out, "\"count\":{},", diags.len());
    out.push_str("\"findings\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        d.to_json_object(&mut out);
    }
    out.push_str("]}");
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic {
            rule: "no-wall-clock",
            path: "crates/nand/src/die.rs".to_string(),
            line: 41,
            col: 13,
            width: 7,
            message: "`Instant` violates: reproducibility".to_string(),
            snippet: "    let t = Instant::now();".to_string(),
            help: Some("use SimTime"),
        }
    }

    #[test]
    fn renders_rustc_style() {
        let mut out = String::new();
        sample().render(&mut out);
        let expected = format!(
            "error[no-wall-clock]: `Instant` violates: reproducibility\n\
             {p}--> crates/nand/src/die.rs:41:13\n\
             {p} |\n\
             41 |     let t = Instant::now();\n\
             {p} | {pad}{carets}\n\
             {p} = help: use SimTime\n",
            p = "  ",
            pad = " ".repeat(12), // col 13 => 12 columns of padding
            carets = "^".repeat(7),
        );
        assert_eq!(out, expected);
    }

    #[test]
    fn json_is_escaped_and_countable() {
        let mut d = sample();
        d.message = "quote \" backslash \\ newline \n".to_string();
        let json = render_json(&[d], 93);
        assert!(json.contains("\\\""));
        assert!(json.contains("\\\\"));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"count\":1"));
        assert!(json.contains("\"files_scanned\":93"));
        assert!(!json.contains('\n'), "JSON stays on one line");
    }

    #[test]
    fn clean_report_says_clean() {
        let text = render_text(&[], 90);
        assert!(text.contains("clean (90 files scanned)"));
    }
}
