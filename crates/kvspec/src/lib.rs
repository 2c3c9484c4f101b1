//! **kvspec** — the shared machinery behind the workspace's declarative
//! component specs.
//!
//! Every open component family — DVS policies (`dvs::PolicySpec`),
//! traffic models (`traffic::TrafficSpec`), distributions
//! (`dist::DistSpec`), dispatchers and fleet policies — is configured
//! through one spec grammar, the **CLI grammar**
//! `name:key=val,key=val` ([`parse_cli`]/[`render_cli`]), e.g.
//! `tdvs:threshold=1400,window=40000` or
//! `burst:on_mbps=1800,off_mbps=120,period_s=2`. The same string
//! travels on a command line, inside a scenario file and in every JSON
//! results document.
//!
//! This crate owns that grammar, the typed parameter bag ([`Params`])
//! with consumption tracking (typo protection), the shared error type
//! ([`SpecError`]), the self-description metadata ([`ParamInfo`]) the
//! listing commands render, and the one lookup every family resolves
//! its names through ([`Registry`]). The domain crates own only their
//! entry tables ([`Entry`]) and the builders that map `(name, params)`
//! to a concrete spec.
//!
//! The grammar is deliberately *flat*: one name, scalar parameters, no
//! nesting, which makes exact round-tripping ([`render_cli`] of a
//! parsed spec) feasible without a full serializer. The one escape
//! hatch is the **bracketed list** value (`key=[item; item; item]`,
//! [`parse_list`]/[`render_list`]): a value that is itself a
//! `;`-separated list of arbitrary sub-spec strings. Commas and colons
//! inside `[...]` do not split CLI pairs, so a composite spec such as
//! `schedule:segments=[low@0..2e6; flash:peak_mbps=900@2e6..4e6]`
//! stays one parameter. The list *contents* are opaque to this crate —
//! the owning registry parses the items.
//!
//! The **flat TOML** file format ([`parse_flat_toml`]/
//! [`render_flat_toml`]: a `<name_key> = "name"` entry plus one
//! `key = value` line per parameter) underlies scenario files, whose
//! string values carry spec strings.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

/// Metadata for one accepted parameter key, rendered by the listing
/// commands (`abdex policies`, `abdex traffics`, ...).
#[derive(Debug, Clone, Copy)]
pub struct ParamInfo {
    /// The key as written in specs (`threshold`, `on_mbps`, ...).
    pub key: &'static str,
    /// The default value, rendered for help output.
    pub default: &'static str,
    /// One-line description.
    pub help: &'static str,
}

/// A parameter value with just enough type information to render it
/// into flat TOML (numbers bare, strings quoted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PVal {
    /// An already-rendered numeric literal (`1400`, `0.5`, `2e8`).
    Num(String),
    /// A string value (quoted in TOML output).
    Str(String),
}

impl PVal {
    /// Renders a float through Rust's shortest-round-trip formatting.
    #[must_use]
    pub fn num_f64(v: f64) -> PVal {
        PVal::Num(format!("{v}"))
    }

    /// Renders an unsigned integer.
    #[must_use]
    pub fn num_u64(v: u64) -> PVal {
        PVal::Num(v.to_string())
    }

    /// The raw value text (no quoting).
    #[must_use]
    pub fn as_str(&self) -> &str {
        match self {
            PVal::Num(s) | PVal::Str(s) => s,
        }
    }
}

/// Key/value parameters collected by the spec grammars, with typed,
/// consumption-tracked access for registry builder functions.
///
/// Pairs keep their **grammar order**: builders that reassociate
/// free-floating keys with a preceding structured value — the
/// `stochastic` traffic model's nested `dist:` specs — drain them with
/// [`Params::into_pairs`]. The map-style accessors (`f64`, `maybe_str`,
/// ...) are last-wins on duplicate keys, matching the old
/// map-overwrite behaviour.
#[derive(Debug, Clone, Default)]
pub struct Params {
    values: Vec<(String, String)>,
}

impl Params {
    /// Adds a raw parameter. Duplicate keys are kept in order; the
    /// typed accessors resolve them last-wins.
    pub fn insert(&mut self, key: &str, value: &str) {
        self.values.push((key.to_owned(), value.to_owned()));
    }

    /// Removes every pair under `key`, returning the last value.
    fn remove(&mut self, key: &str) -> Option<String> {
        let mut found = None;
        self.values.retain_mut(|(k, v)| {
            if k == key {
                found = Some(std::mem::take(v));
                false
            } else {
                true
            }
        });
        found
    }

    /// Drains the remaining pairs in grammar order (duplicates kept).
    #[must_use]
    pub fn into_pairs(self) -> Vec<(String, String)> {
        self.values
    }

    /// Takes a float parameter if present (`None` when absent).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidValue`] when present but unparsable.
    pub fn maybe_f64(&mut self, key: &str) -> Result<Option<f64>, SpecError> {
        match self.remove(key) {
            None => Ok(None),
            Some(raw) => raw.parse().map(Some).map_err(|_| SpecError::InvalidValue {
                key: key.to_owned(),
                value: raw,
                expected: "a number",
            }),
        }
    }

    /// Takes a float parameter, falling back to `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidValue`] when present but unparsable.
    pub fn f64(&mut self, key: &str, default: f64) -> Result<f64, SpecError> {
        Ok(self.maybe_f64(key)?.unwrap_or(default))
    }

    /// Takes an integer parameter, falling back to `default` when absent.
    /// Accepts float notation for whole numbers (`4e4`, `40000.0`).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidValue`] when present but unparsable.
    pub fn u64(&mut self, key: &str, default: u64) -> Result<u64, SpecError> {
        match self.remove(key) {
            None => Ok(default),
            Some(raw) => {
                let direct: Result<u64, _> = raw.parse();
                direct
                    .or_else(|_| {
                        raw.parse::<f64>().map_err(|_| ()).and_then(|f| {
                            if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 {
                                Ok(f as u64)
                            } else {
                                Err(())
                            }
                        })
                    })
                    .map_err(|()| SpecError::InvalidValue {
                        key: key.to_owned(),
                        value: raw,
                        expected: "a non-negative integer",
                    })
            }
        }
    }

    /// Takes a string parameter if present (`None` when absent).
    pub fn maybe_str(&mut self, key: &str) -> Option<String> {
        self.remove(key)
    }

    /// Errors on any parameter no builder consumed (typo protection).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::UnknownParam`] naming the first leftover key.
    pub fn finish(self, owner: &str) -> Result<(), SpecError> {
        match self.values.into_iter().next() {
            None => Ok(()),
            Some((key, _)) => Err(SpecError::UnknownParam {
                owner: owner.to_owned(),
                key,
                known: String::new(),
            }),
        }
    }
}

/// Errors produced by the spec grammars and the registries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The name matches no registry entry.
    UnknownName {
        /// What kind of thing was looked up (`"policy"`, `"traffic model"`).
        kind: &'static str,
        /// The unrecognised name.
        name: String,
        /// Comma-separated registered names (filled by the registry).
        known: String,
    },
    /// A parameter key the named entry does not accept.
    UnknownParam {
        /// The entry that rejected the key.
        owner: String,
        /// The unrecognised key.
        key: String,
        /// Comma-separated accepted keys (filled by [`Registry::build`];
        /// empty when the entry takes no parameters or the error never
        /// passed a registry).
        known: String,
    },
    /// A parameter value that failed to parse or is out of range.
    InvalidValue {
        /// The parameter key.
        key: String,
        /// The offending raw value.
        value: String,
        /// What would have been accepted.
        expected: &'static str,
    },
    /// Input that does not follow the grammar at all.
    Malformed {
        /// The full input.
        input: String,
        /// What went wrong.
        reason: String,
    },
    /// A well-formed spec whose live object cannot be constructed
    /// (e.g. a recorded-trace path that does not exist).
    Unbuildable {
        /// The spec, in CLI grammar.
        spec: String,
        /// Why it cannot be built.
        reason: String,
    },
}

impl SpecError {
    /// Fills an [`SpecError::UnknownParam`]'s accepted-key list from a
    /// registry entry's parameter metadata — mirroring the
    /// [`SpecError::UnknownName`] treatment, where the registry lists
    /// the names it knows. [`Registry::build`] calls this around an
    /// entry's builder so an unknown key names the keys that *would*
    /// have worked; every other error passes through untouched.
    #[must_use]
    fn with_accepted_keys(self, params: &[ParamInfo]) -> Self {
        match self {
            SpecError::UnknownParam { owner, key, .. } => SpecError::UnknownParam {
                owner,
                key,
                known: params.iter().map(|p| p.key).collect::<Vec<_>>().join(", "),
            },
            other => other,
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownName { kind, name, known } => {
                write!(f, "unknown {kind} '{name}' (known: {known})")
            }
            SpecError::UnknownParam { owner, key, known } => {
                write!(f, "'{owner}' accepts no parameter '{key}'")?;
                if !known.is_empty() {
                    write!(f, " (accepted: {known})")?;
                }
                Ok(())
            }
            SpecError::InvalidValue {
                key,
                value,
                expected,
            } => {
                write!(f, "parameter '{key}': '{value}' is not {expected}")
            }
            SpecError::Malformed { input, reason } => {
                write!(f, "malformed spec '{input}': {reason}")
            }
            SpecError::Unbuildable { spec, reason } => {
                write!(f, "cannot build '{spec}': {reason}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// One member of a spec family: how a [`Registry`] finds, describes
/// and builds it.
#[derive(Debug)]
pub struct Entry<S> {
    /// Canonical name used in specs and help output.
    pub name: &'static str,
    /// Accepted alternative names.
    pub aliases: &'static [&'static str],
    /// One-line description.
    pub summary: &'static str,
    /// Accepted parameters.
    pub params: &'static [ParamInfo],
    /// Validates the parameters and produces the spec. It calls
    /// [`Params::finish`] with the entry's own `name`, so an unknown
    /// key gets this entry's accepted keys attached.
    pub build: fn(Params) -> Result<S, SpecError>,
}

/// A spec family's name-indexed entry table and the one lookup every
/// family resolves its spec strings through.
///
/// Names and aliases match case-insensitively. An unknown name lists
/// the canonical names. An unknown key lists the accepted keys of the
/// entry that rejected it: an error a builder passes up from a nested
/// spec (a `dist` inside a traffic model, a `schedule` child) keeps the
/// nested entry's keys.
#[derive(Debug)]
pub struct Registry<S: 'static> {
    kind: &'static str,
    entries: &'static [Entry<S>],
}

impl<S> Registry<S> {
    /// A registry over `entries`; `kind` names the family in errors
    /// (`"policy"`, `"traffic model"`).
    #[must_use]
    pub const fn new(kind: &'static str, entries: &'static [Entry<S>]) -> Self {
        Registry { kind, entries }
    }

    /// Every entry, in registration order.
    #[must_use]
    pub fn entries(&self) -> &'static [Entry<S>] {
        self.entries
    }

    /// Comma-separated canonical names (for error messages and help).
    #[must_use]
    pub fn name_list(&self) -> String {
        let names: Vec<&str> = self.entries.iter().map(|e| e.name).collect();
        names.join(", ")
    }

    /// Parses the CLI grammar `name[:key=val[,key=val]...]` and builds
    /// the named entry's spec.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for malformed input, unknown names,
    /// unknown keys or invalid values.
    pub fn parse(&self, input: &str) -> Result<S, SpecError> {
        let (name, params) = parse_cli(input)?;
        self.build(&name, params)
    }

    /// Builds a validated spec for `name` (or an alias) from raw
    /// parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for unknown names, unknown keys or
    /// invalid values.
    pub fn build(&self, name: &str, params: Params) -> Result<S, SpecError> {
        let wanted = name.to_ascii_lowercase();
        let Some(entry) = self
            .entries
            .iter()
            .find(|e| e.name == wanted || e.aliases.contains(&wanted.as_str()))
        else {
            return Err(SpecError::UnknownName {
                kind: self.kind,
                name: wanted,
                known: self.name_list(),
            });
        };
        (entry.build)(params).map_err(|e| match e {
            SpecError::UnknownParam { ref owner, .. } if owner == entry.name => {
                e.with_accepted_keys(entry.params)
            }
            other => other,
        })
    }
}

/// Parses the CLI grammar `name[:key=val[,key=val]...]` into the name
/// and its raw parameters.
///
/// # Errors
///
/// Returns [`SpecError::Malformed`] for an empty name or a pair without
/// `=`; value validation is the registry builder's job.
pub fn parse_cli(input: &str) -> Result<(String, Params), SpecError> {
    let input = input.trim();
    let (name, rest) = match input.split_once(':') {
        Some((name, rest)) => (name.trim(), Some(rest)),
        None => (input, None),
    };
    if name.is_empty() {
        return Err(SpecError::Malformed {
            input: input.to_owned(),
            reason: "empty name".to_owned(),
        });
    }
    let mut params = Params::default();
    if let Some(rest) = rest {
        // Commas inside a bracketed list value (`segments=[a; b,c]`) do
        // not separate pairs — they belong to the list's items.
        for pair in split_outside_brackets(rest, ',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let Some((key, value)) = pair.split_once('=') else {
                return Err(SpecError::Malformed {
                    input: input.to_owned(),
                    reason: format!("expected key=value, found '{pair}'"),
                });
            };
            params.insert(key.trim(), value.trim());
        }
    }
    Ok((name.to_owned(), params))
}

/// Splits on `sep` occurrences that are not inside `[...]` (nesting
/// respected). Unbalanced brackets simply stop splitting — the registry
/// parsing the offending value reports the real error.
fn split_outside_brackets(body: &str, sep: char) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut depth = 0usize;
    for (i, c) in body.char_indices() {
        match c {
            '[' => depth += 1,
            ']' => depth = depth.saturating_sub(1),
            c if c == sep && depth == 0 => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&body[start..]);
    parts
}

/// Parses a bracketed list value `[item; item; ...]` into its items
/// (trimmed; empty items are skipped, so `[]` and `[ ]` are the empty
/// list). Semicolons inside nested `[...]` stay with their item.
///
/// This is the one non-scalar value the grammar carries: the whole
/// bracketed text travels as an ordinary parameter value ([`parse_cli`]
/// protects the commas inside it), and the registry owning the
/// parameter splits it here.
///
/// # Errors
///
/// Returns [`SpecError::Malformed`] when `input` is not wrapped in
/// `[...]` or the brackets do not balance.
pub fn parse_list(input: &str) -> Result<Vec<String>, SpecError> {
    let trimmed = input.trim();
    let malformed = |reason: String| SpecError::Malformed {
        input: input.to_owned(),
        reason,
    };
    let body = trimmed
        .strip_prefix('[')
        .and_then(|b| b.strip_suffix(']'))
        .ok_or_else(|| malformed("expected a [item; item; ...] list".to_owned()))?;
    let mut depth = 0i64;
    for c in body.chars() {
        match c {
            '[' => depth += 1,
            ']' => depth -= 1,
            _ => {}
        }
        if depth < 0 {
            return Err(malformed("unbalanced ']' inside the list".to_owned()));
        }
    }
    if depth != 0 {
        return Err(malformed("unbalanced '[' inside the list".to_owned()));
    }
    Ok(split_outside_brackets(body, ';')
        .into_iter()
        .map(str::trim)
        .filter(|item| !item.is_empty())
        .map(str::to_owned)
        .collect())
}

/// Renders items as the bracketed list `[a; b; c]`; [`parse_list`] of
/// the result round-trips (items are assumed non-empty and trimmed, as
/// [`parse_list`] produces them).
#[must_use]
pub fn render_list<S: AsRef<str>>(items: &[S]) -> String {
    let body: Vec<&str> = items.iter().map(AsRef::as_ref).collect();
    format!("[{}]", body.join("; "))
}

/// Parses a flat TOML fragment: a `<name_key> = "name"` entry plus one
/// `key = value` line per parameter. Comments (`#`), blank lines and
/// optional `[table]` headers are accepted.
///
/// # Errors
///
/// Returns [`SpecError::Malformed`] for syntax errors or a missing
/// `<name_key>` entry.
pub fn parse_flat_toml(input: &str, name_key: &str) -> Result<(String, Params), SpecError> {
    let mut name: Option<String> = None;
    let mut params = Params::default();
    for raw in input.lines() {
        let line = strip_toml_comment(raw).trim();
        if line.is_empty() || (line.starts_with('[') && line.ends_with(']')) {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(SpecError::Malformed {
                input: input.to_owned(),
                reason: format!("expected key = value, found '{line}'"),
            });
        };
        let key = key.trim();
        let value = unquote(value.trim());
        if key == name_key {
            name = Some(value);
        } else {
            params.insert(key, &value);
        }
    }
    let name = name.ok_or_else(|| SpecError::Malformed {
        input: input.to_owned(),
        reason: format!("missing `{name_key} = \"...\"` entry"),
    })?;
    Ok((name, params))
}

/// Drops a trailing `# comment`, honouring `#` inside quoted strings
/// (escapes included) so string values containing `#` survive.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '#' => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Renders the CLI grammar `name[:key=val,...]`; [`parse_cli`] of the
/// result round-trips.
#[must_use]
pub fn render_cli(name: &str, params: &[(&'static str, PVal)]) -> String {
    if params.is_empty() {
        return name.to_owned();
    }
    let body: Vec<String> = params
        .iter()
        .map(|(k, v)| format!("{k}={}", v.as_str()))
        .collect();
    format!("{name}:{}", body.join(","))
}

/// Renders a flat TOML fragment; [`parse_flat_toml`] of the result
/// round-trips, string values (the name included) escaped.
#[must_use]
pub fn render_flat_toml(name_key: &str, name: &str, params: &[(&'static str, PVal)]) -> String {
    let mut out = format!("{name_key} = \"{}\"\n", escape_string(name));
    for (k, v) in params {
        match v {
            PVal::Num(n) => out.push_str(&format!("{k} = {n}\n")),
            PVal::Str(s) => out.push_str(&format!("{k} = \"{}\"\n", escape_string(s))),
        }
    }
    out
}

/// Escapes quotes and backslashes for a quoted TOML string literal.
fn escape_string(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Strips exactly one surrounding quote pair (when present) and undoes
/// [`escape_string`]; bare (unquoted) values pass through untouched.
fn unquote(s: &str) -> String {
    let Some(inner) = s.strip_prefix('"').and_then(|rest| rest.strip_suffix('"')) else {
        return s.to_owned();
    };
    let mut out = String::with_capacity(inner.len());
    let mut escaped = false;
    for c in inner.chars() {
        if escaped {
            out.push(c);
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_grammar_parses_names_and_pairs() {
        let (name, mut p) = parse_cli("tdvs:threshold=1400, window=40000").unwrap();
        assert_eq!(name, "tdvs");
        assert_eq!(p.f64("threshold", 0.0).unwrap(), 1400.0);
        assert_eq!(p.u64("window", 0).unwrap(), 40_000);
        p.finish("tdvs").unwrap();

        let (name, p) = parse_cli("nodvs").unwrap();
        assert_eq!(name, "nodvs");
        p.finish("nodvs").unwrap();
    }

    #[test]
    fn cli_grammar_rejects_garbage() {
        assert!(matches!(parse_cli(""), Err(SpecError::Malformed { .. })));
        assert!(matches!(
            parse_cli("tdvs:threshold"),
            Err(SpecError::Malformed { .. })
        ));
    }

    #[test]
    fn toml_grammar_accepts_comments_and_headers() {
        let (name, mut p) = parse_flat_toml(
            "# a comment\n[traffic]\ntraffic = \"burst\"\non_mbps = 1800 # peak\n",
            "traffic",
        )
        .unwrap();
        assert_eq!(name, "burst");
        assert_eq!(p.f64("on_mbps", 0.0).unwrap(), 1800.0);
    }

    #[test]
    fn toml_grammar_requires_the_name_key() {
        assert!(matches!(
            parse_flat_toml("on_mbps = 5", "traffic"),
            Err(SpecError::Malformed { .. })
        ));
        assert!(matches!(
            parse_flat_toml("traffic 'x'", "traffic"),
            Err(SpecError::Malformed { .. })
        ));
    }

    #[test]
    fn renderers_round_trip_through_their_parsers() {
        let params = [
            ("rate", PVal::num_f64(850.5)),
            ("window", PVal::num_u64(40_000)),
            ("path", PVal::Str("/tmp/a \"b\".txt".to_owned())),
        ];
        let cli = render_cli("model", &params[..2]);
        assert_eq!(cli, "model:rate=850.5,window=40000");
        let (name, mut p) = parse_cli(&cli).unwrap();
        assert_eq!(name, "model");
        assert_eq!(p.f64("rate", 0.0).unwrap(), 850.5);

        let toml = render_flat_toml("traffic", "model", &params);
        let (name, mut p) = parse_flat_toml(&toml, "traffic").unwrap();
        assert_eq!(name, "model");
        assert_eq!(p.f64("rate", 0.0).unwrap(), 850.5);
        assert_eq!(p.maybe_str("path").unwrap(), "/tmp/a \"b\".txt");
    }

    #[test]
    fn string_values_with_grammar_chars_round_trip() {
        // '#' must survive TOML comment stripping; leading/trailing
        // quotes and backslashes must survive the escape round-trip.
        for path in [
            "/data/run#3/trace.txt",
            "/tmp/a\"",
            "\"quoted\"",
            "back\\slash\\",
            "\\",
            "\"",
            "",
        ] {
            let params = [("path", PVal::Str(path.to_owned()))];
            let toml = render_flat_toml("name", path, &params);
            let (name, mut p) = parse_flat_toml(&toml, "name").unwrap();
            assert_eq!(name, path, "TOML: {toml:?}");
            assert_eq!(p.maybe_str("path").unwrap(), path, "TOML: {toml:?}");
        }
    }

    #[test]
    fn toml_comments_only_start_outside_strings() {
        let (_, mut p) = parse_flat_toml(
            "traffic = \"trace\"\npath = \"/a#b\" # real comment\n",
            "traffic",
        )
        .unwrap();
        assert_eq!(p.maybe_str("path").unwrap(), "/a#b");
    }

    #[test]
    fn params_track_consumption() {
        let mut p = Params::default();
        p.insert("known", "1");
        p.insert("typo", "2");
        assert_eq!(p.u64("known", 0).unwrap(), 1);
        let err = p.finish("thing").unwrap_err();
        assert!(matches!(err, SpecError::UnknownParam { ref key, .. } if key == "typo"));
    }

    #[test]
    fn params_keep_grammar_order_and_resolve_duplicates_last_wins() {
        let (_, mut p) = parse_cli("m:b=1,a=2,b=3,c=4").unwrap();
        // Last-wins on the duplicate...
        assert_eq!(p.u64("b", 0).unwrap(), 3);
        // ...and the drain keeps the survivors in grammar order.
        let pairs = p.into_pairs();
        assert_eq!(
            pairs,
            vec![
                ("a".to_owned(), "2".to_owned()),
                ("c".to_owned(), "4".to_owned())
            ]
        );
        // finish() names the *first* leftover in grammar order.
        let (_, p) = parse_cli("m:zz=1,aa=2").unwrap();
        let err = p.finish("m").unwrap_err();
        assert!(matches!(err, SpecError::UnknownParam { ref key, .. } if key == "zz"));
    }

    #[test]
    fn u64_accepts_float_notation_for_whole_numbers() {
        let mut p = Params::default();
        p.insert("window", "40000.0");
        assert_eq!(p.u64("window", 0).unwrap(), 40_000);
        let mut p = Params::default();
        p.insert("window", "40000.5");
        assert!(p.u64("window", 0).is_err());
    }

    #[test]
    fn cli_grammar_keeps_bracketed_lists_whole() {
        let (name, mut p) =
            parse_cli("schedule:segments=[low@0..2e6; flash:peak_mbps=900,ramp_ms=1@2e6..4e6],x=1")
                .unwrap();
        assert_eq!(name, "schedule");
        assert_eq!(p.u64("x", 0).unwrap(), 1);
        let raw = p.maybe_str("segments").unwrap();
        assert_eq!(raw, "[low@0..2e6; flash:peak_mbps=900,ramp_ms=1@2e6..4e6]");
        let items = parse_list(&raw).unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0], "low@0..2e6");
        assert_eq!(items[1], "flash:peak_mbps=900,ramp_ms=1@2e6..4e6");
    }

    #[test]
    fn list_round_trips_through_render() {
        let items = ["low@0..2e6", "constant:rate=500@2e6.."];
        let rendered = render_list(&items);
        assert_eq!(rendered, "[low@0..2e6; constant:rate=500@2e6..]");
        assert_eq!(parse_list(&rendered).unwrap(), items.to_vec());
        // Empty lists render and reparse.
        assert_eq!(render_list::<&str>(&[]), "[]");
        assert!(parse_list("[]").unwrap().is_empty());
        assert!(parse_list("[ ; ]").unwrap().is_empty());
    }

    #[test]
    fn nested_lists_keep_inner_semicolons() {
        let items = parse_list("[schedule:segments=[a@0..1; b@1..]@0..5; low@5..]").unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0], "schedule:segments=[a@0..1; b@1..]@0..5");
        assert_eq!(items[1], "low@5..");
    }

    #[test]
    fn list_rejects_missing_or_unbalanced_brackets() {
        assert!(matches!(
            parse_list("a; b"),
            Err(SpecError::Malformed { .. })
        ));
        assert!(matches!(
            parse_list("[a; [b]"),
            Err(SpecError::Malformed { .. })
        ));
        assert!(matches!(
            parse_list("[a]; b]"),
            Err(SpecError::Malformed { .. })
        ));
    }

    #[test]
    fn bracketed_values_survive_toml_as_strings() {
        let list = "[low@0..2e6; flash:peak_mbps=900@2e6..]";
        let params = [("segments", PVal::Str(list.to_owned()))];
        let toml = render_flat_toml("traffic", "schedule", &params);
        let (name, mut p) = parse_flat_toml(&toml, "traffic").unwrap();
        assert_eq!(name, "schedule");
        assert_eq!(p.maybe_str("segments").unwrap(), list);
        // And through the CLI renderer, where the list stays bare.
        let cli = render_cli("schedule", &params);
        assert_eq!(cli, format!("schedule:segments={list}"));
        let (_, mut p) = parse_cli(&cli).unwrap();
        assert_eq!(p.maybe_str("segments").unwrap(), list);
    }

    #[test]
    fn error_display_is_informative() {
        let e = SpecError::UnknownName {
            kind: "traffic model",
            name: "warp".to_owned(),
            known: "low, burst".to_owned(),
        };
        let text = e.to_string();
        assert!(text.contains("traffic model"));
        assert!(text.contains("warp"));
        assert!(text.contains("burst"));
    }

    /// A two-entry family for the lookup tests: `stack:top=<shape>`
    /// nests a shape spec, as `schedule` nests traffic models.
    static SHAPES: Registry<String> = Registry::new(
        "shape",
        &[
            Entry {
                name: "circle",
                aliases: &["round", "disc"],
                summary: "a circle",
                params: &[ParamInfo {
                    key: "r",
                    default: "1",
                    help: "radius",
                }],
                build: build_circle,
            },
            Entry {
                name: "stack",
                aliases: &[],
                summary: "a shape on top of another",
                params: &[ParamInfo {
                    key: "top",
                    default: "circle",
                    help: "the shape on top",
                }],
                build: build_stack,
            },
        ],
    );

    fn build_circle(mut params: Params) -> Result<String, SpecError> {
        let r = params.f64("r", 1.0)?;
        params.finish("circle")?;
        Ok(format!("circle r={r}"))
    }

    fn build_stack(mut params: Params) -> Result<String, SpecError> {
        let top = params.maybe_str("top");
        params.finish("stack")?;
        Ok(format!(
            "stack on {}",
            SHAPES.parse(&top.unwrap_or_default())?
        ))
    }

    #[test]
    fn registry_names_and_aliases_match_case_insensitively() {
        assert_eq!(SHAPES.parse("circle:r=2").unwrap(), "circle r=2");
        for name in ["CIRCLE", "Round", "disc"] {
            assert_eq!(SHAPES.parse(name).unwrap(), "circle r=1", "{name}");
        }
        assert_eq!(SHAPES.name_list(), "circle, stack");
        assert_eq!(SHAPES.entries().len(), 2);
    }

    #[test]
    fn registry_unknown_name_lists_the_known_names() {
        let err = SHAPES.parse("Hexagon:r=1").unwrap_err();
        assert_eq!(
            err,
            SpecError::UnknownName {
                kind: "shape",
                name: "hexagon".to_owned(),
                known: "circle, stack".to_owned(),
            }
        );
        assert!(matches!(
            SHAPES.parse(":r=1"),
            Err(SpecError::Malformed { .. })
        ));
    }

    #[test]
    fn registry_attaches_accepted_keys_only_to_the_entrys_own_errors() {
        let own = SHAPES.parse("circle:typo=1").unwrap_err();
        assert_eq!(
            own.to_string(),
            "'circle' accepts no parameter 'typo' (accepted: r)"
        );
        let outer = SHAPES.parse("stack:typo=1").unwrap_err();
        assert_eq!(
            outer.to_string(),
            "'stack' accepts no parameter 'typo' (accepted: top)"
        );
        // A nested entry's error keeps the nested entry's keys...
        let nested = SHAPES.parse("stack:top=circle:typo=1").unwrap_err();
        assert_eq!(
            nested.to_string(),
            "'circle' accepts no parameter 'typo' (accepted: r)"
        );
        // ...and every other error passes through untouched.
        let value = SHAPES.parse("stack:top=circle:r=x").unwrap_err();
        assert!(matches!(value, SpecError::InvalidValue { ref key, .. } if key == "r"));
    }

    #[test]
    fn unknown_param_lists_accepted_keys_when_filled() {
        let raw = SpecError::UnknownParam {
            owner: "tdvs".to_owned(),
            key: "treshold".to_owned(),
            known: String::new(),
        };
        // A bare finish() error names only the offender...
        assert_eq!(raw.to_string(), "'tdvs' accepts no parameter 'treshold'");
        // ...and the registry fills in what would have worked.
        let infos = [
            ParamInfo {
                key: "threshold",
                default: "1000",
                help: "",
            },
            ParamInfo {
                key: "window",
                default: "40000",
                help: "",
            },
        ];
        let filled = raw.with_accepted_keys(&infos);
        let text = filled.to_string();
        assert!(text.contains("(accepted: threshold, window)"), "{text}");
        // A parameter-free entry stays with the plain message.
        let none = SpecError::UnknownParam {
            owner: "nodvs".to_owned(),
            key: "x".to_owned(),
            known: String::new(),
        }
        .with_accepted_keys(&[]);
        assert_eq!(none.to_string(), "'nodvs' accepts no parameter 'x'");
        // Every other error passes through untouched.
        let other = SpecError::Malformed {
            input: "x".to_owned(),
            reason: "r".to_owned(),
        };
        assert_eq!(other.clone().with_accepted_keys(&infos), other);
    }
}
