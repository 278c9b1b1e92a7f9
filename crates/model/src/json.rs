//! Dependency-free JSON serialization of tasks and task sets.
//!
//! The workspace builds with no access to crates.io, so instead of serde
//! this module hand-rolls the (tiny) JSON schema task sets need — used by
//! `repro dump-set` and by anyone wanting to persist generated workloads:
//!
//! ```json
//! {
//!   "version": 1,
//!   "tasks": [
//!     {
//!       "name": "video",
//!       "period": 40,
//!       "deadline": 40,
//!       "dag": { "wcets": [2, 6, 4, 1], "edges": [[0, 1], [0, 2]] }
//!     }
//!   ]
//! }
//! ```
//!
//! `name` is omitted for unnamed tasks. Reading accepts standard JSON
//! (insignificant whitespace, string escapes, any key order; the last of
//! duplicate keys wins) and validates through the usual [`DagBuilder`] /
//! [`DagTask::new`] constructors, so a parsed task upholds every model
//! invariant. Containers nest at most [`MAX_DEPTH`] levels deep.
//!
//! Task-**set** payloads are versioned: writers stamp the current
//! [`TASK_SET_SCHEMA_VERSION`], readers accept version-less legacy payloads
//! (implicitly version 1) and reject anything newer with the structured
//! [`JsonError::UnknownVersion`] — never a panic — so an old server given a
//! new client's payload degrades into a clean protocol error.
//!
//! Besides the pretty printers there are single-line compact writers
//! ([`task_set_to_json_compact`]) for line-delimited wire framing.
//!
//! # Reading
//!
//! The text entry points, [`task_set_from_json`] and [`task_from_json`],
//! decode in one pass: a [`Reader`] walks the bytes once and feeds every
//! task's WCETs and edges straight into a [`DagBuilder`], with no tree in
//! between. A protocol envelope that embeds a task set (the `repro serve`
//! request format) walks its own members with the same [`Reader`] and hands
//! the embedded set to [`Reader::task_set`].
//!
//! The generic reader, [`parse`], reads any document into a [`Value`] tree
//! through the same tokenizer, and [`task_set_from_value`] maps such a tree
//! to a task set. Together they are the decoder's test reference: for every
//! input both paths give the same task set or the same error.
//!
//! # Example
//!
//! ```
//! use rta_model::{json, DagBuilder, DagTask};
//!
//! # fn main() -> Result<(), rta_model::json::JsonError> {
//! let mut b = DagBuilder::new();
//! let v = b.add_nodes([3, 4]);
//! b.add_chain(&v).unwrap();
//! let task = DagTask::new(b.build().unwrap(), 20, 15).unwrap().named("t");
//! let round_tripped = json::task_from_json(&json::task_to_json(&task))?;
//! assert_eq!(task, round_tripped);
//! # Ok(())
//! # }
//! ```

use crate::dag::{Dag, DagBuilder};
use crate::error::ModelError;
use crate::ids::NodeId;
use crate::task::DagTask;
use crate::taskset::TaskSet;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// The newest task-set payload schema version this build reads and the one
/// it writes. Version-less payloads predate versioning and are read as
/// version 1.
pub const TASK_SET_SCHEMA_VERSION: u64 = 1;

/// Why a JSON document could not be turned into a model value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonError {
    /// The text is not well-formed JSON; byte offset and description.
    Syntax {
        /// Byte offset of the problem.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// Well-formed JSON that does not match the schema.
    Schema(String),
    /// The payload declares a schema version this build does not read.
    UnknownVersion {
        /// The version the payload declares.
        found: u64,
        /// The newest version this build understands
        /// ([`TASK_SET_SCHEMA_VERSION`]).
        supported: u64,
    },
    /// Schema-valid input rejected by a model constructor (e.g. a cycle or
    /// a deadline exceeding the period).
    Model(ModelError),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { offset, message } => {
                write!(f, "JSON syntax error at byte {offset}: {message}")
            }
            JsonError::Schema(message) => write!(f, "JSON schema error: {message}"),
            JsonError::UnknownVersion { found, supported } => write!(
                f,
                "unsupported task-set schema version {found} (this build reads up to {supported})"
            ),
            JsonError::Model(e) => write!(f, "parsed JSON violates the task model: {e}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<ModelError> for JsonError {
    fn from(e: ModelError) -> Self {
        JsonError::Model(e)
    }
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

/// Appends `s` to `out` as a quoted JSON string: quotes, backslashes and
/// control characters escaped.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

fn dag_into(out: &mut String, dag: &Dag, indent: &str) {
    let _ = write!(out, "{{\n{indent}  \"wcets\": [");
    for (i, w) in dag.wcets().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{w}");
    }
    let _ = write!(out, "],\n{indent}  \"edges\": [");
    for (i, (from, to)) in dag.edges().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "[{}, {}]", from.index(), to.index());
    }
    let _ = write!(out, "]\n{indent}}}");
}

fn task_into(out: &mut String, task: &DagTask, indent: &str) {
    let _ = write!(out, "{{\n{indent}  ");
    if let Some(name) = task.name() {
        out.push_str("\"name\": ");
        escape_into(out, name);
        let _ = write!(out, ",\n{indent}  ");
    }
    let _ = write!(
        out,
        "\"period\": {},\n{indent}  \"deadline\": {},\n{indent}  \"dag\": ",
        task.period(),
        task.deadline()
    );
    dag_into(out, task.dag(), &format!("{indent}  "));
    let _ = write!(out, "\n{indent}}}");
}

/// Renders one task as pretty-printed JSON.
pub fn task_to_json(task: &DagTask) -> String {
    let mut out = String::new();
    task_into(&mut out, task, "");
    out
}

/// Renders a task set as pretty-printed JSON (tasks in priority order),
/// stamped with the current [`TASK_SET_SCHEMA_VERSION`].
pub fn task_set_to_json(task_set: &TaskSet) -> String {
    let mut out = format!("{{\n  \"version\": {TASK_SET_SCHEMA_VERSION},\n  \"tasks\": [");
    for (i, task) in task_set.tasks().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        task_into(&mut out, task, "    ");
    }
    if !task_set.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}");
    out
}

fn dag_into_compact(out: &mut String, dag: &Dag) {
    out.push_str("{\"wcets\":[");
    for (i, w) in dag.wcets().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{w}");
    }
    out.push_str("],\"edges\":[");
    for (i, (from, to)) in dag.edges().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{}]", from.index(), to.index());
    }
    out.push_str("]}");
}

fn task_into_compact(out: &mut String, task: &DagTask) {
    out.push('{');
    if let Some(name) = task.name() {
        out.push_str("\"name\":");
        escape_into(out, name);
        out.push(',');
    }
    let _ = write!(
        out,
        "\"period\":{},\"deadline\":{},\"dag\":",
        task.period(),
        task.deadline()
    );
    dag_into_compact(out, task.dag());
    out.push('}');
}

/// Renders a task set as single-line compact JSON — the form the
/// line-delimited `repro serve` wire protocol embeds in its request frames.
/// Parses back through [`task_set_from_json`] like the pretty form.
pub fn task_set_to_json_compact(task_set: &TaskSet) -> String {
    let mut out = format!("{{\"version\":{TASK_SET_SCHEMA_VERSION},\"tasks\":[");
    for (i, task) in task_set.tasks().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        task_into_compact(&mut out, task);
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------------
// Reading: one tokenizer under the Value tree and the one-pass decoders
// ---------------------------------------------------------------------------

/// The deepest container nesting a [`Reader`] accepts. Reading recurses
/// once per level, so without a bound one line of `[` could exhaust the
/// reading thread's stack; a deeper document is a [`JsonError::Syntax`] at
/// the first bracket past the bound. Task-set documents nest 6 levels and
/// the deepest `repro serve` frame 8.
pub const MAX_DEPTH: usize = 128;

/// A decoded model value, or the schema or model error its (well-formed)
/// JSON maps to. The decoders return it inside an outer `Result` that
/// carries syntax errors only: a syntax error stops reading at once, while
/// a schema or model error travels as a value until the document ends, so
/// a syntax error anywhere in the document wins over it.
pub type Decoded<T> = Result<T, JsonError>;

/// A parsed JSON value: what [`parse`] returns, and how the decoders quote
/// an offending value in a schema error.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Numbers that fit an unsigned integer exactly stay exact.
    UInt(u64),
    /// Any other number (negative, fractional, or in exponent form).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. Key order is not preserved (nor significant); the last of
    /// duplicate keys wins.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The value of `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The exact unsigned integer, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// A cursor over one JSON document: the recursive-descent tokenizer that
/// both [`parse`]'s [`Value`] tree and the one-pass decoders read through,
/// so every reader reports the same syntax error at the same byte offset.
///
/// A decoder walks an object as [`begin_object`](Reader::begin_object),
/// then [`key`](Reader::key), the member's value and
/// [`next_member`](Reader::next_member) until that returns `false`.
/// [`peek`](Reader::peek) tells which kind of value comes next;
/// [`value`](Reader::value) reads any value whole (a member the decoder
/// does not know, or one it must quote in an error) and
/// [`task_set`](Reader::task_set) decodes an embedded task set;
/// [`finish`](Reader::finish) rejects trailing characters.
///
/// ```
/// use rta_model::json::Reader;
///
/// # fn main() -> Result<(), rta_model::json::JsonError> {
/// let mut reader = Reader::new(r#"{"cores": 4, "task_set": {"tasks": []}}"#);
/// let (mut cores, mut task_set) = (None, None);
/// if reader.begin_object()? {
///     loop {
///         match &*reader.key()? {
///             "cores" => cores = reader.value()?.as_u64(),
///             "task_set" => task_set = Some(reader.task_set()?),
///             _ => drop(reader.value()?),
///         }
///         if !reader.next_member()? {
///             break;
///         }
///     }
/// }
/// reader.finish()?;
/// assert_eq!(cores, Some(4));
/// assert!(task_set.unwrap()?.is_empty());
/// # Ok(())
/// # }
/// ```
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open at the cursor.
    depth: usize,
    /// The `(from, to)` pairs of the DAG being decoded, kept until its
    /// `"wcets"` are known (the members may come in either order). Reused
    /// across the document's DAGs.
    pairs: Vec<(u64, u64)>,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self {
            text,
            pos: 0,
            depth: 0,
            pairs: Vec::new(),
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError::Syntax {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        self.skip_ws();
        if self.byte() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", byte as char))
        }
    }

    /// Skips insignificant whitespace and returns the byte the next value
    /// starts with (`{`, `[`, `"`, a digit, ...), or `None` at the end.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    /// Checks that only whitespace follows the document.
    ///
    /// # Errors
    ///
    /// [`JsonError::Syntax`] at the first trailing character.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return self.err("trailing characters after JSON document");
        }
        Ok(())
    }

    /// Reads the next value whole, as a [`Value`] tree.
    ///
    /// # Errors
    ///
    /// [`JsonError::Syntax`] when the value is not well-formed JSON.
    pub fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                if self.begin_object()? {
                    loop {
                        let key = self.key()?.into_owned();
                        let value = self.value()?;
                        map.insert(key, value);
                        if !self.next_member()? {
                            break;
                        }
                    }
                }
                Ok(Value::Object(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                if self.begin_array()? {
                    loop {
                        items.push(self.value()?);
                        if !self.next_element()? {
                            break;
                        }
                    }
                }
                Ok(Value::Array(items))
            }
            Some(b'"') => Ok(Value::Str(self.string()?.into_owned())),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => self.err(format!("unexpected character '{}'", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    /// Enters an object; `true` when a member follows, `false` when the
    /// object is empty (and already closed).
    ///
    /// # Errors
    ///
    /// [`JsonError::Syntax`] when no `{` comes next, or when it would nest
    /// deeper than [`MAX_DEPTH`].
    pub fn begin_object(&mut self) -> Result<bool, JsonError> {
        self.open(b'{', b'}')
    }

    /// Enters an array; `true` when an element follows, `false` when the
    /// array is empty (and already closed).
    fn begin_array(&mut self) -> Result<bool, JsonError> {
        self.open(b'[', b']')
    }

    fn open(&mut self, open: u8, close: u8) -> Result<bool, JsonError> {
        self.skip_ws();
        if self.byte() != Some(open) {
            return self.err(format!("expected '{}'", open as char));
        }
        if self.depth == MAX_DEPTH {
            return self.err(format!("containers nest deeper than {MAX_DEPTH} levels"));
        }
        self.pos += 1;
        self.depth += 1;
        self.skip_ws();
        if self.byte() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// Reads an object member's key and the `:` after it. The key borrows
    /// from the document unless it holds escapes.
    ///
    /// # Errors
    ///
    /// [`JsonError::Syntax`] when no well-formed key and `:` come next.
    pub fn key(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.skip_ws();
        let key = self.string()?;
        self.expect(b':')?;
        Ok(key)
    }

    /// After an object member's value: `true` when another member follows,
    /// `false` when the object closes.
    ///
    /// # Errors
    ///
    /// [`JsonError::Syntax`] when neither `,` nor `}` comes next.
    pub fn next_member(&mut self) -> Result<bool, JsonError> {
        self.close_or_continue(b'}', "expected ',' or '}'")
    }

    /// After an array element: `true` when another element follows,
    /// `false` when the array closes.
    fn next_element(&mut self) -> Result<bool, JsonError> {
        self.close_or_continue(b']', "expected ',' or ']'")
    }

    fn close_or_continue(&mut self, close: u8, message: &str) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.byte() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(c) if c == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => self.err(message),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            self.err(format!("expected '{text}'"))
        }
    }

    /// Reads a string, borrowing it from the document up to its first
    /// escape.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        if self.byte() != Some(b'"') {
            return self.err("expected string");
        }
        self.pos += 1;
        let start = self.pos;
        // The text is a `str`, so every byte up to the closing quote is
        // part of a valid character; only quotes, escapes and control
        // characters need a closer look.
        while let Some(c) = self.byte() {
            match c {
                b'"' => {
                    self.pos += 1;
                    return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
                }
                b'\\' => break,
                c if c < 0x20 => break,
                _ => self.pos += 1,
            }
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            let Some(c) = self.byte() else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(Cow::Owned(out)),
                b'\\' => {
                    let Some(escape) = self.byte() else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            let scalar = match code {
                                // High surrogate: standard JSON encodes
                                // non-BMP characters as a \uXXXX\uXXXX
                                // pair (e.g. Python's ensure_ascii).
                                0xD800..=0xDBFF => {
                                    if self.text.as_bytes().get(self.pos..self.pos + 2)
                                        != Some(b"\\u")
                                    {
                                        return self
                                            .err("high surrogate not followed by \\u escape");
                                    }
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return self
                                            .err("high surrogate not followed by low surrogate");
                                    }
                                    0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                                }
                                0xDC00..=0xDFFF => {
                                    return self.err("unpaired low surrogate");
                                }
                                code => code,
                            };
                            let Some(c) = char::from_u32(scalar) else {
                                return self.err("\\u escape is not a scalar value");
                            };
                            out.push(c);
                        }
                        other => return self.err(format!("invalid escape '\\{}'", other as char)),
                    }
                }
                c if c < 0x20 => return self.err("control character in string"),
                _ => {
                    // A whole character: the text is a `str`, so `c` starts
                    // a valid UTF-8 sequence.
                    let start = self.pos - 1;
                    let len = utf8_len(c);
                    out.push_str(&self.text[start..start + len]);
                    self.pos = start + len;
                }
            }
        }
    }

    /// Reads exactly four hex digits (the payload of a `\u` escape).
    /// `from_str_radix` alone would also accept a leading `+`.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok());
        let Some(code) = code else {
            return self.err("invalid \\u escape");
        };
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        let negative = self.byte() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Accumulate the integer while scanning: a plain run of digits
        // that fits a u64 needs no second look.
        let digits = self.pos;
        let mut exact = Some(0u64);
        while let Some(c) = self.byte().filter(u8::is_ascii_digit) {
            exact = exact
                .and_then(|v| v.checked_mul(10))
                .and_then(|v| v.checked_add(u64::from(c - b'0')));
            self.pos += 1;
        }
        let mut is_float = false;
        if self.byte() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.byte(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.byte(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if !is_float && !negative && self.pos > digits {
            if let Some(v) = exact {
                return Ok(Value::UInt(v));
            }
        }
        // Negative, fractional, exponent form, or past u64::MAX.
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(v) => Ok(Value::Float(v)),
            Err(_) => self.err(format!("invalid number '{text}'")),
        }
    }

    /// Decodes the task set at the cursor, reading its bytes once: every
    /// task's WCETs and edges go straight into a [`DagBuilder`], with no
    /// intermediate tree. Gives the answer [`task_set_from_value`] gives
    /// for the same text; unknown members are skipped but must be
    /// well-formed.
    ///
    /// # Errors
    ///
    /// The outer `Result` carries syntax errors, the [`Decoded`] one schema,
    /// version and model errors (see [`Decoded`]).
    pub fn task_set(&mut self) -> Result<Decoded<TaskSet>, JsonError> {
        if self.peek() != Some(b'{') {
            self.value()?;
            return Ok(Err(schema("a task set must be a JSON object")));
        }
        let (mut version, mut tasks) = (None, None);
        if self.begin_object()? {
            loop {
                match &*self.key()? {
                    "version" => version = Some(self.value()?),
                    "tasks" => tasks = Some(self.tasks()?),
                    _ => drop(self.value()?),
                }
                if !self.next_member()? {
                    break;
                }
            }
        }
        Ok(task_set_from_members(version, tasks.flatten()))
    }

    /// The `"tasks"` member: `None` when it is not an array, else the tasks
    /// or the first task's error.
    fn tasks(&mut self) -> Result<Option<Decoded<Vec<DagTask>>>, JsonError> {
        if self.peek() != Some(b'[') {
            self.value()?;
            return Ok(None);
        }
        let mut tasks = Ok(Vec::new());
        if self.begin_array()? {
            loop {
                match &mut tasks {
                    Ok(list) => match self.task()? {
                        Ok(task) => list.push(task),
                        Err(e) => tasks = Err(e),
                    },
                    Err(_) => drop(self.value()?),
                }
                if !self.next_element()? {
                    break;
                }
            }
        }
        Ok(Some(tasks))
    }

    fn task(&mut self) -> Result<Decoded<DagTask>, JsonError> {
        if self.peek() != Some(b'{') {
            self.value()?;
            return Ok(Err(schema("a task must be an object")));
        }
        let (mut period, mut deadline, mut dag, mut name) = (None, None, None, None);
        if self.begin_object()? {
            loop {
                match &*self.key()? {
                    "period" => period = Some(self.value()?),
                    "deadline" => deadline = Some(self.value()?),
                    "dag" => dag = Some(self.dag()?),
                    "name" => name = Some(self.value()?),
                    _ => drop(self.value()?),
                }
                if !self.next_member()? {
                    break;
                }
            }
        }
        Ok(task_from_members(period, deadline, dag, name))
    }

    fn dag(&mut self) -> Result<Decoded<Dag>, JsonError> {
        if self.peek() != Some(b'{') {
            self.value()?;
            return Ok(Err(schema("\"dag\" must be an object")));
        }
        // `None` while the member is missing or not an array, else its
        // first bad element, if any.
        let (mut wcets, mut edges) = (None, None);
        let mut builder = DagBuilder::new();
        if self.begin_object()? {
            loop {
                match &*self.key()? {
                    "wcets" => {
                        builder = DagBuilder::new();
                        wcets = self.wcets(&mut builder)?;
                    }
                    "edges" => edges = self.edges()?,
                    _ => drop(self.value()?),
                }
                if !self.next_member()? {
                    break;
                }
            }
        }
        Ok(dag_from_members(builder, wcets, edges, &self.pairs))
    }

    /// The `"wcets"` member, added to `builder` as it is read.
    fn wcets(&mut self, builder: &mut DagBuilder) -> Result<Option<Decoded<()>>, JsonError> {
        if self.peek() != Some(b'[') {
            self.value()?;
            return Ok(None);
        }
        let mut read = Ok(());
        if self.begin_array()? {
            loop {
                let wcet = self.value()?;
                if read.is_ok() {
                    read = as_u64(&wcet, "a WCET").map(|w| {
                        builder.add_node(w);
                    });
                }
                if !self.next_element()? {
                    break;
                }
            }
        }
        Ok(Some(read))
    }

    /// The `"edges"` member, kept in `self.pairs` up to its first bad edge.
    fn edges(&mut self) -> Result<Option<Decoded<()>>, JsonError> {
        self.pairs.clear();
        if self.peek() != Some(b'[') {
            self.value()?;
            return Ok(None);
        }
        let mut read = Ok(());
        if self.begin_array()? {
            loop {
                let edge = self.edge()?;
                if read.is_ok() {
                    read = edge.map(|pair| self.pairs.push(pair));
                }
                if !self.next_element()? {
                    break;
                }
            }
        }
        Ok(Some(read))
    }

    fn edge(&mut self) -> Result<Decoded<(u64, u64)>, JsonError> {
        let not_a_pair = || schema("an edge must be a [from, to] pair");
        if self.peek() != Some(b'[') {
            self.value()?;
            return Ok(Err(not_a_pair()));
        }
        let mut ends = [Value::Null, Value::Null];
        let mut len = 0;
        if self.begin_array()? {
            loop {
                let end = self.value()?;
                if let Some(slot) = ends.get_mut(len) {
                    *slot = end;
                }
                len += 1;
                if !self.next_element()? {
                    break;
                }
            }
        }
        if len != 2 {
            return Ok(Err(not_a_pair()));
        }
        Ok(as_u64(&ends[0], "an edge endpoint")
            .and_then(|from| Ok((from, as_u64(&ends[1], "an edge endpoint")?))))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Parses one complete JSON document into a [`Value`] tree.
///
/// # Errors
///
/// Returns [`JsonError::Syntax`] when the text is not well-formed JSON,
/// nests deeper than [`MAX_DEPTH`], or has trailing characters after the
/// document.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut reader = Reader::new(text);
    let value = reader.value()?;
    reader.finish()?;
    Ok(value)
}

fn schema(message: &str) -> JsonError {
    JsonError::Schema(message.into())
}

fn as_u64(value: &Value, what: &str) -> Result<u64, JsonError> {
    match value {
        Value::UInt(v) => Ok(*v),
        _ => Err(JsonError::Schema(format!(
            "{what} must be a non-negative integer, got {value:?}"
        ))),
    }
}

/// The task set a decoded object's members map to, checked in
/// [`task_set_from_value`]'s order whatever the document's.
fn task_set_from_members(
    version: Option<Value>,
    tasks: Option<Decoded<Vec<DagTask>>>,
) -> Decoded<TaskSet> {
    match version {
        None | Some(Value::UInt(TASK_SET_SCHEMA_VERSION)) => {}
        Some(Value::UInt(found)) => {
            return Err(JsonError::UnknownVersion {
                found,
                supported: TASK_SET_SCHEMA_VERSION,
            });
        }
        Some(other) => {
            return Err(JsonError::Schema(format!(
                "\"version\" must be a non-negative integer, got {other:?}"
            )));
        }
    }
    let tasks = tasks.ok_or_else(|| schema("\"tasks\" must be an array"))?;
    Ok(TaskSet::new(tasks?))
}

/// The task a decoded object's members map to, checked in
/// `task_from_value`'s order.
fn task_from_members(
    period: Option<Value>,
    deadline: Option<Value>,
    dag: Option<Decoded<Dag>>,
    name: Option<Value>,
) -> Decoded<DagTask> {
    let period = period.ok_or_else(|| schema("task is missing \"period\""))?;
    let period = as_u64(&period, "\"period\"")?;
    let deadline = deadline.ok_or_else(|| schema("task is missing \"deadline\""))?;
    let deadline = as_u64(&deadline, "\"deadline\"")?;
    let dag = dag.ok_or_else(|| schema("task is missing \"dag\""))??;
    let task = DagTask::new(dag, period, deadline)?;
    match name {
        None | Some(Value::Null) => Ok(task),
        Some(Value::Str(name)) => Ok(task.named(name)),
        Some(other) => Err(JsonError::Schema(format!(
            "\"name\" must be a string, got {other:?}"
        ))),
    }
}

/// The DAG a decoded object's members map to, checked in
/// `dag_from_value`'s order: `builder` holds the WCETs, `pairs` the edges
/// up to the first malformed one.
fn dag_from_members(
    mut builder: DagBuilder,
    wcets: Option<Decoded<()>>,
    edges: Option<Decoded<()>>,
    pairs: &[(u64, u64)],
) -> Decoded<Dag> {
    let wcets = wcets.ok_or_else(|| schema("\"dag.wcets\" must be an array"))?;
    let edges = edges.ok_or_else(|| schema("\"dag.edges\" must be an array"))?;
    wcets?;
    let n = builder.node_count();
    for &(from, to) in pairs {
        if from >= n as u64 || to >= n as u64 {
            return Err(JsonError::Schema(format!(
                "edge [{from}, {to}] references a node out of range (|V| = {n})"
            )));
        }
        builder.add_edge(NodeId::new(from as usize), NodeId::new(to as usize))?;
    }
    edges?;
    Ok(builder.build()?)
}

/// Parses one task from JSON (the format of [`task_to_json`]), in one pass.
///
/// # Errors
///
/// Returns [`JsonError`] for malformed JSON, schema mismatches, or inputs
/// rejected by the model constructors.
pub fn task_from_json(text: &str) -> Result<DagTask, JsonError> {
    let mut reader = Reader::new(text);
    let task = reader.task()?;
    reader.finish()?;
    task
}

/// Parses a task set from JSON (the format of [`task_set_to_json`]), in one
/// pass: [`Reader::task_set`] over the whole text.
///
/// # Errors
///
/// Returns [`JsonError`] for malformed JSON, schema mismatches, unknown
/// schema versions, or inputs rejected by the model constructors.
pub fn task_set_from_json(text: &str) -> Result<TaskSet, JsonError> {
    let mut reader = Reader::new(text);
    let task_set = reader.task_set()?;
    reader.finish()?;
    task_set
}

// ---------------------------------------------------------------------------
// Schema mapping of a Value tree: the decoders' test reference
// ---------------------------------------------------------------------------

fn dag_from_value(value: &Value) -> Result<Dag, JsonError> {
    let Value::Object(obj) = value else {
        return Err(JsonError::Schema("\"dag\" must be an object".into()));
    };
    let Some(Value::Array(wcets)) = obj.get("wcets") else {
        return Err(JsonError::Schema("\"dag.wcets\" must be an array".into()));
    };
    let Some(Value::Array(edges)) = obj.get("edges") else {
        return Err(JsonError::Schema("\"dag.edges\" must be an array".into()));
    };
    let mut builder = DagBuilder::new();
    let nodes: Vec<NodeId> = wcets
        .iter()
        .map(|w| as_u64(w, "a WCET").map(|w| builder.add_node(w)))
        .collect::<Result<_, _>>()?;
    for edge in edges {
        let Value::Array(pair) = edge else {
            return Err(JsonError::Schema(
                "an edge must be a [from, to] pair".into(),
            ));
        };
        let [from, to] = pair.as_slice() else {
            return Err(JsonError::Schema(
                "an edge must be a [from, to] pair".into(),
            ));
        };
        let from = as_u64(from, "an edge endpoint")? as usize;
        let to = as_u64(to, "an edge endpoint")? as usize;
        if from >= nodes.len() || to >= nodes.len() {
            return Err(JsonError::Schema(format!(
                "edge [{from}, {to}] references a node out of range (|V| = {})",
                nodes.len()
            )));
        }
        builder.add_edge(nodes[from], nodes[to])?;
    }
    Ok(builder.build()?)
}

fn task_from_value(value: &Value) -> Result<DagTask, JsonError> {
    let Value::Object(obj) = value else {
        return Err(JsonError::Schema("a task must be an object".into()));
    };
    let period = as_u64(
        obj.get("period")
            .ok_or_else(|| JsonError::Schema("task is missing \"period\"".into()))?,
        "\"period\"",
    )?;
    let deadline = as_u64(
        obj.get("deadline")
            .ok_or_else(|| JsonError::Schema("task is missing \"deadline\"".into()))?,
        "\"deadline\"",
    )?;
    let dag = dag_from_value(
        obj.get("dag")
            .ok_or_else(|| JsonError::Schema("task is missing \"dag\"".into()))?,
    )?;
    let task = DagTask::new(dag, period, deadline)?;
    match obj.get("name") {
        None | Some(Value::Null) => Ok(task),
        Some(Value::Str(name)) => Ok(task.named(name.clone())),
        Some(other) => Err(JsonError::Schema(format!(
            "\"name\" must be a string, got {other:?}"
        ))),
    }
}

/// Maps an already-parsed [`Value`] to a task set, enforcing the schema
/// version: a missing `"version"` reads as the legacy version 1, a declared
/// version must equal [`TASK_SET_SCHEMA_VERSION`].
///
/// # Errors
///
/// Returns [`JsonError`] for schema mismatches, unknown schema versions, or
/// inputs rejected by the model constructors.
pub fn task_set_from_value(value: &Value) -> Result<TaskSet, JsonError> {
    let Value::Object(obj) = value else {
        return Err(JsonError::Schema("a task set must be a JSON object".into()));
    };
    match obj.get("version") {
        None => {} // version-less legacy payload: version 1
        Some(Value::UInt(v)) if *v == TASK_SET_SCHEMA_VERSION => {}
        Some(Value::UInt(v)) => {
            return Err(JsonError::UnknownVersion {
                found: *v,
                supported: TASK_SET_SCHEMA_VERSION,
            });
        }
        Some(other) => {
            return Err(JsonError::Schema(format!(
                "\"version\" must be a non-negative integer, got {other:?}"
            )));
        }
    }
    let Some(Value::Array(tasks)) = obj.get("tasks") else {
        return Err(JsonError::Schema("\"tasks\" must be an array".into()));
    };
    Ok(TaskSet::new(
        tasks
            .iter()
            .map(task_from_value)
            .collect::<Result<_, _>>()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DagBuilder;

    fn fork_join() -> DagTask {
        let mut b = DagBuilder::new();
        let v1 = b.add_node(2);
        let v2 = b.add_node(6);
        let v3 = b.add_node(4);
        let v4 = b.add_node(1);
        b.add_edge(v1, v2).unwrap();
        b.add_edge(v1, v3).unwrap();
        b.add_edge(v2, v4).unwrap();
        b.add_edge(v3, v4).unwrap();
        DagTask::new(b.build().unwrap(), 40, 32).unwrap()
    }

    #[test]
    fn task_round_trip_unnamed_and_named() {
        let task = fork_join();
        assert_eq!(task_from_json(&task_to_json(&task)).unwrap(), task);
        let named = fork_join().named("vidéo \"main\"\n");
        assert_eq!(task_from_json(&task_to_json(&named)).unwrap(), named);
    }

    #[test]
    fn task_set_round_trip() {
        let ts = TaskSet::new(vec![fork_join().named("a"), fork_join()]);
        let json = task_set_to_json(&ts);
        assert_eq!(task_set_from_json(&json).unwrap(), ts);
        let empty = TaskSet::new(vec![]);
        assert_eq!(
            task_set_from_json(&task_set_to_json(&empty)).unwrap(),
            empty
        );
    }

    #[test]
    fn whitespace_and_key_order_are_insignificant() {
        let text = r#"{ "dag": {"edges": [], "wcets": [5]}, "deadline": 3, "period": 9 }"#;
        let task = task_from_json(text).unwrap();
        assert_eq!(task.period(), 9);
        assert_eq!(task.deadline(), 3);
        assert_eq!(task.dag().volume(), 5);
    }

    #[test]
    fn syntax_errors_are_reported_with_offset() {
        let err = task_from_json("{\"period\": }").unwrap_err();
        assert!(matches!(err, JsonError::Syntax { .. }), "{err:?}");
    }

    #[test]
    fn schema_errors_name_the_field() {
        let err =
            task_from_json(r#"{"deadline": 3, "dag": {"wcets": [], "edges": []}}"#).unwrap_err();
        assert_eq!(err, JsonError::Schema("task is missing \"period\"".into()));
        let err = task_from_json(
            r#"{"period": 5, "deadline": 3, "dag": {"wcets": [1], "edges": [[0, 7]]}}"#,
        )
        .unwrap_err();
        assert!(matches!(err, JsonError::Schema(_)), "{err:?}");
    }

    #[test]
    fn model_violations_surface_as_model_errors() {
        let err =
            task_from_json(r#"{"period": 5, "deadline": 9, "dag": {"wcets": [1], "edges": []}}"#)
                .unwrap_err();
        assert_eq!(
            err,
            JsonError::Model(ModelError::DeadlineExceedsPeriod {
                deadline: 9,
                period: 5
            })
        );
    }

    #[test]
    fn surrogate_pairs_decode_and_unpaired_halves_are_rejected() {
        // What an ensure_ascii JSON writer emits for a name with 😀.
        let ok = task_from_json(
            "{\"name\": \"\\ud83d\\ude00\", \"period\": 5, \"deadline\": 3, \
             \"dag\": {\"wcets\": [1], \"edges\": []}}",
        )
        .unwrap();
        assert_eq!(ok.name(), Some("😀"));
        for bad in [
            "\"\\ud83d\"",
            "\"\\ud83dx\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ude00\"",
        ] {
            let doc = format!(
                "{{\"name\": {bad}, \"period\": 5, \"deadline\": 3, \
                 \"dag\": {{\"wcets\": [1], \"edges\": []}}}}"
            );
            let err = task_from_json(&doc).unwrap_err();
            assert!(matches!(err, JsonError::Syntax { .. }), "{bad}: {err:?}");
        }
    }

    #[test]
    fn unicode_escape_requires_four_hex_digits() {
        // from_str_radix would accept "+041"; the parser must not.
        let err = task_from_json(
            "{\"name\": \"\\u+041\", \"period\": 5, \"deadline\": 3, \
             \"dag\": {\"wcets\": [1], \"edges\": []}}",
        )
        .unwrap_err();
        assert!(matches!(err, JsonError::Syntax { .. }), "{err:?}");
        let ok = task_from_json(
            "{\"name\": \"\\u0041\", \"period\": 5, \"deadline\": 3, \
             \"dag\": {\"wcets\": [1], \"edges\": []}}",
        )
        .unwrap();
        assert_eq!(ok.name(), Some("A"));
    }

    #[test]
    fn floats_rejected_where_integers_required() {
        let err =
            task_from_json(r#"{"period": 5.5, "deadline": 3, "dag": {"wcets": [1], "edges": []}}"#)
                .unwrap_err();
        assert!(matches!(err, JsonError::Schema(_)), "{err:?}");
    }

    #[test]
    fn task_set_payloads_are_version_stamped() {
        let ts = TaskSet::new(vec![fork_join()]);
        let json = task_set_to_json(&ts);
        assert!(json.contains("\"version\": 1"), "{json}");
        assert_eq!(task_set_from_json(&json).unwrap(), ts);
    }

    #[test]
    fn version_less_legacy_payloads_still_parse() {
        let legacy =
            r#"{"tasks": [{"period": 5, "deadline": 3, "dag": {"wcets": [1], "edges": []}}]}"#;
        assert_eq!(task_set_from_json(legacy).unwrap().len(), 1);
    }

    #[test]
    fn unknown_versions_are_rejected_with_a_structured_error() {
        let future = r#"{"version": 2, "tasks": []}"#;
        assert_eq!(
            task_set_from_json(future).unwrap_err(),
            JsonError::UnknownVersion {
                found: 2,
                supported: TASK_SET_SCHEMA_VERSION
            }
        );
        // Non-integer versions are a schema error, not a panic.
        for bad in [
            r#"{"version": "1", "tasks": []}"#,
            r#"{"version": -1, "tasks": []}"#,
        ] {
            let err = task_set_from_json(bad).unwrap_err();
            assert!(matches!(err, JsonError::Schema(_)), "{bad}: {err:?}");
        }
    }

    #[test]
    fn compact_writers_are_single_line_and_round_trip() {
        let ts = TaskSet::new(vec![fork_join().named("a \"b\"\n"), fork_join()]);
        let compact = task_set_to_json_compact(&ts);
        assert!(!compact.contains('\n'), "{compact}");
        assert!(compact.starts_with("{\"version\":1,"), "{compact}");
        assert_eq!(task_set_from_json(&compact).unwrap(), ts);
        // Compact and pretty forms parse to the same model value.
        assert_eq!(
            task_set_from_json(&task_set_to_json(&ts)).unwrap(),
            task_set_from_json(&compact).unwrap()
        );
    }

    #[test]
    fn numbers_and_escaped_keys_read_as_the_tree_reader_always_has() {
        for (text, value) in [
            ("007", Value::UInt(7)),
            ("18446744073709551615", Value::UInt(u64::MAX)),
            ("18446744073709551616", Value::Float(18446744073709551616.0)),
            ("1.", Value::Float(1.0)),
            ("2e3", Value::Float(2000.0)),
            ("-0", Value::Float(-0.0)),
            ("-3", Value::Float(-3.0)),
        ] {
            assert_eq!(parse(text), Ok(value), "{text}");
        }
        assert!(matches!(parse("-"), Err(JsonError::Syntax { .. })));
        let err =
            task_from_json(r#"{"period": 9, "deadline": 9, "dag": {"wcets": [-3], "edges": []}}"#)
                .unwrap_err();
        assert_eq!(
            err,
            JsonError::Schema("a WCET must be a non-negative integer, got Float(-3.0)".into())
        );
        // Keys are compared after unescaping.
        let task = task_from_json(
            r#"{"p\u0065riod": 9, "deadline": 9, "dag": {"wcets": [1], "edges": []}}"#,
        )
        .unwrap();
        assert_eq!(task.period(), 9);
    }

    #[test]
    fn nesting_past_max_depth_is_a_syntax_error_not_a_stack_overflow() {
        // On a spawned thread's default stack, like a server connection's.
        let deep = std::thread::spawn(|| parse(&"[".repeat(100_000)))
            .join()
            .expect("the reader returns instead of overflowing its stack");
        assert_eq!(
            deep,
            Err(JsonError::Syntax {
                offset: MAX_DEPTH,
                message: format!("containers nest deeper than {MAX_DEPTH} levels"),
            })
        );
        let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(matches!(
            parse(&nested(MAX_DEPTH + 1)),
            Err(JsonError::Syntax {
                offset: MAX_DEPTH,
                ..
            })
        ));
        // The decoders skip unknown members through the same bound: inside
        // an object, the array MAX_DEPTH levels down is one too deep.
        let text = format!("{{\"tasks\": [], \"x\": {}}}", nested(MAX_DEPTH));
        let first = text.find(": [[").expect("the nested member") + 2;
        assert!(matches!(
            task_set_from_json(&text),
            Err(JsonError::Syntax { offset, .. }) if offset == first + MAX_DEPTH - 1
        ));
    }

    #[test]
    fn envelope_parsing_through_the_public_value_layer() {
        let doc = parse(r#"{"cores": 4, "bounds": true, "task_set": {"version": 1, "tasks": []}}"#)
            .unwrap();
        assert_eq!(doc.get("cores").and_then(Value::as_u64), Some(4));
        assert_eq!(doc.get("bounds").and_then(Value::as_bool), Some(true));
        let ts = task_set_from_value(doc.get("task_set").unwrap()).unwrap();
        assert!(ts.is_empty());
        assert!(doc.get("missing").is_none());
    }
}
