//! Seeded JSON noise for the differential tests of the one-pass decoders
//! (this crate's `json_decoder` suite and `repro serve`'s frame decoder,
//! which includes this file): it renders a [`Value`] tree as text with the
//! variations a decoder must read exactly as the tree reader does, then
//! optionally damages the bytes.

use rand::rngs::SmallRng;
use rand::Rng;
use rta_model::json::Value;
use std::fmt::Write as _;

/// Renders `value` as JSON text with seeded noise: extra whitespace,
/// shuffled, duplicated and unknown keys, string escapes, and integers
/// rewritten as `u64::MAX`, `u64::MAX + 1`, negatives, fractions, exponents
/// or leading zeros. `rate` is the percent chance of each variation.
pub fn render(value: &Value, rate: u32, rng: &mut SmallRng) -> String {
    let mut out = String::new();
    render_into(&mut out, value, rate, rng);
    out
}

fn chance(rate: u32, rng: &mut SmallRng) -> bool {
    rng.gen_range(0..100u32) < rate
}

fn whitespace(out: &mut String, rate: u32, rng: &mut SmallRng) {
    while chance(rate, rng) {
        out.push([' ', '\n', '\t', '\r'][rng.gen_range(0..4usize)]);
    }
}

fn render_into(out: &mut String, value: &Value, rate: u32, rng: &mut SmallRng) {
    whitespace(out, rate, rng);
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(v) if chance(rate, rng) => {
            let text = match rng.gen_range(0..9u32) {
                0 => u64::MAX.to_string(),
                1 => "18446744073709551616".to_string(),
                2 => format!("-{v}"),
                3 => format!("{v}.5"),
                4 => format!("{v}e0"),
                5 => format!("{v}E+2"),
                6 => format!("00{v}"),
                7 => format!("{v}."),
                _ => format!("{v}.0e-1"),
            };
            out.push_str(&text);
        }
        Value::UInt(v) => {
            let _ = write!(out, "{v}");
        }
        Value::Float(f) => {
            let _ = write!(out, "{f:?}");
        }
        Value::Str(s) => string_into(out, s, rate, rng),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(out, item, rate, rng);
            }
            whitespace(out, rate, rng);
            out.push(']');
        }
        Value::Object(map) => {
            let mut members: Vec<(&str, Value)> =
                map.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
            if chance(rate, rng) {
                // Fisher-Yates: any member order.
                for i in (1..members.len()).rev() {
                    members.swap(i, rng.gen_range(0..=i));
                }
            }
            while !members.is_empty() && chance(rate, rng) {
                // A duplicate before the member (the member still wins) or
                // after it (the duplicate wins).
                let i = rng.gen_range(0..members.len());
                let duplicate = (members[i].0, junk(rng));
                let at = if rng.gen_range(0..2u32) == 0 {
                    i
                } else {
                    i + 1
                };
                members.insert(at, duplicate);
            }
            if chance(rate, rng) {
                let at = rng.gen_range(0..=members.len());
                members.insert(at, ("unknown", junk(rng)));
            }
            out.push('{');
            for (i, (key, value)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                whitespace(out, rate, rng);
                string_into(out, key, rate, rng);
                whitespace(out, rate, rng);
                out.push(':');
                render_into(out, value, rate, rng);
            }
            whitespace(out, rate, rng);
            out.push('}');
        }
    }
    whitespace(out, rate, rng);
}

/// A member value a decoder must skip or reject: scalars, containers, and
/// arrays nested around [`rta_model::json::MAX_DEPTH`].
fn junk(rng: &mut SmallRng) -> Value {
    match rng.gen_range(0..9u32) {
        0 => Value::Null,
        1 => Value::Bool(true),
        2 => Value::Str("τ \"x\"".into()),
        3 => Value::UInt(rng.gen_range(0..3u64)),
        4 => Value::Float(-1.5),
        5 => Value::Array(vec![Value::UInt(0), Value::UInt(1)]),
        6 => Value::Array(vec![]),
        7 => Value::Object([("a".to_string(), Value::Array(vec![]))].into()),
        _ => (0..rng.gen_range(120..136usize))
            .fold(Value::UInt(1), |inner, _| Value::Array(vec![inner])),
    }
}

fn string_into(out: &mut String, s: &str, rate: u32, rng: &mut SmallRng) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            '/' if chance(rate, rng) => out.push_str("\\/"),
            c if chance(rate, rng) => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    let _ = write!(out, "\\u{unit:04X}");
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Damages `text` the way a hostile or broken client might: a truncation,
/// or a few overwritten or inserted bytes (or none, one time in four).
/// The bytes are read back as the server reads a frame, through
/// `String::from_utf8_lossy`.
pub fn damage(text: &str, rng: &mut SmallRng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    // Bytes that matter to a JSON reader, and one that is never UTF-8.
    const SPICE: &[u8] = b"{}[]\",:0-.e \\u\xff";
    match rng.gen_range(0..4u32) {
        0 => {}
        1 => bytes.truncate(rng.gen_range(0..=bytes.len())),
        _ => {
            for _ in 0..rng.gen_range(1..4u32) {
                let at = rng.gen_range(0..=bytes.len());
                let byte = if rng.gen_range(0..4u32) == 0 {
                    rng.gen_range(0..=255u8)
                } else {
                    SPICE[rng.gen_range(0..SPICE.len())]
                };
                if at < bytes.len() && rng.gen_range(0..2u32) == 0 {
                    bytes[at] = byte;
                } else {
                    bytes.insert(at, byte);
                }
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}
