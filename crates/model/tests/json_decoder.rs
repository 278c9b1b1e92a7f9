//! The one-pass readers against their references: for every text,
//! `json::task_set_from_json` gives what `json::parse` followed by
//! `json::task_set_from_value` gives, errors included, and
//! `Reader::skip_value` accepts what `Reader::value` reads, ends where it
//! ends and fails as it fails.

mod noise;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rta_model::json::{
    parse, task_set_from_json, task_set_from_value, task_set_to_json, task_set_to_json_compact,
    JsonError, Reader, Value, MAX_DEPTH,
};
use rta_model::TaskSet;
use rta_taskgen::{generate_task_set, group1, group2};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A generated group-1 or group-2 set at a random utilization, every other
/// task named (names need escapes).
fn generated_set(rng: &mut SmallRng) -> TaskSet {
    let utilization = rng.gen_range(1.0..8.0);
    let config = if rng.gen_range(0..2u32) == 0 {
        group1(utilization)
    } else {
        group2(utilization)
    };
    generate_task_set(rng, &config)
        .into_iter()
        .enumerate()
        .map(|(i, task)| {
            if i % 2 == 0 {
                task.named(format!("τ{i} \"main\"/\n"))
            } else {
                task
            }
        })
        .collect()
}

/// A generated set, its compact text, and four texts drawn around it:
/// damaged compact and pretty forms, and a noise-rendered form, damaged
/// and whole.
fn texts(seed: u64) -> (TaskSet, String, [String; 4]) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let task_set = generated_set(&mut rng);
    let compact = task_set_to_json_compact(&task_set);
    let tree = parse(&compact).expect("the compact writer's output parses");
    let rate = rng.gen_range(0..30u32);
    let noisy = noise::render(&tree, rate, &mut rng);
    let texts = [
        noise::damage(&compact, &mut rng),
        noise::damage(&task_set_to_json(&task_set), &mut rng),
        noise::damage(&noisy, &mut rng),
        noisy,
    ];
    (task_set, compact, texts)
}

/// The next value, through `skip_value` (parsed back from the text it
/// returns) or through `value`.
fn read(reader: &mut Reader<'_>, skip: bool) -> Result<Value, JsonError> {
    if skip {
        let text = reader.skip_value()?;
        Ok(parse(text).expect("a skipped value's text parses"))
    } else {
        reader.value()
    }
}

/// The value `text` holds, and what `finish` says after it.
fn read_whole(text: &str, skip: bool) -> (Result<Value, JsonError>, Result<(), JsonError>) {
    let mut reader = Reader::new(text);
    let value = read(&mut reader, skip);
    (value, reader.finish())
}

/// The members of the object `text` holds, each value read one level
/// down (with one level less of nesting room), up to the first error.
fn read_members(text: &str, skip: bool) -> Result<Vec<(String, Value)>, JsonError> {
    let mut reader = Reader::new(text);
    let mut members = Vec::new();
    if reader.begin_object()? {
        loop {
            let key = reader.key()?.into_owned();
            members.push((key, read(&mut reader, skip)?));
            if !reader.next_member()? {
                break;
            }
        }
    }
    reader.finish()?;
    Ok(members)
}

fn assert_skip_reads_as_value(text: &str) {
    assert_eq!(read_whole(text, true), read_whole(text, false), "{text}");
    assert_eq!(
        read_members(text, true),
        read_members(text, false),
        "{text}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_pass_decoder_matches_the_value_tree_reference(seed in any::<u64>()) {
        let (task_set, compact, texts) = texts(seed);
        for text in &texts {
            let reference = parse(text).and_then(|tree| task_set_from_value(&tree));
            prop_assert_eq!(task_set_from_json(text), reference, "{}", text);
        }
        prop_assert_eq!(task_set_from_json(&compact), Ok(task_set));
    }

    #[test]
    fn skip_value_reads_as_value_does(seed in any::<u64>()) {
        let (_, compact, texts) = texts(seed);
        assert_skip_reads_as_value(&compact);
        for text in &texts {
            assert_skip_reads_as_value(text);
        }
    }
}

#[test]
fn texts_off_the_flat_pass_read_as_value_reads_them() {
    let nested = |levels: usize, bottom: &str| {
        format!("{}{bottom}{}", "[".repeat(levels), "]".repeat(levels))
    };
    let mut texts: Vec<String> = [
        r#"{"name":"a \"b\"","period":5}"#,
        r#"{"n\u0061me":"\u00e9\/","x":[1,{"y":"\n"}]}"#,
        "[-1, 2]",
        "[1.5, 2]",
        "{\"a\": 2e3}",
        "[1.]",
        "[18446744073709551615, 18446744073709551616]",
        "007",
        "[007, 1]",
        "[1 2]",
        "{\"a\":1,}",
        "[\"\u{1}\"]",
        "[truex]",
        "  null  x",
        // Mismatched or missing closers and keys.
        "{\"a\":1]",
        "[1}",
        "{\"a\":[1}}",
        "[{\"a\":1]]",
        "{\"a\":1,\"b\"}",
        "{1:2}",
        "[\"a\":1]",
        "[1,]",
    ]
    .map(String::from)
    .into();
    for levels in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1] {
        for bottom in ["", "7", "\"plain\"", "\"\\n\"", "-1", "0.5"] {
            texts.push(nested(levels, bottom));
            texts.push(format!(
                "{{\"tasks\":[],\"x\":{}}}",
                nested(levels - 1, bottom)
            ));
        }
    }
    for text in &texts {
        assert_skip_reads_as_value(text);
    }
}

/// The best of five timings of `f`.
fn best_of_five<T>(f: impl Fn() -> T) -> Duration {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed()
        })
        .min()
        .expect("five timings")
}

#[test]
fn skipping_scans_a_value_at_most_twice() {
    // 120 nested arrays, each holding about 2.9 KB of plain integers ahead
    // of the next level, with an escaped string at the bottom: the flat
    // pass reads down to the escape and gives up, and the recursive reader
    // skips the whole value again. A recursive reader that retried the
    // flat pass at every level would read the text about 60 times.
    let filler = "12345678,".repeat(320);
    let mut text = String::new();
    for _ in 0..120 {
        text.push('[');
        text.push_str(&filler);
    }
    text.push_str("\"\\n\"");
    text.push_str(&"]".repeat(120));
    assert!(text.len() > 340_000);
    let skip = best_of_five(|| Reader::new(&text).skip_value().expect("well-formed"));
    let value = best_of_five(|| Reader::new(&text).value().expect("well-formed"));
    assert!(
        skip <= value * 3,
        "skipping took {skip:?}, reading the tree {value:?}"
    );
}
