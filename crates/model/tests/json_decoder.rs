//! The one-pass task-set decoder against its reference: for every text,
//! `json::task_set_from_json` gives what `json::parse` followed by
//! `json::task_set_from_value` gives, errors included.

mod noise;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rta_model::json::{
    parse, task_set_from_json, task_set_from_value, task_set_to_json, task_set_to_json_compact,
};
use rta_model::TaskSet;
use rta_taskgen::{generate_task_set, group1, group2};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_pass_decoder_matches_the_value_tree_reference(seed in any::<u64>()) {
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
        for text in &texts {
            let reference = parse(text).and_then(|tree| task_set_from_value(&tree));
            prop_assert_eq!(task_set_from_json(text), reference, "{}", text);
        }
        prop_assert_eq!(task_set_from_json(&compact), Ok(task_set));
    }
}
