//! Known answers: the pinned answer of every item, from `pins.txt`.
//!
//! Each non-comment line is `<item id> <answer>`, where the answer is the
//! canonical rendering an item run produces (`outputs=… end_states=…
//! explore_calls=…` for explore items, `verdict=… fingerprint=…` for store
//! items). `--print-pins` prints fresh lines in this format.

use std::collections::HashMap;

/// The pinned answers, by item id.
#[derive(Debug)]
pub struct Pins(HashMap<String, String>);

/// The pin file compiled into the benchmark.
const PINS: &str = include_str!("../pins.txt");

impl Pins {
    /// The compiled-in pins.
    pub fn load() -> Result<Pins, String> {
        Pins::parse(PINS)
    }

    fn parse(text: &str) -> Result<Pins, String> {
        let mut map = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (id, answer) = line
                .split_once(' ')
                .ok_or_else(|| format!("pins.txt:{}: expected `<id> <answer>`", n + 1))?;
            if map
                .insert(id.to_owned(), answer.trim().to_owned())
                .is_some()
            {
                return Err(format!("pins.txt:{}: item {id} pinned twice", n + 1));
            }
        }
        Ok(Pins(map))
    }

    /// The pinned answer of an item.
    pub fn get(&self, id: &str) -> Option<&str> {
        self.0.get(id).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use crate::workload::{setup, Workload};

    #[test]
    fn every_item_is_pinned() {
        let pins = Pins::load().expect("pins.txt parses");
        for w in Workload::ALL {
            for item in setup(w, &mut Tracer::new()) {
                assert!(pins.get(&item.id).is_some(), "{} is pinned", item.id);
            }
        }
    }

    #[test]
    fn malformed_pins_are_rejected() {
        assert!(Pins::parse("no-answer-here").is_err());
        assert!(Pins::parse("a x=1\na x=2").is_err());
        let p = Pins::parse("# comment\n\na x=1 y=2\n").expect("parses");
        assert_eq!(p.get("a"), Some("x=1 y=2"));
    }

    /// The value of `"key":<number>` in one flat JSON object.
    fn field(row: &str, key: &str) -> u64 {
        let at = row.find(&format!("\"{key}\":")).expect("field present") + key.len() + 3;
        row[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("numeric field")
    }

    /// The tpcc-1/-2 explore pins agree with the rows the repository's
    /// fig14 baseline recorded for the same programs and algorithms.
    #[test]
    fn explore_pins_match_the_fig14_baseline() {
        let baseline =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_fig14.json"))
                .expect("BENCH_fig14.json is readable");
        let pins = Pins::load().expect("pins.txt parses");
        let algos = [
            ("CC", "CC"),
            ("RA+CC", "RA + CC"),
            ("CC+PC", "CC + PC"),
            ("CC+SI", "CC + SI"),
            ("CC+SER", "CC + SER"),
            ("CC+mix:tpcc:pay-ser", "CC + mix:tpcc:pay-ser"),
        ];
        let mut compared = 0;
        for seed in [1, 2] {
            for (ours, fig14) in algos {
                let row = baseline
                    .split("},{")
                    .find(|r| {
                        r.contains(&format!("\"benchmark\":\"tpcc-{seed}\""))
                            && r.contains(&format!("\"algorithm\":\"{fig14}\""))
                    })
                    .expect("baseline row present");
                let expected = format!(
                    "outputs={} end_states={} explore_calls={}",
                    field(row, "histories"),
                    field(row, "end_states"),
                    field(row, "explore_calls")
                );
                let id = format!("tpcc-{seed}/3x3/{ours}");
                assert_eq!(pins.get(&id), Some(expected.as_str()), "{id}");
                compared += 1;
            }
        }
        assert_eq!(compared, 12);
    }
}
