//! `bench_report <id>`: the one way to run a single experiment.

use std::process::{Command, Output};

use sdrad_bench::scenarios;

fn bench_report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_report"))
        .args(args)
        .output()
        .expect("bench_report starts")
}

fn text(output: &Output) -> String {
    let mut text = String::from_utf8_lossy(&output.stdout).into_owned();
    text.push_str(&String::from_utf8_lossy(&output.stderr));
    text
}

#[test]
fn an_unknown_id_fails_and_lists_every_registered_id() {
    let output = bench_report(&["e99"]);
    assert!(!output.status.success());
    let text = text(&output);
    for scenario in scenarios::ALL {
        assert!(
            text.split_whitespace().any(|word| word == scenario.id),
            "{} missing from: {text}",
            scenario.id
        );
    }
}

#[test]
fn an_id_runs_that_scenario_at_full_size() {
    let output = bench_report(&["e14"]);
    let text = text(&output);
    assert!(output.status.success(), "{text}");
    let e14 = scenarios::find("e14").expect("e14 is registered");
    assert!(text.contains(&format!("e14: {}", e14.title)), "{text}");
    assert!(!text.contains("e13:"), "ran more than e14: {text}");
}

#[test]
fn an_id_with_check_is_refused() {
    let output = bench_report(&["e14", "--check"]);
    assert!(!output.status.success());
    assert!(!text(&output).contains("e14:"), "ran the scenario anyway");
}
