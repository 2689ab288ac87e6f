//! End-to-end integration tests spanning every crate in the workspace:
//! generator → compiler → translation validation → test generation → targets.

use gauntlet_core::{BugKind, Gauntlet, Platform, SeededBug};
use p4_gen::{GeneratorConfig, RandomProgramGenerator};
use p4_symbolic::{check_equivalence, Equivalence, EquivalenceError, ValidationSession};
use p4c::{Compiler, FrontEndBugClass};

/// Random programs compiled by the *correct* compiler must never trigger a
/// report: no crashes, no rejections, no semantic differences.  This is the
/// "false alarm" discipline the paper describes in §5.2 — a report on a
/// correct compiler would be a bug in our interpreter or validator.
#[test]
fn random_programs_produce_no_false_alarms_on_the_reference_compiler() {
    let gauntlet = Gauntlet::default();
    let compiler = Compiler::reference();
    for seed in 0..8 {
        let mut generator = RandomProgramGenerator::new(GeneratorConfig::tiny(), seed);
        let program = generator.generate();
        let outcome = gauntlet.check_open_compiler(&compiler, &program);
        let real: Vec<_> = outcome
            .reports
            .iter()
            .filter(|r| !matches!(r.kind, BugKind::InvalidTransformation))
            .collect();
        assert!(
            real.is_empty(),
            "seed {seed}: false alarm on the reference compiler: {real:#?}\n{}",
            p4_ir::print_program(&program)
        );
    }
}

/// Every Figure-5-style seeded bug class is detected by its trigger program
/// using the technique appropriate to its platform (back-end bugs go
/// through the registry-built `Target` trait objects).
#[test]
fn every_seeded_bug_class_is_detected_by_its_trigger_program() {
    let gauntlet = Gauntlet::default();
    for bug in SeededBug::catalogue() {
        let program = bug.trigger_program();
        let reports = bug.detect(&gauntlet, &program);
        assert!(
            !reports.is_empty(),
            "{} was not detected by its trigger program",
            bug.name()
        );
        // Crash classes produce crash-like reports; semantic classes produce
        // semantic reports.
        if bug.is_crash_class() {
            assert!(
                reports.iter().any(|r| r.kind.is_crash_like()),
                "{}: expected a crash-like report, got {reports:#?}",
                bug.name()
            );
        } else {
            // Miscompilations surface as semantic findings — or, for the
            // driver-corruption class only the metamorphic oracle can see,
            // as metamorphic findings.
            assert!(
                reports
                    .iter()
                    .any(|r| matches!(r.kind, BugKind::Semantic | BugKind::Metamorphic)),
                "{}: expected a miscompilation report, got {reports:#?}",
                bug.name()
            );
        }
    }
}

/// The campaign validates every pass chain through one incremental
/// [`ValidationSession`] (shared snapshots, one solver); the one-shot
/// [`check_equivalence`] re-interprets and re-solves each pair from scratch.
/// The two must reach the same verdict on every pass pair — on the
/// reference compiler and on a compiler seeded with a semantic bug, so both
/// the Equal and the NotEqual paths are compared.
#[test]
fn incremental_and_one_shot_validation_agree_on_every_pass_pair() {
    fn verdict(result: &Result<Equivalence, EquivalenceError>) -> &'static str {
        match result {
            Ok(Equivalence::Equal) => "equal",
            Ok(Equivalence::NotEqual(_)) => "not equal",
            Err(EquivalenceError::StructureMismatch { .. }) => "structure mismatch",
            Err(EquivalenceError::Interpreter(_)) => "interpreter error",
        }
    }
    let seeded = SeededBug::catalogue()
        .into_iter()
        .find(|b| b.platform() == Platform::P4c && !b.is_crash_class())
        .expect("catalogue has a P4C semantic bug");
    let mut differences = 0;
    for (compiler, extra) in [
        (Compiler::reference(), None),
        (seeded.build_compiler(), Some(seeded.trigger_program())),
    ] {
        let programs = (0..20)
            .map(|seed| RandomProgramGenerator::new(GeneratorConfig::tiny(), seed).generate())
            .chain(extra);
        for (index, program) in programs.enumerate() {
            let Ok(result) = compiler.compile(&program) else {
                continue;
            };
            let mut session = ValidationSession::new();
            for (before, after) in result.pass_pairs() {
                let one_shot = check_equivalence(&before.program, &after.program);
                let incremental = session.check_pair(&before.program, &after.program);
                assert_eq!(
                    verdict(&one_shot),
                    verdict(&incremental),
                    "program {index}, pass {}: incremental and one-shot validation disagree",
                    after.pass_name
                );
                if matches!(one_shot, Ok(Equivalence::NotEqual(_))) {
                    differences += 1;
                }
            }
        }
    }
    assert!(
        differences > 0,
        "the seeded bug must produce a NotEqual pair"
    );
}

/// Semantic bugs found by translation validation are attributed to the pass
/// that was seeded (the paper's "pinpoint the erroneous pass" property).
#[test]
fn translation_validation_pinpoints_the_seeded_pass() {
    let gauntlet = Gauntlet::default();
    let cases = [
        (
            FrontEndBugClass::DefUseDropsParameterWrites,
            "SimplifyDefUse",
        ),
        (FrontEndBugClass::ExitSkipsCopyOut, "RemoveActionParameters"),
        (FrontEndBugClass::PredicationSwapsBranches, "Predication"),
        (
            FrontEndBugClass::ConstantFoldingNoWraparound,
            "ConstantFolding",
        ),
    ];
    for (class, expected_pass) in cases {
        let bug = SeededBug::FrontEnd(class);
        let outcome = gauntlet.check_open_compiler(&bug.build_compiler(), &bug.trigger_program());
        let pass = outcome
            .reports
            .iter()
            .find(|r| r.kind == BugKind::Semantic)
            .and_then(|r| r.pass.clone())
            .unwrap_or_else(|| panic!("{class:?}: no semantic report"));
        assert_eq!(
            pass, expected_pass,
            "{class:?} attributed to the wrong pass"
        );
    }
}

/// The intermediate program emitted after every pass re-parses and prints
/// back to the identical text (the "invalid transformation" invariant).
#[test]
fn every_emitted_intermediate_program_reparses() {
    let compiler = Compiler::reference();
    for seed in 20..26 {
        let mut generator = RandomProgramGenerator::new(GeneratorConfig::tiny(), seed);
        let program = generator.generate();
        let result = compiler
            .compile(&program)
            .expect("reference compiler accepts the program");
        for snapshot in &result.snapshots {
            let reparsed = p4_parser::parse_program(&snapshot.printed).unwrap_or_else(|e| {
                panic!(
                    "seed {seed}, pass {}: emitted program no longer parses: {e}",
                    snapshot.pass_name
                )
            });
            assert_eq!(
                p4_ir::print_program(&reparsed),
                snapshot.printed,
                "seed {seed}, pass {}: print/parse round-trip diverges",
                snapshot.pass_name
            );
        }
    }
}

/// Crash bugs carry the offending pass name so they can be de-duplicated per
/// assertion message, as the paper does with P4C's assert messages.
#[test]
fn crash_reports_identify_the_crashing_pass() {
    let gauntlet = Gauntlet::default();
    let bug = SeededBug::FrontEnd(FrontEndBugClass::TypeInferenceShiftCrash);
    let outcome = gauntlet.check_open_compiler(&bug.build_compiler(), &bug.trigger_program());
    let report = outcome.reports.first().expect("crash detected");
    assert!(report.kind.is_crash_like());
    assert_eq!(report.pass.as_deref(), Some("ConstantFolding"));
    assert!(report.message.contains("width") || !report.message.is_empty());
}
