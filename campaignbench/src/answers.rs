//! Known answers: what each workload's findings must be.
//!
//! An input whose findings differ from its known answer is a wrong verdict.
//! Every input is judged; none is dropped to make a count zero.

use gauntlet_core::{BugKind, BugReport, Platform};

/// The pass the seeded `DefUseDropsParameterWrites` defect replaces.
pub const SEEDED_PASS: &str = "SimplifyDefUse";
/// The target seeded with `Bmv2ExitIgnored` (`bmv2+Bmv2ExitIgnored`).
pub const SEEDED_TARGET: &str = "bmv2";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// The reference compiler is correct: any report is a false alarm.
    NoReports,
    /// Every report must trace to one of the two seeded defects
    /// (`SimplifyDefUse`, or the `Bmv2ExitIgnored` back end), and every
    /// open-compiler report must carry its reduced reproducer.
    SeededDefects,
    /// No known answer: the input is pinned for its cost, and any verdict
    /// it reaches counts as right.
    AnyVerdict,
}

/// Whether one report traces to a seeded defect.  A metamorphic
/// divergence names no pass, so it traces to the defect exactly when the
/// same mutant family does not diverge on the reference compiler, which
/// lacks the defect (`reproduces_on_reference`).
fn traces_to_seeded_defect(report: &BugReport, reproduces_on_reference: bool) -> bool {
    let reduced = report.platform != Platform::P4c || report.minimized.is_some();
    reduced
        && match (&report.kind, report.platform) {
            (BugKind::Semantic, Platform::P4c) => report.pass.as_deref() == Some(SEEDED_PASS),
            (BugKind::Metamorphic, Platform::P4c) => !reproduces_on_reference,
            (BugKind::Semantic, Platform::Bmv2) => {
                report.attributed_to.as_deref() == Some(SEEDED_TARGET)
            }
            _ => false,
        }
}

/// Whether an input's findings match its known answer.
pub fn is_right(
    answer: Answer,
    reports: &[BugReport],
    reproduces_on_reference: impl Fn(&BugReport) -> bool,
) -> bool {
    match answer {
        Answer::NoReports => reports.is_empty(),
        Answer::SeededDefects => reports
            .iter()
            .all(|report| traces_to_seeded_defect(report, reproduces_on_reference(report))),
        Answer::AnyVerdict => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gauntlet_core::{CompilerArea, Technique};

    fn report(
        kind: BugKind,
        platform: Platform,
        pass: Option<&str>,
        target: Option<&str>,
    ) -> BugReport {
        let mut report = BugReport::new(
            kind,
            platform,
            CompilerArea::FrontEnd,
            Technique::TranslationValidation,
            pass.map(str::to_string),
            "semantic difference".to_string(),
        );
        report.attributed_to = target.map(str::to_string);
        if platform == Platform::P4c {
            report.minimized = Some("control c() { apply {} }".to_string());
        }
        report
    }

    #[test]
    fn reference_inputs_must_stay_silent() {
        assert!(is_right(Answer::NoReports, &[], |_| false));
        // The seed-576 shape: a Predication semantic report on the
        // reference compiler is a false alarm.
        let alarm = report(BugKind::Semantic, Platform::P4c, Some("Predication"), None);
        assert!(!is_right(Answer::NoReports, &[alarm], |_| false));
    }

    #[test]
    fn seeded_defect_reports_are_right() {
        let defuse = report(BugKind::Semantic, Platform::P4c, Some(SEEDED_PASS), None);
        let exit = report(BugKind::Semantic, Platform::Bmv2, None, Some(SEEDED_TARGET));
        let mutant = report(BugKind::Metamorphic, Platform::P4c, None, None);
        assert!(is_right(
            Answer::SeededDefects,
            &[defuse, exit, mutant],
            |_| false
        ));
        assert!(is_right(Answer::SeededDefects, &[], |_| false));
    }

    #[test]
    fn reports_that_miss_the_seeded_defects_are_wrong() {
        let wrong = [
            report(BugKind::Semantic, Platform::P4c, Some("Predication"), None),
            report(BugKind::Crash, Platform::P4c, Some(SEEDED_PASS), None),
            report(BugKind::Semantic, Platform::Tofino, None, Some("tofino")),
            report(BugKind::Semantic, Platform::Bmv2, None, Some("ref-interp")),
            report(BugKind::Semantic, Platform::Model, None, Some("model")),
        ];
        for report in wrong {
            assert!(
                !is_right(Answer::SeededDefects, std::slice::from_ref(&report), |_| {
                    false
                }),
                "{report:?} should be wrong"
            );
        }
    }

    #[test]
    fn a_divergence_the_reference_compiler_shares_is_wrong() {
        let mutant = report(BugKind::Metamorphic, Platform::P4c, None, None);
        assert!(!is_right(Answer::SeededDefects, &[mutant], |_| true));
    }

    #[test]
    fn an_unreduced_open_compiler_report_is_wrong() {
        let mut defuse = report(BugKind::Semantic, Platform::P4c, Some(SEEDED_PASS), None);
        defuse.minimized = None;
        assert!(!is_right(Answer::SeededDefects, &[defuse], |_| false));
    }

    #[test]
    fn pinned_inputs_without_an_answer_accept_any_verdict() {
        let alarm = report(BugKind::Semantic, Platform::Bmv2, None, Some("bmv2"));
        assert!(is_right(Answer::AnyVerdict, &[alarm], |_| true));
    }
}
