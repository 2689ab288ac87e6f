//! The two workloads and the inputs each draws from the workload seed.
//! Why each workload and pinned input was chosen is in `NOTES.md`.

use crate::answers::Answer;
use gauntlet_core::{CoverageOptions, HuntConfig, MetamorphicOptions, SeededBug};
use p4_gen::{GeneratorConfig, RandomProgramGenerator};

/// Worker threads per campaign and worker processes per fleet.
pub const JOBS: usize = 2;
/// Distinct seed windows: the workload seed shifts each range by
/// `seed % WINDOWS`, so every window keeps the same inputs but a few.
pub const WINDOWS: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HuntReference,
    HuntAllTechniques,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::HuntReference, Workload::HuntAllTechniques];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HuntReference => "hunt-reference",
            Workload::HuntAllTechniques => "hunt-all-techniques",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn plan(self) -> Plan {
        match self {
            Workload::HuntReference => Plan::reference(),
            Workload::HuntAllTechniques => Plan::all_techniques(),
        }
    }
}

/// One campaign configuration: the compiler, the techniques and the range.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// `None` hunts the reference compiler.
    pub bug: Option<&'static str>,
    pub coverage: bool,
    pub mutants: usize,
    pub reduce: bool,
    pub targets: Vec<&'static str>,
    /// First seed of window 0.
    pub base: u64,
    pub count: usize,
    /// Campaigns per run at least; `seeds_per_s` is their median.
    pub campaigns: usize,
    pub answer: Answer,
    /// Also runs the campaign once through `gauntlet fleet hunt`, whose
    /// report must equal the in-process one.
    pub fleet: bool,
}

impl Plan {
    pub fn reference() -> Plan {
        Plan {
            bug: None,
            coverage: false,
            mutants: 0,
            reduce: false,
            targets: Vec::new(),
            base: 0,
            count: 600,
            // Seed 74 bounds each campaign's wall, so 3 campaigns settle it.
            campaigns: 3,
            answer: Answer::NoReports,
            fleet: false,
        }
    }

    pub fn all_techniques() -> Plan {
        Plan {
            bug: Some("DefUseDropsParameterWrites"),
            coverage: true,
            mutants: 3,
            reduce: true,
            targets: vec!["bmv2+Bmv2ExitIgnored", "tofino", "ref-interp"],
            base: 5000,
            count: 120,
            // Two workers share out 120 uneven seeds, and which one takes
            // the last slow seed moves a campaign's wall by up to 10%.
            campaigns: 4,
            answer: Answer::SeededDefects,
            fleet: true,
        }
    }

    /// First seed of the range the workload seed selects.
    pub fn start(&self, workload_seed: u64) -> u64 {
        self.base + workload_seed % WINDOWS
    }

    fn seeded_bug(&self) -> Option<SeededBug> {
        self.bug.map(|name| {
            SeededBug::catalogue()
                .into_iter()
                .find(|bug| bug.name() == name)
                .expect("the plan names a catalogue bug")
        })
    }

    pub fn compiler(&self) -> p4c::Compiler {
        match self.seeded_bug() {
            Some(bug) => bug.build_compiler(),
            None => p4c::Compiler::reference(),
        }
    }

    pub fn generate(&self, seed: u64) -> p4_ir::Program {
        RandomProgramGenerator::new(GeneratorConfig::tiny(), seed).generate()
    }

    pub fn mutation(&self) -> Option<MetamorphicOptions> {
        (self.mutants > 0).then(|| MetamorphicOptions {
            mutants_per_seed: self.mutants,
            ..MetamorphicOptions::default()
        })
    }

    /// The `ParallelCampaign` configuration, as `gauntlet fleet hunt` in
    /// deterministic mode builds it for the same flags.
    pub fn hunt_config(&self, start: u64) -> HuntConfig {
        HuntConfig {
            jobs: JOBS,
            seed_start: start,
            seed_count: self.count,
            generator: GeneratorConfig::tiny(),
            reduce_reports: self.reduce,
            targets: self.targets.iter().map(|t| t.to_string()).collect(),
            coverage: self.coverage.then(|| CoverageOptions {
                adapt: false,
                corpus: None,
                ..CoverageOptions::default()
            }),
            mutation: self.mutation(),
            ..HuntConfig::default()
        }
    }

    /// `gauntlet fleet hunt` flags for the same campaign: `JOBS` workers of
    /// one thread each, deterministic mode.
    pub fn fleet_args(&self, start: u64, count: usize) -> Vec<String> {
        let mut args: Vec<String> = [
            "fleet",
            "hunt",
            "--workers",
            &JOBS.to_string(),
            "--jobs",
            "1",
            "--seed-start",
            &start.to_string(),
            "--seeds",
            &count.to_string(),
            "--compiler",
            self.bug.unwrap_or("reference"),
            "--generator",
            "tiny",
            "--mode",
            "deterministic",
            "--quiet",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if self.coverage {
            args.push("--coverage".into());
        }
        if self.mutants > 0 {
            args.extend(["--mutants".into(), self.mutants.to_string()]);
        }
        if self.reduce {
            args.push("--reduce".into());
        }
        for target in &self.targets {
            args.extend(["--target".into(), target.to_string()]);
        }
        args
    }
}

/// The pinned hard inputs, run under a per-input verdict limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pinned {
    /// A reference-compiler seed from the `hunt-reference` plan.
    ReferenceSeed(u64),
    /// `run_campaign`'s stalling input: class `Bmv2SliceWritesWholeField`,
    /// random program 7 of the default table campaign (base seed
    /// `0xC0FFEE`), checked with `SeededBug::detect`.
    TableInput,
}

pub const PINNED: [Pinned; 5] = [
    Pinned::ReferenceSeed(882),
    Pinned::TableInput,
    Pinned::ReferenceSeed(74),
    Pinned::ReferenceSeed(494),
    Pinned::ReferenceSeed(224),
];

/// The table campaign's base seed, class and random-program number.
const TABLE_SEED: u64 = 0xC0FFEE;
const TABLE_CLASS: &str = "Bmv2SliceWritesWholeField";
const TABLE_PROGRAM: usize = 7;

impl Pinned {
    pub fn name(self) -> String {
        match self {
            Pinned::ReferenceSeed(seed) => format!("seed{seed}"),
            Pinned::TableInput => "table-bmv2slice-p7".to_string(),
        }
    }

    pub fn parse(name: &str) -> Option<Pinned> {
        PINNED.into_iter().find(|p| p.name() == name)
    }

    pub fn answer(self) -> Answer {
        match self {
            Pinned::ReferenceSeed(_) => Answer::NoReports,
            Pinned::TableInput => Answer::AnyVerdict,
        }
    }

    /// The solver exposes conflict counts on the open-compiler path only.
    pub fn counts_conflicts(self) -> bool {
        matches!(self, Pinned::ReferenceSeed(_))
    }
}

/// The table campaign's class and its random program, derived exactly as
/// `run_campaign` derives them.
pub fn table_input() -> (SeededBug, p4_ir::Program) {
    let catalogue = SeededBug::catalogue();
    let (index, bug) = catalogue
        .iter()
        .enumerate()
        .find(|(_, bug)| bug.name() == TABLE_CLASS)
        .expect("the table class is in the catalogue");
    let config = match bug.architecture() {
        "tna" => GeneratorConfig::tofino(),
        _ => GeneratorConfig::default(),
    };
    let mut generator =
        RandomProgramGenerator::new(config, TABLE_SEED.wrapping_add(index as u64 * 1009));
    let mut program = generator.generate();
    for _ in 1..TABLE_PROGRAM {
        program = generator.generate();
    }
    (*bug, program)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_window_keeps_the_reference_tail_and_the_false_alarm() {
        let plan = Plan::reference();
        for seed in [0, 1, 49, 50, 1234, u64::MAX] {
            let start = plan.start(seed);
            let range = start..start + plan.count as u64;
            for kept in [74, 224, 494, 576] {
                assert!(range.contains(&kept), "window {start} drops seed {kept}");
            }
            // Seed 882 is pinned, never hunted.
            assert!(!range.contains(&882));
        }
    }

    #[test]
    fn all_technique_windows_are_disjoint_from_the_reference_range() {
        let reference = Plan::reference();
        let all = Plan::all_techniques();
        let reference_end = reference.base + WINDOWS + reference.count as u64;
        assert!(all.start(0) >= reference_end);
    }

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        for pinned in PINNED {
            assert_eq!(Pinned::parse(&pinned.name()), Some(pinned));
        }
    }

    #[test]
    fn fleet_flags_match_the_in_process_plan() {
        let args = Plan::all_techniques().fleet_args(5007, 120);
        let joined = args.join(" ");
        assert!(joined.contains("--seed-start 5007 --seeds 120"));
        assert!(joined.contains("--compiler DefUseDropsParameterWrites"));
        assert!(joined.contains("--coverage --mutants 3 --reduce"));
        assert!(
            joined.contains("--target bmv2+Bmv2ExitIgnored --target tofino --target ref-interp")
        );
    }
}
