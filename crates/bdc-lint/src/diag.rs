//! The unified diagnostic model: rules, severities, locations, reports.

use std::fmt;

/// How bad a finding is.
///
/// `Error` means a hand-off invariant of the Figure-10 flow is broken and
/// downstream numbers (STA, depth/width optima) would be silently wrong;
/// `Warning` means the artifact is legal but suspicious; `Info` records a
/// condition downstream tools handle but reports should surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Surfaced in reports only.
    Info,
    /// Suspicious but not flow-breaking.
    Warning,
    /// Breaks a flow invariant; results downstream are untrustworthy.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        f.write_str(s)
    }
}

/// Every rule the analyzer knows, across all front-ends.
///
/// Netlist rules are `NL*`, library rules `LB*`, device rules `DV*`, and
/// plan- and stage-graph rules `PG*` (raised by `bdc-verify`). The
/// catalogue (with rationale and hints) is documented in `DESIGN.md`
/// §"Static analysis".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// NL001: a net is read (gate/flop input or primary output) but nothing
    /// drives it.
    UndrivenNet,
    /// NL002: a net has more than one driver.
    MultipleDrivers,
    /// NL003: a gate reads a net driven by a *later* gate — the netlist is
    /// not in topological order (a combinational loop or a broken rewrite),
    /// so the forward-pass STA would read stale arrivals.
    NonTopological,
    /// NL004: a gate's output cone reaches no primary output or flop — dead
    /// logic inflating area and leakage.
    DeadGate,
    /// NL005: a net was allocated but is neither driven nor read.
    FloatingNet,
    /// NL006: a primary input that nothing reads.
    UnusedInput,
    /// NL007: fanout above `StaConfig::max_fanout`; STA models a buffer
    /// tree, which inflates the stage's delay floor.
    FanoutOverMax,
    /// NL008: a net's capacitive load lies beyond the driving cell's
    /// characterized NLDM load axis — delay is extrapolated, not measured.
    LoadBeyondTable,
    /// NL009: a propagated input slew lies beyond the characterized NLDM
    /// slew axis.
    SlewBeyondTable,
    /// NL010: a flop whose Q is neither read nor a primary output.
    DeadFlop,
    /// NL011: the netlist uses 3-input cells although the target library's
    /// characterization prefers 2-input decomposition (§5.5) — it was not
    /// remapped for this library.
    UnmappedThreeInput,
    /// NL012: a flop whose D cone depends on no primary input or flop —
    /// the register latches a constant.
    ConstantFlop,
    /// LB001: delay does not grow monotonically along the NLDM load axis —
    /// the fitted table left its physical range.
    NonMonotoneDelay,
    /// LB002: a negative delay or slew entry in an NLDM table.
    NegativeDelay,
    /// LB003: supply rails are inconsistent (VDD ≤ VSS or VDD ≤ 0).
    RailOrder,
    /// LB004: rails violate the process convention (pseudo-E organic needs
    /// VSS < 0; CMOS expects VSS = 0).
    RailConvention,
    /// LB005: a non-physical cell scalar (area/input-cap ≤ 0, negative
    /// leakage or switching energy).
    NonPositiveCellScalar,
    /// LB006: inconsistent DFF timing (setup/clk→Q ≤ 0 or hold < 0).
    BadDffTiming,
    /// LB007: a degenerate 1×1 NLDM table — load/slew dependence is not
    /// characterized (synthetic libraries).
    DegenerateTable,
    /// LB008: the rise/fall/slew tables of one cell disagree on axes.
    AxisMismatch,
    /// LB009: negative ∂delay/∂load (drive resistance) at the table centre.
    NegativeDriveResistance,
    /// DV001: non-positive device geometry (W, L, C_i) or negative overlap.
    BadGeometry,
    /// DV002: mobility prefactor outside the physically plausible window.
    MobilityOutOfRange,
    /// DV003: threshold voltage magnitude negative or implausibly large.
    VtOutOfRange,
    /// DV004: subthreshold ideality below 1 (sub-physical) or implausibly
    /// large.
    BadSubthresholdSlope,
    /// DV005: off-current floor non-positive or so large the on/off ratio
    /// collapses.
    BadOffCurrent,
    /// PG001: two registry nodes share an id.
    DuplicateNodeId,
    /// PG002: two registry nodes map to the same cache key at some budget —
    /// one node's bytes would be served for the other.
    CacheKeyCollision,
    /// PG003: an input that reaches a node's render fn does not perturb its
    /// cache key — stale bytes would be served when that input changes.
    UnderKeyedNode,
    /// PG004: a node claims a driver name outside the canonical catalogue.
    UnknownDriver,
    /// PG005: a canonical driver is orphaned (no node claims it) or claimed
    /// by more than one node.
    DriverCoverage,
    /// PG006: a node's declared library deps disagree with the reads
    /// observed during an audited render.
    DepMismatch,
    /// PG007: the plan graph has a dependency cycle.
    PlanCycle,
    /// PG008: the fine-grained stage graph (device → cell → library →
    /// synthesis) has a cycle — incremental invalidation would never
    /// terminate.
    StageCycle,
    /// PG009: a stage key is insensitive to an input that reaches it (or
    /// sensitive to one that must not) — a parameter change would reuse
    /// stale stage artifacts, or invalidate stages outside its cone.
    StageKeyInsensitive,
    /// PG010: two distinct stages share a content key at some parameter
    /// point — one stage's bytes would be served for the other.
    StageKeyCollision,
}

impl Rule {
    /// Stable rule identifier, e.g. `NL001`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::UndrivenNet => "NL001",
            Rule::MultipleDrivers => "NL002",
            Rule::NonTopological => "NL003",
            Rule::DeadGate => "NL004",
            Rule::FloatingNet => "NL005",
            Rule::UnusedInput => "NL006",
            Rule::FanoutOverMax => "NL007",
            Rule::LoadBeyondTable => "NL008",
            Rule::SlewBeyondTable => "NL009",
            Rule::DeadFlop => "NL010",
            Rule::UnmappedThreeInput => "NL011",
            Rule::ConstantFlop => "NL012",
            Rule::NonMonotoneDelay => "LB001",
            Rule::NegativeDelay => "LB002",
            Rule::RailOrder => "LB003",
            Rule::RailConvention => "LB004",
            Rule::NonPositiveCellScalar => "LB005",
            Rule::BadDffTiming => "LB006",
            Rule::DegenerateTable => "LB007",
            Rule::AxisMismatch => "LB008",
            Rule::NegativeDriveResistance => "LB009",
            Rule::BadGeometry => "DV001",
            Rule::MobilityOutOfRange => "DV002",
            Rule::VtOutOfRange => "DV003",
            Rule::BadSubthresholdSlope => "DV004",
            Rule::BadOffCurrent => "DV005",
            Rule::DuplicateNodeId => "PG001",
            Rule::CacheKeyCollision => "PG002",
            Rule::UnderKeyedNode => "PG003",
            Rule::UnknownDriver => "PG004",
            Rule::DriverCoverage => "PG005",
            Rule::DepMismatch => "PG006",
            Rule::PlanCycle => "PG007",
            Rule::StageCycle => "PG008",
            Rule::StageKeyInsensitive => "PG009",
            Rule::StageKeyCollision => "PG010",
        }
    }

    /// The severity findings of this rule carry.
    pub fn severity(self) -> Severity {
        match self {
            Rule::UndrivenNet
            | Rule::MultipleDrivers
            | Rule::NonTopological
            | Rule::NegativeDelay
            | Rule::RailOrder
            | Rule::NonPositiveCellScalar
            | Rule::BadDffTiming
            | Rule::BadGeometry => Severity::Error,
            Rule::DeadGate
            | Rule::FloatingNet
            | Rule::UnusedInput
            | Rule::LoadBeyondTable
            | Rule::SlewBeyondTable
            | Rule::DeadFlop
            | Rule::ConstantFlop
            | Rule::NonMonotoneDelay
            | Rule::RailConvention
            | Rule::AxisMismatch
            | Rule::NegativeDriveResistance
            | Rule::MobilityOutOfRange
            | Rule::VtOutOfRange
            | Rule::BadSubthresholdSlope
            | Rule::BadOffCurrent => Severity::Warning,
            Rule::FanoutOverMax | Rule::UnmappedThreeInput | Rule::DegenerateTable => {
                Severity::Info
            }
            // Plan-graph soundness: all Deny — a collision or under-keyed
            // node means the artifact cache serves wrong bytes.
            Rule::DuplicateNodeId
            | Rule::CacheKeyCollision
            | Rule::UnderKeyedNode
            | Rule::UnknownDriver
            | Rule::DriverCoverage
            | Rule::DepMismatch
            | Rule::PlanCycle
            | Rule::StageCycle
            | Rule::StageKeyInsensitive
            | Rule::StageKeyCollision => Severity::Error,
        }
    }
}

/// Every rule, in catalogue order — the source of truth for exhaustiveness
/// tests.
pub const ALL_RULES: &[Rule] = &[
    Rule::UndrivenNet,
    Rule::MultipleDrivers,
    Rule::NonTopological,
    Rule::DeadGate,
    Rule::FloatingNet,
    Rule::UnusedInput,
    Rule::FanoutOverMax,
    Rule::LoadBeyondTable,
    Rule::SlewBeyondTable,
    Rule::DeadFlop,
    Rule::UnmappedThreeInput,
    Rule::ConstantFlop,
    Rule::NonMonotoneDelay,
    Rule::NegativeDelay,
    Rule::RailOrder,
    Rule::RailConvention,
    Rule::NonPositiveCellScalar,
    Rule::BadDffTiming,
    Rule::DegenerateTable,
    Rule::AxisMismatch,
    Rule::NegativeDriveResistance,
    Rule::BadGeometry,
    Rule::MobilityOutOfRange,
    Rule::VtOutOfRange,
    Rule::BadSubthresholdSlope,
    Rule::BadOffCurrent,
    Rule::DuplicateNodeId,
    Rule::CacheKeyCollision,
    Rule::UnderKeyedNode,
    Rule::UnknownDriver,
    Rule::DriverCoverage,
    Rule::DepMismatch,
    Rule::PlanCycle,
    Rule::StageCycle,
    Rule::StageKeyInsensitive,
    Rule::StageKeyCollision,
];

/// Where a finding is anchored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Location {
    /// A net id in the linted netlist.
    Net(usize),
    /// An index into `Netlist::gates()`.
    Gate(usize),
    /// An index into `Netlist::flops()`.
    Flop(usize),
    /// A library cell by canonical name.
    Cell(&'static str),
    /// The library (rails, wire, DFF timing).
    Library,
    /// A device-model parameter by name.
    Param(&'static str),
    /// A registry node by id (plan-graph analysis).
    Node(String),
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Net(n) => write!(f, "net {n}"),
            Location::Gate(g) => write!(f, "gate {g}"),
            Location::Flop(i) => write!(f, "flop {i}"),
            Location::Cell(c) => write!(f, "cell {c}"),
            Location::Library => write!(f, "library"),
            Location::Param(p) => write!(f, "param {p}"),
            Location::Node(id) => write!(f, "node {id}"),
        }
    }
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: Rule,
    /// Its severity (the rule's default).
    pub severity: Severity,
    /// Where it fired.
    pub location: Location,
    /// What was observed.
    pub message: String,
    /// How to fix it, when the analyzer has a suggestion.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// Builds a finding with the rule's default severity.
    pub fn new(rule: Rule, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity: rule.severity(),
            location,
            message: message.into(),
            hint: None,
        }
    }

    /// Attaches a fix hint.
    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity,
            self.rule.id(),
            self.location,
            self.message
        )?;
        if let Some(h) = &self.hint {
            write!(f, " (hint: {h})")?;
        }
        Ok(())
    }
}

/// All findings from linting one artifact.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// What was linted (netlist or library name).
    pub subject: String,
    /// Findings in detection order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report for `subject`.
    pub fn new(subject: impl Into<String>) -> Self {
        LintReport {
            subject: subject.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Records a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Merges another report's findings (subject kept from `self`).
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Findings at exactly `severity`.
    pub fn at(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity == severity)
    }

    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.at(severity).count()
    }

    /// True when no `Error`-severity finding is present.
    pub fn is_clean(&self) -> bool {
        self.count(Severity::Error) == 0
    }

    /// The worst severity present, if any finding exists.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// One-line summary, e.g. `alu: 0 errors, 3 warnings, 12 notes`.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} errors, {} warnings, {} notes",
            self.subject,
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        )
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.summary())?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_error_worst() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn rule_ids_are_unique() {
        let mut ids: Vec<_> = ALL_RULES.iter().map(|r| r.id()).collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate rule id");
    }

    #[test]
    fn node_locations_render() {
        let d = Diagnostic::new(Rule::UnderKeyedNode, Location::Node("fig03".into()), "m");
        assert!(d.to_string().contains("[PG003] node fig03"));
    }

    #[test]
    fn report_counts_and_summary() {
        let mut r = LintReport::new("x");
        assert!(r.is_clean());
        assert_eq!(r.max_severity(), None);
        r.push(Diagnostic::new(
            Rule::UndrivenNet,
            Location::Net(3),
            "undriven",
        ));
        r.push(Diagnostic::new(Rule::DeadGate, Location::Gate(1), "dead").with_hint("remove it"));
        assert!(!r.is_clean());
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Warning), 1);
        assert_eq!(r.max_severity(), Some(Severity::Error));
        assert!(r.summary().contains("1 errors"));
        let text = r.to_string();
        assert!(text.contains("[NL001] net 3"));
        assert!(text.contains("hint: remove it"));
    }
}
