"""The regression sentinel: rule-based comparison of two metric sets.

Given two flat ``name -> number`` dicts (ledger entries' ``metrics``,
or a flattened ``BENCH_engine.json``), :func:`compare` classifies every
shared metric against a rule table and produces a
:class:`Comparison`: a per-metric delta table plus a pass/fail verdict
that CI and ``runs diff`` turn into an exit code.

Rules know two things the raw numbers don't:

* **direction** — for ``seconds`` lower is better, for ``ops_per_sec``
  higher is better;
* **rigor** — *simulated* quantities (cycles, issued ops, queue
  counters) are deterministic for a fixed config, so *any* change is a
  finding and an unfavourable change is a hard regression (``exact``);
  *wall-clock* quantities are noisy, so they only regress beyond a
  relative ``tolerance`` (the bench gate default matches
  ``bench_engine.py --guard-tolerance``: generous, to absorb shared-CI
  noise).

The first matching rule (``fnmatch`` over metric names) wins; metrics
matching no rule are reported informationally and never gate.  This
module is dependency-light on purpose — ``tools/bench_diff.py`` and the
``runs`` CLI both sit on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, List, Mapping, Optional, Sequence, Union

Number = Union[int, float]

#: wall-clock metrics only fail beyond this relative slowdown by default
#: (matches the bench_engine.py --guard-tolerance CI setting).
DEFAULT_TOLERANCE = 0.35


@dataclass(frozen=True)
class Rule:
    """How one family of metrics is judged.

    ``pattern`` is an ``fnmatch`` glob over metric names; ``better``
    names the favourable direction; ``exact`` makes any change a
    finding and any unfavourable change a regression (simulated
    quantities); otherwise a relative change beyond ``tolerance`` in
    the unfavourable direction regresses.  ``gate=False`` downgrades
    the rule to informational — deltas are shown but never fail.

    ``floor`` is an *absolute* minimum for the metric, independent of
    any baseline — checked by :func:`check_floors` (the CI
    ``bench-vector-guard`` step), not by :func:`compare`, because a
    floor judges one run on its own rather than a pair.
    """

    pattern: str
    better: str = "lower"  # "lower" | "higher"
    tolerance: float = DEFAULT_TOLERANCE
    exact: bool = False
    gate: bool = True
    floor: Optional[float] = None

    def describe(self) -> str:
        if not self.gate:
            return "info"
        if self.exact:
            return f"exact,{self.better}-better"
        desc = f"{self.better}-better±{self.tolerance:.0%}"
        if self.floor is not None:
            desc += f",floor≥{self.floor:g}"
        return desc


#: default rule table, first match wins.
DEFAULT_RULES: Sequence[Rule] = (
    # blame attribution (repro.obs.blame): fractions drift with workload
    # shape, so gate them with a wide band; cycle totals come from the
    # deterministic simulation, so any change at all is a finding.
    # These precede the generic *cycles* rule (first match wins).
    Rule("blame.frac.*", better="lower", tolerance=0.25),
    Rule("blame.*", better="lower", exact=True),
    # flight recorder overhead is a wall-clock ratio (noisy under load);
    # watchdog escalations count deterministic no-progress windows, so
    # any new trip on a previously clean config is a finding.
    Rule("flight.overhead_frac", better="lower", tolerance=0.5),
    Rule("watchdog.*", better="lower", exact=True),
    # deterministic simulated quantities: exact, and fewer is better
    Rule("*cycles*", better="lower", exact=True),
    Rule("*issued_ops*", better="lower", exact=True),
    Rule("sim.*", better="lower", exact=True),
    Rule("queue.*", better="lower", exact=True),
    Rule("scheduler.*", better="lower", exact=True),
    # vectorized-engine throughput floors (CI bench-vector-guard): the
    # values sit above the scalar reference path's locally measured
    # throughput (soup ~174k, bfs ~118k ops/s) and well below the
    # vectorized path's committed baseline (``soup``/``bfs``
    # ``ops_per_sec`` in BENCH_engine.json), so losing vectorization
    # trips the floor while ordinary runner slowness does not.
    Rule("soup.ops_per_sec", better="higher", floor=200_000),
    Rule("bfs.ops_per_sec", better="higher", floor=140_000),
    # wall-clock quantities: tolerant
    Rule("*ops_per_sec*", better="higher"),
    Rule("*seconds*", better="lower"),
    Rule("*elapsed*", better="lower"),
    Rule("*wall*", better="lower"),
    # run-shape counts must not silently change
    Rule("*jobs*", gate=False),
    Rule("*experiments*", better="higher", exact=True),
)


@dataclass
class Delta:
    """One metric's comparison outcome."""

    name: str
    a: Optional[Number]
    b: Optional[Number]
    status: str  # "ok" | "improved" | "changed" | "regression" | "info" | "added" | "removed"
    rule: Optional[Rule] = None

    @property
    def rel(self) -> Optional[float]:
        """Relative change (b-a)/a, None when undefined."""
        if self.a is None or self.b is None or self.a == 0:
            return None
        return (self.b - self.a) / self.a


@dataclass
class Comparison:
    """Everything :func:`compare` found, plus the verdict."""

    deltas: List[Delta] = field(default_factory=list)
    label_a: str = "A"
    label_b: str = "B"

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.status == "regression"]

    @property
    def passed(self) -> bool:
        return not self.regressions

    def render(self, only_changed: bool = False) -> str:
        """Human-readable delta table plus a verdict line."""
        from repro.harness.report import render_table

        rows = []
        for d in self.deltas:
            if only_changed and d.status == "ok":
                continue
            rel = d.rel
            rows.append(
                [
                    d.name,
                    "-" if d.a is None else d.a,
                    "-" if d.b is None else d.b,
                    "-" if rel is None else f"{rel:+.1%}",
                    d.rule.describe() if d.rule else "info",
                    d.status.upper() if d.status == "regression" else d.status,
                ]
            )
        table = render_table(
            ["metric", self.label_a, self.label_b, "delta", "rule", "status"],
            rows,
            title=f"metric deltas: {self.label_a} -> {self.label_b}",
        )
        n_reg = len(self.regressions)
        if n_reg:
            verdict = (
                f"VERDICT: FAIL — {n_reg} regression(s): "
                + ", ".join(d.name for d in self.regressions)
            )
        else:
            changed = sum(d.status != "ok" for d in self.deltas)
            verdict = f"VERDICT: PASS ({changed} non-identical metric(s))"
        return table + "\n" + verdict


def check_floors(
    metrics: Mapping[str, Number],
    rules: Sequence[Rule] = DEFAULT_RULES,
) -> Dict[str, "tuple[Number, float]"]:
    """Absolute-floor check of one metric set (no baseline needed).

    Returns ``{metric: (value, floor)}`` for every gating metric whose
    matching rule carries a ``floor`` the value sits below.  This is the
    engine behind ``tools/bench_engine.py --vector-guard`` / the CI
    ``bench-vector-guard`` step: a floor breach means the vectorized
    hot path itself degenerated (e.g. everything fell back to the
    scalar reference loop), which a baseline-relative comparison can
    miss when the baseline regressed too.
    """
    violations: Dict[str, tuple] = {}
    for name in sorted(metrics):
        rule = match_rule(name, rules)
        if rule is None or not rule.gate or rule.floor is None:
            continue
        if metrics[name] < rule.floor:
            violations[name] = (metrics[name], rule.floor)
    return violations


def match_rule(name: str, rules: Sequence[Rule]) -> Optional[Rule]:
    for rule in rules:
        if fnmatchcase(name, rule.pattern):
            return rule
    return None


def _judge(a: Number, b: Number, rule: Optional[Rule]) -> str:
    if a == b:
        return "ok"
    if rule is None or not rule.gate:
        return "info"
    worse = b > a if rule.better == "lower" else b < a
    if rule.exact:
        return "regression" if worse else "changed"
    if not worse:
        return "improved"
    base = abs(a)
    if base == 0:
        return "regression"
    return "regression" if abs(b - a) / base > rule.tolerance else "ok"


def compare(
    a: Mapping[str, Number],
    b: Mapping[str, Number],
    rules: Sequence[Rule] = DEFAULT_RULES,
    label_a: str = "A",
    label_b: str = "B",
) -> Comparison:
    """Judge metric set ``b`` (candidate) against ``a`` (baseline)."""
    cmp = Comparison(label_a=label_a, label_b=label_b)
    for name in sorted(set(a) | set(b)):
        va, vb = a.get(name), b.get(name)
        if va is None:
            cmp.deltas.append(Delta(name, None, vb, "added"))
            continue
        if vb is None:
            cmp.deltas.append(Delta(name, va, None, "removed"))
            continue
        rule = match_rule(name, rules)
        cmp.deltas.append(Delta(name, va, vb, _judge(va, vb, rule), rule))
    return cmp


def flatten_metrics(payload: Mapping, prefix: str = "") -> Dict[str, Number]:
    """Recursively flatten nested dicts to dotted numeric leaves."""
    out: Dict[str, Number] = {}
    for key, val in payload.items():
        name = f"{prefix}{key}"
        if isinstance(val, Mapping):
            out.update(flatten_metrics(val, prefix=f"{name}."))
        elif isinstance(val, bool):
            continue
        elif isinstance(val, (int, float)):
            out[name] = val
    return out


def extract_metrics(payload: Mapping) -> Dict[str, Number]:
    """Pull the comparable metric dict out of a known payload shape.

    Understands ledger entries (``{"metrics": {...}}``), bench reports
    from ``tools/bench_engine.py`` (``{"benchmarks": {...}}``), and
    falls back to flattening the whole payload.
    """
    if "metrics" in payload and isinstance(payload["metrics"], Mapping):
        return flatten_metrics(payload["metrics"])
    if "benchmarks" in payload and isinstance(payload["benchmarks"], Mapping):
        return flatten_metrics(payload["benchmarks"])
    return flatten_metrics(payload)
