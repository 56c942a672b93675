"""Tests for the reprolint static-analysis framework (R1–R9).

Three layers: per-rule fixture tests (each rule fires on its bug class and
stays quiet on the compliant twin, and stops firing when the rule is
disabled), pragma grammar tests (reason required, unknown rules rejected,
stale suppressions reported), and the self-application gate (``src/repro``
lints clean, with every suppression carrying a reason).
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.static import (
    ALL_RULES,
    Linter,
    parse_pragmas,
    rule_by_identifier,
)
from repro.analysis.static.cli import main as reprolint_main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"


def lint(path: Path, rules=None):
    return Linter(rules).lint_paths([str(path)])


def codes(report):
    return sorted({finding.rule for finding in report.unsuppressed})


# --------------------------------------------------------------------------- #
# per-rule fixtures: fires on bad, quiet on good, quiet when disabled
# --------------------------------------------------------------------------- #
RULE_CODES = ["R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9"]


@pytest.mark.parametrize("code", RULE_CODES)
def test_rule_fires_on_bad_fixture(code):
    report = lint(FIXTURES / f"{code.lower()}_bad.py")
    assert code in codes(report), report.findings


@pytest.mark.parametrize("code", RULE_CODES)
def test_rule_quiet_on_good_fixture(code):
    report = lint(FIXTURES / f"{code.lower()}_good.py")
    assert not report.findings, [f.render() for f in report.findings]


@pytest.mark.parametrize("code", RULE_CODES)
def test_rule_silent_when_disabled(code):
    enabled = [rule for rule in ALL_RULES if rule.code != code]
    report = lint(FIXTURES / f"{code.lower()}_bad.py", rules=enabled)
    assert code not in codes(report)
    # and conversely, the rule alone is sufficient to catch its fixture
    alone = lint(FIXTURES / f"{code.lower()}_bad.py", rules=[rule_by_identifier(code)])
    assert codes(alone) == [code]


# --------------------------------------------------------------------------- #
# specific bug classes from the acceptance criteria
# --------------------------------------------------------------------------- #
def test_r1_flags_unregistered_mutator_and_phantom_entry():
    report = lint(FIXTURES / "r1_bad.py")
    messages = [f.message for f in report.unsuppressed if f.rule == "R1"]
    assert any("add_widget" in message for message in messages)  # unregistered
    assert any("add_ghost" in message and "no such method" in message for message in messages)
    assert any("has no entry for mutation" in message for message in messages)


def test_r1_flags_out_of_vocabulary_and_non_literal_policies():
    report = lint(FIXTURES / "r1_bad.py")
    messages = [f.message for f in report.unsuppressed if f.rule == "R1"]
    assert any("unknown policy 'exttend'" in message for message in messages)
    assert any("non-literal policy" in message for message in messages)


def test_r1_accepts_the_full_policy_vocabulary(tmp_path):
    rule = rule_by_identifier("R1")
    policies = sorted(rule.POLICIES)
    assert set(policies) == {
        "keep", "extend", "extend-or-rebuild", "rebuild", "clear", "delta"
    }
    row = ", ".join(f"'mutate_{i}': '{policy}'" for i, policy in enumerate(policies))
    path = tmp_path / "vocab.py"
    path.write_text(
        "class VocabSession:\n"
        f"    CACHE_DEPENDENCIES = {{'cache': {{{row}}}}}\n"
        + "".join(
            f"    def mutate_{i}(self):\n        self.mutations += 1\n"
            for i in range(len(policies))
        )
    )
    report = lint(path, rules=[rule])
    # only 'mutate_N is not an add_* method' style findings must not appear:
    # the literal policies themselves are all accepted
    assert not any(
        "policy" in f.message for f in report.unsuppressed
    ), [f.render() for f in report.unsuppressed]


def test_r2_flags_identity_keyed_spec_dict():
    report = lint(FIXTURES / "r2_bad.py")
    messages = [f.message for f in report.unsuppressed if f.rule == "R2"]
    assert any("id()" in message for message in messages)
    assert any("identity comparison" in message for message in messages)


def test_r2_flags_id_keyed_query_memo():
    # the session answer-memo bug class: memoising by id(query) misses every
    # value-identical re-ask and keeps dead entries alive
    report = lint(FIXTURES / "r2_bad.py")
    id_findings = [
        f for f in report.unsuppressed if f.rule == "R2" and "id()" in f.message
    ]
    assert len(id_findings) >= 2  # the spec dict and the query memo
    identity = [
        f
        for f in report.unsuppressed
        if f.rule == "R2" and "identity comparison" in f.message
    ]
    assert len(identity) >= 2  # the spec compare and the sp_query compare


def test_r3_flags_id_concatenated_key():
    report = lint(FIXTURES / "r3_bad.py")
    kinds = {f.message.split(" built", 1)[0] for f in report.unsuppressed if f.rule == "R3"}
    assert "composite f-string" in kinds
    assert "composite string concatenation" in kinds


def test_r4_flags_both_naive_call_and_fresh_substrate():
    report = lint(FIXTURES / "r4_bad.py")
    messages = [f.message for f in report.unsuppressed if f.rule == "R4"]
    assert any("naive" in message for message in messages)
    assert any("fresh Solver()" in message for message in messages)
    assert any("fresh CompletionEncoder()" in message for message in messages)


def test_r4_flags_factory_construction_in_hot_path(tmp_path):
    # create_solver is the R8-blessed route, but in a hot layer a fresh
    # engine still discards warm state — R4 learned the factory's name
    path = tmp_path / "hot.py"
    path.write_text(
        "def hot(cnf, backend):\n"
        "    return create_solver(backend, cnf.num_variables)\n"
    )
    report = lint(path, rules=[rule_by_identifier("R4")])
    assert any("create_solver" in f.message for f in report.unsuppressed)


def test_r8_flags_both_concrete_backends():
    report = lint(FIXTURES / "r8_bad.py")
    messages = [f.message for f in report.unsuppressed if f.rule == "R8"]
    assert any("Solver()" in message for message in messages)
    assert any("PySATBackend()" in message for message in messages)
    assert all("create_solver" in message for message in messages)


def test_r8_quiet_inside_repro_solvers(tmp_path):
    # the same construction is legal inside the backend's home package
    home = tmp_path / "src" / "repro" / "solvers" / "engine.py"
    home.parent.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    home.write_text("def build(n):\n    return Solver(n)\n")
    report = lint(home, rules=[rule_by_identifier("R8")])
    assert not report.findings


def test_r6_reaches_transitively_through_member_types():
    report = lint(FIXTURES / "r6_bad.py")
    messages = [f.message for f in report.unsuppressed if f.rule == "R6"]
    assert any("'lock'" in message and "'Payload'" in message for message in messages)
    assert any("'stream'" in message for message in messages)


def test_r7_excuses_solver_but_not_other_unpicklables():
    report = lint(FIXTURES / "r7_bad.py")
    messages = [f.message for f in report.unsuppressed if f.rule == "R7"]
    assert any("'lock'" in message and "'EncoderState'" in message for message in messages)
    assert any("'stream'" in message for message in messages)
    # the good fixture routes a Solver through the snapshot: R7's exemption
    clean = lint(FIXTURES / "r7_good.py")
    assert not clean.findings, [f.render() for f in clean.findings]


# --------------------------------------------------------------------------- #
# pragma grammar
# --------------------------------------------------------------------------- #
def test_pragma_reason_is_required():
    table = parse_pragmas("x = 1  # reprolint: allow(R2)\n")
    assert not table.by_line
    assert len(table.problems) == 1
    assert "reason is required" in table.problems[0].message


def test_pragma_unknown_rule_rejected():
    table = parse_pragmas("x = 1  # reprolint: allow(R99) — no such rule\n")
    assert not table.by_line
    assert len(table.problems) == 1
    assert "unknown rule" in table.problems[0].message


def test_pragma_trailing_applies_to_own_line():
    table = parse_pragmas("x = 1  # reprolint: allow(R2) — why not\n")
    (pragma,) = table.allowed(1)
    assert pragma.rules == ("R2",)
    assert pragma.reason == "why not"


def test_pragma_standalone_applies_to_next_line():
    table = parse_pragmas("# reprolint: allow(R4, R2) — two rules at once\nx = 1\n")
    (pragma,) = table.allowed(2)
    assert pragma.rules == ("R4", "R2")
    assert not table.allowed(1)


def test_pragma_accepts_all_separators_and_rule_names():
    for separator in ("—", "--", ":"):
        table = parse_pragmas(f"x = 1  # reprolint: allow(warm-state) {separator} reason\n")
        (pragma,) = table.allowed(1)
        assert pragma.rules == ("warm-state",)


def test_pragma_shaped_string_literal_is_not_a_pragma():
    table = parse_pragmas('x = "# reprolint: allow(R2)"\n')
    assert not table.by_line
    assert not table.problems


def test_pragma_fixture_suppresses_with_reasons():
    report = lint(FIXTURES / "pragma_ok.py")
    assert report.ok, [f.render() for f in report.unsuppressed]
    assert len(report.suppressed) == 2
    assert all(f.suppression_reason for f in report.suppressed)


def test_pragma_fixture_broken_pragmas_become_findings():
    report = lint(FIXTURES / "pragma_bad.py")
    by_code = {}
    for finding in report.unsuppressed:
        by_code.setdefault(finding.rule, []).append(finding)
    assert "P0" in by_code  # malformed (missing reason) + unknown rule
    assert len(by_code["P0"]) == 2
    assert "P1" in by_code  # stale suppression
    assert "R2" in by_code  # the missing-reason pragma suppresses nothing


# --------------------------------------------------------------------------- #
# self-application: the shipped tree lints clean
# --------------------------------------------------------------------------- #
def test_src_repro_lints_clean():
    report = lint(SRC_REPRO)
    assert report.ok, "\n".join(f.render() for f in report.unsuppressed)


def test_every_suppression_in_src_carries_a_reason():
    report = lint(SRC_REPRO)
    assert report.suppressed, "expected the documented pragma sites to exist"
    for finding in report.suppressed:
        assert finding.suppression_reason and finding.suppression_reason.strip()


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def test_cli_fail_on_findings_exit_codes(capsys):
    assert reprolint_main([str(FIXTURES / "r2_bad.py"), "--fail-on-findings"]) == 1
    assert reprolint_main([str(FIXTURES / "r2_good.py"), "--fail-on-findings"]) == 0
    out = capsys.readouterr().out
    assert "R2(identity-compare)" in out


def test_cli_without_fail_flag_reports_but_exits_zero(capsys):
    assert reprolint_main([str(FIXTURES / "r2_bad.py")]) == 0
    assert "finding(s)" in capsys.readouterr().out


def test_cli_select_unknown_rule_is_usage_error(capsys):
    assert reprolint_main([str(FIXTURES / "r2_bad.py"), "--select", "R99"]) == 2


def test_cli_select_restricts_rules(capsys):
    assert (
        reprolint_main(
            [str(FIXTURES / "r4_bad.py"), "--select", "R2", "--fail-on-findings"]
        )
        == 0
    )


def test_cli_list_rules(capsys):
    assert reprolint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule.code in out


def test_cli_show_suppressed(capsys):
    assert reprolint_main([str(FIXTURES / "pragma_ok.py"), "--show-suppressed"]) == 0
    assert "[suppressed:" in capsys.readouterr().out


def test_cli_missing_path_is_usage_error():
    assert reprolint_main([str(FIXTURES / "does_not_exist.py")]) == 2


def test_tools_launcher_runs_clean_over_src():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "reprolint"),
         str(SRC_REPRO), "--fail-on-findings"],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
    )
    assert result.returncode == 0, result.stdout + result.stderr


# --------------------------------------------------------------------------- #
# the strict-typing gate (runs only where mypy is installed, e.g. CI)
# --------------------------------------------------------------------------- #
@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_strict_allowlist_passes():
    result = subprocess.run(
        ["mypy", "--config-file", str(REPO_ROOT / "mypy.ini")],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
    )
    assert result.returncode == 0, result.stdout + result.stderr
