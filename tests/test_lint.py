"""The static half of ``repro lint``: rules, allow tags, baseline, CLI.

Every rule is exercised as a pair: a violating snippet that must fire
and a compliant twin that must stay silent.  The engine tests cover the
suppression machinery (justified allow tags, the baseline ratchet with
mandatory reasons, stale-entry reporting) and the CLI tests pin the
0/1/2 exit convention.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.common.errors import LintError
from repro.lint.engine import (
    lint_paths,
    lint_source,
    load_baseline,
    module_name,
    parse_allow_tags,
    write_baseline,
)
from repro.lint.rules import RULES, RULES_BY_ID

REPO_ROOT = Path(__file__).resolve().parents[1]


def rules_fired(source: str, module: str) -> set:
    findings, _ = lint_source(source, module=module)
    return {f.rule for f in findings}


# ---------------------------------------------------------------------------
# rule catalog: violating snippet fires, compliant twin is silent
# ---------------------------------------------------------------------------


class TestRuleCatalog:
    def test_every_rule_has_metadata(self):
        assert len(RULES) == 11
        for rule in RULES:
            assert rule.title and rule.rationale
            assert RULES_BY_ID[rule.id] is rule

    # -- DET001 ------------------------------------------------------------

    def test_det001_fires_on_wallclock_call_in_sim_path(self):
        src = "import time\ndef f():\n    return time.perf_counter()\n"
        assert "DET001" in rules_fired(src, "repro.core.thread_unit2")

    def test_det001_fires_on_from_import_reference(self):
        src = "from time import perf_counter\nclock = perf_counter\n"
        assert "DET001" in rules_fired(src, "repro.sim.driver")

    def test_det001_fires_on_datetime_now(self):
        src = "from datetime import datetime\ndef f():\n    return datetime.now()\n"
        assert "DET001" in rules_fired(src, "repro.mem.anything")

    def test_det001_silent_outside_sim_scope(self):
        src = "import time\ndef f():\n    return time.perf_counter()\n"
        assert "DET001" not in rules_fired(src, "repro.obs.ledger")

    def test_det001_silent_on_unrelated_attribute(self):
        # A sim object with a method named `time` must not match.
        src = "def f(sched):\n    return sched.time()\n"
        assert rules_fired(src, "repro.core.x") == set()

    # -- DET002 ------------------------------------------------------------

    def test_det002_fires_on_global_random(self):
        src = "import random\ndef f():\n    return random.randint(0, 3)\n"
        assert "DET002" in rules_fired(src, "repro.workloads.x")

    def test_det002_fires_on_numpy_global_state(self):
        src = "import numpy as np\ndef f():\n    return np.random.rand(4)\n"
        assert "DET002" in rules_fired(src, "repro.workloads.x")

    def test_det002_silent_on_seeded_instances(self):
        src = (
            "import random\nimport numpy as np\n"
            "def f(seed):\n"
            "    return random.Random(seed), np.random.default_rng(seed)\n"
        )
        assert "DET002" not in rules_fired(src, "repro.workloads.x")

    def test_det002_silent_on_local_method_named_choice(self):
        src = "def f(rng, xs):\n    return rng.choice(xs)\n"
        assert rules_fired(src, "repro.workloads.x") == set()

    # -- DET003 ------------------------------------------------------------

    def test_det003_fires_on_set_iteration(self):
        src = "def f(xs):\n    for x in set(xs):\n        print(x)\n"
        assert "DET003" in rules_fired(src, "repro.obs.export2")

    def test_det003_fires_on_keys_iteration_and_comprehension(self):
        src = "def f(d):\n    return [k for k in d.keys()]\n"
        assert "DET003" in rules_fired(src, "repro.sim.tables2")

    def test_det003_silent_when_sorted(self):
        src = "def f(xs, d):\n    for x in sorted(set(xs) | set(d)):\n        pass\n"
        assert "DET003" not in rules_fired(src, "repro.obs.export2")

    def test_det003_silent_on_membership_test(self):
        # set() used for O(1) membership (the compare.py satellite fix
        # pattern) is order-free and must not fire.
        src = "def f(xs, wanted):\n    names = frozenset(wanted)\n    return [x for x in xs if x in names]\n"
        assert "DET003" not in rules_fired(src, "repro.obs.compare2")

    # -- DET004 ------------------------------------------------------------

    def test_det004_fires_on_environ_in_pure_sim(self):
        src = "import os\ndef f():\n    return os.environ.get('REPRO_X')\n"
        assert "DET004" in rules_fired(src, "repro.sim.driver")

    def test_det004_fires_on_getenv_from_import(self):
        src = "from os import getenv\ndef f():\n    return getenv('X')\n"
        assert "DET004" in rules_fired(src, "repro.workloads.x")

    def test_det004_silent_at_executor_boundary(self):
        # The executor layer owns the env knobs by design.
        src = "import os\ndef f():\n    return os.environ.get('REPRO_JOBS')\n"
        assert "DET004" not in rules_fired(src, "repro.sim.executor2")

    # -- DET005 ------------------------------------------------------------

    def test_det005_fires_on_builtin_hash(self):
        src = "def f(s):\n    return hash(s) % 8\n"
        assert "DET005" in rules_fired(src, "repro.common.x")

    def test_det005_silent_on_stable_hash(self):
        src = (
            "from repro.common.rng import stable_hash32\n"
            "def f(s):\n    return stable_hash32(s) % 8\n"
        )
        assert "DET005" not in rules_fired(src, "repro.common.x")

    # -- KEY001 ------------------------------------------------------------

    def test_key001_fires_on_unfrozen_dataclass(self):
        src = "from dataclasses import dataclass\n@dataclass\nclass C:\n    x: int = 0\n"
        assert "KEY001" in rules_fired(src, "repro.common.config")

    def test_key001_fires_on_mutable_default(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\nclass C:\n    xs: list = []\n"
        )
        assert "KEY001" in rules_fired(src, "repro.common.config")

    def test_key001_fires_on_tracer_field(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\nclass C:\n    tracer: object = None\n"
        )
        assert "KEY001" in rules_fired(src, "repro.common.config")

    def test_key001_fires_on_attrib_field(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\nclass C:\n    attrib: object = None\n"
        )
        assert "KEY001" in rules_fired(src, "repro.common.config")

    def test_key001_fires_on_mutation_outside_post_init(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\nclass C:\n    x: int = 0\n"
            "    def bump(self):\n        object.__setattr__(self, 'x', 2)\n"
        )
        assert "KEY001" in rules_fired(src, "repro.common.config")

    def test_key001_silent_on_compliant_config(self):
        src = (
            "from dataclasses import dataclass, field\n"
            "@dataclass(frozen=True)\nclass C:\n"
            "    x: int = 0\n    xs: tuple = ()\n"
            "    def __post_init__(self):\n"
            "        object.__setattr__(self, 'x', max(self.x, 1))\n"
        )
        assert rules_fired(src, "repro.common.config") == set()

    def test_key001_scoped_to_config_module(self):
        src = "from dataclasses import dataclass\n@dataclass\nclass C:\n    x: int = 0\n"
        assert "KEY001" not in rules_fired(src, "repro.sim.results2")

    # -- OBS001 ------------------------------------------------------------

    def test_obs001_fires_on_literal_kind(self):
        for call in ("tr.emit(3, 0, 1)", "tr.emit('l1_miss', 0)", "tr.emit(kind=7)"):
            src = f"def f(tr):\n    {call}\n"
            assert "OBS001" in rules_fired(src, "repro.mem.x"), call

    def test_obs001_silent_on_eventkind_constant(self):
        src = (
            "from repro.obs.events import L1_MISS\n"
            "def f(tr):\n    tr.emit(L1_MISS, 0, 1)\n"
        )
        assert "OBS001" not in rules_fired(src, "repro.mem.x")

    # -- EXC001 ------------------------------------------------------------

    def test_exc001_fires_on_blanket_handlers(self):
        for clause in ("except:", "except Exception:", "except (ValueError, Exception):"):
            src = f"def f():\n    try:\n        pass\n    {clause}\n        pass\n"
            assert "EXC001" in rules_fired(src, "repro.sim.x"), clause

    def test_exc001_silent_on_typed_handler(self):
        src = "def f():\n    try:\n        pass\n    except (OSError, ValueError):\n        pass\n"
        assert "EXC001" not in rules_fired(src, "repro.sim.x")


# ---------------------------------------------------------------------------
# suppression: allow tags
# ---------------------------------------------------------------------------


class TestAllowTags:
    def test_tag_on_same_line_suppresses(self):
        src = (
            "import time\n"
            "def f():\n"
            "    return time.perf_counter()  # lint: allow(DET001 host timing)\n"
        )
        findings, suppressed = lint_source(src, module="repro.core.x")
        assert findings == [] and suppressed == 1

    def test_tag_on_line_above_suppresses(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        pass\n"
            "    # lint: allow(EXC001 isolation boundary)\n"
            "    except Exception:\n"
            "        pass\n"
        )
        findings, suppressed = lint_source(src, module="repro.sim.x")
        assert findings == [] and suppressed == 1

    def test_tag_without_reason_does_not_suppress(self):
        src = (
            "import time\n"
            "def f():\n"
            "    return time.perf_counter()  # lint: allow(DET001)\n"
        )
        findings, suppressed = lint_source(src, module="repro.core.x")
        assert [f.rule for f in findings] == ["DET001"] and suppressed == 0

    def test_tag_for_other_rule_does_not_suppress(self):
        src = (
            "import time\n"
            "def f():\n"
            "    return time.perf_counter()  # lint: allow(EXC001 wrong rule)\n"
        )
        findings, _ = lint_source(src, module="repro.core.x")
        assert [f.rule for f in findings] == ["DET001"]

    def test_tag_inside_string_literal_is_not_a_tag(self):
        src = 'TAG = "# lint: allow(DET001 not a comment)"\n'
        assert parse_allow_tags(src) == {}

    def test_multiple_tags_in_one_comment(self):
        tags = parse_allow_tags(
            "x = 1  # lint: allow(DET001 one) allow(EXC001 two)\n"
        )
        assert tags == {1: {"DET001": "one", "EXC001": "two"}}


# ---------------------------------------------------------------------------
# engine: module names, paths, baseline
# ---------------------------------------------------------------------------


class TestEngine:
    def test_module_name_resolves_from_repro_component(self):
        assert module_name(Path("src/repro/mem/cache.py")) == "repro.mem.cache"
        assert module_name(Path("src/repro/lint/__init__.py")) == "repro.lint"
        assert module_name(Path("/tmp/foo/bar.py")) == "bar"

    def test_syntax_error_is_usage_error(self):
        with pytest.raises(LintError, match="does not parse"):
            lint_source("def f(:\n", path="broken.py")

    def test_unknown_rule_is_usage_error(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        with pytest.raises(LintError, match="unknown rule"):
            lint_paths([tmp_path], rules=["NOPE99"])

    def test_missing_path_is_usage_error(self):
        with pytest.raises(LintError, match="no such file"):
            lint_paths([Path("does/not/exist")])

    def test_rule_restriction(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "import random\n"
            "def f():\n"
            "    try:\n"
            "        return random.random()\n"
            "    except Exception:\n"
            "        return None\n"
        )
        report = lint_paths([tmp_path], rules=["EXC001"])
        assert {f.rule for f in report.findings} == {"EXC001"}

    def test_baseline_suppresses_matching_finding(self, tmp_path):
        (tmp_path / "a.py").write_text("import random\nx = random.random()\n")
        base = tmp_path / "base.json"
        base.write_text(json.dumps({
            "version": 1,
            "entries": [{"rule": "DET002", "path": "a.py", "line": 2,
                         "reason": "pre-existing, tracked"}],
        }))
        report = lint_paths([tmp_path], baseline=base)
        assert report.findings == []
        assert report.n_baselined == 1
        assert report.stale_baseline == []
        assert report.exit_code == 0

    def test_baseline_reports_stale_entries(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        base = tmp_path / "base.json"
        base.write_text(json.dumps({
            "version": 1,
            "entries": [{"rule": "DET002", "path": "a.py", "line": 99,
                         "reason": "was fixed since"}],
        }))
        report = lint_paths([tmp_path], baseline=base)
        assert len(report.stale_baseline) == 1
        assert "stale" in report.render_text()

    def test_baseline_entry_without_reason_is_rejected(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps({
            "version": 1,
            "entries": [{"rule": "DET002", "path": "a.py", "line": 2,
                         "reason": "  "}],
        }))
        with pytest.raises(LintError, match="no reason"):
            load_baseline(base)

    def test_baseline_bad_shape_is_rejected(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"version": 2, "entries": []}))
        with pytest.raises(LintError, match="version 1"):
            load_baseline(base)

    def test_written_baseline_needs_justification_before_use(self, tmp_path):
        (tmp_path / "a.py").write_text("import random\nx = random.random()\n")
        report = lint_paths([tmp_path])
        base = tmp_path / "base.json"
        write_baseline(report.findings, base, tmp_path)
        # Freshly generated entries carry TODO reasons on purpose: the
        # loader rejects them until a human justifies each one.
        with pytest.raises(LintError, match="TODO|no reason"):
            load_baseline(base)


# ---------------------------------------------------------------------------
# CLI: the 0/1/2 convention
# ---------------------------------------------------------------------------


class TestLintCli:
    def test_clean_file_exits_0(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("def f(x):\n    return x + 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_seeded_violation_exits_1_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n\ndef f():\n    return random.random()\n")
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert f"{bad}:4:" in out and "DET002" in out

    def test_unknown_rule_exits_2(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["lint", str(tmp_path), "--rule", "NOPE99"]) == 2
        assert "lint:" in capsys.readouterr().err

    def test_missing_path_exits_2(self, capsys):
        assert main(["lint", "no/such/dir"]) == 2
        assert "lint:" in capsys.readouterr().err

    def test_unjustified_baseline_exits_2(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text("x = 1\n")
        base = tmp_path / "base.json"
        base.write_text(json.dumps({
            "version": 1,
            "entries": [{"rule": "EXC001", "path": "a.py", "line": 1,
                         "reason": ""}],
        }))
        assert main(["lint", str(tmp_path), "--baseline", str(base)]) == 2
        assert "no reason" in capsys.readouterr().err

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\nx = random.random()\n")
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert doc["findings"][0]["rule"] == "DET002"

    def test_rule_flag_accepts_commas_and_repeats(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import random\nx = random.random()\nh = hash('x')\n"
        )
        assert main(["lint", str(tmp_path), "--rule", "DET005,OBS001",
                     "--rule", "EXC001"]) == 1
        out = capsys.readouterr().out
        assert "DET005" in out and "DET002" not in out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.id in out

    def test_write_baseline_roundtrip(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\nx = random.random()\n")
        base = tmp_path / "base.json"
        assert main(["lint", str(tmp_path), "--write-baseline", str(base)]) == 0
        doc = json.loads(base.read_text())
        assert doc["entries"][0]["rule"] == "DET002"
        assert "TODO" in doc["entries"][0]["reason"]

    def test_merged_tree_is_clean(self, capsys):
        """The acceptance gate: `repro lint src/` exits 0 on this tree."""
        rc = main(["lint", str(REPO_ROOT / "src"),
                   "--baseline", str(REPO_ROOT / "lint-baseline.json")])
        assert rc == 0, capsys.readouterr().out
