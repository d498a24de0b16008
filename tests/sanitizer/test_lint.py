"""The TM001-TM004 analyzer rules: each demonstrated on a negative fixture."""

from pathlib import Path

from repro.analysis import analyze_paths, analyze_source, parse_rules

FIXTURES = Path(__file__).parent / "fixtures"
LINT_RULES = parse_rules("TM001-TM004")


def lint_paths(paths):
    findings, _ = analyze_paths(paths, LINT_RULES)
    return findings


def lint_source(source, path):
    return analyze_source(source, path, LINT_RULES)


def codes(errors):
    return sorted({e.rule for e in errors})


class TestNegativeFixtures:
    def test_tm001_ambient_entropy(self):
        errors = lint_paths([FIXTURES / "cc" / "tm001_bad_entropy.py"])
        assert codes(errors) == ["TM001"]
        assert len(errors) >= 3  # import time, random.random, time.time
        assert any("random.random" in e.message for e in errors)

    def test_tm002_mutable_default(self):
        errors = lint_paths([FIXTURES / "misc" / "tm002_bad_default.py"])
        assert codes(errors) == ["TM002"]
        assert len(errors) == 2  # list literal + dict() call

    def test_tm003_undeclared_hot_path_mutation(self):
        errors = lint_paths([FIXTURES / "runtime" / "tm003_bad_backend.py"])
        assert codes(errors) == ["TM003"]
        roots = {e.message.split("'")[1] for e in errors}
        assert roots == {"self.global_clock", "self.readers"}

    def test_tm004_unfrozen_record(self):
        errors = lint_paths([FIXTURES / "cc" / "tm004_bad_record.py"])
        assert codes(errors) == ["TM004"]
        assert {e.message.split("'")[1] for e in errors} == {
            "LeakyView",
            "MutableTrace",
        }

    def test_suppression_marker(self):
        errors = lint_paths([FIXTURES / "cc" / "suppressed_ok.py"])
        assert errors == []


class TestScoping:
    def test_tm001_only_inside_validator_dirs(self):
        source = "import time\n\nSTAMP = time.time()\n"
        assert lint_source(source, "src/repro/cc/clock.py")
        assert lint_source(source, "src/repro/bench.py") == []

    def test_tm001_allows_injected_random(self):
        source = (
            "from random import Random\n\n"
            "def make(seed):\n    return Random(seed)\n"
        )
        assert lint_source(source, "src/repro/cc/trace.py") == []

    def test_tm004_only_inside_record_dirs(self):
        source = (
            "from dataclasses import dataclass\n\n"
            "@dataclass\nclass PlotView:\n    x: int\n"
        )
        assert lint_source(source, "src/repro/cc/views.py")
        assert lint_source(source, "src/repro/plots.py") == []

    def test_tm003_declaration_silences(self):
        bad = (
            "class CountingBackend:\n"
            "    def __init__(self):\n"
            "        self.hits = 0\n"
            "    def read(self, tid, addr, now):\n"
            "        self.hits += 1\n"
            "        return 0, now\n"
        )
        assert lint_source(bad, "src/repro/runtime/x.py")
        declared = bad.replace(
            "class CountingBackend:\n",
            "class CountingBackend:\n    _sanitizer_locked = (\"hits\",)\n",
        )
        assert lint_source(declared, "src/repro/runtime/x.py") == []

    def test_syntax_error_reported_not_raised(self):
        errors = lint_source("def broken(:\n", "src/repro/cc/x.py")
        assert len(errors) == 1 and errors[0].rule == "TM000"


class TestRepoIsClean:
    def test_src_lints_clean(self):
        root = Path(__file__).resolve().parents[2] / "src"
        assert lint_paths([root]) == []
