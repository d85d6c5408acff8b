"""SEED1xx: project-wide seed-stream discipline over synthetic packages."""

from repro.analysis import SimLintConfig
from repro.analysis.seed_rules import SEED_RULES


def test_clean_streams_have_no_seed_findings(lint_project):
    findings = lint_project(
        {
            "sim/a.py": """
                def setup(streams):
                    return streams.stream("a.events")
            """,
            "sim/b.py": """
                def setup(streams, wid):
                    return streams.stream(f"b.worker.{wid}")
            """,
        },
        rules=SEED_RULES,
    )
    assert findings == []


# -- SEED101 -----------------------------------------------------------------


def test_seed101_flags_cross_module_literal_collision(lint_project):
    findings = lint_project(
        {
            "sim/a.py": 'def f(s):\n    return s.stream("shared.name")\n',
            "faas/b.py": 'def g(s):\n    return s.stream("shared.name")\n',
        },
        rules=SEED_RULES,
    )
    assert [f.rule for f in findings] == ["SEED101", "SEED101"]
    assert {f.module for f in findings} == {"sim/a.py", "faas/b.py"}
    # each site names the other module so the fix is obvious from either end
    by_module = {f.module: f.message for f in findings}
    assert "sim/a.py" in by_module["faas/b.py"]
    assert "faas/b.py" in by_module["sim/a.py"]


def test_seed101_allows_repeats_within_one_module(lint_project):
    findings = lint_project(
        {
            "sim/a.py": """
                def f(s):
                    return s.stream("a.events")

                def g(s):
                    return s.stream("a.events")
            """,
        },
        rules=SEED_RULES,
    )
    assert findings == []


def test_seed101_sees_through_placeholder_free_fstrings(lint_project):
    # an f-string with no placeholder is a constant in disguise: it both
    # collides (SEED101, on each side) and misleads (SEED102, where used)
    findings = lint_project(
        {
            "sim/a.py": 'def f(s):\n    return s.stream("x.y")\n',
            "faas/b.py": 'def g(s):\n    return s.stream(f"x.y")\n',
        },
        rules=SEED_RULES,
    )
    assert sorted(f.rule for f in findings) == ["SEED101", "SEED101", "SEED102"]


# -- SEED102 -----------------------------------------------------------------


def test_seed102_flags_fstring_without_placeholder(lint_project):
    findings = lint_project(
        {"sim/a.py": 'def f(s):\n    return s.stream(f"static.name")\n'},
        rules=SEED_RULES,
    )
    assert [f.rule for f in findings] == ["SEED102"]


def test_seed102_flags_constant_concatenation(lint_project):
    findings = lint_project(
        {"sim/a.py": 'def f(s):\n    return s.stream("static" + ".name")\n'},
        rules=SEED_RULES,
    )
    assert [f.rule for f in findings] == ["SEED102"]


def test_seed102_allows_placeholder_and_variable_concat(lint_project):
    findings = lint_project(
        {
            "sim/a.py": """
                def f(s, wid):
                    a = s.stream(f"worker.{wid}")
                    b = s.stream("worker." + str(wid))
                    return a, b
            """,
        },
        rules=SEED_RULES,
    )
    assert findings == []


# -- SEED103 -----------------------------------------------------------------


def test_seed103_flags_aliased_default_rng(lint_project):
    findings = lint_project(
        {
            "sim/a.py": """
                import numpy as np

                make = np.random.default_rng

                def f(seed):
                    return make(seed)
            """,
        },
        rules=SEED_RULES,
    )
    assert [f.rule for f in findings] == ["SEED103"]
    assert "default_rng" in findings[0].message


def test_seed103_flags_generator_class_construction(lint_project):
    findings = lint_project(
        {
            "sim/a.py": """
                from numpy.random import Generator, PCG64

                def f(seed):
                    return Generator(PCG64(seed))
            """,
        },
        rules=SEED_RULES,
    )
    assert sorted(f.rule for f in findings) == ["SEED103", "SEED103"]


def test_seed103_leaves_direct_default_rng_to_sim002(lint_project):
    # the direct call is SIM002's finding; SEED103 must not double-report
    findings = lint_project(
        {
            "sim/a.py": """
                import numpy as np

                def f(seed):
                    return np.random.default_rng(seed)
            """,
        },
        rules=SEED_RULES,
    )
    assert findings == []


def test_seed103_direct_call_still_caught_by_sim002_in_full_run(lint_project):
    findings = lint_project(
        {
            "sim/a.py": """
                import numpy as np

                def f(seed):
                    return np.random.default_rng(seed)
            """,
        },
    )
    assert [f.rule for f in findings] == ["SIM002"]


def test_seed103_allows_construction_in_factory_modules(lint_project):
    config = SimLintConfig(allow={"sim/rand.py": ("SIM002",)})
    findings = lint_project(
        {
            "sim/rand.py": """
                from numpy.random import Generator, PCG64

                def child(seed):
                    return Generator(PCG64(seed))
            """,
        },
        rules=SEED_RULES,
        config=config,
    )
    assert findings == []
