"""Unit tests for the ``repro`` command: the parser tree, the shared
writer, and the ``run`` subcommand."""

import argparse
import importlib
import tomllib
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO = Path(__file__).resolve().parents[1]


def test_list_workloads(capsys):
    assert main(["run", "--list"]) == 0
    out = capsys.readouterr().out
    assert "lr-criteo" in out and "pmf-ml10m" in out and "pmf-ml20m" in out


def test_parser_defaults():
    args = build_parser().parse_args(["run"])
    assert args.workload == "pmf-ml10m"
    assert args.system == "mlless"
    assert args.workers == 12
    assert args.v == 0.0
    assert not args.autotune


def test_parser_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--workload", "bert"])


def test_parser_rejects_unknown_system():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--system", "quantum"])


def test_cli_runs_small_mlless_job(capsys):
    code = main(
        [
            "run", "--workload", "pmf-ml10m", "--workers", "4",
            "--max-steps", "10", "--target", "-1.0",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "result" in out
    assert "cost breakdown" in out
    assert "functions" in out


@pytest.mark.parametrize(
    "flags, message",
    [
        # refused by the backend / the config, reported in their words
        (["--backend", "local", "--faults", "crash"],
         "the local backend cannot inject faults"),
        (["--backend", "procs", "--faults", "crash"],
         "the procs backend cannot inject faults"),
        (["--backend", "local", "--trace", "t.json"],
         "backend='local' does not support span tracing"),
        (["--backend", "procs", "--trace", "t.json"],
         "backend='procs' does not support span tracing"),
        (["--workers", "0"], "n_workers must be >= 1, got 0"),
        (["--system", "serverful", "--workers", "0"], "n_ranks must be >= 1"),
        # --system is a CLI-only concept: refused by the CLI
        (["--system", "pywren", "--faults", "crash"],
         "--faults is only supported with --system mlless"),
        (["--system", "serverful", "--trace", "t.json"],
         "--trace is only supported with --system mlless"),
        (["--system", "pywren", "--backend", "local"],
         "--backend local is only supported with --system mlless"),
    ],
)
def test_run_refusals_exit_2_with_one_error_line(flags, message, capsys, tmp_path,
                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--max-steps", "3", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())  # refused before anything was written


# ------------------------------------------------------------ the tree
def _leaves(parser, path=()):
    """``(path, parser, help)`` for every leaf subcommand of ``parser``."""
    groups = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield path, parser, None
        return
    for group in groups:
        helps = {a.dest: a.help for a in group._choices_actions}
        for name, child in group.choices.items():
            for leaf_path, leaf, leaf_help in _leaves(child, path + (name,)):
                yield leaf_path, leaf, leaf_help or helps.get(name)


def test_parser_tree_every_leaf_has_help_and_a_handler(capsys):
    leaves = {" ".join(path): (leaf, text)
              for path, leaf, text in _leaves(build_parser())}
    assert sorted(leaves) == sorted([
        "run",
        "scenario list", "scenario validate", "scenario run",
        "trace summary", "trace cost", "trace chrome",
        "lint", "determinism",
    ])
    for name, (leaf, text) in leaves.items():
        assert text, f"`repro {name}` has no help text"
        assert callable(leaf.get_default("handler")), name
        with pytest.raises(SystemExit) as exit_info:
            main([*name.split(), "--help"])
        assert exit_info.value.code == 0
        assert f"usage: repro {name}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv", [[], ["frobnicate"], ["trace"], ["bench"],
             ["scenario", "frobnicate"], ["--workload", "pmf-ml10m"]],
)
def test_unknown_or_missing_subcommand_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "usage: repro" in capsys.readouterr().err


def test_old_entry_points_are_gone():
    for name in ("repro.bench", "repro.platform.bench", "repro.platform.__main__",
                 "repro.scenarios.__main__", "repro.analysis.__main__",
                 "repro.trace.__main__", "repro.platform.cli"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(name)
    importlib.import_module("repro.__main__")
    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"repro": "repro.cli:main"}
    mains = sorted(p.relative_to(REPO).as_posix()
                   for p in (REPO / "src").rglob("__main__.py"))
    assert mains == ["src/repro/__main__.py"]
    constructions = [
        p.relative_to(REPO).as_posix()
        for p in (REPO / "src" / "repro").rglob("*.py")
        if "ArgumentParser(" in p.read_text(encoding="utf-8")
    ]
    assert constructions == ["src/repro/cli.py"]


def test_import_repro_loads_no_cli_module_and_only_the_cli_uses_argparse():
    # The sys.modules half (no cli module, no argparse after `import repro`)
    # is tests/test_startup_contract.py's; the source says who imports it.
    importers = [
        p.relative_to(REPO).as_posix()
        for p in (REPO / "src" / "repro").rglob("*.py")
        if "import argparse" in p.read_text(encoding="utf-8")
    ]
    assert importers == ["src/repro/cli.py"]


# ---------------------------------------------------------- the writer
@pytest.fixture(scope="module")
def trace_jsonl(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "run.trace.json"
    assert main(["run", "--workers", "2", "--max-steps", "3", "--target", "-1.0",
                 "--trace", str(path)]) == 0
    return str(path) + ".jsonl"


@pytest.fixture(scope="module")
def lint_target(tmp_path_factory):
    module = tmp_path_factory.mktemp("lint") / "mod.py"
    module.write_text("x = 1\n")
    return str(module)


@pytest.fixture(scope="module")
def quick_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "quick.toml"
    path.write_text(
        '[scenario]\nname = "quick"\nkind = "single-job"\n'
        '[workload]\nname = "pmf-ml10m"\nworkers = 2\nmax_steps = 3\n'
    )
    return str(path)


@pytest.mark.parametrize(
    "argv, filename",
    [
        ("run --workers 2 --max-steps 3 --target -1.0 --trace {out}/t.json",
         "t.json.jsonl"),
        ("scenario run {spec} --report {out}/kpi.json", "kpi.json"),
        ("trace chrome {trace} -o {out}/c.json", "c.json"),
        ("lint {lint} --output {out}/lint.txt", "lint.txt"),
    ],
    ids=["run --trace", "scenario run --report", "trace chrome -o",
         "lint --output"],
)
def test_every_output_flag_creates_parent_directories(
    argv, filename, tmp_path, trace_jsonl, lint_target, quick_spec
):
    out = tmp_path / "does" / "not" / "exist"
    argv = argv.format(out=out, trace=trace_jsonl, lint=lint_target, spec=quick_spec)
    assert main(argv.split()) == 0
    assert (out / filename).stat().st_size > 0
