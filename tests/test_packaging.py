import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PIN = re.compile(r"([A-Za-z0-9_.-]+)==([A-Za-z0-9_.+-]+)")


def test_ci_installs_the_pinned_test_extra():
    # CI installs the test tools by hand; the ``test`` extra of
    # pyproject.toml pins the same versions. Read as text: Python 3.10 has
    # no tomllib.
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    ci = [line for line in workflow.splitlines() if "pip install" in line]
    assert len(ci) == 1
    extra = re.search(r"^test = \[(.*)\]$", (ROOT / "pyproject.toml").read_text(), re.M)
    assert extra is not None
    assert dict(PIN.findall(extra.group(1))) == dict(PIN.findall(ci[0])) != {}


def version(text):
    return tuple(map(int, text.split(".")))


def test_ci_tests_the_lowest_supported_python():
    # The CI matrix starts at the lower bound of ``requires-python``.
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    matrix = re.search(r"^\s*python-version: \[(.*)\]$", workflow, re.M)
    floor = re.search(r'^requires-python = ">=([\d.]+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert matrix is not None and floor is not None
    assert min(map(version, re.findall(r'"([\d.]+)"', matrix.group(1)))) == version(floor.group(1))


def test_console_script_resolves_to_the_cli():
    # Every CI step runs ``python -m friendly_trees``, so only this test
    # reaches the ``[project.scripts]`` entry. Read as text: Python 3.10 has
    # no tomllib.
    from friendly_trees import cli

    entry = re.search(r'^friendly-trees = "([\w.]+):(\w+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert entry is not None
    module, attr = entry.groups()
    assert getattr(importlib.import_module(module), attr) is cli.main


def test_benchmark_tracer_patches_and_restores_the_library(monkeypatch):
    # perfbench/tracing.py patches library names from outside; a name it
    # patches that the library drops fails every traced benchmark run.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    importlib.import_module("workloads")
    modules = [importlib.import_module(f"friendly_trees.{layer}") for layer in tracing.LAYERS]

    def names():
        return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}

    before = names()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = {key for key, value in names().items() if value is not before.get(key)}
    finally:
        tracer.uninstall()
    assert len(patched) == 18
    after = names()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
