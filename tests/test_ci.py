"""The CI workflow and every entry point it runs must load.

GitHub runs no job of a workflow file it cannot parse, and says so only on
the workflow's page, so an invalid ``ci.yml`` turns CI off without failing
anything.  These tests parse the workflow and resolve every library name
its steps and the package's console scripts reach.
"""

import importlib
import re
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

_FROM_IMPORT = re.compile(r"from (repro(?:\.\w+)*) import (\w+)")
_RUN_MODULE = re.compile(r"python3? -m (repro(?:\.\w+)*)")


def _workflow() -> dict:
    with WORKFLOW.open() as fh:
        return yaml.safe_load(fh)


def _run_steps() -> list[str]:
    return [
        step["run"]
        for job in _workflow()["jobs"].values()
        for step in job["steps"]
        if "run" in step
    ]


def test_workflow_parses_and_every_job_runs_a_command():
    workflow = _workflow()
    # YAML 1.1 reads the bare key ``on`` as the boolean True.
    assert True in workflow
    assert workflow["jobs"]
    for name, job in workflow["jobs"].items():
        assert any("run" in step for step in job["steps"]), name


def test_every_library_name_a_step_runs_resolves():
    imports = modules = 0
    for run in _run_steps():
        for module, name in _FROM_IMPORT.findall(run):
            assert callable(getattr(importlib.import_module(module), name))
            imports += 1
        for module in _RUN_MODULE.findall(run):
            importlib.import_module(module)
            modules += 1
    # Both patterns still match what the workflow runs.
    assert imports and modules


def test_every_console_script_resolves():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with (ROOT / "pyproject.toml").open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
