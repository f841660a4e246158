"""Shared helpers: in-process CLI runner and schema validation."""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, settings

from fermatlab import records
from fermatlab.cli import main

# big-int cases vary wildly in size; wall-clock deadlines just add noise
settings.register_profile(
    "fermatlab",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fermatlab")


# the same with and without numpy: the crossover group runs either way
SELFTEST_CHECKS = 47


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str

    def json(self) -> dict:
        return json.loads(self.stdout)


def run_cli(*args: str) -> CliResult:
    """Drive cli.main in-process, capturing streams and exit code."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(args))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code=code, stdout=out.getvalue(), stderr=err.getvalue())


def run_cli_subprocess(*args: str, env=None) -> subprocess.CompletedProcess:
    """The real thing: a fresh interpreter running the module entry point."""
    return subprocess.run(
        [sys.executable, "-m", "fermatlab", *args],
        capture_output=True, text=True, env=env, timeout=600)


@pytest.fixture(scope="session")
def schema_validator():
    import jsonschema

    return jsonschema.Draft202012Validator(records.load_schema())


@pytest.fixture(scope="session")
def checkpoint_validator():
    import jsonschema

    schema = records.load_schema()
    sub = {
        "$schema": schema["$schema"],
        "$defs": schema["$defs"],
        "$ref": "#/$defs/checkpoint",
    }
    return jsonschema.Draft202012Validator(sub)
