"""Shared test fixtures."""

import json

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps module.name; the returned list grows by one per call."""

    def install(module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install


@pytest.fixture
def table_solves(monkeypatch):
    """The method of each report that an entry of analysis's route table solves,
    one per solve, from here on."""
    from qcrb import analysis

    solved = []

    def counted(solve):
        def run(fd, wt):
            report = solve(fd, wt)
            solved.append(report.method)
            return report
        return run

    monkeypatch.setattr(analysis, "_ROUTES",
                        tuple((applies, counted(solve)) for applies, solve in analysis._ROUTES))
    return solved


@pytest.fixture
def cli_error(tmp_path, capsys):
    """cli_error(argv, config=None) runs qcrb in process, with `config` (a JSON
    document) written to a file and passed as --config; it returns the exit
    code, stdout and the error JSON on stderr."""
    from qcrb import cli

    def run(argv, config=None):
        argv = [str(a) for a in argv]
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        return code, out, json.loads(err)

    return run
