import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
REPORTS = ROOT / "reports"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dimension_table_passes_when_the_routes_agree(capsys):
    table = load_script("dimension_table")
    assert table.main(["--max-n", "3"]) == 0
    assert "<-" not in capsys.readouterr().out


@pytest.mark.parametrize("name, marker", [
    ("quotient_dim", "ROUTES DISAGREE"),
    ("center_dim_formula", "FORMULA DIFFERS"),
])
def test_dimension_table_fails_on_a_disagreement(capsys, monkeypatch, name, marker):
    table = load_script("dimension_table")
    original = getattr(table, name)
    monkeypatch.setattr(table, name, lambda *args, **kwargs: original(*args, **kwargs) + 1)
    assert table.main(["--max-n", "3"]) == 1
    assert marker in capsys.readouterr().out


def test_conjecture_report_reproduces_the_archived_reports(tmp_path, capsys):
    report = load_script("conjecture_report")
    report.main(["--max-n", "5", "--reports-dir", str(tmp_path)])
    archived = sorted(path.name for path in REPORTS.iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == archived
    for name in archived:
        assert (tmp_path / name).read_bytes() == (REPORTS / name).read_bytes(), name
