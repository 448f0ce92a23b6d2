import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
