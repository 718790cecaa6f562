import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_matrix.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_matrix", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "old, new, verdict",
    [
        ("a,b\n1,2.5\n", "a,b\n1,2.5\n", "same"),
        ("a,b\n1,2.5\n", "a,b\n1.25,2\n", "0.5"),  # the largest numeric difference
        ("a,b\nnan,1\n", "a,b\nnan,1.0\n", "0"),  # NaN to NaN, and equal numbers
        ("a,b\nnan,1\n", "a,b\n0.5,1\n", "differs: 'nan' -> '0.5'"),
        ("a,b\n0.5,1\n", "a,b\nnan,1\n", "differs: '0.5' -> 'nan'"),
        ("key = fit\n", "key = sample\n", "differs: 'fit' -> 'sample'"),
        ("a,b\n1,2\n", "a,b\n1,2\n3,4\n", "differs: 4 cells -> 6"),
    ],
)
def test_compare_reports_what_differs(tmp_path, old, new, verdict):
    (tmp_path / "old.csv").write_text(old)
    (tmp_path / "new.csv").write_text(new)
    assert load_tool().compare(tmp_path / "old.csv", tmp_path / "new.csv") == verdict


def test_compare_names_the_side_that_has_the_file(tmp_path):
    tool = load_tool()
    (tmp_path / "here.csv").write_text("1\n")
    assert tool.compare(tmp_path / "here.csv", tmp_path / "gone.csv") == "only in old"
    assert tool.compare(tmp_path / "gone.csv", tmp_path / "here.csv") == "only in new"


def test_main_wants_two_trees(capsys):
    assert load_tool().main(["src"]) == 2
    assert "usage" in capsys.readouterr().err
