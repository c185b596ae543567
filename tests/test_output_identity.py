"""The comparison logic of scripts/output_identity.py on hand-made output
directories; no git export and no CLI run."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_identity.py"
spec = importlib.util.spec_from_file_location("output_identity", SCRIPT)
output_identity = sys.modules["output_identity"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_identity)
Run, compare_runs = output_identity.Run, output_identity.compare_runs

TABLE = "i,coupled_re,coupled_im\n0,0.66151696999999998,0\n1,1.5,-2.5e-08\n"


def make_run(root: Path, name: str, files: dict, code: int = 0, stdout: str = "mu1 = 0.66\n"):
    out = root / name
    out.mkdir()
    for fname, text in files.items():
        (out / fname).write_text(text)
    return Run(code, stdout, out)


def base_files(out: str) -> dict:
    return {
        "eigentable.csv": TABLE,
        "config.json": f'{{\n  "b": 0.5,\n  "out": "{out}"\n}}\n',
        "timing.jsonl": '{"wall_time_ms": 1.0}\n',
    }


def test_identical_runs_match_apart_from_out_and_timing(tmp_path):
    base = make_run(tmp_path, "base", base_files("base"))
    head_files = base_files("head") | {"timing.jsonl": '{"wall_time_ms": 7.5}\n'}
    same, lines = compare_runs(base, make_run(tmp_path, "head", head_files))
    assert same
    assert "eigentable.csv: identical" in lines and "config.json: identical" in lines
    assert not any("timing" in line for line in lines)


def test_one_ulp_change_differs_unless_within_rounding(tmp_path):
    base = make_run(tmp_path, "base", base_files("base"))
    # one ulp up, as fmt_g17 writes it
    nudged = TABLE.replace("0.66151696999999998", "0.66151697000000009")
    head = make_run(tmp_path, "head", base_files("head") | {"eigentable.csv": nudged})
    same, lines = compare_runs(base, head)
    assert not same
    [line] = [line for line in lines if line.startswith("eigentable.csv")]
    assert "differs" in line and "max rel diff 1.678e-16" in line
    same, lines = compare_runs(base, head, rtol=1e-12)
    assert same
    assert any(line.startswith("eigentable.csv: within rounding") for line in lines)


@pytest.mark.parametrize("head_code, head_stdout", [(1, "mu1 = 0.66\n"), (0, "mu1 = 0.67\n"),
                                                    (0, "verdict: inconclusive\n")],
                         ids=["exit-code", "stdout-number", "stdout-text"])
def test_changed_exit_code_or_stdout_differs(tmp_path, head_code, head_stdout):
    base = make_run(tmp_path, "base", base_files("base"))
    head = make_run(tmp_path, "head", base_files("head"), head_code, head_stdout)
    assert not compare_runs(base, head)[0]


def test_missing_file_and_uncreated_out_differ(tmp_path):
    base = make_run(tmp_path, "base", base_files("base"))
    files = base_files("head")
    del files["eigentable.csv"]
    same, lines = compare_runs(base, make_run(tmp_path, "head", files), rtol=1.0)
    assert not same and "eigentable.csv: only in base" in lines
    # a config error creates no --out on either side: exit code and stdout decide
    never = Run(1, "", tmp_path / "never-base"), Run(1, "", tmp_path / "never-head")
    assert compare_runs(*never)[0]
    assert not compare_runs(never[0], Run(1, "", base.out))[0]


def test_text_difference_needs_the_same_text_around_the_numbers():
    assert output_identity.text_difference("a 1.0 b nan", "a 1.5 b nan") == (0.5, 0.5 / 1.5)
    assert output_identity.text_difference("stable 1.0", "unstable 1.0") is None
    assert output_identity.text_difference("mu1 nan", "mu1 0.5") == (float("inf"),) * 2


def test_every_script_case_names_a_script():
    assert output_identity.SCRIPT_CASES
    for name, script, _ in output_identity.SCRIPT_CASES:
        assert (SCRIPT.parent / script).is_file(), name
