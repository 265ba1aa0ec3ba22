import csv
import pathlib
import runpy

import pytest

from sslgauss.theory import RegionLabel

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def test_phase_map_grid(tmp_path, capsys):
    out = tmp_path / "phase.csv"
    assert phase_map_main()(["--alpha", "0.4", "--resolution", "5", "--out", str(out)]) == 0
    assert str(out) in capsys.readouterr().out
    header, *rows = list(csv.reader(out.open()))
    # gamma columns at linspace(0, 3, 5), beta rows at linspace(0, 1, 5)
    assert header == ["beta\\gamma", "0.0000", "0.7500", "1.5000", "2.2500", "3.0000"]
    assert [row[0] for row in rows] == ["0.0000", "0.2500", "0.5000", "0.7500", "1.0000"]
    assert all(len(row) == 6 for row in rows)
    labels = {label.value for label in RegionLabel}
    assert all(cell in labels for row in rows for cell in row[1:])
    assert rows[2][3] == RegionLabel.SSL_EASY_BLUE.value   # beta 0.5, gamma 1.5
    assert rows[0][3] == RegionLabel.HARD_ORANGE.value     # beta 0, gamma 1.5


def phase_map_main():
    return runpy.run_path(str(SCRIPTS / "phase_map.py"))["main"]


@pytest.mark.parametrize("resolution", ["0", "-2"])
def test_phase_map_rejects_a_resolution_below_one(tmp_path, capsys, resolution):
    # 0 used to write a header-only CSV, -2 to end in a numpy traceback
    out = tmp_path / "phase.csv"
    with pytest.raises(SystemExit) as exc:
        phase_map_main()(["--resolution", resolution, "--out", str(out)])
    assert exc.value.code == 2
    assert "--resolution" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", [("--alpha", "0.6"), ("--beta-max", "-1")])
def test_phase_map_reports_a_domain_error(tmp_path, capsys, flag):
    # alpha = 0.6 used to end in a ContractError traceback after the header
    # was written
    out = tmp_path / "phase.csv"
    assert phase_map_main()([*flag, "--resolution", "5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()
