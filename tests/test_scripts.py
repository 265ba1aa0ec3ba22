import csv
import pathlib
import runpy

from sslgauss.theory import RegionLabel

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def test_phase_map_grid(tmp_path, capsys):
    out = tmp_path / "phase.csv"
    main = runpy.run_path(str(SCRIPTS / "phase_map.py"))["main"]
    assert main(["--alpha", "0.4", "--resolution", "5", "--out", str(out)]) == 0
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
