"""The narrative demos run end to end.

Demos 01 (splines and solvers) and 04 (linear theory) take about a second
each, so they run here.  Demos 02 and 03 train models for minutes; the
acceptance criteria 1 and 2 train the same models at full protocol, so
the demos stay out of this suite.
"""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name,needles", [
    ("01_spline_and_solvers", ["solver convergence on dh/dt = -h",
                               "       32    3.001e-09    5.824e-03",
                               "d h(1) / d h(0) = 0.36787944"]),
    ("04_linear_theory", ["scalar ARE: P = 1.000000000000",
                          "T=8 receding-horizon decay"]),
])
def test_demo_runs(name, needles, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    out = capsys.readouterr().out
    for needle in needles:
        assert needle in out
