import pytest

from polyface import faces
from polyface.scenarios import run_scenario


@pytest.mark.parametrize(
    "name, param, lps",
    [("corollary-3n-face", 2, 8), ("corollary-3n-face", 3, 56), ("nonisomorphism", 3, 2)],
    ids=["corollary-k2", "corollary-k3", "nonisomorphism"],
)
def test_scenario_solves_each_support_lp_once(name, param, lps, monkeypatch):
    """corollary-3n-face: one LP per standalone triple, shared by its scan and lift
    steps, plus the k = 2 direct cross-check; nonisomorphism: its two triple scans,
    where coordinate fixings certify every triple but the two phi(3) non-faces."""
    calls = []
    solve = faces.lp_solve

    def counting_lp_solve(lp, *args, **kwargs):
        calls.append(lp)
        return solve(lp, *args, **kwargs)

    monkeypatch.setattr(faces, "lp_solve", counting_lp_solve)
    assert run_scenario(name, param).passed
    assert len(calls) == lps
