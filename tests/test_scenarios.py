from dataclasses import replace

import pytest

from polyface import faces, scenarios
from polyface.maps import prop1_projection
from polyface.scenarios import run_scenario, scenario_prop1


@pytest.mark.parametrize(
    "name, param, lps",
    [("corollary-3n-face", 2, 0), ("corollary-3n-face", 3, 8), ("nonisomorphism", 3, 1)],
    ids=["corollary-k2", "corollary-k3", "nonisomorphism"],
)
def test_scenario_solves_each_support_lp_once(name, param, lps, monkeypatch):
    """corollary-3n-face: one LP per standalone triple whose coordinate face holds a
    vertex more than the triple (none of the 4 at k = 2, 8 of the 56 at k = 3), shared
    by its scan and lift steps, and fixings for every other triple and for the k = 2
    direct cross-check; nonisomorphism: its two triple scans, by orbits, where coordinate
    fixings certify every representative but the one orbit of the two phi(3) non-faces."""
    calls = []
    solve = faces.lp_solve

    def counting_lp_solve(lp, *args, **kwargs):
        calls.append(lp)
        return solve(lp, *args, **kwargs)

    monkeypatch.setattr(faces, "lp_solve", counting_lp_solve)
    assert run_scenario(name, param).passed
    assert len(calls) == lps


def test_prop1_rejects_an_image_that_is_not_0_1(monkeypatch):
    """With the projection's first entry doubled, the images of the vertices through
    that column hold a 2 where the edge matrix holds a 1, so neither step passes."""
    pmap = prop1_projection(4)
    (r, j, x), *rest = pmap.entries
    doubled = replace(pmap, entries=((r, j, 2 * x), *rest))
    monkeypatch.setattr(scenarios, "prop1_projection", lambda n: doubled)
    steps = {step.name: step.passed for step in scenario_prop1(4)}
    assert steps == {
        "label-respecting projection": False,
        "surjectivity onto the edge-permutation vertices": False,
    }
