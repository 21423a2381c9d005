"""Charts built from nilpotent Lie algebras are locally Lie groups.

``conftest.nilpotent_chart_document`` writes the left-invariant frame of a
nilpotent Lie group in coordinates of the second kind, with Fractions
only; flatcheck must find every such chart homogeneous, with every exact
residual zero.
"""

from __future__ import annotations

import pytest

from flatcheck.charts_io import chart_from_json
from flatcheck.forms import identity_report

from conftest import NILPOTENT_ALGEBRAS, nilpotent_chart_document


@pytest.mark.parametrize("name", sorted(NILPOTENT_ALGEBRAS))
def test_nilpotent_second_kind_chart_is_homogeneous(name):
    doc = nilpotent_chart_document(name)
    report = identity_report(chart_from_json(doc))
    assert report["backend"] == "exact"
    assert report["locally_homogeneous"] is True and report["max_R"] == 0.0
    assert all(value == 0.0 for value in report["residuals"].values()), report["residuals"]


def test_transposed_frame_is_not_homogeneous():
    # the verdict is not vacuous on this family: the transpose of the nil5
    # frame, whose entries reach degree 2, is curved
    doc = nilpotent_chart_document("nil5")
    doc["frame"] = [list(column) for column in zip(*doc["frame"])]
    report = identity_report(chart_from_json(doc))
    assert report["backend"] == "exact"
    assert report["locally_homogeneous"] is False and report["max_R"] > 0.0
