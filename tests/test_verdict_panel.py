"""A subset of the committed verdict panel (tests/verdict_panel.py) against its golden rows."""

import verdict_panel


def test_subset_matches_the_golden_rows():
    names = set(verdict_panel.SUBSET)
    golden = [out for out in verdict_panel.load_golden() if out["name"] in names]
    assert {out["name"] for out in golden} == names
    current = verdict_panel.outputs(names)
    assert len(current) == len(golden) == len(names) * len(verdict_panel.SING_TOLS)
    assert verdict_panel.compare(golden, current) == []


def test_compare_applies_the_panel_rules():
    row = [1, 3, "invertible", 0.5, False, None]
    fired = [2, 5, "singular", 1e-14, True, True]
    golden = [{"name": "t", "sing_tol": 1e-10, "rows": [row, fired], "singular": [2], "passed": True}]

    def changed(rows=None, **fields):
        out = dict(golden[0], rows=rows or [row, fired])
        out.update(fields)
        return verdict_panel.compare(golden, [out])

    assert changed() == []
    # a fired ratio may move while it stays below sing_tol; any other ratio only within 1e-12
    assert changed([row, fired[:3] + [9e-11] + fired[4:]]) == []
    assert changed([row, fired[:3] + [1e-10] + fired[4:]])
    assert changed([row[:3] + [0.5 * (1 + 5e-13)] + row[4:], fired]) == []
    assert changed([row[:3] + [0.5 * (1 + 1e-9)] + row[4:], fired])
    assert changed([row[:2] + ["borderline"] + row[3:], fired])
    assert changed([row, fired[:5] + [False]])
    assert changed(singular=[])
    assert changed(passed=False)
    assert changed(rows=[row])
    assert verdict_panel.compare(golden, [])
