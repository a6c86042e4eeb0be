import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_mutants_apply_to_current_source(monkeypatch):
    """tools/mutants.py finds each seeded mutant's old string exactly once in
    the current source; an edit that moves one must update the table here,
    not at the next mutation run."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    import mutants

    assert len({m[0] for m in mutants.MUTANTS}) == len(mutants.MUTANTS) == 19
    for name, fname, old, new in mutants.MUTANTS:
        with open(os.path.join(ROOT, "src", "vropt", fname)) as fh:
            assert fh.read().count(old) == 1 and old != new, name
