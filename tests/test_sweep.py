"""The memo search's verdicts on the committed sweep (``tests/sweep.py``)."""

from tests import sweep


def test_memo_verdicts_hold_against_the_stored_sweep():
    # the rules live here, not in the data: a reachable case must reach in the reference at the cap, an
    # unreachable-within-bound one must not reach even at cap + 3, and a stored status may only become decided;
    # the at-cap column is recomputed, so the data cannot drift from the reference
    stored = sweep.load()
    cases = sweep.cases()
    assert cases.keys() == stored.keys()
    wrong = []
    for case, args in cases.items():
        status = sweep.memo_status(*args)
        was, at_cap, past_cap = stored[case]
        if sweep.reference_reaches(*args) != at_cap:
            wrong.append(f"{case}: the reference at the cap no longer gives the stored {at_cap}")
        if status == "reachable" and not at_cap:
            wrong.append(f"{case}: reachable, but the reference does not reach at the cap")
        if status == "unreachable-within-bound" and past_cap:
            wrong.append(f"{case}: unreachable-within-bound, but the reference reaches at cap + 3")
        if status != was and was != "inconclusive":
            wrong.append(f"{case}: stored {was}, now {status}")
    assert not wrong, f"{len(wrong)} cases break the sweep's rules:\n" + "\n".join(wrong)
