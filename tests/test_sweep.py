"""The memo search's verdicts on the committed sweep (``tests/sweep.py``)."""

from tests import sweep


def test_memo_verdicts_hold_against_the_stored_sweep():
    # the rules live here, not in the data: a decided status must agree with
    # the uncached reference, and a stored status may only become decided
    stored = sweep.load()
    cases = sweep.cases()
    assert cases.keys() == stored.keys()
    wrong = []
    for case, args in cases.items():
        status = sweep.memo_status(*args)
        was, reaches = stored[case]
        if status == "reachable" and not reaches:
            wrong.append(f"{case}: reachable, but the reference does not reach")
        if status == "unreachable-within-bound" and reaches:
            wrong.append(f"{case}: unreachable-within-bound, but the reference reaches")
        if status != was and was != "inconclusive":
            wrong.append(f"{case}: stored {was}, now {status}")
    assert not wrong, f"{len(wrong)} cases break the sweep's rules:\n" + "\n".join(wrong)
