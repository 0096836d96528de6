"""Each fact of a clearing is written down once.

A clearing's quotes, allocations and price live on its ClearingResult; the
auction outcome and each trace record point at that result. A field that
both declare would be a second copy that can drift from the first.
"""

from dataclasses import fields

import pytest

from microgrid_auction import AuctionOutcome, ClearingResult, IterationRecord


@pytest.mark.parametrize("holder", [AuctionOutcome, IterationRecord])
def test_holders_do_not_copy_clearing_fields(holder):
    copied = {f.name for f in fields(holder)} & {f.name for f in fields(ClearingResult)}
    assert not copied, f"{holder.__name__} copies {sorted(copied)} from ClearingResult"
