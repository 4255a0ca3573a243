"""Every exported name resolves, so a deleted function leaves no stale export."""

import vforge


def test_every_exported_name_resolves():
    assert len(set(vforge.__all__)) == len(vforge.__all__)
    missing = [name for name in vforge.__all__ if not hasattr(vforge, name)]
    assert not missing, missing
