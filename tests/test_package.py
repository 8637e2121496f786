import qcsched


def test_every_exported_name_resolves():
    missing = [name for name in qcsched.__all__ if not hasattr(qcsched, name)]
    assert missing == []
    assert len(set(qcsched.__all__)) == len(qcsched.__all__)
