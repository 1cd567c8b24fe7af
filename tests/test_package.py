import anisolayer


def test_public_names_resolve_once():
    names = anisolayer.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(anisolayer, name)]
    assert missing == []
