"""The package's exported names."""

import extrafactorial


def test_every_export_resolves_once():
    names = extrafactorial.__all__
    assert len(set(names)) == len(names)
    for name in names:
        getattr(extrafactorial, name)
