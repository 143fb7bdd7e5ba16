import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import pytest


@pytest.fixture(scope="session", params=[5, 8, 12])
def window10(request):
    """The x = 10 geodesic window of D = 5, 8 and 12."""
    from hilbert_selberg.geodesics import enumerate_geodesics
    from hilbert_selberg.quadfield import make_field
    return enumerate_geodesics(make_field(request.param), 10.0)
