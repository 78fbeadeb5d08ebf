import os

# The matrices are 2 x 2 to 6 x 6, where extra BLAS threads only add
# overhead; the pool size is read when numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile(
    "default", max_examples=25, deadline=None, derandomize=True
)
hypothesis.settings.register_profile(
    "fast", max_examples=5, deadline=None, derandomize=True
)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
