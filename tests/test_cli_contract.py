"""The command-line contract as a property: whatever small config a user
passes, inline or as a file, `run` ends in exit 0, 1 or 2 and never
raises."""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from biphase1d.cli import main
from biphase1d.materials import WEIGHTINGS

configs = st.fixed_dictionaries(
    {
        "cells": st.integers(4, 40),
        "scheme": st.sampled_from(("meso", "macro", "both")),
        "weighting": st.sampled_from(WEIGHTINGS),
        "t_end": st.floats(0.0, 0.1),
        "dt_max": st.floats(1e-4, 1.0),
        "gamma_plus": st.floats(1.0, 5.0),
        "gamma_minus": st.floats(1.0, 5.0),
        "K_plus": st.floats(0.1, 10.0),
        "K_minus": st.floats(0.1, 10.0),
        "mu_plus": st.floats(1e-3, 1.0),
        "mu_minus": st.floats(1e-3, 1.0),
        "cadence": st.integers(1, 5),
    },
    optional={"coarse_K": st.integers(1, 45), "preset": st.sampled_from(("test1", "test2"))},
)


# p_- overflows to inf: a FAILED run, for every scheme
@example(config={"preset": "test2", "scheme": "meso", "cells": 20, "K_minus": 1e308,
                 "t_end": 0.001}, as_file=False)
@example(config={"preset": "test2", "scheme": "macro", "cells": 20, "K_minus": 1e308,
                 "t_end": 0.001}, as_file=False)
@example(config={"preset": "test2", "scheme": "both", "cells": 20, "K_minus": 1e308,
                 "t_end": 0.001}, as_file=False)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=configs, as_file=st.booleans())
def test_run_ends_in_a_documented_exit_code(config, as_file):
    with tempfile.TemporaryDirectory() as tmp:
        source = json.dumps(config)
        if as_file:
            path = Path(tmp) / "config.json"
            path.write_text(source)
            source = str(path)
        code = main(["run", source, "--out", str(Path(tmp) / "out")])
        assert code in (0, 1, 2)
        assert (Path(tmp) / "out" / "FAILED").is_file() == (code == 1)
