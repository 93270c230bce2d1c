"""Guards against whole-machine work creeping back into the rewrite steps.

One instantiation may index and rebuild the machine a constant number of
times (validation, the working tree, the final checks), never once per
rule application.
"""

import sys

import scpl.model
from scpl.model import MachineIndex
from scpl.strategy import generate_random_product_line, instantiate

# The benchmark ladder's line of about 1k states: 1,009 states, 267 NSC
# elements, several hundred rule applications.
S1K_SEED = 1
S1K_GENERATOR = {"max_depth": 7, "max_substates": 8, "max_features": 24}


def _count_calls(monkeypatch, attr: str) -> list[int]:
    """Replaces ``attr`` in every scpl module that binds it by a wrapper
    counting its calls."""
    orig = getattr(scpl.model, attr)
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if ((name == "scpl" or name.startswith("scpl."))
                and getattr(module, attr, None) is orig):
            monkeypatch.setattr(module, attr, counting)
    return calls


def test_instantiate_indexes_and_rebuilds_a_constant_number_of_times(
        monkeypatch):
    line = generate_random_product_line(S1K_SEED, **S1K_GENERATOR)
    assert len(MachineIndex(line.sc).states) == 1009
    indexes = _count_calls(monkeypatch, "MachineIndex")
    passes = _count_calls(monkeypatch, "map_states")
    result = instantiate(*line)
    assert len(result.trace) > 100
    assert indexes[0] <= 6
    assert passes[0] <= 2
