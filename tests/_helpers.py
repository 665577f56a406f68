"""Small constructors and writers that only the tests need."""

import numpy as np

from auxnas.autodiff import Tensor
from auxnas.data import write_tensor_stream


def constant(values, dtype=np.float32) -> Tensor:
    """A tensor that takes no gradient."""
    return Tensor(np.asarray(values, dtype=dtype))


def item(t: Tensor) -> float:
    """The value of a one-element tensor."""
    return float(t.values)


def n_values(params, *tags: str) -> int:
    """Number of scalars in the parameters of ``params`` that carry one of ``tags``."""
    return sum(params[p].size for p in params.tagged(*tags))


def state_dict(params) -> dict[str, np.ndarray]:
    """Path -> values of every parameter in ``params``."""
    return {p: t.values for p, t in params.items()}


def write_tensor_file(path: str, arr: np.ndarray) -> None:
    """One TNSR block in a file of its own."""
    with open(path, "wb") as fh:
        write_tensor_stream(fh, arr)
