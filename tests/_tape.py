"""What a tape holds, read off its entries and their closures.

``tape(loss)`` walks the tape entries below ``loss``: each op result's
``_Node`` and the leaf tensors that are their own entries. It reads the
cells of every backward closure, following nested closures such as a
batch norm's ``_refill`` hook and the containers they capture, and
collects the arrays found, one per owning buffer, and the tensors found.
``closure(node)`` reads one entry's closure alone.
"""

from dataclasses import dataclass, field

import numpy as np

from ewas import tensor as T


def owner(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


@dataclass
class Tape:
    entries: list = field(default_factory=list)  # _Node and leaf Tensor entries
    tensors: list = field(default_factory=list)  # every Tensor reached: entries and cells
    arrays: dict = field(default_factory=dict)   # id(owner) -> owner, of every captured array


def tape(loss: T.Tensor) -> Tape:
    """Everything the tape below ``loss`` holds."""
    out, seen = Tape(), set()
    entries = [loss._node or loss]
    while entries:
        entry = entries.pop()
        if id(entry) in seen:
            continue
        seen.add(id(entry))
        out.entries.append(entry)
        if isinstance(entry, T.Tensor):
            out.tensors.append(entry)
            continue
        entries.extend(entry.parents)
        _read(entry.grad_fn, out, set())
    return out


def closure(node: T._Node) -> Tape:
    """What one op result's backward closure holds."""
    out = Tape()
    _read(node.grad_fn, out, set())
    return out


def _read(value, out: Tape, seen: set) -> None:
    """Collect the arrays and tensors in ``value``, a closure's cell or what it holds."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        base = owner(value)
        out.arrays[id(base)] = base
    elif isinstance(value, T.Tensor):
        out.tensors.append(value)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _read(item, out, seen)
    elif isinstance(value, dict):
        for item in value.values():
            _read(item, out, seen)
    elif callable(value) and getattr(value, "__closure__", None):
        for cell in value.__closure__:
            try:
                _read(cell.cell_contents, out, seen)
            except ValueError:  # an empty cell
                pass
