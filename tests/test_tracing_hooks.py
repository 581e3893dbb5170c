"""The benchmark tracer's hooks still find every name they rebind.

``perfbench/`` is not collected by the test run, so a rename of a traced
function would otherwise only fail in ``python -m pytest perfbench``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402


def _bindings():
    """Every module attribute, hooked class method and loss-term entry the tracer may replace."""
    out = {(mod.__name__, name): value for mod in tracing._MODULES
           for name, value in vars(mod).items()}
    for cls, name in [(tracing.config.ModelSection, "build"),
                      (tracing.config.DataSection, "load"),
                      (tracing.training.SGD, "step"),
                      (tracing.models.Model, "forward"),
                      (tracing.data.BatchIterator, "next_epoch")]:
        out[(cls.__qualname__, name)] = vars(cls)[name]
    out.update({("_TERM_FNS", k): v for k, v in tracing.training._TERM_FNS.items()})
    return out


def test_install_then_uninstall_restores_every_binding():
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert _bindings() != before
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after.get(k) is v for k, v in before.items())
