"""The benchmark's traced run wraps each layer's public functions at the
names their callers resolve. Every one of those names must exist in the
package and be restored once the tracer is removed."""

from perfbench.trace import Tracer
from perfbench.workloads import patch_program


class RecordingTracer(Tracer):
    """A tracer that also keeps each patched name with its original."""

    def __init__(self) -> None:
        super().__init__()
        self.points: list[tuple[object, str, object]] = []

    def patch(self, owner, attr, name, new_scope=False, value=None) -> None:
        self.points.append((owner, attr, getattr(owner, attr)))
        super().patch(owner, attr, name, new_scope, value)


def test_patch_points_exist_and_are_restored():
    tracer = RecordingTracer()
    try:
        patch_program(tracer)
        wrapped = [(o, a) for o, a, original in tracer.points if getattr(o, a) is not original]
    finally:
        tracer.unpatch_all()
    assert tracer.points
    assert len(wrapped) == len(tracer.points)
    for owner, attr, original in tracer.points:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
    names = {f"{owner.__name__}.{attr}" for owner, attr, _ in tracer.points}
    assert {"wppsc.scr.integrate", "wppsc.cli.step_response", "wppsc.sim.integrate"} <= names
