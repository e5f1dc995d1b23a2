"""The traced benchmark run finds every entry point it wraps.

``perfbench/layers.py`` names each traced function by module and
attribute (``encode_stream_message``, ``encode_mutation``,
``decode_mutation``, ``json.dumps`` in each streams module, ...).  A
rename in ``src`` would only surface when someone runs
``perfbench/run.py --trace 1``; installing and restoring the tracer
here makes it fail in the test suite instead.
"""

import repro.streams.changelog as changelog
from perfbench.layers import ENTRY_POINTS
from perfbench.spans import Tracer


def test_tracer_installs_and_restores_every_entry_point():
    original = changelog.encode_mutation
    tracer = Tracer()
    try:
        tracer.install(ENTRY_POINTS)
        assert changelog.encode_mutation is not original
        changelog.encode_mutation("k", 1)
    finally:
        tracer.restore()
    assert changelog.encode_mutation is original
    assert tracer.calls_of("streams.codec.encode_mutation") == 1
