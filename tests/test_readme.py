"""The README's library examples run as written and do what it says."""
import contextlib
import io
import re
from pathlib import Path

from pawpulse import VitalsPipeline

README = Path(__file__).resolve().parents[1] / "README.md"


def library_examples() -> list[str]:
    """The ```python blocks of the README's "Library use" section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)


def test_library_examples_run_and_streaming_gives_the_estimates_of_run():
    """The first block prints ``run``'s estimates; the second ticks the same
    frames as they arrive, one ``resync`` per read, and its ``tick`` calls
    give those estimates, in order."""
    first, second = library_examples()
    streamed = []

    class RecordingPipeline(VitalsPipeline):
        def tick(self, chunk):
            estimate = super().tick(chunk)
            streamed.append(estimate)
            return estimate

    namespace = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(first, f"{README.name}: Library use, block 1", "exec"), namespace)
    namespace["VitalsPipeline"] = RecordingPipeline  # the second block uses the first's import
    exec(compile(second, f"{README.name}: Library use, block 2", "exec"), namespace)

    estimates = VitalsPipeline().run(namespace["frames"])
    assert len(estimates) == 30
    assert streamed == estimates
    lines = [f"{e.tick_time_ms} {e.bpm_avg} {e.spo2_pct}" for e in estimates]
    assert printed.getvalue().splitlines() == lines
