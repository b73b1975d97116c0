"""Set-up probe: import nadac, load a config and validate it, then report.

    python3 bench/setup_probe.py CONFIG

Prints one JSON line {"import_s", "validate_s", "slice_s", "slices"} as
soon as config.validate_config returns; the benchmark times the interpreter
from its start to that line.  From the import of numpy on, the host-speed
sampler runs (hostspeed.py); "slice_s" and "slices" are the time and
number of its slices, which import_s and validate_s leave out.
"""

import sys
import time

tic = time.perf_counter()
sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parent.parent / "src"))
import hostspeed  # noqa: E402 - imports numpy, as nadac does

with hostspeed.Sampler() as sampler:
    from nadac import cli, config  # noqa: E402,F401 - the command's own imports

    imported = time.perf_counter()
    at_import = sampler.mark()
    config.validate_config(config.load_config(sys.argv[1]))
    validated = time.perf_counter()
import_slices = at_import[0]
validate_slices = sampler.since(at_import)[0]
print(
    f'{{"import_s": {imported - tic - import_slices!r}, '
    f'"validate_s": {validated - imported - validate_slices!r}, '
    f'"slice_s": {sampler.spent!r}, "slices": {sampler.count}}}',
    flush=True,
)
