"""Set-up probe, run in a fresh interpreter: import the library as the command
line does, build the default run config and load the bundled volume table.
Prints the in-process timings and the imported package path as JSON."""

import json
import time

t0 = time.perf_counter()
import multicurve  # noqa: E402
import multicurve.cli  # noqa: E402,F401

t1 = time.perf_counter()
from multicurve.config import RunConfig  # noqa: E402
from multicurve.volumes import volume_table_load  # noqa: E402

RunConfig()
t2 = time.perf_counter()
volume_table_load(None)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1, "volume_table_load_s": t3 - t2,
                  "package": multicurve.__file__}))
