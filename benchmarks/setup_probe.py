"""Set-up probe, run in a fresh interpreter: import majoranaq, load and compile a config.

Usage: python3 setup_probe.py CONFIG.json

Prints one JSON object with the import time, the load_config +
config_to_spec time, and the file majoranaq was imported from.
"""

import json
import sys
import time

start = time.perf_counter()
import majoranaq  # noqa: E402
from majoranaq.config import config_to_spec, load_config  # noqa: E402

imported = time.perf_counter()
config_to_spec(load_config(sys.argv[1]))
loaded = time.perf_counter()
print(json.dumps({
    "import_s": imported - start,
    "load_s": loaded - imported,
    "module": majoranaq.__file__,
}))
