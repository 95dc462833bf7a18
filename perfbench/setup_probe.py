"""Time one fresh interpreter's set-up for a workload, up to step 0.

Runs the first job of the workload's round through `plumeseek.cli.main`,
exactly as the timed loop does, and stops the process at the first call of
the function that runs once per step (`posterior_update` in `run_episode`,
`HybridEnv.step` in `train`). Everything the program does before that call
is set-up: importing the package, loading the config, the prior, the RNG
streams, the squared-SNR kernel, the env and the Q-nets. Prints
{"step0_s": t} with t read from CLOCK_MONOTONIC, which is system-wide, so
run.py subtracts the time it read just before starting this interpreter.
Exits 1 if the step function is gone or the job ends without reaching it.
"""
import os
import sys
import time
from pathlib import Path

from machine import limit_threads

limit_threads(os.environ)  # before NumPy is imported, also when run by hand
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import plumeseek.cli  # noqa: E402  (the import a CLI user pays for)

from tracer import Patches  # noqa: E402
from workloads import WORKLOADS, job_argv  # noqa: E402

# where each command's step loop calls its once-per-step function
FIRST_STEP = {
    "simulate": ("plumeseek.swarm", "posterior_update"),
    "train": ("plumeseek.rl.env", "HybridEnv.step"),
}


def stop_here(fn):
    def first_step(*args, **kwargs):
        now = time.clock_gettime(time.CLOCK_MONOTONIC)
        os.write(1, b'{"step0_s": %r}\n' % now)  # fd 1: the CLI's output goes to devnull
        os._exit(0)

    return first_step


def main() -> int:
    name, config, seed, out = sys.argv[1:5]
    wl = WORKLOADS[name]
    patches = Patches()
    patches.apply("first step", *FIRST_STEP[wl.command], stop_here)
    if patches.unwrapped:
        print(f"setup probe: {patches.unwrapped[0]} not found", file=sys.stderr)
        return 1
    with open(os.devnull, "w") as sink:
        sys.stdout, stdout = sink, sys.stdout
        try:
            code = plumeseek.cli.main(job_argv(wl, 0, Path(config), Path(out), int(seed)))
        finally:
            sys.stdout = stdout
    print(f"setup probe: the job exited {code} without reaching step 0", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
