"""Outside-in tracer: wraps plumeseek's public functions where callers look them up.

`from .belief import posterior_update` gives the importing module its own
reference, so a function is patched in every module that calls it by name
(for example `plumeseek.swarm.posterior_update`, not only
`plumeseek.belief.posterior_update`). Methods are patched on their class.
Spans are kept in memory as (span_id, parent_id, run_id, name, start, end)
and written once the run ends. A site that a refactor removed is reported
as unwrapped and the run goes on.
"""
from __future__ import annotations

import csv
import functools
import importlib
import time
from collections import Counter, defaultdict

# span name -> every (module, attribute) where callers look the function up
WRAP_TABLE = {
    "cli.main": [("plumeseek.cli", "main")],
    "config.load_config": [("plumeseek.cli", "load_config")],
    "swarm.run_episode": [("plumeseek.cli", "run_episode")],
    "swarm.cost_only_policy": [("plumeseek.swarm", "cost_only_policy")],
    "swarm.random_policy": [("plumeseek.swarm", "random_policy")],
    "planner.compute_score_map": [("plumeseek.swarm", "compute_score_map")],
    "planner.snr_score_map_fft": [("plumeseek.planner", "snr_score_map_fft")],
    "planner.select_next": [("plumeseek.swarm", "select_next")],
    "planner.movement_cost": [
        ("plumeseek.swarm", "movement_cost"),
        ("plumeseek.planner", "movement_cost"),
    ],
    "belief.posterior_update": [
        ("plumeseek.swarm", "posterior_update"),
        ("plumeseek.rl.env", "posterior_update"),
    ],
    "belief.loglik_grid": [("plumeseek.belief", "loglik_grid")],
    "belief.SourcePosterior.init": [("plumeseek.belief", "SourcePosterior.__post_init__")],
    "belief.info_gain_bits": [
        ("plumeseek.swarm", "info_gain_bits"),
        ("plumeseek.rl.env", "info_gain_bits"),
        ("plumeseek.belief", "info_gain_bits"),
    ],
    "belief.map_estimate": [
        ("plumeseek.rl.env", "map_estimate"),
        ("plumeseek.belief", "map_estimate"),
    ],
    "field.concentration": [
        ("plumeseek.swarm", "concentration"),
        ("plumeseek.belief", "concentration"),
        ("plumeseek.rl.env", "concentration"),
        ("plumeseek.planner", "concentration"),
    ],
    "field.squared_snr_kernel": [
        ("plumeseek.swarm", "squared_snr_kernel"),
        ("plumeseek.planner", "squared_snr_kernel"),
    ],
    "rl.env.reset": [("plumeseek.rl.env", "HybridEnv.reset")],
    "rl.env.step": [("plumeseek.rl.env", "HybridEnv.step")],
    "rl.qnet.forward": [("plumeseek.rl.qnet", "QNet.forward")],
    "rl.qnet.td_train_step": [("plumeseek.rl.train", "td_train_step")],
    "rl.qnet.loss_and_grads": [("plumeseek.rl.qnet", "loss_and_grads")],
    "rl.qnet.ReplayBuffer.sample": [("plumeseek.rl.qnet", "ReplayBuffer.sample")],
    "rl.qnet.ReplayBuffer.push": [("plumeseek.rl.qnet", "ReplayBuffer.push")],
    "rl.train.train": [("plumeseek.cli", "train")],
    "rl.train.greedy_action": [("plumeseek.rl.train", "greedy_action")],
}

# Q-net forward calls are split by caller: inside a TD step or acting.
FORWARD = "rl.qnet.forward"
FORWARD_TD = "rl.qnet.forward.td"
FORWARD_ACTING = "rl.qnet.forward.acting"
SPAN_KEYS = tuple(k for k in WRAP_TABLE if k != FORWARD) + (FORWARD_ACTING, FORWARD_TD)

# Per command: the loop span, and the spans expected to cover >= 90 % of its time.
COVERAGE = {
    "simulate": (
        "swarm.run_episode",
        ("planner.compute_score_map", "belief.posterior_update", "planner.select_next"),
    ),
    "train": (
        "rl.train.train",
        ("rl.env.step", "rl.qnet.td_train_step", "rl.qnet.ReplayBuffer.sample", FORWARD_ACTING),
    ),
}

ACTION_NAMES = ("do_nothing", "move", "measure", "update", "communicate")


def resolve(module: str, attr: str):
    """(owner, attribute name, current value) for a dotted attribute of a module.

    `importlib.import_module` is used because `import plumeseek.rl.train as m`
    binds the `train` function that `plumeseek.rl` re-exports, not the module.
    """
    owner = importlib.import_module(module)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last, getattr(owner, last)


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo = []
        self.unwrapped: list[str] = []

    def apply(self, label: str, module: str, attr: str, make_wrapper) -> None:
        try:
            owner, last, original = resolve(module, attr)
        except (ImportError, AttributeError):
            self.unwrapped.append(f"{label} at {module}:{attr}")
            return
        setattr(owner, last, make_wrapper(original))
        self._undo.append((owner, last, original))

    def undo(self) -> None:
        while self._undo:
            owner, last, original = self._undo.pop()
            setattr(owner, last, original)


def _fft_work(args) -> tuple[int, int]:
    """FFT cells and bytes of one snr_score_map_fft call, from array sizes.

    Mirrors the zero-padded convolution's shapes: the upsampled posterior and
    the kernel padded to (sx, sy), two forward spectra, their product and the
    inverse transform. Bytes are computed from those sizes, not measured.
    """
    from scipy.fft import next_fast_len

    post, kernel = args[0], args[1]
    grid = post.grid
    up_x = kernel.stride_src_x * (grid.i_cells - 1) + 1
    up_y = kernel.stride_src_y * (grid.j_cells - 1) + 1
    kx, ky = kernel.values.shape
    sx = next_fast_len(up_x + kx - 1, real=True)
    sy = next_fast_len(up_y + ky - 1, real=True)
    real_bytes = 8 * sx * sy
    spectrum_bytes = 16 * sx * (sy // 2 + 1)
    return sx * sy, 3 * real_bytes + 3 * spectrum_bytes


class Tracer:
    """Records spans and deterministic counts at the wrapped boundaries."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.run_id = 0
        self._stack: list[int] = []
        self._next_id = 1
        self._targets: list = []
        self._hooks = {
            "planner.snr_score_map_fft": self._on_fft,
            "planner.compute_score_map": self._on_step_boundary,
            "planner.select_next": self._on_select,
            "swarm.run_episode": self._on_step_boundary,
            "field.squared_snr_kernel": self._on_kernel,
            "belief.posterior_update": self._on_update,
            "rl.env.step": self._on_env_step,
            "rl.qnet.ReplayBuffer.sample": self._on_sample,
        }

    # -- wrapping -------------------------------------------------------------

    def install(self, patches: Patches) -> None:
        for name, sites in WRAP_TABLE.items():
            for module, attr in sites:
                patches.apply(name, module, attr, functools.partial(self.wrap, name))

    def wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((span_id, parent, self.run_id, name, t0, t1))
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # -- count hooks (run after the span closes) -------------------------------

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[self.run_id][key] += n

    def _on_fft(self, args, result) -> None:
        cells, nbytes = _fft_work(args)
        self._count("planner.fft_cells", cells)
        self._count("planner.fft_bytes_computed", nbytes)

    def _on_step_boundary(self, args, result) -> None:
        # all select_next calls between two score maps belong to one step
        if self._targets:
            self._count("planner.distinct_targets", len(set(self._targets)))
            self._count("planner.target_slots", len(self._targets))
            self._targets = []

    def _on_select(self, args, result) -> None:
        self._targets.append(tuple(result))

    def _on_kernel(self, args, result) -> None:
        self._count("field.kernel_cells", int(result.values.size))

    def _on_update(self, args, result) -> None:
        post, records = args[0], args[1]
        self._count("belief.cell_records", len(records) * post.grid.n_src_cells)

    def _on_env_step(self, args, result) -> None:
        for a in args[1]:
            self._count(f"rl.env.actions.{ACTION_NAMES[int(a)]}")

    def _on_sample(self, args, result) -> None:
        self._count("rl.qnet.replay_samples", int(args[1]))

    # -- results --------------------------------------------------------------

    def run_counts(self, run_ids) -> Counter:
        """Span calls per span key plus the hooks' counts, over the given runs."""
        wanted = set(run_ids)
        names = {sid: name for sid, _, _, name, _, _ in self.spans}
        out = Counter()
        for sid, parent, run, name, _, _ in self.spans:
            if run in wanted:
                out[self._key(name, names.get(parent))] += 1
        for run in wanted:
            out.update(self.counts.get(run, Counter()))
        return out

    def times(self) -> dict[str, tuple[float, float]]:
        """Total and self seconds per span key over every run.

        Self time is a span's duration minus the durations of its direct
        children (spans are properly nested: one thread, one stack).
        """
        child = defaultdict(float)
        names = {}
        for sid, parent, _, name, t0, t1 in self.spans:
            names[sid] = name
            if parent:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0.0, 0.0])
        for sid, parent, _, name, t0, t1 in self.spans:
            acc = out[self._key(name, names.get(parent))]
            acc[0] += t1 - t0
            acc[1] += t1 - t0 - child[sid]
        return {k: (v[0], v[1]) for k, v in out.items()}

    @staticmethod
    def _key(name: str, parent_name: str | None) -> str:
        if name != FORWARD:
            return name
        return FORWARD_TD if parent_name == "rl.qnet.td_train_step" else FORWARD_ACTING

    def write(self, path) -> None:
        """Write every span as CSV, times in seconds from the first span."""
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span_id", "parent_id", "run_id", "name", "start_s", "end_s"))
            for sid, parent, run, name, t0, t1 in self.spans:
                out.writerow((sid, parent, run, name, f"{t0 - origin:.9f}", f"{t1 - origin:.9f}"))
