"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public functions of every ``braidmf`` module (and the
public methods of ``Perm``) from the outside, without touching the package
source.  Each wrapped name is patched in its defining module and in every
``braidmf`` module that imported it by name, so calls made through either
binding pass through the wrapper.

Two wrapper kinds:

* span wrappers record (name, parent span, start, end) into flat
  arrays that stay in memory until the run ends;
* count-only wrappers on hot primitives bump a counter and nothing else;
  their time lands in the exclusive time of the enclosing span.  A few hot
  helpers that no metric needs are not wrapped at all.

All work is single-threaded, so a single span stack is exact.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

from braidmf.braid import LetterCapExceeded

LAYERS = ("perm", "braid", "hurwitz", "s4orbit", "f2sym", "bmf", "cli")

# Hot primitives: counted, never timed (a span per call would dominate).
# The s4orbit ones run once or more per generator step of every trial.
COUNT_ONLY = {
    "perm.Perm.__mul__": "perm.mul_calls",
    "perm.Perm.__eq__": "perm.eq_calls",
    "hurwitz.hurwitz_move": "hurwitz.move_calls",
    "s4orbit.apply_generator": "s4orbit.generator_steps",
    "s4orbit.in_hat_orbit": "s4orbit.in_hat_orbit_calls",
    "s4orbit.invariant_M": "s4orbit.invariant_M_calls",
}
# Hot helpers no metric needs: left unwrapped, their time stays in the caller.
UNWRAPPED = {
    "f2sym.q_eval",
    "bmf.twist_str",
    "s4orbit.apply_action_word",
    "s4orbit.change_positions",
}

PERM_METHODS = (
    "identity",
    "transposition",
    "from_cycles",
    "inverse",
    "conjugate",
    "is_identity",
    "cycles",
    "cycle_type",
    "is_transposition",
    "to_json",
    "from_json",
)


class Tracer:
    def __init__(self):
        self.active = False
        self.names = []
        self._name_ids = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self.counts = dict.fromkeys(COUNT_ONLY.values(), 0)
        self.counts.update(
            {
                "braid.cap_exceeded": 0,
                "braid.image_letters_max": 0,
                "hurwitz.search_nodes": 0,
                "hurwitz.search_moves": 0,
                "f2sym.closure_elements": 0,
                "bmf.factors_generated": 0,
            }
        )

    # -- wrappers -----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count_wrapper(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def span_wrapper(self, fn, name):
        nid = self._name_id(name)
        hook = _HOOKS.get(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        counts = self.counts
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            moves_before = counts["hurwitz.move_calls"]
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[sid] = perf_counter()
                starts[sid] = t0
                stack.pop()
                if hook:
                    hook(counts, None, exc, moves_before)
                raise
            ends[sid] = perf_counter()
            starts[sid] = t0
            stack.pop()
            if hook:
                hook(counts, result, None, moves_before)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every public function of each layer and rebind it by name."""
        modules = {
            layer: importlib.import_module(f"braidmf.{layer}") for layer in LAYERS
        }
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                full = f"{layer}.{name}"
                if full in UNWRAPPED:
                    continue
                if full in COUNT_ONLY:
                    wrapped[obj] = self.count_wrapper(obj, COUNT_ONLY[full])
                else:
                    wrapped[obj] = self.span_wrapper(obj, full)
        package = importlib.import_module("braidmf")
        for mod in (package, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])

        perm_cls = modules["perm"].Perm
        for name in PERM_METHODS:
            raw = perm_cls.__dict__[name]
            if isinstance(raw, classmethod):
                fn = self.span_wrapper(raw.__func__, f"perm.Perm.{name}")
                setattr(perm_cls, name, classmethod(fn))
            else:
                setattr(perm_cls, name, self.span_wrapper(raw, f"perm.Perm.{name}"))
        for name in ("__mul__", "__eq__"):
            fn = perm_cls.__dict__[name]
            key = COUNT_ONLY[f"perm.Perm.{name}"]
            setattr(perm_cls, name, self.count_wrapper(fn, key))

    # -- reduction ----------------------------------------------------------

    def summary(self):
        """Per-layer metrics computed from the recorded spans and counters."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = [0] * len(self.names)
        outer_s = [0.0] * len(self.names)
        for i in range(n):
            nid = self.span_name[i]
            self_s[layer_of[nid]] += dur[i] - child[i]
            calls[nid] += 1
            # inclusive time counts only the outermost span of each name
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != nid:
                p = self.span_parent[p]
            if p < 0:
                outer_s[nid] += dur[i]

        def calls_of(name):
            nid = self._name_ids.get(name)
            return 0 if nid is None else calls[nid]

        def time_of(name):
            nid = self._name_ids.get(name)
            return 0.0 if nid is None else outer_s[nid]

        c = self.counts
        steps = c["s4orbit.generator_steps"]
        checks = c["s4orbit.in_hat_orbit_calls"]
        moves_in_search = c["hurwitz.search_moves"]
        return {
            "perm.mul_calls": c["perm.mul_calls"],
            "perm.eq_calls": c["perm.eq_calls"],
            "perm.self_s": self_s["perm"],
            "s4orbit.generator_steps": steps,
            "s4orbit.in_hat_orbit_calls": checks,
            "s4orbit.checks_per_step": checks / steps if steps else 0.0,
            "s4orbit.invariant_M_calls": c["s4orbit.invariant_M_calls"],
            "s4orbit.self_s": self_s["s4orbit"],
            "braid.artin_rep_calls": calls_of("braid.artin_rep"),
            "braid.artin_rep_s": time_of("braid.artin_rep"),
            "braid.braid_equal_s": time_of("braid.braid_equal"),
            "braid.image_letters_max": c["braid.image_letters_max"],
            "braid.cap_exceeded": c["braid.cap_exceeded"],
            "hurwitz.search_calls": calls_of("hurwitz.orbit_search"),
            "hurwitz.search_nodes": c["hurwitz.search_nodes"],
            "hurwitz.search_s": time_of("hurwitz.orbit_search"),
            "hurwitz.search_useful_ratio": (
                c["hurwitz.search_nodes"] / moves_in_search
                if moves_in_search
                else 0.0
            ),
            "hurwitz.move_calls": c["hurwitz.move_calls"],
            "hurwitz.act_word_s": time_of("hurwitz.act_word"),
            "f2sym.closure_calls": calls_of("f2sym.group_closure"),
            "f2sym.closure_elements": c["f2sym.closure_elements"],
            "f2sym.closure_s": time_of("f2sym.group_closure"),
            "f2sym.preserves_q_calls": calls_of("f2sym.preserves_q"),
            "f2sym.preserves_q_s": time_of("f2sym.preserves_q"),
            "f2sym.arf_oracle_s": time_of("f2sym.arf_oracle"),
            "f2sym.self_s": self_s["f2sym"],
            "bmf.factors_generated": c["bmf.factors_generated"],
            "bmf.generate_s": time_of("bmf.generate_bmf"),
            "bmf.census_s": time_of("bmf.factor_census"),
            "bmf.realize_s": time_of("bmf.realize_s4_trivial_action"),
            "cli.calls": calls_of("cli.main"),
            "cli.self_s": self_s["cli"],
        }


# Hooks run after a span closes: (counts, result, exception, move count at
# span entry).


def _artin_rep_hook(counts, result, exc, _moves):
    if exc is not None:
        if isinstance(exc, LetterCapExceeded):
            counts["braid.cap_exceeded"] += 1
        return
    letters = result.total_letters()
    if letters > counts["braid.image_letters_max"]:
        counts["braid.image_letters_max"] = letters


def _search_hook(counts, result, exc, moves_before):
    counts["hurwitz.search_moves"] += counts["hurwitz.move_calls"] - moves_before
    if exc is None:
        counts["hurwitz.search_nodes"] += result.visited


def _closure_hook(counts, result, exc, _moves):
    if exc is None:
        counts["f2sym.closure_elements"] += len(result)


def _generate_hook(counts, result, exc, _moves):
    if exc is None:
        counts["bmf.factors_generated"] += len(result.factors)


_HOOKS = {
    "braid.artin_rep": _artin_rep_hook,
    "hurwitz.orbit_search": _search_hook,
    "f2sym.group_closure": _closure_hook,
    "bmf.generate_bmf": _generate_hook,
}
