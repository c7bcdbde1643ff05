"""No function of maslovlab takes a tolerance knob as a parameter.

Rank decisions read ``frames.RANK_TOL``, the crossing and one-sided
forms step by ``maslov._FD_STEP`` and test zero against
``maslov._FORM_ZERO``, the propagator steps against ``bvp._ODE_TOL``,
and reduced segments retry at most ``maslov._MAX_DEPTH`` times. The
crossing scan checks each level of its pieces as one stack, so no
batch or chunk size is a setting either; a crossing form runs its two
complements in one stack, so neither the seeds nor the stack is a
setting. Each
threshold has one definition, so a change to it is one edit; a
parameter that carries a copy of it would let callers drift apart.
"""

import importlib
import inspect
import pkgutil

import maslovlab
from maslovlab.maslov import diagonal_lift, maslov_semipositive, maslov_winding, one_sided_form
from maslovlab.reduction import pair_decomposition
from maslovlab.symplectic import lagrangian_generators, lagrangian_mask

KNOBS = {
    "rank_tol", "fd_step", "max_depth", "tols", "tol_rank", "ode_tol", "batch_size", "chunk_size",
    "seeds", "stack",
}


def _functions():
    """Every function and method defined in a maslovlab module, by qualified name."""
    for info in pkgutil.iter_modules(maslovlab.__path__):
        module = importlib.import_module(f"maslovlab.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{obj.__qualname__}", obj
            elif inspect.isclass(obj):
                for member in vars(obj).values():
                    member = getattr(member, "__func__", getattr(member, "fget", member))
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{member.__qualname__}", member


def test_no_function_takes_a_tolerance_knob():
    functions = dict(_functions())
    assert "maslovlab.maslov.maslov_reduced" in functions
    assert "maslovlab.frames.Projection.range" in functions
    offenders = sorted(
        f"{name}({param})"
        for name, fn in functions.items()
        for param in inspect.signature(fn).parameters
        if param in KNOBS
    )
    assert offenders == []


def test_semipositive_takes_the_path_and_a_seed_only():
    assert list(inspect.signature(maslov_semipositive).parameters) == ["path", "seed"]


def test_stacked_routes_take_no_setting():
    """The Lagrangian check and the windings decide their stacks and caches themselves."""
    assert list(inspect.signature(lagrangian_mask).parameters) == ["forms", "frames"]
    assert list(inspect.signature(lagrangian_generators).parameters) == ["forms", "frames"]
    assert list(inspect.signature(diagonal_lift).parameters) == ["path"]
    assert list(inspect.signature(maslov_winding).parameters) == ["path"]


def test_local_forms_take_no_decomposition_setting():
    """A pair decomposition is checked as a direct sum only, and a one-sided
    form anchors its own complement, so neither takes a switch for that."""
    assert list(inspect.signature(pair_decomposition).parameters) == ["form", "lam0", "v", "lam", "mu"]
    assert list(inspect.signature(one_sided_form).parameters) == ["path", "t", "member", "seed"]
