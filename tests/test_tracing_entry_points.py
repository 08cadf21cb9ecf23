"""Guard for the benchmark's layer tracer: its entry points must exist.

``perfbench/tracing.py`` patches irkit functions by module and attribute
name, so a rename or a removal in irkit would break ``run.py --trace 1``.
The tracer is loaded by path because ``perfbench`` is not a package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mod_name,attr", load_tracing().ENTRY_POINTS)
def test_entry_point_resolves(mod_name, attr):
    obj = importlib.import_module(f"irkit.{mod_name}")
    for part in attr.split("."):
        assert hasattr(obj, part), f"irkit.{mod_name}.{attr} is missing"
        obj = getattr(obj, part)
    assert callable(obj)



@pytest.mark.parametrize("mode", ["coupled", "reordered"])
def test_traced_dae_step_runs_through_shared_core(mode):
    # a DAE step must enter the shared stage-solve layers, so the traced
    # per-layer costs of the DAE workload are the ODE core's
    import irkit
    from irkit.problems import make_problem
    from irkit.tableau import make_tableau, prepare_stages

    tracing = load_tracing()
    problem = make_problem("shear_layer_small", n=8)
    tableau = make_tableau("radau_iia", 2)
    prep = prepare_stages(tableau)
    tracer = tracing.Tracer(irkit)
    system = tracer.wrap_system(problem.system)
    tracer.install()
    try:
        _, _, stats = irkit.dae_step(system, problem.u0, problem.w0, 0.0, 0.01, tableau,
                                     prep=prep, mode=mode)
    finally:
        tracer.uninstall()
    assert tracer.bindings_restored()
    calls = {name: agg[2] for name, agg in tracer.summary().items()}
    newton = stats.newton_iterations
    pairs = sum(blk.size == 2 for blk in prep.schur.blocks)
    assert newton > 0 and pairs == 1
    assert calls.get("irk_core.solve_transformed_system") == newton
    assert calls.get("nonlinear.build_variant_jacobian") == newton
    assert calls.get("nonlinear.stage_residual") == newton + 1
    assert calls.get("dae.solve_dae_block4x4") == newton * pairs
    assert calls.get("sparsela.gmres") == newton * len(prep.schur.blocks)
