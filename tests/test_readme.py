"""README's ``python`` blocks run, and the package root exports the API
that README lists."""

import re
from pathlib import Path

import fracadi

README = Path(__file__).resolve().parents[1] / "README.md"

SUPPORTED_API = {
    "solve", "init_state", "adi_step", "SolverState",
    "SolveResult", "StepReport", "SolverDivergenceError",
    "ProblemSpec", "get_problem", "load_problem", "make_example1",
    "homogenize_initial", "mesh_for",
    "Mesh", "GridFn", "StudyConfig", "run_study", "run_checks",
    "__version__",
}


def test_python_blocks_run_in_order():
    # in order, in one namespace, as a reader would paste them
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 3
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def test_root_exports_the_supported_api():
    assert len(fracadi.__all__) == len(SUPPORTED_API)
    assert set(fracadi.__all__) == SUPPORTED_API
    for name in fracadi.__all__:
        getattr(fracadi, name)
