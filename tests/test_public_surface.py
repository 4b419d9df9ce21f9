"""The public surface is what the package's commands, criteria and workloads use."""

import ast
import pathlib
import types

import nulldist as nd

ROOT = pathlib.Path(__file__).resolve().parents[1]

# public names that nothing reaches, each kept for the reason given
KEEP = {
    "geodesic_shoot": "the documented single-shot exponential map; the shooting "
                      "tests hold the batched integrator to it",
    "small_zags_check": "states the small-zags lemma: past content at most the "
                        "excess length",
}


def _referenced_names():
    """Every name a src/nulldist module other than __init__,
    tests/test_acceptance.py or a perfbench/ file reads or calls."""
    files = [p for p in (ROOT / "src" / "nulldist").glob("*.py") if p.name != "__init__.py"]
    files += [ROOT / "tests" / "test_acceptance.py", *(ROOT / "perfbench").rglob("*.py")]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_is_reached_or_kept_for_a_reason():
    public = {name for name in nd.__all__
              if not isinstance(getattr(nd, name), types.ModuleType)}
    unreached = public - _referenced_names()
    # a kept name that gains a caller leaves the keep-dict
    assert unreached == set(KEEP), (sorted(unreached - set(KEEP)),
                                     sorted(set(KEEP) - unreached))
