"""Every public class, function and method of the package has a caller or a
stated reason to exist, and the README's Python examples run."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Public names that nothing in src/ or perfbench/ calls, each with the reason
# it is kept.  (run_link, the link analysis of one scene and the oracle of
# each distance of a sweep scene, needs no entry: share calls it.)
KEPT = {
    "channel.h_ss": "physics oracle: one surface-to-surface gain of the engine",
    "channel.h_sa": "physics oracle: one surface-to-air gain of the engine",
    "channel.h_as": "physics oracle: one air-to-surface gain of the engine",
    "channel.h_aa": "physics oracle: one air-to-air gain of the engine",
    "channel.build_mimo": "physics oracle: one channel matrix at one frequency",
    "propagation.surface_gain": "physics oracle: the checked scalar surface law",
    "mimo.zf_stream_snrs": "oracle of the stream SNRs of link_results",
    "mimo.effective_snr": "oracle of the effective SNR of link_results",
    "mimo.map_rate": "oracle of the rate lookup of link_results",
    "mimo.McsTable.max_rate_bps": "acceptance criterion: the aggregate peak is every top rate",
    "experiments.PulseProfile.residual_after": "acceptance criterion: the pulse tail",
}


def _public_defs(tree, module):
    """(module.qualname, node) of each public module-level function and
    class and each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item


def _annotations(tree):
    """The ids of the nodes inside the annotations of tree."""
    roots = [n.annotation for n in ast.walk(tree)
             if isinstance(n, (ast.AnnAssign, ast.arg)) and n.annotation is not None]
    roots += [n.returns for n in ast.walk(tree)
              if isinstance(n, ast.FunctionDef) and n.returns is not None]
    return {id(n) for root in roots for n in ast.walk(root)}


def _references(tree) -> Counter:
    """How often each name is read in tree, as a name or as an attribute.
    An import binds a name without reading it, so an export is no caller,
    and an annotation names a type without using it."""
    skip = _annotations(tree)
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)) and id(n) not in skip)


def test_every_public_function_has_a_caller_or_a_reason():
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted((ROOT / "src/surfmimo").glob("*.py"))}
    in_src = sum(map(_references, trees.values()), Counter())
    in_bench = sum((_references(ast.parse(p.read_text()))
                    for p in sorted((ROOT / "perfbench").glob("*.py"))), Counter())
    uncalled = set()
    for module, tree in trees.items():
        for qualname, node in _public_defs(tree, module):
            # a call inside its own definition is no caller
            if in_src[node.name] == _references(node)[node.name] and not in_bench[node.name]:
                uncalled.add(qualname)
    assert sorted(uncalled - KEPT.keys()) == [], "no caller: delete, or keep in KEPT with a reason"
    assert sorted(KEPT.keys() - uncalled) == [], "in KEPT, but gone or now called"


def test_readme_python_examples_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert "Mbps" in capsys.readouterr().out
