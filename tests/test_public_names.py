"""Every public class, function and method of the package has a caller or a
stated reason to exist, every defaulted parameter is passed by some call and
every dataclass field is read, and the README's Python examples run."""

import ast
import math
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


def _trees():
    """({module: tree} of src/surfmimo, [tree] of perfbench)."""
    return ({p.stem: ast.parse(p.read_text())
             for p in sorted((ROOT / "src/surfmimo").glob("*.py"))},
            [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))])


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
    trees, bench = _trees()
    in_src = sum(map(_references, trees.values()), Counter())
    in_bench = sum(map(_references, bench), Counter())
    uncalled = set()
    for module, tree in trees.items():
        for qualname, node in _public_defs(tree, module):
            # a call inside its own definition is no caller
            if in_src[node.name] == _references(node)[node.name] and not in_bench[node.name]:
                uncalled.add(qualname)
    assert sorted(uncalled - KEPT.keys()) == [], "no caller: delete, or keep in KEPT with a reason"
    assert sorted(KEPT.keys() - uncalled) == [], "in KEPT, but gone or now called"


# Defaulted parameters that no call in src/ or perfbench/ passes, each with
# the reason the default stays a parameter.
UNPASSED_KEPT = {
    **{f"channel.{oracle}.{param}": "physics oracle: tests set the grid and the channel "
       "parameters of one gain or matrix"
       for oracle in ("h_ss", "h_sa", "h_as", "build_mimo") for param in ("grid", "params")},
    "channel.h_aa.params": "physics oracle: tests set the channel parameters of one air gain",
    "mimo.effective_snr.beta": "oracle of the effective SNR of link_results, at any beta",
    "mimo.map_rate.n_streams": "oracle of the rate lookup of link_results, at any stream count",
    "cli._VersionAction.__call__.option_string": "argparse's Action signature; argparse "
                                                 "passes it",
}


def _functions(body, prefix, in_class=False):
    """(qualname, node, whether it is a method) of each function of a body,
    nested ones included."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}.{node.name}", True)
        elif isinstance(node, ast.FunctionDef):
            yield f"{prefix}.{node.name}", node, in_class
            yield from _functions(node.body, f"{prefix}.{node.name}")


def _splatted_keys(tree) -> dict:
    """id(call) -> the keys a call splats with ``**name``: those of every
    dict literal its function assigns to that name."""
    keys = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        literals = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        literals.setdefault(target.id, []).append(node.value)
        for call in ast.walk(fn):
            if isinstance(call, ast.Call):
                for kw in call.keywords:
                    if kw.arg is None:
                        keys.setdefault(id(call), set()).update(
                            k.value for d in literals.get(getattr(kw.value, "id", None), [])
                            for k in d.keys if isinstance(k, ast.Constant))
    return keys


def _passed(trees) -> dict:
    """callee name -> (the most positional arguments a call passes, inf
    after a starred one; the keywords any call passes, splatted ones
    included).  Calls match their callee by name, as a name or attribute."""
    passed = {}
    for tree in trees:
        splatted = _splatted_keys(tree)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            count, keywords = passed.get(name, (0, set()))
            passed[name] = (max(count, math.inf if starred else len(call.args)),
                            keywords | {kw.arg for kw in call.keywords if kw.arg}
                            | splatted.get(id(call), set()))
    return passed


def test_every_defaulted_parameter_is_passed_or_has_a_reason():
    src, bench = _trees()
    passed = _passed([*src.values(), *bench])
    unpassed = set()
    for module, tree in src.items():
        for qualname, fn, method in _functions(tree.body, module):
            # a class is called by its own name
            name = qualname.split(".")[-2] if fn.name == "__init__" else fn.name
            count, keywords = passed.get(name, (0, set()))
            params = fn.args.posonlyargs + fn.args.args
            first = len(params) - len(fn.args.defaults)
            for i, param in enumerate(params[first:], first):
                # a method's call passes self before its first argument
                if not (i - method < count or param.arg in keywords):
                    unpassed.add(f"{qualname}.{param.arg}")
            for param, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None and param.arg not in keywords:
                    unpassed.add(f"{qualname}.{param.arg}")
    unlisted = sorted(unpassed - UNPASSED_KEPT.keys())
    stale = sorted(UNPASSED_KEPT.keys() - unpassed)
    assert not unlisted, (f"no call passes {unlisted}: make each a constant, or keep it in "
                          "UNPASSED_KEPT with a reason")
    assert not stale, f"in UNPASSED_KEPT, but gone or now passed: {stale}"


def _is_dataclass(node) -> bool:
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in node.decorator_list)


def test_every_dataclass_field_is_read():
    # a read is an attribute loaded by the field's name anywhere; config_hash,
    # which hashes every field of a dataclass alike, reads none by name
    src, bench = _trees()
    read = {node.attr for tree in [*src.values(), *bench] for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{module}.{cls.name}.{item.target.id}"
              for module, tree in src.items() for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              for item in cls.body
              if isinstance(item, ast.AnnAssign) and item.target.id not in read]
    assert not unread, f"nothing reads {unread}: delete each"


def test_readme_python_examples_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert "Mbps" in capsys.readouterr().out
