"""The package's single paths, checked on its syntax tree.

Condensation is a multiclass perceptron run at a certified bandwidth only
while the package keeps one kernel producer, one scoring path, one distance
kernel over one coordinate layout, one way to grow a buffer, one sweep loop,
one replay, one all-pairs pass and one place that cuts query blocks, and
datasets hold arrays, never a list of points. Each
rule names what it pins and the modules (`cli`) or functions (`cli.mp_cmd`,
`kernel_machine.KernelConfig.kernel`) where that may appear; a nested
function is a scope of its own. A name ending in "(" counts where it is
called, any other name wherever it is referenced or imported. A site counts
when its dotted name ends with the rule's name, so `pb.run_mp(...)` is a
`run_mp(` site. Comments and docstrings are not code and never count.
"""

import ast
import shutil
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "protobound"


def _module(package: Path, path: Path) -> str:
    return ".".join(path.relative_to(package).with_suffix("").parts)


MODULES = sorted(_module(SRC, p) for p in SRC.rglob("*.py"))

# (names, modules or functions where they may appear, reason)
RULES = [
    (("scipy",), (), "scipy is not a dependency"),
    (("np.ascontiguousarray", "np.asfortranarray"), (),
     "coordinates have one layout, feature-major from _coord_buffer"),
    (("np.pad", "np.empty_like"), ("dataset._grown",),
     "buffers grow through dataset._grown alone"),
    (("np.exp",), ("kernel_machine.KernelConfig.kernel",),
     "kernel values come from KernelConfig.kernel"),
    (("np.bincount",), ("kernel_machine._shifted_class_sums",),
     "class sums of shifted kernel ratios come from _shifted_class_sums"),
    (("np.einsum", "np.linalg.norm", "np.square", "np.hypot", "diff * diff"),
     ("dataset.sq_dists_to",), "squared distances come from sq_dists_to"),
    (("LabeledPoint(",),
     ("dataset.Dataset.__getitem__", "dataset.Dataset.__init__",
      "dataset.blob_stream.items"),
     "a dataset holds arrays: a LabeledPoint is made only when a dataset hands "
     "one out, from a caller's (coords, label) tuple, or by the stream"),
    (("UpdateEvent(",), ("nn_rule._sweep",),
     "updates are logged by the one sweep loop, nn_rule._sweep"),
    (("run_mp(",), ("kernel_machine", "cli.mp_cmd"),
     "the paper's identity is checked by kernel_machine._replay alone; "
     "elsewhere only the mp command runs the perceptron"),
    (("_distance_row_blocks",), ("dataset",),
     "loops over all pairs of points live in dataset.py"),
    (("BLOCK_ELEMENTS",), ("dataset",),
     "query blocks are cut in dataset.py alone, by _row_blocks and, for the "
     "online pull, _stream_block_size"),
    (("verify_neighborly", "ExhaustiveCapError"),
     tuple(m for m in MODULES if m != "margin_bound"),
     "the size bound certifies a bandwidth analytically or by trace replay"),
]


def _sites(node: ast.AST) -> list[str]:
    """What `node` names: a callee followed by "(", a name or attribute,
    an arithmetic expression's text, or each prefix of an imported module
    and each name imported from it."""
    if isinstance(node, ast.Call):
        return [ast.unparse(node.func) + "("]
    if isinstance(node, (ast.Name, ast.Attribute, ast.BinOp)):
        return [ast.unparse(node)]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        base = getattr(node, "module", None)
        names = [base] if base else []
        names += [f"{base}.{a.name}" if base else a.name for a in node.names]
        return sorted({".".join(n.split(".")[:k])
                       for n in names for k in range(1, n.count(".") + 2)})
    return []


def violations(package: Path) -> list[str]:
    """`file:line: site in scope (reason)` for each site in `package`, a
    copy of src/protobound, that a rule does not allow there."""
    found = []

    def walk(node, module, scope, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        for site in _sites(node):
            for names, allowed, reason in RULES:
                if module in allowed or scope in allowed:
                    continue
                if any(site == n or site.endswith("." + n) for n in names):
                    found.append(f"{where}:{node.lineno}: {site} in {scope} ({reason})")
        for child in ast.iter_child_nodes(node):
            walk(child, module, scope, where)

    for path in sorted(package.rglob("*.py")):
        module = _module(package, path)
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        walk(tree, module, module, path.relative_to(package.parents[1]))
    return found


def test_the_package_keeps_its_single_paths():
    found = violations(SRC)
    assert not found, "\n".join(found)


# (rule name, module, source appended to it; its last line holds the site)
PLANTED = [
    ("scipy", "cnn", "from scipy import linalg"),
    ("scipy", "dataset", "def _planted():\n    import scipy.spatial"),
    ("np.ascontiguousarray", "dataset",
     "def _planted(coords):\n    return np.ascontiguousarray(coords.T)"),
    ("np.asfortranarray", "cnn", "to_columns = np.asfortranarray"),
    ("np.pad", "margin_bound",
     "def _planted(base):\n    return np.pad(base, (0, 16))"),
    ("np.empty_like", "kernel_machine",
     "class _Planted:\n    def grow(self, codes):\n"
     "        return np.empty_like(codes, shape=(3, 16))"),
    ("np.exp", "kernel_machine", "def _planted(d2):\n    return np.exp(-d2)"),
    ("np.bincount", "kernel_machine",
     "def _planted(codes):\n    return np.bincount(codes)"),
    ("np.einsum", "margin_bound",
     "def _planted(x):\n    return np.einsum('ij,ij->i', x, x)"),
    ("np.linalg.norm", "neighborly", "def _planted(x):\n    return np.linalg.norm(x)"),
    ("np.square", "nn_rule", "square = np.square"),
    ("np.hypot", "dataset",
     "class _Planted:\n    def dist(self, x, y):\n        return np.hypot(x, y)"),
    ("diff * diff", "dataset",
     "def _planted(a, b):\n    diff = a - b\n    return (diff * diff).sum()"),
    ("LabeledPoint(", "dataset",
     "def _planted(coords, label):\n    return LabeledPoint(tuple(coords), label)"),
    ("LabeledPoint(", "nn_rule",
     "class _Planted:\n    def point(self, row):\n"
     "        return pb.LabeledPoint(row, 'A')"),
    ("UpdateEvent(", "nn_rule",
     "def _planted(i):\n    return UpdateEvent(1, i, 'A', None)"),
    ("UpdateEvent(", "cnn", "def _planted(i):\n    return pb.UpdateEvent(1, i, 'A', None)"),
    ("run_mp(", "margin_bound",
     "def _planted(dataset, cfg):\n    return pb.run_mp(dataset, cfg)"),
    ("run_mp(", "cli", "def _planted(dataset, cfg):\n    return run_mp(dataset, cfg)"),
    ("_distance_row_blocks", "neighborly",
     "def _planted(coords):\n    return list(_distance_row_blocks(coords))"),
    ("BLOCK_ELEMENTS", "kernel_machine", "from .dataset import BLOCK_ELEMENTS"),
    ("verify_neighborly", "margin_bound", "from .neighborly import verify_neighborly"),
    ("ExhaustiveCapError", "margin_bound",
     "def _planted():\n    raise ExhaustiveCapError('past the cap')"),
]


def test_every_rule_name_has_a_planted_site():
    assert {n for names, _, _ in RULES for n in names} == {p[0] for p in PLANTED}


@pytest.mark.parametrize(
    "name, module, source", PLANTED, ids=[f"{p[0]}-{p[1]}" for p in PLANTED]
)
def test_a_planted_site_is_reported_with_its_file_and_line(
    tmp_path, name, module, source
):
    package = tmp_path / "src" / "protobound"
    shutil.copytree(SRC, package)
    path = package / f"{module}.py"
    text = path.read_text(encoding="utf-8")
    path.write_text(f"{text}\n\n{source}\n", encoding="utf-8")
    line = text.count("\n") + 3 + source.count("\n")
    found = violations(package)
    assert len(found) == 1, found
    assert found[0].startswith(f"src/protobound/{module}.py:{line}: "), found
    assert name.rstrip("(") in found[0]
