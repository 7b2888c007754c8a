import ast
import dataclasses
import hashlib
import json
import os
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from kulocal import cli
from kulocal.burnside import AModJ, BurnsideRing
from kulocal.cli import DEFAULT_INSTANCES, canonical_json, cmd_norms, cmd_pi0, cmd_verify_all, run
from kulocal.exact import IntMatrix
from kulocal.groups import DualLevel, Subgroup, parse_group
from kulocal.mackey import MackeyFunctor, _tensor, a_mod_j_mackey, assemble_pi0
from kulocal.tambara import CyclicTower, NormDerivation


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_pi0_text(capsys):
    code, out, _ = run_capture(capsys, ["pi0", "--group", "C9"])
    assert code == 0
    assert "level order   9: Z^3 + Z/2 + Z/2 + Z/2" in out
    assert "level order   3: Z^2 + Z/2 + Z/2" in out
    assert "level order   1: Z^1 + Z/2" in out


def test_pi1_c3(capsys):
    code, out, _ = run_capture(capsys, ["pi1", "--group", "C3", "--ell", "2"])
    assert code == 0
    assert "Z/2 + Z/2 + Z/2 + Z/2 + Z/3" in out
    assert "level e:  Z/2 + Z/2" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("ell", ["8", "17"])
def test_pi1_c3_fails_where_the_q_part_disagrees_with_the_assembly(capsys, ell):
    # 9 divides ell + 1, so the top q-part is Z/9, not the assembled Z/3
    code, out, _ = run_capture(capsys, ["pi1", "--group", "C3", "--ell", ell])
    assert code == 1
    assert "FAIL  top q-part differs from [3]" in out
    code, out, _ = run_capture(capsys, ["pi1", "--group", "C3", "--ell", ell, "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["pi1_q_part"] == [9]
    assert payload["assembled_c3"] == {"bottom": [2, 2], "top": [2, 2, 2, 2, 3]}


def test_kernel_json_roundtrip(capsys):
    code, out, _ = run_capture(capsys, ["kernel", "--group", "C9", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pi0_rank"] == 3
    # canonical form: re-serialization is byte-identical
    assert canonical_json(payload) == out


def test_json_no_floats(capsys):
    for argv in (
        ["pi0", "--group", "C3", "--format", "json"],
        ["pi1", "--group", "C3", "--format", "json"],
        ["marks", "--group", "C3xC3", "--format", "json"],
        ["norms", "--group", "C9", "--format", "json"],
        ["idempotents", "--group", "C3", "--format", "json"],
    ):
        code, out, _ = run_capture(capsys, argv)
        assert code == 0

        def no_floats(obj):
            if isinstance(obj, float):
                return False
            if isinstance(obj, dict):
                return all(no_floats(v) for v in obj.values())
            if isinstance(obj, list):
                return all(no_floats(v) for v in obj)
            return True

        payload = json.loads(out)
        assert no_floats(payload)
        assert canonical_json(payload) == out


def test_marks_text(capsys):
    code, out, _ = run_capture(capsys, ["marks", "--group", "C9"])
    assert code == 0
    assert "[G/  1]     9     0     0" in out


def test_idempotents_error_on_bad_prime(capsys):
    code, out, err = run_capture(capsys, ["idempotents", "--group", "C9", "--p", "3"])
    assert code == 2
    assert "divides the group order" in err


@pytest.mark.parametrize("p", ["0", "1", "4"])
def test_idempotents_error_on_nonprime(capsys, p):
    code, out, err = run_capture(capsys, ["idempotents", "--group", "C9", "--p", p])
    assert code == 2
    assert f"p={p} is not a prime" in err


@pytest.mark.parametrize("command", ["kernel", "pi0", "pi1"])
def test_kernel_error_on_nonprimitive(capsys, command):
    code, out, err = run_capture(capsys, [command, "--group", "C7", "--ell", "2"])
    assert code == 2
    assert "primitive root" in err


@pytest.mark.parametrize("command", ["kernel", "pi0", "pi1"])
def test_error_on_noncoprime_ell(capsys, command):
    # coprimality is checked before primitivity by every subcommand
    code, out, err = run_capture(capsys, [command, "--group", "C9", "--ell", "3"])
    assert code == 2
    assert "ell=3 is not coprime to |G|=9" in err


def test_pi0_error_on_even_group(capsys):
    code, out, err = run_capture(capsys, ["pi0", "--group", "C2"])
    assert code == 2
    assert "odd order" in err


def test_parse_error(capsys):
    code, out, err = run_capture(capsys, ["marks", "--group", "D8"])
    assert code == 2
    assert "group spec" in err


def test_norms_requires_prime_power(capsys):
    code, out, err = run_capture(capsys, ["norms", "--group", "C3xC3"])
    assert code == 2
    assert "cyclic prime-power" in err


@pytest.mark.parametrize("spec", ["C2", "C4"])
def test_norms_reject_a_2_group(capsys, spec):
    code, out, err = run_capture(capsys, ["norms", "--group", spec])
    assert (code, out) == (2, "")
    assert err == "error: q must be an odd prime\n"


@pytest.mark.parametrize("command", [name for name, c in cli.COMMANDS.items() if "--group" in c.options])
def test_empty_group_is_a_bad_spec(capsys, command):
    # an empty --group is parsed, not taken for an absent one
    code, out, err = run_capture(capsys, [command, "--group", ""])
    assert (code, out) == (2, "")
    assert err.startswith("error: bad group spec ''")


@pytest.mark.parametrize("argv", [
    [],
    ["bogus"],
    ["pi0"],
    ["pi0", "--group", "C9", "--bogus", "1"],
    ["pi0", "--group", "C9", "stray"],
    ["pi0", "--group"],
    ["pi0", "--group", "--format=json"],
    ["pi0", "--group", "C9", "--ell", "x"],
    ["verify-all", "--max-order", "1.5"],
    ["pi0", "--group", "C9", "--format", "xml"],
    ["verify-all", "--group", "C9"],
])
def test_bad_argv_exits_2_with_a_usage_line(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (2, "")
    first, usage = err.splitlines()
    assert first.startswith("error: ") and usage.startswith("usage: kulocal ")


@pytest.mark.parametrize("spelled,short", [
    (["pi0", "--group", "C9", "--format", "json"], ["pi0", "--group=C9", "--form=json"]),
    (["pi0", "--group", "C9", "--format", "json"], ["pi0", "--gro", "C9", "--f", "json"]),
    (["pi0", "--group", "C9", "--format", "json"], ["pi0", "--group", "C3", "--format=text", "--g=C9", "--f", "json"]),
    (["kernel", "--group", "C9", "--ell", "5", "--format", "json"], ["kernel", "--g", "C9", "--e=5", "--fo=json"]),
    (["pi0", "--group", "C9", "--ell=-4", "--format", "json"], ["pi0", "--group", "C9", "--ell", "-4", "--f", "json"]),
    (["verify-all", "--max-order", "9", "--test-seed", "3", "--format", "json"], ["verify-all", "--m=9", "--t", "3", "--f=json"]),
])
def test_option_forms_give_identical_output(capsys, spelled, short):
    outputs = [run_capture(capsys, argv)[:2] for argv in (spelled, short)]
    if spelled[0] == "verify-all":  # its one nondeterministic field
        outputs = [(code, {**json.loads(out), "elapsed_seconds_time_hundredths": 0}) for code, out in outputs]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


@pytest.mark.parametrize("argv", [["--help"], ["-h"], *([name, "--help"] for name in cli.COMMANDS), ["pi0", "-h"]])
def test_help_names_every_subcommand_or_option(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: kulocal ")
    names = cli.COMMANDS[argv[0]].options if argv[0] in cli.COMMANDS else cli.COMMANDS
    assert all(name in out for name in names)


def test_bad_argv_exits_2_under_O():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "kulocal.cli", "pi0", "--ell", "2"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: --group is required\n")


def test_a_job_loads_no_argparse():
    # building argparse parsers cost each job milliseconds; the command table
    # parses argv without argparse or the gettext it loads
    script = (
        "import sys\nfrom kulocal.cli import run\n"
        "code = run(['pi1', '--group', 'C9', '--format', 'json'])\n"
        "print(code, 'argparse' in sys.modules, 'gettext' in sys.modules, file=sys.stderr)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.stderr == "0 False False\n"


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code = run(["marks", "--group", "C3", "--format", "json", "--output", str(path)])
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["subgroup_orders"] == [1, 3]


def test_output_to_a_missing_directory_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_capture(capsys, ["marks", "--group", "C3", "--output", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(path) in err
    assert not path.exists()


def test_geomfp_verify_small(capsys):
    code, out, _ = run_capture(capsys, ["geomfp-verify", "--max-order", "9"])
    assert code == 0
    assert "pass" in out and "FAIL" not in out


@pytest.mark.parametrize("max_order", ["2", "1", "0"])
def test_verify_all_below_the_smallest_instance_order_exits_2(capsys, max_order):
    # no default instance has order at most max_order, so the group checks
    # would pass vacuously
    code, out, err = run_capture(capsys, ["verify-all", "--max-order", max_order])
    assert (code, out) == (2, "")
    assert err == f"error: --max-order {max_order} is below 3, the smallest instance order\n"


@pytest.mark.parametrize("max_order", ["2", "0", "-5"])
def test_geomfp_verify_below_the_smallest_order_exits_2(capsys, max_order):
    # no suite order is at most max_order, so a run would pass vacuously
    code, out, err = run_capture(capsys, ["geomfp-verify", "--max-order", max_order])
    assert (code, out) == (2, "")
    assert err == f"error: --max-order {max_order} is below 3, the smallest order the suite checks\n"


# sha256 of `geomfp-verify --format json`: pins every witness value of the
# Euler-class suites, which no other test compares in full
GEOMFP_VERIFY_SHA256 = "c0994f37a7f84fd81e66cb79e9af9e82a14f9c51e7472c3849573250a704d2c1"


# Output digests of the benchmark jobs, recorded by perfbench/record_digests.py;
# the digest is taken as perfbench/run.py's output_digest takes it: sha256 of
# the re-serialized canonical JSON.
BENCH_DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"


def test_geomfp_verify_json_pinned(capsys):
    code, out, _ = run_capture(capsys, ["geomfp-verify", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GEOMFP_VERIFY_SHA256


def test_geomfp_verify_json_pinned_under_O():
    # the witnesses, idempotents, norms and kernel witnesses must not depend
    # on assert statements; all but the first are pinned to their benchmark
    # digests (2 is the default ell of both kernel groups)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    digests = json.loads(BENCH_DIGESTS.read_text())
    cases = [
        (["geomfp-verify"], GEOMFP_VERIFY_SHA256),
        (["idempotents", "--group", "C3xC3xC9", "--p", "2"], digests["idempotents C3xC3xC9"]["-"]),
        (["norms"], digests["norms"]["-"]),
        (["kernel", "--group", "C243"], digests["kernel C243"]["2"]),
        (["kernel", "--group", "C3xC3xC9"], digests["kernel C3xC3xC9"]["2"]),
    ]
    for argv, digest in cases:
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "kulocal.cli", *argv, "--format", "json"],
            env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout.decode()
        assert canonical_json(json.loads(out)) == out
        assert hashlib.sha256(proc.stdout).hexdigest() == digest


# Every assert statement left in src/kulocal, by (module, enclosing function),
# with its count and why it may stay: python -O removes asserts, so any other
# check must raise explicitly.  None is left.
ASSERT_ALLOWLIST: dict[tuple[str, str], tuple[int, str]] = {}


def _asserts_in(tree, module):
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            is_raise = (
                isinstance(child, ast.Raise)
                and child.exc is not None
                and "AssertionError" in ast.unparse(child.exc)
            )
            if isinstance(child, ast.Assert) or is_raise:
                found.append((module, ".".join(scope)))
            visit(child, scope)

    visit(tree, ())
    return found


def test_asserts_in_src_are_allowlisted():
    src = Path(__file__).resolve().parent.parent / "src" / "kulocal"
    found = Counter()
    for path in sorted(src.glob("*.py")):
        found.update(_asserts_in(ast.parse(path.read_text()), path.stem))
    assert dict(found) == {key: count for key, (count, _) in ASSERT_ALLOWLIST.items()}


def test_map_set_oracle_checks_itself_under_O():
    # an "action" that sends every point to the first one: distinct
    # assignments on the coset representatives extend to the same map, which
    # the oracle must refuse without relying on assert statements
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = (
        "from kulocal.groups import ExplicitHSet, map_set_orbits, parse_group\n"
        "g = parse_group('C3')\n"
        "x = ExplicitHSet(g.trivial_subgroup, (0, 1), lambda h, p: 0)\n"
        "try:\n"
        "    map_set_orbits(g.full_subgroup, g.trivial_subgroup, x)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "8 assignments extend to 1 maps: X is not an H-set" in proc.stdout


def test_only_the_marks_functor_builds_level_rings():
    # a level's BurnsideRing is built by _marks_functor and read from its
    # rings everywhere else; a call with a level argument elsewhere would
    # build a second copy of a ring the functor already holds
    src = Path(__file__).resolve().parent.parent / "src" / "kulocal"
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "BurnsideRing"
                and (len(child.args) > 1 or any(k.arg == "level" for k in child.keywords))
            ):
                found.append((path.stem, ".".join(scope)))
            visit(child, inner)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), ())
    assert found == [("mackey", "_marks_functor")]


def _construction_counts(monkeypatch, job):
    """(BurnsideRing builds, A/J Hermite forms) made by ``job()``."""
    counts = Counter()
    for cls, key in ((BurnsideRing, "rings"), (AModJ, "a_mod_j")):
        def counted(self, *args, _init=cls.__init__, _key=key, **kwargs):
            counts[_key] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    assert job()[0]
    return counts["rings"], counts["a_mod_j"]


@pytest.mark.parametrize("job,rings,a_mod_j", [
    ("norms", 27, 0),  # 9 towers, 27 levels: one ring per level
    # pi0 reads each level's rank off its element orders and certifies its
    # kernel from the character group: no ring, no Hermite basis
    ("pi0", 0, 0),
    # the 32 levels of the instances of order <= 27 (Burnside and A/J), the 2
    # of the C3 degree-1 assembly, the 27 tower levels, and 2 whole-group
    # rings per instance (in perm_rep)
    ("verify-all", 2 * 32 + 2 + 27 + 2 * 8, 32 + 2),
])
def test_each_level_ring_is_built_once(monkeypatch, job, rings, a_mod_j):
    jobs = {
        "norms": lambda: cmd_norms(None),
        "pi0": lambda: cmd_pi0(parse_group("C3xC3xC9"), None),
        "verify-all": lambda: cmd_verify_all(27, 20240801),
    }
    assert _construction_counts(monkeypatch, jobs[job]) == (rings, a_mod_j)


def _unused_imports(tree, exported=()):
    """Top-level imported names that no Name or attribute base refers to."""
    imported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - set(exported) - {"annotations"})


def test_src_has_no_unused_imports():
    import kulocal

    src = Path(__file__).resolve().parent.parent / "src" / "kulocal"
    unused = {}
    for path in sorted(src.glob("*.py")):
        exported = kulocal.__all__ if path.stem == "__init__" else ()
        names = _unused_imports(ast.parse(path.read_text()), exported)
        if names:
            unused[path.stem] = names
    assert unused == {}


def _unused_locals(func: ast.AST) -> list[str]:
    """Names that func's own body binds and nothing in func (nested closures
    included) reads; parameters, ``_``-names and global/nonlocal names are
    not counted."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
    own, stack = [], list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        own.append(node)
        if not isinstance(node, scopes):
            stack.extend(ast.iter_child_nodes(node))
    declared = {n for node in own if isinstance(node, (ast.Global, ast.Nonlocal)) for n in node.names}
    bound = {
        node.id for node in own if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    read = {
        node.id for node in ast.walk(func) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(n for n in bound - read - declared if not n.startswith("_"))


def test_src_has_no_unused_locals():
    src = Path(__file__).resolve().parent.parent / "src" / "kulocal"
    unused = {
        f"{path.stem}.{node.name}": names
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and (names := _unused_locals(node))
    }
    assert unused == {}


def test_src_zips_are_strict():
    # every zip in src pairs vectors or coordinates that must have equal
    # length; a non-strict zip would truncate the longer one silently
    src = Path(__file__).resolve().parent.parent / "src" / "kulocal"
    loose = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "zip"
        and not any(
            k.arg == "strict" and getattr(k.value, "value", None) is True for k in node.keywords
        )
    ]
    assert loose == []


def _length_mismatches():
    from kulocal.burnside import BurnsideRing
    from kulocal.reprings import RURing
    from kulocal.tambara import CyclicTower

    g = parse_group("C3xC3")
    c3 = parse_group("C3")
    ru = RURing(c3)
    top = CyclicTower(3, 1).pi0.level(c3.full_subgroup)  # rank 4
    a9 = BurnsideRing(parse_group("C9"))  # rank 3
    return {
        "BurnsideRing.marks": lambda: a9.marks((1, 0, 0, 5)),
        "BurnsideRing.element_from_marks": lambda: a9.element_from_marks((9, 0, 0, 7)),
        "BurnsideRing.linearize": lambda: a9.linearize((1,)),
        "Level.elements_equal short": lambda: top.elements_equal((1,), (1, 2, 3, 4)),
        "Level.elements_equal long": lambda: top.elements_equal((0, 0, 0, 0), (0, 0, 0, 0, 7)),
        "AbelianGroup.add": lambda: g.add((1,), (1, 1)),
        "AbelianGroup.neg": lambda: g.neg((1,)),
        "AbelianGroup.scale": lambda: g.scale(2, (1,)),
        "AbelianGroup.element_order": lambda: g.element_order((1,)),
        "AbelianGroup.dual_pairing": lambda: g.dual_pairing((1, 1), (1,)),
        "AbelianGroup.pairing_kernel": lambda: g.pairing_kernel((1,)),
        "AbelianGroup.translate": lambda: g.translate(1, (1,)),
        "RURing.add": lambda: ru.add((1, 0), (0, 1, 0)),
        "RURing.character": lambda: ru.character((1, 0, 0, 1)),
        "RURing.euler_class": lambda: ru.euler_class((0, 1)),
        "CyclicTower.norm_burnside_bruteforce": (
            lambda: CyclicTower(3, 2).norm_burnside_bruteforce(0, 1, (2, 5))
        ),
    }


@pytest.mark.parametrize("entry", sorted(_length_mismatches()))
def test_length_mismatch_raises(entry):
    # each of these truncated the longer operand and returned a value before
    # its zip was made strict, e.g. elements_equal((1,), (1, 2, 3, 4)) was True
    with pytest.raises(ValueError, match="zip"):
        _length_mismatches()[entry]()


# Every def in src/kulocal that no subcommand and no demo calls, with why it
# stays in src.  Code that only the tests run lives in tests/oracles.py.
UNREACHED_ALLOWLIST = {
    "cli.main": "console-script entry point; it only calls run",
    "exact.solve_integer": "perfbench/tracer.py wraps it by name",
    "fiber.pi1_level": "perfbench/tracer.py wraps it by name",
    "groups.Subgroup.join": "perfbench/tracer.py wraps it by name",
    "groups.DualLevel.canon": "perfbench/tracer.py wraps it by name",
    "exact.reduce_root_of_unity_sum": "exported in kulocal.__all__",
    "fiber.adams_minus_one": "exported in kulocal.__all__",
    "exact.IntMatrix.__add__": "matrix arithmetic; raises on a shape mismatch",
    "exact.IntMatrix.__sub__": "matrix arithmetic; raises on a shape mismatch",
    "exact.IntMatrix._entrywise": "the one body of __add__ and __sub__",
    "exact.IntMatrix.__neg__": "matrix arithmetic",
    "exact.IntMatrix.zeros": "small API: the zero matrix of a shape",
    "exact.IntMatrix.identity": "small API: the identity matrix; the all-pairs axiom oracle builds it",
    "exact.IntMatrix.scale": "matrix arithmetic; the all-pairs axiom oracle scales a double-coset side",
    "exact.IntMatrix.__hash__": "data model: a matrix is a hashable value",
    "exact.IntMatrix.__repr__": "data model",
    "exact.Cyclotomic.__hash__": "data model: a cyclotomic number is a hashable value",
    "exact.Cyclotomic.__repr__": "data model",
    "groups.AbelianGroup.__eq__": "data model: groups compare by their factors",
    "groups.AbelianGroup.__hash__": "data model: groups compare by their factors",
    "groups.Subgroup.__repr__": "names subgroups in axiom-failure messages, which a green run never builds",
    "groups.AbelianGroup.dual_pairing": "the pairing's definition; tests hold pairing_row and the characters to it",
    "groups.AbelianGroup.neg": "small API: group arithmetic beside add and scale",
    "groups.AbelianGroup.sub": "small API: group arithmetic beside add and scale",
    "groups.ExplicitHSet.size": "small API: the number of points",
    "reprings.RURing.scale": "small API: ring arithmetic beside add and multiply",
}

# Runs every subcommand once on small groups, then every demo, in a fresh
# interpreter (so no cache warmed by another test hides a call), and prints
# (module, first line, name) of each src function it entered.
REACH_SCRIPT = """
import contextlib, io, json, runpy, sys
from pathlib import Path

src, demos = Path(sys.argv[1]), sorted(Path(sys.argv[2]).glob("*.py"))
codes = set()

def profile(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)

from kulocal.cli import run

jobs = [[cmd, "--group", spec] for cmd in ("pi0", "pi1", "kernel", "idempotents", "marks", "bott-verify")
        for spec in ("C9", "C3xC3")]
jobs += [["norms", "--group", "C9"], ["geomfp-verify", "--max-order", "9"],
         ["verify-all", "--max-order", "9"]]
sys.setprofile(profile)
with contextlib.redirect_stdout(io.StringIO()):
    exit_codes = [run([*job, "--format", "json"]) for job in jobs]
    for demo in demos:
        runpy.run_path(str(demo), run_name="__main__")
sys.setprofile(None)
called = [(Path(c.co_filename).stem, c.co_firstlineno, c.co_name)
          for c in codes if Path(c.co_filename).parent == src]
print(json.dumps({"exit_codes": exit_codes, "called": sorted(called)}))
"""


def _src_defs(src):
    """{(module, first line, name): qualified name} of every def in src, the
    first line being that of its first decorator, as in its code object."""
    defs = {}

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
                if not isinstance(child, ast.ClassDef):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    defs[(module, line, child.name)] = ".".join((module,) + inner)
                visit(child, module, inner)
            else:
                visit(child, module, scope)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, ())
    return defs


def test_src_defs_are_reached():
    root = Path(__file__).resolve().parent.parent
    src = root / "src" / "kulocal"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", REACH_SCRIPT, str(src), str(root / "demos")],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["exit_codes"] == [0] * len(result["exit_codes"])
    called = {tuple(key) for key in result["called"]}
    unreached = {name for key, name in _src_defs(src).items() if key not in called}
    assert unreached == set(UNREACHED_ALLOWLIST)


# The lattice and cyclic workloads' pi0, pi1 and kernel jobs and their output
# digests (BENCH_DIGESTS), at every recorded ell.
CYCLIC_GROUPS = ("C243", "C81", "C27")
LATTICE_PI0_GROUPS = ("C3xC3xC9", "C5xC25", "C9xC9", "C3xC27", "C3xC3xC3")
LATTICE_GROUPS = LATTICE_PI0_GROUPS + ("C5xC5xC5",)


def _lattice_cases(command, groups):
    digests = json.loads(BENCH_DIGESTS.read_text())
    return [
        pytest.param(spec, ell, digest, id=f"{spec}-ell{ell}")
        for spec in groups
        for ell, digest in sorted(digests[f"{command} {spec}"].items())
    ]


def _assert_json_digest(capsys, command, spec, ell, digest):
    code, out, _ = run_capture(capsys, [command, "--group", spec, "--ell", ell, "--format", "json"])
    assert code == 0
    canonical = canonical_json(json.loads(out))
    assert hashlib.sha256(canonical.encode()).hexdigest() == digest


@pytest.mark.parametrize("spec,ell,digest", _lattice_cases("pi0", LATTICE_PI0_GROUPS + CYCLIC_GROUPS))
def test_pi0_json_matches_benchmark_digest(capsys, spec, ell, digest):
    _assert_json_digest(capsys, "pi0", spec, ell, digest)


@pytest.mark.parametrize("spec,ell,digest", _lattice_cases("pi1", LATTICE_GROUPS + CYCLIC_GROUPS))
def test_pi1_json_matches_benchmark_digest(capsys, spec, ell, digest):
    _assert_json_digest(capsys, "pi1", spec, ell, digest)


@pytest.mark.parametrize("spec,ell,digest", _lattice_cases("kernel", LATTICE_GROUPS + CYCLIC_GROUPS))
def test_kernel_json_matches_benchmark_digest(capsys, spec, ell, digest):
    _assert_json_digest(capsys, "kernel", spec, ell, digest)


def test_verify_all_json_matches_benchmark_digest(capsys):
    # the verify workload's job: every check name and result is pinned; the
    # elapsed time is the one field left out of the digest
    digest = json.loads(BENCH_DIGESTS.read_text())["verify-all"]["-"]
    code, out, _ = run_capture(capsys, ["verify-all", "--max-order", "27", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    payload.pop("elapsed_seconds_time_hundredths")
    assert hashlib.sha256(canonical_json(payload).encode()).hexdigest() == digest


def test_bott_verify(capsys):
    code, out, _ = run_capture(capsys, ["bott-verify", "--group", "C3"])
    assert code == 0
    assert "(3) * beta^1" in out


def _fresh_under_O(*argv):
    """``kulocal.cli *argv --format json`` in a fresh ``python -O`` with 3 GB
    of address space, within 30 s, the benchmark's per-job budget."""
    src = Path(__file__).resolve().parent.parent / "src"
    limit = 3 * 1024 ** 3
    return subprocess.run(
        [sys.executable, "-O", "-m", "kulocal.cli", *argv, "--format", "json"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


@pytest.mark.parametrize("spec", ["C243", "C729"])
def test_bott_verify_under_O_within_the_job_budget(spec):
    # bott-verify C243 used to take about three minutes (one cyclotomic
    # product per element)
    proc = _fresh_under_O("bott-verify", "--group", spec)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["adams_identity"] is True
    group = parse_group(spec)
    assert len(payload["bott_values"]) == group.order
    for row in payload["bott_values"]:
        k = group.element_order(tuple(row["g"]))
        m = group.order // k
        assert (row["scalar"], row["beta_power"]) == (k ** m, m)


@pytest.mark.parametrize("spec,rank", [
    ("C3xC3xC3xC3xC3", 122), ("C9xC9xC9", 131), ("C3xC3xC3xC3xC3xC3", 365),
])
def test_kernel_under_O_within_the_job_budget(spec, rank):
    # C3^5 and C9xC9xC9 were killed at 150 s while the identification took
    # the Hermite form of the whole linearization; C3^6 took 37 s while it
    # built all 56,632 rows of it, one annihilator each
    proc = _fresh_under_O("kernel", "--group", spec)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["lattices_agree"] is True
    assert payload["pi0_rank"] == payload["cyclic_subgroups"] == rank


@pytest.mark.parametrize("spec,q_part", [
    # at ell = 2 an order-3 cyclic subgroup is one 2-cycle, with cokernel
    # Z/(2^2 - 1), and an order-9 one a 6-cycle, with Z/(2^6 - 1) = Z/63
    ("C3xC3xC3xC3xC3", [3] * 121),
    ("C9xC9xC9", [3] * 13 + [9] * 117),
])
def test_pi1_under_O_within_the_job_budget(spec, q_part):
    # C3^5 took 1.2-1.4 s fresh while each of its 2664 levels was decomposed
    proc = _fresh_under_O("pi1", "--group", spec)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert "failures" not in payload
    assert payload["ell"] == 2
    assert len(payload["levels"]) == len(parse_group(spec).subgroups())
    assert payload["pi1_q_part"] == payload["levels"][-1]["pi1_q_part"] == q_part


@pytest.mark.parametrize("spec,levels", [
    ("C9xC9xC9", 445), ("C3xC3xC3xC3xC3", 2664), ("C3xC3xC3xC3xC3xC3", 56632),
])
def test_pi0_under_O_within_the_job_budget(spec, levels):
    # C9xC9xC9 took 75 s fresh while every A/J level built its Hermite basis
    # (69 s on the top level alone); C3^6 was killed at 40 s while every level
    # was decomposed and certified from all its linearization rows
    proc = _fresh_under_O("pi0", "--group", spec)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["kernel_cross_check"] is True
    assert len(payload["levels"]) == levels
    for level in payload["levels"]:
        assert level["cyclic_subgroups"] == level["free_rank"]


@pytest.mark.parametrize("ell,err", [
    ("3", "error: ell=3 is not coprime to |G|=9\n"),
    ("1", "error: degree-2 psi^ell - 1 is singular; this contradicts the finiteness "
          "of the cokernel and signals an engine bug\n"),
    ("4", "error: ell=4 is not a primitive root mod exponent(G)=9\n"),
])
def test_pi0_admits_ell_in_order(capsys, ell, err):
    # not coprime, then singular (read off the top level alone), then not a
    # primitive root: ell = 1 is coprime to 9 and not primitive mod 9, so
    # its message shows the singular check comes first
    code, out, got = run_capture(capsys, ["pi0", "--group", "C9", "--ell", ell])
    assert (code, out, got) == (2, "", err)


@pytest.mark.parametrize("ell,err", [
    ("3", "error: ell=3 is not coprime to |G|=9\n"),
    ("0", "error: ell=0 is not coprime to |G|=9\n"),
    ("1", "error: ell=1 is not a primitive root mod exponent(G)=9\n"),
    ("4", "error: ell=4 is not a primitive root mod exponent(G)=9\n"),
])
def test_bott_verify_admits_ell_in_order(capsys, ell, err):
    # not coprime first, with the message pi0, pi1 and kernel give, then not
    # a primitive root
    code, out, got = run_capture(capsys, ["bott-verify", "--group", "C9", "--ell", ell])
    assert (code, out, got) == (2, "", err)


@pytest.mark.parametrize("argv", [
    [command, "--group", "C3xC3xC9"] for command in ("pi0", "pi1", "kernel", "idempotents", "marks")
] + [["bott-verify", "--group", "C81"]])
def test_jobs_that_print_levels_construct_no_functor(capsys, monkeypatch, argv):
    # a functor is built whole, every map at once, so these jobs must read
    # their levels without one
    built = []
    init = MackeyFunctor.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MackeyFunctor, "__init__", counted)
    assert run_capture(capsys, argv)[0] == 0
    assert built == []


@pytest.mark.parametrize("argv,calls", [
    (["kernel", "--group", "C3xC3xC9"], {}),
    # pi0 builds no functor, so no A/J Hermite basis
    (["pi0", "--group", "C3xC3xC9"], {}),
    # a level compares elements by its generator orders, so the axiom checks
    # take Hermite forms only for A/J's bases and coordinates
    (["verify-all", "--max-order", "27"], {"kulocal.burnside": 34, "kulocal.exact": 64}),
])
def test_kernel_identification_takes_no_hermite_form(capsys, monkeypatch, argv, calls):
    # fiber.spans_cycle_lattice certifies the degree-0 kernel; row_hnf is
    # counted in every kulocal module that holds it, by that module
    assert not hasattr(sys.modules["kulocal.fiber"], "row_hnf")
    counts = Counter()
    for name, module in list(sys.modules.items()):
        if name.startswith("kulocal.") and hasattr(module, "row_hnf"):
            def counted(*args, _hnf=module.row_hnf, _name=name):
                counts[_name] += 1
                return _hnf(*args)

            monkeypatch.setattr(module, "row_hnf", counted)
    assert run_capture(capsys, argv)[0] == 0
    assert counts == calls


def test_pi0_reads_down_sets_without_containment_tests(capsys, monkeypatch):
    # every "subgroups of H" read goes through the cached Subgroup.subgroups
    # (one mask test per subgroup of a prefix); a Subgroup.contains filter
    # of every subgroup per level ring makes 266,630 calls on this group
    calls = Counter()
    contains = Subgroup.contains

    def counted(self, other):
        calls["contains"] += 1
        return contains(self, other)

    monkeypatch.setattr(Subgroup, "contains", counted)
    assert run_capture(capsys, ["pi0", "--group", "C3xC3xC3xC9"])[0] == 0
    assert calls["contains"] == 0


def test_a_missing_linearization_row_fails_both_kernel_checks(capsys, monkeypatch):
    # the certificates read the cyclic rows of the linearization, largest
    # first; without the first, the all-ones row of [H/e], no row covers the
    # faithful characters of a cyclic level H
    build = DualLevel.cyclic_rows.func
    monkeypatch.setattr(DualLevel, "cyclic_rows", property(lambda dual: build(dual)[1:]))
    code, out, _ = run_capture(capsys, ["kernel", "--group", "C9"])
    assert code == 1
    assert "lattices DISAGREE" in out
    code, out, _ = run_capture(capsys, ["pi0", "--group", "C9"])
    assert code == 1
    assert "kernel cross-check: FAIL" in out
    code, failed, _ = _verify_all_failures(capsys)
    assert code == 1
    assert failed["C9: kernel identification"] == ["the linearized Burnside lattice is not the kernel"]
    assert failed["C9: pi0 assembly cross-check"] == [
        f"at {h!r}: the linearized Burnside lattice is not the kernel" for h in parse_group("C9").subgroups()
    ]


def test_a_split_cycle_fails_the_pi0_cross_check(capsys, monkeypatch):
    # a decomposition that splits each 6-cycle, the generators of a C9, has
    # a cycle too many per C9 for the rank, and the pieces share their last
    # cover; C3xC9 certifies its three levels of type C9 once, and names each
    import kulocal.fiber as fiber

    decompose = fiber.adams_cycles

    def split_6_cycles(dual, ell):
        cycles = decompose(dual, ell)
        return tuple(p for c in cycles for p in ((c[:1], c[1:]) if len(c) == 6 else (c,)))

    monkeypatch.setattr(fiber, "adams_cycles", split_6_cycles)
    code, out, _ = run_capture(capsys, ["pi0", "--group", "C3xC9"])
    assert code == 1
    assert "kernel cross-check: FAIL" in out
    g = parse_group("C3xC9")
    c9s = [h for h in g.subgroups() if h.order == 9 and h.is_cyclic]
    assert len(c9s) == 3
    assert assemble_pi0(g).cross_check_failures == tuple(
        f"at {h!r}: {failure}"
        for h, (rank, cycles) in [*((h, (3, 4)) for h in c9s), (g.full_subgroup, (8, 11))]
        for failure in (
            "the linearized Burnside lattice is not the kernel", f"kernel rank {cycles} != A/J rank {rank}",
        )
    )


def test_verify_all_tiny(capsys):
    code, out, _ = run_capture(capsys, ["verify-all", "--max-order", "9"])
    assert code == 0
    assert "all checks passed" in out


def test_verify_all_reports_kernel_fault_under_O():
    # a rational lattice short of one row must fail the kernel identification
    # of every instance, and nothing else, without relying on assert statements
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = (
        "import sys, kulocal.fiber as fiber\n"
        "full = fiber.rational_rep_lattices\n"
        "fiber.rational_rep_lattices = lambda group: full(group)[1:]\n"
        "from kulocal.cli import run\n"
        "sys.exit(run(['verify-all', '--max-order', '9']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    fails = [line.split("FAIL", 1)[1].strip() for line in lines if "FAIL  " in line]
    instances = [s for s in DEFAULT_INSTANCES if parse_group(s).order <= 9]
    assert fails == [f"{spec}: kernel identification" for spec in instances]


def test_verify_all_reports_a_wrong_linearization(capsys, monkeypatch):
    # zero the row of [G/e] on each top level, as in
    # test_mackey.py::test_linearization_check_sees_a_wrong_kernel
    build = BurnsideRing.linearize_matrix.func

    def corrupted(ring):
        lin = build(ring)
        if ring.level != ring.group.full_subgroup:
            return lin
        return IntMatrix([[0] * lin.cols] + [list(r) for r in lin.entries[1:]], cols=lin.cols)

    monkeypatch.setattr(BurnsideRing, "linearize_matrix", property(corrupted))
    code, out, _ = run_capture(capsys, ["verify-all", "--max-order", "9", "--format", "json"])
    assert code == 1
    checks = json.loads(out)["checks"]
    assert all("failures" not in c for c in checks if c["pass"])
    assert all(c["failures"] for c in checks if not c["pass"])
    top = repr(parse_group("C3xC3").full_subgroup)
    entry = next(c for c in checks if c["name"] == "C3xC3: linearization is a Green map")
    assert not entry["pass"]
    assert f"kernel is not J at {top}" in entry["failures"]

    code, out, _ = run_capture(capsys, ["verify-all", "--max-order", "9"])
    assert code == 1
    lines = out.splitlines()
    at = lines.index("  FAIL  C3xC3: linearization is a Green map")
    below = []
    for line in lines[at + 1:]:
        if not line.startswith("        "):
            break
        below.append(line.strip())
    assert entry["failures"] == below
    assert not any("FAIL" in f for c in checks if not c["pass"] for f in c["failures"])


def _verify_all_failures(capsys):
    """verify-all's exit code, {name: failures} of its failing checks and its
    number of checks, after checking that the text lists the same failures
    under each FAIL line."""
    code, out, _ = run_capture(capsys, ["verify-all", "--max-order", "9", "--format", "json"])
    checks = json.loads(out)["checks"]
    failed = {c["name"]: c["failures"] for c in checks if not c["pass"]}
    _, text, _ = run_capture(capsys, ["verify-all", "--max-order", "9"])
    listed, name = {}, None
    for line in text.splitlines():
        if line.startswith("  FAIL  "):
            name = line[len("  FAIL  "):]
            listed[name] = []
        elif line.startswith("        ") and name is not None:
            listed[name].append(line.strip())
        else:
            name = None
    assert listed == failed
    return code, failed, len(checks)


def test_verify_all_records_a_raising_check_and_goes_on(capsys, monkeypatch):
    # an x_i^q that is not zero makes derive_norm_on_x raise; that fails each
    # tower of the norm check, and no other check
    monkeypatch.setattr(CyclicTower, "x_power", lambda self, i, n: (1,) + (0,) * (2 * self.ring(i).n - 1))
    code, failed, count = _verify_all_failures(capsys)
    assert code == 1
    norms = failed.pop("norm derivations")
    assert failed == {}
    assert norms[0] == "q=3 k=1: ArithmeticError: x_0^3 = (1, 0) is not zero"
    assert [f.split(":")[0] for f in norms] == [f"q={q} k={k}" for q, k in cli.NORM_TOWERS]
    instances = [s for s in DEFAULT_INSTANCES if parse_group(s).order <= 9]
    assert count == 16 * len(instances) + 4


def test_norms_list_a_raising_tower_and_run_the_others(capsys, monkeypatch):
    green = cmd_norms(None)[1]["derivations"]
    original = CyclicTower.x_power

    def x_power(self, i, n):
        if (self.q, self.k) == (5, 2):
            raise ArithmeticError("x_power refused")
        return original(self, i, n)

    monkeypatch.setattr(CyclicTower, "x_power", x_power)
    code, out, _ = run_capture(capsys, ["norms", "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["failures"] == ["q=5 k=2: ArithmeticError: x_power refused"]
    assert payload["derivations"] == [d for d in green if (d["q"], d["k"]) != (5, 2)]
    code, out, _ = run_capture(capsys, ["verify-all", "--max-order", "9"])
    assert code == 1
    assert "        q=5 k=2: ArithmeticError: x_power refused" in out.splitlines()


def test_geomfp_verify_lists_a_raising_witness_and_runs_the_others(capsys, monkeypatch):
    original = cli.verify_euler_localization

    def verify_euler_localization(q, k):
        if (q, k) == (3, 2):
            raise ArithmeticError("no localization")
        return original(q, k)

    code, out, _ = run_capture(capsys, ["geomfp-verify", "--max-order", "9", "--format", "json"])
    assert code == 0
    green = json.loads(out)["checks"]
    monkeypatch.setattr(cli, "verify_euler_localization", verify_euler_localization)
    code, out, _ = run_capture(capsys, ["geomfp-verify", "--max-order", "9", "--format", "json"])
    assert code == 1
    checks = json.loads(out)["checks"]
    raised = {
        "check_name": "euler_localization", "parameters": {"q": 3, "k": 2},
        "error": "ArithmeticError: no localization", "pass": False,
    }
    case = ("euler_localization", {"q": 3, "k": 2})
    assert checks == [raised if (c["check_name"], c["parameters"]) == case else c for c in green]
    code, failed, _ = _verify_all_failures(capsys)
    assert failed == {"Euler-class identity suite": [
        "euler_localization {'q': 3, 'k': 2}: ArithmeticError: no localization"
    ]}


def test_verify_all_fails_each_reader_of_a_functor_that_raises(capsys, monkeypatch):
    def broken(group, ell):
        raise ArithmeticError(f"no pi0 for {group!r}")

    monkeypatch.setattr(cli, "assemble_pi0", broken)
    code, failed, _ = _verify_all_failures(capsys)
    assert code == 1
    readers = [
        "pi0 assembly cross-check", "pi0 Mackey axioms", "pi0 Green axioms", "A/J Mackey axioms",
        "splitting rank bookkeeping (A/J)", "geometric pieces match the cyclic pattern",
    ]
    instances = [s for s in DEFAULT_INSTANCES if parse_group(s).order <= 9]
    assert failed == {
        f"{spec}: {name}": [f"ArithmeticError: no pi0 for {spec}"] for spec in instances for name in readers
    }


def test_verify_all_names_the_failing_norm_cases(capsys, monkeypatch):
    # a restriction rule that expects (q + 1) [C_{q^i} / C_{q^j}], and a
    # derivation at q = 5, k = 2, i = 1 whose survivor is taken for wrong
    monkeypatch.setattr(BurnsideRing, "scale", lambda self, c, a: tuple((c + 1) * x for x in a))
    formula = NormDerivation.formula_matches.fget
    monkeypatch.setattr(
        NormDerivation, "formula_matches",
        property(lambda d: formula(d) and (d.q, d.k, d.i) != (5, 2, 1)),
    )
    code, failed, _ = _verify_all_failures(capsys)
    assert code == 1
    norms = failed.pop("norm derivations")
    assert failed == {}
    assert "q=3 k=1 i=0 j=0: res gives (3,), not (4,)" in norms
    assert "q=7 k=3 i=2 j=2: res gives (0, 0, 7), not (0, 0, 8)" in norms
    assert "q=5 k=2 i=1: survivor (0, 1, 1) is not N(x_i) = x_{i+1}(1+y_i)" in norms
    # one failure per (q, k, i, j <= i), and the one derivation
    assert len(norms) == 3 * (1 + 3 + 6) + 1
    code, out, _ = run_capture(capsys, ["norms", "--format", "json"])
    assert code == 1
    assert not any(d["restriction_rule"] for d in json.loads(out)["derivations"])


def test_verify_all_names_the_failing_euler_class_witnesses(capsys, monkeypatch):
    original = cli.verify_q_unit_identity
    monkeypatch.setattr(
        cli, "verify_q_unit_identity", lambda q, k: dataclasses.replace(original(q, k), ok=(q, k) != (5, 2))
    )
    code, failed, _ = _verify_all_failures(capsys)
    assert code == 1
    assert failed == {"Euler-class identity suite": ["q_unit_identity {'q': 5, 'k': 2}"]}


def test_verify_all_checks_the_c3_degree_1_assembly(capsys, monkeypatch):
    # the assembly's top q-part is held to pi1 of C3 at ell = 2, not to a
    # typed-in answer
    original = cli.group_report
    monkeypatch.setattr(cli, "group_report", lambda g, ell: {**original(g, ell), "pi1_q_part": [9]})
    code, failed, _ = _verify_all_failures(capsys)
    assert code == 1
    assert failed == {"degree-1 assembly for C3": ["top q-part [3], but pi1 at ell = 2 has [9]"]}


def _c3_assembly(orders, top_extra):
    group = parse_group("C3")
    return MackeyFunctor(group, *_tensor(a_mod_j_mackey(group), orders, {group.full_subgroup: top_extra}))


def test_verify_all_finds_the_c3_q_class_by_its_order(capsys, monkeypatch):
    # one (Z/2) block instead of two moves the q-class to column 2
    monkeypatch.setattr(cli, "assemble_pi1_c3", lambda: _c3_assembly((2,), (3,)))
    code, failed, _ = _verify_all_failures(capsys)
    assert (code, failed) == (0, {})
    monkeypatch.setattr(cli, "assemble_pi1_c3", lambda: _c3_assembly((2, 2), (3, 3)))
    code, failed, _ = _verify_all_failures(capsys)
    assert code == 1
    assert failed == {"degree-1 assembly for C3": ["the top level has 2 generators of order 3, not one"]}


def test_pi1_c3_json_under_O():
    # the assembled degree-1 answer must not depend on assert statements
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "kulocal.cli", "pi1", "--group", "C3", "--format", "json"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["assembled_c3"] == {"bottom": [2, 2], "top": [2, 2, 2, 2, 3]}


def test_benchmark_tracer_binds_every_wrap_point():
    # perfbench/tracer.py wraps layer functions by name; one that is renamed
    # or deleted makes every traced benchmark job fail
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    script = "import kulocal.cli\nfrom tracer import Tracer\nTracer().install()\n"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_pi1_trivial_group_has_empty_q_part(capsys):
    # q = 1 for the trivial group: the q-part is empty and the command returns
    code, out, _ = run_capture(capsys, ["pi1", "--group", "C1", "--ell", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 1
    assert payload["pi1_q_part"] == []
    assert all(level["pi1_q_part"] == [] for level in payload["levels"])


@pytest.mark.parametrize("command", ["pi0", "pi1", "kernel"])
def test_singular_degree2_exits_2(capsys, command):
    code, out, err = run_capture(capsys, [command, "--group", "C9", "--ell", "1"])
    assert code == 2
    assert out == ""
    assert "degree-2 psi^ell - 1 is singular" in err
