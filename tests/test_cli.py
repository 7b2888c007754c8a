import ast
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from kulocal.cli import DEFAULT_INSTANCES, canonical_json, run
from kulocal.groups import parse_group


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


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code = run(["marks", "--group", "C3", "--format", "json", "--output", str(path)])
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["subgroup_orders"] == [1, 3]


def test_geomfp_verify_small(capsys):
    code, out, _ = run_capture(capsys, ["geomfp-verify", "--max-order", "9"])
    assert code == 0
    assert "pass" in out and "FAIL" not in out


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
# check must raise explicitly.
ASSERT_ALLOWLIST = {
    ("groups", "map_set_orbits"): (2, "brute-force oracle; checks its own enumeration"),
    ("reprings", "perm_rep"): (1, "inline enumeration oracle, kept while the benchmark counts it"),
}


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


def test_bott_verify_c243_under_O_within_the_job_budget():
    # bott-verify C243 used to take about three minutes (one cyclotomic
    # product per element); 30 s is the benchmark's per-job budget
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "kulocal.cli", "bott-verify", "--group", "C243",
         "--format", "json"],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["adams_identity"] is True
    group = parse_group("C243")
    assert len(payload["bott_values"]) == group.order
    for row in payload["bott_values"]:
        k = group.element_order(tuple(row["g"]))
        m = group.order // k
        assert (row["scalar"], row["beta_power"]) == (k ** m, m)


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


@pytest.mark.parametrize("command", ["pi0", "pi1"])
def test_singular_degree2_exits_2(capsys, command):
    code, out, err = run_capture(capsys, [command, "--group", "C9", "--ell", "1"])
    assert code == 2
    assert out == ""
    assert "degree-2 psi^ell - 1 is singular" in err
