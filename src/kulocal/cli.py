"""Command-line interface: compute, verify, and report.

One table, ``COMMANDS``, gives each subcommand its help line, its typed
options with defaults (``--group`` required, optional or absent) and handler.

JSON output is canonical: sorted keys, compact separators, integers and
strings only, so re-serialization reproduces it byte for byte.
"""

from __future__ import annotations

import json
import random
import sys
import time
from functools import cache, partial
from typing import Callable, NamedTuple

from .burnside import BurnsideRing, marks_json, marks_text
from .exact import IntMatrix, primary_part, prime_factors, require_odd_prime, smith_normal_form
from .fiber import (
    default_ell,
    determinant_mod_ell_check,
    group_report,
    kernel_equals_AmodJ,
)
from .geomfp import (
    Witness,
    bott_character,
    root_of_unity_product,
    verify_CqxCq_vanishing,
    verify_adams_on_bott,
    verify_euler_localization,
    verify_q_unit_identity,
    verify_regular_factorization,
)
from .groups import AbelianGroup, parse_group
from .mackey import (
    assemble_pi0,
    assemble_pi1_c3,
    burnside_mackey,
    idempotent_splitting_check,
    linearization_check,
    ru_mackey,
    v_h,
)
from .tambara import CyclicTower, derive_norm_on_x, restriction_rule_check

DEFAULT_INSTANCES = ["C3", "C9", "C27", "C3xC3", "C5", "C25", "C7", "C3xC9", "C81", "C9xC9"]
GEOMFP_PRIMES = (3, 5, 7)
GEOMFP_MAX_ORDER = 125
NORM_TOWERS = [(q, k) for q in (3, 5, 7) for k in (1, 2, 3)]


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _group_summary(entry: dict) -> str:
    parts = []
    if entry["free_rank"]:
        parts.append(f"Z^{entry['free_rank']}")
    parts.extend(f"Z/{d}" for d in entry["torsion"])
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (ok, payload, text)


def cmd_pi0(group: AbelianGroup, ell: int | None) -> tuple[bool, dict, str]:
    result = assemble_pi0(group, ell)
    payload = result.to_json()
    lines = [f"pi0 levels for {group!r} (ell = {result.ell})"]
    for entry in payload["levels"]:
        lines.append(
            f"  level order {entry['subgroup']:>3}: {_group_summary(entry)}"
            f"   ({entry['cyclic_subgroups']} cyclic subgroups)"
        )
    lines.append(f"  kernel cross-check: {'pass' if result.kernel_cross_check else 'FAIL'}")
    return result.kernel_cross_check, payload, "\n".join(lines)


def cmd_pi1(group: AbelianGroup, ell: int | None) -> tuple[bool, dict, str]:
    payload = group_report(group, ell)
    lines = [f"pi1 data for {group!r} (ell = {payload['ell']}, q = {payload['q']})"]
    for entry in payload["levels"]:
        tors = entry["pi1_invariant_factors"]
        qpart = entry["pi1_q_part"]
        lines.append(
            f"  level order {entry['subgroup']:>3}: cokernel "
            + (" + ".join(f"Z/{d}" for d in tors) if tors else "0")
            + "  q-part "
            + (" + ".join(f"Z/{d}" for d in qpart) if qpart else "0")
        )
    ok = "failures" not in payload
    lines.extend(f"  FAIL  {f}" for f in payload.get("failures", ()))
    if group.factors == (3,):
        m = assemble_pi1_c3()
        levels = {"bottom": m.group.trivial_subgroup, "top": m.group.full_subgroup}
        payload["assembled_c3"] = {key: list(m.level(h).primary_torsion) for key, h in levels.items()}
        lines.append("  assembled degree-1 answer:")
        for label, key in (("e", "bottom"), ("G", "top")):
            lines.append(f"    level {label}:  " + " + ".join(f"Z/{d}" for d in payload["assembled_c3"][key]))
        assembled_q = list(primary_part(payload["assembled_c3"]["top"], 3))
        if payload["pi1_q_part"] != assembled_q:
            ok = False
            lines.append(f"  FAIL  top q-part differs from {assembled_q}, the assembled 3-part")
    return ok, payload, "\n".join(lines)


def cmd_kernel(group: AbelianGroup, ell: int | None) -> tuple[bool, dict, str]:
    witness = kernel_equals_AmodJ(group, ell)
    text = (
        f"kernel identification for {group!r} (ell = {witness.ell}): "
        f"rank {witness.rank}, {witness.cyclic_count} cyclic subgroups, "
        f"lattices {'agree' if witness.ok else 'DISAGREE'}"
    )
    return witness.ok, witness.to_json(), text


def cmd_idempotents(group: AbelianGroup, p: int) -> tuple[bool, dict, str]:
    ring = BurnsideRing(group)
    table = ring.idempotent_table(p)
    payload = {
        "group": repr(group),
        "p": p,
        "idempotents": [
            {
                "subgroup": h.order,
                "coefficients": [str(c) for c in coeffs],
            }
            for h, coeffs in table.items()
        ],
    }
    lines = [f"p-local idempotent table for {group!r} at p = {p}"]
    for h, coeffs in table.items():
        body = " ".join(str(c) for c in coeffs)
        lines.append(f"  e_[order {h.order:>3}]: ({body})")
    return True, payload, "\n".join(lines)


def cmd_marks(group: AbelianGroup) -> tuple[bool, dict, str]:
    return True, marks_json(group), marks_text(group)


def _witness_json(verify: Callable[..., Witness], **params: int) -> dict:
    """The JSON of one Euler-class witness; an error it raises fails that
    witness alone, named by its check and parameters."""
    try:
        return verify(**params).to_json()
    except (ValueError, ArithmeticError) as exc:
        return {
            "check_name": verify.__name__.removeprefix("verify_"),
            "parameters": params,
            "error": f"{type(exc).__name__}: {exc}",
            "pass": False,
        }


def _witness_line(check: dict) -> str:
    error = f": {check['error']}" if "error" in check else ""
    return f"{check['check_name']} {check['parameters']}{error}"


def cmd_geomfp_verify(max_order: int) -> tuple[bool, dict, str]:
    if max_order < min(GEOMFP_PRIMES):
        raise ValueError(
            f"--max-order {max_order} is below {min(GEOMFP_PRIMES)}, the smallest order the suite checks"
        )
    cases = []
    for q in GEOMFP_PRIMES:
        k = 1
        while q ** k <= min(max_order, GEOMFP_MAX_ORDER):
            cases += [(verify, {"q": q, "k": k}) for verify in
                      (verify_regular_factorization, verify_q_unit_identity, verify_euler_localization)]
            k += 1
    for q in (3, 5):
        if q * q <= max_order:
            cases.append((verify_CqxCq_vanishing, {"q": q}))
    checks = [_witness_json(verify, **params) for verify, params in cases]
    ok = all(c["pass"] for c in checks)
    payload = {"checks": checks}
    lines = ["cyclic Euler-class identity suite"]
    lines.extend(f"  {'pass' if c['pass'] else 'FAIL'}  {_witness_line(c)}" for c in checks)
    return ok, payload, "\n".join(lines)


def cmd_bott_verify(group: AbelianGroup, ell: int | None) -> tuple[bool, dict, str]:
    if ell is None:
        ell = default_ell(group)
    values = bott_character(group)
    witness = verify_adams_on_bott(group, ell)
    products = {k: root_of_unity_product(k) == k for k in range(1, 16, 2)}
    ok = witness.ok and all(products.values())
    payload = {
        "group": repr(group),
        "ell": ell,
        "bott_values": [
            {"g": list(g), "scalar": s, "beta_power": b} for g, (s, b) in values.items()
        ],
        "adams_identity": witness.ok,
        "cyclotomic_products": {str(k): bool(v) for k, v in products.items()},
    }
    lines = [f"Bott character for {group!r} (ell = {ell})"]
    for g, (s, b) in values.items():
        lines.append(f"  g = {g}: ({s}) * beta^{b}")
    lines.append(f"  Adams identity on the Bott class: {'pass' if witness.ok else 'FAIL'}")
    lines.append(
        "  products prod(zeta_k^i - 1) = k for odd k <= 15: "
        + ("pass" if all(products.values()) else "FAIL")
    )
    return ok, payload, "\n".join(lines)


def _derive_norms(towers: list[tuple[int, int]]) -> tuple[list[dict], list[str]]:
    """The derivation reports of the (q, k) towers, and what failed: each
    restriction-rule case, each derivation off the formula, by (q, k, i), and
    each tower whose derivation raised, by (q, k)."""
    reports, failures = [], []
    for q, k in towers:
        # an error fails its own tower; the other towers still run
        try:
            tower = CyclicTower(q, k)
            rule = restriction_rule_check(tower)
            derivations = [derive_norm_on_x(tower, i) for i in range(k)]
        except (ValueError, ArithmeticError) as exc:
            failures.append(f"q={q} k={k}: {type(exc).__name__}: {exc}")
            continue
        failures.extend(rule)
        for i, d in enumerate(derivations):
            entry = {**d.to_json(), "restriction_rule": not rule}
            if not d.formula_matches:
                failures.append(f"q={q} k={k} i={i}: survivor {d.survivors[0]} is not {entry['formula']}")
            reports.append(entry)
    return reports, failures


def cmd_norms(group: AbelianGroup | None) -> tuple[bool, dict, str]:
    towers = NORM_TOWERS
    if group is not None:
        primes = prime_factors(group.order)
        if len(group.factors) != 1 or len(primes) != 1:
            raise ValueError("norms need a cyclic prime-power group, e.g. C27")
        require_odd_prime(primes[0])
        k = 1
        while primes[0] ** k < group.order:
            k += 1
        towers = [(primes[0], k)]
    reports, failures = _derive_norms(towers)
    payload = {"derivations": reports}
    lines = ["cyclic-tower norm derivations"]
    for entry in reports:
        lines.append(
            f"  q={entry['q']} k={entry['k']} i={entry['i']}: "
            f"{'unique survivor, ' + entry['formula'] if entry['formula_matches'] else 'FAIL'}"
        )
    if failures:
        payload["failures"] = failures
        lines.append("  failures:")
        lines.extend(f"    {f}" for f in failures)
    return not failures, payload, "\n".join(lines)


def cmd_verify_all(max_order: int, test_seed: int) -> tuple[bool, dict, str]:
    smallest = min(parse_group(spec).order for spec in DEFAULT_INSTANCES)
    if max_order < smallest:
        raise ValueError(f"--max-order {max_order} is below {smallest}, the smallest instance order")
    t0 = time.perf_counter()
    results: list[tuple[str, list[str]]] = []

    def record(name: str, check: Callable[[], list[str]]) -> None:
        # an error the check raises is its failure; the other checks still run
        try:
            failures = check()
        except (ValueError, ArithmeticError) as exc:
            failures = [f"{type(exc).__name__}: {exc}"]
        results.append((name, failures))

    def unless(ok: bool, failure: str) -> list[str]:
        return [] if ok else [failure]

    for g in map(parse_group, DEFAULT_INSTANCES):
        if g.order > max_order:
            continue
        ell = default_ell(g)
        # built once, by the first check that reads it; an error fails each reader
        pi0 = cache(partial(assemble_pi0, g, ell))
        burn = cache(partial(burnside_mackey, g))
        ru = cache(partial(ru_mackey, g))

        def det_nonzero() -> list[str]:
            ok_det, det = determinant_mod_ell_check(g, ell)
            return unless(ok_det, f"det = {det} at ell = {ell}")

        def idempotents_sum_to_one() -> list[str]:
            ring = burn().rings[g.full_subgroup]
            total = tuple(map(sum, zip(*ring.idempotent_table(2).values(), strict=True)))
            return unless(total == ring.one, f"the idempotents sum to {total}")

        def pieces() -> list[str]:
            expected = {h: (1, ()) if h.is_cyclic else (0, ()) for h in g.subgroups()}
            found = {h: v_h(pi0().a_mod_j, h, 2) for h in expected}
            return [f"V_H at {h!r} is {found[h]}, expected {e}" for h, e in expected.items() if found[h] != e]

        record(f"{g!r}: kernel identification", lambda: kernel_equals_AmodJ(g, ell).failures)
        record(f"{g!r}: pi0 assembly cross-check", lambda: list(pi0().cross_check_failures))
        record(f"{g!r}: pi0 Mackey axioms", lambda: pi0().functor.check_mackey_axioms())
        record(f"{g!r}: pi0 Green axioms", lambda: pi0().functor.check_green_axioms())
        record(f"{g!r}: degree-2 determinant nonzero", det_nonzero)
        record(f"{g!r}: Burnside Mackey axioms", lambda: burn().check_mackey_axioms())
        record(f"{g!r}: Burnside Green axioms", lambda: burn().check_green_axioms())
        record(f"{g!r}: RU Mackey axioms", lambda: ru().check_mackey_axioms())
        record(f"{g!r}: RU Green axioms", lambda: ru().check_green_axioms())
        record(f"{g!r}: A/J Mackey axioms", lambda: pi0().a_mod_j.check_mackey_axioms())
        record(f"{g!r}: linearization is a Green map", lambda: linearization_check(burn(), ru()))
        record(f"{g!r}: splitting rank bookkeeping (A)", lambda: idempotent_splitting_check(burn(), 2))
        record(f"{g!r}: splitting rank bookkeeping (A/J)", lambda: idempotent_splitting_check(pi0().a_mod_j, 2))
        record(f"{g!r}: idempotent table at p=2", idempotents_sum_to_one)
        record(f"{g!r}: geometric pieces match the cyclic pattern", pieces)
        record(
            f"{g!r}: Bott/Adams character identity",
            lambda: unless(verify_adams_on_bott(g, ell).ok, f"fails at ell = {ell}"),
        )

    record("Euler-class identity suite", lambda: [
        _witness_line(c) for c in cmd_geomfp_verify(GEOMFP_MAX_ORDER)[1]["checks"] if not c["pass"]
    ])
    record("norm derivations", lambda: _derive_norms(NORM_TOWERS)[1])

    def pi1_c3() -> list[str]:
        m = assemble_pi1_c3()
        c3 = m.group
        failures = m.check_mackey_axioms()
        level = m.level(c3.full_subgroup)
        # the q-class is the one generator of order 3 (3 e_i is 0, e_i is not)
        zero = (0,) * level.rank
        units = [tuple(int(j == i) for j in range(level.rank)) for i in range(level.rank)]
        q_classes = [
            i for i, e in enumerate(units)
            if not level.elements_equal(e, zero) and level.elements_equal(tuple(3 * x for x in e), zero)
        ]
        if len(q_classes) != 1:
            return failures + [f"the top level has {len(q_classes)} generators of order 3, not one"]
        if any(m.res(c3.full_subgroup, c3.trivial_subgroup).column(q_classes[0])):
            failures.append("restriction does not kill the q-class")
        top = list(primary_part(level.primary_torsion, 3))
        expected = group_report(c3, 2)["pi1_q_part"]
        return failures + unless(top == expected, f"top q-part {top}, but pi1 at ell = 2 has {expected}")

    record("degree-1 assembly for C3", pi1_c3)

    def random_smith() -> list[str]:
        rng = random.Random(test_seed)
        for draw in range(100):
            rows = rng.randrange(1, 9)
            cols = rng.randrange(1, 9)
            a = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
            if not smith_normal_form(a).verify():
                return [f"draw {draw} of seed {test_seed} does not verify"]
        return []

    record("random Smith decompositions verify", random_smith)

    elapsed = time.perf_counter() - t0
    ok = not any(failures for _, failures in results)
    checks = []
    lines = [f"verify-all (max order {max_order})"]
    for name, failures in results:
        checks.append({"name": name, "pass": not failures})
        lines.append(f"  {'FAIL' if failures else 'pass'}  {name}")
        if failures:
            checks[-1]["failures"] = failures
            lines.extend(f"        {f}" for f in failures)
    lines.append(f"{'all checks passed' if ok else 'FAILURES PRESENT'} in {elapsed:.1f}s")
    payload = {
        "max_order": max_order,
        "elapsed_seconds_time_hundredths": int(elapsed * 100),
        "checks": checks,
        "pass": ok,
    }
    return ok, payload, "\n".join(lines)


# ---------------------------------------------------------------------------


class Command(NamedTuple):
    help: str
    options: dict[str, tuple]  # flag -> (int, str or a tuple of choices; default, or REQUIRED)
    handler: Callable[..., tuple[bool, dict, str]]


REQUIRED = object()
COMMON = {"--format": (("json", "text"), "text"), "--output": (str, None)}
GROUP = {"--group": (str, REQUIRED)} | COMMON
ELL = GROUP | {"--ell": (int, None)}
COMMANDS = {
    "pi0": Command("levelwise degree-0 assembly", ELL, cmd_pi0),
    "pi1": Command("degree-2 cokernels per level", ELL, cmd_pi1),
    "kernel": Command("kernel identification", ELL, cmd_kernel),
    "idempotents": Command("p-local idempotent table", GROUP | {"--p": (int, 2)}, cmd_idempotents),
    "marks": Command("table of marks", GROUP, cmd_marks),
    "geomfp-verify": Command("Euler-class identity suites", COMMON | {"--max-order": (int, GEOMFP_MAX_ORDER)},
                             cmd_geomfp_verify),
    "bott-verify": Command("Bott character identities", ELL, cmd_bott_verify),
    "norms": Command("norm derivation report", {"--group": (str, None)} | COMMON, cmd_norms),
    "verify-all": Command("all suites; exit 0 iff every check passes",
                          COMMON | {"--max-order": (int, 81), "--test-seed": (int, 20240801)}, cmd_verify_all),
}


def parse_args(argv: list[str]) -> tuple[Command, dict] | int:
    """The command of argv and its option values by keyword (``--max-order``
    gives ``max_order``), defaults filled in; or, once help (exit code 0) or
    an error and a usage line (exit code 2) is printed, the exit code.  An
    option is ``--opt value`` or ``--opt=value``, or a unique prefix of it,
    and a repeated option keeps its last value."""
    name = argv[0] if argv else ""
    command = COMMANDS.get(name)
    if command is None:
        usage = "usage: kulocal {" + ",".join(COMMANDS) + "} [-h] [options]"
        if name in ("-h", "--help"):
            print(usage, "", *(f"  {n:<14} {c.help}" for n, c in COMMANDS.items()), sep="\n")
            return 0
        print("error: expected a subcommand" + (f", not {name!r}" if argv else ""), usage, sep="\n", file=sys.stderr)
        return 2
    flags = command.options
    usage = f"usage: kulocal {name} [-h]"
    for flag, (kind, default) in flags.items():
        metavar = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else flag[2:].replace("-", "_").upper()
        usage += f" {flag} {metavar}" if default is REQUIRED else f" [{flag} {metavar}]"
    names, values, args = (*flags, "--help"), {}, iter(argv[1:])
    try:
        for arg in args:
            flag, eq, value = ("--help" if arg == "-h" else arg).partition("=")
            found = [flag] if flag in names else [f for f in names if flag[2:] and f.startswith(flag)]
            if len(found) != 1:
                raise ValueError(f"unrecognized argument {arg!r}")
            flag = found[0]
            if flag == "--help":
                rows = [f"  {f:<12} default {d}" for f, (_, d) in flags.items() if d is not REQUIRED]
                print(usage, "", command.help, "", *rows, sep="\n")
                return 0
            if not eq:
                value = next(args, None)  # a negative number is a value, another "-" word an option
                if value is None or value.startswith("-") and value[1:2] not in "0123456789.":
                    raise ValueError(f"{flag} expects a value")
            kind = flags[flag][0]
            try:  # a tuple kind lists the choices
                values[flag] = kind[kind.index(value)] if isinstance(kind, tuple) else kind(value)
            except ValueError:
                raise ValueError(f"{flag}: invalid value {value!r}") from None
        if missing := [f for f, (_, default) in flags.items() if default is REQUIRED and f not in values]:
            raise ValueError(f"{', '.join(missing)} is required")
    except ValueError as exc:
        print(f"error: {exc}", usage, sep="\n", file=sys.stderr)
        return 2
    return command, {flag[2:].replace("-", "_"): values.get(flag, default) for flag, (_, default) in flags.items()}


def run(argv: list[str]) -> int:
    if isinstance(parsed := parse_args(argv), int):
        return parsed
    command, values = parsed
    form, output = values.pop("format"), values.pop("output")
    try:
        if values.get("group") is not None:
            values["group"] = parse_group(values["group"])
        ok, payload, text = command.handler(**values)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = canonical_json(payload) if form == "json" else text + "\n"
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(out)
    return 0 if ok else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
