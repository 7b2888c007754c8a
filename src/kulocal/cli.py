"""Command-line interface: compute, verify, and report.

Subcommands

  pi0           levelwise degree-0 assembly for a group
  pi1           levelwise degree-2 cokernels (and the full order-3 answer)
  kernel        the three-lattice kernel identification for a group
  idempotents   the p-local idempotent table for a group
  marks         table of marks dump
  geomfp-verify the cyclic Euler-class identity suites
  bott-verify   Bott character and Adams-operation character identities
  norms         cyclic-tower norm derivation report
  verify-all    every suite over the default instance list; exit 0 iff green

JSON output is canonical: sorted keys, compact separators, integers and
strings only, so re-serialization reproduces it byte for byte.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from .burnside import BurnsideRing, marks_json, marks_text
from .exact import IntMatrix, primary_part, prime_factors, smith_normal_form
from .fiber import (
    default_ell,
    determinant_mod_ell_check,
    group_report,
    kernel_equals_AmodJ,
)
from .geomfp import (
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
    PI1_C3_TORSION,
    MackeyFunctor,
    a_mod_j_mackey,
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


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _group_summary(entry: dict) -> str:
    parts = []
    if entry["free_rank"]:
        parts.append(f"Z^{entry['free_rank']}")
    parts.extend(f"Z/{d}" for d in entry["torsion"])
    return " + ".join(parts) if parts else "0"


def _pi1_c3_torsion(m: MackeyFunctor) -> dict:
    """Primary torsion of the bottom and top levels, as ``PI1_C3_TORSION``."""
    return {
        "bottom": list(m.level(m.group.trivial_subgroup).primary_torsion),
        "top": list(m.level(m.group.full_subgroup).primary_torsion),
    }


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (ok, payload, text)


def cmd_pi0(group: AbelianGroup, ell: int | None) -> tuple[bool, dict, str]:
    result = assemble_pi0(group, ell)
    lines = [f"pi0 levels for {group!r} (ell = {result.ell})"]
    for entry in result.level_summary():
        lines.append(
            f"  level order {entry['subgroup']:>3}: {_group_summary(entry)}"
            f"   ({entry['cyclic_subgroups']} cyclic subgroups)"
        )
    lines.append(f"  kernel cross-check: {'pass' if result.kernel_cross_check else 'FAIL'}")
    return result.kernel_cross_check, result.to_json(), "\n".join(lines)


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
    ok = payload["det_degree2"] != 0
    if group.factors == (3,):
        payload["assembled_c3"] = _pi1_c3_torsion(assemble_pi1_c3())
        lines.append("  assembled degree-1 answer:")
        lines.append(
            "    level e:  " + " + ".join(f"Z/{d}" for d in payload["assembled_c3"]["bottom"])
        )
        lines.append(
            "    level G:  " + " + ".join(f"Z/{d}" for d in payload["assembled_c3"]["top"])
        )
        ok = ok and payload["assembled_c3"] == PI1_C3_TORSION
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


def cmd_idempotents(group: AbelianGroup, p: int | None) -> tuple[bool, dict, str]:
    if p is None:
        p = 2
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


def cmd_geomfp_verify(max_order: int) -> tuple[bool, dict, str]:
    checks = []
    for q in GEOMFP_PRIMES:
        k = 1
        while q ** k <= min(max_order, GEOMFP_MAX_ORDER):
            checks.append(verify_regular_factorization(q, k))
            checks.append(verify_q_unit_identity(q, k))
            checks.append(verify_euler_localization(q, k))
            k += 1
    for q in (3, 5):
        if q * q <= max_order:
            checks.append(verify_CqxCq_vanishing(q))
    ok = all(c.ok for c in checks)
    payload = {"checks": [c.to_json() for c in checks]}
    lines = ["cyclic Euler-class identity suite"]
    for c in checks:
        lines.append(
            f"  {'pass' if c.ok else 'FAIL'}  {c.check_name} {c.parameters}"
        )
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


def cmd_norms(group: AbelianGroup | None) -> tuple[bool, dict, str]:
    towers: list[tuple[int, int]] = []
    if group is not None:
        if len(group.factors) != 1:
            raise ValueError("norms need a cyclic prime-power group, e.g. C27")
        n = group.factors[0]
        primes = prime_factors(n)
        if len(primes) != 1:
            raise ValueError("norms need a cyclic prime-power group")
        q, k = primes[0], 1
        while q ** k < n:
            k += 1
        towers.append((q, k))
    else:
        towers = [(q, k) for q in (3, 5, 7) for k in (1, 2, 3)]
    reports = []
    ok = True
    for q, k in towers:
        tower = CyclicTower(q, k)
        rule = restriction_rule_check(tower)
        ok = ok and rule
        for i in range(k):
            d = derive_norm_on_x(tower, i)
            ok = ok and d.formula_matches
            entry = d.to_json()
            entry["restriction_rule"] = rule
            reports.append(entry)
    payload = {"derivations": reports}
    lines = ["cyclic-tower norm derivations"]
    for entry in reports:
        lines.append(
            f"  q={entry['q']} k={entry['k']} i={entry['i']}: "
            f"{'unique survivor, ' + entry['formula'] if entry['formula_matches'] else 'FAIL'}"
        )
    return ok, payload, "\n".join(lines)


def cmd_verify_all(max_order: int, test_seed: int) -> tuple[bool, dict, str]:
    t0 = time.perf_counter()
    results: list[tuple[str, list[str]]] = []

    def record(name: str, failures: list[str]) -> None:
        results.append((name, failures))

    def unless(ok: bool, failure: str) -> list[str]:
        return [] if ok else [failure]

    instances = [
        parse_group(spec)
        for spec in DEFAULT_INSTANCES
        if parse_group(spec).order <= max_order
    ]
    for g in instances:
        ell = default_ell(g)
        record(f"{g!r}: kernel identification", unless(kernel_equals_AmodJ(g, ell).ok, "lattices differ"))
        pi0 = assemble_pi0(g, ell)
        record(f"{g!r}: pi0 assembly cross-check", unless(pi0.kernel_cross_check, "a level differs"))
        record(f"{g!r}: pi0 Mackey axioms", pi0.functor.check_mackey_axioms())
        record(f"{g!r}: pi0 Green axioms", pi0.functor.check_green_axioms())
        ok_det, det = determinant_mod_ell_check(g, ell)
        record(f"{g!r}: degree-2 determinant nonzero", unless(ok_det, f"det = {det} at ell = {ell}"))
        burn = burnside_mackey(g)
        ru = ru_mackey(g)
        amj = a_mod_j_mackey(g)
        record(f"{g!r}: Burnside Mackey axioms", burn.check_mackey_axioms())
        record(f"{g!r}: Burnside Green axioms", burn.check_green_axioms())
        record(f"{g!r}: RU Mackey axioms", ru.check_mackey_axioms())
        record(f"{g!r}: RU Green axioms", ru.check_green_axioms())
        record(f"{g!r}: A/J Mackey axioms", amj.check_mackey_axioms())
        record(f"{g!r}: linearization is a Green map", linearization_check(burn, ru))
        record(f"{g!r}: splitting rank bookkeeping (A)", idempotent_splitting_check(burn, 2))
        record(f"{g!r}: splitting rank bookkeeping (A/J)", idempotent_splitting_check(amj, 2))
        try:
            BurnsideRing(g).idempotent_table(2)
            table = []
        except ValueError as exc:
            table = [str(exc)]
        record(f"{g!r}: idempotent table at p=2", table)
        pieces = []
        for h in g.subgroups():
            piece = v_h(amj, h, 2)
            expected = (1, ()) if h.is_cyclic else (0, ())
            if piece != expected:
                pieces.append(f"V_H at {h!r} is {piece}, expected {expected}")
        record(f"{g!r}: geometric pieces match the cyclic pattern", pieces)
        adams_ok = verify_adams_on_bott(g, ell).ok
        record(f"{g!r}: Bott/Adams character identity", unless(adams_ok, f"fails at ell = {ell}"))

    geom_ok, _, _ = cmd_geomfp_verify(max_order=GEOMFP_MAX_ORDER)
    record("Euler-class identity suite", unless(geom_ok, "see geomfp-verify"))

    norm_ok, _, _ = cmd_norms(None)
    record("norm derivations", unless(norm_ok, "see norms"))

    m = assemble_pi1_c3()
    c3 = m.group
    torsion = _pi1_c3_torsion(m)
    c3_ok = (
        torsion == PI1_C3_TORSION
        and m.res(c3.full_subgroup, c3.trivial_subgroup).column(4) == (0, 0)
    )
    record("degree-1 assembly for C3", unless(c3_ok, f"torsion {torsion} or the q-class survives res"))

    rng = random.Random(test_seed)
    snf = []
    for draw in range(100):
        rows = rng.randrange(1, 9)
        cols = rng.randrange(1, 9)
        a = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        if not smith_normal_form(a).verify():
            snf = [f"draw {draw} of seed {test_seed} does not verify"]
            break
    record("random Smith decompositions verify", snf)

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kulocal",
        description="exact Burnside/representation-ring computations and verification suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, group_required=True, group_optional=False):
        if group_required or group_optional:
            p.add_argument(
                "--group",
                required=group_required,
                help="group spec, e.g. C9 or C3xC3",
            )
        p.add_argument("--format", choices=["json", "text"], default="text")
        p.add_argument("--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("pi0", help="levelwise degree-0 assembly")
    add_common(p)
    p.add_argument("--ell", type=int, default=None)

    p = sub.add_parser("pi1", help="degree-2 cokernels per level")
    add_common(p)
    p.add_argument("--ell", type=int, default=None)

    p = sub.add_parser("kernel", help="kernel identification")
    add_common(p)
    p.add_argument("--ell", type=int, default=None)

    p = sub.add_parser("idempotents", help="p-local idempotent table")
    add_common(p)
    p.add_argument("--p", type=int, default=None)

    p = sub.add_parser("marks", help="table of marks")
    add_common(p)

    p = sub.add_parser("geomfp-verify", help="Euler-class identity suites")
    add_common(p, group_required=False)
    p.add_argument("--max-order", type=int, default=GEOMFP_MAX_ORDER)

    p = sub.add_parser("bott-verify", help="Bott character identities")
    add_common(p)
    p.add_argument("--ell", type=int, default=None)

    p = sub.add_parser("norms", help="norm derivation report")
    add_common(p, group_required=False, group_optional=True)

    p = sub.add_parser("verify-all", help="all suites; exit 0 iff every check passes")
    add_common(p, group_required=False)
    p.add_argument("--max-order", type=int, default=81)
    p.add_argument("--test-seed", type=int, default=20240801)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        group = parse_group(args.group) if getattr(args, "group", None) else None
        if args.command == "pi0":
            ok, payload, text = cmd_pi0(group, args.ell)
        elif args.command == "pi1":
            ok, payload, text = cmd_pi1(group, args.ell)
        elif args.command == "kernel":
            ok, payload, text = cmd_kernel(group, args.ell)
        elif args.command == "idempotents":
            ok, payload, text = cmd_idempotents(group, args.p)
        elif args.command == "marks":
            ok, payload, text = cmd_marks(group)
        elif args.command == "geomfp-verify":
            ok, payload, text = cmd_geomfp_verify(args.max_order)
        elif args.command == "bott-verify":
            ok, payload, text = cmd_bott_verify(group, args.ell)
        elif args.command == "norms":
            ok, payload, text = cmd_norms(group)
        elif args.command == "verify-all":
            ok, payload, text = cmd_verify_all(args.max_order, args.test_seed)
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command}")
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = canonical_json(payload) if args.format == "json" else text + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
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
